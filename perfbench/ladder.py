"""The algebra ladder: per-algebra costs in both scalar modes.

It regenerates the baseline table of ROADMAP.md ("Baseline measured at this
re-anchor") and extends it to every algebra the benchmark uses, up to
dimension 16.  Inputs come from a fixed seed, so rows compare across runs
and commits.  Each row is a median over a few repetitions (a single sample
where one call takes seconds).  Rows that would take minutes are left out;
see CONSTRUCTION_ONLY.
"""

from __future__ import annotations

import random
import statistics
import time

import tables

ALGEBRAS = ("H", "M2", "complex", "dual", "Cl11", "Cl30", "M3", "M4")
MODES = ("rational", "float")
LADDER_SEED = 2024

# (algebra, mode) pairs whose rows stop after construction: an exact dim-16
# field solve needs a cold pair_products of ~5 s and an exact tensor inverse
# a 256 x 256 exact elimination (minutes)
CONSTRUCTION_ONLY = {("M4", "rational")}


def _ms(fn, reps):
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1000)
    return statistics.median(samples)


def _reps(dim):
    return 5 if dim <= 4 else 3 if dim <= 9 else 1


def _system(nc, alg, rng, m):
    """m equations in m unknowns, two terms a x_j b per unknown."""
    def elem():
        return alg.element([rng.randint(-2, 2) for _ in range(alg.dim)])
    equations = [([(elem(), elem(), j) for j in range(m) for _ in range(2)], elem())
                 for _ in range(m)]
    return nc.SylvesterSystem.from_terms(alg, equations, m)


def _call_or_error(fn):
    def run():
        try:
            fn()
        except Exception:  # a singular tensor still costs its decision time
            pass
    return run


def measure(algebras=ALGEBRAS):
    """{metric name: (value, unit)} for every ladder row of these algebras."""
    import ncalg as nc

    rows = {}
    for name in algebras:
        for mode in MODES:
            key = f"ladder.{name}.{mode}"
            dim = len(tables.table(name)[0])
            reps = _reps(dim)
            rows[f"{key}.build_ms"] = (_ms(lambda: tables.build(name, mode), reps), "ms")
            if (name, mode) in CONSTRUCTION_ONLY:
                continue
            rng = random.Random(f"{LADDER_SEED}:{name}")
            alg = tables.build(name, mode)
            system = _system(nc, alg, rng, 1)
            rows[f"{key}.field_cold_ms"] = (_ms(lambda: nc.solve_field(system), 1), "ms")
            rows[f"{key}.field_warm_ms"] = (_ms(lambda: nc.solve_field(system), reps), "ms")
            rows[f"{key}.richardson_ms"] = (_ms(_call_or_error(
                lambda: nc.solve_richardson(system)), reps), "ms")
            op = system.ops[0][0]
            rows[f"{key}.invert_ms"] = (_ms(_call_or_error(op.invert), reps), "ms")
            if name == "complex" and mode == "float":
                rows.update(_imaginary_newton(nc, alg, key))
            if name == "H":
                system3 = _system(nc, alg, rng, 3)
                rows[f"{key}.field3_ms"] = (_ms(lambda: nc.solve_field(system3), reps), "ms")
                rows[f"{key}.richardson3_ms"] = (_ms(lambda: nc.solve_richardson(system3),
                                                     reps), "ms")
                rows.update(_acceptance_newton(nc, alg, key, reps))
    return rows


def _acceptance_newton(nc, alg, key, reps):
    """Acceptance criterion 6: x^2 - i x - x j + k = 0 from 1 + j."""
    one, i, j, k = (alg.basis(t) for t in range(4))
    poly = nc.GeneralizedPolynomial(alg, [[one, one, one], [-i, one], [one, -j], [k]])
    cfg = nc.NewtonConfig(tol=1e-12)
    trace = nc.newton_solve(poly, alg.zero(), one + j, cfg)
    return {
        f"{key}.newton_ms": (_ms(lambda: nc.newton_solve(poly, alg.zero(), one + j, cfg),
                                 reps), "ms"),
        f"{key}.newton_iterations": (len(trace.iterates) - 1, "count"),
    }


def _imaginary_newton(nc, alg, key):
    """x^2 = -1 from 2u: the derivative operator x -> 4u x is invertible, but
    its tensor in A (x) A^op is not, so the tensor-inverse Newton step stops
    with singular_derivative (ROADMAP item 2).  1 once Newton converges."""
    one, u = alg.one(), alg.basis(1)
    poly = nc.GeneralizedPolynomial(alg, [[one, one, one]])
    trace = nc.newton_solve(poly, -one, u.scale(2))
    return {f"{key}.newton_imaginary_converged":
            (int(trace.status == nc.CONVERGED), "count")}

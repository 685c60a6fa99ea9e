"""The three benchmark workloads: inputs, set-up, operations and checks.

Each workload is a fixed, seeded list of operations whose length depends only
on the op count, never on elapsed time.  Operations fall into cost classes
with fixed shares (see README.md), so that the 50 % and 90 % ranks do not sit
on a class boundary.  Inputs are generated as exact coordinates with the
reference arithmetic in `refalg`; the program receives only the generated
inputs, converted to its own types before the timed loop.

This module imports no ncalg at load time: `setup` does, so that a fresh
interpreter running `setup` times the import as part of set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from collections import Counter
from fractions import Fraction

import oracle
import tables
from refalg import RefAlgebra, format_element, rank_exact



def ref_algebra(name):
    constants, names = tables.table(name)
    return RefAlgebra(name, constants, names)


def allocate(count, shares):
    """Split count over the (label, share) classes by largest remainder."""
    total = sum(s for _, s in shares)
    raw = [(label, count * s / total) for label, s in shares]
    out = {label: int(v) for label, v in raw}
    rest = count - sum(out.values())
    for label, v in sorted(raw, key=lambda t: -(t[1] - int(t[1])))[:rest]:
        out[label] += 1
    return out


def class_list(rng, count, shares):
    ops = [label for label, n in allocate(count, shares).items() for _ in range(n)]
    rng.shuffle(ops)
    return ops


# -- random inputs -------------------------------------------------------------


def rand_elem(alg, rng):
    """A coefficient with half its coordinates (at least two) in {±1, ±2}.

    A fixed nonzero count keeps the cost of ops within a class close.
    """
    nonzero = set(rng.sample(range(alg.dim), max(2, (alg.dim + 1) // 2)))
    return tuple(Fraction(rng.choice((-2, -1, 1, 2)) if k in nonzero else 0)
                 for k in range(alg.dim))


def rand_invertible(alg, rng):
    while True:
        x = rand_elem(alg, rng)
        if alg.inverse(x) is not None:
            return x


def linear_system(alg, rng, m_unk, terms_per_unknown, verdict):
    """Equations [(terms, rhs)] in m_unk unknowns with the given verdict.

    Singular systems get a planted kernel vector x0: each equation gains the
    term (-v x0_1^-1) x_1 1, where v is the equation's value at x0.  A
    parametric right-hand side is the image of a random point; an
    inconsistent one is a random element outside the image.
    """
    n = alg.dim
    while True:
        eqs = [[(rand_elem(alg, rng), rand_elem(alg, rng), j)
                for j in range(m_unk) for _ in range(terms_per_unknown)]
               for _ in range(m_unk)]
        if verdict != "unique":
            x0 = [rand_invertible(alg, rng) for _ in range(m_unk)]
            inv0 = alg.inverse(x0[0])
            for terms in eqs:
                v = alg.apply_terms(terms, x0)
                terms.append((tuple(-c for c in alg.mul(v, inv0)), alg.one(), 0))
        matrix = alg.field_matrix([(t, None) for t in eqs], m_unk)
        full = rank_exact(matrix) == n * m_unk
        if full != (verdict == "unique"):
            continue
        if verdict == "parametric":
            point = [rand_elem(alg, rng) for _ in range(m_unk)]
            rhs = [alg.apply_terms(terms, point) for terms in eqs]
        else:
            rhs = [rand_elem(alg, rng) for _ in range(m_unk)]
        if verdict == "inconsistent":
            flat = [c for b in rhs for c in b]
            augmented = [row + [b] for row, b in zip(matrix, flat)]
            if rank_exact(augmented) == rank_exact(matrix):
                continue
        return [(terms, b) for terms, b in zip(eqs, rhs)]


def equation_text(alg, terms, rhs, names):
    lhs = " + ".join(
        f"{format_element(a, alg.basis_names)}*{names[var]}*"
        f"{format_element(b, alg.basis_names)}" for a, b, var in terms)
    return f"{lhs} = {format_element(rhs, alg.basis_names)}"


def newton_problem(alg, rng, degree):
    """(monomials, target, root, start) with a planted root of full-rank
    derivative; the start point is the root plus a perturbation of at most
    0.05 per coordinate."""
    halves = [Fraction(v, 2) for v in range(-2, 3)]
    while True:
        shapes = [3, 2] if degree == 2 else [4, 3, 2]
        monos = [[rand_elem(alg, rng) for _ in range(size)] for size in shapes]
        root = tuple(rng.choice(halves) for _ in range(alg.dim))
        if oracle.poly_derivative_rank(alg, monos, root) == alg.dim:
            break
    target = oracle.poly_eval(alg, monos, root)
    start = tuple(r + Fraction(rng.randint(-50, 50), 1000) for r in root)
    return monos, target, root, start


def decimal_text(alg, coords):
    parts = []
    for k, c in enumerate(coords):
        if c == 0:
            continue
        body = f"{abs(float(c)):.3f}" + ("" if k == 0 else f"*{alg.basis_names[k]}")
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts) or "0"
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def poly_text(alg, monos, target):
    names = alg.basis_names
    lhs = " + ".join(
        "*x*".join(format_element(c, names) for c in mono) for mono in monos)
    return f"{lhs} = {format_element(target, names)}"


# -- the workloads ---------------------------------------------------------------


class CliSession:
    """In-process `ncalg.cli.run` calls with `--output json`.

    Cost classes, cheapest first: check and float newton (30 %),
    invert-tensor (10 %), one-unknown solve (35 %), two-unknown solve (25 %).
    """

    name = "cli_session"
    nominal_ops_per_s = 45
    setup_reps = 9
    algebras = ("H", "M2", "Cl11")
    shares = [("check", 15), ("newton", 15), ("invert", 10),
              ("solve1", 35), ("solve2", 25)]
    solve_verdicts = ["unique", "parametric", "unique", "inconsistent", "unique"]

    def generate(self, seed, count, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        refs = {name: ref_algebra(name) for name in self.algebras}
        paths = {"H": "quaternion"}
        os.makedirs(workdir, exist_ok=True)
        for name in ("M2", "Cl11"):
            constants, basis = tables.table(name)
            path = os.path.join(workdir, f"{name}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump({"name": name, "dim": len(basis), "basis": basis,
                           "constants": [[[str(c) for c in row] for row in plane]
                                         for plane in constants]}, handle)
            paths[name] = path
        seen = Counter()
        ops = []
        for kind in class_list(rng, count, self.shares):
            # the j-th op of a class fixes its algebra and variant, so each
            # class holds every algebra x variant pair in fixed shares
            j = seen[kind]
            seen[kind] += 1
            alg_name = self.algebras[j % len(self.algebras)]
            variant = j // len(self.algebras)
            alg = refs[alg_name]
            common = ["--algebra", paths[alg_name], "--output", "json"]
            if kind in ("solve1", "solve2"):
                m = 1 if kind == "solve1" else 2
                names = ["x"] if m == 1 else ["x1", "x2"]
                verdict = self.solve_verdicts[variant % len(self.solve_verdicts)]
                eqs = linear_system(alg, rng, m, 2 if m == 1 else 1, verdict)
                argv = ["solve"] + [equation_text(alg, t, b, names) for t, b in eqs]
                ops.append({"kind": "solve", "alg": alg_name, "argv": argv + common,
                            "equations": eqs, "m_unk": m})
            elif kind == "check":
                (terms, rhs), = linear_system(alg, rng, 1, 2, "unique")
                x = oracle.solve_unique(alg, [(terms, rhs)], 1)[0]
                if variant % 2:  # every other check substitutes a non-solution
                    x = alg.add(x, alg.unit(variant % alg.dim))
                argv = ["check", equation_text(alg, terms, rhs, ["x"]),
                        "--x", format_element(x, alg.basis_names)]
                ops.append({"kind": "check", "alg": alg_name, "argv": argv + common,
                            "equations": [(terms, rhs)], "x": x})
            elif kind == "invert":
                verdict = "parametric" if variant % 5 == 0 else "unique"  # 20 % singular
                (terms, _), = linear_system(alg, rng, 1, 2, verdict)
                expr = equation_text(alg, terms, alg.zero(), ["x"]).split(" = ")[0]
                ops.append({"kind": "invert", "alg": alg_name,
                            "argv": ["invert-tensor", expr] + common, "terms": terms})
            else:
                monos, target, _root, start = newton_problem(alg, rng, 2 + variant % 2)
                argv = ["newton", poly_text(alg, monos, target),
                        "--x0", decimal_text(alg, start)]
                ops.append({"kind": "newton", "alg": alg_name, "argv": argv + common,
                            "monos": monos, "target": target})
        return ops

    def setup(self, constants):
        import ncalg.cli  # noqa: F401  (the loop reuses only the imports)
        return {}

    def prepare(self, op, ctx):
        from ncalg import cli
        argv = op["argv"]

        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.run(argv)
            return code, out.getvalue()
        return call

    def check(self, op, result, refs):
        return oracle.check_cli(op, result, refs[op["alg"]])


class SolveExact:
    """Library `solve_field` then `solve_richardson`, rational mode.

    Cost classes: dim-4 algebras with two unknowns (70 %), M3 with one
    unknown (10 %) and singular Cl(3,0) systems with one unknown (20 %).
    Verdicts mix unique, parametric, inconsistent and (from Richardson on
    parametric systems) unverified-enlarged.  Unique Cl(3,0) systems are
    left out: their costs spread over 60-220 ms, across the 90 % rank.
    """

    name = "solve_exact"
    nominal_ops_per_s = 18
    setup_reps = 5
    algebras = ("H", "M2", "Cl11", "Cl30", "M3")
    shares = [("H:unique", 14), ("H:parametric", 8), ("H:inconsistent", 8),
              ("Cl11:unique", 10), ("Cl11:parametric", 5), ("Cl11:inconsistent", 5),
              ("M2:unique", 20),
              ("M3:unique", 10),
              ("Cl30:parametric", 10), ("Cl30:inconsistent", 10)]

    def generate(self, seed, count, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        refs = {name: ref_algebra(name) for name in self.algebras}
        ops = []
        for label in class_list(rng, count, self.shares):
            alg_name, verdict = label.split(":")
            alg = refs[alg_name]
            m = 2 if alg.dim == 4 else 1
            eqs = linear_system(alg, rng, m, 1 if m == 2 else 2, verdict)
            ops.append({"kind": "library_solve", "alg": alg_name,
                        "equations": eqs, "m_unk": m})
        return ops

    def setup(self, constants):
        import ncalg
        out = {}
        for name in self.algebras:
            if name == "H":
                alg = ncalg.quaternion_algebra(ncalg.RATIONAL)
            else:
                table, basis = constants[name]
                alg = ncalg.make_algebra(table, basis, ncalg.RATIONAL, name=name)
            alg.pair_products()
            out[name] = alg
        return out

    def prepare(self, op, ctx):
        import ncalg
        alg = ctx[op["alg"]]
        system = ncalg.SylvesterSystem.from_terms(
            alg, [([(alg.element(a), alg.element(b), var) for a, b, var in terms],
                   alg.element(rhs)) for terms, rhs in op["equations"]], op["m_unk"])

        def call():
            field = ncalg.solve_field(system)
            try:
                richardson = ncalg.solve_richardson(system)
            except ncalg.PivotNotInvertible:
                # documented: no invertible pivot outside division algebras,
                # so the enlarged route does not apply (the CLI falls back
                # to the field answer the same way); the oracle counts it as
                # failed on H, and `fallbacks` counts it everywhere
                richardson = None
            return field, richardson
        return call

    @staticmethod
    def fallbacks(results):
        """Ops whose solve_richardson raised PivotNotInvertible."""
        return sum(1 for r in results if isinstance(r, tuple) and r[1] is None)

    def check(self, op, result, refs):
        return oracle.check_library_solve(op, result, refs[op["alg"]])


class NewtonFloat:
    """Library `newton_solve` in float mode on planted-root polynomials.

    Cost classes: complex and dual (30 %; generic ops converge, so ROADMAP
    item 2's defect shows only in the ladder's imaginary-start row), then H
    (30 %), M2 and Cl(1,1) (20 % each).
    """

    name = "newton_float"
    nominal_ops_per_s = 220
    setup_reps = 9
    algebras = ("complex", "dual", "H", "M2", "Cl11")
    shares = [("complex", 15), ("dual", 15), ("H", 30), ("M2", 20), ("Cl11", 20)]

    def generate(self, seed, count, workdir):
        rng = random.Random(f"{self.name}:{seed}")
        refs = {name: ref_algebra(name) for name in self.algebras}
        seen = Counter()
        ops = []
        for alg_name in class_list(rng, count, self.shares):
            degree = 2 + seen[alg_name] % 2  # half of each class is cubic
            seen[alg_name] += 1
            monos, target, _root, start = newton_problem(refs[alg_name], rng, degree)
            ops.append({"kind": "library_newton", "alg": alg_name, "monos": monos,
                        "target": target, "start": start})
        return ops

    def setup(self, constants):
        import ncalg
        out = {}
        for name in self.algebras:
            if name == "H":
                out[name] = ncalg.quaternion_algebra(ncalg.FLOAT)
            else:
                table, basis = constants[name]
                out[name] = ncalg.make_algebra(table, basis, ncalg.FLOAT, name=name)
        return out

    def prepare(self, op, ctx):
        import ncalg
        alg = ctx[op["alg"]]

        def elem(coords):
            return alg.element([float(c) for c in coords])
        poly = ncalg.GeneralizedPolynomial(
            alg, [[elem(c) for c in mono] for mono in op["monos"]])
        target, start = elem(op["target"]), elem(op["start"])
        cfg = ncalg.NewtonConfig(tol=oracle.NEWTON_TOL)

        def call():
            return ncalg.newton_solve(poly, target, start, cfg)
        return call

    def check(self, op, result, refs):
        return oracle.check_newton(op, result, refs[op["alg"]])


WORKLOADS = {w.name: w for w in (CliSession(), SolveExact(), NewtonFloat())}


def constants_for(workload):
    """Structure constants the set-up builds (generated before timing)."""
    return {name: tables.table(name) for name in workload.algebras if name != "H"}

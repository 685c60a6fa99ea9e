"""Exact arithmetic on integer numerators.

Products, the fused row update `minus_product` and the algebra-valued
elimination are checked against naive `Fraction` loops over the structure
constants as the builders passed them in (not the algebra's own table).
Float mode is checked bit for bit against the same loops.  Norms and Newton
runs on numbers beyond the float range end in a value or a named status.
"""

import json
import math
import random
from fractions import Fraction

import pytest

import ncalg as nc
from ncalg.cli import run
from ncalg.newton import BIT_BUDGET, DIVERGED, GeneralizedPolynomial, newton_solve
from ncalg.solvers import nc_row_reduce
from helpers import (algebra_from_data, clifford_algebra, matrix_algebra,
                     scaled_quaternion_algebra)

BUILDERS = {
    "H": nc.quaternion_algebra,
    "M2": lambda mode: matrix_algebra(2, mode),
    "Cl11": lambda mode: clifford_algebra(1, 1, mode),
    "Cl30": lambda mode: clifford_algebra(3, 0, mode),
    "complex": lambda mode: algebra_from_data("complex", mode),
    "dual": lambda mode: algebra_from_data("dual", mode),
    "H/2": scaled_quaternion_algebra,
}


def built(name, mode=nc.RATIONAL):
    """(algebra, the constants handed to its constructor, as Fractions)."""
    seen = []
    original = nc.Algebra.__init__

    def record(self, constants, *args, **kwargs):
        seen.append(constants)
        original(self, constants, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nc.Algebra, "__init__", record)
        alg = BUILDERS[name](mode)
    raw = [[[Fraction(c) for c in row] for row in plane] for plane in seen[-1]]
    return alg, raw


def big_scalar(rng):
    """Zero a quarter of the time, else a numerator of about 280 bits over
    a denominator of 1 to 64 bits, so reduced numerators keep 200+ bits."""
    if rng.random() < 0.25:
        return Fraction(0)
    num = rng.getrandbits(280) | 1 << 279
    den = rng.choice([1, 2, 3, 12, rng.getrandbits(64) | 1])
    return Fraction(rng.choice((-1, 1)) * num, den)


def rand_exact(alg, rng):
    return alg.element([big_scalar(rng) for _ in range(alg.dim)])


def naive_product(C, a, b):
    n = len(C)
    out = [Fraction(0)] * n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[k] += a[i] * b[j] * C[i][j][k]
    return out


def naive_envelope_product(C, f, g):
    """(e_i (x) e_j)(e_k (x) e_l) = sum_pq C[i][k][p] C[l][j][q] e_p (x) e_q."""
    n = len(C)
    out = [Fraction(0)] * (n * n)
    for i in range(n):
        for j in range(n):
            if not f[i * n + j]:
                continue
            for k in range(n):
                for l in range(n):
                    fg = f[i * n + j] * g[k * n + l]
                    for p in range(n):
                        for q in range(n):
                            out[p * n + q] += fg * C[i][k][p] * C[l][j][q]
    return out


def reference_float_product(C, a, b):
    """The float product loop: skip zero operands and constants, accumulate
    in i, j, k order."""
    n = len(C)
    out = [0.0] * n
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y == 0:
                continue
            xy = x * y
            for k in range(n):
                c = float(C[i][j][k])
                if c != 0:
                    out[k] = out[k] + xy * c
    return out


def reference_nc_row_reduce(amat, brhs, tol=1e-12):
    """Gauss-Jordan over the algebra written out with `a - f*g` updates.

    Pivot rules as in `linalg.eliminate`: first invertible entry in exact
    mode, largest norm in float mode; the systems used here are over H, so
    every nonzero entry is invertible.
    """
    rows, rhs = [list(r) for r in amat], list(brhs)
    exact = rhs[0].algebra.scalar_mode == nc.RATIONAL
    m, pivots = len(rows), []
    for c in range(len(rows[0])):
        r = len(pivots)
        if r == m:
            break
        order = list(range(r, m))
        if not exact:
            order.sort(key=lambda s: -rows[s][c].norm())
        live = [s for s in order if not rows[s][c].is_zero(0.0 if exact else tol)]
        if not live:
            continue
        s = live[0]
        inverse = rows[s][c].inverse()
        rows[r], rows[s], rhs[r], rhs[s] = rows[s], rows[r], rhs[s], rhs[r]
        rows[r] = [inverse * v for v in rows[r]]
        rhs[r] = inverse * rhs[r]
        for t in range(m):
            f = rows[t][c]
            if t == r or f.is_zero(0.0 if exact else tol):
                continue
            rows[t] = [a - f * g for a, g in zip(rows[t], rows[r])]
            rhs[t] = rhs[t] - f * rhs[r]
        pivots.append((r, c))
    return rows, rhs, pivots


def editable(alg):
    return [[list(row) for row in plane] for plane in alg.constants]


def coords_repr(elements):
    return repr([e.coords for e in elements])


@pytest.fixture
def rng():
    return random.Random(0x5EED)


class TestIntegerProduct:
    @pytest.mark.parametrize("name", list(BUILDERS))
    def test_matches_naive_fraction_loop(self, name, rng):
        alg, C = built(name)
        for _ in range(6):
            a, b = rand_exact(alg, rng), rand_exact(alg, rng)
            product = a * b
            assert list(product.coords) == naive_product(C, a.coords, b.coords)
            assert all(type(c) is Fraction for c in product.coords)
        zero = alg.zero()
        assert a * zero == zero and zero * a == zero
        assert a * alg.one() == a == alg.one() * a

    def test_scaled_table_keeps_common_denominator(self):
        alg, C = built("H/2")
        assert alg._dc == 16
        assert alg.constants == tuple(tuple(tuple(row) for row in plane) for plane in C)

    @pytest.mark.parametrize("name", ["H", "H/2"])
    def test_envelope_product_matches_naive(self, name, rng):
        alg, C = built(name)
        env = alg.envelope()
        for _ in range(2):
            f = env.element([big_scalar(rng) for _ in range(env.dim)])
            g = env.element([big_scalar(rng) for _ in range(env.dim)])
            product = f * g
            assert list(product.coords) == naive_envelope_product(C, f.coords, g.coords)
            assert all(type(c) is Fraction for c in product.coords)


class TestFusedUpdate:
    @pytest.mark.parametrize("name", list(BUILDERS))
    def test_equals_difference_of_product(self, name, rng):
        alg, C = built(name)
        for _ in range(6):
            a, f, g = (rand_exact(alg, rng) for _ in range(3))
            fused = a.minus_product(f, g)
            product = naive_product(C, f.coords, g.coords)
            assert list(fused.coords) == [x - y for x, y in zip(a.coords, product)]
            assert fused == a - f * g
            assert all(type(c) is Fraction for c in fused.coords)
        assert a.minus_product(f, alg.zero()) == a
        assert a.minus_product(alg.one(), a).is_zero()

    def test_exact_elimination_matches_written_out_sweep(self, rng):
        # the fused update must reach every cell and the right-hand side
        H = nc.quaternion_algebra()
        for m_rows, m_cols in ((3, 3), (3, 5), (4, 2)):
            amat = [[rand_exact(H, rng) for _ in range(m_cols)] for _ in range(m_rows)]
            brhs = [rand_exact(H, rng) for _ in range(m_rows)]
            rows, rhs, pivots = reference_nc_row_reduce(amat, brhs)
            expected = nc.linalg.solution_set(rows, rhs, pivots, H.zero(), H.one(),
                                              lambda e: e.is_zero())
            got = nc_row_reduce(amat, brhs)
            assert (got.kind, got.particular, got.nullspace) == expected[:3]


class TestFloatModeUnchanged:
    @pytest.mark.parametrize("name", list(BUILDERS))
    def test_products_bit_identical(self, name, rng):
        alg, C = built(name, nc.FLOAT)
        for _ in range(10):
            a = alg.element([rng.choice((0.0, rng.uniform(-1e3, 1e3), rng.random() / 1e7))
                             for _ in range(alg.dim)])
            b = alg.element([rng.choice((0.0, -0.0, rng.uniform(-5, 5)))
                             for _ in range(alg.dim)])
            expected = reference_float_product(C, a.coords, b.coords)
            assert repr((a * b).coords) == repr(tuple(expected))

    def test_h_elimination_bit_identical(self, rng):
        H = nc.quaternion_algebra(nc.FLOAT)

        def entry():
            return H.element([rng.choice((0.0, rng.uniform(-3, 3))) for _ in range(4)])
        for m_rows, m_cols in ((4, 4), (3, 5)):
            amat = [[entry() for _ in range(m_cols)] for _ in range(m_rows)]
            brhs = [entry() for _ in range(m_rows)]
            rows, rhs, pivots = reference_nc_row_reduce(amat, brhs)
            kind, particular, nullspace, _ = nc.linalg.solution_set(
                rows, rhs, pivots, H.zero(), H.one(), lambda e: e.is_zero(1e-12))
            got = nc_row_reduce(amat, brhs)
            assert got.kind == kind
            assert coords_repr(got.particular) == coords_repr(particular)
            assert [coords_repr(v) for v in got.nullspace] == \
                [coords_repr(v) for v in nullspace]

    def test_norms_bit_identical(self, rng):
        H = nc.quaternion_algebra(nc.FLOAT)
        for _ in range(20):
            x = H.element([rng.uniform(-1e150, 1e150) for _ in range(4)])
            total = 0.0
            for c in x.coords:
                total = total + c * c
            assert repr(x.norm()) == repr(math.sqrt(total))


class TestConstruction:
    # messages are those of the dense coercion the sparse one replaced
    def test_unit_law_messages(self):
        for mode, zero, half in ((nc.RATIONAL, "0", "1/2"), (nc.FLOAT, "0.0", "0.5")):
            C = editable(nc.quaternion_algebra())
            C[2][0][2] = 0
            with pytest.raises(nc.UnitLawViolation) as err:
                nc.make_algebra(C, scalar_mode=mode)
            assert str(err.value) == \
                f"e2*e0 has wrong e2-coordinate {zero} (indices i=2, j=0, k=2)"
            C = editable(nc.quaternion_algebra())
            C[0][3][1] = Fraction(1, 2)
            with pytest.raises(nc.UnitLawViolation) as err:
                nc.make_algebra(C, scalar_mode=mode)
            assert str(err.value) == \
                f"e0*e3 has wrong e1-coordinate {half} (indices i=0, j=3, k=1)"

    def test_non_integral_associativity_message(self):
        C = editable(scaled_quaternion_algebra())
        C[1][2][3] = -C[1][2][3]
        for mode, values in ((nc.RATIONAL, "-1/4 != 1/4"), (nc.FLOAT, "-0.25 != 0.25")):
            with pytest.raises(nc.NonAssociative) as err:
                nc.make_algebra(C, scalar_mode=mode)
            assert str(err.value) == ("(e1*e1)*e2 != e1*(e1*e2) at coordinate p=2 "
                                      f"(indices i=1, j=1, k=2, p=2): {values}")

    def test_zero_spellings_and_float_rejection(self):
        C = [[[str(c) for c in row] for row in plane]
             for plane in scaled_quaternion_algebra().constants]
        C[1][1][2], C[2][2][3] = "0/5", Fraction(0)
        alg = nc.make_algebra(C, ["1", "u", "v", "w"])
        assert alg == scaled_quaternion_algebra()
        assert nc.algebra_to_json(alg)["constants"] == \
            [[[str(Fraction(c)) for c in row] for row in plane] for plane in C]
        C[3][3][1] = 0.0
        with pytest.raises(TypeError):
            nc.make_algebra(C, ["1", "u", "v", "w"])


class TestBeyondFloatRange:
    def test_exact_norm_of_huge_square(self):
        H = nc.quaternion_algebra()
        assert H.element([2 ** 600, 0, 0, 0]).norm() == 2.0 ** 600
        assert H.element([0, 3 * 2 ** 600, 0, -4 * 2 ** 600]).norm() == 5 * 2.0 ** 600
        x = H.element([Fraction(2 ** 700, 3), 0, 0, 0])
        assert math.isclose(x.norm(), 2.0 ** 700 / 3, rel_tol=1e-15)
        assert H.element([2 ** 1100, 1, 0, 0]).norm() == math.inf
        small = H.element(["1/3", "-2/7", 5, 0])
        assert small.norm() == math.sqrt(float(small.norm_squared()))

    def test_exact_newton_from_huge_start(self):
        H = nc.quaternion_algebra()
        one = H.one()
        p = GeneralizedPolynomial(H, [[one, one, one]])
        trace = newton_solve(p, -one, one.scale(2 ** 300))
        assert trace.status == BIT_BUDGET
        assert trace.iterates[0][2] == 2.0 ** 600
        assert all(math.isfinite(norm) for _, _, norm in trace.iterates)
        trace = newton_solve(p, -one, one.scale(2 ** 600))
        assert trace.status == DIVERGED
        assert [norm for _, _, norm in trace.iterates] == [math.inf]

    @pytest.mark.parametrize("start", [2.0 ** 600, math.nan])
    def test_float_newton_stops_on_non_finite_residual(self, start):
        H = nc.quaternion_algebra(nc.FLOAT)
        one = H.one()
        p = GeneralizedPolynomial(H, [[one, one, one]])
        trace = newton_solve(p, -one, one.scale(start))
        assert trace.status == DIVERGED
        assert len(trace.iterates) == 1
        assert not math.isfinite(trace.iterates[0][2])

    def test_cli_float_run_reports_diverged(self, capsys):
        assert run(["newton", "--x0", "2^600", "x^2 = -1"]) == 1
        out = capsys.readouterr().out
        assert out.splitlines()[-2:] == ["status: diverged", "x = 4.149515568880993e+180"]

    def test_cli_exact_runs_end_with_a_status(self, capsys):
        assert run(["newton", "--scalar", "rational", "--x0", "2^300",
                    "--output", "json", "x^2 = -1"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "bit_budget"
        assert payload["iterations"][0]["norm"] == 2.0 ** 600
        assert run(["newton", "--scalar", "rational", "--x0", "2^600", "x^2 = -1"]) == 1
        assert "status: diverged" in capsys.readouterr().out

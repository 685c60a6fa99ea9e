"""Exact arithmetic on integer numerators.

The compiled product kernels, products, the fused row update
`Element.minus_product` and the algebra-valued elimination are checked against
naive `Fraction` loops over the structure constants as the builders passed
them in (not the algebra's own table).  Exact inverses, computed from
a*y = 1 alone, are checked on both sides.
Float mode is checked bit for bit against the same loops (the algebra-valued
elimination against a written-out forward sweep and back-substitution, and
within rounding against Gauss-Jordan), and its compiled kernels against the
sparse loop `_product` on signed zeros, extremes, infinities and NaN.  Norms
and Newton runs on numbers beyond the float range end in a value or a named
status.
"""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

import ncalg as nc
from ncalg import algebra as algebra_module, solvers as solvers_module
from ncalg.cli import run
from ncalg.newton import (BIT_BUDGET, CONVERGED, DIVERGED, GeneralizedPolynomial,
                          newton_solve)
from ncalg.solvers import nc_row_reduce
from helpers import (SPECIAL_FLOATS, algebra_from_data, clifford_algebra,
                     constructor_constants, dense_quaternion_algebra, flat, float_bits,
                     matrix_algebra, naive_product, scaled_quaternion_algebra)

BUILDERS = {
    "H": nc.quaternion_algebra,
    "M2": lambda mode: matrix_algebra(2, mode),
    "Cl11": lambda mode: clifford_algebra(1, 1, mode),
    "Cl30": lambda mode: clifford_algebra(3, 0, mode),
    "complex": lambda mode: algebra_from_data("complex", mode),
    "dual": lambda mode: algebra_from_data("dual", mode),
    "H/2": scaled_quaternion_algebra,
    "H~P": dense_quaternion_algebra,
}


def built(name, mode=nc.RATIONAL):
    """(algebra, the constants handed to its constructor, as Fractions)."""
    return constructor_constants(BUILDERS[name], mode)


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

    Pivot rules as in `linalg.eliminate`: the first invertible entry down
    the column in exact mode, in order of decreasing norm in float mode; a
    column whose nonzero entries are all zero divisors raises
    PivotNotInvertible with the message `eliminate` gives.
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
        for s in live:
            try:
                inverse = rows[s][c].inverse()
                break
            except nc.NotInvertible:
                pass
        else:
            if live:
                raise nc.PivotNotInvertible(
                    f"column {c}: nonzero entries exist but none is invertible")
            continue
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


def reference_forward_nc_row_reduce(amat, brhs, tol=1e-12):
    """Float elimination over the algebra written out with `a - f*g` updates:
    the pivot of largest norm down each column, the pivot row left-divided
    from its column on, only the rows below cleared; then from the last
    pivot up, its column cleared in the rows above on the free columns and
    the right-hand side, each entry cleared set to 0."""
    rows, rhs = [list(r) for r in amat], list(brhs)
    zero = rhs[0].algebra.zero()
    m, pivots = len(rows), []
    for c in range(len(rows[0])):
        r = len(pivots)
        if r == m:
            break
        order = sorted(range(r, m), key=lambda s: -rows[s][c].norm())
        s = next((s for s in order if not rows[s][c].is_zero(tol)), None)
        if s is None:
            continue
        inverse = rows[s][c].inverse()
        rows[r], rows[s], rhs[r], rhs[s] = rows[s], rows[r], rhs[s], rhs[r]
        rows[r][c:] = [inverse * v for v in rows[r][c:]]
        rhs[r] = inverse * rhs[r]
        for t in range(r + 1, m):
            f = rows[t][c]
            if f.is_zero(tol):
                continue
            rows[t][c:] = [a - f * g for a, g in zip(rows[t][c:], rows[r][c:])]
            rhs[t] = rhs[t] - f * rhs[r]
        pivots.append((r, c))
    free = [u for u in range(len(rows[0])) if u not in {c for _, c in pivots}]
    for r, c in reversed(pivots):
        for t in range(r):
            f = rows[t][c]
            if f.is_zero(tol):
                continue
            for u in free:
                rows[t][u] = rows[t][u] - f * rows[r][u]
            rhs[t] = rhs[t] - f * rhs[r]
            rows[t][c] = zero
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
        # tensor composition is the product of A (x) A^op
        alg, C = built(name)
        n = alg.dim
        for _ in range(2):
            f, g = (nc.TensorOp(alg, [[big_scalar(rng) for _ in range(n)]
                                      for _ in range(n)]) for _ in range(2))
            product = flat(f.compose(g))
            assert product == naive_envelope_product(C, flat(f), flat(g))
            assert all(type(c) is Fraction for c in product)


class TestCompiledKernel:
    @pytest.mark.parametrize("name", list(BUILDERS))
    def test_matches_naive_product(self, name, rng):
        alg, C = built(name)
        n, kernel = alg.dim, alg._product_kernel()
        assert kernel is algebra_module._compiled_product(alg._mul_table, nc.RATIONAL)

        def vectors():
            yield [0] * n
            for k in range(n):  # sparse: one nonzero coordinate
                yield [rng.choice((-1, 1)) * rng.getrandbits(280) if t == k else 0
                       for t in range(n)]
            for _ in range(4):  # 280-bit numerators, a quarter of them zero
                yield [big_scalar(rng).numerator for _ in range(n)]
        for xa in vectors():
            for xb in vectors():
                got = kernel(xa, xb)
                assert got == [v * alg._dc for v in naive_product(C, xa, xb)]
                assert all(type(v) is int for v in got)

    @pytest.mark.parametrize("name", list(BUILDERS))
    def test_float_kernel_matches_sparse_loop(self, name, rng):
        # zeros of both signs, extremes, infinities and NaN, where the
        # kernel's multiplied zeros and the loop's skipped ones could differ
        alg = BUILDERS[name](nc.FLOAT)
        n, kernel = alg.dim, alg._product_kernel()
        assert kernel is algebra_module._compiled_product(alg._mul_table, nc.FLOAT)

        def scalar():
            return rng.choice(SPECIAL_FLOATS) if rng.random() < 0.5 else rng.uniform(-4, 4)
        operands = [[value if t == k else 0.0 for t in range(n)]
                    for value in SPECIAL_FLOATS for k in range(n)]
        operands += [[scalar() for _ in range(n)] for _ in range(60)]
        for xa in operands:
            a = alg.element(xa)
            for xb in rng.sample(operands, 40):
                product = algebra_module._product(alg._mul_table, xa, xb, 0.0)
                assert repr(kernel(xa, xb)) == repr(product)
                # float elements are their numerators over 1: each operation
                # is the IEEE result coordinate by coordinate, NaN signs too
                b = alg.element(xb)
                assert float_bits((a * b).coords) == float_bits(product)
                assert float_bits(a.minus_product(b, a).coords) == float_bits(
                    u - v for u, v in zip(xa, algebra_module._product(
                        alg._mul_table, xb, xa, 0.0)))
                assert float_bits((a + b).coords) == float_bits(u + v for u, v in zip(xa, xb))
                assert float_bits((a - b).coords) == float_bits(u - v for u, v in zip(xa, xb))
            assert float_bits((-a).coords) == float_bits(-u for u in xa)
            for s in (1.0, -1.0):
                assert float_bits(a.scale(s).coords) == float_bits(s * u for u in xa)
            assert all(type(c) is float for c in (a * a - a).coords)

    def test_shared_by_equal_algebras(self):
        first, second = built("H/2")[0], built("H/2")[0]
        assert first is not second and first == second
        assert first._product_kernel() is second._product_kernel()
        assert matrix_algebra(2)._product_kernel() is not first._product_kernel()
        F = scaled_quaternion_algebra(nc.FLOAT)
        assert F._product_kernel() is scaled_quaternion_algebra(nc.FLOAT)._product_kernel()

    @pytest.mark.parametrize("first", [nc.RATIONAL, nc.FLOAT])
    def test_kernel_cache_keyed_by_scalar_mode(self, first):
        # the int H table equals, and hashes like, the float one
        second = nc.FLOAT if first == nc.RATIONAL else nc.RATIONAL
        algebra_module._compiled_product.cache_clear()
        H = {first: nc.quaternion_algebra(first)}
        H[first]._product_kernel()
        H[second] = nc.quaternion_algebra(second)
        assert H[nc.RATIONAL]._mul_table == H[nc.FLOAT]._mul_table
        assert H[nc.RATIONAL]._product_kernel() is not H[nc.FLOAT]._product_kernel()
        exact = H[nc.RATIONAL].element(["1/3", 2, "-5/7", 1])
        assert all(type(c) is Fraction for c in (exact * exact).coords)
        assert (exact * exact).coords == tuple(naive_product(
            built("H")[1], exact.coords, exact.coords))
        floats = H[nc.FLOAT].element([0.5, 2.0, -1.0, 3.0])
        assert all(type(c) is float for c in (floats * floats).coords)

    def test_float_compiled_on_the_sparse_loop(self, rng):
        # float algebras multiply through their compiled kernel, which falls
        # back to the loop only for a NaN
        calls, product = [], algebra_module._product

        def counted(*args, **kwargs):
            calls.append(len(args[1]))
            return product(*args, **kwargs)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(algebra_module, "_product", counted)
            H = nc.quaternion_algebra()
            x = rand_exact(H, rng)
            x * x
            F = nc.quaternion_algebra(nc.FLOAT)
            F.basis(1) * F.basis(2)
            F.element([1e300, -0.0, 2.5, -1e-300]) * F.element([-1e300, 1.0, 0.0, 3.0])
            assert F._product_kernel() is algebra_module._compiled_product(
                F._mul_table, nc.FLOAT)
            assert calls == []
            F.element([0.0, 1.0, 0.0, 0.0]) * F.element([math.inf, 0.0, 0.0, 0.0])
            assert calls == [4]


class TestFusedUpdate:
    @pytest.mark.parametrize("name", list(BUILDERS))
    def test_equals_difference_of_product(self, name, rng):
        alg, C = built(name)
        for _ in range(6):
            a, f, g = (rand_exact(alg, rng) for _ in range(3))
            fused = a.minus_product(f, g)
            product = naive_product(C, f.coords, g.coords)
            expected = [x - y for x, y in zip(a.coords, product)]
            assert list(fused.coords) == expected
            # reduced, as `cleared` gives it
            assert (fused._d, list(fused._nums)) == nc.linalg.cleared(expected)
            assert fused == a - f * g
            assert all(type(c) is Fraction for c in fused.coords)
        assert a.minus_product(f, alg.zero()) == a
        assert a.minus_product(alg.one(), a).is_zero()

    @pytest.mark.parametrize("name", list(BUILDERS))
    def test_float_is_the_difference_of_the_product(self, name, rng):
        alg = BUILDERS[name](nc.FLOAT)
        for _ in range(6):
            a, f, g = (alg.element([float(big_scalar(rng)) for _ in range(alg.dim)])
                       for _ in range(3))
            assert repr(a.minus_product(f, g).coords) == repr((a - f * g).coords)

    def test_exact_elimination_matches_written_out_sweep(self, rng):
        # the fused update must reach every cell and the right-hand side
        H = nc.quaternion_algebra()
        for m_rows, m_cols in ((3, 3), (3, 5), (4, 2)):
            amat = [[rand_exact(H, rng) for _ in range(m_cols)] for _ in range(m_rows)]
            brhs = [rand_exact(H, rng) for _ in range(m_rows)]
            rows, rhs, pivots = reference_nc_row_reduce(amat, brhs)
            expected = nc.linalg.solution_set(rows, rhs, pivots, H.zero(), H.one(),
                                              lambda e: e.is_zero())
            assert nc_row_reduce(amat, brhs) == expected


BUILT_EXACT = {name: BUILDERS[name](nc.RATIONAL) for name in ("M2", "Cl11", "H~P")}


@st.composite
def nc_systems(draw):
    """(amat, brhs) up to 5x5 over M2, Cl(1,1) or H~P, coordinates in
    -2..2 so that zero divisors are common outside H~P: rectangular, with
    some rows sums of left multiples of others (singular), some columns
    zero, and some columns' entries all zero divisors (blocked)."""
    name = draw(st.sampled_from(list(BUILT_EXACT)))
    alg = BUILT_EXACT[name]
    coords = st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -2]),
                      min_size=alg.dim, max_size=alg.dim)

    def element():
        return alg.element(draw(coords))
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    amat = [[element() for _ in range(n)] for _ in range(m)]
    brhs = [element() for _ in range(m)]
    for t in draw(st.sets(st.integers(0, m - 1), max_size=m // 2)):
        s, a, b = draw(st.integers(0, m - 1)), element(), element()
        amat[t] = [a * x + b * y for x, y in zip(amat[s], amat[t - 1])]
        if draw(st.booleans()):  # consistent, or as the draw falls
            brhs[t] = a * brhs[s] + b * brhs[t - 1]
    for c in draw(st.sets(st.integers(0, n - 1), max_size=n // 2)):
        for row in amat:
            row[c] = alg.zero()
    if name != "H~P" and draw(st.booleans()):
        # 1 + h in M2 and 1 + e1 in Cl(1,1) are zero divisors, and so are
        # their left multiples
        c = draw(st.integers(0, n - 1))
        for row in amat:
            row[c] = alg.element([1, 1, 0, 0]) * element()
    return amat, brhs


class TestForwardSweep:
    @given(nc_systems())
    def test_equals_gauss_jordan(self, system):
        # clearing below the pivots and back-substituting once gives the
        # reduced form, hence the solution set, that Gauss-Jordan gives, and
        # the same blocked column
        amat, brhs = system
        alg = brhs[0].algebra
        try:
            rows, rhs, pivots = reference_nc_row_reduce(amat, brhs)
        except nc.PivotNotInvertible as blocked:
            with pytest.raises(nc.PivotNotInvertible) as err:
                nc_row_reduce(amat, brhs)
            assert str(err.value) == str(blocked)
            return
        expected = nc.linalg.solution_set(rows, rhs, pivots, alg.zero(), alg.one(),
                                          lambda e: e.is_zero())
        got = nc_row_reduce(amat, brhs)
        assert got == expected
        assert repr(got) == repr(expected)

    def test_minus_product_count(self, monkeypatch):
        # a dense full-rank 8x8 system over H: Gauss-Jordan made 7 updates
        # of each pivot row's tail and right-hand side per pivot, 308
        # `minus_product` calls; clearing below the pivot makes 196, and the
        # back-substitution 28 more, on the right-hand side only
        H, rng = nc.quaternion_algebra(), random.Random(8)
        amat = [[H.element([rng.randint(1, 3) for _ in range(4)]) for _ in range(8)]
                for _ in range(8)]
        brhs = [H.element([rng.randint(1, 3) for _ in range(4)]) for _ in range(8)]
        calls, update = [], nc.Element.minus_product

        def counted(a, f, g):
            calls.append(1)
            return update(a, f, g)
        rows, rhs, pivots = reference_nc_row_reduce(amat, brhs)
        monkeypatch.setattr(nc.Element, "minus_product", counted)
        sol = nc_row_reduce(amat, brhs)
        assert sol == nc.linalg.solution_set(rows, rhs, pivots, H.zero(), H.one(),
                                             lambda e: e.is_zero())
        assert sol.kind == nc.UNIQUE
        assert len(calls) == 224


class TestExactInverse:
    EXACT = {name: build(nc.RATIONAL) for name, build in BUILDERS.items()}
    scalars = st.one_of(st.just(Fraction(0)), st.integers(-3, 3).map(Fraction),
                        st.fractions(min_value=-4, max_value=4, max_denominator=12))

    @given(name=st.sampled_from(list(BUILDERS)), data=st.data())
    def test_two_sided(self, name, data):
        # `Element.inverse` solves a*y = 1 only: y*a = 1 must follow
        alg = self.EXACT[name]
        a = alg.element(data.draw(st.lists(self.scalars, min_size=alg.dim,
                                           max_size=alg.dim)))
        try:
            y = a.inverse()
        except nc.NotInvertible:
            assume(False)
        assert a * y == alg.one()
        assert y * a == alg.one()


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

    @staticmethod
    def float_systems(rng):
        H = nc.quaternion_algebra(nc.FLOAT)

        def entry():
            return H.element([rng.choice((0.0, rng.uniform(-3, 3))) for _ in range(4)])
        for m_rows, m_cols in ((4, 4), (3, 5), (5, 3), (4, 4), (3, 5)):
            amat = [[entry() for _ in range(m_cols)] for _ in range(m_rows)]
            if m_rows > m_cols:  # a consistent overdetermined system
                x = [entry() for _ in range(m_cols)]
                brhs = [sum((a * v for a, v in zip(row, x)), H.zero()) for row in amat]
            else:
                brhs = [entry() for _ in range(m_rows)]
            yield amat, brhs

    def test_h_elimination_bit_identical(self, rng):
        for amat, brhs in self.float_systems(rng):
            H = brhs[0].algebra
            rows, rhs, pivots = reference_forward_nc_row_reduce(amat, brhs)
            expected = nc.linalg.solution_set(
                rows, rhs, pivots, H.zero(), H.one(), lambda e: e.is_zero(1e-12))
            got = nc_row_reduce(amat, brhs)
            assert got.kind == expected.kind
            assert coords_repr(got.particular) == coords_repr(expected.particular)
            assert [coords_repr(v) for v in got.nullspace_basis] == \
                [coords_repr(v) for v in expected.nullspace_basis]

    def test_h_elimination_agrees_with_gauss_jordan(self, rng, monkeypatch):
        # Gauss-Jordan is another traversal order, so it agrees only to
        # rounding: the same kind and pivot columns, and every solution
        # vector within 1e-9 of its size
        pivot_rows, solution_set = [], nc.linalg.solution_set

        def recorded(rows, rhs, pivots, *args):
            pivot_rows.append(pivots)
            return solution_set(rows, rhs, pivots, *args)
        monkeypatch.setattr(solvers_module, "solution_set", recorded)
        for amat, brhs in self.float_systems(rng):
            H = brhs[0].algebra
            rows, rhs, pivots = reference_nc_row_reduce(amat, brhs)
            expected = solution_set(rows, rhs, pivots, H.zero(), H.one(),
                                    lambda e: e.is_zero(1e-12))
            got = nc_row_reduce(amat, brhs)
            assert got.kind == expected.kind
            assert [c for _, c in pivot_rows.pop()] == [c for _, c in pivots]
            for u, v in zip([got.particular, *got.nullspace_basis],
                            [expected.particular, *expected.nullspace_basis]):
                scale = max(abs(c) for e in v for c in e.coords)
                assert max(abs(a - b) for e, f in zip(u, v)
                           for a, b in zip(e.coords, f.coords)) <= 1e-9 * scale

    def test_norms_bit_identical(self, rng):
        H = nc.quaternion_algebra(nc.FLOAT)
        for _ in range(20):
            x = H.element([rng.uniform(-1e150, 1e150) for _ in range(4)])
            total = 0.0
            for c in x.coords:
                total = total + c * c
            assert repr(x.norm()) == repr(math.sqrt(total))


class TestFloatVerdicts:
    def test_dense_m3_richardson_verified(self):
        # a dense M3 system whose enlarged candidate Gauss-Jordan left with a
        # residual of 5.3e-8, beyond RESIDUAL_TOL, so Richardson reported
        # unverified_enlarged; the forward sweep leaves 2.7e-11.  Either
        # side of an absolute tolerance, since the enlarged system is nearly
        # singular (ROADMAP item 6)
        M3 = matrix_algebra(3, nc.FLOAT)
        terms = [([-1, -1, 2, 0, -2, -1, 2, 0, -2], [0, -2, -1, 1, 0, 2, 1, -1, 0]),
                 ([0, -2, -2, -2, 1, -2, 1, -1, 1], [2, -1, 1, 2, -1, 1, 1, 0, 1]),
                 ([1, 1, 0, 1, 2, -1, 0, 2, -2], [-1, -1, -2, -1, 0, 1, 0, 1, -1])]
        rhs = M3.element([2, 1, 0, -2, -1, 0, 1, 0, -2])
        system = nc.SylvesterSystem.from_terms(
            M3, [([(M3.element(a), M3.element(b), 0) for a, b in terms], rhs)], 1)
        field, richardson = nc.solve_field(system), nc.solve_richardson(system)
        assert (field.kind, richardson.kind) == (nc.UNIQUE, nc.UNIQUE)
        assert max(abs(a - b) for a, b in zip(field.x[0].coords,
                                              richardson.x[0].coords)) < 1e-9


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
        assert [[list(row) for row in plane] for plane in alg.constants] == \
            [[[Fraction(c) for c in row] for row in plane] for plane in C]
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
        # exact runs are judged by exact squared norms: a norm beyond the
        # float range is recorded as inf but neither diverges nor converges
        trace = newton_solve(p, -one, one.scale(2 ** 600))
        assert trace.status == BIT_BUDGET
        assert [norm for _, _, norm in trace.iterates] == [math.inf] * 3
        # the root 2^1050 from one above it: the first residual's norm is
        # beyond the float range, the last one's square below it
        root = one.scale(2 ** 1050)
        trace = newton_solve(p, root * root, root + one)
        assert trace.status == CONVERGED
        assert [norm for _, _, norm in trace.iterates] == [math.inf, 1.0, 0.0]
        assert 0 < trace.iterates[-1][1].norm_squared() < Fraction(1, 2 ** 4000)
        assert 0 < (trace.solution - root).norm_squared() < Fraction(1, 2 ** 6000)

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

    def test_cli_float_residual_keeps_the_loops_zeros(self, capsys):
        # x*x has the infinite x0*x0 and the zero x1, so the compiled kernel
        # reads 0*inf = NaN where the sparse loop skips the zero
        assert run(["newton", "--scalar", "float", "--x0", "10^200", "x^2 = 2",
                    "--output", "json"]) == 1
        assert capsys.readouterr().out == (
            '{"iterations": [{"k": 0, "norm": Infinity, "residual": '
            '[Infinity, 0.0, 0.0, 0.0], "x": [9.999999999999984e+199, 0.0, 0.0, '
            '0.0]}], "residual_norm": Infinity, "solution": "9.999999999999984e+199", '
            '"status": "diverged"}\n')

    def test_cli_exact_runs_end_with_a_status(self, capsys):
        assert run(["newton", "--scalar", "rational", "--x0", "2^300",
                    "--output", "json", "x^2 = -1"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "bit_budget"
        assert payload["iterations"][0]["norm"] == 2.0 ** 600
        assert run(["newton", "--scalar", "rational", "--x0", "2^600", "x^2 = -1"]) == 1
        assert "status: bit_budget" in capsys.readouterr().out
        assert run(["newton", "--scalar", "rational", "--x0", "2^1050+1",
                    "x^2 = 2^2100"]) == 0
        assert "status: converged" in capsys.readouterr().out

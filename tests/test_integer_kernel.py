"""Property tests of the integer elimination kernel.

Exact `row_reduce`, `rank` and `pivot_columns` are checked against sympy's
`Matrix.rref`, and on the same inputs every step of the fraction-free
forward sweep is checked to leave the rows at and above its pivot alone and
to divide exactly below it, the back-substitution to give d times the
reduced rows, and `solve_integer` to give the same solution set as integers
over one positive denominator.  Exact `Element.inverse`, and the pivot division
of the algebra-valued elimination (`nc_row_reduce` on one entry), are
checked against a written-out `Fraction` sweep over the structure
constants, zero divisors included, and `TensorOp.apply` against the
operator matrix.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, strategies as st

import ncalg as nc
from ncalg import linalg
from ncalg.solvers import nc_row_reduce
from helpers import algebra_from_data, clifford_algebra, matrix_algebra

BUILDERS = {
    "H": nc.quaternion_algebra,
    "M2": lambda mode: matrix_algebra(2, mode),
    "Cl11": lambda mode: clifford_algebra(1, 1, mode),
    "complex": lambda mode: algebra_from_data("complex", mode),
    "dual": lambda mode: algebra_from_data("dual", mode),
}
ALGEBRAS = {(name, mode): build(mode) for name, build in BUILDERS.items()
            for mode in (nc.RATIONAL, nc.FLOAT)}

scalars = st.one_of(
    st.just(Fraction(0)),
    st.integers(-3, 3).map(Fraction),
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
    st.builds(Fraction, st.integers(-2 ** 128, 2 ** 128), st.integers(1, 2 ** 64)),
)


def matrix_of(draw, rows, cols):
    return [[draw(scalars) for _ in range(cols)] for _ in range(rows)]


def product(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
            for row in a]


@st.composite
def systems(draw):
    """(rows, rhs) up to 8x8: full random, or a product through an inner
    dimension k (so of rank at most k, k = 0 giving the zero matrix), with
    some columns zeroed; the right-hand side is an image (consistent),
    random (often inconsistent when rank-deficient) or zero."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    if draw(st.booleans()):
        rows = matrix_of(draw, m, n)
    else:
        k = draw(st.integers(0, min(m, n)))
        rows = (product(matrix_of(draw, m, k), matrix_of(draw, k, n)) if k
                else [[Fraction(0)] * n for _ in range(m)])
    for c in draw(st.sets(st.integers(0, n - 1), max_size=n // 2)):
        for row in rows:
            row[c] = Fraction(0)
    kind = draw(st.sampled_from(["image", "random", "zero"]))
    if kind == "image":
        rhs = [row[0] for row in product(rows, matrix_of(draw, n, 1))]
    elif kind == "random":
        rhs = [draw(scalars) for _ in range(m)]
    else:
        rhs = [Fraction(0)] * m
    return rows, rhs


def fractions_of(matrix):
    return [[Fraction(int(v.p), int(v.q)) for v in matrix.row(r)]
            for r in range(matrix.rows)]


def sympy_matrix(rows):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row]
                         for row in rows])


def sympy_solution(rows, rhs):
    """(kind, particular, nullspace) from sympy's reduced echelon form of
    the augmented matrix: free columns at 0, one direction per free column."""
    n = len(rows[0])
    reduced, pivots = sympy_matrix([row + [b] for row, b in zip(rows, rhs)]).rref()
    if n in pivots:
        return nc.INCONSISTENT, None, []
    reduced = fractions_of(reduced)
    particular = [Fraction(0)] * n
    for r, c in enumerate(pivots):
        particular[c] = reduced[r][n]
    nullspace = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -reduced[r][fc]
        nullspace.append(vec)
    return (nc.PARAMETRIC if nullspace else nc.UNIQUE), particular, nullspace


FRACTION_FREE_STEP = linalg.fraction_free_step
BACK_SUBSTITUTE = linalg.back_substitute


def checked_fraction_free_step():
    """`fraction_free_step` wrapped so that every step asserts the forward
    invariant: the rows at or above the pivot row stay as they were, and
    below it every division is exact, q * new entry == p * old entry - f *
    pivot-row entry.  Every entry must stay an int."""
    step, previous = FRACTION_FREE_STEP(), [1]

    def checked(rows, rhs, r, c, divide):
        before = [list(row) for row in rows]
        before_rhs = None if rhs is None else list(rhs)
        p, q = rows[r][c], previous[0]
        step(rows, rhs, r, c, divide)
        assert rows[:r + 1] == before[:r + 1]
        assert rhs is None or rhs[:r + 1] == before_rhs[:r + 1]
        for t in range(r + 1, len(rows)):
            new, old, f = rows[t], before[t], before[t][c]
            assert all(q * v == p * a - f * g for v, a, g in zip(new, old, before[r]))
            if rhs is not None:
                assert q * rhs[t] == p * before_rhs[t] - f * before_rhs[r]
        assert all(type(v) is int for row in rows for v in row)
        assert rhs is None or all(type(v) is int for v in rhs)
        previous[0] = p
    return checked


def checked_back_substitute(rows, rhs, pivots):
    """`back_substitute` checked row by row: with d the last pivot and p_k
    row k's own pivot, p_k * R_k == d * U_k - sum_{j>k} U_k[c_j] * R_j on
    every column and the right-hand side, and R_k holds d at c_k and 0 at
    every other pivot column."""
    upper = [list(row) for row in rows[:len(pivots)]]
    upper_rhs = list(rhs[:len(pivots)])
    d = BACK_SUBSTITUTE(rows, rhs, pivots)
    cols = [c for _, c in pivots]
    assert d == upper[-1][cols[-1]]
    for k, c in enumerate(cols):
        later = range(k + 1, len(cols))
        p = upper[k][c]
        for u in range(len(rows[0])):
            assert p * rows[k][u] == d * upper[k][u] - sum(
                upper[k][cols[j]] * rows[j][u] for j in later)
        assert p * rhs[k] == d * upper_rhs[k] - sum(
            upper[k][cols[j]] * rhs[j] for j in later)
        assert [rows[k][cj] for cj in cols] == [d if cj == c else 0 for cj in cols]
        assert all(type(v) is int for v in rows[k] + [rhs[k]])
    return d


class TestAgainstSympy:
    @given(systems())
    # last pivots -3 (one row) and -1 (the 2x2 determinant)
    @example(([[Fraction(-3)]], [Fraction(1)]))
    @example(([[Fraction(1), Fraction(2), Fraction(1)], [Fraction(1), Fraction(1), 0]],
              [Fraction(5), Fraction(-2)]))
    def test_row_reduce(self, system):
        # every step of the sweep, and the back-substitution, is checked on
        # the way
        rows, rhs = system
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linalg, "fraction_free_step", checked_fraction_free_step)
            patch.setattr(linalg, "back_substitute", checked_back_substitute)
            sol = linalg.row_reduce(linalg.FieldMatrix(rows), rhs)
        assert (sol.kind, sol.particular, sol.nullspace_basis) == \
            sympy_solution(rows, rhs)
        values = (sol.particular or []) + [v for vec in sol.nullspace_basis for v in vec]
        assert all(type(v) is Fraction for v in values)
        # the integer solve under it: one positive d, over which the
        # solution set is integers, whatever the last pivot's sign
        cleared = [linalg.cleared(row + [b])[1] for row, b in zip(rows, rhs)]
        d, ints = linalg.solve_integer([row[:-1] for row in cleared],
                                       [row[-1] for row in cleared])
        assert type(d) is int and d > 0
        assert ints.kind == sol.kind and ints.free_names == sol.free_names
        if ints.particular is not None:
            vectors = [ints.particular, *ints.nullspace_basis]
            assert all(type(v) is int for vec in vectors for v in vec)
            assert [[Fraction(v, d) for v in vec] for vec in vectors] == \
                [sol.particular, *sol.nullspace_basis]

    @given(systems())
    def test_rank_and_pivot_columns(self, system):
        rows, _ = system
        matrix = linalg.FieldMatrix(rows)
        _, pivots = sympy_matrix(rows).rref()
        assert linalg.pivot_columns(matrix) == list(pivots)
        assert linalg.rank(matrix) == len(pivots)


def fraction_sweep_inverse(a):
    """The inverse the long way: L(a) summed from the dense constants, a
    `Fraction` Gauss-Jordan sweep against e0, then the two-sided check;
    None when there is no inverse."""
    alg = a.algebra
    n, C = alg.dim, alg.constants
    rows = [[sum((a.coords[i] * C[i][j][k] for i in range(n)), Fraction(0))
             for j in range(n)] + [Fraction(int(k == 0))] for k in range(n)]
    pivots = []
    for c in range(n):
        r = len(pivots)
        s = next((s for s in range(r, n) if rows[s][c] != 0), None)
        if s is None:
            continue
        rows[r], rows[s] = rows[s], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for t in range(n):
            if t != r and rows[t][c] != 0:
                f = rows[t][c]
                rows[t] = [x - f * g for x, g in zip(rows[t], rows[r])]
        pivots.append(c)
    if any(rows[s][n] != 0 for s in range(len(pivots), n)):
        return None
    y = [Fraction(0)] * n
    for r, c in enumerate(pivots):
        y[c] = rows[r][n]
    y = alg.element(y)
    return y if a * y == alg.one() == y * a else None


HALF = Fraction(1, 2)
ZERO_DIVISORS = {
    # over 1, h, e, f: the idempotents E11, E22 and E11 + E12, the
    # nilpotents E12 and E21
    "M2": [[HALF, HALF, 0, 0], [HALF, -HALF, 0, 0], [HALF, HALF, 1, 0],
           [0, 0, 1, 0], [0, 0, 0, 1]],
    # 1 + e1 and 1 - e1 with e1^2 = 1, 1 + e12 with e12^2 = 1
    "Cl11": [[1, 1, 0, 0], [1, -1, 0, 0], [1, 0, 0, 1]],
    "dual": [[0, 1]],
}


elements = st.lists(scalars, min_size=4, max_size=4)


class TestExactInverse:
    @given(name=st.sampled_from(list(ZERO_DIVISORS)), scale=scalars.filter(bool),
           left=elements, right=elements)
    def test_zero_divisors_not_invertible(self, name, scale, left, right):
        alg = ALGEBRAS[name, nc.RATIONAL]
        for coords in ZERO_DIVISORS[name]:
            z = alg.element(coords).scale(scale)
            # u z v is a zero divisor too whatever u and v are
            for w in (z, alg.element(left[:alg.dim]) * z * alg.element(right[:alg.dim])):
                if w.is_zero():
                    continue
                assert fraction_sweep_inverse(w) is None
                with pytest.raises(nc.NotInvertible):
                    w.inverse()
                # a zero-divisor pivot blocks the elimination's division
                with pytest.raises(nc.PivotNotInvertible):
                    nc_row_reduce([[w]], [alg.one()])

    @pytest.mark.parametrize("name", list(ZERO_DIVISORS))
    def test_column_of_zero_divisors_blocks_elimination(self, name):
        alg = ALGEBRAS[name, nc.RATIONAL]
        column = [alg.element(coords).scale(Fraction(-3, 7))
                  for coords in ZERO_DIVISORS[name]]
        with pytest.raises(nc.PivotNotInvertible):
            nc_row_reduce([[z, alg.one()] for z in column], [alg.one()] * len(column))

    @given(name=st.sampled_from(list(BUILDERS)), coords=elements, other=elements)
    def test_equals_fraction_sweep(self, name, coords, other):
        alg = ALGEBRAS[name, nc.RATIONAL]
        a = alg.element(coords[:alg.dim])
        if a.is_zero():
            return
        expected = fraction_sweep_inverse(a)
        b = alg.element(other[:alg.dim])
        if expected is None:
            with pytest.raises(nc.NotInvertible):
                a.inverse()
            with pytest.raises(nc.PivotNotInvertible):
                nc_row_reduce([[a]], [b])
        else:
            y = a.inverse()
            assert repr(y.coords) == repr(expected.coords)
            assert (y._d, list(y._nums)) == linalg.cleared(expected.coords)
            # the pivot division a^-1 b, as the elimination of a x = b
            assert nc_row_reduce([[a]], [b]).particular == [expected * b]


class TestApply:
    @given(key=st.sampled_from(list(ALGEBRAS)), data=st.data())
    def test_matches_operator_matrix(self, key, data):
        alg = ALGEBRAS[key]
        mode = alg.scalar_mode
        n = alg.dim

        def element():
            return alg.element([alg.coerce(v) if mode == nc.RATIONAL else float(v)
                                for v in data.draw(elements)[:n]])
        x = element()
        pairs = [(element(), element()) for _ in range(data.draw(st.integers(1, 3)))]
        with_pairs = nc.TensorOp.from_pairs(pairs)
        without = nc.TensorOp(alg, with_pairs.coeff)
        assert with_pairs.display_pairs is not None and without.display_pairs is None
        for op in (with_pairs, without):
            got = op.apply(x).coords
            expected = op.operator_matrix().matvec(list(x.coords))
            if mode == nc.RATIONAL:
                assert list(got) == expected
            else:  # 1e-9 relative to the largest coordinate, or absolute below 1
                scale = 1 + max(map(abs, expected))
                assert all(abs(g - e) <= 1e-9 * scale for g, e in zip(got, expected))

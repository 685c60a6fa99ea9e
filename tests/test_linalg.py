import itertools
import random
from fractions import Fraction

import pytest

import ncalg as nc
from ncalg.linalg import FieldMatrix, pivot_columns, rank, row_reduce, solve_float
from helpers import assert_round_trips


def fm(rows):
    return FieldMatrix([[Fraction(v) for v in row] for row in rows])


class TestRowReduce:
    def test_identity(self):
        sol = row_reduce(fm([[1, 0], [0, 1]]), [Fraction(3), Fraction(-7)])
        assert sol.kind == nc.UNIQUE
        assert sol.particular == [3, -7]

    def test_hand_elimination(self):
        # x + 2y = 1, 3x + 4y = 0  ->  y = 3/2, x = -2
        sol = row_reduce(fm([[1, 2], [3, 4]]), [Fraction(1), Fraction(0)])
        assert sol.kind == nc.UNIQUE
        assert sol.particular == [Fraction(-2), Fraction(3, 2)]

    def test_contradictory_rows(self):
        sol = row_reduce(fm([[1, 1], [1, 1]]), [Fraction(0), Fraction(1)])
        assert sol.kind == nc.INCONSISTENT
        assert sol.particular is None

    def test_parametric(self):
        sol = row_reduce(fm([[1, 1]]), [Fraction(2)])
        assert sol.kind == nc.PARAMETRIC
        assert sol.free_names == ["C0"]
        for t in (-1, 0, 1, Fraction(5, 3)):
            x = sol.assignment([t])
            assert x[0] + x[1] == 2

    def test_solutions_satisfy(self):
        rng = random.Random(11)
        checked = 0
        while checked < 40:
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            M = fm([[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)])
            if rng.random() < 0.5:
                x0 = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
                rhs = M.matvec(x0)
            else:
                rhs = [Fraction(rng.randint(-3, 3)) for _ in range(m)]
            sol = row_reduce(M, rhs)
            if sol.kind == nc.INCONSISTENT:
                continue
            params = sol.free_names
            for values in itertools.product((-1, 0, 1), repeat=min(len(params), 3)):
                full = list(values) + [0] * (len(params) - len(values))
                assert M.matvec(sol.assignment(full)) == rhs
            checked += 1

    def test_rank_nullity(self):
        rng = random.Random(12)
        for _ in range(40):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            M = fm([[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)])
            sol = row_reduce(M, [Fraction(0)] * m)
            assert rank(M) + len(sol.nullspace_basis) == n


class TestRank:
    def test_identity(self):
        assert rank(fm([[int(i == j) for j in range(5)] for i in range(5)])) == 5

    def test_zero(self):
        assert rank(fm([[0] * 4] * 3)) == 0

    def test_dependent_rows(self):
        assert rank(fm([[1, 2], [2, 4]])) == 1


class TestPivotColumns:
    def test_greedy_independent_columns(self):
        # column 1 = 2 * column 0 and column 3 = column 0 + column 2
        M = fm([[1, 2, 0, 1], [0, 0, 1, 1], [1, 2, 0, 1]])
        assert pivot_columns(M) == [0, 2]


class TestFloatMode:
    def test_below_threshold_is_zero(self):
        M = FieldMatrix([[1e-15, 1.0], [0.0, 0.0]])
        sol = row_reduce(M, [1.0, 0.0])
        # the tiny entry is not a pivot: the FIRST column is the free one
        assert sol.kind == nc.PARAMETRIC
        assert len(sol.nullspace_basis) == 1
        assert sol.nullspace_basis[0][0] == 1.0

    def test_partial_pivoting(self):
        # the largest-magnitude pivot is picked first in float mode
        M = FieldMatrix([[1e-13, 1.0], [1.0, 1.0]])
        sol = row_reduce(M, [1.0, 2.0])
        assert sol.kind == nc.UNIQUE
        x = sol.particular
        assert x[0] == pytest.approx(1.0, abs=1e-9)
        assert x[1] == pytest.approx(1.0, abs=1e-9)


def householder_product(rng, n, count):
    """The product of `count` random Householder reflections I - 2vv^T/v^Tv:
    an orthogonal n x n matrix, in floats."""
    m = [[float(i == j) for j in range(n)] for i in range(n)]
    for _ in range(count):
        v = [rng.gauss(0, 1) for _ in range(n)]
        scale = 2 / sum(x * x for x in v)
        for row in m:
            d = sum(a * b for a, b in zip(row, v)) * scale
            row[:] = [a - d * b for a, b in zip(row, v)]
    return m


def ill_conditioned_system(seed, n=8, cond=1e10):
    """A = U diag(s) V with U, V orthogonal and s from 1 down to 1/cond,
    so A has 2-norm condition number about cond, and a random b."""
    rng = random.Random(seed)
    U, V = householder_product(rng, n, 2), householder_product(rng, n, 2)
    s = [cond ** (-k / (n - 1)) for k in range(n)]
    A = [[sum(U[i][k] * s[k] * V[k][j] for k in range(n)) for j in range(n)]
         for i in range(n)]
    return A, [rng.gauss(0, 1) for _ in range(n)]


def normwise_backward_error(A, b, x):
    """||b - Ax||inf / (||A||inf ||x||inf + ||b||inf), the residual taken
    exactly so that only the solve's rounding shows."""
    A = [[Fraction(v) for v in row] for row in A]
    b, x = [Fraction(v) for v in b], [Fraction(v) for v in x]
    r = max(abs(bi - sum(a * xi for a, xi in zip(row, x))) for row, bi in zip(A, b))
    norm_a = max(sum(map(abs, row)) for row in A)
    return float(r / (norm_a * max(map(abs, x)) + max(map(abs, b))))


class TestFloatBackwardStability:
    @pytest.mark.parametrize("seed", range(300, 350))
    def test_solve_float_is_backward_stable(self, seed):
        # forward elimination with partial pivoting and one back-substitution
        # is backward stable; Gauss-Jordan is only forward stable (Peters
        # and Wilkinson, CACM 18(1), 1975) and leaves 10.3 units of backward
        # error on seed 341 and 4.7 on seed 348, where the forward order
        # leaves at most 0.29 on seeds 0-399 (a unit is 2^-52)
        A, b = ill_conditioned_system(seed)
        _, sol = solve_float([list(row) for row in A], list(b))
        assert sol.kind == nc.UNIQUE
        assert normwise_backward_error(A, b, sol.particular) <= 2 * 2.0 ** -52


class TestFieldMatrix:
    def test_matmul_and_identity(self):
        A = fm([[1, 2], [3, 4]])
        assert A @ fm([[1, 0], [0, 1]]) == A
        assert (A @ A).entries == ((7, 10), (15, 22))

    def test_transpose(self):
        A = fm([[1, 2], [3, 4]])
        assert A.transpose().entries == ((1, 3), (2, 4))

    def test_shape_errors(self):
        A = fm([[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            A @ fm([[1, 2, 3]])
        with pytest.raises(ValueError):
            A.matvec([1])
        with pytest.raises(ValueError):
            FieldMatrix([[1, 2], [3]])


class TestSolutionSetRecord:
    # a plain record: fields by position or keyword, == within its type,
    # the repr that names every field, mutable and unhashable
    def test_construction_and_repr(self):
        sol = nc.SolutionSet("unique", [1], [], [])
        assert sol == nc.SolutionSet(kind="unique", particular=[1], nullspace_basis=[],
                                     free_names=[])
        assert (sol.kind, sol.particular, sol.nullspace_basis, sol.free_names) == \
            ("unique", [1], [], [])
        assert repr(sol) == \
            "SolutionSet(kind='unique', particular=[1], nullspace_basis=[], free_names=[])"

    def test_equality_needs_the_type_and_every_field(self):
        sol = nc.SolutionSet("unique", [1], [], [])
        assert sol != nc.SolutionSet("unique", [2], [], [])
        assert sol != ("unique", [1], [], [])
        assert sol != nc.AlgebraSolution("unique", [1], [], [], None)

    def test_mutable_and_unhashable(self):
        sol = row_reduce(fm([[1, 0], [0, 1]]), [Fraction(3), Fraction(-7)])
        sol.particular = [0, 0]
        assert sol.particular == [0, 0]
        with pytest.raises(TypeError):
            hash(sol)

    def test_pickle_and_deepcopy(self):
        assert_round_trips(row_reduce(fm([[1, 1]]), [Fraction(2)]))
        assert_round_trips(row_reduce(fm([[1, 1], [1, 1]]), [Fraction(0), Fraction(1)]))

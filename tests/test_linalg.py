import itertools
import random
from fractions import Fraction

import pytest

import ncalg as nc
from ncalg.linalg import FieldMatrix, pivot_columns, rank, row_reduce


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
        assert rank(FieldMatrix.identity(5)) == 5

    def test_zero(self):
        assert rank(FieldMatrix.zeros(3, 4)) == 0

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

    def test_threshold_configurable(self):
        M = FieldMatrix([[1e-15, 1.0], [0.0, 0.0]])
        sol = row_reduce(M, [1.0, 0.0], zero_tol=1e-18)
        # now the tiny entry is an acceptable pivot: the SECOND column is free
        assert sol.kind == nc.PARAMETRIC
        assert sol.nullspace_basis[0][1] == 1.0

    def test_partial_pivoting(self):
        # the largest-magnitude pivot is picked first in float mode
        M = FieldMatrix([[1e-13, 1.0], [1.0, 1.0]])
        sol = row_reduce(M, [1.0, 2.0])
        assert sol.kind == nc.UNIQUE
        x = sol.particular
        assert x[0] == pytest.approx(1.0, abs=1e-9)
        assert x[1] == pytest.approx(1.0, abs=1e-9)


class TestFieldMatrix:
    def test_matmul_and_identity(self):
        A = fm([[1, 2], [3, 4]])
        assert A @ FieldMatrix.identity(2) == A
        assert (A @ A).entries == ((7, 10), (15, 22))

    def test_add_scale_transpose(self):
        A = fm([[1, 2], [3, 4]])
        assert (A + A) == A.scale(2)
        assert A.transpose().entries == ((1, 3), (2, 4))

    def test_shape_errors(self):
        A = fm([[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            A @ fm([[1, 2, 3]])
        with pytest.raises(ValueError):
            A.matvec([1])
        with pytest.raises(ValueError):
            FieldMatrix([[1, 2], [3]])

import random
from fractions import Fraction

import pytest

import ncalg as nc
from ncalg.solvers import build_richardson, nc_row_reduce, quasideterminant
from helpers import (
    algebra_from_data,
    clifford_algebra,
    matrix_algebra,
    rand_element,
    rand_nonzero,
    residuals_are_zero,
)


@pytest.fixture
def example_21(hq, units):
    one, i, j, k = units
    return nc.SylvesterSystem.from_terms(
        hq, [([(i + j, k, 0), (k, j + k, 0)], one + k)], 1)


@pytest.fixture
def example_22(hq, units):
    one, i, j, k = units
    return nc.SylvesterSystem.from_terms(
        hq, [([(i + j, k, 0), (k, j + one, 0)], one + k)], 1)


@pytest.fixture
def example_23(hq, units):
    one, i, j, k = units
    return nc.SylvesterSystem.from_terms(
        hq, [([(i + j, k, 0), (k, j + one, 0)], j - k)], 1)


def rand_sparse(alg, rng):
    """An element with 1, 2 or all coordinates drawn from -2..2."""
    coords = [0] * alg.dim
    for t in rng.sample(range(alg.dim), rng.choice([1, 2, alg.dim])):
        coords[t] = rng.randint(-2, 2)
    return alg.element(coords)


def reference_quasideterminant(mat, i, j):
    """The recursive quasideterminant: a_ij - sum_{c,r} a_ic |A^ij|_rc^-1 a_rj,
    with |A^ij|_rc the quasideterminants of the minor A^ij.  Raises
    NotInvertible wherever the recursion meets a singular one."""
    size = len(mat)
    if size == 1:
        return mat[0][0]
    rows = [r for r in range(size) if r != i]
    cols = [c for c in range(size) if c != j]
    minor = [[mat[r][c] for c in cols] for r in rows]
    value = mat[i][j]
    for b, r in enumerate(rows):
        for a, c in enumerate(cols):
            inverse = reference_quasideterminant(minor, b, a).inverse()
            value = value - mat[i][c] * inverse * mat[r][j]
    return value


def enlarged_matvec(rich, vec):
    out = []
    for row, b in zip(rich.amat, rich.brhs):
        acc = rich.algebra.zero()
        for coeff, x in zip(row, vec):
            acc = acc + coeff * x
        out.append(acc - b)
    return out


class TestBuildRichardson:
    def test_enlarged_rows_unique_example(self, hq, units, example_21):
        one, i, j, k = units
        rich = build_richardson(example_21)
        s = i + j + k
        expected_rows = [
            [hq.zero(), hq.zero(), k, s],
            [hq.zero(), hq.zero(), s, -k],
            [-k, -s, hq.zero(), hq.zero()],
            [-s, k, hq.zero(), hq.zero()],
        ]
        expected_rhs = [one + k, i + j, -i + j, -one + k]
        assert rich.amat == expected_rows
        assert rich.brhs == expected_rhs

    def test_enlarged_rows_inconsistent_example(self, hq, units, example_22):
        one, i, j, k = units
        rich = build_richardson(example_22)
        s = i + j
        expected_rows = [
            [k, hq.zero(), k, s],
            [hq.zero(), k, s, -k],
            [-k, -s, k, hq.zero()],
            [-s, k, hq.zero(), k],
        ]
        expected_rhs = [one + k, i + j, -i + j, -one + k]
        assert rich.amat == expected_rows
        assert rich.brhs == expected_rhs

    def test_enlarged_rhs_range_example(self, hq, units, example_23):
        one, i, j, k = units
        rich = build_richardson(example_23)
        assert rich.brhs == [j - k, -j - k, -one + i, one + i]

    def test_trivial_equation_gives_identity_pattern(self, hq, rng):
        b = rand_element(hq, rng)
        system = nc.SylvesterSystem.from_terms(
            hq, [([(hq.one(), hq.one(), 0)], b)], 1)
        rich = build_richardson(system)
        for l, row in enumerate(rich.amat):
            for p, entry in enumerate(row):
                assert entry == (hq.one() if l == p else hq.zero())
            assert rich.brhs[l] == b * hq.basis(l)

    def test_any_solution_embeds(self, hq, rng):
        # x solves the original iff (x e_p)_p solves the enlarged system
        a, b = rand_nonzero(hq, rng), rand_nonzero(hq, rng)
        x = rand_element(hq, rng)
        system = nc.SylvesterSystem.from_terms(
            hq, [([(a, b, 0)], a * x * b)], 1)
        rich = build_richardson(system)
        embedded = [x * hq.basis(p) for p in range(4)]
        assert all(r.is_zero() for r in enlarged_matvec(rich, embedded))


class TestNCRowReduce:
    def test_unique_example_full_solution(self, hq, units, example_21):
        one, i, j, k = units
        rich = build_richardson(example_21)
        enl = nc_row_reduce(rich.amat, rich.brhs)
        assert enl.kind == nc.UNIQUE
        x = hq.element(["-1/2", 0, "-1/2", 0])
        assert enl.particular == [x, x * i, x * j, x * k]
        assert enl.particular[1] == hq.element([0, "-1/2", 0, "1/2"])
        assert enl.particular[2] == hq.element(["1/2", 0, "-1/2", 0])
        assert enl.particular[3] == hq.element([0, "-1/2", 0, "-1/2"])

    def test_inconsistent_example(self, hq, example_22):
        rich = build_richardson(example_22)
        enl = nc_row_reduce(rich.amat, rich.brhs)
        assert enl.kind == nc.INCONSISTENT

    def test_diagonal_left_division(self, hq, rng):
        pivots = [rand_nonzero(hq, rng) for _ in range(3)]
        rhs = [rand_element(hq, rng) for _ in range(3)]
        amat = [
            [pivots[r] if c == r else hq.zero() for c in range(3)]
            for r in range(3)
        ]
        enl = nc_row_reduce(amat, rhs)
        assert enl.kind == nc.UNIQUE
        assert enl.particular == [p.inverse() * b for p, b in zip(pivots, rhs)]

    def test_nullspace_right_multiplication(self, hq, units, example_23, rng):
        # the free constants multiply their direction from the right and may
        # range over the whole algebra
        rich = build_richardson(example_23)
        enl = nc_row_reduce(rich.amat, rich.brhs)
        assert enl.kind == nc.PARAMETRIC
        assert len(enl.nullspace) == 2
        for _ in range(5):
            cs = [rand_element(hq, rng) for _ in enl.nullspace]
            vec = list(enl.particular)
            for direction, c in zip(enl.nullspace, cs):
                vec = [v + d * c for v, d in zip(vec, direction)]
            assert all(r.is_zero() for r in enlarged_matvec(rich, vec))

    def test_published_family_is_inside(self, hq, units, example_23):
        # the one-parameter family printed for this example solves the
        # enlarged system for every value of its constant; the full family
        # has one more direction (scalar rank 8 of 16, checked below)
        one, i, j, k = units
        rich = build_richardson(example_23)
        half = Fraction(1, 2)
        for ck in (hq.zero(), one, i, j + k):
            family = [
                half * (-one + i + j - k + (-i + j) * ck),
                hq.zero(),
                half * (-one + i - j + k + (-i + j) * ck),
                ck,
            ]
            assert all(r.is_zero() for r in enlarged_matvec(rich, family))
        rows = []
        for arow in rich.amat:
            for t in range(4):
                srow = []
                for entry in arow:
                    srow.extend(entry.left_matrix().entries[t])
                rows.append(srow)
        assert nc.rank(nc.FieldMatrix(rows)) == 8

    def test_pivot_not_invertible(self):
        dual = nc.make_algebra([
            [[1, 0], [0, 1]],
            [[0, 1], [0, 0]],
        ])
        eps = dual.basis(1)
        with pytest.raises(nc.PivotNotInvertible):
            nc_row_reduce([[eps]], [dual.one()])


class TestSolveField:
    def test_unique_example(self, hq, example_21):
        sol = nc.solve_field(example_21)
        assert sol.kind == nc.UNIQUE
        assert sol.x == [hq.element(["-1/2", 0, "-1/2", 0])]
        assert all(r.is_zero() for r in sol.residuals)

    def test_inconsistent_example(self, hq, example_22):
        sol = nc.solve_field(example_22)
        assert sol.kind == nc.INCONSISTENT
        assert sol.x is None

    def test_trivial_equation(self, hq, rng):
        b = rand_element(hq, rng)
        system = nc.SylvesterSystem.from_terms(
            hq, [([(hq.one(), hq.one(), 0)], b)], 1)
        sol = nc.solve_field(system)
        assert sol.kind == nc.UNIQUE and sol.x == [b]

    def test_parametric_example(self, hq, units, example_23, rng):
        one, i, j, k = units
        sol = nc.solve_field(example_23)
        assert sol.kind == nc.PARAMETRIC
        # sampled members all satisfy the equation
        for params in ([1, 0], [0, -1], [1, 1], [-1, 1]):
            xs = sol.assignment(params)
            assert residuals_are_zero(example_23, xs)
        # x = i lies in the family: solve for the parameters
        diff = [ic - xc for ic, xc in zip(i.coords, sol.x[0].coords)]
        M = nc.FieldMatrix([
            [sol.nullspace[s][0].coords[t] for s in range(len(sol.nullspace))]
            for t in range(4)
        ])
        member = nc.row_reduce(M, diff)
        assert member.kind != nc.INCONSISTENT

    def test_one_by_one_matches_inverse_tensor(self, hq, rng):
        # with an invertible operator the unique solution is just the
        # inverse tensor applied to the right-hand side
        for _ in range(10):
            a, b = rand_nonzero(hq, rng), rand_nonzero(hq, rng)
            c = rand_element(hq, rng)
            op = nc.tensor_from_pairs([(a, b)])
            system = nc.SylvesterSystem(hq, [[op]], [c])
            sol = nc.solve_field(system)
            assert sol.kind == nc.UNIQUE
            assert sol.x[0] == op.invert().apply(c)

    def test_two_unknown_system(self, hq, units):
        one, i, j, k = units
        # i*x1 + x2*j = k  and  x1 = 1: plant the solution
        system = nc.SylvesterSystem.from_terms(
            hq,
            [
                ([(i, one, 0), (one, j, 1)], k),
                ([(one, one, 0)], one),
            ],
            2,
        )
        sol = nc.solve_field(system)
        assert sol.kind == nc.UNIQUE
        assert sol.x[0] == one
        # i*1 + x2*j = k  =>  x2 = (k - i) j^{-1} = (k - i)(-j)
        assert sol.x[1] == (k - i) * (-j)


class TestSolveRichardson:
    def test_unique_example_verified(self, hq, example_21):
        sol = nc.solve_richardson(example_21)
        assert sol.kind == nc.UNIQUE
        assert sol.x == [hq.element(["-1/2", 0, "-1/2", 0])]
        assert all(r.is_zero() for r in sol.residuals)

    def test_inconsistent_example(self, hq, example_22):
        sol = nc.solve_richardson(example_22)
        assert sol.kind == nc.INCONSISTENT

    def test_spurious_candidate_flagged(self, hq, units, example_23):
        one, i, j, k = units
        sol = nc.solve_richardson(example_23)
        assert sol.kind == nc.UNVERIFIED_ENLARGED
        assert sol.residuals is not None
        assert not all(r.is_zero() for r in sol.residuals)
        # while the field route solves the same system
        assert nc.solve_field(example_23).kind == nc.PARAMETRIC

    def test_verified_parametric_directions(self, hq, units):
        # x -> x + i x i kills 1 and i; the homogeneous equation has the
        # zero candidate (which verifies) plus free directions, and every
        # reported direction must itself solve the equation
        one, i, j, k = units
        op = nc.tensor_from_pairs([(one, one), (i, i)])
        system = nc.SylvesterSystem(hq, [[op]], [hq.zero()])
        sol = nc.solve_richardson(system)
        assert sol.kind == nc.PARAMETRIC
        assert sol.x == [hq.zero()]
        assert sol.nullspace  # at least one direction survives verification
        for t in (1, -1, 2):
            xs = sol.assignment([t] + [0] * (len(sol.free_names) - 1))
            assert residuals_are_zero(system, xs)

    def test_parametric_kind_without_directions(self, hq, units):
        # the enlarged family of the singular operator projects onto
        # non-solutions except at the verified zero candidate; the kind is
        # still parametric (the method cannot prove uniqueness) but no
        # unverified direction is reported
        one, i, j, k = units
        op = nc.tensor_from_pairs([(i + j, k), (k, j + one)])
        system = nc.SylvesterSystem(hq, [[op]], [hq.zero()])
        sol = nc.solve_richardson(system)
        assert sol.kind == nc.PARAMETRIC
        assert sol.x == [hq.zero()]
        assert sol.nullspace == []
        # the field route sees the whole two-dimensional kernel
        assert len(nc.solve_field(system).nullspace) == 2

    def test_cross_method_agreement(self, hq, rng):
        for _ in range(20):
            a, b = rand_nonzero(hq, rng), rand_nonzero(hq, rng)
            c = rand_element(hq, rng)
            system = nc.SylvesterSystem.from_terms(hq, [([(a, b, 0)], c)], 1)
            f = nc.solve_field(system)
            r = nc.solve_richardson(system)
            if f.kind == nc.UNIQUE and r.kind == nc.UNIQUE:
                assert f.x == r.x

    def test_sylvester_oracle(self, hq, rng):
        for _ in range(20):
            a, b = rand_nonzero(hq, rng), rand_nonzero(hq, rng)
            c = rand_element(hq, rng)
            system = nc.SylvesterSystem.from_terms(hq, [([(a, b, 0)], c)], 1)
            expected = a.inverse() * c * b.inverse()
            assert nc.solve_field(system).x == [expected]
            assert nc.solve_richardson(system).x == [expected]

    def test_float_mode(self, hq_float):
        one, i, j, k = (hq_float.basis(t) for t in range(4))
        system = nc.SylvesterSystem.from_terms(
            hq_float, [([(i + j, k, 0), (k, j + k, 0)], one + k)], 1)
        for sol in (nc.solve_field(system), nc.solve_richardson(system)):
            assert sol.kind == nc.UNIQUE
            assert sol.x[0].coords[0] == pytest.approx(-0.5, abs=1e-9)
            assert sol.x[0].coords[2] == pytest.approx(-0.5, abs=1e-9)


class TestQuasideterminant:
    def test_base_case(self, hq, rng):
        a = rand_element(hq, rng)
        assert quasideterminant([[a]], 0, 0) == a

    def test_noncommutative_cancellation(self, hq, units):
        one, i, j, k = units
        #  i - j * 1^{-1} * k = i - jk = 0
        assert quasideterminant([[i, j], [k, one]], 0, 0) == hq.zero()

    def test_commutative_matches_minor_ratio(self, hq):
        rows = [[1, 2], [3, 4]]
        M = [[hq.element([v, 0, 0, 0]) for v in row] for row in rows]
        assert quasideterminant(M, 0, 0) == hq.element(["-1/2", 0, 0, 0])

    def test_commutative_3x3_matches_determinant_ratio(self, hq):
        rows = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
        M = [[hq.element([v, 0, 0, 0]) for v in row] for row in rows]
        # det(M) = 18 via cofactors; det(minor at (0,0)) = 11
        got = quasideterminant(M, 0, 0)
        assert got == hq.element([Fraction(18, 11), 0, 0, 0])

    def test_undefined_when_minor_singular(self, hq, units):
        one, i, j, k = units
        M = [[i, j], [k, hq.zero()]]
        with pytest.raises(nc.QuasideterminantUndefined):
            quasideterminant(M, 0, 0)

    def test_shape_validation(self, hq, units):
        one, i, j, k = units
        with pytest.raises(ValueError):
            quasideterminant([[i, j]], 0, 0)
        with pytest.raises(ValueError):
            quasideterminant([[i]], 1, 0)

    @pytest.mark.parametrize("name", ["H", "M2", "Cl(1,1)", "complex", "dual"])
    def test_matches_recursion_where_it_is_defined(self, name):
        alg = {
            "H": nc.quaternion_algebra,
            "M2": lambda: matrix_algebra(2),
            "Cl(1,1)": lambda: clifford_algebra(1, 1),
            "complex": lambda: algebra_from_data("complex"),
            "dual": lambda: algebra_from_data("dual"),
        }[name]()
        rng = random.Random(f"qd-{name}")
        defined = 0
        for _ in range(40):
            size = rng.choice([2, 3])
            mat = [[rand_sparse(alg, rng) for _ in range(size)]
                   for _ in range(size)]
            i, j = rng.randrange(size), rng.randrange(size)
            try:
                expected = reference_quasideterminant(mat, i, j)
            except nc.NotInvertible:
                continue
            defined += 1
            assert quasideterminant(mat, i, j) == expected
        assert defined >= 10

    def test_defined_where_the_recursion_is_not(self, hq, units):
        # the minor [[0, 1], [1, 0]] is invertible, but its own (0, 0)
        # quasideterminant needs 0^-1, so the recursion stops; by definition
        # the value is 1 - (i, j) [[0, 1], [1, 0]] (k, 1) = 1 - i - jk
        one, i, j, k = units
        M = [[one, i, j], [k, hq.zero(), one], [one, one, hq.zero()]]
        with pytest.raises(nc.NotInvertible):
            reference_quasideterminant(M, 0, 0)
        assert quasideterminant(M, 0, 0) == one - i.scale(2)

    @pytest.mark.parametrize("m_unk, count", [(1, 20), (2, 3)])
    def test_cramer_identity(self, hq, m_unk, count):
        # for an invertible enlarged matrix A, (A^-1)_ji = |A|_ij^-1, so
        # x^j = sum_r |A|_{r,(j,0)}^-1 b_r; an undefined quasideterminant
        # is a zero entry of A^-1 and contributes nothing
        rng = random.Random(f"cramer-{m_unk}")
        checked = 0
        while checked < count:
            equations = [
                ([(rand_nonzero(hq, rng), rand_nonzero(hq, rng), rng.randrange(m_unk))
                  for _ in range(2 * m_unk)], rand_element(hq, rng))
                for _ in range(m_unk)
            ]
            system = nc.SylvesterSystem.from_terms(hq, equations, m_unk)
            rich = build_richardson(system)
            if nc_row_reduce(rich.amat, rich.brhs).kind != nc.UNIQUE:
                continue
            xs = []
            for j in range(m_unk):
                total = hq.zero()
                for r, b in enumerate(rich.brhs):
                    try:
                        q = quasideterminant(rich.amat, r, j * hq.dim)
                    except nc.QuasideterminantUndefined:
                        continue
                    total = total + q.inverse() * b
                xs.append(total)
            assert xs == nc.solve_richardson(system).x
            checked += 1


class TestSystemJson:
    def test_round_trip(self, hq, units, example_21):
        data = example_21.to_json()
        again = nc.SylvesterSystem.from_json(hq, data)
        assert again.ops == example_21.ops
        assert again.rhs == example_21.rhs

    def test_round_trip_two_unknowns(self, hq, units):
        one, i, j, k = units
        system = nc.SylvesterSystem.from_terms(
            hq, [([(i, one, 0), (one, j, 1)], k)], 2)
        again = nc.SylvesterSystem.from_json(hq, system.to_json())
        assert again.ops == system.ops
        assert again.rhs == system.rhs
        assert again.m_unk == 2

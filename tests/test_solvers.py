import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import ncalg as nc
from ncalg import algebra as algebra_module
from ncalg.linalg import DEFAULT_ZERO_TOL, rank
from ncalg.solvers import RichardsonSystem, build_richardson, nc_row_reduce, residuals_vanish
from helpers import (
    DENSE_H_BASIS,
    algebra_from_data,
    assert_round_trips,
    change_basis,
    clifford_algebra,
    coordinates_in,
    dense_quaternion_algebra,
    direct_sum,
    envelope_table,
    flat,
    matrix_algebra,
    opposite,
    rand_element,
    rand_nonzero,
    residuals_are_zero,
    summands,
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


# (algebra, the same algebra over the basis of rows of P, P) in both modes:
# dense tables, with _dc = 2 for H and Cl(1,1)
BASIS_CHANGES = {}
for _name, _build, _P in (
        ("H", nc.quaternion_algebra, DENSE_H_BASIS),
        ("M2", lambda mode: matrix_algebra(2, mode),
         ((1, 0, 0, 0), (1, 2, 0, 0), (0, 1, 1, 1), (1, -1, 0, 2))),
        ("Cl11", lambda mode: clifford_algebra(1, 1, mode),
         ((1, 0, 0, 0), (1, 1, 0, 0), (0, 1, 1, 0), (1, 0, 1, 2)))):
    for _mode in (nc.RATIONAL, nc.FLOAT):
        _alg = _build(_mode)
        BASIS_CHANGES[_name, _mode] = _alg, change_basis(_alg, _P), _P


# (algebra, its opposite) in both modes, H~P dense with _dc = 2
OPPOSITES = {}
for _name, _build in (("H", nc.quaternion_algebra),
                      ("M2", lambda mode: matrix_algebra(2, mode)),
                      ("Cl11", lambda mode: clifford_algebra(1, 1, mode)),
                      ("H~P", dense_quaternion_algebra)):
    for _mode in (nc.RATIONAL, nc.FLOAT):
        _alg = _build(_mode)
        OPPOSITES[_name, _mode] = _alg, opposite(_alg)


def rand_sparse(alg, rng):
    """An element with 1, 2 or all coordinates drawn from -2..2."""
    coords = [0] * alg.dim
    for t in rng.sample(range(alg.dim), rng.choice([1, 2, alg.dim])):
        coords[t] = rng.randint(-2, 2)
    return alg.element(coords)


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

    @pytest.mark.parametrize("mode", [nc.RATIONAL, nc.FLOAT])
    @pytest.mark.parametrize("build", [nc.quaternion_algebra,
                                       lambda mode: matrix_algebra(2, mode),
                                       lambda mode: algebra_from_data("dual", mode),
                                       dense_quaternion_algebra])
    def test_entries_are_envelope_products(self, build, mode, rng):
        # entry (i, l), (j, p) is column p of (1 (x) e_l) f in A (x) A^op,
        # for f = ops[i][j]; float entries must match bit for bit
        alg = build(mode)
        n = alg.dim

        def scalar():
            if mode == nc.RATIONAL:
                return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7)))
            return rng.choice((0.0, -0.0, rng.uniform(-3, 3)))
        ops = [[nc.TensorOp(alg, [[scalar() for _ in range(n)] for _ in range(n)])
                for _ in range(2)] for _ in range(2)]
        system = nc.SylvesterSystem(alg, ops, [rand_element(alg, rng) for _ in range(2)])
        rich = build_richardson(system)
        # the product loop on the table of A (x) A^op, whose entries carry
        # the table scale _dc**2
        table, scale = envelope_table(alg), alg._dc ** 2
        for i in range(2):
            for l in range(n):
                unit_l = [int(t == l) for t in range(n * n)]  # 1 (x) e_l
                expected = []
                for op in ops[i]:
                    g = algebra_module._product(table, unit_l, flat(op), alg.scalar_zero())
                    if mode == nc.RATIONAL:
                        g = [v / scale for v in g]
                    expected.extend(alg.element(g[p::n]) for p in range(n))
                assert rich.amat[i * n + l] == expected
                assert repr([e.coords for e in rich.amat[i * n + l]]) == \
                    repr([e.coords for e in expected])
                assert rich.brhs[i * n + l] == system.rhs[i] * alg.basis(l)


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
        assert len(enl.nullspace_basis) == 2
        for _ in range(5):
            cs = [rand_element(hq, rng) for _ in enl.nullspace_basis]
            vec = enl.assignment(cs)
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
                    srow.extend(nc.TensorOp.from_pairs([(entry, one)])
                                .operator_matrix().entries[t])
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

    @pytest.mark.parametrize("key", list(BASIS_CHANGES), ids="-".join)
    @settings(max_examples=25)
    @given(data=st.data())
    def test_invariant_under_change_of_basis(self, key, data):
        # a metamorphic relation: a system moved to another basis keeps its
        # verdict and its number of free constants, and in rational mode its
        # solution set, moved along
        alg, new, P = BASIS_CHANGES[key]
        n = alg.dim
        coordinate = st.sampled_from((0, 0, 1, -1, 2))

        def element():
            return alg.element(data.draw(st.lists(coordinate, min_size=n, max_size=n)))

        def moved(x):
            return new.element(coordinates_in(P, x.coords))

        m_unk = data.draw(st.integers(1, 2))
        equations = [([(element(), element(), data.draw(st.integers(0, m_unk - 1)))
                       for _ in range(data.draw(st.integers(1, 3)))], element())
                     for _ in range(data.draw(st.integers(1, 2)))]
        sol = nc.solve_field(nc.SylvesterSystem.from_terms(alg, equations, m_unk))
        other = nc.solve_field(nc.SylvesterSystem.from_terms(
            new, [([(moved(a), moved(b), j) for a, b, j in terms], moved(c))
                  for terms, c in equations], m_unk))
        assert (other.kind, len(other.nullspace)) == (sol.kind, len(sol.nullspace))
        if alg.scalar_mode == nc.FLOAT or sol.kind == nc.INCONSISTENT:
            return
        if sol.kind == nc.UNIQUE:
            assert [moved(x) for x in sol.x] == other.x
            return

        def column(xs):
            return [c for x in xs for c in x.coords]
        # equal dimensions, so equal sets when the moved particular solution
        # and directions leave the rank of the other's directions unchanged
        span = [column(d) for d in other.nullspace]
        extra = [column(moved(x) - y for x, y in zip(sol.x, other.x))]
        extra += [column(map(moved, d)) for d in sol.nullspace]
        assert rank(nc.FieldMatrix(list(zip(*span, *extra)))) == len(span)

    @pytest.mark.parametrize("key", list(OPPOSITES), ids="-".join)
    @settings(max_examples=25)
    @given(data=st.data())
    def test_invariant_under_opposite_algebra(self, key, data):
        # a metamorphic relation: sum a_s x b_s = c over A is the scalar
        # system of sum b_s x a_s = c over A^op, so the field verdict and
        # free count are equal, and in rational mode the solution too
        alg, op = OPPOSITES[key]
        n = alg.dim
        # halves give blocks and right-hand sides over different denominators
        coordinate = st.sampled_from((0, 0, 1, -1, 2, Fraction(1, 2)))

        def coords():
            return data.draw(st.lists(coordinate, min_size=n, max_size=n))
        m_unk = data.draw(st.integers(1, 2))
        equations = [([(coords(), coords(), data.draw(st.integers(0, m_unk - 1)))
                       for _ in range(data.draw(st.integers(1, 3)))], coords())
                     for _ in range(data.draw(st.integers(1, 2)))]
        sol = nc.solve_field(nc.SylvesterSystem.from_terms(
            alg, [([(alg.element(a), alg.element(b), j) for a, b, j in terms],
                   alg.element(c)) for terms, c in equations], m_unk))
        other = nc.solve_field(nc.SylvesterSystem.from_terms(
            op, [([(op.element(b), op.element(a), j) for a, b, j in terms],
                  op.element(c)) for terms, c in equations], m_unk))
        assert (other.kind, len(other.nullspace)) == (sol.kind, len(sol.nullspace))
        if alg.scalar_mode == nc.RATIONAL and sol.kind != nc.INCONSISTENT:
            def values(xs):
                return [x.coords for x in xs]
            assert values(other.x) == values(sol.x)
            assert [values(d) for d in other.nullspace] == \
                [values(d) for d in sol.nullspace]

    @pytest.mark.parametrize("names, mode", [
        pytest.param(names, mode, id="+".join(names) + ("" if mode == nc.RATIONAL else "-float"))
        for mode in (nc.RATIONAL, nc.FLOAT)
        for names in (("H", "complex"), ("complex", "dual"), ("H", "dual"))])
    def test_direct_sum_is_the_pair_of_its_summands(self, names, mode):
        # a metamorphic relation: over A (+) B a system is the pair of its
        # components over A and over B, so it is inconsistent when either is;
        # otherwise its free count is the sum of theirs (unique when 0), and
        # the components of its solution and directions solve theirs: by
        # `residuals_vanish`, and directions to DEFAULT_ZERO_TOL in float mode.
        # Both modes draw the same systems.
        A, B = (nc.quaternion_algebra(mode) if name == "H" else algebra_from_data(name, mode)
                for name in names)
        tol = 0.0 if mode == nc.RATIONAL else DEFAULT_ZERO_TOL
        S, rng = direct_sum(A, B), random.Random("direct-sum-" + "+".join(names))
        kinds = []
        for _ in range(150):
            m_unk = rng.randint(1, 2)
            equations = [([(rand_sparse(S, rng), rand_sparse(S, rng), rng.randrange(m_unk))
                           for _ in range(rng.randint(1, 3))], rand_sparse(S, rng))
                         for _ in range(rng.randint(1, m_unk))]
            sol = nc.solve_field(nc.SylvesterSystem.from_terms(S, equations, m_unk))
            kinds.append(sol.kind)
            parts = []
            for side, alg in enumerate((A, B)):
                system = nc.SylvesterSystem.from_terms(alg, [
                    ([(summands(a, A, B)[side], summands(b, A, B)[side], j)
                      for a, b, j in terms], summands(c, A, B)[side])
                    for terms, c in equations], m_unk)
                parts.append((system, nc.solve_field(system)))
            if any(part.kind == nc.INCONSISTENT for _, part in parts):
                assert sol.kind == nc.INCONSISTENT
                continue
            free = sum(len(part.nullspace) for _, part in parts)
            assert (sol.kind, len(sol.nullspace)) == (nc.UNIQUE if free == 0
                                                      else nc.PARAMETRIC, free)
            for side, (system, _) in enumerate(parts):
                assert residuals_vanish(system.residuals([summands(x, A, B)[side]
                                                          for x in sol.x]))
                for direction in sol.nullspace:
                    assert all(v.is_zero(tol) for v in system.apply_ops(
                        [summands(d, A, B)[side] for d in direction]))
        assert set(kinds) == {nc.UNIQUE, nc.PARAMETRIC, nc.INCONSISTENT}, kinds

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


class TestSystemJson:
    # README's system example: (i+j)*x*k + k*x*(j+k) = 1+k
    README_SYSTEM = """{"unknowns": 1,
     "equations": [{"terms": [{"left": ["0","1","1","0"],
                               "right": ["0","0","0","1"], "var": 0},
                              {"left": ["0","0","0","1"],
                               "right": ["0","0","1","1"], "var": 0}],
                    "rhs": ["1","0","0","1"]}]}"""

    def test_round_trip(self, hq, units, example_21):
        again = nc.SylvesterSystem.from_json(hq, json.loads(self.README_SYSTEM))
        assert again.ops == example_21.ops
        assert again.rhs == example_21.rhs

    def test_round_trip_two_unknowns(self, hq, units):
        one, i, j, k = units
        system = nc.SylvesterSystem.from_terms(
            hq, [([(i, one, 0), (one, j, 1)], k)], 2)
        again = nc.SylvesterSystem.from_json(hq, {
            "unknowns": 2,
            "equations": [{"terms": [{"left": [0, 1, 0, 0], "right": [1, 0, 0, 0], "var": 0},
                                     {"left": [1, 0, 0, 0], "right": [0, 0, 1, 0], "var": 1}],
                           "rhs": [0, 0, 0, 1]}]})
        assert again.ops == system.ops
        assert again.rhs == system.rhs
        assert again.m_unk == 2


class TestRecords:
    # RichardsonSystem and AlgebraSolution are plain records: fields by
    # position or keyword, == within the type, the repr that names every
    # field, mutable and unhashable
    def test_construction_and_repr(self, hq):
        one = hq.one()
        rich = RichardsonSystem(hq, 1, 1, [[one]], [one])
        assert rich == RichardsonSystem(algebra=hq, m_eq=1, m_unk=1, amat=[[one]],
                                        brhs=[one])
        assert repr(rich) == ("RichardsonSystem(algebra=Algebra(quaternion, rational), "
                              "m_eq=1, m_unk=1, amat=[[Element(1)]], brhs=[Element(1)])")
        sol = nc.AlgebraSolution("unique", [one], [], [], [hq.zero()])
        assert sol == nc.AlgebraSolution(kind="unique", x=[one], nullspace=[],
                                         free_names=[], residuals=[hq.zero()])
        assert repr(sol) == ("AlgebraSolution(kind='unique', x=[Element(1)], nullspace=[], "
                             "free_names=[], residuals=[Element(0)])")

    def test_equality_needs_the_type_and_every_field(self, hq):
        sol = nc.AlgebraSolution("inconsistent", None, [], [], None)
        assert sol == nc.AlgebraSolution("inconsistent", None, [], [], None)
        assert sol != nc.AlgebraSolution("inconsistent", None, [], [], [])
        assert sol != ("inconsistent", None, [], [], None)
        assert nc.AlgebraSolution("unique", [1], [], [], None) != \
            nc.SolutionSet("unique", [1], [], [])

    def test_mutable_and_unhashable(self, example_21):
        sol, rich = nc.solve_field(example_21), build_richardson(example_21)
        sol.x, rich.m_eq = None, 2
        assert (sol.x, rich.m_eq) == (None, 2)
        for record in (sol, rich):
            with pytest.raises(TypeError):
                hash(record)

    def test_pickle_and_deepcopy(self):
        alg = nc.quaternion_algebra()
        one, i = alg.one(), alg.basis(1)
        assert_round_trips(RichardsonSystem(alg, 1, 1, [[one, i]], [i]))
        assert_round_trips(nc.AlgebraSolution("parametric", [one], [(i,)], ["C0"],
                                              [alg.zero()]))
        assert_round_trips(nc.AlgebraSolution("inconsistent", None, [], [], None))

import functools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

import ncalg as nc
from ncalg.newton import (
    BIT_BUDGET,
    CONVERGED,
    DIVERGED,
    MAX_BITS,
    MAX_ITERATIONS,
    SINGULAR_DERIVATIVE,
    GeneralizedPolynomial,
    NewtonConfig,
    NewtonTrace,
    newton_solve,
)
from ncalg import newton as newton_module
from ncalg.linalg import solve_integer
from helpers import (algebra_from_data, assert_round_trips, clifford_algebra,
                     coordinates_exceed_bits,
                     matrix_algebra, naive_coefficients, naive_derivative_pairs, naive_evaluate,
                     naive_newton, rand_element, scaled_quaternion_algebra)


@functools.cache
def _algebra(name, mode):
    """H, M2, Cl(1,1), complex or dual, built once per mode."""
    return {
        "H": lambda: nc.quaternion_algebra(mode),
        "M2": lambda: matrix_algebra(2, mode),
        "Cl11": lambda: clifford_algebra(1, 1, mode),
        "complex": lambda: algebra_from_data("complex", mode),
        "dual": lambda: algebra_from_data("dual", mode),
    }[name]()


def _same(u, v):
    """Equal coordinates: exact by ==, float by the repr of every one."""
    u, v = tuple(u), tuple(v)
    return u == v if all(isinstance(c, Fraction) for c in u + v) else repr(u) == repr(v)


@pytest.fixture
def square_map(hq, units):
    """x^2 - i x - x j + k as a generalized polynomial."""
    one, i, j, k = units
    return GeneralizedPolynomial(hq, [
        [one, one, one],
        [-i, one],
        [one, -j],
        [k],
    ])


class TestPolynomial:
    def test_canonical_monomials(self, hq, units, square_map):
        one, i, j, k = units
        assert square_map.monomials == (
            (one, one, one),
            (-i, one),
            (one, -j),
            (k,),
        )
        assert max(len(m) - 1 for m in square_map.monomials) == 2

    def test_scalar_head_is_absorbed(self, hq, units):
        one, i, j, k = units
        # -(x*j) and x*(-j) are the same monomial
        p = GeneralizedPolynomial(hq, [[-one, j]])
        q = GeneralizedPolynomial(hq, [[one, -j]])
        assert p == q

    def test_like_monomials_merge(self, hq, units):
        one, i, j, k = units
        p = GeneralizedPolynomial(hq, [[i, one], [j, one]])
        q = GeneralizedPolynomial(hq, [[i + j, one]])
        assert p == q
        zero_p = GeneralizedPolynomial(hq, [[i, one], [-i, one]])
        assert zero_p.monomials == ()

    def test_coefficients_beyond_float_range(self, hq, units):
        # monomials sort on exact coordinates, which float() cannot hold here
        one, i, j, k = units
        big = Fraction(2) ** 1100
        p = GeneralizedPolynomial(
            hq, [[one, j], [one.scale(big), one, one], [i.scale(big + 1), one]])
        assert p == GeneralizedPolynomial(
            hq, [[i.scale(big + 1), one], [one.scale(big), one, one], [one, j]])
        assert p.evaluate(i) == one.scale(-2 * big - 1) + k

    def test_evaluation_goldens(self, hq, units, square_map):
        one, i, j, k = units
        assert square_map.evaluate(j) == hq.zero()
        assert square_map.evaluate(one + j) == one - i + j
        constant = GeneralizedPolynomial(hq, [[k]])
        assert constant.evaluate(one + i) == k

    def test_evaluation_against_direct_products(self, hq, rng):
        for _ in range(20):
            coeffs = [rand_element(hq, rng) for _ in range(3)]
            p = GeneralizedPolynomial(hq, [coeffs])
            x = rand_element(hq, rng)
            assert p.evaluate(x) == coeffs[0] * x * coeffs[1] * x * coeffs[2]


class TestDerivative:
    def test_golden_square_map(self, hq, units, square_map):
        one, i, j, k = units
        x0 = one + j
        expected = nc.tensor_from_pairs([(x0 - i, one), (one, x0 - j)])
        assert square_map.derivative_at(x0) == expected

    def test_sandwich_monomial_constant_derivative(self, hq, rng):
        a, b = rand_element(hq, rng), rand_element(hq, rng)
        p = GeneralizedPolynomial(hq, [[a, b]])
        for _ in range(3):
            x0 = rand_element(hq, rng)
            assert p.derivative_at(x0) == nc.tensor_from_pairs([(a, b)])

    def test_constant_has_zero_derivative(self, hq, units):
        one, i, j, k = units
        p = GeneralizedPolynomial(hq, [[k]])
        assert p.derivative_at(one).is_zero()

    def test_finite_difference(self, hq_float, rng):
        # float-mode directional derivative check at step t
        t = 1e-6
        for _ in range(20):
            coeffs = [
                hq_float.element([rng.uniform(-0.25, 0.25) for _ in range(4)])
                for _ in range(3)
            ]
            p = GeneralizedPolynomial(hq_float, [coeffs[:2], coeffs[1:]])
            x0 = hq_float.element([rng.uniform(-1, 1) for _ in range(4)])
            h = hq_float.element([rng.uniform(-1, 1) for _ in range(4)])
            norm = h.norm()
            if norm == 0:
                continue
            h = h.scale(1.0 / norm)
            fd = (p.evaluate(x0 + h.scale(t)) - p.evaluate(x0)).scale(1.0 / t)
            exact = p.derivative_at(x0).apply(h)
            assert (fd - exact).norm() <= 10 * t


class TestNewton:
    def test_exact_first_step(self, hq, units, square_map):
        one, i, j, k = units
        trace = newton_solve(square_map, hq.zero(), one + j,
                             NewtonConfig(max_iter=1))
        x1 = trace.iterates[1][0]
        assert x1 == hq.element([Fraction(1, 3), Fraction(1, 6),
                                 Fraction(5, 6), 0])

    def test_exact_iterates_pinned(self, hq, units, square_map):
        # D^-1(D x - r) = x - D^-1 r in exact arithmetic, so stepping by
        # D^-1(-r) and applying the inverse tensor give the same iterates
        one, i, j, k = units
        trace = newton_solve(square_map, hq.zero(), one + j,
                             NewtonConfig(max_iter=4))
        assert [nc.format_element(x) for x, _, _ in trace.iterates[1:]] == [
            "1/3 + 1/6i + 5/6j",
            "-1/12 + 1/12i + 11/12j",
            "7/408 - 1/408i + 409/408j",
            "7/79152 + 11/79152i + 79141/79152j",
        ]

    @pytest.mark.parametrize("name", ["H", "H/357", "M2", "complex"])
    def test_exact_steps_solve_the_derivative_equation(self, name, monkeypatch):
        # each step solves D(x_(k+1) - x_k) = -r_k with D's integer operator
        # rows; `TensorOp.apply` checks it on D's own pairs.  H/357 has the
        # table scale _dc = 11025, so a slip between _dc and _dc**2 shows
        alg = _algebra(name, nc.RATIONAL) if name != "H/357" else \
            scaled_quaternion_algebra(nc.RATIONAL, (1, 3, 5, 7))
        if alg.dim == 4:
            one, a, b, c = (alg.basis(t) for t in range(4))
            p = GeneralizedPolynomial(alg, [[one, one, one], [-a, one], [one, -b], [c]])
            target, x0 = alg.zero(), one + b
        else:
            one = alg.one()
            p = GeneralizedPolynomial(alg, [[one, one, one]])
            target, x0 = -one, alg.basis(1).scale(2)
        integer_systems = []

        def spy(rows, rhs):
            integer_systems.append(all(type(v) is int for row in rows + [rhs]
                                       for v in row))
            return solve_integer(rows, rhs)
        monkeypatch.setattr(newton_module, "solve_integer", spy)
        trace = newton_solve(p, target, x0, NewtonConfig(max_iter=5))
        assert len(trace.iterates) == 6 and integer_systems == [True] * 5
        for (x, r, _), (y, _, _) in zip(trace.iterates, trace.iterates[1:]):
            assert p.derivative_at(x).apply(y - x) == -r

    @pytest.mark.parametrize("mode", [nc.RATIONAL, nc.FLOAT])
    def test_complex_algebra_converges_to_u(self, mode):
        # x -> 2 x0 x is invertible, but x0 (x) 1 + 1 (x) x0 is a zero divisor
        # in A (x) A^op for the commutative complex numbers
        alg = algebra_from_data("complex", mode)
        one, u = alg.one(), alg.basis(1)
        p = GeneralizedPolynomial(alg, [[one, one, one]])
        trace = newton_solve(p, -one, u.scale(2))
        assert trace.status == CONVERGED
        assert len(trace.iterates) == 6
        assert (trace.solution - u).norm() < 1e-9

    def test_step_builds_no_envelope(self, table_builds, monkeypatch):
        def no_invert(self):
            raise AssertionError("Newton step inverted a tensor")

        monkeypatch.setattr(nc.TensorOp, "invert", no_invert)
        for mode in (nc.RATIONAL, nc.FLOAT):
            alg = nc.quaternion_algebra(mode)
            p, target = nc.normalize_poly(
                alg, nc.parse_equation("x^2 - i*x - x*j + k = 0", alg), "x")
            trace = newton_solve(p, target, alg.one() + alg.basis(2))
            assert trace.status == CONVERGED
        assert table_builds == [4, 4]

    def test_starting_at_root_converges_immediately(self, hq, units, square_map):
        one, i, j, k = units
        trace = newton_solve(square_map, hq.zero(), j)
        assert trace.status == CONVERGED
        assert len(trace.iterates) == 1
        assert trace.iterates[0][1].is_zero()

    def test_float_run_converges_to_j(self, hq_float):
        one, i, j, k = (hq_float.basis(t) for t in range(4))
        p = GeneralizedPolynomial(hq_float, [
            [one, one, one], [-i, one], [one, -j], [k],
        ])
        trace = newton_solve(p, hq_float.zero(), one + j,
                             NewtonConfig(tol=1e-6))
        assert trace.status == CONVERGED
        assert (trace.solution - j).norm() < 1e-6

    def test_rational_and_float_agree_early(self, hq, hq_float, units):
        one, i, j, k = units
        p_exact = GeneralizedPolynomial(hq, [
            [one, one, one], [-i, one], [one, -j], [k]])
        fone, fi, fj, fk = (hq_float.basis(t) for t in range(4))
        p_float = GeneralizedPolynomial(hq_float, [
            [fone, fone, fone], [-fi, fone], [fone, -fj], [fk]])
        exact = newton_solve(p_exact, hq.zero(), one + j,
                             NewtonConfig(max_iter=3))
        approx = newton_solve(p_float, hq_float.zero(), fone + fj,
                              NewtonConfig(max_iter=3))
        for step in range(4):
            xe = exact.iterates[step][0]
            xf = approx.iterates[step][0]
            for ce, cf in zip(xe.coords, xf.coords):
                assert abs(float(ce) - cf) <= 1e-12

    def test_degree_one_solves_in_one_step(self, hq, rng):
        # a pure operator equation is solved exactly by a single step,
        # regardless of the starting point
        from helpers import rand_nonzero

        for _ in range(10):
            a, b = rand_nonzero(hq, rng), rand_nonzero(hq, rng)
            target = rand_element(hq, rng)
            p = GeneralizedPolynomial(hq, [[a, b]])
            x0 = rand_element(hq, rng)
            trace = newton_solve(p, target, x0, NewtonConfig(max_iter=2))
            assert trace.status == CONVERGED
            assert len(trace.iterates) <= 2
            assert p.evaluate(trace.solution) == target

    def test_singular_derivative_reported(self, hq, units):
        one, i, j, k = units
        # degree-1 map whose constant derivative is the singular operator
        p = GeneralizedPolynomial(hq, [[i + j, k], [k, j + one]])
        trace = newton_solve(p, one + k, hq.zero())
        assert trace.status == SINGULAR_DERIVATIVE

    def test_consistent_singular_step_is_not_taken(self, hq, units):
        # x -> i x i + x kills 1 and i and doubles j and k, so the first
        # step's system is consistent but has a whole plane of solutions
        one, i, j, k = units
        p = GeneralizedPolynomial(hq, [[i, i], [one, one]])
        trace = newton_solve(p, j, hq.zero())
        assert trace.status == SINGULAR_DERIVATIVE
        assert len(trace.iterates) == 1

    def test_exact_run_stops_at_bit_budget(self, hq):
        # real Newton for x^2 = -1 never settles, and exact digits double
        one = hq.one()
        p = GeneralizedPolynomial(hq, [[one, one, one]])
        trace = newton_solve(p, -one, one.scale(2))
        assert trace.status == BIT_BUDGET
        assert 5 < len(trace.iterates) < 50
        for x, r, _ in trace.iterates:
            for c in x.coords + r.coords:
                assert c.numerator.bit_length() <= MAX_BITS
                assert c.denominator.bit_length() <= MAX_BITS

    def test_max_iterations(self, hq_float):
        one = hq_float.one()
        p = GeneralizedPolynomial(hq_float, [[one, one, one]])
        trace = newton_solve(p, hq_float.zero(), one,
                             NewtonConfig(tol=1e-30, max_iter=2))
        assert trace.status == MAX_ITERATIONS
        assert len(trace.iterates) == 3

    def test_divergence_streak(self, hq_float):
        # x^2 = 1 from 1e-9: the first step jumps to about 5e8, and the
        # residual stays above 1e12 times the initial one while the iterate
        # halves, for the five steps of the streak
        one = hq_float.one()
        p = GeneralizedPolynomial(hq_float, [[one, one, one]])
        trace = newton_solve(p, one, one.scale(1e-9))
        assert trace.status == DIVERGED
        assert len(trace.iterates) == 6

    def test_residuals_recomputed(self, hq_float):
        one, i, j, k = (hq_float.basis(t) for t in range(4))
        p = GeneralizedPolynomial(hq_float, [
            [one, one, one], [-i, one], [one, -j], [k]])
        a = hq_float.zero()
        trace = newton_solve(p, a, one + j, NewtonConfig(tol=1e-6))
        for x, r, norm in trace.iterates:
            again = p.evaluate(x) - a
            assert r == again
            assert norm == again.norm()

    def test_config_validation(self):
        for tol in (0.0, -1e-9, math.inf, math.nan):
            with pytest.raises(ValueError) as info:
                NewtonConfig(tol=tol)
            assert str(info.value) == f"tol must be positive and finite, not {tol!r}"
        # a positive int and no bool, as JSON integer fields are read
        for max_iter in (0, -1, 2.5, 3.0, True, False, "3", None):
            with pytest.raises(ValueError) as info:
                NewtonConfig(1e-9, max_iter)
            assert str(info.value) == f"max_iter must be a positive integer, not {max_iter!r}"

    @given(coords=st.lists(st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(-2 ** 8200, 2 ** 8200), st.integers(1, 2 ** 8200)),
        st.builds(lambda e, f: Fraction(2 ** e, 2 ** f + 1),
                  st.integers(8150, 8250), st.integers(8150, 8250))),
        min_size=8, max_size=8))
    @example(coords=[Fraction(1, 2 ** 4100 - 1), Fraction(1, 2 ** 4101 - 1)] + [0] * 6)
    @example(coords=[Fraction(2 ** 8192), Fraction(1, 2 ** 8192)] + [0] * 6)
    @example(coords=[Fraction(2 ** 8191, 3)] + [0] * 7)
    def test_bit_budget_read_off_the_pair(self, hq, coords):
        # the pair's bit lengths bound the coordinates', so the pair decides
        # whenever it is within the budget; the first example's pair is over
        # it (d = p*q with coprime p, q of 4100 and 4101 bits), while every
        # coordinate 1/p, 1/q is under it
        x, r = hq.element(coords[:4]), hq.element(coords[4:])
        assert newton_module._exceeds_bits(x, r) == coordinates_exceed_bits(x, r)
        if coords[0] == Fraction(1, 2 ** 4100 - 1):
            assert x._d.bit_length() > MAX_BITS and not newton_module._exceeds_bits(x)


# coordinates with zeros and halves; float mode draws -0.0 for some zeros
_COORD = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])


@st.composite
def _problems(draw, mode, specials=()):
    """(polynomial, target, start) over one algebra in `mode`; degrees 0-3,
    so constant-only polynomials occur too."""
    alg = _algebra(draw(st.sampled_from(["H", "M2", "Cl11", "complex", "dual"])), mode)

    def element():
        coords = draw(st.lists(_COORD, min_size=alg.dim, max_size=alg.dim))
        if mode == nc.FLOAT:
            coords = [-0.0 if c == 0 and draw(st.booleans()) else float(c)
                      for c in coords]
        return alg.element(coords)

    monos = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    p = GeneralizedPolynomial(alg, [[element() for _ in range(d + 1)] for d in monos])
    start = element()
    if mode == nc.FLOAT and specials and draw(st.booleans()):
        coords = list(start.coords)
        coords[draw(st.integers(0, alg.dim - 1))] = draw(st.sampled_from(specials))
        start = alg.element(coords)
    return p, element(), start


class TestOneWalk:
    """`evaluate`, `derivative_at` and `newton_solve` share one walk of
    prefix products; the per-monomial loops of the test helpers are their
    oracle, exact by == and float by the repr of every coordinate."""

    @pytest.mark.parametrize("mode", [nc.RATIONAL, nc.FLOAT])
    @given(data=st.data())
    def test_evaluate_and_derivative_match_the_loops(self, mode, data):
        p, _, x = data.draw(_problems(mode, (math.inf, -math.inf, math.nan, 1e200)))
        assert _same(p.evaluate(x).coords, naive_evaluate(p, x).coords)
        pairs = naive_derivative_pairs(p, x)
        d = p.derivative_at(x)
        oracle = naive_coefficients(p.algebra, pairs)
        assert all(_same(r, s) for r, s in zip(d.coeff, oracle))
        assert len(d.display_pairs or ()) == len(pairs)
        for (a, b), (u, v) in zip(d.display_pairs or (), pairs):
            assert _same(a.coords, u.coords) and _same(b.coords, v.coords)

    @pytest.mark.parametrize("mode", [nc.RATIONAL, nc.FLOAT])
    @given(data=st.data())
    def test_newton_trace_matches_the_loops(self, mode, data):
        p, target, x0 = data.draw(_problems(mode, (math.inf, math.nan)))
        cfg = NewtonConfig(max_iter=4)
        trace = newton_solve(p, target, x0, cfg)
        iterates, status = naive_newton(p, target, x0, cfg)
        assert trace.status == status
        assert len(trace.iterates) == len(iterates)
        for (x, r, norm), (y, s, m) in zip(trace.iterates, iterates):
            assert _same(x.coords, y.coords) and _same(r.coords, s.coords)
            assert repr(norm) == repr(m)

    @pytest.mark.parametrize("mode", [nc.RATIONAL, nc.FLOAT])
    def test_constant_polynomial_is_singular(self, mode):
        alg = _algebra("M2", mode)
        p = GeneralizedPolynomial(alg, [[alg.basis(2)], [alg.one().scale(3)]])
        trace = newton_solve(p, alg.zero(), alg.basis(1))
        assert trace.status == SINGULAR_DERIVATIVE == naive_newton(
            p, alg.zero(), alg.basis(1), NewtonConfig())[1]
        assert len(trace.iterates) == 1

    @pytest.mark.parametrize("start", [math.inf, math.nan])
    def test_non_finite_start_diverges_through_the_loop_fallback(self, start):
        # x*x at (start, 0, 0, 0) reads 0*inf or 0*nan where the sparse loop
        # skips the zero, so the kernel recomputes such products by the loop
        alg = _algebra("H", nc.FLOAT)
        one = alg.one()
        p = GeneralizedPolynomial(alg, [[one, one, one], [alg.basis(3)]])
        x0 = alg.element([start, 0, 0, 0])
        trace = newton_solve(p, one, x0)
        iterates, status = naive_newton(p, one, x0, NewtonConfig())
        assert trace.status == status == DIVERGED
        assert len(trace.iterates) == len(iterates) == 1
        assert _same(trace.iterates[0][1].coords, iterates[0][1].coords)
        assert repr(trace.iterates[0][1].coords[1:]) == "(0.0, 0.0, 1.0)"

    def test_exact_divergence_streak(self, hq):
        # x^2 = 1 from 10^-9 in exact arithmetic: the squared residual stays
        # above 10^24 times the initial one for the five steps of the streak
        one = hq.one()
        p = GeneralizedPolynomial(hq, [[one, one, one]])
        trace = newton_solve(p, one, one.scale(Fraction(1, 10 ** 9)))
        assert trace.status == DIVERGED
        assert len(trace.iterates) == 6


class TestPolyJson:
    def test_trace_rows_shape(self, hq_float):
        one, i, j, k = (hq_float.basis(t) for t in range(4))
        p = GeneralizedPolynomial(hq_float, [
            [one, one, one], [-i, one], [one, -j], [k]])
        trace = newton_solve(p, hq_float.zero(), one + j,
                             NewtonConfig(tol=1e-6))
        rows = trace.rows()
        assert [row["k"] for row in rows] == list(range(len(rows)))
        for row, (x, r, norm) in zip(rows, trace.iterates):
            assert row["x"] == list(x.coords)
            assert row["residual"] == list(r.coords)
            assert row["norm"] == norm


class TestRecords:
    # NewtonConfig and NewtonTrace are plain records: fields by position or
    # keyword, defaults, == within the type, the repr that names every
    # field, mutable and unhashable
    def test_config_construction_and_repr(self):
        assert NewtonConfig() == NewtonConfig(1e-9, 50) == NewtonConfig(tol=1e-9, max_iter=50)
        assert (NewtonConfig(1e-6, 3).tol, NewtonConfig(1e-6, 3).max_iter) == (1e-6, 3)
        assert repr(NewtonConfig()) == "NewtonConfig(tol=1e-09, max_iter=50)"

    def test_trace_construction_and_repr(self, hq):
        first, second = NewtonTrace(), NewtonTrace()
        assert (first.iterates, first.status) == ([], MAX_ITERATIONS)
        first.iterates.append((hq.one(), hq.zero(), 0.0))
        assert second.iterates == []  # a fresh list per trace
        assert NewtonTrace([], SINGULAR_DERIVATIVE) == \
            NewtonTrace(iterates=[], status=SINGULAR_DERIVATIVE)
        assert repr(NewtonTrace()) == "NewtonTrace(iterates=[], status='max_iterations')"
        assert repr(first) == ("NewtonTrace(iterates=[(Element(1), Element(0), 0.0)], "
                               "status='max_iterations')")

    def test_equality_needs_the_type_and_every_field(self):
        assert NewtonTrace() != NewtonTrace([], CONVERGED)
        assert NewtonConfig() != NewtonConfig(max_iter=51)
        assert NewtonConfig() != (1e-9, 50)
        assert NewtonTrace([], CONVERGED) != NewtonTrace([(1, 2, 3)], CONVERGED)

    def test_mutable_and_unhashable(self):
        cfg, trace = NewtonConfig(), NewtonTrace()
        cfg.max_iter, trace.status = 7, CONVERGED
        assert (cfg.max_iter, trace.status) == (7, CONVERGED)
        for record in (cfg, trace):
            with pytest.raises(TypeError):
                hash(record)

    def test_pickle_and_deepcopy(self):
        assert_round_trips(NewtonConfig(1e-6, 3))
        assert_round_trips(NewtonTrace())
        alg = nc.quaternion_algebra(nc.FLOAT)
        assert_round_trips(NewtonTrace([(alg.one(), alg.basis(2), 1.0)], CONVERGED))

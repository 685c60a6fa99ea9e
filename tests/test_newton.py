from fractions import Fraction

import pytest

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
    newton_solve,
)
from helpers import algebra_from_data, rand_element


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
        assert square_map.degree == 2

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
        # x^2 from 1 halves the root estimate each step: with an absurdly
        # small divergence factor every step counts as a blow-up
        one = hq_float.one()
        p = GeneralizedPolynomial(hq_float, [[one, one, one]])
        trace = newton_solve(
            p, hq_float.zero(), one,
            NewtonConfig(tol=1e-30, max_iter=50, divergence_factor=1e-9))
        assert trace.status == DIVERGED

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
        with pytest.raises(ValueError):
            NewtonConfig(tol=0.0)
        with pytest.raises(ValueError):
            NewtonConfig(max_iter=0)


class TestPolyJson:
    def test_round_trip(self, hq, square_map):
        data = nc.poly_to_json(square_map)
        assert nc.poly_from_json(hq, data) == square_map

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

from fractions import Fraction

import pytest

import ncalg as nc
from helpers import quat_conjugate, rand_element, rand_nonzero


def complex_constants():
    # 2-dimensional: basis 1, u with u*u = -1
    return [
        [[1, 0], [0, 1]],
        [[0, 1], [-1, 0]],
    ]


def dual_constants():
    # 1, eps with eps*eps = 0: associative, unital, not a division algebra
    return [
        [[1, 0], [0, 1]],
        [[0, 1], [0, 0]],
    ]


class TestQuaternionTable:
    def test_defining_products(self, hq, units):
        one, i, j, k = units
        assert i * j == k and j * k == i and k * i == j
        assert j * i == -k and k * j == -i and i * k == -j
        assert i * i == -one and j * j == -one and k * k == -one

    def test_unit_acts_trivially(self, hq, units):
        one = units[0]
        for x in units:
            assert one * x == x and x * one == x

    def test_mixed_products(self, hq, units):
        one, i, j, k = units
        assert (i + j) * (one + j) == -one + i + j + k
        assert (one + i - j) * (one + j) == 2 * one + i + k
        assert (i + j) * i * k == one - k

    def test_associativity_randomized(self, hq, rng):
        for _ in range(50):
            a, b, c = (rand_element(hq, rng) for _ in range(3))
            assert (a * b) * c == a * (b * c)


class TestModuleArithmetic:
    def test_addition(self, hq, units):
        one, i, j, k = units
        assert (one + k) + (i + j) == hq.element([1, 1, 1, 1])

    def test_scaling(self, hq, units):
        one, i, j, k = units
        half = Fraction(-1, 2)
        assert half * (one + j) == hq.element([half, 0, half, 0])
        assert (one + j).scale("-1/2") == hq.element(["-1/2", 0, "-1/2", 0])

    def test_subtraction_cancels(self, hq, rng):
        a = rand_element(hq, rng)
        assert (a - a).is_zero()

    def test_mismatched_algebras_rejected(self, hq):
        other = nc.make_algebra(complex_constants())
        with pytest.raises(nc.AlgebraMismatch):
            hq.one() + other.one()
        with pytest.raises(nc.AlgebraMismatch):
            hq.one() * other.one()

    @pytest.mark.parametrize("mode", [nc.RATIONAL, nc.FLOAT])
    def test_scalar_operand_is_a_multiple_of_one(self, mode):
        alg = nc.quaternion_algebra(mode)
        one, i = alg.one(), alg.basis(1)
        assert 1 + i == i + 1 == one + i == alg.element([1, 1, 0, 0])
        assert 1 - i == one - i == alg.element([1, -1, 0, 0])
        assert i - 1 == i - one == alg.element([-1, 1, 0, 0])
        assert Fraction(1, 2) + i == alg.element(["1/2", 1, 0, 0])
        assert sum([i, i]) == 2 * i

    def test_float_scalar_rejected_in_rational_mode(self, hq):
        with pytest.raises(TypeError):
            hq.basis(1) + 0.5
        with pytest.raises(TypeError):
            0.5 - hq.basis(1)


class TestInverse:
    def test_basis_inverses(self, hq, units):
        one, i, j, k = units
        assert i.inverse() == -i
        assert (one + j).inverse() == hq.element(["1/2", 0, "-1/2", 0])

    def test_conjugate_oracle(self, hq, rng):
        # independent route: conj(x) / |x|^2
        for _ in range(25):
            x = rand_nonzero(hq, rng)
            expected = quat_conjugate(x).scale(1 / x.norm_squared())
            assert x.inverse() == expected

    def test_zero_not_invertible(self, hq):
        with pytest.raises(nc.NotInvertible):
            hq.zero().inverse()

    def test_zero_divisor_not_invertible(self):
        dual = nc.make_algebra(dual_constants())
        eps = dual.basis(1)
        with pytest.raises(nc.NotInvertible):
            eps.inverse()

    def test_two_sided(self, hq, rng):
        for _ in range(10):
            x = rand_nonzero(hq, rng)
            y = x.inverse()
            assert x * y == hq.one() and y * x == hq.one()


class TestRegularRepresentation:
    def test_left_of_unit_is_identity(self, hq):
        assert hq.one().left_matrix() == nc.FieldMatrix.identity(4)

    def test_left_of_i_columns(self, hq, units):
        # columns are coords of i*1, i*i, i*j, i*k: 1->i, i->-1, j->k, k->-j
        one, i, j, k = units
        L = i.left_matrix()
        cols = L.transpose().entries
        assert list(cols[0]) == list(i.coords)
        assert list(cols[1]) == list((-one).coords)
        assert list(cols[2]) == list(k.coords)
        assert list(cols[3]) == list((-j).coords)

    def test_right_action_example(self, hq, units):
        one, i, j, k = units
        assert i.right_matrix().matvec(list(j.coords)) == list((-k).coords)

    def test_regular_property(self, hq, rng):
        for _ in range(25):
            a, x = rand_element(hq, rng), rand_element(hq, rng)
            assert a.left_matrix().matvec(list(x.coords)) == list((a * x).coords)
            assert a.right_matrix().matvec(list(x.coords)) == list((x * a).coords)


class TestNorm:
    def test_values(self, hq, units):
        one, _i, _j, k = units
        assert one.norm() == 1.0
        assert (one + k).norm() == pytest.approx(2 ** 0.5)
        assert hq.zero().norm() == 0.0

    def test_multiplicative_exactly(self, hq, rng):
        # the squared norm stays exact in rational mode
        for _ in range(25):
            a, b = rand_element(hq, rng), rand_element(hq, rng)
            assert (a * b).norm_squared() == a.norm_squared() * b.norm_squared()

    def test_multiplicative_float(self, hq_float, rng):
        for _ in range(10):
            a = rand_element(hq_float, rng)
            b = rand_element(hq_float, rng)
            assert (a * b).norm() == pytest.approx(a.norm() * b.norm(), abs=1e-12)


class TestConstruction:
    def test_one_dimensional_field(self):
        alg = nc.make_algebra([[[1]]])
        assert alg.one() * alg.one() == alg.one()

    def test_flipped_sign_is_not_associative(self):
        # same table as the quaternions except i*j = j*i = -k
        q = nc.quaternion_algebra()
        C = [[list(row) for row in plane] for plane in q.constants]
        C[1][2][3] = Fraction(-1)
        C[2][1][3] = Fraction(-1)
        with pytest.raises(nc.NonAssociative) as err:
            nc.make_algebra(C)
        assert "i=" in str(err.value)  # names the failing indices

    def test_broken_unit_law(self):
        C = complex_constants()
        C[0][1][1] = 0
        with pytest.raises(nc.UnitLawViolation):
            nc.make_algebra(C)

    def test_coordinate_count_enforced(self, hq):
        with pytest.raises(ValueError):
            hq.element([1, 2, 3])

    def test_rational_mode_rejects_floats(self, hq):
        with pytest.raises(TypeError):
            hq.element([0.5, 0, 0, 0])

    def test_float_mode_accepts_everything(self, hq_float):
        x = hq_float.element([0.5, "1/2", 1, Fraction(1, 4)])
        assert x.coords == (0.5, 0.5, 1.0, 0.25)


class TestJson:
    def test_round_trip(self, hq):
        data = nc.algebra_to_json(hq)
        again = nc.algebra_from_json(data)
        assert again == hq

    def test_from_json_string(self):
        text = """
        {"name": "complex", "dim": 2, "basis": ["1", "u"],
         "constants": [[["1", "0"], ["0", "1"]], [["0", "1"], ["-1", "0"]]]}
        """
        alg = nc.algebra_from_json(text)
        u = alg.basis(1)
        assert u * u == -alg.one()

    def test_element_round_trip(self, hq, rng):
        x = rand_element(hq, rng)
        assert nc.element_from_json(hq, nc.element_to_json(x)) == x

"""Algebra construction: validation verdicts and messages, pair products
against their definition, and exact dim-16 algebras."""

import re
from fractions import Fraction

import pytest

import ncalg as nc
from helpers import (SPECIAL_FLOATS, algebra_from_data, clifford_algebra,
                     constructor_constants, float_bits, matrix_algebra, naive_product,
                     near_unit_quaternion_algebra, rand_nonzero, scaled_quaternion_algebra)

MODES = [nc.RATIONAL, nc.FLOAT]

FLIPPED_MESSAGE = {
    nc.RATIONAL: "(e1*e1)*e2 != e1*(e1*e2) at coordinate p=2 "
                 "(indices i=1, j=1, k=2, p=2): -1 != 1",
    nc.FLOAT: "(e1*e1)*e2 != e1*(e1*e2) at coordinate p=2 "
              "(indices i=1, j=1, k=2, p=2): -1.0 != 1.0",
}


def quaternion_constants():
    return [[list(row) for row in plane] for plane in nc.quaternion_algebra().constants]


ALGEBRAS = {
    "H": nc.quaternion_algebra,
    "M2": lambda mode: matrix_algebra(2, mode),
    "complex": lambda mode: algebra_from_data("complex", mode),
    "dual": lambda mode: algebra_from_data("dual", mode),
    "Cl11": lambda mode: clifford_algebra(1, 1, mode),
    "H/2": scaled_quaternion_algebra,
}


def scalar_type(mode):
    return Fraction if mode == nc.RATIONAL else float


def dense_sides(C, i, j, k, p):
    """Both sides of the associativity identity at (i, j, k, p), densely."""
    n = len(C)
    return (sum(C[i][j][m] * C[m][k][p] for m in range(n)),
            sum(C[i][m][p] * C[j][k][m] for m in range(n)))


class TestValidationVerdicts:
    @pytest.mark.parametrize("mode", MODES)
    def test_flipped_sign_message(self, mode):
        # same table as the quaternions except i*j = j*i = -k
        C = quaternion_constants()
        C[1][2][3] = C[2][1][3] = Fraction(-1)
        with pytest.raises(nc.NonAssociative) as err:
            nc.make_algebra(C, scalar_mode=mode)
        assert str(err.value) == FLIPPED_MESSAGE[mode]

    def test_float_tolerance_boundary(self):
        C = quaternion_constants()
        C[1][2][3] = 1 + 1e-10
        nc.make_algebra(C, scalar_mode=nc.FLOAT)
        C[1][2][3] = 1 + 1e-6
        with pytest.raises(nc.NonAssociative) as err:
            nc.make_algebra(C, scalar_mode=nc.FLOAT)
        assert str(err.value) == ("(e1*e1)*e2 != e1*(e1*e2) at coordinate p=2 "
                                  "(indices i=1, j=1, k=2, p=2): -1.0 != -1.000001")

    def test_float_unit_within_tolerance_is_exact(self, rng):
        # unit constants 1 + 2**-40 pass the unit law and are stored as 1,
        # so products with the unit are the quaternions' bit for bit, and
        # leave a nonzero finite coordinate as it is
        alg, H = near_unit_quaternion_algebra(), nc.quaternion_algebra(nc.FLOAT)
        assert alg.constants == H.constants
        for _ in range(20):
            coords = [rng.choice(SPECIAL_FLOATS) if rng.random() < 0.3
                      else rng.uniform(-4, 4) for _ in range(4)]
            x, y = alg.element(coords), H.element(coords)
            assert float_bits((alg.one() * x).coords) == float_bits((H.one() * y).coords)
            assert float_bits((x * alg.one()).coords) == float_bits((y * H.one()).coords)
        x = alg.element([0.3, -0.7, 1e300, 5e-324])
        assert alg.one() * x == x == x * alg.one()

    @pytest.mark.parametrize("mode", MODES)
    def test_broken_unit_law(self, mode):
        C = quaternion_constants()
        C[2][0][2] = 0
        with pytest.raises(nc.UnitLawViolation):
            nc.make_algebra(C, scalar_mode=mode)


class TestPairProducts:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", list(ALGEBRAS))
    def test_equal_left_times_right(self, name, mode):
        # L(e_i) @ R(e_j) maps e_p to e_i e_p e_j, here multiplied out over
        # the constants handed to the constructor; the entries are ints over
        # the table scale _dc**2 in rational mode
        alg, C = constructor_constants(ALGEBRAS[name], mode)
        n, pairs, scale = alg.dim, alg.pair_products(), alg._dc ** 2
        unit = [[Fraction(int(t == k)) for t in range(n)] for k in range(n)]
        for i in range(n):
            for j in range(n):
                expected = sorted(
                    (q, p, v) for p in range(n) for q, v in enumerate(
                        naive_product(C, naive_product(C, unit[i], unit[p]), unit[j]))
                    if v != 0)
                assert [(q, p, Fraction(v) / scale) for q, p, v in pairs[i][j]] == expected
                assert all(type(v) is (int if mode == nc.RATIONAL else float)
                           for _, _, v in pairs[i][j])

    def test_scaled_basis_has_non_integral_constants(self):
        C = scaled_quaternion_algebra().constants
        assert C[1][1][0] == Fraction(-1, 4) and C[3][3][0] == Fraction(-1, 16)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", ["H", "M2", "H/2"])
    def test_no_int_leaks(self, name, mode, rng):
        alg = ALGEBRAS[name](mode)
        want = scalar_type(mode)
        for _ in range(5):
            a, b = rand_nonzero(alg, rng), rand_nonzero(alg, rng)
            assert all(type(c) is want for c in (a * b).coords)
            try:
                assert all(type(c) is want for c in a.inverse().coords)
            except nc.NotInvertible:
                pass
            f = nc.tensor_from_pairs([(a, b), (b, alg.one())])
            assert all(type(v) is want
                       for row in f.operator_matrix().entries for v in row)


class TestDim16Exact:
    def test_m4_validates(self):
        alg = matrix_algebra(4)
        assert alg.dim == 16
        e = {name: alg.basis(alg.basis_index(name)) for name in ("e12", "e23", "e13")}
        assert e["e12"] * e["e23"] == e["e13"]
        assert (e["e23"] * e["e12"]).is_zero()

    def test_cl40_validates(self):
        alg = clifford_algebra(4, 0)
        assert alg.dim == 16
        e1, e2 = alg.basis(1), alg.basis(2)
        assert e1 * e1 == alg.one()
        assert e1 * e2 == -(e2 * e1) == alg.basis(3)

    def test_m4_flipped_constant_named(self):
        alg = matrix_algebra(4)
        good = [[list(row) for row in plane] for plane in alg.constants]
        C = [[list(row) for row in plane] for plane in good]
        a, b, c = (alg.basis_index(t) for t in ("e12", "e23", "e13"))
        C[a][b][c] = -C[a][b][c]
        with pytest.raises(nc.NonAssociative) as err:
            nc.make_algebra(C)
        named = r"indices i=(\d+), j=(\d+), k=(\d+), p=(\d+)\): (\S+) != (\S+)$"
        found = re.search(named, str(err.value))
        i, j, k, p = map(int, found.group(1, 2, 3, 4))
        lhs, rhs = dense_sides(C, i, j, k, p)
        assert lhs != rhs and (str(lhs), str(rhs)) == found.group(5, 6)
        # the flipped constant is what breaks the identity there
        assert dense_sides(good, i, j, k, p)[0] == dense_sides(good, i, j, k, p)[1]

"""Algebra construction: validation verdicts and messages, pair products
against their definition, and exact dim-16 algebras."""

import re
from fractions import Fraction

import pytest

import ncalg as nc
from helpers import algebra_from_data, clifford_algebra, matrix_algebra, rand_nonzero

MODES = [nc.RATIONAL, nc.FLOAT]

FLIPPED_MESSAGE = {
    nc.RATIONAL: "(e1*e1)*e2 != e1*(e1*e2) at coordinate p=2 "
                 "(indices i=1, j=1, k=2, p=2): -1 != 1",
    nc.FLOAT: "(e1*e1)*e2 != e1*(e1*e2) at coordinate p=2 "
              "(indices i=1, j=1, k=2, p=2): -1.0 != 1.0",
}


def quaternion_constants():
    return [[list(row) for row in plane] for plane in nc.quaternion_algebra().constants]


def scaled_quaternion_algebra(scalar_mode=nc.RATIONAL):
    """The quaternions over the basis 1, i/2, j/2, k/4, so that constants
    such as -1/4 and 1/8 occur."""
    H = nc.quaternion_algebra()
    scale = [1, 2, 2, 4]
    basis = [H.basis(t).scale(Fraction(1, scale[t])) for t in range(4)]
    constants = [[[(x * y).coords[k] * scale[k] for k in range(4)] for y in basis]
                 for x in basis]
    return nc.make_algebra(constants, ["1", "u", "v", "w"], scalar_mode)


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
        alg = ALGEBRAS[name](mode)
        n, pairs = alg.dim, alg.pair_products()
        for i in range(n):
            for j in range(n):
                left, right = alg.basis(i).left_matrix(), alg.basis(j).right_matrix()
                product = (left @ right).entries
                expected = [(q, p, v) for q in range(n) for p in range(n)
                            if (v := product[q][p]) != 0]
                assert list(pairs[i][j]) == expected
                assert all(type(v) is scalar_type(mode) for _, _, v in pairs[i][j])

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

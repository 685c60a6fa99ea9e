"""Algebra construction: validation verdicts and messages, the packed
associativity check against the dense identity, integer constants read
without `Fraction`s, pair products against their definition, and exact
dim-16 algebras."""

import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

import ncalg as nc
from ncalg import algebra as algebra_module
from helpers import (SPECIAL_FLOATS, algebra_from_data, change_basis, clifford_algebra,
                     constructor_constants, dense_quaternion_algebra, float_bits,
                     matrix_algebra, naive_product, near_unit_quaternion_algebra,
                     rand_nonzero, scaled_quaternion_algebra)

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


def dense_table(alg):
    """The integer numerators of alg's table (over _dc), densely."""
    dense = [[[0] * alg.dim for _ in range(alg.dim)] for _ in range(alg.dim)]
    for i, plane in enumerate(alg._mul_table):
        for j, cell in enumerate(plane):
            for k, c in cell:
                dense[i][j][k] = c
    return dense


def sparse_table(C):
    return tuple(tuple(tuple((k, c) for k, c in enumerate(row) if c) for row in plane)
                 for plane in C)


def combine_calls(monkeypatch):
    """The calls of `_combine`, the term-by-term check's sum, from here on."""
    calls, original = [], algebra_module._combine

    def counting(*args):
        calls.append(1)
        return original(*args)
    monkeypatch.setattr(algebra_module, "_combine", counting)
    return calls


class TestPackedAssociativity:
    """`_exactly_associative` compares both sides of the identity packed
    into one integer per row of the table; the term-by-term check runs only
    where it does not apply or fails, and names the indices."""

    @pytest.mark.parametrize("name", [*ALGEBRAS, "H~P", "M3", "Cl30"])
    def test_agrees_with_the_dense_identity(self, name, rng):
        # each table as built, then with one constant off the unit row and
        # column changed (by up to the table's largest constant, so that the
        # packing's slot width is what keeps the sides apart)
        build = {"H~P": dense_quaternion_algebra, "M3": lambda mode: matrix_algebra(3, mode),
                 "Cl30": lambda mode: clifford_algebra(3, 0, mode)}.get(name, ALGEBRAS.get(name))
        alg = build(nc.RATIONAL)
        C, n = dense_table(alg), alg.dim
        assert algebra_module._exactly_associative(alg._mul_table, True)
        largest = max(abs(c) for plane in C for row in plane for c in row)
        verdicts = set()
        for _ in range(40):
            D = [[list(row) for row in plane] for plane in C]
            i, j, k = rng.randrange(1, n), rng.randrange(1, n), rng.randrange(n)
            D[i][j][k] += rng.choice([-1, 1]) * rng.randint(1, 2 * largest)
            expected = all(dense_sides(D, a, b, c, p)[0] == dense_sides(D, a, b, c, p)[1]
                           for a in range(n) for b in range(n) for c in range(n)
                           for p in range(n))
            assert algebra_module._exactly_associative(sparse_table(D), True) == expected
            verdicts.add(expected)
        # in dim 2 every e1^2 = c + d e1 is associative; above, no change is
        assert verdicts == ({True} if n == 2 else {False})

    def test_float_tables(self):
        # integral float constants are checked packed; other constants, and
        # integers whose products could round in a float sum, are not
        H = nc.quaternion_algebra(nc.FLOAT)
        assert algebra_module._exactly_associative(H._mul_table, False)
        # H~P's numerators over _dc = 2, as floats: a dense integral table
        numerators = dense_quaternion_algebra()._mul_table
        assert algebra_module._exactly_associative(numerators, True)
        assert algebra_module._exactly_associative(
            tuple(tuple(tuple((k, float(c)) for k, c in cell) for cell in plane)
                  for plane in numerators), False)
        for halves in (dense_quaternion_algebra, scaled_quaternion_algebra):
            assert not algebra_module._exactly_associative(halves(nc.FLOAT)._mul_table, False)
        s = 2 ** 13  # basis 1, s i, s j, s^2 k: constants up to s^4 = 2**52
        wide = change_basis(H, ((1, 0, 0, 0), (0, s, 0, 0), (0, 0, s, 0), (0, 0, 0, s * s)))
        assert not algebra_module._exactly_associative(wide._mul_table, False)
        exact = change_basis(nc.quaternion_algebra(),
                             ((1, 0, 0, 0), (0, s, 0, 0), (0, 0, s, 0), (0, 0, 0, s * s)))
        assert algebra_module._exactly_associative(exact._mul_table, True)
        assert wide.constants == exact.constants

    @pytest.mark.parametrize("mode", MODES)
    def test_valid_integer_tables_skip_the_term_by_term_check(self, mode, monkeypatch):
        # every rational table is integral over _dc; M2 and H/2 hold halves
        # and quarters, so as floats they are not
        calls = combine_calls(monkeypatch)
        algebra_module._pair_products.cache_clear()
        for name in ("H", "complex", "dual", "Cl11"):
            ALGEBRAS[name](mode)
        clifford_algebra(4, 0, mode)
        # nor are pair products formed
        assert calls == [] and algebra_module._pair_products.cache_info().currsize == 0
        for halves in (ALGEBRAS["M2"], scaled_quaternion_algebra):
            halves(mode)
            assert bool(calls) == (mode == nc.FLOAT)
        C = quaternion_constants()
        C[1][2][3] = C[2][1][3] = Fraction(-1)
        with pytest.raises(nc.NonAssociative):
            nc.make_algebra(C, scalar_mode=mode)
        assert calls


class TestIntegerConstants:
    """Integer constants, and their plain decimal text, are read without a
    `Fraction`, to the values `coerce` gives."""

    TEXTS = ["7", "-3", "007", "-0", "0", " 5", "+2", "1/2", "-4/6", "2.5", "1e3",
             "9" * 40, -12, 3, Fraction(5, 3), Fraction(4, 1)]

    @staticmethod
    def algebra(c, d, mode):
        # e1^2 = c + d e1: associative and unital for any c and d
        return nc.make_algebra([[[1, 0], [0, 1]], [[0, 1], [c, d]]], scalar_mode=mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_values_and_types_match_coerce(self, mode):
        H = nc.quaternion_algebra(mode)
        for c in self.TEXTS:
            if mode == nc.RATIONAL and c in ("2.5", "1e3"):
                continue
            got = self.algebra(c, "-1", mode).constants[1][1]
            assert got == (H.coerce(c), H.coerce(-1)), c
            assert type(got[0]) is scalar_type(mode), c

    def test_float_overflow_message_is_coerce_s(self):
        huge = "1" + "0" * 400
        with pytest.raises(ValueError) as expected:
            nc.quaternion_algebra(nc.FLOAT).coerce(huge)
        with pytest.raises(ValueError) as err:
            self.algebra(huge, 0, nc.FLOAT)
        assert str(err.value) == str(expected.value)
        assert self.algebra(huge, 0, nc.RATIONAL).constants[1][1][0] == 10 ** 400

    @pytest.mark.parametrize("mode", MODES)
    def test_integer_tables_build_no_fraction(self, mode, fraction_count):
        path = Path(__file__).parent / "data" / "complex_algebra.json"
        data = json.loads(path.read_text())
        cl11 = {"dim": 4, "constants": [[[str(c) for c in row] for row in plane]
                                         for plane in clifford_algebra(1, 1).constants]}
        del fraction_count[:]
        nc.algebra_from_json(data, mode)
        nc.algebra_from_json(cl11, mode)
        nc.quaternion_algebra(mode)
        assert fraction_count == []

"""Exact element inverses read off the characteristic polynomial.

`Element._inverse` in rational mode takes the traces of the powers of B,
the element times its denominator and the table's, to the characteristic
polynomial of L(B) by Newton's identities, and inverts by Cayley-Hamilton.
Its stored pair, or None, must be the one the fraction-free solve of
L(a) y = 1 over `operator_rows` gives, on every table below, zero divisors
and coordinates of 256 bits included.  The polynomial must be sympy's
characteristic polynomial of L(B) and vanish at B in the algebra.  An
exact inverse builds no `Fraction` and runs no elimination; float element
inverses and exact tensor inverses keep their solves.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, strategies as st

import ncalg as nc
from ncalg import algebra as algebra_module
from ncalg import linalg
from ncalg.algebra import _characteristic, cleared_element
from ncalg.solvers import nc_row_reduce
from helpers import (algebra_from_data, clifford_algebra, dense_quaternion_algebra,
                     matrix_algebra, opposite, scaled_quaternion_algebra)

TABLES = {
    "H": nc.quaternion_algebra(),
    "H~P": dense_quaternion_algebra(),                  # dense table, _dc = 2
    "H/2": scaled_quaternion_algebra(),                 # _dc = 16
    "M2": matrix_algebra(2),                            # _dc = 2
    "M3": matrix_algebra(3),                            # _dc = 3
    "M3^op": opposite(matrix_algebra(3)),
    "Cl30": clifford_algebra(3, 0),
    "Cl11": clifford_algebra(1, 1),
    "Cl10": clifford_algebra(1, 0),
    "Cl01": clifford_algebra(0, 1),
    "complex": algebra_from_data("complex"),
    "dual": algebra_from_data("dual"),
    "dim1": nc.make_algebra([[[1]]], name="Q"),
}
M4 = matrix_algebra(4)

# zeros, units, small fractions, and numerators far beyond a machine word
scalars = st.one_of(
    st.just(Fraction(0)),
    st.integers(-2, 2).map(Fraction),
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
    st.builds(Fraction, st.integers(-2 ** 256, 2 ** 256), st.integers(1, 2 ** 64)),
)


def solved_inverse(a):
    """The inverse the old way: the fraction-free solve of L(a) y = e0 over
    `operator_rows`, as a reduced pair, or None."""
    if a.is_zero():
        return None
    alg = a.algebra
    den, rows = a._operator_rows()
    d, sol = linalg.solve_integer(rows, [den * v for v in alg.one()._nums])
    return None if sol.kind == nc.INCONSISTENT else cleared_element(alg, d, sol.particular)


def assert_same_inverse(a):
    got, expected = a._inverse(), solved_inverse(a)
    if expected is None:
        assert got is None
        if not a.is_zero():
            with pytest.raises(nc.PivotNotInvertible):
                nc_row_reduce([[a]], [a.algebra.one()])
        return
    assert (got._d, got._nums) == (expected._d, expected._nums)
    assert repr(got) == repr(a.inverse()) == repr(expected)
    assert a * got == a.algebra.one() == got * a


def big_element(alg, rng):
    """Coordinates of 256-bit numerators over odd denominators of up to 64 bits."""
    return alg.element([Fraction(rng.getrandbits(256) - 2 ** 255, rng.getrandbits(64) | 1)
                        for _ in range(alg.dim)])


@pytest.mark.parametrize("name", list(TABLES))
@given(data=st.data())
def test_matches_the_fraction_free_solve(name, data):
    alg = TABLES[name]
    a = alg.element(data.draw(st.lists(scalars, min_size=alg.dim, max_size=alg.dim)))
    assert_same_inverse(a)


@pytest.mark.parametrize("name", list(TABLES))
def test_matches_on_small_integer_elements(name):
    # coordinates in {-1, 0, 1} hit singular elements of every table with
    # a zero divisor
    alg, rng = TABLES[name], random.Random(name)
    for _ in range(60):
        assert_same_inverse(alg.element([rng.choice((-1, 0, 0, 1))
                                         for _ in range(alg.dim)]))


#: per table, zero divisors as coordinates: idempotents, nilpotents, and
#: 1 + e for a unit e with e^2 = 1
ZERO_DIVISORS = {
    "M2": [[Fraction(1, 2), Fraction(1, 2), 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    "M3": [[0] * 3 + [1] + [0] * 5, [Fraction(1, 3), Fraction(2, 3), Fraction(1, 3)]
           + [0] * 6],
    "M3^op": [[0] * 8 + [1]],
    "Cl30": [[1, 1] + [0] * 6, [1, 0, 1] + [0] * 5],
    "Cl11": [[1, 1, 0, 0], [1, 0, 0, 1]],
    "Cl10": [[1, 1], [1, -1]],
    "dual": [[0, 1]],
}


@pytest.mark.parametrize("name", list(ZERO_DIVISORS))
def test_zero_divisors_have_no_inverse(name):
    alg, rng = TABLES[name], random.Random(name)
    for coords in ZERO_DIVISORS[name]:
        z = alg.element(coords)
        for _ in range(10):
            # u z v is a zero divisor for all u and v
            u, v = (alg.element([Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                                 for _ in range(alg.dim)]) for _ in range(2))
            w = u * z * v
            assert w.is_zero() or w._inverse() is None
            assert_same_inverse(w)


@pytest.mark.parametrize("alg", [TABLES["M3"], TABLES["Cl30"], M4],
                         ids=["M3", "Cl30", "M4"])
def test_matches_on_256_bit_coordinates(alg):
    rng = random.Random(alg.dim)
    for _ in range(3 if alg is M4 else 10):
        assert_same_inverse(big_element(alg, rng))


@pytest.mark.parametrize("name", list(TABLES))
def test_characteristic_polynomial_vanishes_in_the_algebra(name):
    alg, rng = TABLES[name], random.Random(name)
    n, dc = alg.dim, alg._dc
    for _ in range(5):
        p = alg.element([Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                         for _ in range(n)])
        c, powers = _characteristic(p)
        B = p.scale(dc * p._d)
        assert all(type(v) is int for v in B._nums) and B._d == 1
        # the powers are B^k over _dc, and c is sympy's polynomial of L(B)
        power = alg.one()
        for q in powers:
            power = power * B
            assert cleared_element(alg, 1, [dc * v for v in q]) == power
        L = nc.TensorOp.from_pairs([(B, alg.one())]).operator_matrix()
        matrix = sympy.Matrix([list(row) for row in L.entries])
        assert c == [int(v) for v in matrix.charpoly().all_coeffs()]
        # chi(B) = B^n + c_1 B^(n-1) + ... + c_n = 0 in A
        total, power = alg.zero(), alg.one()
        for coefficient in reversed(c):
            total, power = total + power.scale(coefficient), power * B
        assert total.is_zero()


@pytest.mark.parametrize("name", ["H", "H~P", "M3", "Cl30", "dual"])
def test_exact_inverse_builds_no_fraction(name, fraction_count):
    alg, rng = TABLES[name], random.Random(name)
    elements = [alg.element([Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                             for _ in range(alg.dim)]) for _ in range(10)]
    del fraction_count[:]
    inverses = [a._inverse() for a in elements]
    assert fraction_count == [] and any(inverses)
    # the counter does see the coordinates being read
    assert next(y for y in inverses if y).coords and fraction_count


@pytest.fixture
def solve_calls(monkeypatch):
    """Calls of the integer solve and of the elimination sweep behind every
    scalar solve, counted by name from here on."""
    calls = Counter()

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for module, name in ((algebra_module, "solve_integer"), (algebra_module, "solve_float"),
                         (linalg, "eliminate")):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls


def test_only_float_element_inverses_solve(solve_calls):
    rng = random.Random(3)
    for name in ("H", "M3", "Cl30"):
        alg = TABLES[name]
        alg.element([rng.randint(1, 5) for _ in range(alg.dim)]).inverse()
    # the zero element, diag(2, 0, 1) and 1 + e1 with e1^2 = 1
    for z in (TABLES["H"].zero(), TABLES["M3"].element([1, 1] + [0] * 7),
              TABLES["Cl30"].element([1, 1] + [0] * 6)):
        with pytest.raises(nc.NotInvertible):
            z.inverse()
    assert solve_calls == {}
    # a float inverse eliminates its operator matrix: solve_float runs the
    # float sweep, not the integer solve
    nc.quaternion_algebra(nc.FLOAT).element([1.0, 2.0, 0.0, -1.0]).inverse()
    assert solve_calls == {"solve_float": 1, "eliminate": 1}
    # exact tensors keep the n^2 x n^2 integer solve
    H = TABLES["H"]
    nc.TensorOp.from_pairs([(H.basis(1), H.basis(2)), (H.one().scale(3), H.one())]).invert()
    assert solve_calls["solve_integer"] == 1 and solve_calls["eliminate"] == 2


def test_enlarged_elimination_solves_no_pivot(solve_calls):
    # the exact sweep over the algebra divides every pivot without a solve
    H = TABLES["H"]
    i, j, k = (H.basis(t) for t in (1, 2, 3))
    system = nc.SylvesterSystem.from_terms(
        H, [([(H.one() + i, j, 0), (k, H.one() - j, 0)], H.one() + k)], 1)
    sol = nc.solve_richardson(system)
    assert sol.kind == nc.UNIQUE
    assert solve_calls == {}

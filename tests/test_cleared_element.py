"""Exact elements stored as one cleared integer pair.

Every operation on a rational `Element` is compared with a tuple-of-
`Fraction`s oracle over the constants handed to the algebra's constructor,
on every table of `test_exact_kernel` and on H/357, whose constants such as
7/15 have odd denominators.  After each operation the stored pair must be
the reduced one, a denominator d > 0 with gcd(d, *numerators) = 1, so that
equal values have equal pairs and equal hashes however they were computed.
The enlarged (Richardson) elimination must build no `Fraction` before its
solution set is read, not even for a zero-divisor pivot candidate, and the
field route none before its solution's values are read.
"""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, strategies as st

import ncalg as nc
from ncalg.solvers import build_richardson, nc_row_reduce
from helpers import (algebra_from_data, clifford_algebra, constructor_constants,
                     matrix_algebra, naive_product, scaled_quaternion_algebra)

TABLES = {
    "H": nc.quaternion_algebra,
    "M2": lambda mode: matrix_algebra(2, mode),
    "Cl11": lambda mode: clifford_algebra(1, 1, mode),
    "Cl30": lambda mode: clifford_algebra(3, 0, mode),
    "complex": lambda mode: algebra_from_data("complex", mode),
    "dual": lambda mode: algebra_from_data("dual", mode),
    "H/2": scaled_quaternion_algebra,
    "H/357": lambda mode: scaled_quaternion_algebra(mode, (1, 3, 5, 7)),
}
BUILT = {name: constructor_constants(build) for name, build in TABLES.items()}

# zeros, small values, and numerators and denominators far beyond a machine
# word, of either sign
scalars = st.one_of(
    st.just(Fraction(0)),
    st.integers(-3, 3).map(Fraction),
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
    st.builds(Fraction, st.integers(-2 ** 200, 2 ** 200), st.integers(1, 2 ** 100)),
)


def check(x, oracle):
    """x holds the oracle's value, as the one reduced pair of that value."""
    d, nums = x._d, x._nums
    assert type(d) is int and d > 0 and math.gcd(d, *nums) == 1
    assert type(nums) is tuple and all(type(v) is int for v in nums)
    assert [Fraction(v, d) for v in nums] == list(oracle)
    # pair, equality, hash, zero test and norm are read before the coordinates
    fresh = x.algebra.element(oracle)
    assert (fresh._d, fresh._nums) == (d, nums)
    assert x == fresh and hash(x) == hash(fresh)
    assert x.is_zero() == (not any(oracle))
    squared = x.norm_squared()
    assert type(squared) is Fraction and squared == sum(c * c for c in oracle)
    assert x.coords == tuple(oracle)
    assert all(type(c) is Fraction for c in x.coords)


def left_multiplication_rank(C, a):
    n = len(C)
    return sympy.Matrix([[sum(a[i] * C[i][j][k] for i in range(n)) for j in range(n)]
                         for k in range(n)]).rank()


@pytest.mark.parametrize("name", list(TABLES))
@given(data=st.data())
def test_matches_fraction_oracle(name, data):
    alg, C = BUILT[name]
    n = alg.dim
    a, b = (data.draw(st.lists(scalars, min_size=n, max_size=n)) for _ in range(2))
    s = data.draw(scalars)
    x, y = alg.element(a), alg.element(b)
    check(x, a)
    ab = naive_product(C, a, b)
    check(x + y, [p + q for p, q in zip(a, b)])
    check(x - y, [p - q for p, q in zip(a, b)])
    check(-x, [-p for p in a])
    check(x * y, ab)
    check(x.scale(s), [s * p for p in a])
    check(x * s, [s * p for p in a])
    check(x + s, [a[0] + s] + a[1:])
    check(s - x, [s - a[0]] + [-p for p in a[1:]])
    check(x.minus_product(x, y), [p - q for p, q in zip(a, ab)])
    # operands computed from pairs, and one value reached by two routes
    check((x * y) * x, naive_product(C, ab, a))
    check((x + y) - y, a)
    check(x * y - x * y, [0] * n)
    assert (x + y) - y == x and hash((x + y) - y) == hash(x)
    if x.is_zero():
        with pytest.raises(nc.NotInvertible):
            x.inverse()
        return
    try:
        inverse = x.inverse()
    except nc.NotInvertible:
        assert left_multiplication_rank(C, a) < n
        return
    one = [Fraction(int(k == 0)) for k in range(n)]
    check(inverse, inverse.coords)
    assert naive_product(C, a, inverse.coords) == one == naive_product(C, inverse.coords, a)


@pytest.mark.parametrize("name", ["H", "M2", "Cl30", "H/357"])
def test_enlarged_elimination_builds_no_fraction(name, fraction_count, rng):
    alg = BUILT[name][0]

    def element():
        return alg.element([Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                            for _ in range(alg.dim)])
    equations = [([(element(), element(), 0), (element(), element(), 1)], element())
                 for _ in range(2)]
    system = nc.SylvesterSystem.from_terms(alg, equations, 2)
    del fraction_count[:]
    rich = build_richardson(system)
    sol = nc_row_reduce(rich.amat, rich.brhs)
    assert fraction_count == []
    # the counter does see the coordinates being read
    assert sol.kind != nc.INCONSISTENT and sol.particular[0].coords
    assert fraction_count


@pytest.mark.parametrize("name, terms, rhs", [
    ("M2", [([2, -2, 0, -2], [-2, -2, 2, -2]), ([1, -1, 1, -2], [2, -1, 1, 1])],
     [2, -1, 0, -1]),
    ("Cl11", [([2, -2, -2, 2], [-1, 0, -1, -1]), ([0, -1, 2, -1], [0, 0, 2, 0])],
     [1, -1, 2, 0]),
])
def test_zero_divisor_pivot_candidates_build_no_fraction(name, terms, rhs,
                                                         fraction_count):
    # the first pivot search meets a zero divisor, whose failed inverse
    # used to format its coordinates for a message nobody read
    alg = BUILT[name][0]
    system = nc.SylvesterSystem.from_terms(
        alg, [([(alg.element(a), alg.element(b), 0) for a, b in terms],
               alg.element(rhs))], 1)
    first = build_richardson(system).amat[0][0]
    assert not first.is_zero()
    with pytest.raises(nc.NotInvertible):
        first.inverse()
    del fraction_count[:]
    sol = nc.solve_richardson(system)
    assert sol.kind == nc.UNIQUE and fraction_count == []
    assert len(sol.x[0].coords) == len(fraction_count) == alg.dim


@pytest.mark.parametrize("name", ["H", "M2", "Cl30", "H/357"])
def test_field_route_builds_fractions_only_for_its_solution(name, fraction_count, rng):
    # solve_field stacks integer rows and hands `solve_integer`'s integers
    # straight to `cleared_element`, so it builds no `Fraction`; the n*m
    # values of the particular solution and of each free direction are
    # built when they are read
    alg = BUILT[name][0]
    n = alg.dim

    def element():
        return alg.element([Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                            for _ in range(n)])
    terms = [(element(), element(), 0), (element(), element(), 1)]
    c, other = element(), element()
    systems = {
        "unique": [(terms, c), ([(element(), element(), 0), (element(), element(), 1)],
                                other)],
        "parametric": [(terms, c), (terms, c)],
        "inconsistent": [(terms, c), (terms, c + alg.one())],
    }
    for kind, equations in systems.items():
        system = nc.SylvesterSystem.from_terms(alg, equations, 2)
        del fraction_count[:]
        sol = nc.solve_field(system)
        assert sol.kind == kind
        assert fraction_count == [], kind
        for xs in ([sol.x] if sol.x else []) + sol.nullspace:
            assert all(x.coords for x in xs)
        expected = 0 if kind == nc.INCONSISTENT else n * 2 * (1 + len(sol.nullspace))
        assert len(fraction_count) == expected, kind

"""The compiled contraction kernels behind `pair_coefficients` and
`operator_rows`, and the float solve that takes their rows.

Both kernels are checked against the loops they replaced (`algebra._pairs`,
`algebra._rows`, kept as the float fallback) and against the test-side
oracles `naive_coefficients` and `naive_operator_matrix`: by `==` in rational
mode, and bit for bit in float mode, on dense, left- and right-matrix
(sparse) and all-zero coefficients, and on floats holding -0.0, subnormals,
products that overflow, infinities and NaN, where the kernels' multiplied
zeros (0*inf) send a result back to the loop.  Kernels are compiled on
first use, once per dimension or table and scalar mode: construction
compiles nothing, and a rebuilt algebra reuses them.  Float Newton steps,
the float field route and float inverses solve their rows with
`solve_float`, and build no `FieldMatrix`.
"""

import math
import random
from fractions import Fraction

import pytest

import ncalg as nc
from ncalg import algebra as algebra_module
from ncalg import linalg, newton, solvers
from ncalg.algebra import operator_rows, pair_coefficients
from helpers import (algebra_from_data, clifford_algebra, dense_quaternion_algebra,
                     float_bits, matrix_algebra, naive_coefficients, naive_operator_matrix,
                     opposite, scaled_quaternion_algebra)

BUILDERS = {
    "H": nc.quaternion_algebra,
    "H~P": dense_quaternion_algebra,
    "H/2": scaled_quaternion_algebra,
    "M2": lambda mode: matrix_algebra(2, mode),
    "M3": lambda mode: matrix_algebra(3, mode),
    "M3^op": lambda mode: opposite(matrix_algebra(3, mode)),
    "Cl30": lambda mode: clifford_algebra(3, 0, mode),
    "Cl11": lambda mode: clifford_algebra(1, 1, mode),
    "Cl10": lambda mode: clifford_algebra(1, 0, mode),
    "complex": lambda mode: algebra_from_data("complex", mode),
    "dual": lambda mode: algebra_from_data("dual", mode),
    "dim1": lambda mode: nc.make_algebra([[[1]]], scalar_mode=mode, name="Q"),
    "M4": lambda mode: matrix_algebra(4, mode),
}
ALGEBRAS = {(name, mode): build(mode) for name, build in BUILDERS.items()
            for mode in (nc.RATIONAL, nc.FLOAT)}

#: -0.0, subnormals, values whose products overflow, infinities and NaN
SPECIALS = (-0.0, 5e-324, -2.5e-320, 1e200, -1e200, math.inf, -math.inf, math.nan)


def layouts(n, values, zero):
    """Flat n*n coefficients: all `zero`, the left-matrix layout x (x) 1,
    the right-matrix layout 1 (x) x, and dense, filled from `values`."""
    yield [zero] * (n * n)
    left, right = [zero] * (n * n), [zero] * (n * n)
    left[::n], right[:n] = values(n), values(n)
    yield left
    yield right
    yield values(n * n)


def exact_values(rng):
    def values(count):
        return [Fraction(rng.choice((0, rng.randint(-2 ** 70, 2 ** 70))),
                         rng.choice((1, 3, 2 ** 40 + 1))) for _ in range(count)]
    return values


def float_values(rng, special_share):
    def values(count):
        return [rng.choice(SPECIALS) if rng.random() < special_share
                else rng.choice((0.0, rng.uniform(-4, 4))) for _ in range(count)]
    return values


def elements(alg, rng, values, count):
    out = [alg.zero(), alg.one()] + [alg.basis(k) for k in range(alg.dim)]
    out += [alg.element(values(alg.dim)) for _ in range(count)]
    return out


def exact_pairs(pairs):
    return [(a._d * b._d, a._nums, b._nums) for a, b in pairs]


@pytest.mark.parametrize("name", list(BUILDERS))
class TestExact:
    def test_pair_coefficients(self, name):
        alg, rng = ALGEBRAS[name, nc.RATIONAL], random.Random(name)
        xs = elements(alg, rng, exact_values(rng), 3 if name == "M4" else 8)
        for size in (1, 2, 3):
            for _ in range(4):
                pairs = [(rng.choice(xs), rng.choice(xs)) for _ in range(size)]
                d, f = pair_coefficients(alg, exact_pairs(pairs))
                assert all(type(v) is int for v in f)
                n = alg.dim
                expected = naive_coefficients(alg, pairs)
                assert [Fraction(v, d) for v in f] == [v for row in expected for v in row]
                # the loop it replaced, on the pairs scaled to one denominator
                scaled = [([d // q * v for v in xa], xb) for q, xa, xb in exact_pairs(pairs)]
                assert f == algebra_module._pairs(n, scaled, 0)

    def test_operator_rows(self, name):
        alg, rng = ALGEBRAS[name, nc.RATIONAL], random.Random(name)
        n = alg.dim
        for _ in range(2 if name == "M4" else 5):
            for coeff in layouts(n, exact_values(rng), Fraction(0)):
                d, nums = linalg.cleared(coeff)
                den, rows = operator_rows(alg, d, nums)
                assert all(type(v) is int for row in rows for v in row)
                assert rows == algebra_module._rows(alg.pair_products(), nums, 0)
                matrix = [coeff[i * n:(i + 1) * n] for i in range(n)]
                assert [[Fraction(v, den) for v in row] for row in rows] == [
                    list(row) for row in naive_operator_matrix(alg, matrix).entries]


@pytest.mark.parametrize("name", list(BUILDERS))
class TestFloat:
    def test_pair_coefficients_bit_for_bit(self, name):
        alg, rng = ALGEBRAS[name, nc.FLOAT], random.Random(name)
        n = alg.dim
        for share in (0.0, 0.3):
            xs = elements(alg, rng, float_values(rng, share), 4 if name == "M4" else 12)
            for size in (1, 2, 3):
                for _ in range(6):
                    pairs = [(rng.choice(xs), rng.choice(xs)) for _ in range(size)]
                    d, f = pair_coefficients(alg, [(a._nums, b._nums) for a, b in pairs])
                    assert d == 1 and all(type(v) is float for v in f)
                    expected = [v for row in naive_coefficients(alg, pairs) for v in row]
                    assert float_bits(f) == float_bits(expected)
                    assert float_bits(f) == float_bits(algebra_module._pairs(
                        n, [(a._nums, b._nums) for a, b in pairs], 0.0))
                    # the tensor of the pairs, summed the same way
                    assert float_bits(nc.TensorOp.from_pairs(pairs)._nums) == float_bits(f)

    def test_operator_rows_bit_for_bit(self, name):
        alg, rng = ALGEBRAS[name, nc.FLOAT], random.Random(name)
        n = alg.dim
        for share in (0.0, 0.3):
            for _ in range(2 if name == "M4" else 6):
                for coeff in layouts(n, float_values(rng, share), 0.0):
                    den, rows = operator_rows(alg, 1, coeff)
                    assert den == 1 and all(type(v) is float for row in rows for v in row)
                    got = [v for row in rows for v in row]
                    loop = algebra_module._rows(alg.pair_products(), coeff, 0.0)
                    assert float_bits(got) == float_bits(v for row in loop for v in row)
                    matrix = [coeff[i * n:(i + 1) * n] for i in range(n)]
                    naive = naive_operator_matrix(alg, matrix).entries
                    assert float_bits(got) == float_bits(v for row in naive for v in row)

    def test_element_matrices_bit_for_bit(self, name):
        alg, rng = ALGEBRAS[name, nc.FLOAT], random.Random(name)
        n, one = alg.dim, alg.one()
        for x in elements(alg, rng, float_values(rng, 0.3), 6):
            left, right = [0.0] * (n * n), [0.0] * (n * n)
            left[::n], right[:n] = x._nums, x._nums
            # x (x) 1 as the float inverse sums it, 1 (x) x as the public matrix
            matrices = ((x._operator_rows()[1], left),
                        (nc.TensorOp.from_pairs([(one, x)]).operator_matrix().entries, right))
            for rows, coeff in matrices:
                loop = algebra_module._rows(alg.pair_products(), coeff, 0.0)
                assert float_bits(v for row in rows for v in row) == \
                    float_bits(v for row in loop for v in row)


def test_float_pairs_fall_back_to_the_loop_only_for_a_nan(monkeypatch):
    calls, loop = [], algebra_module._pairs

    def counted(*args):
        calls.append(args[0])
        return loop(*args)
    monkeypatch.setattr(algebra_module, "_pairs", counted)
    H = nc.quaternion_algebra(nc.FLOAT)
    ordinary = [([1e200, -0.0, 5e-324, 2.0], [1e200, 1.0, -1e-300, 0.0])]
    assert float_bits(pair_coefficients(H, ordinary)[1]) == float_bits(
        loop(4, ordinary, 0.0))
    assert calls == []
    # 0 * inf: the kernel forms NaN where the loop skips the zero
    zero_times_inf = [([0.0, 1.0, 0.0, 0.0], [math.inf, 0.0, 0.0, 0.0])]
    got = pair_coefficients(H, zero_times_inf)[1]
    assert calls == [4]
    assert got[4] == math.inf and not any(math.isnan(v) for v in got)


def test_float_rows_fall_back_only_on_a_table_that_is_not_finite(monkeypatch):
    calls, loop = [], algebra_module._rows

    def counted(*args):
        calls.append(len(args[0]))
        return loop(*args)
    monkeypatch.setattr(algebra_module, "_rows", counted)
    # a finite table: a zero coefficient times a finite constant adds +-0,
    # which changes no sum, so no NaN test is compiled at all
    H = nc.quaternion_algebra(nc.FLOAT)
    coeff = [math.inf, 0.0, -0.0, math.nan] + [0.0] * 12
    assert float_bits(v for row in operator_rows(H, 1, coeff)[1] for v in row) == \
        float_bits(v for row in loop(H.pair_products(), coeff, 0.0) for v in row)
    assert calls == []
    # infinite constants are rejected, but e1^2 = 1e300 e1 is finite and
    # associative while its pair product e1 e1 e1 = inf e1 is not: the zero
    # coefficient of e1 (x) e1 times it is 0 * inf, which needs the loop
    alg = nc.make_algebra([[[1, 0], [0, 1]], [[0, 1], [0, 1e300]]],
                          scalar_mode=nc.FLOAT)
    for coeff, expected in (([0.0, 1.0, 0.0, 0.0], [[0.0, 0.0], [1.0, 1e300]]),
                            ([1.0, 0.0, 0.0, 2.0], [[1.0, 0.0], [2e300, math.inf]])):
        rows = operator_rows(alg, 1, coeff)[1]
        assert float_bits(v for row in rows for v in row) == \
            float_bits(v for row in expected for v in row)
    assert calls == [2]


def test_construction_compiles_nothing_and_rebuilt_algebras_reuse_kernels(monkeypatch):
    compiled, original = [], algebra_module._compiled

    def counting(*args, **kwargs):
        compiled.append(args[1])
        return original(*args, **kwargs)
    monkeypatch.setattr(algebra_module, "_compiled", counting)
    for cached in (algebra_module._compiled_pairs, algebra_module._compiled_rows,
                   algebra_module._compiled_product, algebra_module._pair_products):
        cached.cache_clear()
    for mode in (nc.RATIONAL, nc.FLOAT):
        formed = algebra_module._pair_products.cache_info().currsize
        first = clifford_algebra(1, 1, mode)
        assert compiled == [] and algebra_module._pair_products.cache_info().currsize == formed
        assert first._pairs_kernel is first._rows_kernel is first._kernel is None
        x = first.element([1, 2, 0, -1])
        pair_coefficients(first, exact_pairs([(x, x)]) if mode == nc.RATIONAL
                          else [(x._nums, x._nums)])
        x._operator_rows()
        assert compiled == ["pairs", "coeff"]
        second = clifford_algebra(1, 1, mode)
        assert second is not first and compiled == ["pairs", "coeff"]
        second.element([0, 1, 1, 0])._operator_rows()
        pair_coefficients(second, exact_pairs([(x, x)]) if mode == nc.RATIONAL
                          else [(x._nums, x._nums)])
        assert compiled == ["pairs", "coeff"]
        assert second._rows_kernel is first._rows_kernel
        assert second._pairs_kernel is first._pairs_kernel
        assert second.pair_products() is first.pair_products()
        compiled.clear()
    # keyed by the scalar mode: the int table equals, and hashes like, the
    # float one, but their kernels differ
    exact, floats = nc.quaternion_algebra(), nc.quaternion_algebra(nc.FLOAT)
    for alg in (exact, floats):
        alg.one()._operator_rows()
        pair_coefficients(alg, exact_pairs([(alg.one(),) * 2]) if alg is exact
                          else [(alg.one()._nums,) * 2])
    assert exact.pair_products() == floats.pair_products()
    assert exact.pair_products() is not floats.pair_products()
    assert {type(w) for plane in floats.pair_products() for cell in plane
            for _, _, w in cell} == {float}
    assert exact._rows_kernel is not floats._rows_kernel
    assert exact._pairs_kernel is not floats._pairs_kernel


@pytest.fixture
def float_solves(monkeypatch):
    """Calls of `solve_float` by the modules that solve float rows, and every
    `FieldMatrix` built, from here on."""
    calls = {"solve_float": 0, "FieldMatrix": 0}
    original, init = linalg.solve_float, linalg.FieldMatrix.__init__

    def solve(rows, rhs):
        calls["solve_float"] += 1
        return original(rows, rhs)

    def counting_init(self, entries):
        calls["FieldMatrix"] += 1
        init(self, entries)
    for module in (algebra_module, newton, solvers):
        monkeypatch.setattr(module, "solve_float", solve)
    monkeypatch.setattr(linalg.FieldMatrix, "__init__", counting_init)
    return calls


def test_float_steps_and_inverses_build_no_field_matrix(float_solves):
    H = nc.quaternion_algebra(nc.FLOAT)
    p, target = nc.normalize_poly(H, nc.parse_equation("x^2 - i*x - x*j + k = 0", H), "x")
    trace = nc.newton_solve(p, target, H.one() + H.basis(2))
    assert trace.status == nc.CONVERGED
    assert float_solves == {"solve_float": len(trace.iterates) - 1, "FieldMatrix": 0}
    equation = nc.parse_equation("(i+j)*x*k + k*x*(j+k) = 1+k", H)
    system = nc.normalize_linear(H, [equation], ["x"])
    assert nc.solve_field(system).kind == nc.UNIQUE
    assert float_solves["solve_float"] == len(trace.iterates)
    y = H.element([1.0, 2.0, 0.0, -1.0]).inverse()
    assert (y * H.element([1.0, 2.0, 0.0, -1.0]) - H.one()).is_zero(1e-12)
    nc.TensorOp.from_pairs([(H.basis(1), H.basis(2)), (H.one().scale(3.0), H.one())]).invert()
    assert float_solves == {"solve_float": len(trace.iterates) + 2, "FieldMatrix": 0}
    # the public matrices still are `FieldMatrix`es, solved by row_reduce
    # through the same float solve
    left = nc.TensorOp.from_pairs([(H.basis(1), H.one())]).operator_matrix()
    sol = nc.row_reduce(left, [1.0, 0.0, 0.0, 0.0])
    assert sol.kind == nc.UNIQUE
    assert float_solves == {"solve_float": len(trace.iterates) + 2, "FieldMatrix": 1}


def test_solve_float_is_row_reduce_on_the_same_rows():
    rng = random.Random(7)
    for size in (1, 3, 5):
        for _ in range(20):
            rows = [[rng.choice((0.0, 1.0, -2.5, rng.uniform(-3, 3))) for _ in range(size)]
                    for _ in range(size)]
            rhs = [rng.uniform(-3, 3) for _ in range(size)]
            expected = nc.row_reduce(linalg.FieldMatrix(rows), rhs)
            d, sol = linalg.solve_float([list(r) for r in rows], list(rhs))
            assert d == 1 and sol == expected

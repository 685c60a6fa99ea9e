"""Shared randomized-input builders and independent test-side oracles."""

from fractions import Fraction
from pathlib import Path

import ncalg as nc


def rand_element(alg, rng, span=2):
    return alg.element([rng.randint(-span, span) for _ in range(alg.dim)])


def rand_nonzero(alg, rng, span=2):
    while True:
        x = rand_element(alg, rng, span)
        if not x.is_zero():
            return x


def rand_tensor(alg, rng, span=2):
    n = alg.dim
    return nc.TensorOp(
        alg, [[rng.randint(-span, span) for _ in range(n)] for _ in range(n)]
    )


def quat_conjugate(x):
    """Quaternion conjugate; conj(x) / |x|^2 is the inverse oracle."""
    a, b, c, d = x.coords
    return x.algebra.element([a, -b, -c, -d])


def compose_pairs_oracle(f_pairs, g_pairs):
    """Composition the long way: (u (x) v) o (w (x) z) = (u w) (x) (z v),
    expanded pairwise over the simple-tensor summands."""
    return nc.tensor_from_pairs(
        [(u * w, z * v) for u, v in f_pairs for w, z in g_pairs]
    )


def residuals_are_zero(system, xs):
    return all(r.is_zero() for r in system.residuals(xs))


def matrix_2x2_algebra(scalar_mode=nc.RATIONAL):
    """M2 over the basis 1, h = E11 - E22, e = E12, f = E21 (unit first).

    Central simple, but with zero divisors and the constants 1/2 in ef and fe.
    """
    basis = [((1, 0), (0, 1)), ((1, 0), (0, -1)), ((0, 1), (0, 0)), ((0, 0), (1, 0))]

    def coords(m):
        (a, b), (c, d) = m
        return [Fraction(a + d, 2), Fraction(a - d, 2), b, c]

    def matmul(x, y):
        return tuple(tuple(sum(x[r][t] * y[t][s] for t in range(2)) for s in range(2))
                     for r in range(2))

    constants = [[coords(matmul(x, y)) for y in basis] for x in basis]
    return nc.make_algebra(constants, ["1", "h", "e", "f"], scalar_mode, name="M2")


def algebra_from_data(name, scalar_mode=nc.RATIONAL):
    path = Path(__file__).parent / "data" / f"{name}_algebra.json"
    return nc.algebra_from_json(path.read_text(), scalar_mode)

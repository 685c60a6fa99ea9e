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


def matrix_algebra(m, scalar_mode=nc.RATIONAL):
    """M_m from matrix units, over a unit-first basis: the identity, the
    traceless diagonals h_d = E_dd - E_(d+1)(d+1), then the off-diagonal E_rs.

    M2 has the basis 1, h, e = E12, f = E21.  Central simple, but with zero
    divisors and non-integral constants such as the 1/2 in ef and fe.
    """
    def unit(r, s):
        return tuple(tuple(int((a, b) == (r, s)) for b in range(m)) for a in range(m))

    def difference(x, y):
        return tuple(tuple(a - b for a, b in zip(u, v)) for u, v in zip(x, y))

    off = [(r, s) for r in range(m) for s in range(m) if r != s]
    identity = tuple(tuple(int(a == b) for b in range(m)) for a in range(m))
    basis = ([identity]
             + [difference(unit(d, d), unit(d + 1, d + 1)) for d in range(m - 1)]
             + [unit(r, s) for r, s in off])
    if m == 2:
        names = ["1", "h", "e", "f"]
    else:
        names = (["1"] + [f"h{d + 1}" for d in range(m - 1)]
                 + [f"e{r + 1}{s + 1}" for r, s in off])

    def coords(x):
        # x = a*1 + sum_d h_d (E_dd - E_(d+1)(d+1)) + off-diagonal part
        a = Fraction(sum(x[d][d] for d in range(m)), m)
        hs, h = [], 0
        for d in range(m - 1):
            h = h + x[d][d] - a
            hs.append(h)
        return [a] + hs + [x[r][s] for r, s in off]

    def matmul(x, y):
        return tuple(tuple(sum(x[r][t] * y[t][s] for t in range(m)) for s in range(m))
                     for r in range(m))

    constants = [[coords(matmul(x, y)) for y in basis] for x in basis]
    return nc.make_algebra(constants, names, scalar_mode, name=f"M{m}")


def clifford_algebra(p, q, scalar_mode=nc.RATIONAL):
    """Cl(p,q) over the blades e_S, with S a bitmask of generators (so the
    unit comes first); the first p generators square to +1, the last q to -1."""
    g = p + q
    n = 1 << g
    constants = [[[0] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            # move each generator t of b left past the generators of a above t,
            # then contract the generators the two blades share
            swaps = sum(bin(a >> (t + 1)).count("1") for t in range(g) if b >> t & 1)
            negative_squares = bin(a & b & ~((1 << p) - 1)).count("1")
            constants[a][b][a ^ b] = (-1) ** (swaps + negative_squares)
    names = ["1"] + ["e" + "".join(str(t + 1) for t in range(g) if s >> t & 1)
                     for s in range(1, n)]
    return nc.make_algebra(constants, names, scalar_mode, name=f"Cl({p},{q})")


def algebra_from_data(name, scalar_mode=nc.RATIONAL):
    path = Path(__file__).parent / "data" / f"{name}_algebra.json"
    return nc.algebra_from_json(path.read_text(), scalar_mode)

"""Shared randomized-input builders and independent test-side oracles."""

import copy
import functools
import math
import pickle
import struct
from fractions import Fraction
from pathlib import Path

import pytest

import ncalg as nc
from ncalg import algebra as algebra_module, newton


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


def assert_round_trips(record):
    """A record comes back from pickle and from copy.deepcopy as an equal
    record of its own type."""
    for again in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(again) is type(record) and again == record


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


def scaled_quaternion_algebra(scalar_mode=nc.RATIONAL, scale=(1, 2, 2, 4)):
    """The quaternions over the basis 1, i/s1, j/s2, k/s3 for scale
    (1, s1, s2, s3): by default i/2, j/2, k/4, so that constants such as
    -1/4 and 1/8 occur; odd scales give constants inexact as floats."""
    H = nc.quaternion_algebra()
    basis = [H.basis(t).scale(Fraction(1, scale[t])) for t in range(4)]
    constants = [[[(x * y).coords[k] * scale[k] for k in range(4)] for y in basis]
                 for x in basis]
    return nc.make_algebra(constants, ["1", "u", "v", "w"], scalar_mode)


def near_unit_quaternion_algebra():
    """The float quaternions with unit constants C[0][j][j] = C[j][0][j] =
    1 + 2**-40: within FLOAT_CHECK_TOL of 1, so the unit law accepts them."""
    C = [[list(row) for row in plane] for plane in nc.quaternion_algebra(nc.FLOAT).constants]
    for j in range(4):
        C[0][j][j] = C[j][0][j] = 1 + 2.0 ** -40
    return nc.make_algebra(C, scalar_mode=nc.FLOAT, name="H~1")


#: a basis of H, rows in the old coordinates, whose table is dense with
#: constants up to 50 over _dc = 2, all exact in binary
DENSE_H_BASIS = ((1, 0, 0, 0), (-1, 2, -1, -1), (2, 2, 0, 0), (2, -1, 3, 2))


def dense_quaternion_algebra(scalar_mode=nc.RATIONAL):
    """The quaternions over `DENSE_H_BASIS` (`change_basis`)."""
    return change_basis(nc.quaternion_algebra(scalar_mode), DENSE_H_BASIS)


@functools.lru_cache
def _inverse(P):
    """P^-1 as `Fraction`s, from sympy's exact inverse."""
    import sympy
    return tuple(tuple(Fraction(int(v.p), int(v.q)) for v in row)
                 for row in sympy.Matrix(P).inv().tolist())


def coordinates_in(P, v):
    """The coordinates v P^-1, over the basis whose k-th element has old
    coordinates P[k], of the vector with old coordinates v."""
    inverse, v = _inverse(tuple(map(tuple, P))), [Fraction(c) for c in v]
    return [sum((vi * row[k] for vi, row in zip(v, inverse)), Fraction(0))
            for k in range(len(v))]


def change_basis(alg, P):
    """alg over the basis whose k-th element has old coordinates P[k]; row 0
    must be the unit, which the constructor requires at index 0.  Products
    of the new basis are multiplied out over alg's dense constants and
    written in the new basis exactly (`coordinates_in`), then handed to the
    constructor in alg's scalar mode.  A diagonal P rescales the basis, as
    `scaled_quaternion_algebra` does; a dense one gives dense tables with
    constants off +-1 and a common denominator _dc > 1."""
    assert list(P[0]) == [1] + [0] * (alg.dim - 1), "row 0 of P must be the unit"
    C = [[[Fraction(c) for c in row] for row in plane] for plane in alg.constants]
    constants = [[coordinates_in(P, naive_product(C, a, b)) for b in P] for a in P]
    return nc.make_algebra(constants, alg.basis_names, alg.scalar_mode,
                           name=f"{alg.name}~P")


def opposite(alg):
    """The opposite algebra A^op, x * y = y x in A: C^op[i][j][k] = C[j][i][k],
    over the same basis and in the same scalar mode."""
    C, n = alg.constants, alg.dim
    return nc.make_algebra([[C[j][i] for j in range(n)] for i in range(n)],
                           alg.basis_names, alg.scalar_mode, name=f"{alg.name}^op")


def direct_sum(A, B):
    """A (+) B, with componentwise products, over the basis: the unit
    (1_A, 1_B), A's non-unit units (a, 0), then (0, 1_B), then B's non-unit
    units (0, b); in A's scalar mode.  `summands` splits its elements."""
    m, n = A.dim, B.dim

    def unit(t):
        x, y = [0] * m, [0] * n
        if t == 0:
            x[0] = y[0] = 1
        elif t < m:
            x[t] = 1
        else:
            y[t - m] = 1
        return A.element(x), B.element(y)

    def coords(x, y):
        # (x, y) = x_0 (1_A, 1_B) + sum x_i (a_i, 0) + (y_0 - x_0)(0, 1_B) + ...
        return [*x.coords, y.coords[0] - x.coords[0], *y.coords[1:]]

    units = [unit(t) for t in range(m + n)]
    names = (["1"] + [f"a_{name}" for name in A.basis_names[1:]]
             + ["b_1"] + [f"b_{name}" for name in B.basis_names[1:]])
    return nc.make_algebra([[coords(a * c, b * d) for c, d in units] for a, b in units],
                           names, A.scalar_mode, name=f"{A.name}+{B.name}")


def summands(z, A, B):
    """The components (x, y) of an element z of `direct_sum(A, B)`."""
    c, m = z.coords, A.dim
    return A.element(c[:m]), B.element([c[0] + c[m], *c[m + 1:]])


def algebra_from_data(name, scalar_mode=nc.RATIONAL):
    path = Path(__file__).parent / "data" / f"{name}_algebra.json"
    return nc.algebra_from_json(path.read_text(), scalar_mode)


def constructor_constants(build, scalar_mode=nc.RATIONAL):
    """(build(scalar_mode), the constants handed to its constructor, as
    Fractions): an oracle's table that the algebra's own table never touched."""
    seen = []
    original = nc.Algebra.__init__

    def record(self, constants, *args, **kwargs):
        seen.append(constants)
        original(self, constants, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nc.Algebra, "__init__", record)
        alg = build(scalar_mode)
    raw = [[[Fraction(c) for c in row] for row in plane] for plane in seen[-1]]
    return alg, raw


def naive_product(C, a, b):
    """The product of coordinate vectors a and b over the dense constants C,
    as a plain triple loop."""
    n = len(C)
    out = [Fraction(0)] * n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[k] += a[i] * b[j] * C[i][j][k]
    return out


#: zeros of both signs, extremes, infinities and NaN of both signs
SPECIAL_FLOATS = (0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300,
                  math.inf, -math.inf, math.nan, -math.nan)


def float_bits(values):
    """The IEEE bit patterns of floats, so that zeros and NaNs compare by sign."""
    return [struct.pack("<d", v) for v in values]


# -- operator tensor oracles


def flat(t):
    """A tensor's n*n coordinates, row by row: index i*n + j is e_i (x) e_j."""
    return [v for row in t.coeff for v in row]


def naive_tensor_matrix(alg, coeff):
    """The n^2 x n^2 matrix of g -> f o g over exact `Fraction`s, from the
    dense constants: entry (p*n + q, k*n + l) is
    sum_ij f[i][j] C[i][k][p] C[l][j][q].  f is invertible in A (x) A^op
    exactly when this matrix is."""
    n = alg.dim
    # C[a][b] as its nonzero (index, constant) pairs
    C = [[[(t, Fraction(c)) for t, c in enumerate(row) if c] for row in plane]
         for plane in alg.constants]
    m = [[Fraction(0)] * (n * n) for _ in range(n * n)]
    for i in range(n):
        for j in range(n):
            f = Fraction(coeff[i][j])
            if not f:
                continue
            for k in range(n):
                for p, c in C[i][k]:
                    for l in range(n):
                        for q, d in C[l][j]:
                            m[p * n + q][k * n + l] += f * c * d
    return nc.FieldMatrix(m)


def envelope_table(alg):
    """The sparse table of A (x) A^op, built as the deleted
    `Algebra.envelope()` built it from the algebra's own: cell
    [i*n + j][k*n + l] lists (p*n + q, C[i][k][p] C[l][j][q]), scaled by
    _dc**2, in the order the products arise."""
    n, table = alg.dim, alg._mul_table
    return tuple(
        tuple(tuple((p * n + q, c1 * c2) for p, c1 in table[i][k] for q, c2 in table[l][j])
              for k in range(n) for l in range(n))
        for i in range(n) for j in range(n))


def envelope_compose(alg, f, g):
    """Float f o g, for flat coordinates, by the envelope's product loop."""
    return algebra_module._product(envelope_table(alg), f, g, 0.0)


def envelope_invert(alg, f):
    """The float inverse of flat coordinates f by the envelope route, or
    None: `Element.inverse` in float mode, on the envelope table."""
    table = envelope_table(alg)
    one = [1.0] + [0.0] * (len(table) - 1)
    if all(v == 0 for v in f):
        return None
    sol = nc.row_reduce(nc.FieldMatrix(_left_rows(table, f)), one)
    if sol.kind == nc.INCONSISTENT:
        return None
    y = sol.particular
    for h in (algebra_module._product(table, f, y, 0.0),
              algebra_module._product(table, y, f, 0.0)):
        if not all(abs(a - b) <= algebra_module.FLOAT_CHECK_TOL for a, b in zip(h, one)):
            return None
    return y


def _left_rows(table, xa):
    """Rows of L(a) through a sparse float table, for a's coordinates xa:
    row k, column j sums a_i C[i][j][k] over i ascending."""
    n = len(xa)
    rows = [[0.0] * n for _ in range(n)]
    for i, a in enumerate(xa):
        if a == 0:
            continue
        for j in range(n):
            for k, c in table[i][j]:
                rows[k][j] = rows[k][j] + a * c
    return rows


# -- Newton oracles: the per-monomial loops, every factor rebuilt from its end


def naive_evaluate(p, x):
    """Sum of c0 x c1 ... x cd, monomial by monomial, by `Element` products."""
    total = p.algebra.zero()
    for mono in p.monomials:
        acc = mono[0]
        for c in mono[1:]:
            acc = acc * x * c
        total = total + acc
    return total


def naive_derivative_pairs(p, x0):
    """(left, right) for every x of every monomial, each built afresh."""
    pairs = []
    for mono in p.monomials:
        for t in range(1, len(mono)):
            left = mono[0]
            for c in mono[1:t]:
                left = left * x0 * c
            right = mono[t]
            for c in mono[t + 1:]:
                right = right * x0 * c
            pairs.append((left, right))
    return pairs


def naive_coefficients(alg, pairs):
    """The n*n coefficients of sum_s a_s (x) b_s, zero coordinates skipped."""
    n = alg.dim
    coeff = [[alg.scalar_zero()] * n for _ in range(n)]
    for a, b in pairs:
        for i, ai in enumerate(a.coords):
            if ai == 0:
                continue
            for j, bj in enumerate(b.coords):
                if bj == 0:
                    continue
                coeff[i][j] = coeff[i][j] + ai * bj
    return coeff


@functools.lru_cache
def naive_pair_products(alg):
    """{(i, j): the sorted nonzero (q, p, v) of L(e_i) R(e_j)} from the dense
    constants: v, the e_q-coordinate of e_i (e_p e_j), sums
    C[p][j][m] C[i][m][q] over m ascending, as `Algebra.pair_products`
    sums them, so that float entries agree bit for bit."""
    n, C = alg.dim, alg.constants
    out = {}
    for i in range(n):
        for j in range(n):
            cell = []
            for p in range(n):
                sums = {}
                for m in range(n):
                    if C[p][j][m] == 0:
                        continue
                    for q in range(n):
                        if C[i][m][q] != 0:
                            term = C[p][j][m] * C[i][m][q]
                            sums[q] = sums[q] + term if q in sums else term
                cell += [(q, p, v) for q, v in sums.items() if v != 0]
            out[i, j] = sorted(cell)
    return out


def naive_operator_matrix(alg, coeff):
    """sum_ij f[i][j] L(e_i) R(e_j), summed in row-major (i, j) order."""
    n, pair = alg.dim, naive_pair_products(alg)
    out = [[alg.scalar_zero()] * n for _ in range(n)]
    for i, row in enumerate(coeff):
        for j, v in enumerate(row):
            if v == 0:
                continue
            for q, p, w in pair[i, j]:
                if w == 1:
                    out[q][p] = out[q][p] + v
                elif w == -1:
                    out[q][p] = out[q][p] - v
                else:
                    out[q][p] = out[q][p] + v * w
    return nc.FieldMatrix(out)


def coordinates_exceed_bits(*elements):
    """The bit budget's rule on the coordinates themselves: whether one of
    them has a numerator or denominator above `newton.MAX_BITS` bits."""
    return any(max(c.numerator.bit_length(), c.denominator.bit_length())
               > newton.MAX_BITS for x in elements for c in x.coords)


def naive_newton(p, a, x0, cfg):
    """(iterates, status) of Newton's loop on the oracles above, under
    `newton_solve`'s stopping rules: float norms in float mode, exact
    squared norms in rational mode."""
    exact = p.algebra.scalar_mode == nc.RATIONAL
    tol, factor = cfg.tol, newton._DIVERGENCE_FACTOR
    if exact:
        tol, factor = Fraction(tol) ** 2, Fraction(factor) ** 2
    iterates, x, initial, streak = [], x0, None, 0
    for k in range(cfg.max_iter + 1):
        residual = naive_evaluate(p, x) - a
        if exact and coordinates_exceed_bits(x, residual):
            return iterates, newton.BIT_BUDGET
        norm = residual.norm()
        iterates.append((x, residual, norm))
        if not exact and not math.isfinite(norm):
            return iterates, newton.DIVERGED
        size = residual.norm_squared() if exact else norm
        initial = size if initial is None else initial
        if size < tol:
            return iterates, newton.CONVERGED
        streak = streak + 1 if initial > 0 and size > factor * initial else 0
        if streak >= newton._DIVERGENCE_STREAK:
            return iterates, newton.DIVERGED
        if k == cfg.max_iter:
            break
        coeff = naive_coefficients(p.algebra, naive_derivative_pairs(p, x))
        step = nc.row_reduce(naive_operator_matrix(p.algebra, coeff),
                             [-c for c in residual.coords])
        if step.kind != nc.UNIQUE:
            return iterates, newton.SINGULAR_DERIVATIVE
        x = x + p.algebra.element(step.particular)
    return iterates, newton.MAX_ITERATIONS

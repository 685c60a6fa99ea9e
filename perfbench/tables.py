"""Structure constants for the benchmark's algebras, generated in code.

M_m uses the unit-first matrix-unit basis: the identity, then the diagonal
units E_aa for a >= 1, then the off-diagonal units E_ab.  Cl(p,q) uses the
blade basis ordered by grade, with generators squaring to +1 (the first p)
or -1 (the last q).  `check_tables` builds each table through
`ncalg.make_algebra` (which validates the unit law and associativity) and
compares M_m products with plain matrix multiplication.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def matrix_units(m: int):
    """Basis matrices of M_m in unit-first order, with their names."""
    def unit(a, b):
        return [[1 if (r, c) == (a, b) else 0 for c in range(m)] for r in range(m)]

    mats = [[[1 if r == c else 0 for c in range(m)] for r in range(m)]]
    names = ["1"]
    for a in range(1, m):
        mats.append(unit(a, a))
        names.append(f"E{a}{a}")
    for a in range(m):
        for b in range(m):
            if a != b:
                mats.append(unit(a, b))
                names.append(f"E{a}{b}")
    return mats, names


def matrix_coords(mat, m: int):
    """Coordinates of an m x m matrix in the unit-first basis."""
    d0 = mat[0][0]
    coords = [d0] + [mat[a][a] - d0 for a in range(1, m)]
    coords += [mat[a][b] for a in range(m) for b in range(m) if a != b]
    return coords


def matmul(x, y):
    size = len(x)
    return [[sum(x[r][t] * y[t][c] for t in range(size)) for c in range(size)]
            for r in range(size)]


def matrix_algebra_table(m: int):
    """(constants, basis names) of the full matrix algebra M_m, dim m*m."""
    mats, names = matrix_units(m)
    constants = [[matrix_coords(matmul(x, y), m) for y in mats] for x in mats]
    return constants, names


def clifford_table(p: int, q: int):
    """(constants, basis names) of Cl(p,q), dim 2^(p+q)."""
    gens = p + q
    blades = [frozenset(c) for g in range(gens + 1)
              for c in combinations(range(gens), g)]
    index = {b: k for k, b in enumerate(blades)}
    names = ["1"] + ["e" + "".join(str(g + 1) for g in sorted(b)) for b in blades[1:]]

    def product(a, b):
        # concatenate the generator words, bubble-sort them, count the swaps,
        # and contract each repeated generator into its square
        word = sorted(a) + sorted(b)
        sign = 1
        for i in range(len(word)):
            for j in range(len(word) - 1 - i):
                if word[j] > word[j + 1]:
                    word[j], word[j + 1] = word[j + 1], word[j]
                    sign = -sign
        out = []
        for g in word:
            if out and out[-1] == g:
                out.pop()
                sign *= 1 if g < p else -1
            else:
                out.append(g)
        return index[frozenset(out)], sign

    n = len(blades)
    constants = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i, a in enumerate(blades):
        for j, b in enumerate(blades):
            k, sign = product(a, b)
            constants[i][j][k] = sign
    return constants, names


def two_dim_table(square: int):
    """(constants, names) of R[u]/(u^2 - square): complex (-1) or dual (0)."""
    name = "u" if square else "eps"
    constants = [[[1, 0], [0, 1]], [[0, 1], [square, 0]]]
    return constants, ["1", name]


def quaternion_table():
    """(constants, names) of H: i^2 = j^2 = k^2 = -1, ij = k, jk = i, ki = j."""
    rules = {(1, 2): (3, 1), (2, 3): (1, 1), (3, 1): (2, 1)}
    constants = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for t in range(4):
        constants[0][t][t] = constants[t][0][t] = 1
    for t in range(1, 4):
        constants[t][t][0] = -1
    for (a, b), (c, sign) in rules.items():
        constants[a][b][c] = sign
        constants[b][a][c] = -sign
    return constants, ["1", "i", "j", "k"]


TABLES = {
    "H": quaternion_table,
    "complex": lambda: two_dim_table(-1),
    "dual": lambda: two_dim_table(0),
    "M2": lambda: matrix_algebra_table(2),
    "M3": lambda: matrix_algebra_table(3),
    "M4": lambda: matrix_algebra_table(4),
    "Cl11": lambda: clifford_table(1, 1),
    "Cl30": lambda: clifford_table(3, 0),
}


def table(name: str):
    return TABLES[name]()


def build(name: str, scalar_mode: str):
    """Construct (and so validate) the named algebra through ncalg."""
    import ncalg
    if name == "H":
        return ncalg.quaternion_algebra(scalar_mode)
    constants, names = table(name)
    return ncalg.make_algebra(constants, names, scalar_mode, name=name)


def check_tables():
    """Validate every table except M4 (seconds in exact mode) through
    make_algebra, and M_m against matmul.

    The quaternion table must equal ncalg's built-in one.  Raises ValueError
    on the first mismatch.
    """
    import ncalg
    for name in TABLES:
        if name == "M4":
            continue
        constants, basis = table(name)
        alg = ncalg.make_algebra(constants, basis, ncalg.RATIONAL, name=name)
        if name == "H" and alg != ncalg.quaternion_algebra():
            raise ValueError("H table differs from ncalg's quaternions")
        if name.startswith("M"):
            m = int(name[1:])
            mats, _ = matrix_units(m)
            for x in range(alg.dim):
                for y in range(alg.dim):
                    got = (alg.basis(x) * alg.basis(y)).coords
                    want = [Fraction(v) for v in matrix_coords(matmul(mats[x], mats[y]), m)]
                    if list(got) != want:
                        raise ValueError(f"{name}: e{x}*e{y} disagrees with matmul")
    return True

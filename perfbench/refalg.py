"""Reference arithmetic over structure constants, independent of ncalg.

Elements are coordinate tuples of `Fraction` (or float).  These helpers build
inputs and check outputs; they never call into ncalg, so a defect in ncalg's
multiplication or elimination cannot hide itself.
"""

from __future__ import annotations

from fractions import Fraction


class RefAlgebra:
    """Structure constants C with e_i e_j = sum_k C[i][j][k] e_k."""

    def __init__(self, name, constants, basis_names):
        self.name = name
        self.dim = len(constants)
        self.basis_names = list(basis_names)
        self.sparse = [
            [[(k, Fraction(c)) for k, c in enumerate(constants[i][j]) if c != 0]
             for j in range(self.dim)]
            for i in range(self.dim)
        ]

    def mul(self, x, y):
        out = [0] * self.dim
        for i, a in enumerate(x):
            if a == 0:
                continue
            row = self.sparse[i]
            for j, b in enumerate(y):
                if b == 0:
                    continue
                ab = a * b
                for k, c in row[j]:
                    out[k] += ab * c
        return tuple(out)

    def add(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def sub(self, x, y):
        return tuple(a - b for a, b in zip(x, y))

    def zero(self):
        return (Fraction(0),) * self.dim

    def one(self):
        return (Fraction(1),) + (Fraction(0),) * (self.dim - 1)

    def unit(self, k):
        return tuple(Fraction(1 if t == k else 0) for t in range(self.dim))

    def triple(self, a, x, b):
        return self.mul(self.mul(a, x), b)

    def apply_terms(self, terms, xs):
        """sum over terms (a, b, var) of a * xs[var] * b."""
        total = self.zero()
        for a, b, var in terms:
            total = self.add(total, self.triple(a, xs[var], b))
        return total

    def field_matrix(self, equations, m_unk):
        """The (n*m_eq) x (n*m_unk) matrix of the system, column by column."""
        n = self.dim
        rows = [[Fraction(0)] * (n * m_unk) for _ in range(n * len(equations))]
        for i, (terms, _rhs) in enumerate(equations):
            for j in range(m_unk):
                for q in range(n):
                    xs = [self.zero()] * m_unk
                    xs[j] = self.unit(q)
                    column = self.apply_terms([t for t in terms if t[2] == j], xs)
                    for k, v in enumerate(column):
                        rows[i * n + k][j * n + q] = v
        return rows

    def inverse(self, x):
        """Two-sided inverse of x, or None (by exact elimination on L(x))."""
        n = self.dim
        left = [[self.mul(x, self.unit(q))[k] for q in range(n)] for k in range(n)]
        sol = solve_exact(left, list(self.one()))
        if sol is None:
            return None
        y = tuple(sol)
        return y if self.mul(y, x) == self.one() else None

    def norm(self, x):
        return sum(float(c) * float(c) for c in x) ** 0.5


def rank_exact(rows):
    """Rank of a Fraction matrix by Gaussian elimination."""
    mat = [list(r) for r in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][c] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][c]
        for r in range(rank + 1, len(mat)):
            f = mat[r][c]
            if f != 0:
                f = f / pv
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def solve_exact(rows, rhs):
    """The unique solution of a square nonsingular system, else None."""
    n = len(rows)
    if rank_exact(rows) < n:
        return None
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[pivot] = aug[pivot], aug[c]
        pv = aug[c][c]
        aug[c] = [v / pv for v in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[c])]
    return [aug[r][n] for r in range(n)]


def format_element(coords, basis_names):
    """Equation-grammar text for an exact element, e.g. '(1/2 - 3E01)'."""
    parts = []
    for k, c in enumerate(coords):
        if c == 0:
            continue
        mag = abs(c)
        body = str(mag) if k == 0 else (
            basis_names[k] if mag == 1 else f"{mag}*{basis_names[k]}")
        parts.append(("- " if c < 0 else "+ ") + body)
    if not parts:
        return "0"
    text = " ".join(parts)
    text = text[2:] if text.startswith("+ ") else "-" + text[2:]
    return f"({text})"


def parse_coords(text, basis_names):
    """Read ncalg's canonical exact output ('5/14 - 2/7i + k') back to coords.

    The canonical form is 'coef name' juxtaposed, terms joined by ' + ' or
    ' - '; a bare coefficient is the unit coordinate.  Raises ValueError on
    anything else, which the oracle counts as a wrong answer.
    """
    index = {name: k for k, name in enumerate(basis_names)}
    coords = [Fraction(0)] * len(basis_names)
    if text.strip() == "0":
        return tuple(coords)
    tokens = text.replace(" - ", " -").replace(" + ", " +").split(" ")
    for tok in tokens:
        sign = -1 if tok.startswith("-") else 1
        body = tok.lstrip("+-")
        split = next((p for p, ch in enumerate(body) if ch.isalpha()), len(body))
        coef, name = body[:split], body[split:]
        if name == "":
            k = 0
        elif name in index:
            k = index[name]
        else:
            raise ValueError(f"unknown basis name in {text!r}")
        coords[k] += sign * (Fraction(coef) if coef else Fraction(1))
    return tuple(coords)

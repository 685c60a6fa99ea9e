"""Dense linear algebra, and the one elimination kernel of the package.

`eliminate` is the only Gauss-Jordan sweep: scalar systems (`row_reduce`,
`rank`, `pivot_columns`, hence `Element.inverse`) and algebra-valued systems
(`solvers.nc_row_reduce`) differ only in the zero test, the pivot inverse,
the pivot order and (exact algebra elements only) the fused row update they
hand it.  Exact `Fraction` mode takes the first nonzero entry scanning
top-left to bottom-right so that outputs are reproducible; float mode takes
the largest-magnitude pivot and treats anything at or below `zero_tol` as
zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotInvertible, PivotNotInvertible

DEFAULT_ZERO_TOL = 1e-12

UNIQUE = "unique"
PARAMETRIC = "parametric"
INCONSISTENT = "inconsistent"
UNVERIFIED_ENLARGED = "unverified_enlarged"


class FieldMatrix:
    """Immutable dense matrix with scalar entries (Fraction or float)."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        entries = tuple(tuple(row) for row in entries)
        if not entries:
            raise ValueError("matrix needs at least one row")
        width = len(entries[0])
        if any(len(row) != width for row in entries):
            raise ValueError("ragged matrix rows")
        self.rows = len(entries)
        self.cols = width
        self.entries = entries

    @classmethod
    def identity(cls, n: int, one=Fraction(1), zero=Fraction(0)) -> "FieldMatrix":
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int, zero=Fraction(0)) -> "FieldMatrix":
        return cls([[zero] * cols for _ in range(rows)])

    def __eq__(self, other):
        return (
            isinstance(other, FieldMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        body = "; ".join(" ".join(str(v) for v in row) for row in self.entries)
        return f"FieldMatrix({self.rows}x{self.cols}: {body})"

    def __add__(self, other: "FieldMatrix") -> "FieldMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return FieldMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __matmul__(self, other: "FieldMatrix") -> "FieldMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        cols = other.transpose().entries
        return FieldMatrix(
            [[_dot(row, col) for col in cols] for row in self.entries]
        )

    def scale(self, factor) -> "FieldMatrix":
        return FieldMatrix([[factor * v for v in row] for row in self.entries])

    def transpose(self) -> "FieldMatrix":
        return FieldMatrix(list(zip(*self.entries)))

    def matvec(self, vector) -> list:
        if len(vector) != self.cols:
            raise ValueError("length mismatch")
        return [_dot(row, vector) for row in self.entries]

    def is_exact(self) -> bool:
        return not any(isinstance(v, float) for row in self.entries for v in row)


def _dot(u, v):
    total = None
    for a, b in zip(u, v):
        total = a * b if total is None else total + a * b
    return total


@dataclass
class SolutionSet:
    """Complete description of the solutions of M x = rhs.

    kind is one of UNIQUE / PARAMETRIC / INCONSISTENT.  When consistent, the
    full solution set is `particular + sum_k t_k * nullspace_basis[k]` with the
    parameters t_k (named free_names[k]) ranging over the scalar field.
    """

    kind: str
    particular: list | None
    nullspace_basis: list
    free_names: list

    def assignment(self, params) -> list:
        """Evaluate the family at concrete parameter values."""
        if self.particular is None:
            raise ValueError("inconsistent system has no solutions")
        if len(params) != len(self.nullspace_basis):
            raise ValueError("wrong number of parameters")
        out = list(self.particular)
        for t, vec in zip(params, self.nullspace_basis):
            for pos, v in enumerate(vec):
                out[pos] = out[pos] + t * v
        return out


def eliminate(rows, rhs, zero, is_zero, divider, magnitude=None,
              update=None) -> list:
    """Gauss-Jordan elimination in place; the one sweep behind every solve.

    Entries of `rows` (and of `rhs`, which may be None) are field scalars or
    algebra elements; coefficients act from the left, so a pivot row is
    left-divided by its pivot.  The ring enters only through `zero`, the zero
    test `is_zero`, the pivot inverse `divider(pivot)`, a map v -> pivot^-1 v
    that raises NotInvertible for a nonzero non-unit, the row update, and the
    pivot order.  The update of entry a by factor f and pivot-row entry g is
    a - f*g, written inline unless the ring supplies `update(a, f, g)` (exact
    algebra elements do, as one integer pass).  The pivot is the first
    usable entry down the column when `magnitude` is None (exact mode,
    reproducible), else the usable entry of largest `magnitude`.  A column
    whose nonzero entries are all non-invertible raises PivotNotInvertible.
    Returns the pivots as (row, column) pairs in echelon order.
    """
    m = len(rows)
    pivots = []
    for c in range(len(rows[0])):
        r = len(pivots)
        if r == m:
            break
        candidates = range(r, m)
        if magnitude is not None:
            candidates = sorted(candidates, key=lambda s: -magnitude(rows[s][c]))
        pick, blocked = None, False
        for s in candidates:
            if is_zero(rows[s][c]):
                continue
            try:
                pick = s, divider(rows[s][c])
                break
            except NotInvertible:
                blocked = True
        if pick is None:
            if blocked:
                raise PivotNotInvertible(
                    f"column {c}: nonzero entries exist but none is invertible"
                )
            continue
        s, divide = pick
        rows[r], rows[s] = rows[s], rows[r]
        prow = rows[r] = [divide(v) for v in rows[r]]
        if rhs is not None:
            rhs[r], rhs[s] = rhs[s], rhs[r]
            rhs[r] = divide(rhs[r])
        # skipping exact zeros in the pivot row is a large win on the sparse
        # systems built from structure constants
        support = [u for u, v in enumerate(prow) if v != zero]
        for t in range(m):
            factor = rows[t][c]
            if t == r or is_zero(factor):
                continue
            row = rows[t]
            if update is None:
                for u in support:
                    row[u] = row[u] - factor * prow[u]
                if rhs is not None:
                    rhs[t] = rhs[t] - factor * rhs[r]
            else:
                for u in support:
                    row[u] = update(row[u], factor, prow[u])
                if rhs is not None:
                    rhs[t] = update(rhs[t], factor, rhs[r])
        pivots.append((r, c))
    return pivots


def solution_set(rows, rhs, pivots, zero, one, is_zero) -> tuple:
    """(kind, particular, nullspace, free names) of a system reduced by
    `eliminate`: zero rows with a nonzero right-hand side make it
    inconsistent; otherwise free columns become parameters C0, C1, ..."""
    if any(not is_zero(rhs[s]) for s in range(len(pivots), len(rows))):
        return INCONSISTENT, None, [], []
    cols = len(rows[0])
    particular = [zero] * cols
    for r, c in pivots:
        particular[c] = rhs[r]
    pivot_cols = {c for _, c in pivots}
    nullspace = []
    for fc in range(cols):
        if fc in pivot_cols:
            continue
        vec = [zero] * cols
        vec[fc] = one
        for r, c in pivots:
            vec[c] = -rows[r][fc]
        nullspace.append(vec)
    kind = PARAMETRIC if nullspace else UNIQUE
    return kind, particular, nullspace, [f"C{k}" for k in range(len(nullspace))]


def _scalar_ring(exact: bool, zero_tol: float) -> dict:
    # dividing by the pivot, rather than multiplying by its reciprocal, keeps
    # float results correctly rounded
    ring = dict(divider=lambda p: lambda v: v / p)
    if exact:
        return dict(ring, zero=Fraction(0), is_zero=lambda v: v == 0)
    return dict(ring, zero=0.0, is_zero=lambda v: abs(v) <= zero_tol,
                magnitude=abs)


def row_reduce(matrix: FieldMatrix, rhs, zero_tol: float = DEFAULT_ZERO_TOL) -> SolutionSet:
    """Solve M x = rhs, classifying the solution set completely.

    Inconsistency is a result kind, not an error.  Free columns receive
    generated parameter names C0, C1, ...
    """
    if matrix.rows != len(rhs):
        raise ValueError("rhs length must match row count")
    exact = matrix.is_exact() and not any(isinstance(v, float) for v in rhs)
    ring = _scalar_ring(exact, zero_tol)
    rows, b = [list(r) for r in matrix.entries], list(rhs)
    pivots = eliminate(rows, b, **ring)
    one = Fraction(1) if exact else 1.0
    return SolutionSet(*solution_set(rows, b, pivots, ring["zero"], one, ring["is_zero"]))


def pivot_columns(matrix: FieldMatrix, zero_tol: float = DEFAULT_ZERO_TOL) -> list:
    """Columns that get a pivot; in exact mode these are exactly the columns
    independent of the columns before them."""
    ring = _scalar_ring(matrix.is_exact(), zero_tol)
    return [c for _, c in eliminate([list(r) for r in matrix.entries], None, **ring)]


def rank(matrix: FieldMatrix, zero_tol: float = DEFAULT_ZERO_TOL) -> int:
    """Row rank, using the same pivoting rules as row_reduce."""
    return len(pivot_columns(matrix, zero_tol))

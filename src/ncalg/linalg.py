"""Dense linear algebra, and the one elimination kernel of the package.

`eliminate` is the only Gauss-Jordan sweep: scalar systems (`row_reduce`,
`rank`, `pivot_columns`, hence `Element.inverse`) and algebra-valued systems
(`solvers.nc_row_reduce`) differ only in the zero test, the pivot inverse,
the pivot order and the row step they hand it.  Exact scalars run
fraction-free on integers: rows are cleared of denominators once, every
step keeps them integral (`fraction_free_step`), and one `Fraction` is built
per output coordinate.  Exact mode takes the first nonzero entry scanning
top-left to bottom-right so that outputs are reproducible; float mode takes
the largest-magnitude pivot and treats anything at or below `zero_tol` as
zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotInvertible, PivotNotInvertible

DEFAULT_ZERO_TOL = 1e-12

UNIQUE = "unique"
PARAMETRIC = "parametric"
INCONSISTENT = "inconsistent"
UNVERIFIED_ENLARGED = "unverified_enlarged"

_ZERO, _ONE = Fraction(0), Fraction(1)


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


def eliminate(rows, rhs, is_zero, divider, step, magnitude=None) -> list:
    """Gauss-Jordan elimination in place; the one sweep behind every solve.

    Entries of `rows` (and of `rhs`, which may be None) are scalars or
    algebra elements; coefficients act from the left.  The sweep owns the
    column loop, the pivot search and the row swap.  The ring enters only
    through the zero test `is_zero`, the pivot inverse `divider(pivot)`,
    which returns the map v -> pivot^-1 v or raises NotInvertible for a
    nonzero non-unit, the pivot order, and the row `step(rows, rhs, r, c,
    divide)` that clears column c with the pivot in row r
    (`divide_and_subtract` over a field or an algebra, `fraction_free_step`
    over the integers).  The pivot is the first usable entry down the column
    when `magnitude` is None (exact mode, reproducible), else the usable
    entry of largest `magnitude`.  A column whose nonzero entries are all
    non-invertible raises PivotNotInvertible.  Returns the pivots as
    (row, column) pairs in echelon order.
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
        if rhs is not None:
            rhs[r], rhs[s] = rhs[s], rhs[r]
        step(rows, rhs, r, c, divide)
        pivots.append((r, c))
    return pivots


def divide_and_subtract(zero, is_zero, update=None):
    """The row step over a field or an algebra: left-divide the pivot row by
    its pivot, then subtract f times it from every other row whose entry f
    in the pivot column is nonzero.  The update of entry a by pivot-row
    entry g is a - f*g, written inline unless the ring supplies
    `update(a, f, g)`."""
    def step(rows, rhs, r, c, divide):
        prow = rows[r] = [divide(v) for v in rows[r]]
        if rhs is not None:
            rhs[r] = divide(rhs[r])
        # skipping exact zeros in the pivot row is a large win on the sparse
        # systems built from structure constants
        support = [u for u, v in enumerate(prow) if v != zero]
        for t, row in enumerate(rows):
            factor = row[c]
            if t == r or is_zero(factor):
                continue
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
    return step


def fraction_free_step():
    """The row step of exact elimination on integer rows: one-step
    fraction-free Gauss-Jordan (Bareiss, "Sylvester's identity and multistep
    integer-preserving Gaussian elimination", Math. Comp. 1968).

    With pivot p in row r, column c, and q the previous pivot (1 at first),
    every other row becomes (p*row - f*pivot row) / q, f being its entry in
    column c, rows with f = 0 included.  Every entry is then, up to sign, a
    minor of the input, so each division is exact.  The pivot row is kept,
    and at the end every pivot entry equals the last pivot.  Holds q, so a step serves one
    elimination.
    """
    previous = 1

    def step(rows, rhs, r, c, _divide):
        nonlocal previous
        q, prow = previous, rows[r]
        p = prow[c]
        for t, row in enumerate(rows):
            f = row[c]
            if t == r or (f == 0 and p == q):
                continue
            rows[t] = [(p * a - f * g) // q for a, g in zip(row, prow)]
            if rhs is not None:
                rhs[t] = (p * rhs[t] - f * rhs[r]) // q
        previous = p
    return step


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


def _is_zero_exact(v):
    return v == 0


def _integer_ring() -> dict:
    # a nonzero integer pivot is always usable, and never divided by
    return dict(is_zero=_is_zero_exact, divider=lambda p: None,
                step=fraction_free_step())


def _float_ring(zero_tol: float) -> dict:
    def is_zero(v):
        return abs(v) <= zero_tol

    # dividing by the pivot, rather than multiplying by its reciprocal, keeps
    # float results correctly rounded
    return dict(is_zero=is_zero, divider=lambda p: lambda v: v / p,
                step=divide_and_subtract(0.0, is_zero), magnitude=abs)


def cleared(values):
    """(d, numerators): exact scalars as integers over their least common
    denominator d."""
    pairs = [v.as_integer_ratio() for v in values]
    d = math.lcm(*[q for _, q in pairs])
    if d == 1:
        return 1, [p for p, _ in pairs]
    return d, [p * (d // q) for p, q in pairs]


def solve_integer(rows, rhs) -> SolutionSet:
    """Solve the integer system rows x = rhs exactly, by fraction-free
    elimination in place; the solution set has `Fraction` values."""
    pivots = eliminate(rows, rhs, **_integer_ring())
    found = len(pivots)
    last = rows[found - 1][pivots[-1][1]] if pivots else 1

    def value(v):  # every pivot entry is the last pivot
        return Fraction(v, last) if v else _ZERO

    # the solution set reads only the pivot rows, and every right-hand side
    rows[:found] = [[value(v) for v in row] for row in rows[:found]]
    return SolutionSet(*solution_set(rows, [value(b) for b in rhs], pivots,
                                     _ZERO, _ONE, _is_zero_exact))


def row_reduce(matrix: FieldMatrix, rhs, zero_tol: float = DEFAULT_ZERO_TOL) -> SolutionSet:
    """Solve M x = rhs, classifying the solution set completely.

    Inconsistency is a result kind, not an error.  Free columns receive
    generated parameter names C0, C1, ...  Exact systems are solved on
    integers: each augmented row is scaled by the lcm of its denominators,
    which changes neither the solution set nor the pivots.
    """
    if matrix.rows != len(rhs):
        raise ValueError("rhs length must match row count")
    if matrix.is_exact() and not any(isinstance(v, float) for v in rhs):
        rows = [cleared(row + (b,))[1] for row, b in zip(matrix.entries, rhs)]
        return solve_integer(rows, [row.pop() for row in rows])
    ring = _float_ring(zero_tol)
    rows, b = [list(r) for r in matrix.entries], list(rhs)
    pivots = eliminate(rows, b, **ring)
    return SolutionSet(*solution_set(rows, b, pivots, 0.0, 1.0, ring["is_zero"]))


def pivot_columns(matrix: FieldMatrix, zero_tol: float = DEFAULT_ZERO_TOL) -> list:
    """Columns that get a pivot; in exact mode these are exactly the columns
    independent of the columns before them."""
    if matrix.is_exact():
        rows, ring = [cleared(r)[1] for r in matrix.entries], _integer_ring()
    else:
        rows, ring = [list(r) for r in matrix.entries], _float_ring(zero_tol)
    return [c for _, c in eliminate(rows, None, **ring)]


def rank(matrix: FieldMatrix, zero_tol: float = DEFAULT_ZERO_TOL) -> int:
    """Row rank, using the same pivoting rules as row_reduce."""
    return len(pivot_columns(matrix, zero_tol))

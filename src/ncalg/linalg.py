"""Dense linear algebra, and the one elimination kernel of the package.

`eliminate` is the only elimination sweep: scalar systems (`row_reduce`,
`rank`, `pivot_columns`, the field route, Newton steps, tensor inverses and
float element inverses) and algebra-valued systems
(`solvers.nc_row_reduce`) differ only in the zero test, the pivot inverse,
the pivot order and the row step they hand it.  Every step clears only
the rows below its pivot, and one back-substitution after the sweep then
gives the reduced row echelon form that Gauss-Jordan would give; the
package runs no other elimination order.  Exact scalars run fraction-free
on integers: rows are cleared of denominators once, every step keeps them
integral (`fraction_free_step`, then `back_substitute`), and one
`Fraction` is built per output coordinate.  Floats and algebra elements
divide the pivot row by its pivot (`divided_step`, then
`divided_back_substitute`).  Exact mode takes the first nonzero entry
scanning top-left to bottom-right so that outputs are reproducible; float
mode takes the largest-magnitude pivot and treats anything at or below
`DEFAULT_ZERO_TOL` as zero.  Plain rows of either mode
have one solve each, `solve_integer` and `solve_float`, which return the
solution set over one denominator; the field route, Newton steps and
inverses hand them the rows they sum, and `row_reduce` the rows of a
public `FieldMatrix`.
"""

from __future__ import annotations

import math
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

    def __matmul__(self, other: "FieldMatrix") -> "FieldMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        cols = other.transpose().entries
        return FieldMatrix(
            [[_dot(row, col) for col in cols] for row in self.entries]
        )

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


class _Record:
    """Base of the package's plain records, which name their fields in
    `__slots__` in constructor order: `==` only between records of one type
    with equal fields, the `Name(field=value, ...)` repr, and pickling and
    deep copies through the constructor.  Records are mutable and
    unhashable unless a subclass says otherwise."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):  # defining it leaves __hash__ None
        same = other.__class__ is self.__class__
        return self._fields() == other._fields() if same else NotImplemented

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), self._fields()


class SolutionSet(_Record):
    """Complete description of the solutions of M x = rhs.

    kind is one of UNIQUE / PARAMETRIC / INCONSISTENT.  When consistent, the
    full solution set is `particular + sum_k nullspace_basis[k] * t_k`, the
    parameters t_k being named free_names[k].  Over the scalars (`row_reduce`)
    the t_k range over the field; over an algebra (`solvers.nc_row_reduce`,
    coefficients on the left of the unknowns) they range over the whole
    algebra and multiply their direction entrywise from the right.
    """

    __slots__ = ("kind", "particular", "nullspace_basis", "free_names")

    def __init__(self, kind, particular, nullspace_basis, free_names):
        self.kind = kind
        self.particular = particular
        self.nullspace_basis = nullspace_basis
        self.free_names = free_names

    def assignment(self, params) -> list:
        """Evaluate the family at concrete parameter values, each t
        multiplying its direction from the right as v * t: for scalars the
        same value as t * v, for algebra-valued constants the right
        multiplication that the enlarged family needs."""
        if self.particular is None:
            raise ValueError("inconsistent system has no solutions")
        if len(params) != len(self.nullspace_basis):
            raise ValueError("wrong number of parameters")
        out = list(self.particular)
        for t, vec in zip(params, self.nullspace_basis):
            for pos, v in enumerate(vec):
                out[pos] = out[pos] + v * t
        return out


def eliminate(rows, rhs, is_zero, divider, step, magnitude=None) -> list:
    """Elimination in place; the one sweep behind every solve.

    Entries of `rows` and `rhs` are scalars or algebra elements;
    coefficients act from the left.  The sweep owns the column loop, the
    pivot search and the row swap.  The ring enters only through the zero
    test `is_zero`, the pivot inverse `divider(pivot)`, which returns the
    map v -> pivot^-1 v or raises NotInvertible for a nonzero non-unit, the
    pivot order, and the row `step(rows, rhs, r, c, divide)` that clears
    column c with the pivot in row r, in the rows below only: over the
    integers `fraction_free_step`, over floats and algebras `divided_step`.
    Each has one back-substitution to run after the sweep
    (`back_substitute`, `divided_back_substitute`), and together they give
    the reduced row echelon form.  The pivot is the first usable entry
    down the column when `magnitude` is None (exact mode, reproducible),
    else the usable entry of largest `magnitude`.  A column whose nonzero
    entries are all non-invertible raises PivotNotInvertible.  Returns the
    pivots as (row, column) pairs in echelon order.
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
        rows[r], rows[s], rhs[r], rhs[s] = rows[s], rows[r], rhs[s], rhs[r]
        step(rows, rhs, r, c, divide)
        pivots.append((r, c))
    return pivots


def divided_step(zero, is_zero, update=None):
    """The row step over floats or an algebra: left-divide the pivot row's
    nonzero entries, all in column c or right of it, then clear column c
    in the rows below (`_subtract_pivot_row`).  The rows at or above the
    pivot row are what `divided_back_substitute` reads."""
    def step(rows, rhs, r, c, divide):
        prow = rows[r]
        # skipping exact zeros in the pivot row is a large win on the sparse
        # systems built from structure constants
        support = [u for u in range(c, len(prow)) if prow[u] != zero]
        for u in support:
            prow[u] = divide(prow[u])
        rhs[r] = divide(rhs[r])
        _subtract_pivot_row(rows, rhs, r, c, range(r + 1, len(rows)), support,
                            is_zero, update)
    return step


def divided_back_substitute(rows, rhs, pivots, zero, is_zero, update=None):
    """Turn the pivot rows left by `divided_step` in place into the reduced
    rows: from the last pivot up, clear its column in the rows above
    (`_subtract_pivot_row`) on the right-hand side and on the free columns
    where the pivot row is nonzero, which are all that `solution_set`
    reads; the pivot row is final by then, since the later pivots were
    cleared from it first.
    `back_substitute` is the same over the integers, on rows that are not
    divided by their pivots."""
    cols = {c for _, c in pivots}
    free = [u for u in range(len(rows[0])) if u not in cols]
    for r, c in reversed(pivots[1:]):  # the first pivot has no rows above
        prow = rows[r]
        # square unique systems, as in Newton steps, have no free columns
        support = [u for u in free if prow[u] != zero] if free else []
        _subtract_pivot_row(rows, rhs, r, c, range(r), support, is_zero, update)


def _subtract_pivot_row(rows, rhs, r, c, targets, support, is_zero, update):
    """The one row update of divided rows: each target row whose entry f in
    column c is nonzero takes f times the pivot row r (whose entry there is
    1) off its `support` columns and its right-hand side.  Column c itself
    is left as it is unless it is in `support`: no later step and no
    `solution_set` reads it.  The update of entry a by pivot-row entry g is
    a - f*g, written inline unless the ring supplies `update(a, f, g)`."""
    prow, b = rows[r], rhs[r]
    for t in targets:
        row = rows[t]
        f = row[c]
        if is_zero(f):
            continue
        if update is None:
            for u in support:
                row[u] = row[u] - f * prow[u]
            rhs[t] = rhs[t] - f * b
        else:
            for u in support:
                row[u] = update(row[u], f, prow[u])
            rhs[t] = update(rhs[t], f, b)


def fraction_free_step():
    """The row step of exact elimination on integer rows: one-step
    fraction-free forward elimination (Bareiss, "Sylvester's identity and
    multistep integer-preserving Gaussian elimination", Math. Comp. 1968).

    With pivot p in row r, column c, and q the previous pivot (1 at first),
    every row t > r becomes (p*row - f*pivot row) / q from column c on, f
    being its entry in column c, rows with f = 0 included; entries left of
    c are already 0.  Every entry is then, up to sign, a minor of the
    input, so each division is exact.  Rows at or above r are kept: these
    pivot rows are what `back_substitute` reads.  Holds q, so a step serves
    one elimination.
    """
    previous = 1

    def step(rows, rhs, r, c, _divide):
        nonlocal previous
        q, prow = previous, rows[r]
        p, tail = prow[c], prow[c:]
        for t in range(r + 1, len(rows)):
            row = rows[t]
            f = row[c]
            if f == 0 and p == q:
                continue
            row[c:] = [(p * a - f * g) // q for a, g in zip(row[c:], tail)]
            rhs[t] = (p * rhs[t] - f * rhs[r]) // q
        previous = p
    return step


def back_substitute(rows, rhs, pivots) -> int:
    """The last pivot d, after turning the pivot rows U_k of
    `fraction_free_step` in place into R_k = d * (reduced row echelon
    form), what fraction-free Gauss-Jordan would have left.  From the last
    row up, R_k = (d*U_k - sum_{j>k} U_k[c_j] * R_j) / p_k with p_k =
    U_k[c_k], on the free columns right of c_k and on the right-hand side;
    each division is exact, since R_k is integral.  Pivot columns become d
    and 0."""
    cols = [c for _, c in pivots]
    d = rows[len(cols) - 1][cols[-1]]
    pivot_cols = set(cols)
    free = [u for u in range(len(rows[0])) if u not in pivot_cols]
    for k in range(len(cols) - 2, -1, -1):
        row, c = rows[k], cols[k]
        tail = [u for u in free if u > c]
        values, b = [d * row[u] for u in tail], d * rhs[k]
        for j in range(k + 1, len(cols)):
            f = row[cols[j]]
            if f:
                row[cols[j]] = 0
                b -= f * rhs[j]
                if tail:
                    later = rows[j]
                    values = [v - f * later[u] for v, u in zip(values, tail)]
        p, row[c] = row[c], d
        rhs[k] = b // p
        for u, v in zip(tail, values):
            row[u] = v // p
    return d


def solution_set(rows, rhs, pivots, zero, one, is_zero) -> SolutionSet:
    """The solution set of a system reduced by `eliminate`: zero rows with a
    nonzero right-hand side make it inconsistent; otherwise free columns
    become parameters C0, C1, ..."""
    if any(not is_zero(rhs[s]) for s in range(len(pivots), len(rows))):
        return SolutionSet(INCONSISTENT, None, [], [])
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
    return SolutionSet(kind, particular, nullspace,
                       [f"C{k}" for k in range(len(nullspace))])


def _is_zero_exact(v):
    return v == 0


def _integer_ring() -> dict:
    # a nonzero integer pivot is always usable, and never divided by
    return dict(is_zero=_is_zero_exact, divider=lambda p: None,
                step=fraction_free_step())


def _is_zero_float(v):
    return abs(v) <= DEFAULT_ZERO_TOL


# dividing by the pivot, rather than multiplying by its reciprocal, keeps
# float results correctly rounded; the step holds no state, so one ring
# serves every float elimination
_FLOAT_RING = dict(is_zero=_is_zero_float, divider=lambda p: lambda v: v / p,
                   step=divided_step(0.0, _is_zero_float), magnitude=abs)


def cleared(values):
    """(d, numerators): exact scalars as integers over their least common
    denominator d, with gcd(d, *numerators) = 1 for reduced inputs such as
    `Fraction`s, the pair that stores an exact `algebra.Element`."""
    pairs = [v.as_integer_ratio() for v in values]
    d = math.lcm(*[q for _, q in pairs])
    if d == 1:
        return 1, [p for p, _ in pairs]
    return d, [p * (d // q) for p, q in pairs]


def solve_integer(rows, rhs) -> tuple:
    """(d, S): the solution set S of the integer system rows x = rhs by
    fraction-free forward elimination and one `back_substitute`, in place,
    its values integers over one d > 0, the last pivot up to sign (every
    pivot entry ends equal to it).  The one reader of that elimination:
    `row_reduce` builds `Fraction`s S/d, while the field route, the exact
    Newton step and `algebra.solve_inverse` keep the integers over d."""
    pivots = eliminate(rows, rhs, **_integer_ring())
    d = back_substitute(rows, rhs, pivots) if pivots else 1
    if d < 0:  # the pivot rows and right-hand sides over -d solve alike
        d, rhs = -d, [-b for b in rhs]
        rows[:len(pivots)] = [[-v for v in row] for row in rows[:len(pivots)]]
    return d, solution_set(rows, rhs, pivots, 0, d, _is_zero_exact)


def solve_float(rows, rhs) -> tuple:
    """(1, S): the solution set S of the float system rows x = rhs by
    forward elimination with the largest pivot down each column and one
    `divided_back_substitute`, in place, its values floats over 1 as the
    float stored pairs are: the float twin of `solve_integer`, which the
    field route, the Newton step and `algebra.solve_inverse` call on the
    rows they sum, and `row_reduce` on a float matrix's.  This order is
    backward stable up to the growth factor, which Gauss-Jordan is not
    (Higham, "Accuracy and Stability of Numerical Algorithms", 2002, 9.3
    and 14.4)."""
    pivots = eliminate(rows, rhs, **_FLOAT_RING)
    divided_back_substitute(rows, rhs, pivots, 0.0, _is_zero_float)
    return 1, solution_set(rows, rhs, pivots, 0.0, 1.0, _is_zero_float)


def row_reduce(matrix: FieldMatrix, rhs) -> SolutionSet:
    """Solve M x = rhs, classifying the solution set completely.

    Inconsistency is a result kind, not an error.  Free columns receive
    generated parameter names C0, C1, ...  Exact systems are solved on
    integers by `solve_integer`: each augmented row is scaled by the lcm of
    its denominators, which changes neither the solution set nor the
    pivots, and one `Fraction` is built per value of the solution set.
    Float systems are solved on copies of their rows by `solve_float`.
    Both eliminate forward and back-substitute once.
    """
    if matrix.rows != len(rhs):
        raise ValueError("rhs length must match row count")
    if matrix.is_exact() and not any(isinstance(v, float) for v in rhs):
        rows = [cleared(row + (b,))[1] for row, b in zip(matrix.entries, rhs)]
        d, sol = solve_integer(rows, [row.pop() for row in rows])
        if sol.particular is not None:
            sol.particular = [Fraction(v, d) for v in sol.particular]
            sol.nullspace_basis = [[Fraction(v, d) for v in vec]
                                   for vec in sol.nullspace_basis]
        return sol
    return solve_float([list(r) for r in matrix.entries], list(rhs))[1]


def pivot_columns(matrix: FieldMatrix) -> list:
    """Columns that get a pivot; in exact mode these are exactly the columns
    independent of the columns before them."""
    if matrix.is_exact():
        rows, ring = [cleared(r)[1] for r in matrix.entries], _integer_ring()
    else:
        rows, ring = [list(r) for r in matrix.entries], _FLOAT_RING
    return [c for _, c in eliminate(rows, [0] * len(rows), **ring)]


def rank(matrix: FieldMatrix) -> int:
    """Row rank, using the same pivoting rules as row_reduce."""
    return len(pivot_columns(matrix))

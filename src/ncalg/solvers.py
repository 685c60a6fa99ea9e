"""Solvers for systems  sum_s a_s x^j b_s = c  over an algebra.

Two independent routes are implemented and cross-checked:

* solve_field vectorizes every operator block into its field-level matrix,
  solves one big scalar system, and maps the solution set back to elements.

* solve_richardson right-multiplies every equation by every basis unit,
  obtaining an enlarged algebra-valued linear system in the unknowns
  x^j e_p, and runs Gauss-Jordan elimination with left division by pivots.
  The sweep is `linalg.eliminate`, the same one that solve_field runs over
  the scalars; only the entries and the pivot inverse (`Element.inverse`)
  differ.  In exact mode the sweep runs on `ClearedRing` entries, with
  `ClearedRing.update` as the row update, and `Element`s are built only
  when the solution set is read.
  A solution of the enlarged system need NOT solve the original equation
  when the operator is singular, so every candidate is verified by
  substitution before it is reported; a failing candidate is returned with
  kind UNVERIFIED_ENLARGED instead of being silently trusted.

Quasideterminants are a standalone operation, computed by their definition
through the same elimination.  They are not a third solve route: for an
invertible enlarged matrix the Cramer-style formula built from them is its
inverse, which `nc_row_reduce` already applies.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (Algebra, ClearedRing, Element, RATIONAL, element_from_json,
                      element_to_json)
from .errors import AlgebraMismatch, PivotNotInvertible, QuasideterminantUndefined
from .linalg import (
    DEFAULT_ZERO_TOL,
    FieldMatrix,
    INCONSISTENT,
    PARAMETRIC,
    UNIQUE,
    UNVERIFIED_ENLARGED,
    divide_and_subtract,
    eliminate,
    pivot_columns,
    row_reduce,
    solution_set,
)
from .tensor import TensorOp

#: float-mode tolerance for accepting a residual as zero
RESIDUAL_TOL = 1e-9


class SylvesterSystem:
    """m_eq equations in m_unk unknowns; ops[i][j] is the operator acting on
    unknown j in equation i, rhs[i] the equation's right-hand element."""

    __slots__ = ("algebra", "m_eq", "m_unk", "ops", "rhs")

    def __init__(self, algebra: Algebra, ops, rhs):
        ops = tuple(tuple(row) for row in ops)
        rhs = tuple(rhs)
        if not ops or not ops[0]:
            raise ValueError("need at least one equation and one unknown")
        m_unk = len(ops[0])
        if any(len(row) != m_unk for row in ops):
            raise ValueError("ragged operator grid")
        if len(rhs) != len(ops):
            raise ValueError("one right-hand side per equation")
        for row in ops:
            for op in row:
                if op.algebra != algebra:
                    raise AlgebraMismatch("operator from a different algebra")
        for b in rhs:
            if b.algebra != algebra:
                raise AlgebraMismatch("right-hand side from a different algebra")
        self.algebra = algebra
        self.m_eq = len(ops)
        self.m_unk = m_unk
        self.ops = ops
        self.rhs = rhs

    @classmethod
    def from_terms(cls, algebra: Algebra, equations, m_unk: int) -> "SylvesterSystem":
        """equations: list of (terms, rhs) with terms = [(left, right, var), ...]."""
        ops = []
        for terms, _rhs in equations:
            for _a, _b, var in terms:
                if not 0 <= var < m_unk:
                    raise ValueError(
                        f"term references unknown {var}, system has {m_unk}"
                    )
            row = []
            for j in range(m_unk):
                pairs = [(a, b) for a, b, var in terms if var == j]
                row.append(TensorOp.from_pairs(pairs) if pairs
                           else TensorOp.zero(algebra))
            ops.append(row)
        return cls(algebra, ops, [rhs for _terms, rhs in equations])

    def apply_ops(self, xs) -> list:
        """The left-hand sides evaluated at xs (no right-hand side involved)."""
        if len(xs) != self.m_unk:
            raise ValueError("one value per unknown expected")
        out = []
        for row in self.ops:
            total = self.algebra.zero()
            for op, x in zip(row, xs):
                total = total + op.apply(x)
            out.append(total)
        return out

    def residuals(self, xs) -> list:
        """Per-equation lhs(xs) - rhs, recomputed from scratch."""
        return [v - b for v, b in zip(self.apply_ops(xs), self.rhs)]

    def to_json(self) -> dict:
        equations = []
        for row, b in zip(self.ops, self.rhs):
            terms = []
            for j, op in enumerate(row):
                for a, c in op.simple_pairs():
                    terms.append({
                        "left": element_to_json(a),
                        "right": element_to_json(c),
                        "var": j,
                    })
            equations.append({"terms": terms, "rhs": element_to_json(b)})
        return {"unknowns": self.m_unk, "equations": equations}

    @classmethod
    def from_json(cls, algebra: Algebra, data) -> "SylvesterSystem":
        m_unk = data["unknowns"]
        equations = []
        for eq in data["equations"]:
            terms = [
                (
                    element_from_json(algebra, t["left"]),
                    element_from_json(algebra, t["right"]),
                    t["var"],
                )
                for t in eq["terms"]
            ]
            equations.append((terms, element_from_json(algebra, eq["rhs"])))
        return cls.from_terms(algebra, equations, m_unk)


@dataclass
class RichardsonSystem:
    """The enlarged algebra-valued system.

    Row (i, l) is equation i of the original system right-multiplied by basis
    unit e_l; column (j, p) carries the unknown x^j e_p.  Rows and columns are
    stored blocked, index = outer * dim + inner.
    """

    algebra: Algebra
    m_eq: int
    m_unk: int
    amat: list        # (m_eq*n) x (m_unk*n) matrix of Elements
    brhs: list        # m_eq*n Elements, entry (i, l) = rhs[i] * e_l


@dataclass
class NCSolutionSet:
    """Solutions of an algebra-valued linear system M x = b (coefficients on
    the left of the unknowns).

    When consistent, the full set is particular + sum_k nullspace[k] * c_k
    where each free constant c_k ranges over the whole algebra and multiplies
    its direction vector entrywise FROM THE RIGHT.
    """

    kind: str
    particular: list | None
    nullspace: list
    free_names: list


@dataclass
class AlgebraSolution:
    """Result of a system solve, mapped back to algebra elements.

    For kinds UNIQUE and PARAMETRIC, x is a verified solution and the family
    x + sum_k t_k * nullspace[k] (scalar parameters t_k) consists of verified
    solutions.  UNVERIFIED_ENLARGED means the enlarged system produced the
    candidate x but substitution into the original system left the recorded
    residuals; this happens exactly when the operator is singular and the
    enlarged solution does not project onto a true solution.
    """

    kind: str
    x: list | None
    nullspace: list
    free_names: list
    residuals: list | None

    def assignment(self, params) -> list:
        if self.x is None:
            raise ValueError("no solution to evaluate")
        if len(params) != len(self.nullspace):
            raise ValueError("wrong number of parameters")
        out = list(self.x)
        for t, direction in zip(params, self.nullspace):
            out = [xv + t * dv for xv, dv in zip(out, direction)]
        return out


def residuals_vanish(residuals) -> bool:
    """Whether every residual is zero: exactly in rational mode, within
    RESIDUAL_TOL per coordinate in float mode.  The one acceptance rule for
    a solution, used by the solvers and by `ncalg check`."""
    tol = 0.0 if residuals[0].algebra.scalar_mode == RATIONAL else RESIDUAL_TOL
    return all(r.is_zero(tol) for r in residuals)


# ---------------------------------------------------------------------------
# field-level route
# ---------------------------------------------------------------------------


def solve_field(system: SylvesterSystem) -> AlgebraSolution:
    """Vectorize the whole system over the scalar field and classify fully.

    Stacks the operator matrix of every block into an (n*m_eq) x (n*m_unk)
    scalar system, solves it, and maps the scalar solution set back to
    elements.  Every particular solution is verified by substitution.
    """
    alg = system.algebra
    n = alg.dim
    blocks = [[op.operator_matrix() for op in row] for row in system.ops]
    big = []
    for i in range(system.m_eq):
        for r in range(n):
            stacked = []
            for j in range(system.m_unk):
                stacked.extend(blocks[i][j].entries[r])
            big.append(stacked)
    rhs = []
    for b in system.rhs:
        rhs.extend(b.coords)

    sol = row_reduce(FieldMatrix(big), rhs)
    if sol.kind == INCONSISTENT:
        return AlgebraSolution(INCONSISTENT, None, [], [], None)

    def chunks(vector):
        return [
            Element(alg, vector[j * n:(j + 1) * n], _validated=True)
            for j in range(system.m_unk)
        ]

    xs = chunks(sol.particular)
    nullspace = [tuple(chunks(vec)) for vec in sol.nullspace_basis]
    residuals = system.residuals(xs)
    return AlgebraSolution(sol.kind, xs, nullspace, list(sol.free_names), residuals)


# ---------------------------------------------------------------------------
# enlarged-system route
# ---------------------------------------------------------------------------


def build_richardson(system: SylvesterSystem) -> RichardsonSystem:
    """Right-multiply every equation by every basis unit.

    Multiplying equation i by e_l on the right composes each of its operators
    f with x -> x e_l, which in A (x) A^op is the product g = (1 (x) e_l) f.
    As g(x) = sum_p (sum_u g[u][p] e_u) (x e_p), column p of g's coefficient
    matrix is the coefficient of the unknown x^j e_p in row (i, l).
    """
    alg = system.algebra
    n = alg.dim
    env = alg.envelope()
    amat = []
    brhs = []
    for i in range(system.m_eq):
        for l in range(n):
            row = []
            for op in system.ops[i]:
                g = (env.basis(l) * op.element).coords
                row.extend(Element(alg, g[p::n], _validated=True) for p in range(n))
            amat.append(row)
            brhs.append(system.rhs[i] * alg.basis(l))
    return RichardsonSystem(alg, system.m_eq, system.m_unk, amat, brhs)


def nc_row_reduce(amat, brhs) -> NCSolutionSet:
    """Gauss-Jordan elimination over the algebra, dividing rows on the left
    by their pivots.

    This is `linalg.eliminate` with `Element.inverse` as the pivot inverse.
    In exact mode the pivot is the first invertible entry scanning down the
    column, and the sweep runs on `ClearedRing` entries: every entry is
    cleared to integer numerators once, the pivot divisions and the row
    updates a - f*g (`ClearedRing.update`) stay on integers, and
    `Element`s are built again only for the rows and right-hand sides that
    the solution set reads.  In float mode the pivot is the invertible entry
    of largest norm.  A column whose nonzero entries are all non-invertible
    raises PivotNotInvertible (only possible outside division algebras).
    """
    if not amat:
        raise ValueError("empty system")
    alg = brhs[0].algebra
    zero, one = alg.zero(), alg.one()
    if alg.scalar_mode != RATIONAL:
        rows, rhs = [list(r) for r in amat], list(brhs)

        def is_zero(e):
            return e.is_zero(DEFAULT_ZERO_TOL)

        pivots = eliminate(rows, rhs, is_zero, lambda pivot: pivot.inverse().__mul__,
                           divide_and_subtract(zero, is_zero), Element.norm)
        return NCSolutionSet(*solution_set(rows, rhs, pivots, zero, one, is_zero))
    ring = ClearedRing(alg)
    rows = [[ring.clear(e) for e in row] for row in amat]
    rhs = [ring.clear(b) for b in brhs]
    pivots = eliminate(rows, rhs, ring.is_zero, ring.divider,
                       divide_and_subtract(ring.zero, ring.is_zero, ring.update))
    # the solution set reads only the pivot rows, and every right-hand side
    rows[:len(pivots)] = [[ring.element(e) for e in row] for row in rows[:len(pivots)]]
    rhs = [ring.element(b) for b in rhs]
    return NCSolutionSet(*solution_set(rows, rhs, pivots, zero, one, Element.is_zero))


# ---------------------------------------------------------------------------
# quasideterminants
# ---------------------------------------------------------------------------


def quasideterminant(mat, i: int, j: int) -> Element:
    """The (i, j) quasideterminant of a square matrix over the algebra.

    By definition (Gelfand, Gelfand, Retakh and Wilson, "Quasideterminants",
    2005, 1.2) it is m_ij - r (M^ij)^-1 c, with r row i without column j,
    c column j without row i and M^ij the minor without row i and column j.
    The product (M^ij)^-1 c is one elimination, `nc_row_reduce` on the minor.
    For commuting entries this equals det(M) / det(M^ij); for an invertible
    M it is the inverse of the (j, i) entry of M^-1.  Raises
    QuasideterminantUndefined when that elimination does not find a unique
    solution, or hits a column whose nonzero entries are all zero divisors.
    """
    size = len(mat)
    if any(len(row) != size for row in mat):
        raise ValueError("quasideterminant needs a square matrix")
    if not (0 <= i < size and 0 <= j < size):
        raise ValueError("index out of range")
    if size == 1:
        return mat[0][0]
    rows = [r for r in range(size) if r != i]
    cols = [c for c in range(size) if c != j]
    try:
        sol = nc_row_reduce([[mat[r][c] for c in cols] for r in rows],
                            [mat[r][j] for r in rows])
    except PivotNotInvertible as exc:
        raise QuasideterminantUndefined(
            f"elimination on the minor at ({i}, {j}) is blocked: {exc}") from exc
    if sol.kind != UNIQUE:
        raise QuasideterminantUndefined(f"the minor at ({i}, {j}) is singular")
    value = mat[i][j]
    for c, y in zip(cols, sol.particular):
        value = value - mat[i][c] * y
    return value


# ---------------------------------------------------------------------------
# the enlarged-system solver
# ---------------------------------------------------------------------------


def solve_richardson(system: SylvesterSystem) -> AlgebraSolution:
    """Solve through the enlarged algebra-valued system.

    The enlarged unknowns x^j e_p are treated as independent during
    elimination (that is the method); only extraction uses p = 0.  The
    extracted candidate is ALWAYS verified by substitution into the original
    system: a failing candidate comes back as UNVERIFIED_ENLARGED together
    with its residuals.
    """
    alg = system.algebra
    n = alg.dim
    rich = build_richardson(system)
    enlarged = nc_row_reduce(rich.amat, rich.brhs)

    if enlarged.kind == INCONSISTENT:
        # any true solution would embed into the enlarged system, so an
        # inconsistent enlargement rules the original out as well
        return AlgebraSolution(INCONSISTENT, None, [], [], None)

    xs = [enlarged.particular[j * n] for j in range(system.m_unk)]
    residuals = system.residuals(xs)
    if not residuals_vanish(residuals):
        return AlgebraSolution(UNVERIFIED_ENLARGED, xs, [], [], residuals)

    extracted = [
        [vec[j * n] for j in range(system.m_unk)]
        for vec in enlarged.nullspace
    ]
    tol = 0.0 if alg.scalar_mode == RATIONAL else DEFAULT_ZERO_TOL
    nonzero = [d for d in extracted if not all(e.is_zero(tol) for e in d)]
    if not nonzero:
        # every other enlarged solution projects onto the same candidate,
        # so the original solution is unique
        return AlgebraSolution(UNIQUE, xs, [], [], residuals)

    kernel_dirs = [d for d in nonzero if residuals_vanish(system.apply_ops(d))]
    # a maximal independent subset: the pivot columns of the directions
    independent = []
    if kernel_dirs:
        columns = FieldMatrix(list(zip(*(
            [c for e in d for c in e.coords] for d in kernel_dirs))))
        independent = [kernel_dirs[c] for c in pivot_columns(columns)]
    names = [f"C{k}" for k in range(len(independent))]
    return AlgebraSolution(
        PARAMETRIC, xs, [tuple(d) for d in independent], names, residuals
    )

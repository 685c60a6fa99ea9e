"""Solvers for systems  sum_s a_s x^j b_s = c  over an algebra.

Two independent routes are implemented and cross-checked:

* solve_field vectorizes every operator block into its scalar rows, solves
  one big scalar system, and maps the solution set back to elements.

* solve_richardson right-multiplies every equation by every basis unit,
  obtaining an enlarged algebra-valued linear system in the unknowns
  x^j e_p, and eliminates with left division by pivots.  The sweep is
  `linalg.eliminate`, the same one that solve_field runs over the scalars;
  only the entries, the pivot inverse and the row update differ.  In both
  scalar modes both routes clear only below each pivot and back-substitute
  once.  Exact entries are `Element`s stored as cleared
  integer pairs, so the enlarged entries, the pivot inverses and the row
  updates stay on integers, and `Fraction`s are built only where the
  solution's coordinates are read.  An exact pivot inverse runs no inner
  elimination: it is read off the pivot's characteristic polynomial
  (`Element._inverse`).
  A solution of the enlarged system need NOT solve the original equation
  when the operator is singular (outside central simple algebras, not
  always even when it is invertible), so every candidate is verified by
  substitution before it is reported; a failing candidate is returned with
  kind UNVERIFIED_ENLARGED instead of being silently trusted.
"""

from __future__ import annotations

import math

from .algebra import (Algebra, Element, RATIONAL, cleared_element, element_from_json,
                      json_field, operator_rows)
from .errors import AlgebraMismatch, NotInvertible
from .linalg import (
    DEFAULT_ZERO_TOL,
    FieldMatrix,
    INCONSISTENT,
    PARAMETRIC,
    UNIQUE,
    UNVERIFIED_ENLARGED,
    SolutionSet,
    _Record,
    divided_back_substitute,
    divided_step,
    eliminate,
    pivot_columns,
    solution_set,
    solve_float,
    solve_integer,
)
from .tensor import TensorOp, right_multiples

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

    @classmethod
    def from_json(cls, algebra: Algebra, data) -> "SylvesterSystem":
        m_unk = json_field(data, "unknowns", int)
        equations = []
        for eq in json_field(data, "equations", list):
            terms = []
            for t in json_field(eq, "terms", list):
                var = json_field(t, "var", int)
                terms.append((element_from_json(algebra, t["left"]),
                              element_from_json(algebra, t["right"]), var))
            equations.append((terms, element_from_json(algebra, eq["rhs"])))
        return cls.from_terms(algebra, equations, m_unk)


class RichardsonSystem(_Record):
    """The enlarged algebra-valued system.

    Row (i, l) is equation i of the original system right-multiplied by basis
    unit e_l; column (j, p) carries the unknown x^j e_p.  Rows and columns are
    stored blocked, index = outer * dim + inner.
    """

    __slots__ = ("algebra", "m_eq", "m_unk", "amat", "brhs")

    def __init__(self, algebra: Algebra, m_eq: int, m_unk: int, amat: list, brhs: list):
        self.algebra = algebra
        self.m_eq = m_eq
        self.m_unk = m_unk
        self.amat = amat      # (m_eq*n) x (m_unk*n) matrix of Elements
        self.brhs = brhs      # m_eq*n Elements, entry (i, l) = rhs[i] * e_l


class AlgebraSolution(_Record):
    """Result of a system solve, mapped back to algebra elements.

    For kinds UNIQUE and PARAMETRIC, x is a verified solution and the family
    x + sum_k t_k * nullspace[k] (scalar parameters t_k) consists of verified
    solutions.  UNVERIFIED_ENLARGED means the enlarged system produced the
    candidate x but substitution into the original system left the recorded
    residuals: the enlarged solution did not project onto a true solution.
    Over a central simple algebra (the quaternions, matrix algebras) that
    happens only when the operator is singular.  Over other algebras it can
    happen for an invertible operator too: over the complex numbers
    u*x + x*u = 1 has the unique solution x = -u/2, yet the enlarged
    candidate is x = -u.
    """

    __slots__ = ("kind", "x", "nullspace", "free_names", "residuals")

    def __init__(self, kind, x, nullspace, free_names, residuals):
        self.kind = kind
        self.x = x
        self.nullspace = nullspace
        self.free_names = free_names
        self.residuals = residuals

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

    Stacks every block's `operator_rows`, with each equation's blocks and
    right-hand side scaled to one denominator (integers in rational mode,
    floats over 1), into one scalar system.  Rational systems are solved by
    `solve_integer`, whose values over its one denominator go straight to
    `cleared_element`, so no `Fraction` is built; float ones by `solve_float`.
    Every particular solution is verified.
    """
    alg = system.algebra
    n = alg.dim
    big, rhs = [], []
    for ops, b in zip(system.ops, system.rhs):
        blocks = [operator_rows(alg, op._d, op._nums) for op in ops]
        den = math.lcm(b._d, *(d for d, _ in blocks))
        big += [[den // d * v for (d, _), row in zip(blocks, parts) for v in row]
                for parts in zip(*(rows for _, rows in blocks))]
        rhs += [den // b._d * v for v in b._nums]

    d, sol = (solve_integer if alg.scalar_mode == RATIONAL else solve_float)(big, rhs)
    if sol.kind == INCONSISTENT:
        return AlgebraSolution(INCONSISTENT, None, [], [], None)

    def chunks(vector):
        return [cleared_element(alg, d, vector[j * n:(j + 1) * n])
                for j in range(system.m_unk)]

    xs = chunks(sol.particular)
    nullspace = [tuple(chunks(vec)) for vec in sol.nullspace_basis]
    residuals = system.residuals(xs)
    return AlgebraSolution(sol.kind, xs, nullspace, list(sol.free_names), residuals)


# ---------------------------------------------------------------------------
# enlarged-system route
# ---------------------------------------------------------------------------


def build_richardson(system: SylvesterSystem) -> RichardsonSystem:
    """Right-multiply every equation by every basis unit.

    Multiplying equation i by e_l on the right turns each of its operators
    f into x -> f(x) e_l, the product (1 (x) e_l) o f in A (x) A^op, whose
    coefficients of the unknowns x^j e_p fill row (i, l)
    (`tensor.right_multiples`).  Exact entries are cleared pairs made
    straight from the product's integers.
    """
    alg = system.algebra
    amat = []
    brhs = []
    for i, row_ops in enumerate(system.ops):
        multiples = [right_multiples(op) for op in row_ops]
        for l in range(alg.dim):
            amat.append([e for entries in multiples for e in entries[l]])
            brhs.append(system.rhs[i] * alg.basis(l))
    return RichardsonSystem(alg, system.m_eq, system.m_unk, amat, brhs)


def nc_row_reduce(amat, brhs) -> SolutionSet:
    """Elimination over the algebra, dividing rows on the left by their
    pivots.  In the solution set the free constants range over the whole
    algebra and multiply their directions from the right.

    This is `linalg.eliminate` with left division by the pivot's inverse
    (`Element._inverse`, in exact mode by Cayley-Hamilton from n - 1
    products, not by a solve), clearing only the rows below each pivot
    (`linalg.divided_step`), then one `linalg.divided_back_substitute`,
    which gives the reduced form that Gauss-Jordan gives, unique once the
    pivot positions are.  The row update a - f*g is fused in both modes
    (`Element.minus_product`, the float one the IEEE result of the unfused
    update).  Only the zero test and the pivot order depend on the mode:
    in exact mode the pivot is the first invertible entry scanning down the
    column, in float mode the invertible entry of largest norm, and entries
    within DEFAULT_ZERO_TOL of zero count as zero.  Every entry is a stored
    pair, so an exact sweep builds no `Fraction`.  A column whose nonzero
    entries are all non-invertible raises PivotNotInvertible (only possible
    outside division algebras).
    """
    if not amat:
        raise ValueError("empty system")
    alg = brhs[0].algebra
    zero, one = alg.zero(), alg.one()
    rows, rhs = [list(r) for r in amat], list(brhs)
    if alg.scalar_mode == RATIONAL:
        is_zero, magnitude = Element.is_zero, None
    else:
        def is_zero(e):
            return e.is_zero(DEFAULT_ZERO_TOL)
        magnitude = Element.norm
    update = Element.minus_product
    pivots = eliminate(rows, rhs, is_zero, _left_divider,
                       divided_step(zero, is_zero, update), magnitude)
    divided_back_substitute(rows, rhs, pivots, zero, is_zero, update)
    return solution_set(rows, rhs, pivots, zero, one, is_zero)


def _left_divider(pivot):
    """v -> pivot^-1 v.  A non-unit raises a NotInvertible with no message,
    which `eliminate` discards, so no zero divisor is formatted."""
    inverse = pivot._inverse()
    if inverse is None:
        raise NotInvertible
    return inverse.__mul__


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
        for vec in enlarged.nullspace_basis
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

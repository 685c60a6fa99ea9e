"""Newton's method for f(x) = a over a normed algebra.

Maps are generalized polynomials: sums of monomials c0 x c1 x ... x cd with
fixed algebra coefficients between the occurrences of the unknown.  The
derivative at a point is a tensor operator, and each Newton step is one
n x n linear solve with its operator matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .algebra import RATIONAL, Algebra, Element
from .errors import AlgebraMismatch
from .linalg import UNIQUE, row_reduce
from .tensor import TensorOp

CONVERGED = "converged"
SINGULAR_DERIVATIVE = "singular_derivative"
MAX_ITERATIONS = "max_iterations"
DIVERGED = "diverged"
BIT_BUDGET = "bit_budget"

#: largest numerator or denominator, in bits, of a recorded rational iterate
#: or residual: about 2466 digits, so every recorded row stays printable
MAX_BITS = 8192

#: consecutive blow-up steps before a run is declared divergent
_DIVERGENCE_STREAK = 5


class GeneralizedPolynomial:
    """sum of monomials [c0, c1, ..., cd] meaning c0 * x * c1 * ... * x * cd.

    A list of length d+1 encodes a degree-d monomial; [c0] alone is the
    constant c0.  Construction canonicalizes: zero monomials are dropped, a
    scalar head is absorbed into the next coefficient (so -x*j is stored as
    [1, -j] rather than [-1, j]), monomials with equal tails merge, and the
    result is sorted by descending degree.  Equality is equality of this
    canonical form.
    """

    __slots__ = ("algebra", "monomials")

    def __init__(self, algebra: Algebra, monomials):
        self.algebra = algebra
        cleaned = []
        for mono in monomials:
            mono = list(mono)
            if not mono:
                raise ValueError("empty monomial")
            for c in mono:
                if c.algebra != algebra:
                    raise AlgebraMismatch("coefficient from a different algebra")
            if any(c.is_zero() for c in mono):
                continue
            cleaned.append(_absorb_scalar_head(algebra, mono))
        self.monomials = tuple(_merge_and_sort(algebra, cleaned))

    @property
    def degree(self) -> int:
        return max((len(m) - 1 for m in self.monomials), default=0)

    def __eq__(self, other):
        return (
            isinstance(other, GeneralizedPolynomial)
            and self.algebra == other.algebra
            and self.monomials == other.monomials
        )

    def __hash__(self):
        return hash((self.algebra, self.monomials))

    def __repr__(self):
        body = ", ".join(
            "[" + ", ".join(str(c) for c in mono) + "]" for mono in self.monomials
        )
        return f"GeneralizedPolynomial({body or '0'})"

    def evaluate(self, x: Element) -> Element:
        """Sum of the alternating products c0 x c1 x ... x cd."""
        if x.algebra != self.algebra:
            raise AlgebraMismatch("argument from a different algebra")
        total = self.algebra.zero()
        for mono in self.monomials:
            acc = mono[0]
            for c in mono[1:]:
                acc = acc * x * c
            total = total + acc
        return total

    def derivative_at(self, x0: Element) -> TensorOp:
        """The derivative tensor at x0.

        Each monomial contributes, for every position of the unknown, the
        simple tensor (product of everything left of that x, evaluated at x0)
        (x) (product of everything right of it).  For x^2 this is the familiar
        x0 (x) 1 + 1 (x) x0.
        """
        if x0.algebra != self.algebra:
            raise AlgebraMismatch("argument from a different algebra")
        pairs = []
        for mono in self.monomials:
            d = len(mono) - 1
            for t in range(1, d + 1):
                left = mono[0]
                for c in mono[1:t]:
                    left = left * x0 * c
                right = mono[t]
                for c in mono[t + 1:]:
                    right = right * x0 * c
                pairs.append((left, right))
        if not pairs:
            return TensorOp.zero(self.algebra)
        return TensorOp.from_pairs(pairs)


def _absorb_scalar_head(algebra: Algebra, mono):
    """[s, c1, ...] with scalar s becomes [1, s*c1, ...] (scalars are central)."""
    if len(mono) > 1:
        head = mono[0]
        if all(c == 0 for c in head.coords[1:]):
            s = head.coords[0]
            if s != algebra.scalar_one():
                mono = [algebra.one(), s * mono[1]] + mono[2:]
    return mono


def _merge_and_sort(algebra: Algebra, monomials):
    merged = []
    for mono in monomials:
        tail = tuple(mono[1:])
        for other in merged:
            if tuple(other[1:]) == tail:
                other[0] = other[0] + mono[0]
                break
        else:
            merged.append(list(mono))
    merged = [
        _absorb_scalar_head(algebra, m) for m in merged if not m[0].is_zero()
    ]

    # exact coordinates sort as they are: float() of a rational coefficient
    # beyond the float range raises OverflowError
    def key(mono):
        return -(len(mono) - 1), tuple(elem.coords for elem in mono)

    return [tuple(m) for m in sorted(merged, key=key)]


def poly_eval(p: GeneralizedPolynomial, x: Element) -> Element:
    return p.evaluate(x)


def poly_derivative_at(p: GeneralizedPolynomial, x0: Element) -> TensorOp:
    return p.derivative_at(x0)


def poly_to_json(p: GeneralizedPolynomial) -> dict:
    """{"monomials": [[coeff, coeff, ...], ...]} with coordinate-array coeffs."""
    from .algebra import element_to_json

    return {
        "monomials": [
            [element_to_json(c) for c in mono] for mono in p.monomials
        ]
    }


def poly_from_json(algebra: Algebra, data) -> GeneralizedPolynomial:
    from .algebra import element_from_json

    return GeneralizedPolynomial(
        algebra,
        [
            [element_from_json(algebra, c) for c in mono]
            for mono in data["monomials"]
        ],
    )


@dataclass
class NewtonConfig:
    tol: float = 1e-9
    max_iter: int = 50
    divergence_factor: float = 1e12

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter <= 0:
            raise ValueError("max_iter must be positive")


@dataclass
class NewtonTrace:
    """iterates[k] = (x_k, residual f(x_k) - a, residual norm), with the
    residual recomputed at every iterate rather than carried forward."""

    iterates: list = field(default_factory=list)
    status: str = MAX_ITERATIONS

    @property
    def solution(self) -> Element | None:
        return self.iterates[-1][0] if self.iterates else None

    @property
    def final_residual_norm(self) -> float | None:
        return self.iterates[-1][2] if self.iterates else None

    def rows(self) -> list:
        """Trace as JSON-ready rows {k, x, residual, norm}."""
        from .algebra import element_to_json

        return [
            {"k": k, "x": element_to_json(x), "residual": element_to_json(r),
             "norm": norm}
            for k, (x, r, norm) in enumerate(self.iterates)
        ]


def newton_solve(p: GeneralizedPolynomial, a: Element, x0: Element,
                 cfg: NewtonConfig | None = None) -> NewtonTrace:
    """Iterate Newton steps for p(x) = a starting at x0.

    Each step solves  D(delta) = -(p(x_k) - a)  with the n x n operator
    matrix of the derivative D at x_k and sets x_{k+1} = x_k + delta.  The
    run stops on residual norm < tol, on a singular operator matrix (even
    with a consistent system), after max_iter steps, or as DIVERGED once the
    residual exceeds divergence_factor times the initial residual for five
    consecutive steps or its norm is not finite (inf, or NaN in float mode).
    In rational mode, where digit lengths roughly double every step, it also
    stops (BIT_BUDGET) before recording an iterate or residual with a
    numerator or denominator above MAX_BITS bits.
    """
    if cfg is None:
        cfg = NewtonConfig()
    trace = NewtonTrace()
    x = x0
    initial_norm = None
    streak = 0
    for k in range(cfg.max_iter + 1):
        residual = p.evaluate(x) - a
        if x.algebra.scalar_mode == RATIONAL and _exceeds_bits(x, residual):
            trace.status = BIT_BUDGET
            return trace
        rnorm = residual.norm()
        trace.iterates.append((x, residual, rnorm))
        if not math.isfinite(rnorm):  # NaN fails every comparison below
            trace.status = DIVERGED
            return trace
        if initial_norm is None:
            initial_norm = rnorm
        if rnorm < cfg.tol:
            trace.status = CONVERGED
            return trace
        if initial_norm > 0 and rnorm > cfg.divergence_factor * initial_norm:
            streak += 1
            if streak >= _DIVERGENCE_STREAK:
                trace.status = DIVERGED
                return trace
        else:
            streak = 0
        if k == cfg.max_iter:
            break
        step = row_reduce(p.derivative_at(x).operator_matrix(),
                          [-c for c in residual.coords])
        if step.kind != UNIQUE:
            trace.status = SINGULAR_DERIVATIVE
            return trace
        x = x + Element(x.algebra, step.particular, _validated=True)
    trace.status = MAX_ITERATIONS
    return trace


def _exceeds_bits(*elements) -> bool:
    return any(max(c.numerator.bit_length(), c.denominator.bit_length()) > MAX_BITS
               for e in elements for c in e.coords)

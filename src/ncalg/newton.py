"""Newton's method for f(x) = a over a normed algebra.

Maps are generalized polynomials: sums of monomials c0 x c1 x ... x cd with
fixed algebra coefficients between the occurrences of the unknown.  The
derivative at a point is a tensor operator, and each Newton step is one
n x n linear solve with its operator matrix: the walk's pairs are summed
into the derivative's coefficients (`algebra.pair_coefficients`) and
contracted into its rows (`algebra.operator_rows`), both by kernels compiled
per table, then solved as plain rows (`linalg.solve_integer` on integers in
rational mode, `linalg.solve_float` on floats, with no `FieldMatrix`).
Value and derivative share one walk (after Baur and Strassen, 1983): a
monomial's prefixes P_1 = c0, P_(t+1) = (P_t x) c_t end in its value and
are its derivative's left factors; right factors are not shared as
suffixes, which would move float rounding.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .algebra import (RATIONAL, Algebra, Element, cleared_element, element_to_json,
                      operator_rows, pair_coefficients, root_of_square)
from .errors import AlgebraMismatch
from .linalg import UNIQUE, _Record, solve_float, solve_integer
from .tensor import TensorOp

CONVERGED = "converged"
SINGULAR_DERIVATIVE = "singular_derivative"
MAX_ITERATIONS = "max_iterations"
DIVERGED = "diverged"
BIT_BUDGET = "bit_budget"

#: largest numerator or denominator, in bits, of a recorded rational iterate
#: or residual: about 2466 digits, so every recorded row stays printable
MAX_BITS = 8192

#: a step blows up when its residual norm exceeds this multiple of the
#: initial residual norm
_DIVERGENCE_FACTOR = 1e12

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
        """Sum of the alternating products c0 x c1 x ... x cd (`_walk`)."""
        value, _, _ = _walk(self.algebra, *self._walk_operands(x), x)
        return _element(self.algebra, value)

    def derivative_at(self, x0: Element) -> TensorOp:
        """The derivative tensor at x0.

        Each monomial contributes, for every position of the unknown, the
        simple tensor (product of everything left of that x, evaluated at x0)
        (x) (product of everything right of it).  For x^2 this is the familiar
        x0 (x) 1 + 1 (x) x0.  The left factors are the walk's prefixes.
        """
        alg, (mul, monos) = self.algebra, self._walk_operands(x0)
        _, chains, x = _walk(alg, mul, monos, x0)
        pairs = [(_element(alg, a), _element(alg, b))
                 for a, b in _pairs(mul, monos, chains, x)]
        return TensorOp.from_pairs(pairs) if pairs else TensorOp.zero(alg)

    def _walk_operands(self, *args):
        """(product, coefficients): exact `Element`s, whose products run on
        their cleared integer pairs, or float coordinates and the compiled
        float kernel."""
        alg = self.algebra
        if any(arg.algebra != alg for arg in args):
            raise AlgebraMismatch("argument from a different algebra")
        if alg.scalar_mode == RATIONAL:
            return Element.__mul__, self.monomials
        return alg._product_kernel(), [[c.coords for c in mono] for mono in self.monomials]


def _element(algebra: Algebra, value) -> Element:
    """A walk's value as an `Element`."""
    if algebra.scalar_mode == RATIONAL:
        return value
    return cleared_element(algebra, 1, value)


def _numerators(algebra: Algebra, pairs) -> list:
    """The walk's pairs a (x) b as `pair_coefficients` takes them: exact
    elements as numerator triples, float coordinate lists as they are."""
    if algebra.scalar_mode == RATIONAL:
        return [(a._d * b._d, a._nums, b._nums) for a, b in pairs]
    return list(pairs)


def _walk(algebra: Algebra, mul, monomials, x: Element):
    """(sum of the monomials' values, per monomial its prefixes P_1..P_(d+1),
    x), all as `_walk_operands` gives them: float x as its coordinates."""
    exact, chains = algebra.scalar_mode == RATIONAL, []
    total, x = (algebra.zero(), x) if exact else ([0.0] * algebra.dim, x._nums)
    for mono in monomials:
        acc = mono[0]
        chain = [acc]
        for c in mono[1:]:
            acc = mul(mul(acc, x), c)
            chain.append(acc)
        chains.append(chain)
        total = total + acc if exact else [s + v for s, v in zip(total, acc)]
    return total, chains, x


def _pairs(mul, monomials, chains, x):
    """The derivative's pairs (P_t, ((c_t x) c_(t+1)) ... x cd)."""
    for mono, chain in zip(monomials, chains):
        for t in range(1, len(mono)):
            right = mono[t]
            for c in mono[t + 1:]:
                right = mul(mul(right, x), c)
            yield chain[t - 1], right


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
    # like monomials, keyed by their tail, add up in order of appearance
    # and stay where the first of them was
    merged = {}
    for mono in monomials:
        tail = tuple(mono[1:])
        first = merged.get(tail)
        if first is None:
            merged[tail] = list(mono)
        else:
            first[0] = first[0] + mono[0]
    merged = [
        _absorb_scalar_head(algebra, m) for m in merged.values() if not m[0].is_zero()
    ]

    # exact coordinates sort as they are: float() of a rational coefficient
    # beyond the float range raises OverflowError
    def key(mono):
        return -(len(mono) - 1), tuple(elem.coords for elem in mono)

    return [tuple(m) for m in sorted(merged, key=key)]


class NewtonConfig(_Record):
    __slots__ = ("tol", "max_iter")

    def __init__(self, tol: float = 1e-9, max_iter: int = 50):
        if not 0 < tol < math.inf:
            raise ValueError(f"tol must be positive and finite, not {tol!r}")
        if type(max_iter) is not int or max_iter <= 0:  # no bool
            raise ValueError(f"max_iter must be a positive integer, not {max_iter!r}")
        self.tol = tol
        self.max_iter = max_iter


class NewtonTrace(_Record):
    """iterates[k] = (x_k, residual f(x_k) - a, residual norm), with the
    residual recomputed at every iterate rather than carried forward.
    `iterates` defaults to a fresh list per trace."""

    __slots__ = ("iterates", "status")

    def __init__(self, iterates: list | None = None, status: str = MAX_ITERATIONS):
        self.iterates = [] if iterates is None else iterates
        self.status = status

    @property
    def solution(self) -> Element | None:
        return self.iterates[-1][0] if self.iterates else None

    @property
    def final_residual_norm(self) -> float | None:
        return self.iterates[-1][2] if self.iterates else None

    def rows(self) -> list:
        """Trace as JSON-ready rows {k, x, residual, norm}."""
        return [
            {"k": k, "x": element_to_json(x), "residual": element_to_json(r),
             "norm": norm}
            for k, (x, r, norm) in enumerate(self.iterates)
        ]


def newton_solve(p: GeneralizedPolynomial, a: Element, x0: Element,
                 cfg: NewtonConfig | None = None) -> NewtonTrace:
    """Iterate Newton steps for p(x) = a starting at x0.

    Each step solves  D(delta) = -(p(x_k) - a)  with the n x n operator matrix
    of the derivative D at x_k, summed and solved on integers in rational
    mode (`solve_integer`, no `Fraction`) and on floats in float mode
    (`solve_float`), and sets
    x_{k+1} = x_k + delta.  The run stops on residual norm < tol, on a
    singular operator matrix (even with a consistent system), after max_iter
    steps, or as DIVERGED once the residual exceeds _DIVERGENCE_FACTOR times
    the initial residual for five consecutive steps or, in float mode, its
    norm is not finite (inf or NaN).  Rational runs compare exact squared
    norms, so a norm beyond the float range (recorded as inf) decides nothing,
    and stop (BIT_BUDGET) before recording an iterate or residual with a
    numerator or denominator above MAX_BITS bits, as digit lengths roughly
    double every step.
    """
    cfg, alg = cfg or NewtonConfig(), p.algebra
    mul, monos = p._walk_operands(x0, a)
    exact = alg.scalar_mode == RATIONAL
    tol, factor = cfg.tol, _DIVERGENCE_FACTOR
    if exact:  # compared with squared norms
        tol, factor = Fraction(tol) ** 2, Fraction(factor) ** 2
    trace, x, initial, streak = NewtonTrace(), x0, None, 0
    for k in range(cfg.max_iter + 1):
        value, chains, xo = _walk(alg, mul, monos, x)
        residual = value - a if exact else cleared_element(
            alg, 1, [v - t for v, t in zip(value, a._nums)])
        if exact and _exceeds_bits(x, residual):
            trace.status = BIT_BUDGET
            return trace
        squared = residual.norm_squared()
        rnorm = root_of_square(squared)
        trace.iterates.append((x, residual, rnorm))
        if not (exact or math.isfinite(rnorm)):  # NaN fails every comparison below
            trace.status = DIVERGED
            return trace
        size = squared if exact else rnorm
        if initial is None:
            initial = size
        if size < tol:
            trace.status = CONVERGED
            return trace
        if initial > 0 and size > factor * initial:
            streak += 1
            if streak >= _DIVERGENCE_STREAK:
                trace.status = DIVERGED
                return trace
        else:
            streak = 0
        if k == cfg.max_iter:
            break
        d, coeff = pair_coefficients(alg, _numerators(alg, _pairs(mul, monos, chains, xo)))
        den, rows = operator_rows(alg, d, coeff)
        # D = rows/den and residual = nums/r: solve r*rows step = -den*nums
        if residual._d != 1:
            rows = [[residual._d * v for v in row] for row in rows]
        rhs = [-den * v for v in residual._nums]
        d, step = (solve_integer if exact else solve_float)(rows, rhs)
        if step.kind != UNIQUE:
            trace.status = SINGULAR_DERIVATIVE
            return trace
        x = x + cleared_element(alg, d, step.particular)
    trace.status = MAX_ITERATIONS
    return trace


def _exceeds_bits(*elements) -> bool:
    """Whether a coordinate of the rational elements has a numerator or
    denominator above MAX_BITS bits.  Neither is longer than in the element's
    pair, so the coordinates are read only for a pair over the budget."""
    return any(max(e._d.bit_length(), *(v.bit_length() for v in e._nums)) > MAX_BITS
               and any(max(c.numerator.bit_length(), c.denominator.bit_length())
                       > MAX_BITS for c in e.coords)
               for e in elements)

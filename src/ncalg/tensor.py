"""Operator tensors: elements of A (x) A^op acting as linear maps on A.

A tensor f = sum_ij f[i][j] e_i (x) e_j acts on x as sum_ij f[i][j] e_i x e_j.
Composition, the product of A (x) A^op, is contracted from the sparse table
(`_compose`); the inverse is one n^2 x n^2 solve.  Pairs (a, b) given at
construction are kept for display and for `apply`, which sums a_s x b_s:
the equation's own terms, independent of `operator_matrix`.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction

from .algebra import (FLOAT_CHECK_TOL, RATIONAL, Algebra, Element, check_json_scalars,
                      cleared_element, element_from_json, field_matrix, format_terms,
                      json_field, operator_rows, pair_coefficients)
from .errors import AlgebraMismatch, SingularTensor
from .linalg import INCONSISTENT, FieldMatrix, cleared, row_reduce, solve_integer


class TensorOp:
    """A linear operator on the algebra: n*n coordinates over e_i (x) e_j."""

    __slots__ = ("algebra", "_coords", "display_pairs")

    def __init__(self, algebra: Algebra, coeff, display_pairs=None,
                 _validated=False):
        # _validated is the trusted internal path: coeff is flat and coerced
        n = algebra.dim
        if not _validated:
            coeff = [[algebra.coerce(v) for v in row] for row in coeff]
            if len(coeff) != n or any(len(row) != n for row in coeff):
                raise ValueError("coefficient matrix must be n*n")
            coeff = [v for row in coeff for v in row]
        self.algebra = algebra
        self._coords = tuple(coeff)
        self.display_pairs = tuple(display_pairs) if display_pairs else None

    @property
    def coeff(self) -> tuple:
        """The coordinates as an n*n matrix: coeff[i][j] multiplies e_i (x) e_j."""
        n, flat = self.algebra.dim, self._coords
        return tuple(flat[i * n:(i + 1) * n] for i in range(n))

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs) -> "TensorOp":
        """Standard form of sum_s a_s (x) b_s; the pairs are kept for display."""
        pairs = list(pairs)
        if not pairs:
            raise ValueError("need at least one (a, b) pair")
        algebra = pairs[0][0].algebra
        if any(a.algebra != algebra or b.algebra != algebra for a, b in pairs):
            raise AlgebraMismatch("tensor factors from different algebras")
        exact = algebra.scalar_mode == RATIONAL
        d, f = pair_coefficients(algebra, pairs if exact else
                                 [(a.coords, b.coords) for a, b in pairs])
        return cls(algebra, [Fraction(v, d) for v in f] if exact else f,
                   display_pairs=pairs, _validated=True)

    @classmethod
    def identity(cls, algebra: Algebra) -> "TensorOp":
        """The unit tensor 1 (x) 1, which acts as the identity map."""
        return cls(algebra, _unit(algebra.dim ** 2, algebra.scalar_one(),
                                  algebra.scalar_zero()), _validated=True)

    @classmethod
    def zero(cls, algebra: Algebra) -> "TensorOp":
        return cls(algebra, [[0] * algebra.dim] * algebra.dim)

    # -- basic protocol ---------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, TensorOp) and self.algebra == other.algebra
                and self._coords == other._coords)

    def __hash__(self):
        return hash((self.algebra, self._coords))

    def __repr__(self):
        return f"TensorOp({self.to_text()})"

    def is_zero(self) -> bool:
        return all(c == 0 for c in self._coords)

    def is_identity(self) -> bool:
        return self == TensorOp.identity(self.algebra)

    # -- action, composition, vectorization ------------------------------------

    def apply(self, x: Element) -> Element:
        """Evaluate sum_s a_s x b_s over `simple_pairs()`: the pairs given at
        construction, else e_i (x) row_i, two products per pair."""
        if x.algebra != self.algebra:
            raise AlgebraMismatch("tensor and argument over different algebras")
        total = self.algebra.zero()
        for a, b in self.simple_pairs():
            total = total + a * x * b
        return total

    def compose(self, other: "TensorOp") -> "TensorOp":
        """The operator x -> self(other(x)): the product in A (x) A^op.
        Exact coordinates are contracted as cleared integers."""
        alg = self.algebra
        if other.algebra != alg:
            raise AlgebraMismatch("tensors over different algebras")
        if alg.scalar_mode != RATIONAL:
            return TensorOp(alg, _compose(alg, self._coords, other._coords, 0.0),
                            _validated=True)
        (df, xf), (dg, xg) = cleared(self._coords), cleared(other._coords)
        den = df * dg * alg._dc ** 2
        return TensorOp(alg, [Fraction(v, den) for v in _compose(alg, xf, xg, 0)],
                        _validated=True)

    def operator_matrix(self) -> FieldMatrix:
        """Field-level matrix M with M @ coords(x) = coords(self.apply(x)).

        Built as sum_ij f[i][j] L(e_i) @ R(e_j) by `algebra.operator_rows`,
        independently of apply(); exact coordinates are contracted as
        cleared integers, with one `Fraction` per entry of M.
        """
        alg = self.algebra
        d, f = cleared(self._coords) if alg.scalar_mode == RATIONAL else (1, self._coords)
        return field_matrix(alg, *operator_rows(alg, d, f))

    def invert(self) -> "TensorOp":
        """The tensor g with self o g = g o self = 1 (x) 1: the inverse in
        A (x) A^op.  A singular operator has none, but outside central simple
        algebras an invertible operator can have none too: its tensor is then
        a zero divisor in A (x) A^op.  f o g = 1 (x) 1 is solved exactly on
        cleared integers (`solve_integer`), else by `row_reduce`.  As in
        `Element.inverse`, f o g = 1 forces g o f = 1, so only a float g
        is checked, on both sides within FLOAT_CHECK_TOL.
        """
        alg, m = self.algebra, self.algebra.dim ** 2
        exact = alg.scalar_mode == RATIONAL
        one, zero = (1, 0) if exact else (1.0, 0.0)
        d, f = cleared(self._coords) if exact else (1, self._coords)
        # column b is f o (basis tensor b)
        rows = [list(row) for row in
                zip(*(_compose(alg, f, _unit(m, one, zero, b), zero) for b in range(m)))]
        if exact:
            sol = solve_integer(rows, _unit(m, d * alg._dc ** 2, 0))
        else:
            sol = row_reduce(FieldMatrix(rows), _unit(m, one, zero))
        g = sol.particular
        if sol.kind == INCONSISTENT or not (exact or all(
                abs(v - w) <= FLOAT_CHECK_TOL
                for h in (_compose(alg, f, g, zero), _compose(alg, g, f, zero))
                for v, w in zip(h, _unit(m, one, zero)))):
            raise SingularTensor("tensor has no two-sided inverse in A⊗A^op")
        return TensorOp(alg, g, _validated=True)

    # -- presentation ---------------------------------------------------------------

    def simple_pairs(self):
        """A list of (a, b) pairs whose tensor sum equals this operator.

        Uses the display pairs when available, otherwise decomposes the
        coefficient matrix row by row as e_i (x) (row_i).
        """
        if self.display_pairs is not None:
            return list(self.display_pairs)
        alg = self.algebra
        pairs = []
        for i, row in enumerate(self.coeff):
            if all(v == 0 for v in row):
                continue
            pairs.append((alg.basis(i), Element(alg, row, _validated=True)))
        return pairs

    def to_text(self) -> str:
        """Canonical rendering like '1/4(i⊗j) + 1/2(k⊗k)': the coefficients
        f[i][j] as `format_terms` over the names '(e_i⊗e_j)'."""
        names = self.algebra.basis_names
        return format_terms((v, f"({names[i]}⊗{names[j]})")
                            for i, row in enumerate(self.coeff)
                            for j, v in enumerate(row))

    def to_json(self) -> dict:
        return {"coeff": [[self.algebra.scalar_json(v) for v in row]
                          for row in self.coeff]}

    @classmethod
    def from_json(cls, algebra: Algebra, data) -> "TensorOp":
        """Accepts {"coeff": n*n array} or {"pairs": [[elem, elem], ...]}."""
        if not isinstance(data, dict) or not data.keys() & {"coeff", "pairs"}:
            raise ValueError("tensor JSON needs a 'coeff' or 'pairs' key")
        if "coeff" in data:
            return cls(algebra, check_json_scalars(data["coeff"], algebra.scalar_mode, 2))
        pairs = []
        for pair in json_field(data, "pairs", list):
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ValueError(f"tensor JSON 'pairs' holds {json.dumps(pair)}, "
                                 "not a pair [element, element]")
            pairs.append(tuple(element_from_json(algebra, x) for x in pair))
        return cls.from_pairs(pairs)


def _unit(size: int, one, zero, index: int = 0) -> list:
    return [one if t == index else zero for t in range(size)]


def _compose(algebra: Algebra, f, g, zero) -> list:
    """Flat f o g from flat f and g (integers give integers over _dc**2) by
    (e_i (x) e_j)(e_k (x) e_l) = sum_pq C[i][k][p] C[l][j][q] e_p (x) e_q.
    Each output adds (f_ij g_kl)(C C) over nonzero f_ij, then g_kl, in the
    order of the sparse loop `algebra._product` on the table of A (x) A^op,
    so float results equal that loop's bit for bit (its C C = +-1 cases too)."""
    n, table = algebra.dim, algebra._mul_table
    out = [zero] * (n * n)
    right = [(divmod(b, n), v) for b, v in enumerate(g) if v != 0]
    for a, u in enumerate(f):
        if u == 0:
            continue
        i, j = divmod(a, n)
        left = table[i]
        for (k, l), v in right:
            uv, cells = u * v, table[l][j]
            for p, c in left[k]:
                for q, d in cells:
                    out[p * n + q] += uv * (c * d)
    return out


def right_multiples(op: TensorOp) -> list:
    """For each basis unit e_l, the map x -> op(x) e_l, the product
    (1 (x) e_l) o op by `_compose`, as its coefficients: element p is
    sum_u h[u][p] e_u for the coordinates h[u][p] of e_u (x) e_p, and
    multiplies x e_p.  Exact ones are cleared pairs of the integers."""
    alg, n = op.algebra, op.algebra.dim
    if alg.scalar_mode == RATIONAL:
        d, g = cleared(op._coords)
        zero, entry = 0, functools.partial(cleared_element, alg, d * alg._dc ** 2)
    else:
        g, zero, entry = op._coords, 0.0, functools.partial(Element, alg, _validated=True)
    # the unit's int 1 multiplies a float coordinate exactly
    return [[entry(h[p::n]) for p in range(n)]
            for h in (_compose(alg, _unit(n * n, 1, 0, l), g, zero) for l in range(n))]


def tensor_from_pairs(pairs) -> TensorOp:
    """Standard representation of sum_s a_s (x) b_s."""
    return TensorOp.from_pairs(pairs)

"""Operator tensors: elements of A (x) A^op acting as linear maps on A.

A tensor f = sum_ij f[i][j] e_i (x) e_j acts on x as sum_ij f[i][j] e_i x e_j.
Its coordinates f[i][j] make it an `Element` of the derived algebra
`Algebra.envelope()` = A (x) A^op, whose product is composition of the maps.
So composition is multiplication there and inversion is `Element.inverse`;
that element (and the envelope) is built on first use, and everything else
reads the flat coordinates.  Simple pairs (a, b) given at construction are
kept, for display and for `apply`, which evaluates sum_s a_s x b_s over
them: the equation's own terms, independent of `operator_matrix` and of
`Algebra.pair_products`.
"""

from __future__ import annotations

from .algebra import (Algebra, Element, element_from_json, format_scalar,
                      check_json_scalars)
from .errors import AlgebraMismatch, NotInvertible, SingularTensor
from .linalg import FieldMatrix


class TensorOp:
    """A linear operator on the algebra, held as an element of A (x) A^op."""

    __slots__ = ("algebra", "_coords", "display_pairs", "_element")

    def __init__(self, algebra: Algebra, coeff, display_pairs=None,
                 _validated=False):
        n = algebra.dim
        if not _validated:
            coeff = [[algebra.coerce(v) for v in row] for row in coeff]
            if len(coeff) != n or any(len(row) != n for row in coeff):
                raise ValueError("coefficient matrix must be n*n")
        self.algebra = algebra
        self._coords = tuple(v for row in coeff for v in row)
        self.display_pairs = tuple(display_pairs) if display_pairs else None
        self._element = None

    @classmethod
    def _of(cls, algebra: Algebra, element: Element) -> "TensorOp":
        op = cls.__new__(cls)
        op.algebra, op._coords, op.display_pairs = algebra, element.coords, None
        op._element = element
        return op

    @property
    def element(self) -> Element:
        """This tensor as an element of `Algebra.envelope()`, built on first use."""
        if self._element is None:
            self._element = Element(self.algebra.envelope(), self._coords,
                                    _validated=True)
        return self._element

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
        coeff = pair_coefficients(algebra, [(a.coords, b.coords) for a, b in pairs])
        return cls(algebra, coeff, display_pairs=pairs, _validated=True)

    @classmethod
    def identity(cls, algebra: Algebra) -> "TensorOp":
        """The unit tensor 1 (x) 1, which acts as the identity map."""
        return cls._of(algebra, algebra.envelope().one())

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
        return (self.element - 1).is_zero()

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
        """The operator x -> self(other(x)): the product in A (x) A^op."""
        return TensorOp._of(self.algebra, self.element * other.element)

    def operator_matrix(self) -> FieldMatrix:
        """Field-level matrix M with M @ coords(x) = coords(self.apply(x)).

        Built as sum_ij f[i][j] L(e_i) @ R(e_j) from the regular
        representations (cached per algebra), independently of apply().
        """
        return FieldMatrix(operator_rows(self.algebra, self.coeff))

    def invert(self) -> "TensorOp":
        """The tensor g with self o g = g o self = 1 (x) 1.

        This is the inverse in A (x) A^op.  A singular operator has none, but
        outside central simple algebras an invertible operator can have none
        too: its tensor is then a zero divisor in A (x) A^op.
        """
        try:
            return TensorOp._of(self.algebra, self.element.inverse())
        except NotInvertible as exc:
            raise SingularTensor(
                "tensor has no two-sided inverse in A⊗A^op") from exc

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
        """Canonical rendering like '1/4(i⊗j) + 1/2(k⊗k)'."""
        names = self.algebra.basis_names
        parts = []
        for i, row in enumerate(self.coeff):
            for j, v in enumerate(row):
                if v == 0:
                    continue
                negative = v < 0
                mag = -v if negative else v
                body = f"({names[i]}⊗{names[j]})"
                if mag != 1:
                    body = f"{format_scalar(mag)}{body}"
                if not parts:
                    parts.append(f"-{body}" if negative else body)
                else:
                    parts.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {"coeff": [[self.algebra.scalar_json(v) for v in row]
                          for row in self.coeff]}

    @classmethod
    def from_json(cls, algebra: Algebra, data) -> "TensorOp":
        """Accepts {"coeff": n*n array} or {"pairs": [[elem, elem], ...]}."""
        if "coeff" in data:
            return cls(algebra, check_json_scalars(data["coeff"], algebra.scalar_mode, 2))
        if "pairs" in data:
            pairs = [
                (element_from_json(algebra, a), element_from_json(algebra, b))
                for a, b in data["pairs"]
            ]
            return cls.from_pairs(pairs)
        raise ValueError("tensor JSON needs a 'coeff' or 'pairs' key")


def pair_coefficients(algebra: Algebra, pairs) -> list:
    """The n*n coefficients f[i][j] of sum_s a_s (x) b_s, for pairs of
    coordinate sequences; zero coordinates are skipped."""
    coeff = [[algebra.scalar_zero()] * algebra.dim for _ in range(algebra.dim)]
    for a, b in pairs:
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            row = coeff[i]
            for j, bj in enumerate(b):
                if bj != 0:
                    row[j] += ai * bj
    return coeff


def operator_rows(algebra: Algebra, coeff) -> list:
    """Rows of sum_ij f[i][j] L(e_i) @ R(e_j) for the n*n coefficients f,
    from the algebra's cached `pair_products()`."""
    n, pair = algebra.dim, algebra.pair_products()
    out = [[algebra.scalar_zero()] * n for _ in range(n)]
    for i, row in enumerate(coeff):
        for j, v in enumerate(row):
            if v == 0:
                continue
            for q, p, w in pair[i][j]:
                if w == 1:
                    out[q][p] += v
                elif w == -1:
                    out[q][p] -= v
                else:
                    out[q][p] += v * w
    return out


def tensor_from_pairs(pairs) -> TensorOp:
    """Standard representation of sum_s a_s (x) b_s."""
    return TensorOp.from_pairs(pairs)

"""Operator tensors: elements of A (x) A^op acting as linear maps on A.

A tensor f = sum_ij f[i][j] e_i (x) e_j acts on x as sum_ij f[i][j] e_i x e_j.
Its n*n coordinates are stored as an element's are (`algebra._StoredPair`,
which also gives equality, hashing and the zero test), with `coeff` read
off them.  Composition, the product of A (x) A^op, is contracted from the
sparse table (`_compose`) on the numerators; the inverse is one n^2 x n^2
solve; the right multiples of the enlarged system are element products
(`right_multiples`).  Pairs (a, b) given to `from_pairs` are kept for
display and for `apply`, which sums a_s x b_s: the equation's own terms,
independent of `operator_matrix`.
"""

from __future__ import annotations

import functools
import json

from .algebra import (RATIONAL, Algebra, Element, _StoredPair, _unit,
                      check_json_scalars, cleared_element, element_from_json,
                      format_terms, json_field, operator_rows,
                      pair_coefficients, solve_inverse)
from .errors import AlgebraMismatch, SingularTensor
from .linalg import FieldMatrix


class TensorOp(_StoredPair):
    """A linear operator on the algebra: n*n coordinates over e_i (x) e_j.

    Stored as an `Element` is (`algebra._StoredPair`), with f_ij at flat
    index i*n + j, so equality, hashing and `is_zero` are the element's.
    `display_pairs` holds the pairs given to `from_pairs`, else None.
    """

    __slots__ = ("display_pairs",)

    def __init__(self, algebra: Algebra, coeff):
        n = algebra.dim
        coeff = [[algebra.coerce(v) for v in row] for row in coeff]
        if len(coeff) != n or any(len(row) != n for row in coeff):
            raise ValueError("coefficient matrix must be n*n")
        self.algebra, self.display_pairs = algebra, None
        self._coords = flat = tuple(v for row in coeff for v in row)
        self._d, self._nums = algebra._pair(flat)

    @property
    def coeff(self) -> tuple:
        """The coordinates as an n*n matrix: coeff[i][j] multiplies e_i (x) e_j."""
        n, flat = self.algebra.dim, self._read_scalars()
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
        if algebra.scalar_mode == RATIONAL:
            d, f = pair_coefficients(algebra, [(a._d * b._d, a._nums, b._nums)
                                               for a, b in pairs])
        else:
            d, f = pair_coefficients(algebra, [(a._nums, b._nums) for a, b in pairs])
        return _tensor(algebra, d, f, pairs)

    @classmethod
    def identity(cls, algebra: Algebra) -> "TensorOp":
        """The unit tensor 1 (x) 1, which acts as the identity map."""
        zero = algebra._num_zero
        return _tensor(algebra, 1, _unit(algebra.dim ** 2, zero + 1, zero))

    @classmethod
    def zero(cls, algebra: Algebra) -> "TensorOp":
        return _tensor(algebra, 1, [algebra._num_zero] * algebra.dim ** 2)

    # -- basic protocol ---------------------------------------------------------

    def __repr__(self):
        return f"TensorOp({self.to_text()})"

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
        """The operator x -> self(other(x)): the product in A (x) A^op,
        contracted on the numerators over the product of the denominators
        and the table's scale _dc**2."""
        alg = self.algebra
        if other.algebra != alg:
            raise AlgebraMismatch("tensors over different algebras")
        return _tensor(alg, self._d * other._d * alg._dc ** 2,
                       _compose(alg, self._nums, other._nums))

    def operator_matrix(self) -> FieldMatrix:
        """Field-level matrix M with M @ coords(x) = coords(self.apply(x)),
        summed by `algebra.operator_rows` on the numerators, independently of
        apply(), with one `Fraction` per entry of an exact M and float rows
        as they are.  The matrix of x -> a x is that of a (x) 1, of
        x -> x b that of 1 (x) b."""
        alg = self.algebra
        den, rows = operator_rows(alg, self._d, self._nums)
        return FieldMatrix([alg._scalars(den, row) for row in rows])

    def invert(self) -> "TensorOp":
        """The tensor g with self o g = g o self = 1 (x) 1: the inverse in
        A (x) A^op.  A singular operator has none, but outside central simple
        algebras an invertible operator can have none too: its tensor is then
        a zero divisor in A (x) A^op.  f o g = 1 (x) 1 is solved on the
        numerators by `solve_inverse`.  As in `Element.inverse`, f o g = 1
        forces g o f = 1, so only a float g is checked, on both sides within
        FLOAT_CHECK_TOL.
        """
        alg, m, f = self.algebra, self.algebra.dim ** 2, self._nums
        # column b is f o (basis tensor b); the unit's int 1 multiplies a
        # float coordinate exactly
        rows = [list(row) for row in
                zip(*(_compose(alg, f, _unit(m, 1, 0, b)) for b in range(m)))]
        den = self._d * alg._dc ** 2
        g = solve_inverse(self, rows, [den * v for v in TensorOp.identity(alg)._nums],
                          functools.partial(_tensor, alg),
                          lambda u, v: _compose(alg, u._nums, v._nums))
        if g is None:
            raise SingularTensor("tensor has no two-sided inverse in A⊗A^op")
        return g

    # -- presentation ---------------------------------------------------------------

    def simple_pairs(self):
        """A list of (a, b) pairs whose tensor sum equals this operator.

        Uses the display pairs when available, otherwise decomposes the
        coefficient matrix row by row as e_i (x) (row_i).
        """
        if self.display_pairs is not None:
            return list(self.display_pairs)
        alg, n, d, nums = self.algebra, self.algebra.dim, self._d, self._nums
        rows = (nums[i * n:(i + 1) * n] for i in range(n))
        return [(alg.basis(i), cleared_element(alg, d, row))
                for i, row in enumerate(rows) if any(row)]

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


def _tensor(algebra: Algebra, d, nums, display_pairs=None) -> TensorOp:
    """The tensor with flat coefficients nums/d (`cleared_element`)."""
    t = cleared_element(algebra, d, nums, TensorOp)
    t.display_pairs = tuple(display_pairs) if display_pairs else None
    return t


def _compose(algebra: Algebra, f, g) -> list:
    """Numerators of f o g from flat numerators f and g (over _dc**2 times
    theirs) by
    (e_i (x) e_j)(e_k (x) e_l) = sum_pq C[i][k][p] C[l][j][q] e_p (x) e_q.
    Each output adds (f_ij g_kl)(C C) over nonzero f_ij, then g_kl, in the
    order of the sparse loop `algebra._product` on the table of A (x) A^op,
    so float results equal that loop's bit for bit (its C C = +-1 cases too)."""
    n, table = algebra.dim, algebra._mul_table
    out = [algebra._num_zero] * (n * n)
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
    (1 (x) e_l) o op, as its coefficients: element p multiplies x e_p.  With
    b_u = sum_j f_uj e_j row u of op, op(x) e_l = sum_u e_u x (b_u e_l), so
    coordinate u of element p is coordinate p of b_u e_l, read off the
    product kernel on the numerators over op._d * _dc (`cleared_element`).
    Float sums take `_compose`'s terms in its order, over the exact unit
    constants construction stores, so they equal it bit for bit."""
    alg, n = op.algebra, op.algebra.dim
    product, den = alg._product_kernel(), op._d * alg._dc
    rows = [op._nums[u * n:(u + 1) * n] for u in range(n)]
    units = [alg.basis(l)._nums for l in range(n)]
    return [[cleared_element(alg, den, h) for h in zip(*(product(b, e) for b in rows))]
            for e in units]


def tensor_from_pairs(pairs) -> TensorOp:
    """Standard representation of sum_s a_s (x) b_s."""
    return TensorOp.from_pairs(pairs)

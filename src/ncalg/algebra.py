"""Finite-dimensional associative unital algebras defined by structure constants.

An algebra of dimension n over the scalar field is given by an n*n*n array C
with  e_i * e_j = sum_k C[i][j][k] e_k.  Basis index 0 is always the unit.
Two scalar modes exist: exact rationals (`Fraction`) and binary floats; a
single algebra, and everything computed over it, stays in one mode.

All values here are immutable after construction, so instances can be shared
freely across threads.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .errors import (
    AlgebraMismatch,
    NonAssociative,
    NotInvertible,
    UnitLawViolation,
)
from .linalg import INCONSISTENT, FieldMatrix, row_reduce

RATIONAL = "rational"
FLOAT = "float"

#: componentwise tolerance used to validate float-mode structure constants
#: and to verify inverses in float mode
FLOAT_CHECK_TOL = 1e-9


class Algebra:
    """An associative unital algebra with a fixed basis.

    `constants[i][j][k]` is the e_k-coordinate of the product e_i * e_j.
    Construction validates the unit law for basis index 0 and the full
    associativity identity, and fails loudly naming the offending indices.
    The associativity check and `pair_products()` read the nonzero constants only.
    The derived algebra `envelope()` skips both checks and has no dense
    `constants` (None); its sparse `_mul_table` is all it needs.
    """

    __slots__ = ("name", "dim", "basis_names", "scalar_mode", "constants",
                 "_mul_table", "_name_to_index", "_basis_cache",
                 "_pair_products", "_envelope")

    def __init__(self, constants, basis_names=None, scalar_mode=RATIONAL, name=None):
        if scalar_mode not in (RATIONAL, FLOAT):
            raise ValueError(f"unknown scalar mode {scalar_mode!r}")
        n = len(constants)
        if n < 1:
            raise ValueError("algebra dimension must be >= 1")
        self.dim = n
        self.scalar_mode = scalar_mode
        self.name = name
        if basis_names is None:
            basis_names = ["1"] + [f"e{k}" for k in range(1, n)]
        basis_names = tuple(str(b) for b in basis_names)
        if len(basis_names) != n:
            raise ValueError("need exactly one name per basis element")
        if len(set(basis_names)) != n:
            raise ValueError("basis names must be distinct")
        self.basis_names = basis_names

        if len(constants) != n or any(
            len(plane) != n or any(len(row) != n for row in plane)
            for plane in constants
        ):
            raise ValueError("constants must form an n*n*n array")
        self.constants = tuple(
            tuple(tuple(self.coerce(constants[i][j][k]) for k in range(n))
                  for j in range(n))
            for i in range(n)
        )
        # sparse view of C: table[i][j] lists the nonzero (k, C[i][j][k])
        table = tuple(tuple(tuple((k, c) for k, c in enumerate(cell) if c != 0)
                            for cell in plane) for plane in self.constants)
        self._check_unit_law()
        self._check_associativity(table)
        self._set_table(table)

    def _set_table(self, mul_table):
        """Install the sparse table and reset what derives from it; shared by
        validated algebras and `envelope()`."""
        self._name_to_index = {nm: idx for idx, nm in enumerate(self.basis_names)}
        self._mul_table = mul_table
        one, zero = self.scalar_one(), self.scalar_zero()
        self._basis_cache = tuple(
            Element(self, [one if t == k else zero for t in range(self.dim)],
                    _validated=True)
            for k in range(self.dim)
        )
        self._pair_products = None
        self._envelope = None

    def envelope(self) -> "Algebra":
        """A (x) A^op, the algebra of operator tensors, built once and cached.

        Basis element i*n + j is e_i (x) e_j, and
        (e_i (x) e_j)(e_k (x) e_l) = sum_pq C[i][k][p] C[l][j][q] e_p (x) e_q,
        so the product of two tensors is their composition as operators.  The
        sparse table is derived from this algebra's validated one: nothing is
        re-checked and no dense constants are built.
        """
        if self._envelope is None:
            n, table = self.dim, self._mul_table
            env = Algebra.__new__(Algebra)
            env.name = f"{self.name or f'dim-{n}'} tensors"
            env.dim = n * n
            env.scalar_mode = self.scalar_mode
            env.basis_names = tuple(
                f"{a}⊗{b}" for a in self.basis_names for b in self.basis_names)
            env.constants = None
            env._set_table(tuple(
                tuple(
                    tuple((p * n + q, _times(c1, c2))
                          for p, c1 in table[i][k] for q, c2 in table[l][j])
                    for k in range(n) for l in range(n)
                )
                for i in range(n) for j in range(n)
            ))
            self._envelope = env
        return self._envelope

    def pair_products(self):
        """Sparse entries of L(e_i) @ R(e_j) for every basis pair, cached.

        Entry [i][j] is a tuple of (row, col, value) triples in row-major
        order; these matrices vectorize the maps x -> e_i x e_j.  Entry (q, p),
        the e_q-coordinate of e_i (e_p e_j), is summed from the sparse table.
        """
        if self._pair_products is None:
            n, table = self.dim, self._mul_table
            self._pair_products = tuple(
                tuple(
                    tuple(sorted((q, p, value) for p in range(n)
                                 for q, value in _combine(table[p][j], table[i]).items()
                                 if value != 0))
                    for j in range(n)
                )
                for i in range(n)
            )
        return self._pair_products

    # -- scalar handling ---------------------------------------------------

    def coerce(self, value):
        """Coerce a number (or 'p/q' string) into this algebra's scalar type."""
        if self.scalar_mode == RATIONAL:
            if isinstance(value, float):
                raise TypeError(
                    "float scalar in rational mode; use Fraction, int or 'p/q'"
                )
            return Fraction(value)
        if isinstance(value, str):
            return float(Fraction(value))
        return float(value)

    def scalar_json(self, value):
        """A scalar as JSON: a 'p/q' string in rational mode, else a number."""
        return str(value) if self.scalar_mode == RATIONAL else value

    def scalar_zero(self):
        return Fraction(0) if self.scalar_mode == RATIONAL else 0.0

    def scalar_one(self):
        return Fraction(1) if self.scalar_mode == RATIONAL else 1.0

    # -- validation --------------------------------------------------------

    def _scalar_close(self, a, b) -> bool:
        if self.scalar_mode == RATIONAL:
            return a == b
        return abs(a - b) <= FLOAT_CHECK_TOL

    def _check_unit_law(self):
        n = self.dim
        for j in range(n):
            for k in range(n):
                want = self.scalar_one() if j == k else self.scalar_zero()
                if not self._scalar_close(self.constants[0][j][k], want):
                    raise UnitLawViolation(
                        f"e0*e{j} has wrong e{k}-coordinate "
                        f"{self.constants[0][j][k]} (indices i=0, j={j}, k={k})"
                    )
                if not self._scalar_close(self.constants[j][0][k], want):
                    raise UnitLawViolation(
                        f"e{j}*e0 has wrong e{k}-coordinate "
                        f"{self.constants[j][0][k]} (indices i={j}, j=0, k={k})"
                    )

    def _check_associativity(self, table):
        # (e_i e_j) e_k = e_i (e_j e_k), coordinate p:
        #   sum_m C[i][j][m] C[m][k][p] = sum_m C[i][m][p] C[j][k][m]
        # summed over nonzero constants, m ascending; names the first (i,j,k,p)
        n, zero = self.dim, self.scalar_zero()
        if self.scalar_mode == RATIONAL:  # integral constants as exact, cheaper ints
            table = tuple(tuple(tuple((k, int(c) if c.denominator == 1 else c)
                                      for k, c in cell) for cell in plane)
                          for plane in table)
        columns = [tuple(plane[k] for plane in table) for k in range(n)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lhs = _combine(table[i][j], columns[k])
                    rhs = _combine(table[j][k], table[i])
                    if lhs == rhs:
                        continue
                    for p in sorted(lhs.keys() | rhs.keys()):
                        left, right = lhs.get(p, zero), rhs.get(p, zero)
                        if not self._scalar_close(left, right):
                            raise NonAssociative(
                                f"(e{i}*e{j})*e{k} != e{i}*(e{j}*e{k}) at "
                                f"coordinate p={p} (indices i={i}, j={j}, "
                                f"k={k}, p={p}): {left} != {right}"
                            )

    # -- element construction ----------------------------------------------

    def element(self, coords) -> "Element":
        return Element(self, coords)

    def zero(self) -> "Element":
        return self.element([0] * self.dim)

    def one(self) -> "Element":
        return self._basis_cache[0]

    def basis(self, k: int) -> "Element":
        return self._basis_cache[k]

    def basis_index(self, name: str) -> int | None:
        return self._name_to_index.get(name)

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Algebra)
            and self.dim == other.dim
            and self.scalar_mode == other.scalar_mode
            and self.basis_names == other.basis_names
            and self._mul_table == other._mul_table
        )

    def __hash__(self):
        return hash((self.dim, self.scalar_mode, self.basis_names))

    def __repr__(self):
        label = self.name or f"dim-{self.dim}"
        return f"Algebra({label}, {self.scalar_mode})"


def _times(a, b):
    # structure constants are overwhelmingly +-1, and a Fraction product
    # costs far more than a comparison
    return b if a == 1 else a if b == 1 else a * b


def _combine(coeffs, cells):
    """sum_m a_m x_m for the (m, a_m) in `coeffs`, where cells[m] lists the
    nonzero (k, x_m[k]), as a dict k -> sum taken in m-ascending order."""
    out = {}
    for m, a in coeffs:
        for k, c in cells[m]:
            term = _times(a, c)
            out[k] = out[k] + term if k in out else term
    return out


def make_algebra(constants, basis_names=None, scalar_mode=RATIONAL, name=None) -> Algebra:
    """Build and validate an algebra from its structure constants."""
    return Algebra(constants, basis_names, scalar_mode, name)


def quaternion_algebra(scalar_mode=RATIONAL) -> Algebra:
    """The quaternions: basis 1, i, j, k with i^2=j^2=k^2=-1, ij=k, jk=i, ki=j."""
    table = {
        (1, 1): (0, -1), (2, 2): (0, -1), (3, 3): (0, -1),
        (1, 2): (3, 1), (2, 1): (3, -1),
        (2, 3): (1, 1), (3, 2): (1, -1),
        (3, 1): (2, 1), (1, 3): (2, -1),
    }
    n = 4
    C = [[[0] * n for _ in range(n)] for _ in range(n)]
    for j in range(n):
        C[0][j][j] = 1
        C[j][0][j] = 1
    for (i, j), (k, sign) in table.items():
        C[i][j][k] = sign
    return Algebra(C, ("1", "i", "j", "k"), scalar_mode, name="quaternion")


class Element:
    """A vector of coordinates over the algebra's basis, with ring arithmetic."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: Algebra, coords, _validated=False):
        self.algebra = algebra
        if _validated:
            # trusted internal path: coords are already coerced scalars
            self.coords = tuple(coords)
            return
        coords = tuple(algebra.coerce(c) for c in coords)
        if len(coords) != algebra.dim:
            raise ValueError(
                f"need {algebra.dim} coordinates, got {len(coords)}"
            )
        self.coords = coords

    def _same_algebra(self, other: "Element"):
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise AlgebraMismatch(
                f"operands live in different algebras: "
                f"{self.algebra!r} vs {other.algebra!r}"
            )

    # -- arithmetic ----------------------------------------------------------

    # a scalar operand s of + and - stands for the element s*1

    def __add__(self, other):
        if isinstance(other, Element):
            self._same_algebra(other)
        else:
            other = self.algebra.one().scale(other)
        return Element(self.algebra,
                       [a + b for a, b in zip(self.coords, other.coords)],
                       _validated=True)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Element):
            self._same_algebra(other)
        else:
            other = self.algebra.one().scale(other)
        return Element(self.algebra,
                       [a - b for a, b in zip(self.coords, other.coords)],
                       _validated=True)

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return Element(self.algebra, [-a for a in self.coords], _validated=True)

    def __mul__(self, other):
        if isinstance(other, Element):
            self._same_algebra(other)
            n = self.algebra.dim
            table = self.algebra._mul_table
            out = [self.algebra.scalar_zero()] * n
            for i, a in enumerate(self.coords):
                if a == 0:
                    continue
                row = table[i]
                for j, b in enumerate(other.coords):
                    if b == 0:
                        continue
                    ab = a * b
                    for k, c in row[j]:
                        # structure constants are overwhelmingly +-1
                        if c == 1:
                            out[k] = out[k] + ab
                        elif c == -1:
                            out[k] = out[k] - ab
                        else:
                            out[k] = out[k] + ab * c
            return Element(self.algebra, out, _validated=True)
        return self.scale(other)

    def __rmul__(self, other):
        # scalars commute with everything, so left and right scaling agree
        return self.scale(other)

    def scale(self, factor) -> "Element":
        s = self.algebra.coerce(factor)
        return Element(self.algebra, [s * a for a in self.coords], _validated=True)

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.algebra == other.algebra
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.algebra, self.coords))

    def is_zero(self, tol: float = 0.0) -> bool:
        if tol:
            return all(abs(c) <= tol for c in self.coords)
        return all(c == 0 for c in self.coords)

    # -- regular representation ----------------------------------------------

    def left_matrix(self) -> FieldMatrix:
        """L with L @ coords(x) = coords(self * x) for every x."""
        n = self.algebra.dim
        rows = [[self.algebra.scalar_zero()] * n for _ in range(n)]
        for i, a in enumerate(self.coords):
            if a == 0:
                continue
            for j in range(n):
                for k, c in self.algebra._mul_table[i][j]:
                    rows[k][j] = rows[k][j] + a * c
        return FieldMatrix(rows)

    def right_matrix(self) -> FieldMatrix:
        """R with R @ coords(x) = coords(x * self) for every x."""
        n = self.algebra.dim
        rows = [[self.algebra.scalar_zero()] * n for _ in range(n)]
        for j, a in enumerate(self.coords):
            if a == 0:
                continue
            for i in range(n):
                for k, c in self.algebra._mul_table[i][j]:
                    rows[k][i] = rows[k][i] + a * c
        return FieldMatrix(rows)

    # -- inverse and norm ------------------------------------------------------

    def inverse(self) -> "Element":
        """Two-sided inverse, by solving L(self) y = e0 and verifying y*self.

        Works in any algebra expressible by structure constants, operator
        tensors in `Algebra.envelope()` included; raises NotInvertible when
        L(self) y = e0 has no solution or the candidate fails the two-sided
        check.
        """
        if self.is_zero():
            raise NotInvertible("zero element has no inverse")
        one = self.algebra.one()
        sol = row_reduce(self.left_matrix(), list(one.coords))
        if sol.kind == INCONSISTENT:
            raise NotInvertible(f"left regular matrix of {self} is singular")
        y = Element(self.algebra, sol.particular, _validated=True)
        if self.algebra.scalar_mode == RATIONAL:
            ok = (self * y == one) and (y * self == one)
        else:
            ok = ((self * y - one).is_zero(FLOAT_CHECK_TOL)
                  and (y * self - one).is_zero(FLOAT_CHECK_TOL))
        if not ok:
            raise NotInvertible(f"{self} has no two-sided inverse")
        return y

    def norm_squared(self):
        """Exact sum of squared coordinates (a scalar in the algebra's mode)."""
        total = self.algebra.scalar_zero()
        for c in self.coords:
            total = total + c * c
        return total

    def norm(self) -> float:
        """Euclidean norm of the coordinate vector (the quaternion norm on H)."""
        return math.sqrt(float(self.norm_squared()))

    # -- rendering ---------------------------------------------------------------

    def __str__(self):
        return format_coords(self.coords, self.algebra.basis_names)

    def __repr__(self):
        return f"Element({self})"


def format_scalar(value) -> str:
    """Render a scalar the way the equation grammar reads it back."""
    if isinstance(value, Fraction):
        return str(value)
    return repr(value)


def format_coords(coords, basis_names) -> str:
    """Canonical text form: '-1/2 - 1/2j' style, zero terms dropped."""
    parts = []
    for k, c in enumerate(coords):
        if c == 0:
            continue
        negative = c < 0
        mag = -c if negative else c
        if k == 0:
            body = format_scalar(mag)
        elif mag == 1:
            body = basis_names[k]
        else:
            body = f"{format_scalar(mag)}{basis_names[k]}"
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f"- {body}" if negative else f"+ {body}")
    if not parts:
        return "0"
    return " ".join(parts)


# -- JSON form -----------------------------------------------------------------
#
# {"name": ..., "dim": n, "basis": [...],
#  "constants": n*n*n nested array of "p/q" strings (numbers also accepted)}


def algebra_to_json(algebra: Algebra) -> dict:
    return {
        "name": algebra.name,
        "dim": algebra.dim,
        "basis": list(algebra.basis_names),
        "constants": [[[algebra.scalar_json(c) for c in row] for row in plane]
                      for plane in algebra.constants],
    }


def algebra_from_json(data, scalar_mode=RATIONAL) -> Algebra:
    """Accepts a dict or a JSON string in the format of algebra_to_json."""
    if isinstance(data, str):
        data = json.loads(data)
    dim = data["dim"]
    constants = data["constants"]
    if len(constants) != dim:
        raise ValueError("constants array does not match declared dim")
    return Algebra(
        constants,
        data.get("basis"),
        scalar_mode=scalar_mode,
        name=data.get("name"),
    )


def element_to_json(x: Element) -> list:
    return [x.algebra.scalar_json(c) for c in x.coords]


def element_from_json(algebra: Algebra, data) -> Element:
    return Element(algebra, data)

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
from .linalg import INCONSISTENT, FieldMatrix, cleared, row_reduce, solve_integer

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

    Only the nonzero constants are kept, in the sparse `_mul_table`:
    `_mul_table[i][j]` lists the (k, C[i][j][k] * _dc).  In float mode `_dc`
    is 1 and the entries are the float constants.  In rational mode `_dc` is
    the common denominator of the constants and the entries are Python ints,
    so exact products run on integer numerators (see `Element.__mul__`).
    Validation, `pair_products()` and `envelope()` all read this table; the
    dense `constants` are derived from it on request.  The derived algebra
    `envelope()` skips both checks and has no `constants` (None).
    """

    __slots__ = ("name", "dim", "basis_names", "scalar_mode", "_mul_table",
                 "_dc", "_derived", "_name_to_index", "_basis_cache",
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
        self._derived = False
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
        table = tuple(tuple(self._nonzero(row) for row in plane)
                      for plane in constants)
        self._dc = 1
        if scalar_mode == RATIONAL:
            self._dc = dc = math.lcm(*(c.denominator for plane in table
                                       for cell in plane for _, c in cell))
            table = tuple(tuple(tuple((k, c.numerator * (dc // c.denominator))
                                      for k, c in cell) for cell in plane)
                          for plane in table)
        self._check_unit_law(table)
        self._check_associativity(table)
        self._set_table(table)

    def _nonzero(self, row):
        """The coerced nonzero (k, row[k]).  Int and "0" zeros are skipped
        unread; anything else is coerced, and so type-checked, first."""
        cell = []
        for k, v in enumerate(row):
            if v == "0" or type(v) is int and v == 0:
                continue
            c = self.coerce(v)
            if c != 0:
                cell.append((k, c))
        return tuple(cell)

    @property
    def constants(self):
        """The dense n*n*n constants, derived from the sparse table; None
        for `envelope()`, which is derived rather than given."""
        if self._derived:
            return None
        n, zero = self.dim, self.scalar_zero()
        dense = []
        for plane in self._mul_table:
            rows = []
            for cell in plane:
                row = [zero] * n
                for k, c in cell:
                    row[k] = self._scalar_of(c, self._dc)
                rows.append(tuple(row))
            dense.append(tuple(rows))
        return tuple(dense)

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
        sparse table is derived from this algebra's validated one, products
        of its scaled entries over the common denominator _dc**2: nothing is
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
            env._derived = True
            env._dc = self._dc * self._dc
            env._set_table(tuple(
                tuple(
                    tuple((p * n + q, c1 * c2)
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
            n, table, scale = self.dim, self._mul_table, self._dc * self._dc
            self._pair_products = tuple(
                tuple(
                    tuple(sorted((q, p, self._scalar_of(value, scale))
                                 for p in range(n)
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

    def _scalar_of(self, value, scale):
        """The scalar value/scale, for a value read off the scaled table
        (`scale` is a power of _dc, so always 1 in float mode)."""
        return Fraction(value, scale) if self.scalar_mode == RATIONAL else value

    # -- validation --------------------------------------------------------

    def _scalar_close(self, a, b) -> bool:
        if self.scalar_mode == RATIONAL:
            return a == b
        return abs(a - b) <= FLOAT_CHECK_TOL

    def _check_unit_law(self, table):
        n, dc, zero = self.dim, self._dc, self.scalar_zero()
        left = [dict(cell) for cell in table[0]]          # e0 * e_j
        right = [dict(plane[0]) for plane in table]       # e_j * e0
        for j in range(n):
            for k in range(n):
                want = dc if j == k else 0
                for got, i, jj in ((left[j].get(k, zero), 0, j),
                                   (right[j].get(k, zero), j, 0)):
                    if not self._scalar_close(got, want):
                        raise UnitLawViolation(
                            f"e{i}*e{jj} has wrong e{k}-coordinate "
                            f"{self._scalar_of(got, dc)} "
                            f"(indices i={i}, j={jj}, k={k})"
                        )

    def _check_associativity(self, table):
        # (e_i e_j) e_k = e_i (e_j e_k), coordinate p:
        #   sum_m C[i][j][m] C[m][k][p] = sum_m C[i][m][p] C[j][k][m]
        # summed over nonzero constants, m ascending, both sides scaled by
        # _dc**2 (exact ints in rational mode); names the first (i,j,k,p)
        n, zero, scale = self.dim, self.scalar_zero(), self._dc * self._dc
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
                                f"k={k}, p={p}): {self._scalar_of(left, scale)} "
                                f"!= {self._scalar_of(right, scale)}"
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
            and self._dc == other._dc
            and self._mul_table == other._mul_table
        )

    def __hash__(self):
        return hash((self.dim, self.scalar_mode, self.basis_names))

    def __repr__(self):
        label = self.name or f"dim-{self.dim}"
        return f"Algebra({label}, {self.scalar_mode})"


def _combine(coeffs, cells):
    """sum_m a_m x_m for the (m, a_m) in `coeffs`, where cells[m] lists the
    nonzero (k, x_m[k]), as a dict k -> sum taken in m-ascending order."""
    out = {}
    for m, a in coeffs:
        for k, c in cells[m]:
            term = a * c
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
    """A vector of coordinates over the algebra's basis, with ring arithmetic.

    In rational mode products run on integers: each operand is cleared to
    integer numerators over the lcm of its denominators, multiplied through
    the integer table, and one `Fraction` is built per output coordinate.
    """

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
            alg = self.algebra
            if alg.scalar_mode != RATIONAL:
                return Element(alg, _product(alg._mul_table, self.coords,
                                             other.coords, alg.scalar_zero()),
                               _validated=True)
            da, xa = cleared(self.coords)
            db, xb = cleared(other.coords)
            den = da * db * alg._dc
            return Element(alg, [Fraction(v, den) if v else _ZERO
                                 for v in _product(alg._mul_table, xa, xb, 0)],
                           _validated=True)
        return self.scale(other)

    def minus_product(self, f: "Element", g: "Element") -> "Element":
        """self - f*g in one pass: the row update of exact elimination.

        Rational mode only.  `ClearedRing.update` on the three operands
        cleared to integers, so each coordinate costs one `Fraction`
        instead of a product and a difference.
        """
        ring = ClearedRing(self.algebra)
        return ring.element(ring.update(ring.clear(self), ring.clear(f),
                                        ring.clear(g)))

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
        alg = self.algebra
        if alg.scalar_mode != RATIONAL:
            return FieldMatrix(_left_rows(alg._mul_table, self.coords, 0.0))
        # the table holds the constants times _dc
        d, xa = cleared(self.coords)
        den = d * alg._dc
        return FieldMatrix([[Fraction(v, den) for v in row]
                            for row in _left_rows(alg._mul_table, xa, 0)])

    def right_matrix(self) -> FieldMatrix:
        """R with R @ coords(x) = coords(x * self) for every x."""
        n, dc = self.algebra.dim, self.algebra._dc
        rows = [[self.algebra.scalar_zero()] * n for _ in range(n)]
        for j, a in enumerate(self.coords):
            if a == 0:
                continue
            if dc != 1:
                a = a / dc
            for i in range(n):
                for k, c in self.algebra._mul_table[i][j]:
                    rows[k][i] = rows[k][i] + a * c
        return FieldMatrix(rows)

    # -- inverse and norm ------------------------------------------------------

    def inverse(self) -> "Element":
        """Two-sided inverse, by solving L(self) y = e0 and verifying y*self.

        In rational mode no `Fraction` matrix is formed: self = xa/da over
        the table scaled by _dc gives L(self) = L(xa)/(da*_dc), so the
        integer system L(xa) y = da*_dc*e0 goes to fraction-free elimination
        (`linalg.solve_integer`).  Works in any algebra expressible by
        structure constants, operator tensors in `Algebra.envelope()`
        included; raises NotInvertible when L(self) y = e0 has no solution
        or the candidate fails the two-sided check.
        """
        if self.is_zero():
            raise NotInvertible("zero element has no inverse")
        alg = self.algebra
        one = alg.one()
        if alg.scalar_mode == RATIONAL:
            da, xa = cleared(self.coords)
            sol = solve_integer(_left_rows(alg._mul_table, xa, 0),
                                [da * alg._dc] + [0] * (alg.dim - 1))
        else:
            sol = row_reduce(self.left_matrix(), list(one.coords))
        if sol.kind == INCONSISTENT:
            raise NotInvertible(f"left regular matrix of {self} is singular")
        y = Element(alg, sol.particular, _validated=True)
        if alg.scalar_mode == RATIONAL:
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
        """Euclidean norm of the coordinate vector (the quaternion norm on H).

        An exact square beyond the float range is scaled by an even power of
        two before its square root is taken; a norm that itself exceeds the
        float range is `math.inf`.
        """
        squared = self.norm_squared()
        try:
            return math.sqrt(float(squared))
        except OverflowError:  # only exact squares overflow a conversion
            num, den = squared.numerator, squared.denominator
            shift = (num.bit_length() - den.bit_length()) // 2
            try:
                return math.ldexp(math.sqrt(num / (den << 2 * shift)), shift)
            except OverflowError:
                return math.inf

    # -- rendering ---------------------------------------------------------------

    def __str__(self):
        return format_coords(self.coords, self.algebra.basis_names)

    def __repr__(self):
        return f"Element({self})"


_ZERO = Fraction(0)


class ClearedRing:
    """Exact elements of one algebra as cleared entries (d, numerators),
    worth numerators/d, with d > 0 and gcd(d, numerators) = 1 as `cleared`
    returns them, so that equal values have equal entries.

    Exact `solvers.nc_row_reduce` hands this ring to `linalg.eliminate`:
    each entry is cleared once per elimination, pivot divisions and row
    updates run on integers, and `Element`s are built only at extraction.
    """

    __slots__ = ("algebra", "zero")

    def __init__(self, algebra: Algebra):
        self.algebra = algebra
        self.zero = (1, [0] * algebra.dim)

    @staticmethod
    def clear(x: Element) -> tuple:
        return cleared(x.coords)

    def element(self, entry) -> Element:
        d, nums = entry
        return Element(self.algebra, [Fraction(v, d) if v else _ZERO for v in nums],
                       _validated=True)

    @staticmethod
    def is_zero(entry) -> bool:
        return not any(entry[1])

    def _reduced(self, d, nums):
        g = math.gcd(d, *nums)
        return (d, nums) if g == 1 else (d // g, [v // g for v in nums])

    def divider(self, pivot):
        """v -> pivot^-1 v, through `Element.inverse`."""
        alg = self.algebra
        di, xi = cleared(self.element(pivot).inverse().coords)
        return lambda v: self._reduced(di * v[0] * alg._dc,
                                       _product(alg._mul_table, xi, v[1], 0))

    def update(self, a, f, g):
        """a - f*g, over the lcm of the two denominators."""
        alg = self.algebra
        (da, xa), (df, xf), (dg, xg) = a, f, g
        dp = df * dg * alg._dc
        den = math.lcm(da, dp)
        sa, sp = den // da, den // dp
        return self._reduced(den, [x * sa - p * sp for x, p in
                                   zip(xa, _product(alg._mul_table, xf, xg, 0))])


def _left_rows(table, xa, zero):
    """Rows of L(a) through a sparse table, for a's coordinates xa: floats
    in float mode, integers in rational mode (the table's scale included)."""
    n = len(xa)
    rows = [[zero] * n for _ in range(n)]
    for i, a in enumerate(xa):
        if a == 0:
            continue
        for j in range(n):
            for k, c in table[i][j]:
                rows[k][j] = rows[k][j] + a * c
    return rows


def _product(table, xa, xb, zero):
    """Coordinates of the product of coordinate vectors xa and xb through a
    sparse table: floats in float mode, integer numerators in rational mode."""
    out = [zero] * len(xa)
    for i, a in enumerate(xa):
        if a == 0:
            continue
        row = table[i]
        for j, b in enumerate(xb):
            if b == 0:
                continue
            ab = a * b
            for k, c in row[j]:
                # structure constants are overwhelmingly +-1
                if c == 1:
                    out[k] += ab
                elif c == -1:
                    out[k] -= ab
                else:
                    out[k] += ab * c
    return out


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

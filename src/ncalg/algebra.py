"""Finite-dimensional associative unital algebras defined by structure constants.

An algebra of dimension n over the scalar field is given by an n*n*n array C
with  e_i * e_j = sum_k C[i][j][k] e_k.  Basis index 0 is always the unit.
Two scalar modes exist: exact rationals (`Fraction`) and binary floats; a
single algebra, and everything computed over it, stays in one mode.  An
element and an operator tensor (`tensor.TensorOp`) are one stored-pair type
(`_StoredPair`) in both modes: numerators over one denominator, reduced
integers in rational mode and the float coordinates over 1 in float mode.
Every value computed is made from its numerators (`cleared_element`); exact
`Fraction`s are built on first read, the same whichever thread reads them
first.

All values here are immutable after construction, so instances can be shared
freely across threads.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import re
from fractions import Fraction

from .errors import (
    AlgebraMismatch,
    NonAssociative,
    NotInvertible,
    UnitLawViolation,
)
from .linalg import INCONSISTENT, cleared, solve_float, solve_integer

RATIONAL = "rational"
FLOAT = "float"

#: componentwise tolerance used to validate float-mode structure constants
#: and to verify inverses in float mode
FLOAT_CHECK_TOL = 1e-9

# The equation grammar's NAME, for basis names and the parser's tokens
# alike: a letter or "_", then letters, digits or "_" (\w is str.isalnum or
# "_").  The first class also matches a numeral that is no decimal digit,
# such as "²", which only `_is_name`'s test of the first character refuses.
_NAME = re.compile(r"[^\W\d]\w*")


def _is_name(text: str) -> bool:
    """Whether `text` is a NAME of the equation grammar."""
    return (text[:1].isalpha() or text[:1] == "_") and _NAME.fullmatch(text) is not None


class Algebra:
    """An associative unital algebra with a fixed basis.

    `constants[i][j][k]` is the e_k-coordinate of the product e_i * e_j.
    Construction validates the unit law for basis index 0 and the full
    associativity identity, and fails loudly naming the offending indices.

    Only the nonzero constants are kept, in the sparse `_mul_table`:
    `_mul_table[i][j]` lists the (k, C[i][j][k] * _dc).  In float mode `_dc`
    is 1 and the entries are the float constants.  In rational mode `_dc` is
    the common denominator of the constants and the entries are Python ints,
    so exact products run on integer numerators.  Products go through the
    kernel that `_product_kernel` compiles from this table, in both modes,
    and the contractions `pair_coefficients` and `operator_rows` through
    kernels compiled on their first call; none is compiled at construction.
    Validation reads this table, as do the operator tensors' composition
    (`tensor._compose`) and the pair products, which are per-table data
    (`_pair_products`); the dense `constants` are derived from it on
    request, and an algebra pickles and copies as them, through this
    constructor.
    """

    __slots__ = ("name", "dim", "basis_names", "scalar_mode", "_mul_table",
                 "_dc", "_num_zero", "_name_to_index", "_basis_cache", "_zero",
                 "_kernel", "_traces", "_pairs_kernel", "_rows_kernel")

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
        # printed answers name every basis element but the unit
        for nm in basis_names[1:]:
            if not _is_name(nm):
                raise ValueError(f"basis name {nm!r} is not a name the equation "
                                 'grammar reads: a letter or "_", then letters, '
                                 'digits or "_"')
        self.basis_names = basis_names
        self._name_to_index = {nm: idx for idx, nm in enumerate(basis_names)}

        if any(len(plane) != n or any(len(row) != n for row in plane)
               for plane in constants):
            raise ValueError("constants must form an n*n*n array")
        table = tuple(tuple(self._nonzero(row) for row in plane)
                      for plane in constants)
        # the stored numerators' zero, which every sum of them starts from
        self._dc, self._num_zero = 1, 0.0
        if scalar_mode == RATIONAL:
            # a table of ints (`_nonzero`) is its own numerators over 1
            self._num_zero = 0
            fractions = [c for plane in table for cell in plane for _, c in cell
                         if type(c) is not int]
            self._dc = dc = math.lcm(*(c.denominator for c in fractions))
            if fractions:
                table = tuple(tuple(tuple((k, c.numerator * (dc // c.denominator))
                                          for k, c in cell) for cell in plane)
                              for plane in table)
        table = self._check_unit_law(table)
        self._check_associativity(table)
        self._mul_table, self._kernel, self._traces = table, None, None
        self._pairs_kernel = self._rows_kernel = None
        zero = self._num_zero
        self._basis_cache = tuple(cleared_element(self, 1, _unit(n, zero + 1, zero, k))
                                  for k in range(n))
        self._zero = cleared_element(self, 1, [zero] * n)

    def _nonzero(self, row):
        """The coerced nonzero (k, row[k]).  Int and "0" zeros are skipped
        unread; anything else is coerced, and so type-checked, first.  An
        int, or its plain decimal text, is kept as an int in rational mode,
        where the table holds integer numerators anyway, and made a float
        directly in float mode, which rounds as `coerce` does; no `Fraction`
        is built for it.  A float constant must be finite: the unit-law and
        associativity checks find inf equal to inf."""
        exact, cell = self.scalar_mode == RATIONAL, []
        for k, v in enumerate(row):
            if v == "0" or type(v) is int and v == 0:
                continue
            if type(v) is int or (type(v) is str and v.isascii()
                                  and v.removeprefix("-").isdigit()):
                try:
                    c = int(v) if exact else float(int(v))
                except OverflowError:  # beyond the float range: coerce names it
                    c = self.coerce(v)
            else:
                c = self.coerce(v)
            if c != 0:
                if not exact and not math.isfinite(c):
                    raise ValueError(f"structure constant {c} is not finite")
                cell.append((k, c))
        return tuple(cell)

    @property
    def constants(self):
        """The dense n*n*n constants, derived from the sparse table."""
        dense = []
        for plane in self._mul_table:
            rows = []
            for cell in plane:
                row = [self._num_zero] * self.dim
                for k, c in cell:
                    row[k] = c
                rows.append(self._scalars(self._dc, row))
            dense.append(tuple(rows))
        return tuple(dense)

    def _product_kernel(self):
        """The map (xa, xb) -> coordinates of the product of coordinate
        vectors xa and xb: floats in float mode, and in rational mode the
        integer numerators, over _dc, of the product of integer vectors.

        Compiled on first use into one straight-line kernel per equal table
        and scalar mode (`_compiled_product`), whose results are the sparse
        loop `_product`'s, bit for bit in float mode.
        """
        if self._kernel is None:
            self._kernel = _compiled_product(self._mul_table, self.scalar_mode)
        return self._kernel

    def _trace_vector(self) -> tuple:
        """The nonzero (m, T_m), T_m = tr L(e_m) on the table's scale (the
        entries C[m][j][j] * _dc summed over j), so that tr L(_dc * q) =
        sum_m T_m q_m for integer q.  Built on first use and kept."""
        if self._traces is None:
            traces = ((m, sum(c for j, cell in enumerate(plane) for k, c in cell if k == j))
                      for m, plane in enumerate(self._mul_table))
            self._traces = tuple((m, t) for m, t in traces if t)
        return self._traces

    def pair_products(self):
        """Sparse L(e_i) @ R(e_j), the maps x -> e_i x e_j, for every basis
        pair: entry [i][j] lists the (q, p, value) in row-major order, value
        the e_q-coordinate of e_i (e_p e_j) on the table's scale (in rational
        mode an int, the entry times _dc**2), summed over the nonzero
        constants, m ascending: `_pair_products` of the table."""
        return _pair_products(self._mul_table, self.scalar_mode)

    # -- scalar handling ---------------------------------------------------

    def coerce(self, value):
        """Coerce a number (or 'p/q' string) into this algebra's scalar type;
        a zero denominator raises ValueError."""
        try:
            if self.scalar_mode == RATIONAL:
                if type(value) is Fraction:  # immutable: kept as it is
                    return value
                if isinstance(value, float):
                    raise TypeError(
                        "float scalar in rational mode; use Fraction, int or 'p/q'"
                    )
                return Fraction(value)
            if isinstance(value, str):
                return float(Fraction(value))
            return float(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in scalar {value!r}") from None
        except OverflowError:  # float() of a number beyond the float range
            raise ValueError(f"scalar {value!r} is beyond the float range") from None

    def scalar_json(self, value):
        """A scalar as JSON: a 'p/q' string in rational mode, else a number."""
        return str(value) if self.scalar_mode == RATIONAL else value

    def scalar_zero(self):
        return Fraction(0) if self.scalar_mode == RATIONAL else 0.0

    def scalar_one(self):
        return Fraction(1) if self.scalar_mode == RATIONAL else 1.0

    def _pair(self, values) -> tuple:
        """(d, nums): coerced scalars in the layout of elements and tensors,
        numerators over one denominator.  In rational mode these are the
        integers over the least common denominator (reduced, for reduced
        `Fraction`s); in float mode the floats themselves over d = 1."""
        if self.scalar_mode == RATIONAL:
            d, nums = cleared(values)
            return d, tuple(nums)
        return 1, tuple(values)

    def _scalars(self, d, nums) -> tuple:
        """The scalars nums/d of a stored pair, the inverse of `_pair`: one
        `Fraction` each in rational mode, the float numerators as they are."""
        if self.scalar_mode == RATIONAL:
            return tuple(Fraction(v, d) for v in nums)
        return tuple(nums)

    # -- validation --------------------------------------------------------

    def _scalar_close(self, a, b) -> bool:
        if self.scalar_mode == RATIONAL:
            return a == b
        return abs(a - b) <= FLOAT_CHECK_TOL

    def _check_unit_law(self, table) -> tuple:
        """Check that e_0 is the unit, naming the first wrong coordinate; return
        the table with e_0 e_j = e_j e_0 = e_j exactly, also in float mode.
        A table that holds the exact unit passes at once."""
        n, dc, zero = self.dim, self._dc, self._num_zero
        unit = tuple(((j, zero + dc),) for j in range(n))
        if table[0] != unit or any(plane[0] != cell for plane, cell in zip(table, unit)):
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
                                f"{self._scalars(dc, (got,))[0]} "
                                f"(indices i={i}, j={jj}, k={k})"
                            )
        return (unit, *((unit[i], *plane[1:]) for i, plane in enumerate(table[1:], 1)))

    def _check_associativity(self, table):
        """Check (e_i e_j) e_k = e_i (e_j e_k) at every coordinate p,
            sum_m C[i][j][m] C[m][k][p] = sum_m C[i][m][p] C[j][k][m].
        A table of integers, which every rational table is (scaled by _dc)
        and a float one may be, passes at once if `_exactly_associative`
        proves it.  Any other table is checked term by term: summed over
        nonzero constants, m ascending, scaled by _dc**2, within
        FLOAT_CHECK_TOL in float mode, naming the first failing
        (i, j, k, p)."""
        if _exactly_associative(table, self.scalar_mode == RATIONAL):
            return
        n, zero, scale = self.dim, self._num_zero, self._dc * self._dc
        columns = [tuple(plane[k] for plane in table) for k in range(n)]
        for i, j, k in itertools.product(range(n), repeat=3):
            lhs = _combine(table[i][j], columns[k])
            rhs = _combine(table[j][k], table[i])
            if lhs == rhs:
                continue
            for p in sorted(lhs.keys() | rhs.keys()):
                left, right = lhs.get(p, zero), rhs.get(p, zero)
                if not self._scalar_close(left, right):
                    left, right = self._scalars(scale, (left, right))
                    raise NonAssociative(
                        f"(e{i}*e{j})*e{k} != e{i}*(e{j}*e{k}) at "
                        f"coordinate p={p} (indices i={i}, j={j}, "
                        f"k={k}, p={p}): {left} != {right}"
                    )

    # -- element construction ----------------------------------------------

    def element(self, coords) -> "Element":
        return Element(self, coords)

    def zero(self) -> "Element":
        return self._zero

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

    def __reduce__(self):
        """Pickle and copy through the constructor, which validates the
        constants again; the compiled kernels, which pickle cannot name,
        come again on first use (from the process's caches, if it holds
        them)."""
        return Algebra, (self.constants, self.basis_names, self.scalar_mode, self.name)

    def __repr__(self):
        label = self.name or f"dim-{self.dim}"
        return f"Algebra({label}, {self.scalar_mode})"


def _exactly_associative(table, exact) -> bool:
    """Whether a sparse table of integers (`exact`; else of floats, which
    must all be integers small enough that every sum the term-by-term check
    forms is exact) is associative, exactly; False also where it does not
    apply.

    For each i, the n**3 coordinates (j, k, p) of (e_i e_j) e_k and of
    e_i (e_j e_k) are compared at once, each side packed into one integer
    (Kronecker substitution): a vector v packs to sum_t v_t 2**(w t), with
    slot t = n*n*j + n*k + p, which is linear in v and one to one while
    every |v_t| < 2**(w-1); each coordinate is a sum of n products of
    constants.  Packed over the slots named,
        P[i][m] = e_i e_m over p,  R[m] = e_m e_k over (k, p),
        B[m] = C[j][k][m] over (j, k),
    the sides are sum_jm C[i][j][m] R[m] 2**(w n n j) and sum_m P[i][m] B[m]:
    one pass over the nonzero constants to pack, one to compare."""
    n = len(table)
    values = [c for plane in table for cell in plane for _, c in cell]
    big = max(map(abs, values))
    if not exact:
        if n * big * big >= 2 ** 53 or not all(c.is_integer() for c in values):
            return False
        big = int(big)
        table = tuple(tuple(tuple((k, int(c)) for k, c in cell) for cell in plane)
                      for plane in table)
    w = (n * big * big).bit_length() + 1
    P, R, B = [[0] * n for _ in range(n)], [0] * n, [0] * n
    for i, plane in enumerate(table):
        for j, cell in enumerate(plane):
            for k, c in cell:
                P[i][j] += c << w * k
                R[i] += c << w * (n * j + k)
                B[k] += c << w * n * (n * i + j)
    for i, plane in enumerate(table):
        lhs = 0
        for j, cell in enumerate(plane):
            for m, a in cell:
                lhs += a * R[m] << w * n * n * j
        if lhs != sum(map(operator.mul, P[i], B)):
            return False
    return True


def _combine(coeffs, cells):
    """sum_m a_m x_m for the (m, a_m) in `coeffs`, where cells[m] lists the
    nonzero (k, x_m[k]), as a dict k -> sum taken in m-ascending order."""
    out = {}
    for m, a in coeffs:
        for k, c in cells[m]:
            term = a * c
            out[k] = out[k] + term if k in out else term
    return out


def pair_coefficients(algebra: Algebra, pairs) -> tuple:
    """(d, f): the flat n*n coefficients f[i*n + j]/d of e_i (x) e_j in
    sum_s a_s (x) b_s, for a list of pairs.  Rational pairs come as
    numerators (q, xa, xb), a_s (x) b_s = (xa (x) xb)/q, each scaled to d,
    the lcm of the q, and summed on integers; float pairs come as their
    coordinate lists (xa, xb), with d = 1.  The sum f_(i*n+j) += a_i*b_j runs
    pair by pair through a straight-line kernel compiled on the algebra's
    first call (`_compiled_pairs`), whose float results are the loop
    `_pairs`'s, bit for bit."""
    kernel = algebra._pairs_kernel
    if kernel is None:
        kernel = algebra._pairs_kernel = _compiled_pairs(algebra.dim,
                                                         algebra.scalar_mode)
    if algebra.scalar_mode != RATIONAL:
        return 1, kernel(pairs)
    d = math.lcm(*[q for q, _, _ in pairs])
    return d, kernel([(xa if q == d else [d // q * v for v in xa], xb)
                      for q, xa, xb in pairs])


def operator_rows(algebra: Algebra, d, coeff) -> tuple:
    """(den, rows): the n x n matrix rows/den of x -> sum_ij f_ij e_i x e_j
    for flat f = coeff/d (f_ij at i*n + j), summed over `pair_products()` in
    row-major (i, j) order: the one contraction behind every linear map.
    Exact coeff are integers and give integer rows over den = d * _dc**2,
    the pair products' scale; float ones give float rows (d = den = 1).
    The sums run through a straight-line kernel compiled once per equal
    table and scalar mode (`_compiled_rows`), whose float results are the
    loop `_rows`'s, bit for bit."""
    kernel = algebra._rows_kernel
    if kernel is None:
        kernel = algebra._rows_kernel = _compiled_rows(algebra._mul_table,
                                                       algebra.scalar_mode)
    return d * algebra._dc ** 2, kernel(coeff)


def solve_inverse(x, rows, rhs, build, product):
    """The inverse of x, a `tensor.TensorOp` in either mode or a float
    `Element` (exact elements use `Element._inverse`), as build(d, y), y/d
    solving rows y = rhs, x's operator matrix against the unit; None if
    there is none.  Rational systems are solved fraction-free by
    `solve_integer`, and need no check (see `Element.inverse`); float ones
    by `solve_float`, and y must make the numerators product(x, y) and
    product(y, x) the unit's within FLOAT_CHECK_TOL."""
    exact = x.algebra.scalar_mode == RATIONAL
    # the solve works in place, and the float check reads the unit after it
    d, sol = (solve_integer if exact else solve_float)(rows, list(rhs))
    if sol.kind == INCONSISTENT:
        return None
    y = build(d, sol.particular)
    return y if exact or all(abs(v - w) <= FLOAT_CHECK_TOL
                             for h in (product(x, y), product(y, x))
                             for v, w in zip(h, rhs)) else None


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


class _StoredPair:
    """The one layout of `Element` and `tensor.TensorOp` (`Algebra._pair`):
    numerators `_nums` over a denominator `_d`, integers with _d > 0 and
    gcd(_d, *_nums) = 1 in rational mode, so equal values have equal pairs
    (FLINT's `fmpq_poly` layout), floats over _d = 1 in float mode.  Equal
    when type, algebra and pair are; scalars are built on first read."""

    __slots__ = ("algebra", "_d", "_nums", "_coords")

    def _read_scalars(self) -> tuple:
        """The scalars nums/d, built on the first read and kept."""
        coords = self._coords
        if coords is None:
            self._coords = coords = self.algebra._scalars(self._d, self._nums)
        return coords

    def __eq__(self, other):
        return (type(other) is type(self) and self.algebra == other.algebra
                and self._d == other._d and self._nums == other._nums)

    def __hash__(self):
        return hash((self.algebra, self._d, self._nums))

    def is_zero(self, tol: float = 0.0) -> bool:
        if tol:
            return all(abs(c) <= tol for c in self._read_scalars())
        return not any(self._nums)


class Element(_StoredPair):
    """A vector of coordinates over the algebra's basis, with ring arithmetic.

    Stored as a `_StoredPair`.  Arithmetic runs on the pair, and products
    pass the numerators to the algebra's kernel (`Algebra._product_kernel`),
    with one gcd per exact result.  Float sums scale no numerator and
    `cleared_element` divides no pair over 1, so float results are the
    coordinatewise IEEE ones; a product whose compiled result holds a NaN
    (0*inf where the sparse loop skips the zero) is recomputed by the loop.
    """

    __slots__ = ()

    def __init__(self, algebra: Algebra, coords):
        coords = tuple(algebra.coerce(c) for c in coords)
        if len(coords) != algebra.dim:
            raise ValueError(f"need {algebra.dim} coordinates, got {len(coords)}")
        self.algebra, self._coords = algebra, coords
        self._d, self._nums = algebra._pair(coords)

    coords = property(_StoredPair._read_scalars, doc="The coordinates, as scalars "
                      "of the algebra's mode.")

    def _same_algebra(self, other: "Element"):
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise AlgebraMismatch(
                f"operands live in different algebras: "
                f"{self.algebra!r} vs {other.algebra!r}"
            )

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return -self + other

    def _plus(self, other, sign):
        # a scalar operand s of + and - stands for the element s*1
        if isinstance(other, Element):
            self._same_algebra(other)
        else:
            other = self.algebra.one().scale(other)
        return _pair_sum(self.algebra, self._d, self._nums, other._d, other._nums, sign)

    def __neg__(self):
        return cleared_element(self.algebra, self._d, [-v for v in self._nums])

    def __mul__(self, other):
        if isinstance(other, Element):
            self._same_algebra(other)
            alg = self.algebra
            return cleared_element(alg, self._d * other._d * alg._dc,
                                   alg._product_kernel()(self._nums, other._nums))
        return self.scale(other)

    def __rmul__(self, other):
        # scalars commute with everything, so left and right scaling agree
        return self.scale(other)

    def minus_product(self, f: "Element", g: "Element") -> "Element":
        """self - f*g, the row update of the algebra-valued elimination: one
        pass over the numerators (in rational mode over one lcm, one gcd)."""
        alg = self.algebra
        return _pair_sum(alg, self._d, self._nums, f._d * g._d * alg._dc,
                         alg._product_kernel()(f._nums, g._nums), -1)

    def scale(self, factor) -> "Element":
        alg = self.algebra
        q, (p,) = alg._pair((alg.coerce(factor),))
        return cleared_element(alg, self._d * q, [p * v for v in self._nums])

    def _operator_rows(self) -> tuple:
        """`operator_rows` of self (x) 1, the map x -> self x."""
        n = self.algebra.dim
        # the mode's zero: a float kernel adds int zeros more slowly
        coeff = [self.algebra._num_zero] * (n * n)
        coeff[::n] = self._nums
        return operator_rows(self.algebra, self._d, coeff)

    # -- inverse and norm ------------------------------------------------------

    def inverse(self) -> "Element":
        """Two-sided inverse; raises NotInvertible when there is none.

        In rational mode y is read off the characteristic polynomial of
        L(a) (`_inverse`), as integers over one denominator, and needs no
        check: a*y = 1 in a finite-dimensional associative unital algebra
        forces y*a = 1, since L(a) is then onto, hence injective, and
        a*(y*a) = (a*y)*a = a.  In float mode `operator_rows` gives
        L(a) = rows/den, y solves rows y = den*e0 (`solve_inverse`), and is
        checked on both sides within FLOAT_CHECK_TOL.
        """
        y = self._inverse()
        if y is None:
            if self.is_zero():
                raise NotInvertible("zero element has no inverse")
            raise NotInvertible(f"{self} has no two-sided inverse")
        return y

    def _inverse(self):
        """`inverse`, or None where it raises; formats no message, so that
        the pivot search of `solvers.nc_row_reduce` can try zero divisors
        without building their coordinates.

        Rational mode runs no elimination.  B = _dc * (the numerators) is an
        integer element, and L is a faithful homomorphism, so the
        characteristic polynomial of L(B) (`_characteristic`) vanishes at B
        in A (Cayley-Hamilton): B^-1 = -(c_(n-1) + sum_(j=1..n-1)
        c_(n-1-j) B^j) / c_n, none when c_n = +-det L(B) is 0, and
        self^-1 = _dc * _d * B^-1, one reduced pair (`cleared_element`).
        """
        if self.is_zero():
            return None
        alg = self.algebra
        if alg.scalar_mode != RATIONAL:
            den, rows = self._operator_rows()
            return solve_inverse(self, rows, [den * v for v in alg.one()._nums],
                                 functools.partial(cleared_element, alg),
                                 lambda u, v: (u * v)._nums)
        n, dc = alg.dim, alg._dc
        c, powers = _characteristic(self)
        if c[n] == 0:
            return None
        # sum_(j=1..n-1) c_(n-1-j) Q_j, coordinate by coordinate
        coefficients = c[:n - 1][::-1]
        total = [sum(map(operator.mul, coefficients, column)) for column in zip(*powers)]
        # the sign of c_n moves into the numerators
        scale = -dc * self._d if c[n] > 0 else dc * self._d
        nums = [scale * dc * t for t in total]
        nums[0] += scale * c[n - 1]
        return cleared_element(alg, abs(c[n]), nums)

    def norm_squared(self):
        """Exact sum of squared coordinates (a scalar in the algebra's mode):
        the squared numerators summed in order, over _d**2."""
        total = self.algebra._num_zero
        for v in self._nums:
            total = total + v * v
        return self.algebra._scalars(self._d * self._d, (total,))[0]

    def norm(self) -> float:
        """Euclidean norm of the coordinate vector (the quaternion norm on H),
        by `root_of_square`, so exact squares beyond the float range work."""
        return root_of_square(self.norm_squared())

    # -- rendering ---------------------------------------------------------------

    def __str__(self):
        return format_coords(self.coords, self.algebra.basis_names)

    def __repr__(self):
        return f"Element({self})"


def cleared_element(algebra: Algebra, d, nums, cls=Element) -> Element:
    """The element nums/d, made from its numerators as every computed value
    is: integers over d > 0, stored divided by gcd(d, *nums), or floats over
    d = 1, stored as they are; no scalar is built before it is read.  With
    `cls` a `tensor.TensorOp`, the tensor with flat coefficients nums/d."""
    if d != 1:
        g = math.gcd(d, *nums)
        if g != 1:
            d, nums = d // g, [v // g for v in nums]
    x = object.__new__(cls)
    x.algebra, x._d, x._nums, x._coords = algebra, d, tuple(nums), None
    return x


def _characteristic(x: Element) -> tuple:
    """(c, powers): for the integer element B = _dc * (x's numerators), the
    integer coefficients c[0] = 1, c[1], ..., c[n] of the characteristic
    polynomial sum_k c[k] t^(n-k) of L(B), and B^k = _dc * powers[k-1] for
    k = 1..n, n - 1 products on the numerators (`Algebra._product_kernel`).

    Le Verrier's traces of powers S_k = tr L(B^k) = sum_m T_m powers[k-1][m]
    (`Algebra._trace_vector`) give the c[k] by Newton's identities
    k c_k = -sum_(i=1..k) S_i c_(k-i), each division exact (Householder,
    "The Theory of Matrices in Numerical Analysis", 1964, 6.7).
    """
    alg, p = x.algebra, x._nums
    product, traces = alg._product_kernel(), alg._trace_vector()
    powers = [p]
    for _ in range(alg.dim - 1):
        powers.append(product(powers[-1], p))
    s = [sum(t * q[m] for m, t in traces) for q in powers]
    c = [1]
    for k in range(1, alg.dim + 1):
        c.append(-sum(map(operator.mul, s, reversed(c))) // k)
    return c, powers


def _unit(size: int, one, zero, index: int = 0) -> list:
    """The coordinates of basis unit `index` out of `size`."""
    return [one if t == index else zero for t in range(size)]


def _pair_sum(algebra, da, xa, db, xb, sign):
    """xa/da + sign * xb/db as an element, over lcm(da, db); numerators over
    one denominator, every float pair included, add or subtract as they are."""
    if da == db:
        return cleared_element(algebra, da, [a + b for a, b in zip(xa, xb)] if sign > 0
                               else [a - b for a, b in zip(xa, xb)])
    d = math.lcm(da, db)
    sa, sb = d // da, sign * (d // db)
    return cleared_element(algebra, d, [a * sa + b * sb for a, b in zip(xa, xb)])


def root_of_square(squared) -> float:
    """The float square root of a float or `Fraction` square; an exact square
    beyond the float range is scaled by an even power of two first, and a
    root that itself exceeds it is `math.inf`."""
    try:
        return math.sqrt(float(squared))
    except OverflowError:  # only exact squares overflow a conversion
        num, den = squared.numerator, squared.denominator
        shift = (num.bit_length() - den.bit_length()) // 2
        try:
            return math.ldexp(math.sqrt(num / (den << 2 * shift)), shift)
        except OverflowError:
            return math.inf


@functools.lru_cache
def _compiled_product(table, scalar_mode):
    """The product of coordinate vectors through a sparse table, as one
    straight-line function compiled from it, returning what `_product`
    returns on every input.  Output k sums a_i*b_j*c over the cells (i, j)
    holding (k, c), in the loop's i-then-j order (`_scaled`).

    Rational mode multiplies integer numerators.  Float mode starts every
    output from `0.0 +`, as the loop's accumulators do (`_entries`).  It
    multiplies the zero coordinates the loop skips; a zero term leaves a
    sum unchanged unless its other factor is infinite or NaN, where 0*inf
    gives NaN.  So an output holding a NaN is computed again by `_product`.

    The cache key holds the scalar mode: an int table equals, and hashes
    like, the float table of the same constants.
    """
    n, exact = len(table), scalar_mode == RATIONAL
    scope = {} if exact else {"loop": lambda xa, xb: _product(table, xa, xb, 0.0)}
    sums = [[] for _ in range(n)]
    for i, plane in enumerate(table):
        for j, cell in enumerate(plane):
            for k, c in cell:
                sums[k].append(_scaled(f"a{i}*b{j}", c, scope))
    return _compiled(scope, "xa, xb", [_unpack("a", n, "xa"), _unpack("b", n, "xb")],
                     _entries(sums, exact), None if exact else "sum(out)")


def _product(table, xa, xb, zero):
    """Coordinates of the product of coordinate vectors xa and xb through a
    sparse table: floats in float mode, integer numerators in rational mode.
    A float kernel falls back to this loop (`_compiled_product`)."""
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


@functools.lru_cache
def _compiled_pairs(n, scalar_mode):
    """`pair_coefficients`' sum over a list of coordinate pairs (xa, xb),
    compiled per dimension and scalar mode: one loop over the pairs whose
    body is the n*n updates f_(i*n+j) += a_i*b_j, each f starting from the
    mode's zero.  It adds the zero terms the loop `_pairs` skips, which
    change no sum but 0*inf, so a float output holding a NaN is computed
    again by `_pairs`."""
    exact = scalar_mode == RATIONAL
    scope = {} if exact else {"loop": lambda pairs: _pairs(n, pairs, 0.0)}
    names = [f"f{t}" for t in range(n * n)]
    lines = [" = ".join([*names, "0" if exact else "0.0"]),
             "for xa, xb in pairs:",
             f"    {_unpack('a', n, 'xa')}", f"    {_unpack('b', n, 'xb')}",
             *(f"    f{i * n + j} += a{i}*b{j}" for i in range(n) for j in range(n))]
    return _compiled(scope, "pairs", lines, f"[{', '.join(names)}]",
                     None if exact else "sum(out)")


def _pairs(n, pairs, zero):
    """The flat n*n coefficients sum_s xa (x) xb of coordinate pairs, zero
    coordinates skipped: the loop a float kernel falls back to
    (`_compiled_pairs`)."""
    coeff = [zero] * (n * n)
    for xa, xb in pairs:
        for i, ai in enumerate(xa):
            if ai == 0:
                continue
            row = i * n
            for j, bj in enumerate(xb):
                if bj != 0:
                    coeff[row + j] += ai * bj
    return coeff


@functools.lru_cache
def _pair_products(table, scalar_mode):
    """`Algebra.pair_products` of a sparse table, formed once per equal
    table and scalar mode, on first use (by the first operator matrix, for
    most algebras).  The key holds the mode for `_compiled_product`'s
    reason: an int table equals the float table of the same constants, but
    its pair products are ints."""
    n = len(table)
    return tuple(tuple(tuple(sorted(
        [(q, p, v) for p in range(n)
         for q, v in _combine(table[p][j], row).items() if v != 0]))
        for j in range(n)) for row in table)


@functools.lru_cache
def _compiled_rows(table, scalar_mode):
    """`operator_rows`' contraction of flat coefficients f with the pair
    products, compiled per table and scalar mode: output (q, p) sums f_t*w
    over the cells t = i*n + j holding (q, p, w), in row-major order
    (`_scaled`), from the mode's zero (`_entries`).  The zero f_t the loop
    `_rows` skips add +-0 to a sum, which changes it only where w is not
    finite (0*inf); only then does a float output holding a NaN get
    computed again by `_rows`."""
    pair_products = _pair_products(table, scalar_mode)
    n, exact = len(pair_products), scalar_mode == RATIONAL
    scope = {} if exact else {"loop": lambda coeff: _rows(pair_products, coeff, 0.0)}
    sums = [[[] for _ in range(n)] for _ in range(n)]
    for t, cell in enumerate(itertools.chain.from_iterable(pair_products)):
        for q, p, w in cell:
            sums[q][p].append(_scaled(f"f{t}", w, scope))
    finite = exact or all(math.isfinite(w) for plane in pair_products
                          for cell in plane for _, _, w in cell)
    rows = f"[{', '.join(_entries(row, exact) for row in sums)}]"
    return _compiled(scope, "coeff", [_unpack("f", n * n, "coeff")], rows,
                     None if finite else "sum(map(sum, out))")


def _rows(pair_products, coeff, zero):
    """The rows of `operator_rows` from flat coefficients, zero ones
    skipped: the loop a float kernel falls back to (`_compiled_rows`)."""
    n = len(pair_products)
    rows = [[zero] * n for _ in range(n)]
    for v, cell in zip(coeff, itertools.chain.from_iterable(pair_products)):
        if v == 0:
            continue
        for q, p, w in cell:
            if w == 1:
                rows[q][p] += v
            elif w == -1:
                rows[q][p] -= v
            else:
                rows[q][p] += v * w
    return rows


def _scaled(term, c, scope) -> str:
    """Source of `term` times the table constant c, signed for `_entries`:
    added or subtracted for c = +-1, as the loops add or subtract it.  An
    int c enters as its text; any other c (a float) as a name bound in
    `scope`, never as text."""
    if c == 1 or c == -1:
        return f"{'-' if c < 0 else '+'} {term}"
    if type(c) is not int:
        name = f"c{len(scope)}"
        scope[name] = c
        c = name
    return f"+ {term}*{c}"


def _entries(sums, exact) -> str:
    """Source of the list of the sums of signed terms in `sums`: "0" for
    none in rational mode, and each from `0.0` in float mode, as the loops'
    accumulators start, so that no -0.0 appears."""
    if exact:
        entries = (" ".join(terms).removeprefix("+ ") or "0" for terms in sums)
    else:
        entries = (" ".join(["0.0", *terms]) for terms in sums)
    return f"[{', '.join(entries)}]"


def _unpack(prefix, n, name) -> str:
    """Source binding the n entries of `name` to prefix0, prefix1, ..."""
    return f"{''.join(f'{prefix}{i}, ' for i in range(n))}= {name}"


def _compiled(scope, params, lines, out, nan_test=None):
    """The kernel `def kernel(params)` that runs the source `lines` and
    returns the list `out`, compiled with `scope` as its globals.  With
    `nan_test`, a source expression over `out` that is a NaN when an output
    is, such a result is computed again by scope["loop"](params)."""
    body = [*lines, f"out = {out}"]
    if nan_test is None:
        body.append("return out")
    else:
        scope["isnan"] = math.isnan
        body.append(f"return loop({params}) if isnan({nan_test}) else out")
    source = f"def kernel({params}):\n" + "".join(f"    {line}\n" for line in body)
    exec(compile(source, "<ncalg kernel>", "exec"), scope)
    return scope["kernel"]


def format_terms(terms) -> str:
    """Canonical text of a sum of (coefficient, name) terms, where the name
    is "" for the unit: '-1/2 - 1/2j' style.  Zero terms are dropped (-0.0
    too), a coefficient of magnitude 1 is omitted before a nonempty name,
    the first term's sign is attached and later ones read ' + ' or ' - ';
    no term at all reads '0'.  A coefficient prints as `str`, which the
    equation grammar reads back: '1/2', and for a float its repr, '1e-07'.
    A repr with a decimal point and no exponent takes a '*' before a name
    that the grammar would read as its exponent, such as 'e1' or 'E11':
    '2.5*e1', not '2.5e1', which reads as 25.0."""
    parts = []
    for c, name in terms:
        if c == 0:
            continue
        negative = c < 0
        mag = -c if negative else c
        text = str(mag)
        if ("." in text and "e" not in text and name[:1] in ("e", "E")
                and name[1:2].isdecimal()):
            text += "*"  # else '2.5e1' would read as the decimal 25.0
        body = name if name and mag == 1 else f"{text}{name}"
        if parts:
            parts.append(f"- {body}" if negative else f"+ {body}")
        else:
            parts.append(f"-{body}" if negative else body)
    return " ".join(parts) or "0"


def format_coords(coords, basis_names) -> str:
    """Canonical text form of an element, '-1/2 - 1/2j' style: its
    coordinates as `format_terms` over the basis names, the unit unnamed."""
    return format_terms(zip(coords, ("", *basis_names[1:])))


# -- JSON form -----------------------------------------------------------------
#
# {"name": ..., "dim": n, "basis": [...],
#  "constants": n*n*n nested array of "p/q" strings (integers also accepted;
#  floats only in float mode)}


def check_json_scalars(data, scalar_mode, arrays: int):
    """Return `data`, JSON scalars nested in exactly `arrays` levels of
    arrays, after checking that every scalar is a number or a string, and no
    float in rational mode.  The JSON readers call this, so a `null`, a
    `true`/`false`, an object, a rational-mode float, or a scalar where an
    array belongs raises a ValueError naming it (the CLI's exit 2), while
    `coerce` keeps raising TypeError for library callers.  An innermost
    array of plain ints and strings (and floats in float mode) passes at
    once."""
    if isinstance(data, list) and arrays:
        scalars = (int, str) if scalar_mode == RATIONAL else (int, float, str)
        if arrays > 1 or not all(type(item) in scalars for item in data):
            for item in data:
                check_json_scalars(item, scalar_mode, arrays - 1)
    elif arrays:
        raise ValueError(f"JSON {json.dumps(data)} where an array belongs")
    elif isinstance(data, bool) or not isinstance(data, (int, float, str)):
        raise ValueError(f"JSON scalar {json.dumps(data)} is neither a number "
                         "nor a string")
    elif scalar_mode == RATIONAL and isinstance(data, float):
        raise ValueError(f"float scalar {data!r} in rational mode; "
                         "use an integer, a 'p/q' string or float mode")
    return data


def json_field(data, key: str, kind):
    """data[key] of JSON object `data`, checked to be a `kind`: list, or int
    and no `true`/`false`.  Anything else raises a ValueError naming `key`
    (the CLI's exit 2); a missing key raises KeyError, which the CLI names."""
    if not isinstance(data, dict):
        raise ValueError(f"JSON {json.dumps(data)} where an object with '{key}' "
                         "belongs")
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        kind = "an array" if kind is list else "an integer"
        raise ValueError(f"JSON '{key}' must be {kind}, not {json.dumps(value)}")
    return value


def algebra_from_json(data, scalar_mode=RATIONAL) -> Algebra:
    """Accepts a dict or a JSON string {"name", "dim", "basis", "constants"},
    `constants[i][j][k]` the e_k-coordinate of e_i e_j (README's format).
    An object that is not one, a `dim` that is not an integer, `constants`
    that are not arrays of scalars, or a `basis` that is neither absent,
    `null` nor an array of strings raises a ValueError (the CLI's exit 2)."""
    if isinstance(data, str):
        data = json.loads(data)
    dim = json_field(data, "dim", int)
    constants = check_json_scalars(data["constants"], scalar_mode, 3)
    if len(constants) != dim:
        raise ValueError("constants array does not match declared dim")
    basis = data.get("basis")
    if basis is not None and not all(isinstance(name, str)
                                     for name in json_field(data, "basis", list)):
        raise ValueError(f"JSON 'basis' must be an array of strings, not "
                         f"{json.dumps(basis)}")
    return Algebra(
        constants,
        basis,
        scalar_mode=scalar_mode,
        name=data.get("name"),
    )


def element_to_json(x: Element) -> list:
    return [x.algebra.scalar_json(c) for c in x.coords]


def element_from_json(algebra: Algebra, data) -> Element:
    return Element(algebra, check_json_scalars(data, algebra.scalar_mode, 1))

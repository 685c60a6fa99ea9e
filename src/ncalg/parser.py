"""Recursive-descent parser for equations over a named algebra basis.

Grammar (whitespace-insensitive, columns are 1-based):

    equation := expr "=" expr
    expr     := term (("+" | "-") term)*
    term     := "-" term | product
    product  := power (("*" power) | juxtaposed)*
    power    := atom ("^" INTEGER)?
    atom     := NUMBER | NAME | "(" expr ")"

NUMBER and NAME are stated once, as the alternatives of the `_TOKEN`
pattern: NUMBER is an INTEGER of decimal digits "2", a fraction "1/2" (a
zero denominator is a syntax error), or (float mode only) a decimal like
"0.5" with an optional exponent; only an INTEGER above 0 is an exponent
("i^4/2" is a syntax error at "4/2").  NAME is a letter or "_" followed by
letters, digits or "_" (so "x²" is one name), as `algebra._is_name` states
it for basis names too.
A "*" is required between non-numeric factors; juxtaposition is only legal
right after a numeric literal ("2i", "3/2k", "2(1+i)").  Unary minus binds
tighter than "+" and looser than "*".
NAMEs are resolved against the algebra's basis; anything else is treated as
an unknown and validated when the equation is normalized.

One walk, `_walk`, turns an AST into algebra data for every caller:
`normalize_linear` (degree 1), `normalize_poly` (degree up to MAX_DEGREE)
and `evaluate_constant`.  It returns the unknown-free part as one element
and the rest as monomials c0*x*c1*...*cd that name the unknown in each slot.
A parenthesized sum of constants stays one coefficient, and base^N takes
O(log N) products by square-and-multiply.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .algebra import _NAME, Algebra, Element, RATIONAL, _is_name, format_coords
from .errors import (
    DegreeLimitExceeded,
    EquationSyntaxError,
    NonlinearTerm,
    UnknownSymbol,
)
from .linalg import _Record
from .newton import GeneralizedPolynomial
from .solvers import SylvesterSystem


# -- AST --------------------------------------------------------------------


class _Node(_Record):
    """An immutable expression node, hashable by its fields."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __hash__(self):
        return hash(self._fields())


class Lit(_Node):
    __slots__ = ("value",)

    def __init__(self, value):
        object.__setattr__(self, "value", value)  # Fraction, or float in float mode


class BasisUnit(_Node):
    __slots__ = ("name", "index")

    def __init__(self, name: str, index: int):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "index", index)


class Unknown(_Node):
    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)


class Neg(_Node):
    __slots__ = ("operand",)

    def __init__(self, operand):
        object.__setattr__(self, "operand", operand)


class Sum(_Node):
    __slots__ = ("terms",)

    def __init__(self, terms: tuple):
        object.__setattr__(self, "terms", terms)


class Product(_Node):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple):
        # order is meaningful: the algebra does not commute
        object.__setattr__(self, "factors", factors)


class Power(_Node):
    __slots__ = ("base", "exponent")

    def __init__(self, base, exponent: int):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)


def expr_to_text(node) -> str:
    """Faithful, fully parenthesized rendering (used in error messages)."""
    if isinstance(node, Lit):
        return str(node.value)
    if isinstance(node, (BasisUnit, Unknown)):
        return node.name
    if isinstance(node, Neg):
        return f"-({expr_to_text(node.operand)})"
    if isinstance(node, Sum):
        return " + ".join(expr_to_text(t) for t in node.terms)
    if isinstance(node, Product):
        return "*".join(f"({expr_to_text(f)})" for f in node.factors)
    if isinstance(node, Power):
        return f"({expr_to_text(node.base)})^{node.exponent}"
    raise TypeError(f"not an expression node: {node!r}")


# -- lexer --------------------------------------------------------------------

# The NUMBER and NAME grammar, one alternative per form.  \d is a decimal
# digit (str.isdecimal), \s is str.isspace and \w is str.isalnum or "_".
# An exponent needs a decimal point or an explicit sign, so that "2e1" stays
# a juxtaposed product with a basis named e1 rather than the float 20.0
# (float repr always signs its exponent, and `format_terms` writes "2.5*e1").
_TOKEN = re.compile(rf"""
    \s+
  | (?P<DEC> (?: \d+ \. \d* | \. \d+ ) (?: [eE] [+-]? \d+ )?
           | \d+ [eE] [+-] \d+ )
  | (?P<NUM> \d+ (?: / \d+ )? )
  | (?P<NAME> {_NAME.pattern} )
  | (?P<OP> [-+*^()=] )
  | (?P<BAD> . )
""", re.VERBOSE | re.DOTALL)


def _tokenize(text: str, float_ok: bool) -> list:
    """Split `text` into (kind, text, column, value) tuples, kind NUM, NAME,
    OP or END, with 1-based columns and whitespace skipped.  A NUM's value is
    a Fraction for an integer or p/q and a float for a decimal, which only
    float mode admits.  A NAME starts with a letter or "_", so a character
    like "²" or "½" there is an unexpected character."""
    tokens = []
    for match in _TOKEN.finditer(text):
        kind, token, col = match.lastgroup, match.group(), match.start() + 1
        if kind is None:
            continue
        value = None
        if kind == "NUM":
            # from the digits' ints: the value Fraction(token) gives
            num, _, den = token.partition("/")
            try:
                value = Fraction(int(num), int(den)) if den else Fraction(int(num))
            except ZeroDivisionError:
                raise EquationSyntaxError(
                    f"zero denominator in '{token}'", col) from None
        elif kind == "DEC":
            if not float_ok:
                raise EquationSyntaxError(
                    f"decimal literal '{token}' needs float scalar mode", col)
            kind, value = "NUM", float(token)
        elif kind == "BAD" or (kind == "NAME" and not _is_name(token)):
            raise EquationSyntaxError(f"unexpected character {token[0]!r}", col)
        tokens.append((kind, token, col, value))
    tokens.append(("END", "", len(text) + 1, None))
    return tokens


# -- parser --------------------------------------------------------------------


def _found(token) -> str:
    """What an error message says it found: only END has empty text."""
    return repr(token[1]) if token[1] else "end of input"


class _Parser:
    """Recursive descent over `_tokenize`'s tuples.  Only an OP token's text
    is an operator character, so an operator is matched by its text alone."""

    def __init__(self, tokens, algebra: Algebra):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.algebra = algebra

    def peek(self) -> tuple:
        return self.tokens[self.pos]

    def advance(self) -> tuple:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, *ops):
        """The next token, consumed, if it is one of the operators `ops`."""
        if self.peek()[1] in ops:
            return self.advance()
        return None

    def expect_op(self, op: str) -> None:
        tok = self.peek()
        if not self.accept(op):
            raise EquationSyntaxError(f"expected {op!r}, found {_found(tok)}", tok[2])

    def parse_expr(self):
        terms = [self.parse_term()]
        while op := self.accept("+", "-"):
            term = self.parse_term()
            terms.append(Neg(term) if op[1] == "-" else term)
        if len(terms) == 1:
            return terms[0]
        return Sum(tuple(terms))

    def parse_term(self):
        if self.depth > MAX_NESTING:  # the "(" and unary "-" around this term
            raise EquationSyntaxError(f"more than {MAX_NESTING} nested parentheses "
                                      "and unary minuses", self.peek()[2])
        self.depth += 1
        term = Neg(self.parse_term()) if self.accept("-") else self.parse_product()
        self.depth -= 1
        return term

    def parse_product(self):
        factors = [self.parse_power()]
        # "*", or a numeric coefficient followed directly by a name or "("
        while self.accept("*") or isinstance(factors[-1], Lit) and (
                self.peek()[0] == "NAME" or self.peek()[1] == "("):
            factors.append(self.parse_power())
        if len(factors) == 1:
            return factors[0]
        return Product(tuple(factors))

    def parse_power(self):
        base = self.parse_atom()
        if caret := self.accept("^"):
            kind, text, col, value = self.peek()
            if kind != "NUM" or not text.isdecimal() or value <= 0:
                raise EquationSyntaxError(
                    "exponent must be a positive integer",
                    col if kind != "END" else caret[2],
                )
            self.advance()
            return Power(base, int(value))
        return base

    def parse_atom(self):
        tok = kind, text, col, value = self.peek()
        if kind == "NUM":
            self.advance()
            return Lit(value)
        if kind == "NAME":
            self.advance()
            index = self.algebra.basis_index(text)
            if index is not None:
                return BasisUnit(text, index)
            return Unknown(text)
        if self.accept("("):
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        raise EquationSyntaxError(
            f"expected a number, name or '(', found {_found(tok)}", col)


def _parse_all(text: str, algebra: Algebra, rule):
    """Run `rule` on a fresh parser over `text` and require it to read all of it."""
    tokens = _tokenize(text, float_ok=algebra.scalar_mode != RATIONAL)
    parser = _Parser(tokens, algebra)
    result = rule(parser)
    kind, text, col, _value = parser.peek()
    if kind != "END":
        raise EquationSyntaxError(f"unexpected {text!r}", col)
    return result


def parse_expression(text: str, algebra: Algebra):
    """Parse a single expression (no '=')."""
    return _parse_all(text, algebra, _Parser.parse_expr)


def parse_equation(text: str, algebra: Algebra):
    """Parse 'lhs = rhs' into a pair of ASTs."""
    def equation(parser):
        lhs = parser.parse_expr()
        parser.expect_op("=")
        return lhs, parser.parse_expr()

    return _parse_all(text, algebra, equation)


def collect_unknowns(node) -> set:
    if isinstance(node, Unknown):
        return {node.name}
    if isinstance(node, Neg):
        return collect_unknowns(node.operand)
    if isinstance(node, Sum):
        return set().union(*(collect_unknowns(t) for t in node.terms))
    if isinstance(node, Product):
        return set().union(*(collect_unknowns(f) for f in node.factors))
    if isinstance(node, Power):
        return collect_unknowns(node.base)
    return set()


# -- normalization ---------------------------------------------------------------

#: the largest polynomial degree `normalize_poly` accepts
MAX_DEGREE = 8

#: the most "(" and unary "-" around a term: far below the recursion limit
MAX_NESTING = 100


def _walk(node, algebra: Algebra, unknowns, max_degree: int):
    """The one walk from an AST to algebra data: (constant, monomials).

    `constant` is the unknown-free part summed into one Element.  Each
    monomial is (coefficients, names), meaning c0*names[0]*c1*...*cd, with
    one unknown's name per slot.  Products distribute over sums, but a sum of
    constants stays one coefficient.  Monomials of degree above `max_degree`
    raise NonlinearTerm when it is 1, else DegreeLimitExceeded.
    """
    if isinstance(node, Lit):
        return algebra.coerce(node.value) * algebra.one(), []
    if isinstance(node, BasisUnit):
        return algebra.basis(node.index), []
    if isinstance(node, Unknown):
        if node.name not in unknowns:
            raise UnknownSymbol(f"unknown symbol {node.name!r}")
        return algebra.zero(), [((algebra.one(), algebra.one()), (node.name,))]
    if isinstance(node, Neg):
        const, monos = _walk(node.operand, algebra, unknowns, max_degree)
        return -const, [((-c[0],) + c[1:], names) for c, names in monos]
    if isinstance(node, Sum):
        parts = [_walk(term, algebra, unknowns, max_degree) for term in node.terms]
        const = parts[0][0]
        for term_const, _monos in parts[1:]:
            const = const + term_const
        return const, [mono for _const, monos in parts for mono in monos]
    if isinstance(node, Product):
        # one factor at a time, so x*x*y with unknowns {x} fails as
        # nonlinear before y is looked up
        total = _walk(node.factors[0], algebra, unknowns, max_degree)
        for factor in node.factors[1:]:
            total = _times(total, _walk(factor, algebra, unknowns, max_degree),
                           node, max_degree)
        return total
    if isinstance(node, Power):
        # square-and-multiply: O(log N) products for base^N
        base = _walk(node.base, algebra, unknowns, max_degree)
        total = base
        for bit in bin(node.exponent)[3:]:
            total = _times(total, total, node, max_degree)
            if bit == "1":
                total = _times(total, base, node, max_degree)
        return total
    raise TypeError(f"not an expression node: {node!r}")


def _fold(node, algebra: Algebra, unknowns, max_degree: int):
    """`_walk` for its callers, with every folded constant and coefficient
    required finite (`require_finite`)."""
    const, monos = _walk(node, algebra, unknowns, max_degree)
    require_finite(algebra, [(const, "the constant term")], "folds to")
    require_finite(algebra, ((c, f"a coefficient of {names[0]}") for coeffs, names in monos
                             for c in coeffs), "folds to")
    return const, monos


def require_finite(algebra: Algebra, named, verb: str):
    """Raise a ValueError for the first (value, what) in `named`, an
    `Element` or a `tensor.TensorOp`, that holds an inf or nan: in float mode a
    literal beyond the float range, or a product or a sum of like terms
    that overflows, gives one, which no solver can use.  Rational values
    pass unread."""
    if algebra.scalar_mode == RATIONAL:
        return
    for value, what in named:
        if not all(math.isfinite(v) for v in value._nums):
            text = format_element(value) if isinstance(value, Element) else value.to_text()
            raise ValueError(f"{what} {verb} {text}, which is not finite")


def _times(lhs, rhs, node, max_degree: int):
    """(c1 + m1)(c2 + m2) = c1*c2 + c1*m2 + m1*c2 + m1*m2 as one walk result;
    the constants at each junction merge into one coefficient."""
    c1, m1 = lhs
    c2, m2 = rhs
    monos = [((c1 * a[0],) + a[1:], names) for a, names in m2]
    monos += [(a[:-1] + (a[-1] * c2,), names) for a, names in m1]
    for a, names_a in m1:
        for b, names_b in m2:
            degree = len(names_a) + len(names_b)
            if degree > max_degree:
                if max_degree == 1:
                    raise NonlinearTerm(
                        f"product of unknowns in {expr_to_text(node)!r}")
                raise DegreeLimitExceeded(
                    f"polynomial degree {degree} exceeds the bound {max_degree}")
            monos.append((a[:-1] + (a[-1] * b[0],) + b[1:], names_a + names_b))
    return c1 * c2, monos


def normalize_linear(algebra: Algebra, equations, unknowns) -> SylvesterSystem:
    """Collect parsed equations into a Sylvester system.

    equations: list of (lhs, rhs) AST pairs; unknowns: ordered names defining
    the column layout.  lhs - rhs goes through the one walk with degree 1
    (a product of unknowns raises NonlinearTerm).  Its monomials a*x*b become
    the operator terms of x's column, and its negated constant becomes the
    right-hand side.
    """
    column = {name: j for j, name in enumerate(unknowns)}
    rows = []
    for lhs, rhs in equations:
        const, monos = _fold(Sum((lhs, Neg(rhs))), algebra, column, 1)
        rows.append(([(a, b, column[name]) for (a, b), (name,) in monos], -const))
    return require_finite_system(SylvesterSystem.from_terms(algebra, rows, len(column)),
                                 list(column))


def require_finite_system(system: SylvesterSystem, unknowns) -> SylvesterSystem:
    """`system`, after requiring its operators and right-hand sides finite
    (`require_finite`): in float mode like terms merge in the operators, so
    1e+308*x + 1e+308*x sums to inf, and a system JSON may hold Infinity."""
    algebra = system.algebra
    require_finite(algebra, ((op, f"the terms in {name}") for row in system.ops
                             for name, op in zip(unknowns, row)), "sum to")
    require_finite(algebra, ((b, f"the right-hand side of equation {i}")
                             for i, b in enumerate(system.rhs, 1)), "is")
    return system


def normalize_poly(algebra: Algebra, equation, unknown: str):
    """Turn a parsed equation into (GeneralizedPolynomial, target element).

    Both sides go through the one walk with degree MAX_DEGREE; a higher
    degree raises DegreeLimitExceeded.  The left side's monomials and
    constant become the polynomial, the right side's monomials move to it
    negated, and the right side's constant is the target.  A parenthesized
    sum of constants stays one coefficient: (i+j)*x*(1+k) is one monomial.
    """
    lhs, rhs = equation
    lhs_const, lhs_monos = _fold(lhs, algebra, (unknown,), MAX_DEGREE)
    rhs_const, rhs_monos = _fold(rhs, algebra, (unknown,), MAX_DEGREE)
    monomials = [(lhs_const,)] + [c for c, _names in lhs_monos]
    monomials += [(-c[0],) + c[1:] for c, _names in rhs_monos]
    poly = GeneralizedPolynomial(algebra, monomials)
    require_finite(algebra, ((c, f"a coefficient of {unknown}") for mono in poly.monomials
                             for c in mono), "sums to")
    return poly, rhs_const


# -- rendering -----------------------------------------------------------------


def format_element(x: Element) -> str:
    """Canonical text form; parse_expression reads it back verbatim."""
    return format_coords(x.coords, x.algebra.basis_names)


def evaluate_constant(node, algebra: Algebra) -> Element:
    """Evaluate an unknown-free expression to an element: the constant of
    the one walk, so base^N takes O(log N) products."""
    return _fold(node, algebra, (), 0)[0]

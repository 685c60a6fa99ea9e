"""Recursive-descent parser for equations over a named algebra basis.

Grammar (whitespace-insensitive, columns are 1-based):

    equation := expr "=" expr
    expr     := term (("+" | "-") term)*
    term     := "-" term | product
    product  := power (("*" power) | juxtaposed)*
    power    := atom ("^" INTEGER)?
    atom     := NUMBER | NAME | "(" expr ")"

NUMBER is an integer "2", a fraction "1/2" (a zero denominator is a syntax
error), or (float mode only) a decimal like "0.5" with an optional exponent.
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

from dataclasses import dataclass
from fractions import Fraction

from .algebra import Algebra, Element, RATIONAL, format_coords
from .errors import (
    DegreeLimitExceeded,
    EquationSyntaxError,
    NonlinearTerm,
    UnknownSymbol,
)
from .newton import GeneralizedPolynomial
from .solvers import SylvesterSystem


# -- AST --------------------------------------------------------------------


@dataclass(frozen=True)
class Lit:
    value: object          # Fraction, or float in float mode


@dataclass(frozen=True)
class BasisUnit:
    name: str
    index: int


@dataclass(frozen=True)
class Unknown:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class Sum:
    terms: tuple


@dataclass(frozen=True)
class Product:
    factors: tuple         # order is meaningful: the algebra does not commute


@dataclass(frozen=True)
class Power:
    base: object
    exponent: int


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


@dataclass(frozen=True)
class _Token:
    kind: str              # NUM NAME OP END
    text: str
    col: int               # 1-based
    value: object = None


_OPERATORS = set("+-*^()=")


def _tokenize(text: str, float_ok: bool):
    tokens = []
    i = 0
    size = len(text)
    while i < size:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        col = i + 1
        if ch.isdigit() or (ch == "." and i + 1 < size and text[i + 1].isdigit()):
            j = i
            while j < size and text[j].isdigit():
                j += 1
            is_decimal = False
            if j < size and text[j] == ".":
                is_decimal = True
                j += 1
                while j < size and text[j].isdigit():
                    j += 1
            if j < size and text[j] in "eE":
                # exponents need a decimal point or an explicit sign, so
                # that "2e1" stays a juxtaposed product with a basis named
                # e1 rather than the float 20.0 (float repr always signs
                # its exponent, so round-trips are unaffected)
                k = j + 1
                signed = k < size and text[k] in "+-"
                if signed:
                    k += 1
                if (is_decimal or signed) and k < size and text[k].isdigit():
                    is_decimal = True
                    j = k
                    while j < size and text[j].isdigit():
                        j += 1
            if not is_decimal and j < size and text[j] == "/" and j + 1 < size \
                    and text[j + 1].isdigit():
                j += 1
                while j < size and text[j].isdigit():
                    j += 1
                try:
                    value = Fraction(text[i:j])
                except ZeroDivisionError:
                    raise EquationSyntaxError(
                        f"zero denominator in '{text[i:j]}'", col) from None
            elif is_decimal:
                if not float_ok:
                    raise EquationSyntaxError(
                        f"decimal literal '{text[i:j]}' needs float scalar mode",
                        col,
                    )
                value = float(text[i:j])
            else:
                value = Fraction(text[i:j])
            tokens.append(_Token("NUM", text[i:j], col, value))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < size and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("NAME", text[i:j], col))
            i = j
            continue
        if ch in _OPERATORS:
            tokens.append(_Token("OP", ch, col))
            i += 1
            continue
        raise EquationSyntaxError(f"unexpected character {ch!r}", col)
    tokens.append(_Token("END", "", size + 1))
    return tokens


# -- parser --------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens, algebra: Algebra):
        self.tokens = tokens
        self.pos = 0
        self.algebra = algebra

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind != "OP" or tok.text != op:
            raise EquationSyntaxError(
                f"expected {op!r}, found {tok.text!r}" if tok.kind != "END"
                else f"expected {op!r}, found end of input",
                tok.col,
            )
        return self.advance()

    def at_op(self, *ops) -> bool:
        tok = self.peek()
        return tok.kind == "OP" and tok.text in ops

    def parse_expr(self):
        terms = [self.parse_term()]
        while self.at_op("+", "-"):
            op = self.advance()
            term = self.parse_term()
            terms.append(Neg(term) if op.text == "-" else term)
        if len(terms) == 1:
            return terms[0]
        return Sum(tuple(terms))

    def parse_term(self):
        if self.at_op("-"):
            self.advance()
            return Neg(self.parse_term())
        return self.parse_product()

    def parse_product(self):
        factors = [self.parse_power()]
        while True:
            if self.at_op("*"):
                self.advance()
                factors.append(self.parse_power())
                continue
            # numeric coefficient followed directly by a symbol or "("
            nxt = self.peek()
            last = factors[-1]
            if isinstance(last, Lit) and (
                nxt.kind == "NAME" or (nxt.kind == "OP" and nxt.text == "(")
            ):
                factors.append(self.parse_power())
                continue
            break
        if len(factors) == 1:
            return factors[0]
        return Product(tuple(factors))

    def parse_power(self):
        base = self.parse_atom()
        if self.at_op("^"):
            caret = self.advance()
            tok = self.peek()
            if tok.kind != "NUM" or not isinstance(tok.value, Fraction) \
                    or tok.value.denominator != 1 or tok.value <= 0:
                raise EquationSyntaxError(
                    "exponent must be a positive integer",
                    tok.col if tok.kind != "END" else caret.col,
                )
            self.advance()
            return Power(base, int(tok.value))
        return base

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "NUM":
            self.advance()
            return Lit(tok.value)
        if tok.kind == "NAME":
            self.advance()
            index = self.algebra.basis_index(tok.text)
            if index is not None:
                return BasisUnit(tok.text, index)
            return Unknown(tok.text)
        if tok.kind == "OP" and tok.text == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        raise EquationSyntaxError(
            f"expected a number, name or '(', found "
            + (repr(tok.text) if tok.kind != "END" else "end of input"),
            tok.col,
        )


def _parse_all(text: str, algebra: Algebra, rule):
    """Run `rule` on a fresh parser over `text` and require it to read all of it."""
    tokens = _tokenize(text, float_ok=algebra.scalar_mode != RATIONAL)
    parser = _Parser(tokens, algebra)
    result = rule(parser)
    tail = parser.peek()
    if tail.kind != "END":
        raise EquationSyntaxError(f"unexpected {tail.text!r}", tail.col)
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
        const, monos = _walk(Sum((lhs, Neg(rhs))), algebra, column, 1)
        rows.append(([(a, b, column[name]) for (a, b), (name,) in monos], -const))
    return SylvesterSystem.from_terms(algebra, rows, len(column))


def normalize_poly(algebra: Algebra, equation, unknown: str):
    """Turn a parsed equation into (GeneralizedPolynomial, target element).

    Both sides go through the one walk with degree MAX_DEGREE; a higher
    degree raises DegreeLimitExceeded.  The left side's monomials and
    constant become the polynomial, the right side's monomials move to it
    negated, and the right side's constant is the target.  A parenthesized
    sum of constants stays one coefficient: (i+j)*x*(1+k) is one monomial.
    """
    lhs, rhs = equation
    lhs_const, lhs_monos = _walk(lhs, algebra, (unknown,), MAX_DEGREE)
    rhs_const, rhs_monos = _walk(rhs, algebra, (unknown,), MAX_DEGREE)
    monomials = [(lhs_const,)] + [c for c, _names in lhs_monos]
    monomials += [(-c[0],) + c[1:] for c, _names in rhs_monos]
    return GeneralizedPolynomial(algebra, monomials), rhs_const


# -- rendering -----------------------------------------------------------------


def format_element(x: Element) -> str:
    """Canonical text form; parse_expression reads it back verbatim."""
    return format_coords(x.coords, x.algebra.basis_names)


def evaluate_constant(node, algebra: Algebra) -> Element:
    """Evaluate an unknown-free expression to an element: the constant of
    the one walk, so base^N takes O(log N) products."""
    return _walk(node, algebra, (), 0)[0]

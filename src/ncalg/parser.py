"""Recursive-descent parser for equations over a named algebra basis.

Grammar (whitespace-insensitive, columns are 1-based):

    equation := expr "=" expr
    expr     := term (("+" | "-") term)*
    term     := "-" term | product
    product  := power (("*" power) | juxtaposed)*
    power    := atom ("^" INTEGER)?
    atom     := NUMBER | NAME | "(" expr ")"

NUMBER is an integer "2", a fraction "1/2", or (float mode only) a decimal
like "0.5" with an optional exponent.  A "*" is required between non-numeric
factors; juxtaposition is only legal right after a numeric literal ("2i",
"3/2k", "2(1+i)").  Unary minus binds tighter than "+" and looser than "*".
NAMEs are resolved against the algebra's basis; anything else is treated as
an unknown and validated when the equation is normalized.
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
    col: int = 0


@dataclass(frozen=True)
class BasisUnit:
    name: str
    index: int
    col: int = 0


@dataclass(frozen=True)
class Unknown:
    name: str
    col: int = 0


@dataclass(frozen=True)
class Neg:
    operand: object
    col: int = 0


@dataclass(frozen=True)
class Sum:
    terms: tuple
    col: int = 0


@dataclass(frozen=True)
class Product:
    factors: tuple         # order is meaningful: the algebra does not commute
    col: int = 0


@dataclass(frozen=True)
class Power:
    base: object
    exponent: int
    col: int = 0


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
                value = Fraction(text[i:j])
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
            terms.append(Neg(term, op.col) if op.text == "-" else term)
        if len(terms) == 1:
            return terms[0]
        return Sum(tuple(terms), terms[0].col)

    def parse_term(self):
        if self.at_op("-"):
            tok = self.advance()
            return Neg(self.parse_term(), tok.col)
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
        return Product(tuple(factors), factors[0].col)

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
            return Power(base, int(tok.value), base.col)
        return base

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "NUM":
            self.advance()
            return Lit(tok.value, tok.col)
        if tok.kind == "NAME":
            self.advance()
            index = self.algebra.basis_index(tok.text)
            if index is not None:
                return BasisUnit(tok.text, index, tok.col)
            return Unknown(tok.text, tok.col)
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


def parse_expression(text: str, algebra: Algebra):
    """Parse a single expression (no '=')."""
    tokens = _tokenize(text, float_ok=algebra.scalar_mode != RATIONAL)
    parser = _Parser(tokens, algebra)
    expr = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "END":
        raise EquationSyntaxError(f"unexpected {tail.text!r}", tail.col)
    return expr


def parse_equation(text: str, algebra: Algebra):
    """Parse 'lhs = rhs' into a pair of ASTs."""
    tokens = _tokenize(text, float_ok=algebra.scalar_mode != RATIONAL)
    parser = _Parser(tokens, algebra)
    lhs = parser.parse_expr()
    parser.expect_op("=")
    rhs = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "END":
        raise EquationSyntaxError(f"unexpected {tail.text!r}", tail.col)
    return lhs, rhs


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


# -- linear normalization -------------------------------------------------------


class _LinForm:
    """constant + sum over unknowns of pairs (a, b) meaning a * unknown * b."""

    __slots__ = ("const", "terms")

    def __init__(self, const: Element, terms=None):
        self.const = const
        self.terms = terms or {}

    def __add__(self, other: "_LinForm") -> "_LinForm":
        terms = {name: list(pairs) for name, pairs in self.terms.items()}
        for name, pairs in other.terms.items():
            terms.setdefault(name, []).extend(pairs)
        return _LinForm(self.const + other.const, terms)

    def negate(self) -> "_LinForm":
        terms = {
            name: [(-a, b) for a, b in pairs]
            for name, pairs in self.terms.items()
        }
        return _LinForm(-self.const, terms)

    def multiply(self, other: "_LinForm", node) -> "_LinForm":
        if self.terms and other.terms:
            raise NonlinearTerm(
                f"product of unknowns in {expr_to_text(node)!r}"
            )
        if other.terms:
            terms = {
                name: [(self.const * a, b) for a, b in pairs]
                for name, pairs in other.terms.items()
            }
            return _LinForm(self.const * other.const, terms)
        terms = {
            name: [(a, b * other.const) for a, b in pairs]
            for name, pairs in self.terms.items()
        }
        return _LinForm(self.const * other.const, terms)


def _linear_walk(node, algebra: Algebra, unknowns) -> _LinForm:
    if isinstance(node, Lit):
        return _LinForm(algebra.coerce(node.value) * algebra.one())
    if isinstance(node, BasisUnit):
        return _LinForm(algebra.basis(node.index))
    if isinstance(node, Unknown):
        if node.name not in unknowns:
            raise UnknownSymbol(f"unknown symbol {node.name!r}")
        return _LinForm(
            algebra.zero(),
            {node.name: [(algebra.one(), algebra.one())]},
        )
    if isinstance(node, Neg):
        return _linear_walk(node.operand, algebra, unknowns).negate()
    if isinstance(node, Sum):
        total = _linear_walk(node.terms[0], algebra, unknowns)
        for term in node.terms[1:]:
            total = total + _linear_walk(term, algebra, unknowns)
        return total
    if isinstance(node, Product):
        total = _linear_walk(node.factors[0], algebra, unknowns)
        for factor in node.factors[1:]:
            total = total.multiply(
                _linear_walk(factor, algebra, unknowns), node
            )
        return total
    if isinstance(node, Power):
        base = _linear_walk(node.base, algebra, unknowns)
        total = base
        for _ in range(node.exponent - 1):
            total = total.multiply(base, node)
        return total
    raise TypeError(f"not an expression node: {node!r}")


def normalize_linear(algebra: Algebra, equations, unknowns) -> SylvesterSystem:
    """Collect parsed equations into a Sylvester system.

    equations: list of (lhs, rhs) AST pairs; unknowns: ordered names defining
    the column layout.  Products are distributed, constants move to the
    right-hand side, and each equation/unknown cell becomes one operator.
    """
    column = {name: j for j, name in enumerate(unknowns)}
    rows = []
    for lhs, rhs_ast in equations:
        moved = _linear_walk(lhs, algebra, column) \
            + _linear_walk(rhs_ast, algebra, column).negate()
        terms = [(a, b, column[name])
                 for name, pairs in moved.terms.items() for a, b in pairs]
        rows.append((terms, -moved.const))
    return SylvesterSystem.from_terms(algebra, rows, len(column))


# -- polynomial normalization ------------------------------------------------------


def _poly_walk(node, algebra: Algebra, unknown: str, max_degree: int):
    """Returns a list of monomial coefficient lists."""
    if isinstance(node, Lit):
        return [[algebra.coerce(node.value) * algebra.one()]]
    if isinstance(node, BasisUnit):
        return [[algebra.basis(node.index)]]
    if isinstance(node, Unknown):
        if node.name != unknown:
            raise UnknownSymbol(f"unknown symbol {node.name!r}")
        return [[algebra.one(), algebra.one()]]
    if isinstance(node, Neg):
        return [
            [-mono[0]] + mono[1:]
            for mono in _poly_walk(node.operand, algebra, unknown, max_degree)
        ]
    if isinstance(node, Sum):
        out = []
        for term in node.terms:
            out.extend(_poly_walk(term, algebra, unknown, max_degree))
        return out
    if isinstance(node, Product):
        total = _poly_walk(node.factors[0], algebra, unknown, max_degree)
        for factor in node.factors[1:]:
            total = _poly_product(
                total,
                _poly_walk(factor, algebra, unknown, max_degree),
                max_degree,
            )
        return total
    if isinstance(node, Power):
        base = _poly_walk(node.base, algebra, unknown, max_degree)
        total = base
        for _ in range(node.exponent - 1):
            total = _poly_product(total, base, max_degree)
        return total
    raise TypeError(f"not an expression node: {node!r}")


def _poly_product(lhs, rhs, max_degree: int):
    out = []
    for a in lhs:
        for b in rhs:
            degree = (len(a) - 1) + (len(b) - 1)
            if degree > max_degree:
                raise DegreeLimitExceeded(
                    f"polynomial degree {degree} exceeds the bound {max_degree}"
                )
            # adjacent constants at the junction merge into one
            out.append(a[:-1] + [a[-1] * b[0]] + b[1:])
    return out


def normalize_poly(algebra: Algebra, equation, unknown: str,
                   max_degree: int = 8):
    """Turn a parsed equation into (GeneralizedPolynomial, target element).

    The left side becomes the polynomial; a constant right side becomes the
    target.  Unknown-dependent terms on the right are moved to the left
    first, so only the constant part remains as the target.
    """
    lhs, rhs = equation
    poly = _poly_walk(lhs, algebra, unknown, max_degree)
    rhs_monos = _poly_walk(rhs, algebra, unknown, max_degree)
    target = algebra.zero()
    for mono in rhs_monos:
        if len(mono) == 1:
            target = target + mono[0]
        else:
            poly.append([-mono[0]] + mono[1:])
    return GeneralizedPolynomial(algebra, poly), target


# -- rendering -----------------------------------------------------------------


def format_element(x: Element) -> str:
    """Canonical text form; parse_expression reads it back verbatim."""
    return format_coords(x.coords, x.algebra.basis_names)


def evaluate_constant(node, algebra: Algebra) -> Element:
    """Evaluate an unknown-free expression to an element."""
    form = _linear_walk(node, algebra, set())
    return form.const

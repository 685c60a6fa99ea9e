from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import ncalg as nc
from ncalg.algebra import _StoredPair, format_coords
from ncalg.newton import GeneralizedPolynomial
from ncalg.parser import (
    BasisUnit,
    Lit,
    Neg,
    Power,
    Product,
    Sum,
    Unknown,
    collect_unknowns,
    evaluate_constant,
    expr_to_text,
    format_element,
    normalize_linear,
    normalize_poly,
    MAX_NESTING,
    parse_equation,
    parse_expression,
    _tokenize,
)
from helpers import (assert_round_trips, clifford_algebra, float_bits, matrix_algebra,
                     rand_element, rand_nonzero)


def eval_with(node, algebra, values):
    """Independent AST evaluator used as the normalization oracle."""
    if isinstance(node, Lit):
        return algebra.coerce(node.value) * algebra.one()
    if isinstance(node, BasisUnit):
        return algebra.basis(node.index)
    if isinstance(node, Unknown):
        return values[node.name]
    if isinstance(node, Neg):
        return -eval_with(node.operand, algebra, values)
    if isinstance(node, Sum):
        total = algebra.zero()
        for term in node.terms:
            total = total + eval_with(term, algebra, values)
        return total
    if isinstance(node, Product):
        total = algebra.one()
        for factor in node.factors:
            total = total * eval_with(factor, algebra, values)
        return total
    if isinstance(node, Power):
        base = eval_with(node.base, algebra, values)
        total = base
        for _ in range(node.exponent - 1):
            total = total * base
        return total
    raise TypeError(node)


class TestGrammar:
    def test_flagship_equation(self, hq, units):
        one, i, j, k = units
        lhs, rhs = parse_equation("(i+j)*x*k + k*x*(j+k) = 1+k", hq)
        system = normalize_linear(hq, [(lhs, rhs)], ["x"])
        assert system.ops[0][0] == nc.tensor_from_pairs([(i + j, k), (k, j + k)])
        assert system.rhs[0] == one + k

    def test_trivial_equation(self, hq, units):
        one, i, j, k = units
        lhs, rhs = parse_equation("x = 1+k", hq)
        assert isinstance(lhs, Unknown)
        system = normalize_linear(hq, [(lhs, rhs)], ["x"])
        assert system.ops[0][0] == nc.TensorOp.identity(hq)
        assert system.rhs[0] == one + k

    def test_power_and_unknown(self, hq):
        lhs, rhs = parse_equation("x^2 - i*x - x*j + k = 0", hq)
        assert collect_unknowns(lhs) == {"x"}
        assert collect_unknowns(rhs) == set()

    def test_juxtaposition_after_number(self, hq, units):
        one, i, j, k = units
        assert evaluate_constant(parse_expression("2i", hq), hq) == 2 * i
        assert evaluate_constant(parse_expression("2 i", hq), hq) == 2 * i
        assert evaluate_constant(parse_expression("3/2k", hq), hq) == \
            hq.element([0, 0, 0, "3/2"])
        assert evaluate_constant(parse_expression("2(1+i)", hq), hq) == \
            2 * (one + i)

    def test_constant_powers(self, hq, units):
        one, i, j, k = units
        # square-and-multiply keeps large exponents cheap
        assert evaluate_constant(parse_expression("(1+i)^1000", hq), hq) == \
            2 ** 500 * one
        assert evaluate_constant(parse_expression("i^300001", hq), hq) == i
        base = parse_expression("(2/3 + 5/7*i - 3/11*j)", hq)
        for n in range(1, 20):
            power = Power(base, n)
            assert evaluate_constant(power, hq) == eval_with(power, hq, {}), n

    def test_star_required_between_symbols(self, hq):
        with pytest.raises(nc.EquationSyntaxError):
            parse_expression("i j", hq)
        with pytest.raises(nc.EquationSyntaxError):
            parse_expression("k x j", hq)

    def test_unary_minus_precedence(self, hq, units):
        one, i, j, k = units
        # tighter than '+': -1 + i is (-1) + i
        assert evaluate_constant(parse_expression("-1 + i", hq), hq) == -one + i
        # looser than '*': -i*j is -(i*j) = -k
        assert evaluate_constant(parse_expression("-i*j", hq), hq) == -k
        # and looser than '^'
        assert evaluate_constant(parse_expression("-i^2", hq), hq) == one

    def test_column_positions(self, hq):
        with pytest.raises(nc.EquationSyntaxError) as err:
            parse_expression("1 + *", hq)
        assert err.value.column == 5
        with pytest.raises(nc.EquationSyntaxError) as err:
            parse_expression("(1+i", hq)
        assert err.value.column == 5
        with pytest.raises(nc.EquationSyntaxError) as err:
            parse_expression("1 + $", hq)
        assert err.value.column == 5

    def test_nesting_limit(self, hq):
        # MAX_NESTING parentheses and unary minuses open at once parse, and
        # every walk of the tree stays under the default recursion limit,
        # even called from 300 frames deep; one more is a syntax error at
        # the term it opens, well before the recursion limit
        D = MAX_NESTING
        deepest = {
            "(" * D + "x" + ")" * D: hq.one(),
            "-" * D + "x": hq.one(),
            "(1 + " * D + "x" + ")" * D: hq.one(),
            "(i*" * D + "x*j" + ")" * D: hq.basis(1),
            "-(" * (D // 2) + "x" + ")" * (D // 2): hq.one(),
            "(" * D + "i" + ")^2" * D + " + x": hq.one(),
        }

        def deep(frames, call):
            return call() if frames == 0 else deep(frames - 1, call)
        for text, value in deepest.items():
            node = deep(300, lambda: parse_expression(text, hq))
            assert deep(300, lambda: collect_unknowns(node)) == {"x"}
            assert deep(300, lambda: expr_to_text(node)).count("x") == 1
            system = deep(300, lambda: normalize_linear(hq, [(node, Lit(Fraction(0)))],
                                                        ["x"]))
            assert system.residuals([value]) == [eval_with(node, hq, {"x": value})]
        for text, column in (("(" * (D + 1) + "x" + ")" * (D + 1), D + 2),
                             ("-" * (D + 1) + "x", D + 2),
                             ("-" * 990 + "x", D + 2),
                             ("x + -(" * D + "x" + ")" * D, 6 * (D // 2) + 6),
                             ("(" * 200 + "x" + ")" * 200, D + 2)):
            with pytest.raises(nc.EquationSyntaxError) as err:
                parse_equation(text + " = 1", hq)
            assert (str(err.value), err.value.column) == (
                f"more than {D} nested parentheses and unary minuses "
                f"(column {column})", column)

    def test_exponent_validation(self, hq):
        with pytest.raises(nc.EquationSyntaxError):
            parse_expression("x^0", hq)
        with pytest.raises(nc.EquationSyntaxError):
            parse_expression("x^(2)", hq)

    @pytest.mark.parametrize("mode", [nc.RATIONAL, nc.FLOAT])
    @pytest.mark.parametrize("text", ["x = i^4/2", "x = i^2/1"])
    def test_exponent_is_decimal_digits(self, text, mode):
        # a p/q literal equal to an integer is no exponent; "/" is no operator
        with pytest.raises(nc.EquationSyntaxError) as err:
            parse_equation(text, nc.quaternion_algebra(mode))
        assert (str(err.value), err.value.column) == (
            "exponent must be a positive integer (column 7)", 7)

    @pytest.mark.parametrize("mode", [nc.RATIONAL, nc.FLOAT])
    def test_exponent_of_other_decimal_digits(self, mode):
        alg = nc.quaternion_algebra(mode)
        assert evaluate_constant(parse_expression("i^٣", alg), alg) == -alg.basis(1)

    def test_zero_denominator(self, hq, hq_float):
        for alg, text in ((hq, "x = 1/0"), (hq_float, "x = 3/00")):
            with pytest.raises(nc.EquationSyntaxError) as err:
                parse_equation(text, alg)
            assert err.value.column == 5
            assert "zero denominator in '" in str(err.value)

    def test_equation_needs_one_equals(self, hq):
        with pytest.raises(nc.EquationSyntaxError):
            parse_equation("x + 1", hq)
        with pytest.raises(nc.EquationSyntaxError):
            parse_equation("x = 1 = 2", hq)

    def test_decimals_gated_by_mode(self, hq, hq_float):
        with pytest.raises(nc.EquationSyntaxError):
            parse_expression("0.5", hq)
        x = evaluate_constant(parse_expression("0.5 + 1e-3i", hq_float), hq_float)
        assert x.coords == (0.5, 0.001, 0.0, 0.0)

    def test_unsigned_exponent_is_juxtaposition(self):
        # with default basis names e1, e2, ... the text "2e1" must mean
        # 2 * e1; scientific notation needs a sign or a decimal point
        alg = nc.make_algebra([
            [[1, 0], [0, 1]],
            [[0, 1], [-1, 0]],
        ])  # basis "1", "e1"
        x = evaluate_constant(parse_expression("2e1", alg), alg)
        assert x == alg.element([0, 2])
        algf = nc.quaternion_algebra(nc.FLOAT)
        y = evaluate_constant(parse_expression("2e+1 + 1.5e2i", algf), algf)
        assert y.coords == (20.0, 150.0, 0.0, 0.0)

    def test_whitespace_insensitive(self, hq, units):
        one, i, j, k = units
        a = parse_equation("(i+j)*x*k+k*x*(j+k)=1+k", hq)
        b = parse_equation("  ( i + j ) * x * k  +  k * x * ( j + k )  =  1 + k ", hq)
        sa = normalize_linear(hq, [a], ["x"])
        sb = normalize_linear(hq, [b], ["x"])
        assert sa.ops == sb.ops and sa.rhs == sb.rhs


def _err(message, column):
    """An EquationSyntaxError's text and column."""
    return f"{message} (column {column})", column


def _decimal(text, column):
    return _err(f"decimal literal '{text}' needs float scalar mode", column)


F = Fraction
#: text, then its tokens or error in rational mode, then in float mode
#: (None: as in rational mode)
TOKENS = [
    # an unsigned exponent after an integer is a juxtaposed name
    ("2e1", [("NUM", "2", 1, F(2)), ("NAME", "e1", 2, None)], None),
    ("2e+1", _decimal("2e+1", 1), [("NUM", "2e+1", 1, 20.0)]),
    ("1.5e2i", _decimal("1.5e2", 1),
     [("NUM", "1.5e2", 1, 150.0), ("NAME", "i", 6, None)]),
    (".5", _decimal(".5", 1), [("NUM", ".5", 1, 0.5)]),
    ("2.", _decimal("2.", 1), [("NUM", "2.", 1, 2.0)]),
    ("1/2.5", _decimal(".5", 4), [("NUM", "1/2", 1, F(1, 2)), ("NUM", ".5", 4, 0.5)]),
    ("1.5/2", _decimal("1.5", 1), _err("unexpected character '/'", 4)),
    ("x = 3/00", _err("zero denominator in '3/00'", 5), None),
    # Unicode whitespace is skipped; END sits one past the last character
    ("\u3000x\xa0=\t1\u2003",
     [("NAME", "x", 2, None), ("OP", "=", 4, None), ("NUM", "1", 6, F(1))], None),
    ("x²", [("NAME", "x²", 1, None)], None),
    ("٣/٤x", [("NUM", "٣/٤", 1, F(3, 4)), ("NAME", "x", 4, None)], None),
    # a name starts with a letter or "_", never with "²" or "½"
    ("²*x", _err("unexpected character '²'", 1), None),
    ("2²", _err("unexpected character '²'", 2), None),
    ("1.9E²", _decimal("1.9", 1), [("NUM", "1.9", 1, 1.9), ("NAME", "E²", 4, None)]),
    ("x = ½", _err("unexpected character '½'", 5), None),
]


@pytest.mark.parametrize("float_ok", [False, True], ids=["rational", "float"])
@pytest.mark.parametrize("text, rational, floating", TOKENS,
                         ids=[row[0] for row in TOKENS])
def test_tokens(text, rational, floating, float_ok):
    expected = floating if float_ok and floating is not None else rational
    if isinstance(expected, list):
        tokens = _tokenize(text, float_ok)
        assert tokens == expected + [("END", "", len(text) + 1, None)]
        assert [type(tok[3]) for tok in tokens[:-1]] == [type(tok[3]) for tok in expected]
        return
    with pytest.raises(nc.EquationSyntaxError) as err:
        _tokenize(text, float_ok)
    assert type(err.value) is nc.EquationSyntaxError
    assert (str(err.value), err.value.column) == expected


@given(st.text(alphabet=list("0123456789./eE+-*^()= \tijkx_٣²"), max_size=16),
       st.booleans())
def test_tokens_spell_the_input(text, float_ok):
    """Every token sits at its column and the tokens spell the input without
    its whitespace, or the error names a column inside it."""
    try:
        tokens = _tokenize(text, float_ok)
    except nc.EquationSyntaxError as err:
        assert 1 <= err.column <= len(text) + 1
        return
    assert tokens[-1] == ("END", "", len(text) + 1, None)
    for kind, token, col, value in tokens:
        assert text[col - 1:col - 1 + len(token)] == token
        if kind == "NUM":
            assert value == (Fraction(token) if isinstance(value, Fraction)
                             else float(token))
    assert "".join(tok[1] for tok in tokens) == "".join(text.split())


class TestNormalizeLinear:
    def test_two_unknowns(self, hq, units):
        one, i, j, k = units
        pair = parse_equation("i*x1 + x2*j = k", hq)
        system = normalize_linear(hq, [pair], ["x1", "x2"])
        assert system.ops[0][0] == nc.tensor_from_pairs([(i, one)])
        assert system.ops[0][1] == nc.tensor_from_pairs([(one, j)])
        assert system.rhs[0] == k

    def test_constants_move_right(self, hq, units):
        one, i, j, k = units
        pair = parse_equation("i*x + j = k + x*i", hq)
        system = normalize_linear(hq, [pair], ["x"])
        # i*x - x*i = k - j
        assert system.ops[0][0] == nc.tensor_from_pairs([(i, one), (-one, i)])
        assert system.rhs[0] == k - j

    def test_nonlinear_rejected(self, hq):
        pair = parse_equation("x*x = 1", hq)
        with pytest.raises(nc.NonlinearTerm) as err:
            normalize_linear(hq, [pair], ["x"])
        assert "x" in str(err.value)
        pair = parse_equation("x^2 = 1", hq)
        with pytest.raises(nc.NonlinearTerm):
            normalize_linear(hq, [pair], ["x"])

    def test_nonlinear_names_the_subterm(self, hq):
        pair = parse_equation("x*(1+x) = 0", hq)
        with pytest.raises(nc.NonlinearTerm) as err:
            normalize_linear(hq, [pair], ["x"])
        assert str(err.value) == "product of unknowns in '(x)*(1 + x)'"
        # factors are walked one at a time: the product fails before y is read
        pair = parse_equation("x*x*y = 0", hq)
        with pytest.raises(nc.NonlinearTerm):
            normalize_linear(hq, [pair], ["x"])

    def test_matches_ast_evaluation(self, hq, rng):
        cases = [
            ("(i+j)*x*k + k*x*(j+k) = 1+k", ["x"]),
            ("(1 + i - 2j)*x*(k - 1/2) + 3 = (j + k)*(1 - i) - x", ["x"]),
            ("2 - (i+j)*(x + 1)*(1+k) = (k - i)*x*j + (1 + j)^3", ["x"]),
            ("(1+i)*x1*(j-k) + x2*(2 + k) - i = (j + 1/3)*x2*(i+k) + (1-j)*(1+k)",
             ["x1", "x2"]),
            ("-(x1 + (1-k)*x2)*(i + j) + k^2 = x1 - (2 + i)", ["x1", "x2"]),
        ]
        for text, names in cases:
            lhs, rhs = parse_equation(text, hq)
            system = normalize_linear(hq, [(lhs, rhs)], names)
            for _ in range(10):
                xs = [rand_element(hq, rng) for _ in names]
                values = dict(zip(names, xs))
                direct = eval_with(lhs, hq, values) - eval_with(rhs, hq, values)
                assert system.apply_ops(xs)[0] - system.rhs[0] == direct, text

    def test_unknown_symbol(self, hq):
        pair = parse_equation("y + 1 = 0", hq)
        with pytest.raises(nc.UnknownSymbol):
            normalize_linear(hq, [pair], ["x"])

    def test_round_trip_of_random_systems(self, hq, rng):
        # build a system programmatically, render it, parse it back, and
        # compare the canonical operator forms
        for _ in range(15):
            terms = [
                (rand_nonzero(hq, rng), rand_nonzero(hq, rng))
                for _ in range(rng.randint(1, 3))
            ]
            rhs = rand_element(hq, rng)
            text = " + ".join(
                f"({format_element(a)})*x*({format_element(b)})"
                for a, b in terms
            ) + f" = {format_element(rhs)}"
            system = normalize_linear(hq, [parse_equation(text, hq)], ["x"])
            assert system.ops[0][0] == nc.tensor_from_pairs(terms)
            assert system.rhs[0] == rhs


class TestNormalizePoly:
    def test_flagship_map(self, hq, units):
        one, i, j, k = units
        pair = parse_equation("x^2 - i*x - x*j + k = 0", hq)
        poly, target = normalize_poly(hq, pair, "x")
        assert poly == GeneralizedPolynomial(hq, [
            [one, one, one], [-i, one], [one, -j], [k]])
        assert target == hq.zero()

    def test_constant_equation(self, hq, units):
        one, i, j, k = units
        pair = parse_equation("k = k", hq)
        poly, target = normalize_poly(hq, pair, "x")
        assert poly == GeneralizedPolynomial(hq, [[k]])
        assert target == k

    def test_product_flattening(self, hq, units):
        one, i, j, k = units
        pair = parse_equation("(i*x)*(x*j) = 1", hq)
        poly, target = normalize_poly(hq, pair, "x")
        assert poly == GeneralizedPolynomial(hq, [[i, one, j]])
        assert target == one

    def test_constant_sums_stay_one_coefficient(self, hq, units):
        one, i, j, k = units
        pair = parse_equation("(i+j)*x*(1+k) = 0", hq)
        poly, target = normalize_poly(hq, pair, "x")
        assert poly == GeneralizedPolynomial(hq, [[i + j, one + k]])
        assert len(poly.monomials) == 1
        assert target == hq.zero()

    def test_unknown_terms_on_right_move_left(self, hq, units):
        one, i, j, k = units
        pair = parse_equation("x^2 = i*x + k", hq)
        poly, target = normalize_poly(hq, pair, "x")
        assert poly == GeneralizedPolynomial(hq, [[one, one, one], [-i, one]])
        assert target == k

    def test_matches_ast_evaluation(self, hq, rng):
        texts = [
            "x^2 - i*x - x*j + k = 0",
            "(i*x)*(x*j) + 2x = 1",
            "x^3 + (1+i)*x*(1-i) = j",
            "-x^2 + k*x*k = -1",
        ]
        for text in texts:
            lhs, rhs = parse_equation(text, hq)
            poly, target = normalize_poly(hq, (lhs, rhs), "x")
            for _ in range(20):
                x = rand_element(hq, rng)
                direct = eval_with(lhs, hq, {"x": x}) - eval_with(rhs, hq, {"x": x})
                assert poly.evaluate(x) - target == direct

    @pytest.mark.parametrize("mode", [nc.RATIONAL, nc.FLOAT])
    def test_merge_compares_each_monomial_once(self, mode, monkeypatch):
        # (x + i*x + x*j + k)^4 expands to 4^4 = 256 monomials, 151 after
        # like ones merge.  The merge used to scan the merged list for each
        # one, 19841 element comparisons (4.4 M for ^6); keyed by the tail,
        # it compares only on a repeated tail
        alg = nc.quaternion_algebra(mode)
        pair = parse_equation("(x + i*x + x*j + k)^4 = 1", alg)
        calls, eq = [], _StoredPair.__eq__

        def counted(a, b):
            calls.append(1)
            return eq(a, b)
        monkeypatch.setattr(_StoredPair, "__eq__", counted)
        poly, _ = normalize_poly(alg, pair, "x")
        assert len(poly.monomials) == 151
        assert len(calls) < 4 ** 4

    def test_degree_bound(self, hq):
        pair = parse_equation("x^9 = 0", hq)
        with pytest.raises(nc.DegreeLimitExceeded):
            normalize_poly(hq, pair, "x")
        poly, _ = normalize_poly(hq, parse_equation("x^8 = 0", hq), "x")
        assert max(len(m) - 1 for m in poly.monomials) == 8

    def test_wrong_unknown(self, hq):
        pair = parse_equation("y^2 = 0", hq)
        with pytest.raises(nc.UnknownSymbol):
            normalize_poly(hq, pair, "x")


class TestFormatting:
    def test_goldens(self, hq):
        assert format_element(hq.element(["-1/2", 0, "-1/2", 0])) == "-1/2 - 1/2j"
        assert format_element(hq.zero()) == "0"
        assert format_element(hq.element([0, 1, 1, 1])) == "i + j + k"
        assert format_element(hq.element([2, 0, 0, "-3/2"])) == "2 - 3/2k"

    @pytest.mark.parametrize("coords, text", [
        ((-2, 1, 0, 0), "-2 + i"),
        ((1, -1, 0, 0), "1 - i"),
        ((-1, 0, 1, 0), "-1 + j"),
        ((0, -1, 0, 1), "-i + k"),
        ((0.0, 1e-07, 0.0, -2.5), "1e-07i - 2.5k"),
        ((-0.0, 0.0, 1.0, -0.0), "j"),
        ((0.0, -0.0, 0.0, 0.0), "0"),
        ((0, 0, 0, 0), "0"),
    ])
    def test_coords_goldens(self, coords, text):
        assert format_coords(coords, ("1", "i", "j", "k")) == text

    @pytest.mark.parametrize("mode, coeff, text", [
        (nc.RATIONAL, [[-1, 0, 0, 0], [0, 0, 1, 0], [0] * 4, [0, 0, 0, "1/2"]],
         "-(1⊗1) + (i⊗j) + 1/2(k⊗k)"),
        (nc.RATIONAL, [[1, 0, 0, 0], [0, 0, -1, 0], [0] * 4, [0, -2, 0, 0]],
         "(1⊗1) - (i⊗j) - 2(k⊗i)"),
        (nc.FLOAT, [[1.0, 0, 0, 0], [0, 0, -1.0, 0], [0] * 4, [0, -2.0, 0, 0]],
         "(1⊗1) - (i⊗j) - 2.0(k⊗i)"),
        (nc.FLOAT, [[-0.0, 1e-07, 0, 0], [0] * 4, [0] * 4, [0, 0, -0.0, -1.0]],
         "1e-07(1⊗i) - (k⊗k)"),
        (nc.FLOAT, [[-0.0] * 4] * 4, "0"),
        (nc.RATIONAL, [[0] * 4] * 4, "0"),
    ])
    def test_tensor_goldens(self, mode, coeff, text):
        assert nc.TensorOp(nc.quaternion_algebra(mode), coeff).to_text() == text

    def test_round_trip_random(self, hq, rng):
        for _ in range(50):
            x = hq.element([Fraction(rng.randint(-12, 12), rng.randint(1, 9))
                            for _ in range(4)])
            back = evaluate_constant(parse_expression(format_element(x), hq), hq)
            assert back == x

    def test_round_trip_float(self, hq_float, rng):
        for _ in range(20):
            x = hq_float.element([rng.uniform(-2, 2) for _ in range(4)])
            back = evaluate_constant(
                parse_expression(format_element(x), hq_float), hq_float)
            assert back == x

    @pytest.mark.parametrize("build, names", [
        (lambda: clifford_algebra(1, 1, nc.FLOAT), None),
        (lambda: matrix_algebra(2, nc.FLOAT), ("1", "E11", "E01", "E10")),
        (lambda: clifford_algebra(1, 1, nc.FLOAT), ("1", "e1x", "E2", "_e3")),
    ])
    def test_round_trip_float_over_exponent_like_names(self, build, names, rng):
        # the grammar reads "2.5e1" as 25.0, so a repr with a decimal point
        # and no exponent takes a "*" before such a name
        alg = build()
        if names:
            alg = nc.make_algebra(alg.constants, names, nc.FLOAT)
        for _ in range(60):
            x = alg.element([rng.choice((0.0, 1.0, 2.5, rng.uniform(-9, 9),
                                         rng.uniform(-1, 1) * 1e-9, rng.uniform(-1, 1) * 1e20))
                             for _ in range(alg.dim)])
            back = evaluate_constant(parse_expression(format_element(x), alg), alg)
            # bit for bit but the sign of a zero, which the text drops
            assert float_bits(v + 0.0 for v in back._nums) == float_bits(x._nums), \
                format_element(x)

    @pytest.mark.parametrize("coords, names, text", [
        ((0.0, 2.5, 0.0, 0.0), ("1", "e1", "e2", "e12"), "2.5*e1"),
        ((0.0, -2.5, 1e-07, 0.0), ("1", "E11", "e2", "e12"), "-2.5*E11 + 1e-07e2"),
        ((0.0, 2.5, 0.0, 3.0), ("1", "i", "j", "e"), "2.5i + 3.0e"),
        ((0.0, 0.0, 0.0, 1e+16), ("1", "e1", "e2", "e12"), "1e+16e12"),
        ((0, Fraction(1, 2), 0, 2), ("1", "e1", "e2", "e12"), "1/2e1 + 2e12"),
    ])
    def test_star_goldens(self, coords, names, text):
        assert format_coords(coords, names) == text

    def test_expr_to_text_names_subterms(self, hq):
        expr = parse_expression("k*x*j", hq)
        assert "x" in expr_to_text(expr)


def one_node_per_type():
    return [Lit(Fraction(1)), BasisUnit("i", 1), Unknown("x"), Neg(Unknown("x")),
            Sum((Lit(Fraction(1)), Unknown("x"))), Product((BasisUnit("i", 1), Unknown("x"))),
            Power(Unknown("x"), 2)]


class TestAstNodes:
    # the seven node types are immutable records, hashable by their fields
    NODES = one_node_per_type()

    def test_construction_by_keyword(self):
        x = Unknown(name="x")
        assert [Lit(value=Fraction(1)), BasisUnit(name="i", index=1), x, Neg(operand=x),
                Sum(terms=(Lit(Fraction(1)), x)), Product(factors=(BasisUnit("i", 1), x)),
                Power(base=x, exponent=2)] == self.NODES

    def test_repr(self):
        assert [repr(node) for node in self.NODES] == [
            "Lit(value=Fraction(1, 1))",
            "BasisUnit(name='i', index=1)",
            "Unknown(name='x')",
            "Neg(operand=Unknown(name='x'))",
            "Sum(terms=(Lit(value=Fraction(1, 1)), Unknown(name='x')))",
            "Product(factors=(BasisUnit(name='i', index=1), Unknown(name='x')))",
            "Power(base=Unknown(name='x'), exponent=2)",
        ]

    def test_parse_builds_these_nodes(self, hq):
        assert parse_expression("1 + x", hq) == self.NODES[4]
        assert parse_expression("i*x", hq) == self.NODES[5]

    def test_equality_needs_the_type_and_every_field(self):
        assert Unknown("x") != Lit("x")
        assert Unknown("x") != ("x",)
        assert Power(Unknown("x"), 2) != Power(Unknown("x"), 3)

    def test_immutable_and_hashable(self):
        for node, name in zip(self.NODES, ["value", "name", "name", "operand", "terms",
                                           "factors", "base"]):
            with pytest.raises(AttributeError):
                setattr(node, name, None)
            with pytest.raises(AttributeError):
                delattr(node, name)
        again = one_node_per_type()
        assert [hash(node) for node in again] == [hash(node) for node in self.NODES]
        assert len(set(self.NODES + again)) == len(self.NODES)

    def test_pickle_and_deepcopy(self):
        for node in self.NODES:
            assert_round_trips(node)

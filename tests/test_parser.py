"""Tokenizer, grammar, error offsets, and the render round trip."""

import random
from fractions import Fraction

import pytest

from liouvillian.algebra import Poly, RatFunc, ResourceLimitError, _cleared, _int_mul
from liouvillian.parser import (MAX_COEFFICIENT_DIGITS, MAX_DEGREE, MAX_EXPONENT,
                                MAX_LITERAL_DIGITS, MAX_NESTING,
                                ParseError, parse,
                                parse_expression, parse_tree,
                                parse_poly_over_coeff_field, parse_polynomial,
                                render, render_poly, tokenize)
from liouvillian.parser import _coefficient, _reduce_pair, _size_bound

from helpers import is_canonical, rand_ratfunc, reference_parse, reference_poly_over_coeff_field

Y = Poly.gen("y")


class TestTokenize:
    def test_example_stream(self):
        kinds = [(t.kind, t.lexeme) for t in tokenize("y^2 + 1")]
        assert kinds == [("identifier", "y"), ("caret", "^"), ("integer", "2"),
                         ("plus", "+"), ("integer", "1"), ("end", "")]

    def test_offsets_strictly_increase(self):
        toks = tokenize("1/(x^2)")
        offsets = [t.offset for t in toks]
        assert offsets == sorted(set(offsets))
        assert [t.kind for t in toks[:-1]] == ["integer", "slash", "lparen",
                                               "identifier", "caret", "integer",
                                               "rparen"]

    def test_illegal_character(self):
        with pytest.raises(ParseError) as err:
            tokenize("y $ 2")
        assert err.value.offset == 2

    def test_unbounded_integers(self):
        toks = tokenize("123456789012345678901234567890")
        assert toks[0].lexeme == "123456789012345678901234567890"

    def test_literals_are_decimal_digits(self):
        # superscripts pass str.isdigit() but not int(); they are illegal
        with pytest.raises(ParseError) as err:
            tokenize("y^\u00b2")
        assert err.value.offset == 2 and "illegal character" in str(err.value)
        # other Unicode decimal digits read as int() reads them
        assert parse_expression("y^\u0663", "y") == parse_expression("y^3", "y")

    def test_span_offsets_count_from_the_start_of_the_text(self):
        toks = tokenize("1/x; y+1", 4, 8)
        assert [(t.kind, t.offset) for t in toks] == [
            ("identifier", 5), ("plus", 6), ("integer", 7), ("end", 8)]


class TestParse:
    def test_polynomial(self):
        assert parse_expression("y^3 + y^2", "y") == RatFunc(Y**3 + Y**2)

    def test_caret_binds_tighter_than_slash(self):
        f = parse_expression("1/x^3", "x")
        x = Poly.gen("x")
        assert f == RatFunc(Poly.const("x", 1), x**3)

    def test_rational_coefficients(self):
        f = parse_expression("(3/2)*y - 1/2", "y")
        assert f == RatFunc(Poly("y", (Fraction(-1, 2), Fraction(3, 2))))

    def test_precedence_oracle(self):
        assert parse_expression("1/2*y", "y") == RatFunc(Poly("y", (0, Fraction(1, 2))))

    def test_caret_non_associative(self):
        with pytest.raises(ParseError, match="non-associative"):
            parse_expression("2^3^2", "y")

    def test_unary_minus_precedence(self):
        # '^' binds tighter than unary '-'
        assert parse_expression("-y^2", "y") == RatFunc(-(Y**2))

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("y^-1", "y")

    def test_trailing_input(self):
        with pytest.raises(ParseError) as err:
            parse_expression("y + ", "y")
        assert err.value.offset == 4

    def test_wrong_variable(self):
        with pytest.raises(ParseError, match="expected 'y'") as err:
            parse_expression("x + 1", "y")
        assert err.value.offset == 0

    def test_division_by_zero_expression(self):
        with pytest.raises(ParseError, match="identically zero"):
            parse_expression("1/(y - y)", "y")

    def test_missing_closing_paren(self):
        with pytest.raises(ParseError, match="'\\)'"):
            parse_expression("(y + 1", "y")

    def test_parse_takes_token_stream(self):
        assert parse(tokenize("y + 1"), "y") == RatFunc(Y + 1)

    def test_parse_polynomial_rejects_fractions(self):
        with pytest.raises(ParseError, match="polynomial"):
            parse_polynomial("1/y", "y")
        assert parse_polynomial("y^2/2", "y") == Poly("y", (0, 0, Fraction(1, 2)))

    def test_nested_parens_and_double_negation(self):
        assert parse_expression("(((y)))", "y") == RatFunc(Y)
        assert parse_expression("--y", "y") == RatFunc(Y)
        assert parse_expression("-(-y + 1)", "y") == RatFunc(Y - 1)

    def test_nesting_cap(self):
        at_cap = "(" * MAX_NESTING + "y" + ")" * MAX_NESTING
        assert parse_expression(at_cap, "y") == RatFunc(Y)
        with pytest.raises(ParseError, match="nested deeper") as info:
            parse_expression("(" + at_cap + ")", "y")
        assert info.value.offset == MAX_NESTING
        with pytest.raises(ParseError, match="nested deeper"):
            parse_expression("-" * (MAX_NESTING + 1) + "y", "y")
        with pytest.raises(ParseError, match="nested deeper"):
            parse_poly_over_coeff_field("(" * 3000 + "y" + ")" * 3000, "y", "x")

    def test_long_chains_need_no_nesting(self):
        # each chain is longer than Python's default recursion limit
        assert parse_expression("+".join(["y"] * 1500), "y") == RatFunc(1500 * Y)
        assert parse_expression("/".join(["y"] + ["2"] * 1500), "y") == \
            RatFunc(Y * Fraction(1, 2**1500))
        coeffs = parse_poly_over_coeff_field("-".join(["x*y"] * 1500), "y", "x")
        assert coeffs[1] == RatFunc.const("x", -1498) * RatFunc.gen("x")

    def test_zero_exponent(self):
        assert parse_expression("y^0", "y") == RatFunc.const("y", 1)
        assert parse_expression("y^50", "y") == RatFunc(Y**50)

    def test_exponent_cap(self):
        assert parse_tree(tokenize(f"y^{MAX_EXPONENT}")).exponent == MAX_EXPONENT
        assert parse_expression("y^0003", "y") == RatFunc(Y**3)
        for literal in (str(MAX_EXPONENT + 1), "9" * 5000):
            with pytest.raises(ResourceLimitError, match=f"exponent literal {literal} "):
                parse_tree(tokenize(f"(y+1)^{literal}"))
        with pytest.raises(ResourceLimitError, match="stage: parse"):
            parse_poly_over_coeff_field(f"x*y^{MAX_EXPONENT + 1}", "y", "x")

    def test_literal_digit_cap(self):
        widest = 10**MAX_LITERAL_DIGITS - 1
        assert parse_expression("9" * MAX_LITERAL_DIGITS, "y") == RatFunc.const("y", widest)
        # leading zeros are not significant
        assert parse_expression("0" * 5000 + "7", "y") == RatFunc.const("y", 7)
        with pytest.raises(ResourceLimitError,
                           match=f"at offset 4 has {MAX_LITERAL_DIGITS + 1} digits"):
            parse_expression("y - 0" + "1" * (MAX_LITERAL_DIGITS + 1), "y")
        with pytest.raises(ResourceLimitError, match="stage: parse"):
            parse_poly_over_coeff_field("x*y + " + "1" * 5000, "y", "x")

    def test_degree_budget(self):
        assert parse_expression(f"(y+1)^{MAX_DEGREE}", "y") == \
            RatFunc(Poly("y", (1, 1)) ** MAX_DEGREE)
        assert parse_expression(f"1/y^{MAX_DEGREE} + 1", "y").den == Y**MAX_DEGREE
        over = f"degree {MAX_DEGREE + 1}, above the bound MAX_DEGREE = {MAX_DEGREE}"
        with pytest.raises(ResourceLimitError, match=f"offset 5 has {over} \\(stage: parse\\)"):
            parse_expression(f"(y+1)^{MAX_DEGREE + 1}", "y")
        with pytest.raises(ResourceLimitError, match=f"offset {len(str(MAX_DEGREE)) + 2} has {over}"):
            parse_expression(f"y^{MAX_DEGREE}*y", "y")
        with pytest.raises(ResourceLimitError, match=over):
            parse_expression(f"1/(1/y^{MAX_DEGREE} + y)", "y")

    def test_coefficient_budget(self):
        widest = 10**MAX_COEFFICIENT_DIGITS - 1
        assert parse_expression(f"y/{widest} + 1", "y") == RatFunc(Y * Fraction(1, widest) + 1)
        # coefficients are measured with their denominators cleared
        with pytest.raises(ResourceLimitError, match="has coefficients of up to"):
            parse_expression(f"y/{widest} + {widest}", "y")
        # 10^4300 has 4301 digits and 14285 bits, as many as 10^4300 - 1
        assert parse_expression("(10^1000)^4*10^299*y", "y") == RatFunc(Y * 10**4299)
        with pytest.raises(ResourceLimitError,
                           match="offset 11 has coefficients of up to 14285 bits, more than the "
                                 f"bound MAX_COEFFICIENT_DIGITS = {MAX_COEFFICIENT_DIGITS} "
                                 "decimal digits \\(stage: parse\\)"):
            parse_expression("(10^1000)^4*10^300*y", "y")
        with pytest.raises(ResourceLimitError, match="offset 4304 has coefficients of up to"):
            parse_expression(f"(y+{widest})*{widest}", "y")
        # a power is refused before it is formed, on a bound of its size
        with pytest.raises(ResourceLimitError,
                           match="offset 4004 has coefficients of up to 26577 bits"):
            parse_expression("(y+" + "9" * 4000 + ")^2", "y")
        # a coefficient that cancels is not counted
        assert parse_expression(f"{widest}*y - {widest}*y + 1", "y") == RatFunc.const("y", 1)

    def test_empty_input(self):
        with pytest.raises(ParseError, match="end of input"):
            parse_expression("", "y")
        with pytest.raises(ParseError):
            parse_expression("   ", "y")


class TestTwoVariableMode:
    def test_mixed_terms(self):
        coeffs = parse_poly_over_coeff_field("y^3 + x*y", "y", "x")
        assert len(coeffs) == 4
        assert coeffs[0].is_zero()
        assert coeffs[1] == RatFunc.gen("x")
        assert coeffs[2].is_zero()
        assert coeffs[3] == RatFunc.const("x", 1)

    def test_rational_function_coefficients(self):
        coeffs = parse_poly_over_coeff_field("y^2/(x^2+1) - y", "y", "x")
        assert coeffs[2] == parse_expression("1/(x^2+1)", "x")
        assert coeffs[1] == RatFunc.const("x", -1)

    def test_division_by_main_variable_rejected(self):
        with pytest.raises(ParseError, match="cannot divide"):
            parse_poly_over_coeff_field("x/y", "y", "x")

    def test_unknown_variable(self):
        with pytest.raises(ParseError, match="expected"):
            parse_poly_over_coeff_field("z + y", "y", "x")


def _outcome(parse_fn, *args):
    try:
        return parse_fn(*args)
    except (ParseError, ResourceLimitError) as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)


def _random_bivar_text(rng: random.Random, depth: int, with_y: bool = True) -> str:
    """A random expression in x and (if with_y) y; divisors are y-free,
    except now and then, to reach the error path."""
    if depth == 0 or rng.random() < 0.2:
        leaves = ["x", str(rng.randint(0, 3)), str(rng.randint(0, 12)),
                  f"(x-{rng.randint(1, 3)})", f"{rng.randint(1, 5)}/{rng.randint(1, 7)}"]
        return rng.choice(leaves + ["y", "y"] if with_y else leaves)
    kind = rng.choice(["+", "-", "*", "/", "^", "neg", "chain"])
    operand = _random_bivar_text(rng, depth - 1, with_y)
    if kind == "neg":
        return f"-{operand}" if rng.random() < 0.5 else f"-({operand})"
    if kind == "^":
        # high powers of small operands reach the budget
        return f"({operand})^{rng.randint(0, 4) if depth > 1 else rng.choice([0, 9, 17])}"
    if kind == "/":
        divisor = _random_bivar_text(rng, depth - 1, with_y and rng.random() < 0.05)
        return f"({operand})/({divisor})"
    if kind == "chain":
        terms = [operand] + [_random_bivar_text(rng, depth - 1, with_y)
                             for _ in range(rng.randint(1, 3))]
        return "".join(f"{rng.choice('+-*')}{t}" if i else t for i, t in enumerate(terms))
    return f"({operand}){kind}({_random_bivar_text(rng, depth - 1, with_y)})"


_WIDE = "1" + "0" * 4000


class TestTwoVariableAgainstReference:
    """The unreduced-pair fold against the canonical RatFunc fold of
    tests/helpers.py: equal coefficients, or the same error, message and
    offset."""

    @pytest.mark.parametrize("text", ids=lambda text: text[:60], argvalues=[
        # cancellation, repeated and distinct denominators, zero results
        "(x-1)/(x-1)*y", "y*(x-1)/(x-1)", "(x^2-1)/(x-1) - (x+1)", "x*y - y*x",
        "1/(x-1) + 1/(x-1)", "1/(x-1) + 1/(x-2) - 1/(x-1)", "1/(x-1)^2 - 1/(x-1)^2 + y",
        "(y/(x-1) + y/(x+1))*(x^2-1) - 2*x*y", "(x+1)/(2*x+2)*y^2", "(6*x+4)/(9*x+6)*y",
        # powers, zero exponents, division by y-free values, negation
        "0^0", "0^0*y", "(x-x)^0", "y^0", "(x*y+1)^3/(x^2-4)", "y/(2*x)/(3/x)",
        "-(-(y))", "-y^2/(x+1)", "--x*-y", "(y - y)^3", "((x-1)*y/(x+1))^4",
        # division and syntax errors
        "x/y", "y/(x-x)", "y/0", "(y+1)/(y-y)", "z+y", "x*+y", "(x+y", "y^-1",
        "y^x", "x^2^3", "", "y $ 2", "(x+1)^1001",
        # budgets
        "(x^2+3/7*x+y)^200", "(x+1)^1000*y^3", "(x+1)^64*y", "(x+1)^65*y",
        "y^64", "y^65", "y^64*x", "1/(1/x^64 + x)*y", "y^32*x^33",
        "(1/(x-1)^5 + y/(x-2)^5 + y^2/(x-3)^5)^6",
        "(1/(x-1)^5 + y/(x-2)^5 + y^2/(x-3)^5)^7",
        "(1/(x-1)^5 + y/(x-2)^5 + y^2/(x-3)^5)^8",
        "((x+1)^40/(x+1)^39*y)^2", f"({_WIDE}*x*y/{_WIDE})^2",
        f"({_WIDE}*x*y/{_WIDE})^3*{_WIDE}", f"({_WIDE}*x*y + 1)^2",
        "(x+" + "9" * 4000 + ")^2*y", "(10^1000)^4*10^299*x*y", "(10^1000)^4*10^300*x*y",
        "9" * 4300 + "*y/x + " + "9" * 4300, "x*y + " + "1" * 5000,
    ])
    def test_edge_cases(self, text):
        assert _outcome(parse_poly_over_coeff_field, text, "y", "x") == \
            _outcome(reference_poly_over_coeff_field, text, "y", "x")

    def test_random_trees(self):
        rng = random.Random(2718)
        outcomes = set()
        for _ in range(600):
            text = _random_bivar_text(rng, 4)
            got = _outcome(parse_poly_over_coeff_field, text, "y", "x")
            assert got == _outcome(reference_poly_over_coeff_field, text, "y", "x"), text
            outcomes.add(got[0] if isinstance(got, tuple) else len(got) > 2)
        # the corpus reaches both error types and polynomials of degree > 1
        assert {ParseError, ResourceLimitError, True, False} <= outcomes

    def test_size_bound_covers_the_canonical_value(self):
        """Degree and cleared bits of num/den in lowest terms are within
        _size_bound of the unreduced pair (A*G, B*G)."""
        rng = random.Random(1974)

        def rand_ints(degree, bits):
            cs = [rng.randint(-2**bits, 2**bits) for _ in range(degree)]
            return cs + [rng.choice([-1, 1]) * rng.randint(1, 2**bits)]

        def x_power_minus_one(n):
            return [-1] + [0] * (n - 1) + [1]

        # in lowest terms the numerator is the cyclotomic polynomial of order
        # 105, whose coefficients are wider than those of x^105 - 1
        pairs = [(x_power_minus_one(105),
                  _int_mul(_int_mul(x_power_minus_one(35), x_power_minus_one(21)),
                           x_power_minus_one(15)))]
        for _ in range(300):
            bits = rng.choice([1, 3, 20, 60])
            g = rand_ints(rng.randint(0, 6), rng.choice([1, bits]))
            a, b = rand_ints(rng.randint(0, 5), bits), rand_ints(rng.randint(0, 5), bits)
            pairs.append((_int_mul(a, g), _int_mul(b, g)))
        for num, den in pairs:
            inner, bits = _size_bound((num, den))
            f = RatFunc(Poly("x", num), Poly("x", den))
            ints, _ = _cleared(f.num.coeffs + f.den.coeffs)
            assert max(len(f.num.coeffs), len(f.den.coeffs)) - 1 <= inner
            assert max(abs(c) for c in ints).bit_length() <= bits


def _random_single_text(rng: random.Random, depth: int) -> str:
    """A random expression in y; now and then a divisor is zero, a variable
    unknown, a literal wide or an exponent high, to reach the error paths."""
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.01:
            return "x"
        return rng.choice(["y", "y", str(rng.randint(0, 3)), f"(y-{rng.randint(1, 3)})",
                           f"{rng.randint(1, 5)}/{rng.randint(1, 7)}",
                           "9" * rng.choice([20, 1000])])
    kind = rng.choice(["+", "-", "*", "/", "^", "neg"])
    operand = _random_single_text(rng, depth - 1)
    if kind == "neg":
        return f"-{operand}" if rng.random() < 0.5 else f"-({operand})"
    if kind == "^":
        return f"({operand})^{rng.choice([0, 1, 2, 3, 5, 9, 17, 33])}"
    return f"({operand}){kind}({_random_single_text(rng, depth - 1)})"


# (y + 10^n - 1)^2: the square's prediction is 2*bits + 1 against the 14,285
# bits of MAX_COEFFICIENT_DIGITS, within it at 2,149 nines and over at 2,150
_NINES_WITHIN, _NINES_OVER = "9" * 2149, "9" * 2150


class TestOneVariableAgainstReference:
    """The one-variable parse, an unreduced integer pair, against the
    canonical RatFunc fold of tests/helpers.py: equal values, or the same
    error, message and offset."""

    @pytest.mark.parametrize("text", ids=lambda text: text[:60], argvalues=[
        # cancellation, zero results and zero exponents
        "(y-1)/(y-1)", "(y^2-1)/(y-1) - (y+1)", "y - y", "1/(y-1) + 1/(y-2) - 1/(y-1)",
        "(6*y+4)/(9*y+6)", "0^0", "(y-y)^0", "y^0", "0", "-(-(y))", "--y*-y",
        "((y^2-1)/(y-1))^3", "y/(2*y)/(3/y)",
        # division, variable and syntax errors
        "y/(y-y)", "y/0", "(y+1)/(y*0)", "x+y", "y*z", "(y", "y)", "y^-1", "y^2^3",
        "", "y $ 2",
        # budgets
        "y^64", "y^65", "(y+1)^64", "(y+1)^1000", "y^1001", "(y^2+1)^32*y",
        "1/(1/y^64 + y)", "(y^40/y^39)^2", f"(y+{_NINES_WITHIN})^2",
        f"(y+{_NINES_OVER})^2", f"({_NINES_OVER}*y)^2/{_NINES_OVER}",
        "9" * 4300, "9" * 4301, "(" * MAX_NESTING + "y" + ")" * MAX_NESTING,
        "(" * (MAX_NESTING + 1) + "y" + ")" * (MAX_NESTING + 1),
        "1^1000", "(9999/10001)^1000", "(123456789*y+987654321)^64",
        # long sums, with repeated denominators
        " + ".join(f"{i}/(y-{i % 7})" for i in range(1500)),
        " + ".join(f"1/(y-{i % 4})^{1 + i % 3}" for i in range(200)),
    ])
    def test_edge_cases(self, text):
        assert _outcome(parse_expression, text, "y") == \
            _outcome(reference_parse, text, "y")

    def test_random_trees(self):
        rng = random.Random(1618)
        outcomes = set()
        for _ in range(600):
            text = _random_single_text(rng, 4)
            got = _outcome(parse_expression, text, "y")
            assert got == _outcome(reference_parse, text, "y"), text
            outcomes.add(got[0] if isinstance(got, tuple) else got.is_polynomial())
        # the corpus reaches both error types, polynomials and fractions
        assert {ParseError, ResourceLimitError, True, False} <= outcomes


class TestRender:
    def test_examples(self):
        assert render(parse_expression("-1/y", "y")) == "-1/y"
        assert render(parse_expression("y/(y+1)", "y")) == "y/(y + 1)"
        assert render(parse_expression("3/(2*y)", "y")) == "(3/2)/y"
        assert render_poly(Poly("y", (1, 0, 4))) == "4*y^2 + 1"
        assert render_poly(Poly.zero("y")) == "0"
        assert render_poly(Poly("y", (Fraction(-1, 2), -1))) == "-y - 1/2"

    def test_round_trip_randomized(self):
        rng = random.Random(97)
        for _ in range(400):
            f = rand_ratfunc(rng, "y", max_deg=4)
            text = render(f)
            again = parse_expression(text, "y")
            assert again == f
            # determinism: same value renders byte-identically
            assert render(again) == text


class TestCoefficient:
    """The parser's one reduction of an unreduced integer pair."""

    def test_against_the_constructor(self):
        rng = random.Random(97)
        for _ in range(500):
            common = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]
            common[-1] = common[-1] or 1
            num = _int_mul([rng.randint(-5, 5) for _ in range(rng.randint(0, 3))], common)
            den = _int_mul([rng.randint(-5, 5) or 1 for _ in range(rng.randint(1, 3))],
                           common)
            num = [rng.choice([1, 6, -10]) * c for c in num]
            while num and not num[-1]:
                num.pop()  # the fold keeps its lists trimmed
            pair = (num, den)
            f = _coefficient(_reduce_pair(pair), "x")
            assert f == RatFunc(Poly("x", num), Poly("x", den))
            assert is_canonical(f)
            # the reduced pair is the canonical value cleared over Z
            ints, _ = _cleared(f.num.coeffs + f.den.coeffs)
            assert _reduce_pair(pair) == (ints[:len(f.num.coeffs)],
                                          ints[len(f.num.coeffs):])

"""Tokenizer, grammar, error offsets, and the render round trip."""

import random
from fractions import Fraction

import pytest

from liouvillian.algebra import Poly, RatFunc, ResourceLimitError
from liouvillian.parser import (MAX_EXPONENT, MAX_NESTING, ParseError, parse,
                                parse_expression, parse_tree,
                                parse_poly_over_coeff_field, parse_polynomial,
                                render, render_poly, tokenize)

from helpers import rand_ratfunc

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

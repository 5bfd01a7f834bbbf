"""Parse human-entered polynomial / rational-function expressions.

Grammar (whitespace-insensitive)::

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | factor
    factor := base ('^' integer)?
    base   := integer | variable | '(' expr ')'

An ``integer`` is a run of decimal digits: those ``str.isdecimal`` accepts,
which are what ``int`` reads (a superscript such as ``²`` is an illegal
character).  ``^`` binds a single factor, takes a non-negative integer literal
exponent and is non-associative: ``a^b^c`` is a syntax error.  An exponent above
:data:`MAX_EXPONENT` is a :class:`ResourceLimitError`, raised before any power
is formed; so is an integer literal of more than :data:`MAX_LITERAL_DIGITS`
significant digits, raised before it is converted, and a subexpression whose
value would pass :data:`MAX_DEGREE` or :data:`MAX_COEFFICIENT_DIGITS`, raised
before any power of it is formed and after each sum, difference, product or
quotient, so that no decision procedure sees it.  While the tree is folded,
rational coefficients stay unreduced pairs of integer polynomials, and each is
reduced once, at the end, by one gcd over Z.  At the points above a cheap
bound on each unreduced coefficient is measured, and a coefficient is reduced
and measured exactly only when that bound does not prove it within the budget,
so the inputs that pass are those whose reduced values are within it; after
each multiplication of a power such a coefficient is reduced too, which keeps
partial powers small.  Parentheses and unary minus nest at most
:data:`MAX_NESTING` deep (deeper input is a :class:`ParseError`); sums and
products may be of any length.  Rational constants are written with ``/``
("3/2" is exact integer division).  Exactly one variable is allowed per
expression, declared by the consuming subcommand, except in
:func:`parse_poly_over_coeff_field`: a polynomial in a main variable with
coefficients in Q of a second one.

:func:`render` is the inverse printer: its output re-parses to the same
canonical value, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, lcm, log2

from .algebra import (Poly, RatFunc, ResourceLimitError, _int_add, _int_exact_quotient,
                      _int_mul, _int_poly_gcd, _primitive)

# Parentheses plus unary minus signs open at any point of an expression.
MAX_NESTING = 100
# Largest exponent literal, checked while the tree is built; the degree and
# coefficient bounds below then limit what a power may produce.
MAX_EXPONENT = 1000
# Most significant digits in an integer literal: Python's own limit on
# decimal string conversion, checked here so the error names the literal.
MAX_LITERAL_DIGITS = 4300
# Largest degree of the numerator or the denominator of a parsed value.  On
# a 2-core Intel Xeon with Python 3.11, (y^2+1)^32 decides in 0.8 s,
# (y^2+1)^64 in 6.4 s and (y+1)^1000 in 31 s, mostly forming and reducing
# the power.
MAX_DEGREE = 64
# Most decimal digits in a coefficient of a parsed value, its denominators
# cleared: those of the widest literal, so that every parsed value renders.
MAX_COEFFICIENT_DIGITS = MAX_LITERAL_DIGITS
# The bit length of 10^MAX_COEFFICIENT_DIGITS: a coefficient of fewer bits is
# within the bound, one of more bits is not.
_COEFFICIENT_BITS = ceil(MAX_COEFFICIENT_DIGITS * log2(10))


class ParseError(ValueError):
    """Syntax or evaluation error, with the offending input offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


# -- tokens ---------------------------------------------------------------

_SYMBOLS = {"+": "plus", "-": "minus", "*": "star", "/": "slash",
            "^": "caret", "(": "lparen", ")": "rparen"}


@dataclass(frozen=True)
class Token:
    kind: str  # integer | identifier | plus | minus | star | slash | caret | lparen | rparen | end
    lexeme: str
    offset: int


def tokenize(text: str, start: int = 0, end: int | None = None) -> list[Token]:
    """Tokens of text[start:end], at their offsets into `text`."""
    tokens: list[Token] = []
    i = start
    n = len(text) if end is None else end
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            first = i
            while i < n and text[i].isdecimal():
                i += 1
            tokens.append(Token("integer", text[first:i], first))
            continue
        if ch.isalpha():
            first = i
            while i < n and text[i].isalpha():
                i += 1
            tokens.append(Token("identifier", text[first:i], first))
            continue
        if ch in _SYMBOLS:
            tokens.append(Token(_SYMBOLS[ch], ch, i))
            i += 1
            continue
        raise ParseError(f"illegal character {ch!r}", i)
    tokens.append(Token("end", "", n))
    return tokens


# -- syntax tree ----------------------------------------------------------


@dataclass(frozen=True)
class Number:
    value: int
    offset: int


@dataclass(frozen=True)
class Variable:
    name: str
    offset: int


@dataclass(frozen=True)
class Negate:
    operand: "Node"
    offset: int


@dataclass(frozen=True)
class BinaryOp:
    op: str  # add | sub | mul | div
    left: "Node"
    right: "Node"
    offset: int


@dataclass(frozen=True)
class Power:
    base: "Node"
    exponent: int
    offset: int


Node = Number | Variable | Negate | BinaryOp | Power


class _TreeParser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def nested(self, tok: Token, parse):
        if self.depth == MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels",
                             tok.offset)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind in ("plus", "minus"):
            tok = self.advance()
            rhs = self.term()
            node = BinaryOp("add" if tok.kind == "plus" else "sub", node, rhs, tok.offset)
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek().kind in ("star", "slash"):
            tok = self.advance()
            rhs = self.unary()
            node = BinaryOp("mul" if tok.kind == "star" else "div", node, rhs, tok.offset)
        return node

    def unary(self) -> Node:
        if self.peek().kind == "minus":
            tok = self.advance()
            return Negate(self.nested(tok, self.unary), tok.offset)
        return self.factor()

    def factor(self) -> Node:
        node = self.base()
        if self.peek().kind == "caret":
            tok = self.advance()
            exp_tok = self.peek()
            if exp_tok.kind != "integer":
                raise ParseError("exponent must be a non-negative integer literal",
                                 exp_tok.offset)
            self.advance()
            if self.peek().kind == "caret":
                raise ParseError("'^' is non-associative; parenthesize nested powers",
                                 self.peek().offset)
            digits = exp_tok.lexeme.lstrip("0") or "0"
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                raise ResourceLimitError(
                    f"exponent literal {exp_tok.lexeme} at offset {exp_tok.offset} "
                    f"exceeds the bound MAX_EXPONENT = {MAX_EXPONENT} (stage: parse)")
            node = Power(node, int(digits), tok.offset)
        return node

    def base(self) -> Node:
        tok = self.peek()
        if tok.kind == "integer":
            self.advance()
            digits = tok.lexeme.lstrip("0") or "0"
            if len(digits) > MAX_LITERAL_DIGITS:
                raise ResourceLimitError(
                    f"integer literal at offset {tok.offset} has {len(digits)} "
                    f"digits, above the bound MAX_LITERAL_DIGITS = "
                    f"{MAX_LITERAL_DIGITS} (stage: parse)")
            return Number(int(digits), tok.offset)
        if tok.kind == "identifier":
            self.advance()
            return Variable(tok.lexeme, tok.offset)
        if tok.kind == "lparen":
            self.advance()
            node = self.nested(tok, self.expr)
            closing = self.peek()
            if closing.kind != "rparen":
                raise ParseError("expected ')'", closing.offset)
            self.advance()
            return node
        raise ParseError(f"unexpected token {tok.lexeme!r}" if tok.lexeme
                         else "unexpected end of input", tok.offset)


def parse_tree(tokens: list[Token]) -> Node:
    parser = _TreeParser(tokens)
    node = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(f"trailing input {trailing.lexeme!r}", trailing.offset)
    return node


# -- evaluation into canonical values -------------------------------------


def _fold_chain(node: BinaryOp, evaluate, combine):
    """Evaluate a left-leaning chain ``a op b op c ...`` in a loop, so that a
    long sum or product needs no recursion; operands go to ``evaluate``."""
    spine = []
    while isinstance(node, BinaryOp):
        spine.append(node)
        node = node.left
    value = evaluate(node)
    for op_node in reversed(spine):
        value = combine(op_node, value, evaluate(op_node.right))
    return value


def _check_size(f: RatFunc, offset: int, k: int = 1, outer: int = 0) -> None:
    """Refuse f^k if it passes MAX_DEGREE or MAX_COEFFICIENT_DIGITS, judged
    from f: f^k is num^k/den^k, of degree k*deg f, and its coefficients,
    cleared by the k-th power of f's common denominator, have at most
    k*bits + (k-1)*log2(monomials) bits, bits those of f's cleared ones.
    f is one coefficient of a value of degree `outer` in the main variable
    (0 when there is none), which counts towards the degree and monomials; it
    is measured here, after it is reduced, only when :func:`_proved_within`
    cannot admit it from its unreduced form."""
    coeffs = f.num.coeffs + f.den.coeffs
    # lists, not generators: over many lines they leave a lower memory peak
    common = lcm(*[c.denominator for c in coeffs])
    widest = max([abs(c.numerator) * (common // c.denominator) for c in coeffs])
    inner = max(len(f.num.coeffs), len(f.den.coeffs)) - 1
    degree = max(inner, outer)
    monomials = (outer + 1) * (inner + 1)
    bits = k * widest.bit_length() + (k - 1) * (monomials - 1).bit_length()
    if k * degree > MAX_DEGREE:
        limit = f"degree {k * degree}, above the bound MAX_DEGREE = {MAX_DEGREE}"
    elif bits > _COEFFICIENT_BITS or bits == _COEFFICIENT_BITS and (
            k > 1 or widest >= 10**MAX_COEFFICIENT_DIGITS):
        limit = (f"coefficients of up to {bits} bits, more than the bound "
                 f"MAX_COEFFICIENT_DIGITS = {MAX_COEFFICIENT_DIGITS} decimal digits")
    else:
        return
    raise ResourceLimitError(f"subexpression at offset {offset} has {limit} (stage: parse)")


# A value is a polynomial in the main variable whose coefficients are
# rational functions in `coeff`: a coefficient list indexed by the
# main-variable power.  Only the degree-bound subcommand declares a main
# variable; every other parse has none, and its value is a list of at most one
# coefficient.  While the tree is folded each coefficient is an unreduced pair
# (num, den) of integer coefficient lists in `coeff`, zero being ([], [1]); no
# gcd runs until a coefficient's size needs one, and each becomes a canonical
# RatFunc at the end.  Lists inside pairs are shared between values and never
# mutated.

_ZERO = ([], [1])
_ONE = ([1], [1])


def _pair_add(a: tuple, b: tuple) -> tuple:
    (an, ad), (bn, bd) = a, b
    if not an:
        return b
    if not bn:
        return a
    if ad == bd:
        num, den = _int_add(an, bn), ad
    else:
        num, den = _int_add(_int_mul(an, bd), _int_mul(bn, ad)), _int_mul(ad, bd)
    return (num, den) if num else _ZERO


def _pair_mul(a: tuple, b: tuple) -> tuple:
    (an, ad), (bn, bd) = a, b
    if not an or not bn:
        return _ZERO
    return _int_mul(an, bn), _int_mul(ad, bd)


def _reduce_pair(pair: tuple) -> tuple:
    """The canonical value of `pair` as a pair: coprime integer lists with
    no common content and a positive leading denominator coefficient."""
    num, den = pair
    if not num:
        return _ZERO
    pn, pd = _primitive(num), _primitive(den)
    scale = Fraction(num[-1] // pn[-1], den[-1] // pd[-1])
    if len(pn) > 1 and len(pd) > 1:
        g = _int_poly_gcd(pn, pd)
        if len(g) > 1:
            pn, pd = _int_exact_quotient(g, pn), _int_exact_quotient(g, pd)
    return ([scale.numerator * c for c in pn], [scale.denominator * c for c in pd])


def _coefficient(pair: tuple, coeff: str) -> RatFunc:
    """The RatFunc of a pair :func:`_reduce_pair` returned, built with no gcd."""
    num, den = pair
    lead = den[-1]
    return RatFunc._reduced(Poly(coeff, [Fraction(c, lead) for c in num]),
                            Poly(coeff, [Fraction(c, lead) for c in den]))


def _size_bound(pair: tuple) -> tuple[int, int]:
    """Bounds on the degree and on the widest cleared coefficient's bit
    length of the canonical value of `pair`, read off the unreduced pair.

    Cleared, the canonical numerator and denominator are integer factors of
    num and den, so their degree is at most the larger of deg num and
    deg den, and by Mignotte's bound (Math. Comp. 28, 1974) a coefficient of
    a factor of a degree-d integer polynomial has at most
    d + (d+1).bit_length() + 1 bits more than that polynomial's widest."""
    num, den = pair
    inner = max(len(num), len(den)) - 1
    widest = max([abs(c) for c in num + den])
    return inner, widest.bit_length() + inner + (inner + 1).bit_length() + 1


def _proved_within(pair: tuple, k: int, outer: int) -> bool:
    """Whether :func:`_check_size` provably admits the k-th power of the
    canonical value of `pair`: its measure, taken on the bounds above."""
    inner, bits = _size_bound(pair)
    monomials = (outer + 1) * (inner + 1)
    return (k * max(inner, outer) <= MAX_DEGREE and
            k * bits + (k - 1) * (monomials - 1).bit_length() < _COEFFICIENT_BITS)


def _normalise_unproved(cs: list, coeff: str, k: int = 1) -> list[RatFunc]:
    """Reduce in place each coefficient of cs whose k-th power
    :func:`_proved_within` does not admit; returns them as RatFuncs."""
    reduced = []
    for i, pair in enumerate(cs):
        if not _proved_within(pair, k, len(cs) - 1):
            cs[i] = _reduce_pair(pair)
            reduced.append(_coefficient(cs[i], coeff))
    return reduced


def _check_bivar_size(cs: list, offset: int, coeff: str, k: int = 1) -> None:
    for f in _normalise_unproved(cs, coeff, k):
        _check_size(f, offset, k, len(cs) - 1)


def _bi_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = _pair_add(out[i + j], _pair_mul(ca, cb))
    return _bi_trim(out)


def _bi_trim(cs: list) -> list:
    while cs and not cs[-1][0]:
        cs.pop()
    return cs


def _bi_add(a: list, b: list, negate: bool) -> list:
    out = list(a)
    for i, (num, den) in enumerate(b):
        term = ([-c for c in num], den) if negate else (num, den)
        if i < len(out):
            out[i] = _pair_add(out[i], term)
        else:
            out.append(term)
    return _bi_trim(out)


def _eval_bivar(node: Node, main: str | None, coeff: str) -> list:
    if isinstance(node, BinaryOp):
        return _fold_chain(node, lambda n: _eval_bivar(n, main, coeff),
                           lambda *args: _combine_bivar(*args, main, coeff))
    if isinstance(node, Number):
        return [([node.value], [1])] if node.value else []
    if isinstance(node, Variable):
        if node.name == main:
            return [_ZERO, _ONE]
        if node.name == coeff:
            return [([0, 1], [1])]
        expected = f"{main!r} or {coeff!r}" if main else repr(coeff)
        raise ParseError(f"unknown variable {node.name!r} (expected {expected})",
                         node.offset)
    if isinstance(node, Negate):
        return [([-c for c in num], den)
                for num, den in _eval_bivar(node.operand, main, coeff)]
    base = _eval_bivar(node.base, main, coeff)
    _check_bivar_size(base, node.offset, coeff, node.exponent)
    result = [_ONE]
    for _ in range(node.exponent):
        result = _bi_mul(result, base)
        # keeps partial powers small; only the formed power may be refused
        _normalise_unproved(result, coeff)
    # a coefficient of the power sums products of different coefficients,
    # whose denominators the prediction from base does not combine
    _check_bivar_size(result, node.offset, coeff)
    return result


def _combine_bivar(node: BinaryOp, left: list, right: list,
                   main: str | None, coeff: str) -> list:
    if node.op == "add":
        value = _bi_add(left, right, negate=False)
    elif node.op == "sub":
        value = _bi_add(left, right, negate=True)
    elif node.op == "mul":
        value = _bi_mul(left, right)
    elif len(right) > 1:
        raise ParseError(f"cannot divide by an expression containing {main!r}",
                         node.offset)
    elif not right:
        raise ParseError("division by an expression that is identically zero",
                         node.offset)
    else:
        num, den = right[0]
        value = [_pair_mul(c, (den, num)) for c in left]
    _check_bivar_size(value, node.offset, coeff)
    return value


def parse(tokens: list[Token], variable: str) -> RatFunc:
    """Parse a token stream into a canonical rational function in `variable`:
    the two-variable fold with no main variable, whose one coefficient is
    reduced once, at the end."""
    cs = _eval_bivar(parse_tree(tokens), None, variable)
    return _coefficient(_reduce_pair(cs[0]) if cs else _ZERO, variable)


def parse_expression(text: str, variable: str, start: int = 0,
                     end: int | None = None) -> RatFunc:
    """Parse text[start:end]; error offsets count from the start of text."""
    return parse(tokenize(text, start, end), variable)


def parse_polynomial(text: str, variable: str) -> Poly:
    value = parse_expression(text, variable)
    if not value.is_polynomial():
        raise ParseError(f"expected a polynomial in {variable!r}, "
                         "got a nontrivial denominator", 0)
    return value.as_poly()


def parse_poly_over_coeff_field(text: str, main: str, coeff: str) -> list[RatFunc]:
    """Parse a polynomial in `main` with coefficients in Q(`coeff`); returns
    the coefficient list indexed by power of `main` (empty list = zero)."""
    return [_coefficient(_reduce_pair(pair), coeff)
            for pair in _eval_bivar(parse_tree(tokenize(text)), main, coeff)]


# -- rendering ------------------------------------------------------------


def render_poly(p: Poly) -> str:
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for k in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            power = p.var if k == 1 else f"{p.var}^{k}"
            body = power if mag == 1 else f"{str(mag)}*{power}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(parts)


def _term_count(p: Poly) -> int:
    return sum(1 for c in p.coeffs if c != 0)


def render(f: RatFunc) -> str:
    """Canonical expression printer; re-parses to the same RatFunc."""
    if f.is_polynomial():
        return render_poly(f.num)
    num_s = render_poly(f.num)
    if _term_count(f.num) > 1 or (f.num.is_constant()
                                  and f.num.constant_value().denominator != 1):
        num_s = f"({num_s})"
    den_s = render_poly(f.den)
    if _term_count(f.den) > 1:
        den_s = f"({den_s})"
    return f"{num_s}/{den_s}"

"""Parse human-entered polynomial / rational-function expressions.

Grammar (whitespace-insensitive)::

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | factor
    factor := base ('^' integer)?
    base   := integer | variable | '(' expr ')'

``^`` binds a single factor, takes a non-negative integer literal exponent and
is non-associative: ``a^b^c`` is a syntax error.  An exponent above
:data:`MAX_EXPONENT` is a :class:`ResourceLimitError`, raised before any power
is formed.  Parentheses and unary minus nest at most :data:`MAX_NESTING` deep
(deeper input is a :class:`ParseError`); sums and products may be of any
length.  Rational constants are written with ``/`` ("3/2" is exact integer
division).  Exactly one variable is allowed per expression; the consuming
subcommand declares it.

:func:`render` is the inverse printer: its output re-parses to the same
canonical value, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Poly, RatFunc, ResourceLimitError

# Parentheses plus unary minus signs open at any point of an expression.
MAX_NESTING = 100
# Largest exponent literal.  The cost of a power grows with its exponent:
# y^1000 parses and decides in about 0.2 s, y^8000 in 2.5 s.
MAX_EXPONENT = 1000


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


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            tokens.append(Token("integer", text[start:i], start))
            continue
        if ch.isalpha():
            start = i
            while i < n and text[i].isalpha():
                i += 1
            tokens.append(Token("identifier", text[start:i], start))
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
            return Number(int(tok.lexeme), tok.offset)
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


def _combine_single(node: BinaryOp, left: RatFunc, right: RatFunc) -> RatFunc:
    if node.op == "add":
        return left + right
    if node.op == "sub":
        return left - right
    if node.op == "mul":
        return left * right
    if right.is_zero():
        raise ParseError("division by an expression that is identically zero",
                         node.offset)
    return left / right


def _eval_single(node: Node, variable: str) -> RatFunc:
    if isinstance(node, BinaryOp):
        return _fold_chain(node, lambda n: _eval_single(n, variable), _combine_single)
    if isinstance(node, Number):
        return RatFunc.const(variable, node.value)
    if isinstance(node, Variable):
        if node.name != variable:
            raise ParseError(f"unknown variable {node.name!r} (expected {variable!r})",
                             node.offset)
        return RatFunc.gen(variable)
    if isinstance(node, Negate):
        return -_eval_single(node.operand, variable)
    return _eval_single(node.base, variable) ** node.exponent


def parse(tokens: list[Token], variable: str) -> RatFunc:
    """Parse a token stream into a canonical rational function in `variable`."""
    return _eval_single(parse_tree(tokens), variable)


def parse_expression(text: str, variable: str) -> RatFunc:
    return parse(tokenize(text), variable)


def parse_polynomial(text: str, variable: str) -> Poly:
    value = parse_expression(text, variable)
    if not value.is_polynomial():
        raise ParseError(f"expected a polynomial in {variable!r}, "
                         "got a nontrivial denominator", 0)
    return value.as_poly()


# Two-variable mode, used only by the degree-bound subcommand: a polynomial in
# `main` whose coefficients are rational functions in `coeff`.  Values are
# coefficient lists indexed by the main-variable power.


def _bi_mul(a: list[RatFunc], b: list[RatFunc], coeff: str) -> list[RatFunc]:
    if not a or not b:
        return []
    out = [RatFunc.zero(coeff) for _ in range(len(a) + len(b) - 1)]
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = out[i + j] + ca * cb
    return _bi_trim(out)


def _bi_trim(cs: list[RatFunc]) -> list[RatFunc]:
    while cs and cs[-1].is_zero():
        cs.pop()
    return cs


def _bi_add(a: list[RatFunc], b: list[RatFunc], negate: bool) -> list[RatFunc]:
    out = list(a)
    for i, c in enumerate(b):
        term = -c if negate else c
        if i < len(out):
            out[i] = out[i] + term
        else:
            out.append(term)
    return _bi_trim(out)


def _eval_bivar(node: Node, main: str, coeff: str) -> list[RatFunc]:
    if isinstance(node, BinaryOp):
        return _fold_chain(node, lambda n: _eval_bivar(n, main, coeff),
                           lambda *args: _combine_bivar(*args, main, coeff))
    if isinstance(node, Number):
        return _bi_trim([RatFunc.const(coeff, node.value)])
    if isinstance(node, Variable):
        if node.name == main:
            return [RatFunc.zero(coeff), RatFunc.const(coeff, 1)]
        if node.name == coeff:
            return [RatFunc.gen(coeff)]
        raise ParseError(f"unknown variable {node.name!r} "
                         f"(expected {main!r} or {coeff!r})", node.offset)
    if isinstance(node, Negate):
        return [-c for c in _eval_bivar(node.operand, main, coeff)]
    base = _eval_bivar(node.base, main, coeff)
    result: list[RatFunc] = [RatFunc.const(coeff, 1)]
    for _ in range(node.exponent):
        result = _bi_mul(result, base, coeff)
    return result


def _combine_bivar(node: BinaryOp, left: list[RatFunc], right: list[RatFunc],
                   main: str, coeff: str) -> list[RatFunc]:
    if node.op == "add":
        return _bi_add(left, right, negate=False)
    if node.op == "sub":
        return _bi_add(left, right, negate=True)
    if node.op == "mul":
        return _bi_mul(left, right, coeff)
    if len(right) > 1:
        raise ParseError(f"cannot divide by an expression containing {main!r}",
                         node.offset)
    if not right:
        raise ParseError("division by an expression that is identically zero",
                         node.offset)
    return [c / right[0] for c in left]


def parse_poly_over_coeff_field(text: str, main: str, coeff: str) -> list[RatFunc]:
    """Parse a polynomial in `main` with coefficients in Q(`coeff`); returns
    the coefficient list indexed by power of `main` (empty list = zero)."""
    return _eval_bivar(parse_tree(tokenize(text)), main, coeff)


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

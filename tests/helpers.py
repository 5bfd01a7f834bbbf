"""Shared generators and brute-force oracles for the test suite.

Oracles here deliberately avoid the code paths they check: residues come from
plain evaluation at known poles, reconstruction checks use ring arithmetic
only, and expected values are computed independently before being compared.
"""

from __future__ import annotations

import random
from fractions import Fraction

from liouvillian.algebra import Poly, RatFunc, gcd
from liouvillian import parser
from liouvillian.parser import (BinaryOp, Negate, Number, ParseError, Variable,
                                render)
from liouvillian.reduction import HermiteParts, _inverse_mod
from liouvillian.verify import VerificationReport


def reference_mul(a: Poly, b: Poly) -> Poly:
    """Schoolbook product over Q, one Fraction product and sum per term."""
    var = a._join_var(b)
    if a.is_zero() or b.is_zero():
        return Poly.zero(var)
    out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return Poly(var, out)


def reference_divrem(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Schoolbook Euclidean division over Q, one Fraction step per term."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    var = a._join_var(b)
    rem = list(a.coeffs)
    dd = len(b.coeffs) - 1
    quo = [Fraction(0)] * max(len(rem) - dd, 0)
    while rem and len(rem) - 1 >= dd:
        k = len(rem) - 1 - dd
        factor = rem[-1] / b.coeffs[-1]
        quo[k] = factor
        for i, c in enumerate(b.coeffs):
            rem[i + k] -= factor * c
        while rem and rem[-1] == 0:
            rem.pop()
    return Poly(var, quo), Poly(var, rem)


def rand_fraction(rng: random.Random, span: int = 9, max_den: int = 4,
                  nonzero: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(-span, span), rng.randint(1, max_den))
        if value != 0 or not nonzero:
            return value


def rand_poly(rng: random.Random, var: str, max_deg: int = 3, span: int = 9,
              nonzero: bool = False) -> Poly:
    while True:
        degree = rng.randint(0, max_deg)
        p = Poly(var, [rand_fraction(rng, span) for _ in range(degree + 1)])
        if not p.is_zero() or not nonzero:
            return p


def rand_ratfunc(rng: random.Random, var: str, max_deg: int = 3,
                 span: int = 6, nonzero: bool = False) -> RatFunc:
    while True:
        f = RatFunc(rand_poly(rng, var, max_deg, span),
                    rand_poly(rng, var, max_deg, span, nonzero=True))
        if not f.is_zero() or not nonzero:
            return f


def rand_distinct_fractions(rng: random.Random, count: int, span: int = 4,
                            max_den: int = 2) -> list[Fraction]:
    values: set[Fraction] = set()
    while len(values) < count:
        values.add(rand_fraction(rng, span, max_den))
    return sorted(values)


def poly_from_roots(var: str, roots: list[Fraction]) -> Poly:
    p = Poly.const(var, 1)
    for root in roots:
        p = p * Poly(var, (-root, 1))
    return p


def split_proper_fraction(rng: random.Random, var: str, pole_count: int,
                          span: int = 3) -> tuple[RatFunc, list[Fraction]]:
    """A proper fraction whose denominator splits into distinct rational
    linear factors, none of which cancels against the numerator.

    Coefficients are kept small: residue and ratio polynomials of these
    fractions feed divisor enumeration, whose budget is deliberately finite.
    """
    while True:
        poles = rand_distinct_fractions(rng, pole_count)
        den = poly_from_roots(var, poles)
        num = rand_poly(rng, var, pole_count - 1, span)
        if num.is_zero():
            continue
        if any(num(c) == 0 for c in poles):
            continue
        return RatFunc(num, den), poles


def brute_residues(h: RatFunc, poles: list[Fraction]) -> set[Fraction]:
    """Residues at simple rational poles by direct evaluation num(c)/den'(c)."""
    dden = h.den.diff()
    return {h.num(c) / dden(c) for c in poles}


def fraction_from_residues(rng: random.Random, var: str, pole_count: int,
                           residue_span: int = 3, residue_den: int = 3,
                           ) -> tuple[RatFunc, dict[Fraction, Fraction]]:
    """Builds sum(r_i / (var - c_i)) from chosen small residues, so witness
    exponents stay at desk scale; returns the fraction and {pole: residue}."""
    poles = rand_distinct_fractions(rng, pole_count)
    residues = [rand_fraction(rng, residue_span, residue_den, nonzero=True)
                for _ in poles]
    total = RatFunc.zero(var)
    for pole, residue in zip(poles, residues):
        total = total + RatFunc(Poly.const(var, residue), Poly(var, (-pole, 1)))
    return total, dict(zip(poles, residues))


def compose_poly(p: Poly, value: RatFunc) -> RatFunc:
    """p evaluated at a rational function, as a rational function."""
    result = RatFunc.zero(value.var)
    for c in reversed(p.coeffs):
        result = result * value + c
    return result


def compose(f: RatFunc, value: RatFunc) -> RatFunc:
    return compose_poly(f.num, value) / compose_poly(f.den, value)


def invert_variable(rhs: RatFunc) -> RatFunc:
    """Right-hand side after the substitution w = 1/y: -w^2 * R(1/w)."""
    w = RatFunc.gen(rhs.var)
    return -(w**2) * compose(rhs, 1 / w)


def is_canonical(f: RatFunc) -> bool:
    if f.num.is_zero():
        return f.den.is_constant() and f.den.constant_value() == 1
    return f.den.leading() == 1 and gcd(f.num, f.den).is_constant()


def check_leibniz(f: RatFunc, g: RatFunc) -> VerificationReport:
    """(f*g)' = f'*g + f*g', checked exactly."""
    residual = (f * g).diff() - f.diff() * g - f * g.diff()
    identity = f"d[{render(f)} * {render(g)}] = d[{render(f)}]*{render(g)} + {render(f)}*d[{render(g)}]"
    return VerificationReport(identity, residual.is_zero(), render(residual))


# The one-variable parse folded in canonical RatFunc arithmetic, one gcd per
# sum, difference, product and quotient: the reference for parse_expression,
# which folds an unreduced integer pair.  Budget checks run at the same points
# and through the same parser._check_size.


def reference_parse(text: str, variable: str) -> RatFunc:
    return _ref_eval_single(parser.parse_tree(parser.tokenize(text)), variable)


def _ref_combine_single(node, left: RatFunc, right: RatFunc) -> RatFunc:
    if node.op == "add":
        value = left + right
    elif node.op == "sub":
        value = left - right
    elif node.op == "mul":
        value = left * right
    elif right.is_zero():
        raise ParseError("division by an expression that is identically zero",
                         node.offset)
    else:
        value = left / right
    parser._check_size(value, node.offset)
    return value


def _ref_eval_single(node, variable: str) -> RatFunc:
    if isinstance(node, BinaryOp):
        return parser._fold_chain(node, lambda n: _ref_eval_single(n, variable),
                                  _ref_combine_single)
    if isinstance(node, Number):
        return RatFunc.const(variable, node.value)
    if isinstance(node, Variable):
        if node.name != variable:
            raise ParseError(f"unknown variable {node.name!r} (expected {variable!r})",
                             node.offset)
        return RatFunc.gen(variable)
    if isinstance(node, Negate):
        return -_ref_eval_single(node.operand, variable)
    base = _ref_eval_single(node.base, variable)
    parser._check_size(base, node.offset, node.exponent)
    return base**node.exponent


# The two-variable parse folded in canonical RatFunc arithmetic, one gcd per
# coefficient sum and product: the reference for parse_poly_over_coeff_field,
# which folds unreduced integer pairs.  Budget checks run at the same points
# and through the same parser._check_size.


def reference_poly_over_coeff_field(text: str, main: str, coeff: str) -> list[RatFunc]:
    return _ref_eval_bivar(parser.parse_tree(parser.tokenize(text)), main, coeff)


def _ref_check_bivar_size(cs: list[RatFunc], offset: int, k: int = 1) -> None:
    for c in cs:
        parser._check_size(c, offset, k, len(cs) - 1)


def _ref_bi_mul(a: list[RatFunc], b: list[RatFunc], coeff: str) -> list[RatFunc]:
    if not a or not b:
        return []
    out = [RatFunc.zero(coeff) for _ in range(len(a) + len(b) - 1)]
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = out[i + j] + ca * cb
    return _ref_bi_trim(out)


def _ref_bi_trim(cs: list[RatFunc]) -> list[RatFunc]:
    while cs and cs[-1].is_zero():
        cs.pop()
    return cs


def _ref_bi_add(a: list[RatFunc], b: list[RatFunc], negate: bool) -> list[RatFunc]:
    out = list(a)
    for i, c in enumerate(b):
        term = -c if negate else c
        if i < len(out):
            out[i] = out[i] + term
        else:
            out.append(term)
    return _ref_bi_trim(out)


def _ref_eval_bivar(node, main: str, coeff: str) -> list[RatFunc]:
    if isinstance(node, BinaryOp):
        return parser._fold_chain(node, lambda n: _ref_eval_bivar(n, main, coeff),
                                  lambda *args: _ref_combine_bivar(*args, main, coeff))
    if isinstance(node, Number):
        return _ref_bi_trim([RatFunc.const(coeff, node.value)])
    if isinstance(node, Variable):
        if node.name == main:
            return [RatFunc.zero(coeff), RatFunc.const(coeff, 1)]
        if node.name == coeff:
            return [RatFunc.gen(coeff)]
        raise ParseError(f"unknown variable {node.name!r} "
                         f"(expected {main!r} or {coeff!r})", node.offset)
    if isinstance(node, Negate):
        return [-c for c in _ref_eval_bivar(node.operand, main, coeff)]
    base = _ref_eval_bivar(node.base, main, coeff)
    _ref_check_bivar_size(base, node.offset, node.exponent)
    result: list[RatFunc] = [RatFunc.const(coeff, 1)]
    for _ in range(node.exponent):
        result = _ref_bi_mul(result, base, coeff)
    _ref_check_bivar_size(result, node.offset)
    return result


def _ref_combine_bivar(node, left: list[RatFunc], right: list[RatFunc],
                       main: str, coeff: str) -> list[RatFunc]:
    if node.op == "add":
        value = _ref_bi_add(left, right, negate=False)
    elif node.op == "sub":
        value = _ref_bi_add(left, right, negate=True)
    elif node.op == "mul":
        value = _ref_bi_mul(left, right, coeff)
    elif len(right) > 1:
        raise ParseError(f"cannot divide by an expression containing {main!r}",
                         node.offset)
    elif not right:
        raise ParseError("division by an expression that is identically zero",
                         node.offset)
    else:
        value = [c / right[0] for c in left]
    _ref_check_bivar_size(value, node.offset)
    return value


# Hermite reduction by repeated multiplicity lowering in Poly/RatFunc
# arithmetic, one squarefree decomposition and one inverse per pass, and
# Yun's algorithm on the monic Poly: the references for hermite_reduce and
# squarefree_decompose, which work on primitive integer lists.


def reference_squarefree_decompose(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: p = lc * prod(f_i ** m_i) with the f_i monic,
    squarefree and pairwise coprime."""
    if p.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    if p.is_constant():
        return []
    whole = p.monic()
    deriv = whole.diff()
    g = gcd(whole, deriv)
    if g.is_constant():
        return [(whole, 1)]
    c = whole.exact_div(g)
    d = deriv.exact_div(g) - c.diff()
    out: list[tuple[Poly, int]] = []
    mult = 1
    while not c.is_constant():
        f = gcd(c, d)
        c_next = c.exact_div(f)
        d = d.exact_div(f) - c_next.diff()
        c = c_next
        if not f.is_constant():
            out.append((f, mult))
        mult += 1
    return out


def reference_hermite_reduce(f: RatFunc) -> HermiteParts:
    """Hermite reduction by repeated multiplicity lowering.

    Each pass collects the maximal-multiplicity part V^m of the denominator,
    solves B*(1-m)*U*V' = num (mod V) and peels off d/dy(B / V^(m-1)),
    leaving a fraction whose denominator multiplicities strictly dropped.
    """
    poly_part, proper = f.proper_split()
    var = f.var
    exact = RatFunc.zero(var)
    num, den = proper.num, proper.den
    while not num.is_zero():
        decomposition = reference_squarefree_decompose(den)
        max_mult = max(m for _, m in decomposition)
        if max_mult == 1:
            break
        repeated = Poly.const(var, 1)
        for factor, mult in decomposition:
            if mult == max_mult:
                repeated = repeated * factor
        cofactor = den.exact_div(repeated**max_mult)
        base = ((1 - max_mult) * cofactor * repeated.diff()).divrem(repeated)[1]
        rhs = num.divrem(repeated)[1]
        upstairs = (rhs * _inverse_mod(base, repeated)).divrem(repeated)[1]
        peeled = (num - cofactor * (upstairs.diff() * repeated
                                    + (1 - max_mult) * upstairs * repeated.diff()))
        lowered = peeled.exact_div(repeated)
        exact = exact + RatFunc(upstairs, repeated ** (max_mult - 1))
        reduced = RatFunc(lowered, cofactor * repeated ** (max_mult - 1))
        num, den = reduced.num, reduced.den
    return HermiteParts(poly_part, exact, RatFunc(num, den))

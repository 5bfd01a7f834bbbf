"""Independent verification of emitted witnesses.

Every check substitutes a witness back into its defining identity and tests
exact equality over Q or over the quadratic extension Q(lam), using only the
base arithmetic module — never the reduction code paths that produced the
witness — so a reduction bug cannot certify its own output.  There are no
tolerances: "passed" means the residual is the zero element.  The checks
over Q(y) clear denominators and compare two polynomials; square witnesses
are checked over cleared polynomials too, as two pairs a + lam*b of
polynomials in the generator.  The normalised residual is built only to
render a failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .algebra import Poly, RatFunc
from .parser import render, render_poly
from .towers import (ANTIDERIVATIVE, EXPONENTIAL, Generator, QuadValue,
                     TowerWitness)


@dataclass(frozen=True)
class VerificationReport:
    identity: str
    passed: bool
    residual: str  # exact rendering; "0" exactly when passed


def is_rational_square(value: Fraction) -> bool:
    if value < 0:
        return False
    num_root = isqrt(value.numerator)
    den_root = isqrt(value.denominator)
    return num_root * num_root == value.numerator and \
        den_root * den_root == value.denominator


def rational_square_root(value: Fraction) -> Fraction:
    if not is_rational_square(value):
        raise ValueError(f"{value} is not a rational square")
    return Fraction(isqrt(value.numerator), isqrt(value.denominator))


class MalformedWitnessError(ValueError):
    """The witness does not have a shape this verifier supports."""


class _QuadField:
    """Arithmetic in Q(lam)(g): pairs (a, b) meaning a + lam*b with a, b
    rational functions in the generator variable and lam^2 a fixed rational.

    With no extension declared the lam components must be identically zero;
    extensions whose square is a rational square are rejected (the pair ring
    would have zero divisors, and no emitted witness needs them).
    """

    def __init__(self, var: str, square: Fraction | None, symbol: str = "lam"):
        if square is not None:
            if square == 0 or is_rational_square(square):
                raise MalformedWitnessError(
                    "quadratic extension must adjoin a genuine irrational square root")
        self.var = var
        self.square = square
        self.symbol = symbol
        self.zero_rf = RatFunc.zero(var)

    def lift(self, value: QuadValue) -> tuple[RatFunc, RatFunc]:
        if self.square is None and not value.lam_part.is_zero():
            raise MalformedWitnessError(
                "expression uses the extension symbol but no extension is declared")
        if value.base.var != self.var or value.lam_part.var != self.var:
            raise MalformedWitnessError("expression variable does not match generator")
        return value.base, value.lam_part

    def const(self, c) -> tuple[RatFunc, RatFunc]:
        return RatFunc.const(self.var, c), self.zero_rf

    def add(self, lhs, rhs):
        return lhs[0] + rhs[0], lhs[1] + rhs[1]

    def sub(self, lhs, rhs):
        return lhs[0] - rhs[0], lhs[1] - rhs[1]

    def mul(self, lhs, rhs):
        cross = lhs[0] * rhs[1] + lhs[1] * rhs[0]
        if self.square is None:
            return lhs[0] * rhs[0], cross
        return lhs[0] * rhs[0] + self.square * lhs[1] * rhs[1], cross

    def is_zero(self, value) -> bool:
        return value[0].is_zero() and value[1].is_zero()

    def derive(self, value, generator: Generator):
        """Derivative under the declared generator rule (lam' = 0)."""
        raw = (value[0].diff(), value[1].diff())
        rate = self.rate(generator)
        if rate is None:
            return raw
        gen_rf = (RatFunc.gen(self.var), self.zero_rf)
        return self.mul(self.mul(raw, rate), gen_rf)

    def rate(self, generator: Generator):
        """None for t' = 1; the constant pair rate for v' = rate*v."""
        if generator.kind == ANTIDERIVATIVE:
            return None
        if generator.kind == EXPONENTIAL:
            if generator.rate is None:
                raise MalformedWitnessError("exponential generator needs a rate")
            return self.lift_constant(generator.rate)
        raise MalformedWitnessError(f"unknown generator kind {generator.kind!r}")

    def lift_constant(self, value: QuadValue):
        base, lam = self.lift(value)
        if not (base.is_constant() and lam.is_constant()):
            raise MalformedWitnessError("generator rate must be constant")
        return base, lam

    def eval_poly(self, p: Poly, point):
        result = self.const(0)
        for c in reversed(p.coeffs):
            result = self.add(self.mul(result, point), self.const(c))
        return result

    def render(self, value) -> str:
        return _render_pair(value[0], value[1], self.symbol)


def _render_pair(base: RatFunc, lam: RatFunc, symbol: str) -> str:
    if lam.is_zero():
        return render(base)
    lam_s = render(lam)
    if lam_s == "1":
        tail = symbol
    elif lam_s == "-1":
        tail = f"-{symbol}"
    else:
        if any(ch in lam_s for ch in "+-/"):
            lam_s = f"({lam_s})"
        tail = f"{symbol}*{lam_s}"
    if base.is_zero():
        return tail
    if tail.startswith("-"):
        return f"{render(base)} - {tail[1:]}"
    return f"{render(base)} + {tail}"


def render_quad_value(value: QuadValue, symbol: str = "lam") -> str:
    """Human rendering of ``base + symbol*lam_part``."""
    return _render_pair(value.base, value.lam_part, symbol)


def _cleared_derivative(z: RatFunc) -> tuple[Poly, Poly, Poly]:
    """(N'D - ND', N, D) for z = N/D, so that z' = (N'D - ND')/D^2.  Each
    check below compares these polynomials crosswise with R = P/Q, with no
    gcd; the normalised residual is built only to render a failure."""
    num, den = z.num, z.den
    return num.diff() * den - num * den.diff(), num, den


def _report(identity: str, passed: bool, residual) -> VerificationReport:
    return VerificationReport(identity, passed, "0" if passed else render(residual()))


def verify_autonomous_witness(rhs: RatFunc, branch: str, z: RatFunc,
                              scale: Fraction | None = None) -> VerificationReport:
    """Check an autonomous-equation witness by exact substitution.

    Antiderivative branch: R * dz/dy = 1, i.e. (N'D - ND')*P = D^2*Q.
    Logarithmic branch: R * dz/dy = a * z, i.e. (N'D - ND')*P = a*N*D*Q.
    """
    derived, num, den = _cleared_derivative(z)
    lhs = derived * rhs.num
    if branch == "antiderivative":
        identity = f"({render(rhs)}) * d/dy[{render(z)}] = 1"
        passed = lhs == den * den * rhs.den
        return _report(identity, passed, lambda: rhs * z.diff() - 1)
    if branch == "log_derivative":
        if scale is None:
            raise MalformedWitnessError("logarithmic witness needs its constant")
        identity = f"({render(rhs)}) * d/dy[{render(z)}] = {scale} * ({render(z)})"
        passed = lhs == scale * num * den * rhs.den
        return _report(identity, passed, lambda: rhs * z.diff() - scale * z)
    raise MalformedWitnessError(f"unknown branch {branch!r}")


def _pair_mul(lhs: tuple[Poly, Poly], rhs: tuple[Poly, Poly],
              square: Fraction | None) -> tuple[Poly, Poly]:
    """(a + lam*b)(c + lam*d) for pairs of polynomials, with lam^2 = square
    (None: no extension, and the lam components are zero)."""
    (a, b), (c, d) = lhs, rhs
    if square is None:
        return a * c, b     # the cross term a*d + b*c is zero
    return a * c + square * (b * d), a * d + b * c


def _square_identity_holds(p: Poly, value, rate, square: Fraction | None) -> bool:
    """(y')^2 = P(y) over cleared polynomials, with no gcd.

    With y = (A + lam*B)/D for D = base.den*lam.den, A = base.num*lam.den
    and B = lam.num*base.den, y' = N/D^2 for N = R*(Y'D - YD'), Y = A + lam*B,
    and R = 1 for t' = 1 or R = rate*v for v' = rate*v.  Multiplied by D^e,
    e = max(4, deg P), the identity reads N^2 D^(e-4) = sum p_k Y^k D^(e-k).
    """
    (base, lam), var = value, value[0].var
    d = base.den * lam.den
    y = (base.num * lam.den, lam.num * base.den)
    d_diff = d.diff()
    n = (y[0].diff() * d - y[0] * d_diff, y[1].diff() * d - y[1] * d_diff)
    if rate is not None:
        n = _pair_mul(n, tuple(Poly(var, (0, r.num.coeff(0))) for r in rate), square)
    lhs = _pair_mul(n, n, square)
    zero = Poly.zero(var)
    rhs, d_power = (zero, zero), Poly.const(var, 1)
    for c in reversed(p.coeffs):     # Horner in Y/D, homogenised by D
        rhs = _pair_mul(rhs, y, square)
        rhs, d_power = (rhs[0] + c * d_power, rhs[1]), d_power * d
    e = max(4, len(p.coeffs) - 1)
    lhs_scale, rhs_scale = d ** (e - 4), d ** (e - len(p.coeffs) + 1)
    return (lhs[0] * lhs_scale == rhs[0] * rhs_scale
            and lhs[1] * lhs_scale == rhs[1] * rhs_scale)


def verify_square_witness(p: Poly, witness: TowerWitness) -> VerificationReport:
    """Check a squared-equation witness: compute y' from the declared
    generator rule by the chain rule and test (y')^2 - P(y) = 0 exactly,
    over cleared polynomials; the normalised residual is built only to
    render a failure."""
    if len(witness.generators) != 1:
        raise MalformedWitnessError("witness must use exactly one generator")
    generator = witness.generators[0]
    square = witness.quad_ext.square if witness.quad_ext else None
    symbol = witness.quad_ext.symbol if witness.quad_ext else "lam"
    field = _QuadField(generator.name, square, symbol)
    value = field.lift(witness.expression)
    passed = _square_identity_holds(p, value, field.rate(generator), square)
    identity = (f"(y')^2 = {render_poly(p)} with y = "
                f"{field.render(value)}, {describe_generator(generator, witness)}")
    if passed:
        return VerificationReport(identity, True, "0")
    derivative = field.derive(value, generator)
    residual = field.sub(field.mul(derivative, derivative), field.eval_poly(p, value))
    return VerificationReport(identity, False, field.render(residual))


def verify_antiderivative(f: RatFunc, z: RatFunc, f_text: str = "") -> VerificationReport:
    """Check z' = f, i.e. (N'D - ND')*Q = P*D^2 for z = N/D and f = P/Q; the
    identity names f by ``f_text`` (as typed) if given."""
    derived, _, den = _cleared_derivative(z)
    return _report(f"d/d{f.var}[{render(z)}] = {f_text or render(f)}",
                   derived * f.den == f.num * den * den, lambda: z.diff() - f)


def verify_log_derivative(f: RatFunc, gamma: RatFunc, f_text: str = "") -> VerificationReport:
    """Check gamma' = f*gamma, i.e. (N'D - ND')*Q = P*N*D for gamma = N/D and
    f = P/Q, naming f as :func:`verify_antiderivative` does."""
    derived, num, den = _cleared_derivative(gamma)
    return _report(
        f"d/d{f.var}[{render(gamma)}] = ({f_text or render(f)}) * {render(gamma)}",
        derived * f.den == f.num * num * den, lambda: gamma.diff() - f * gamma)


def describe_generator(generator: Generator, witness: TowerWitness) -> str:
    if generator.kind == ANTIDERIVATIVE:
        text = f"{generator.name}' = 1"
    else:
        field = _QuadField(generator.name,
                           witness.quad_ext.square if witness.quad_ext else None,
                           witness.quad_ext.symbol if witness.quad_ext else "lam")
        rate = field.render(field.lift(generator.rate))
        text = f"{generator.name}' = ({rate})*{generator.name}"
    if witness.quad_ext is not None:
        text += f", {witness.quad_ext.symbol}^2 = {witness.quad_ext.square}"
    return text

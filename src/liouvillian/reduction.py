"""Integration-theoretic reduction of rational functions.

Everything a first-order decision procedure needs to know about ``f(y)``:

* Hermite reduction writes ``f = poly + g' + h`` with ``h`` proper over a
  squarefree denominator; ``f`` has a rational antiderivative iff ``h = 0``
  (the polynomial part always integrates in characteristic zero).
* The residue polynomial ``S(t)`` of a proper ``h`` with squarefree
  denominator has exactly the residues of ``h`` at its poles as roots.
  Residues are never represented as floating or algebraic numbers, only
  through this defining polynomial.
* The ratio polynomial ``W(u) = res_t(S(t), S(u*t))`` has all pairwise
  residue ratios as roots, so "some constant rescales every residue to an
  integer" becomes "every root of ``W`` is rational", decidable by divisor
  enumeration.
* Both come from power sums of their roots through Newton's identities, no
  determinant is formed (Bostan, Flajolet, Salvy and Schost, "Fast
  computation of special resultants", J. Symbolic Comput. 41, 2006).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _int_gcd
from operator import floordiv, truediv

from .algebra import (InternalInconsistencyError, Poly, RatFunc,
                      ResourceLimitError, gcd, is_squarefree, normalized_part,
                      primitive_part, rational_roots, squarefree_decompose)

# W(u) has degree (deg S)^2; refuse inputs that would blow past desk scale.
_MAX_RESIDUE_DEGREE = 64
# An explicit product witness has degree sum(|a*r_i| * deg g_i); residues with
# huge numerators or wild denominators would make it astronomically large.
_MAX_WITNESS_DEGREE = 128

RESIDUE_VAR = "t"
RATIO_VAR = "u"


def _ext_gcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended Euclid over Q[var]: returns (g, s, t) with s*a + t*b = g."""
    var = a._join_var(b)
    r0, r1 = a, b
    s0, s1 = Poly.const(var, 1), Poly.zero(var)
    t0, t1 = Poly.zero(var), Poly.const(var, 1)
    while not r1.is_zero():
        q, r = r0.divrem(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return r0, s0, t0


def _inverse_mod(a: Poly, modulus: Poly) -> Poly:
    g, s, _ = _ext_gcd(a, modulus)
    if not g.is_constant() or g.is_zero():
        raise InternalInconsistencyError(
            "expected an element invertible modulo the denominator")
    inv = s * (1 / g.constant_value())
    return inv.divrem(modulus)[1]


@dataclass(frozen=True)
class HermiteParts:
    """f = poly_part + exact_part' + remainder, remainder proper with
    squarefree denominator."""

    poly_part: Poly
    exact_part: RatFunc
    remainder: RatFunc


def hermite_reduce(f: RatFunc) -> HermiteParts:
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
        decomposition = squarefree_decompose(den)
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


def rational_antiderivative(f: RatFunc) -> RatFunc | None:
    """The z with z' = f when one exists in Q(var), else None.

    Works identically for the autonomous variable y (constants ground field)
    and for x over Q(x) with d/dx.
    """
    parts = hermite_reduce(f)
    if not parts.remainder.is_zero():
        return None
    anti = Poly(f.var, [Fraction(0), *(c / (i + 1)
                                       for i, c in enumerate(parts.poly_part.coeffs))])
    return RatFunc(anti) + parts.exact_part


def _power_sums(monic: list, count: int) -> list:
    """Power sums p_1..p_count of the roots of a monic polynomial given by
    its coefficients, lowest first (Newton's recurrence)."""
    n = len(monic) - 1
    sums: list = []
    for k in range(1, count + 1):
        total = k * monic[n - k] if k <= n else 0
        for i in range(1, min(k - 1, n) + 1):
            total += monic[n - i] * sums[k - i - 1]
        sums.append(-total)
    return sums


def _monic_from_power_sums(sums: list, divide) -> list:
    """Coefficients, lowest first, of the monic polynomial whose roots have
    the power sums p_1, p_2, ... (Newton's identities, solved the other way);
    ``divide(total, k)`` must be exact."""
    high_first = [1]
    for k in range(1, len(sums) + 1):
        total = sum(high_first[k - i] * sums[i - 1] for i in range(1, k + 1))
        high_first.append(divide(-total, k))
    return high_first[::-1]


def residue_resultant(h: RatFunc) -> Poly:
    """Polynomial in ``t`` (primitive, squarefree, positive leading
    coefficient) whose roots are the residues of ``h`` at its poles: the
    normalized res_y(num - t*den', den).  Requires ``h`` proper, nonzero,
    with squarefree denominator.

    The residue at a root y0 of den is g(y0) for g = num/den' mod den, so
    the k-th power sum of the residues is the trace of g^k mod den.
    """
    if h.is_zero():
        raise ValueError("residue resultant of zero is undefined")
    if not h.is_proper():
        raise ValueError("residue resultant needs a proper fraction")
    den = h.den
    if not is_squarefree(den):
        raise ValueError("residue resultant needs a squarefree denominator")
    degree = den.degree()
    g = (h.num * _inverse_mod(den.diff(), den)).divrem(den)[1]
    traces = [degree, *_power_sums(list(den.coeffs), degree - 1)]   # Tr(y^j)
    sums = []
    power = Poly.const(h.var, 1)
    for _ in range(degree):
        power = (power * g).divrem(den)[1]
        sums.append(sum(c * trace for c, trace in zip(power.coeffs, traces)))
    result = normalized_part(Poly(RESIDUE_VAR, _monic_from_power_sums(sums, truediv)))
    if result(Fraction(0)) == 0:
        raise InternalInconsistencyError(
            "residue resultant vanished at t = 0 on a coprime input")
    return result


def _integral_monic(ints: list[int]) -> list[int]:
    """The monic integer polynomial whose roots are lead * (roots of ints)."""
    lead, degree = ints[-1], len(ints) - 1
    return [c * lead ** (degree - 1 - j) for j, c in enumerate(ints[:-1])] + [1]


def ratio_resultant(s: Poly) -> Poly:
    """W(u) = res_t(S(t), S(u*t)): roots are all pairwise root ratios of S.

    Requires S squarefree with S(0) != 0 and positive degree; u = 1 is always
    a root and W(0) != 0.

    With roots b_i of S and c = s_0*s_d from its primitive integer form, the
    c*b_j/b_i are algebraic integers whose k-th power sum is that of the
    s_d*b_j times that of the s_0/b_i.  The Sylvester determinant is
    ((-1)^d * S(0) * lc(S))^d times the monic W.
    """
    if s.is_zero() or s.is_constant():
        raise ValueError("ratio resultant needs a non-constant polynomial")
    if s(Fraction(0)) == 0:
        raise ValueError("ratio resultant input must not vanish at 0")
    degree = s.degree()
    if degree > _MAX_RESIDUE_DEGREE:
        raise ResourceLimitError(
            f"residue polynomial degree {degree} exceeds the supported bound "
            f"{_MAX_RESIDUE_DEGREE}")
    ints = [int(c) for c in primitive_part(s).coeffs]
    count = degree * degree
    forward = _power_sums(_integral_monic(ints), count)
    backward = _power_sums(_integral_monic(ints[::-1]), count)
    # the roots c*b_j/b_i are algebraic integers: floor division is exact
    scaled = _monic_from_power_sums([a * b for a, b in zip(forward, backward)],
                                    floordiv)
    # monic W(u) = c^-count * scaled(c*u)
    c = ints[0] * ints[-1]
    scale = ((-1) ** degree * s.coeff(0) * s.leading()) ** degree
    return Poly(RATIO_VAR, [scale * Fraction(m, c ** (count - j))
                            for j, m in enumerate(scaled)])


def _fraction_gcd(values: list[Fraction]) -> Fraction:
    num = 0
    den = 1
    for v in values:
        num = _int_gcd(num, abs(v.numerator))
        den = den * v.denominator // _int_gcd(den, v.denominator)
    return Fraction(num, den)


def split_residues(h: RatFunc, residue_poly: Poly) -> tuple[
        tuple[Fraction, ...], tuple[tuple[Fraction, Poly], ...] | None]:
    """The rational residues of ``h``, read off its residue polynomial, and,
    when they are all of its residues, each paired with its bound factor
    gcd(den, num - r*den'): the monic product of the denominator factors at
    whose poles ``h`` has residue r."""
    roots, leftover = rational_roots(residue_poly)
    residues = tuple(r for r, _ in roots)
    if not leftover.is_constant():
        return residues, None
    return residues, tuple((r, gcd(h.den, h.num - r * h.den.diff()))
                           for r in residues)


def scaled_log_witness(h: RatFunc, bound_factors: tuple[tuple[Fraction, Poly], ...]
                       ) -> tuple[Fraction, RatFunc]:
    """For proper h with squarefree denominator and all-rational residues,
    given with their bound factors by :func:`split_residues`: the least
    positive rational a and the z with z'/(a*z) = h exactly.

    a is 1 / gcd(residues); z is the product of the residue-bound denominator
    factors raised to the integer powers a*residue.  The identity is rechecked
    before returning; failure would be a bug, never a property of the input.
    """
    scale = 1 / _fraction_gcd([r for r, _ in bound_factors])
    pieces = [(bound, scale * residue) for residue, bound in bound_factors]
    if any(exponent.denominator != 1 for _, exponent in pieces):
        raise InternalInconsistencyError("scaling constant failed to clear residues")
    expanded_degree = sum(abs(exponent) * bound.degree() for bound, exponent in pieces)
    if expanded_degree > _MAX_WITNESS_DEGREE:
        raise ResourceLimitError(
            f"explicit logarithmic witness would have degree {expanded_degree} "
            f"(supported bound {_MAX_WITNESS_DEGREE})")
    # the bound factors are pairwise coprime (distinct residues bind disjoint
    # pole sets), so numerator and denominator need no cancellation
    num = Poly.const(h.var, 1)
    den = Poly.const(h.var, 1)
    for bound, exponent in pieces:
        if exponent >= 0:
            num = num * bound**int(exponent)
        else:
            den = den * bound**int(-exponent)
    z = RatFunc(num, den)
    if z.diff() != scale * z * h:
        raise InternalInconsistencyError("logarithmic-derivative witness failed recheck")
    return scale, z


@dataclass(frozen=True)
class ResidueCertificate:
    """Residue data certifying a scaled-logarithmic-derivative verdict."""

    residue_poly: Poly                                    # in t
    ratio_poly: Poly                                      # in u
    rational_residues: tuple[tuple[Fraction, Poly], ...]  # (residue, bound factor)
    commensurable: bool
    scale: Fraction | None


@dataclass(frozen=True)
class LogDerivativeVerdict:
    """Outcome of the scaled-logarithmic-derivative test.

    kind is "witness" (explicit a, z over Q), "certificate" (residues are
    commensurable but irrational; no z exists over Q) or "no" with the failed
    conjuncts listed in reasons.
    """

    kind: str
    reasons: tuple[str, ...] = ()
    scale: Fraction | None = None
    witness: RatFunc | None = None
    certificate: ResidueCertificate | None = None


REASON_POLY_PART = "nonzero polynomial part"
REASON_NOT_SQUAREFREE = "denominator is not squarefree"
REASON_INCOMMENSURABLE = "residue ratios are not all rational"


def log_derivative_up_to_constant(f: RatFunc) -> LogDerivativeVerdict:
    """Is f = z'/(a*z) for some nonzero constant a and rational z?

    Holds iff f is proper, its denominator is squarefree, and all residues
    are rational multiples of one another.
    """
    if f.is_zero():
        raise ValueError("the zero function is not a logarithmic derivative")
    reasons = []
    poly_part, _ = f.proper_split()
    if not poly_part.is_zero():
        reasons.append(REASON_POLY_PART)
    if not f.den.is_constant() and not is_squarefree(f.den):
        reasons.append(REASON_NOT_SQUAREFREE)
    if reasons:
        return LogDerivativeVerdict(kind="no", reasons=tuple(reasons))
    residue_poly = residue_resultant(f)
    ratio_poly = ratio_resultant(residue_poly)
    ratio_roots, ratio_rest = rational_roots(ratio_poly)
    if not ratio_rest.is_constant():
        certificate = ResidueCertificate(residue_poly, ratio_poly, (), False, None)
        return LogDerivativeVerdict(kind="no", reasons=(REASON_INCOMMENSURABLE,),
                                    certificate=certificate)
    residues, bound_factors = split_residues(f, residue_poly)
    if bound_factors is not None:
        scale, witness = scaled_log_witness(f, bound_factors)
        certificate = ResidueCertificate(residue_poly, ratio_poly, bound_factors,
                                         True, scale)
        return LogDerivativeVerdict(kind="witness", scale=scale, witness=witness,
                                    certificate=certificate)
    if residues:
        raise InternalInconsistencyError(
            "commensurable residues split partially over Q")
    certificate = ResidueCertificate(residue_poly, ratio_poly, (), True, None)
    return LogDerivativeVerdict(kind="certificate", certificate=certificate)

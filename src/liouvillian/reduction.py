"""Integration-theoretic reduction of rational functions.

Everything a first-order decision procedure needs to know about ``f(y)``:

* Hermite reduction writes ``f = poly + g' + h`` with ``h`` proper over a
  squarefree denominator; ``f`` has a rational antiderivative iff ``h = 0``
  (the polynomial part always integrates in characteristic zero).  It runs
  over Z from one squarefree decomposition of the denominator (Bronstein,
  *Symbolic Integration I*, §2.2), the inverse modulo each repeated factor
  included.  The exact part ``g`` is reduced by construction and is built
  with no gcd; ``h`` is normalised only when it is returned, not when only
  its vanishing is asked.
* The residue polynomial ``S(t)`` of a proper ``h`` with squarefree
  denominator has exactly the residues of ``h`` at its poles as roots.
  Residues are never represented as floating or algebraic numbers, only
  through this defining polynomial.
* "Some constant rescales every residue to an integer" means the residues
  are pairwise commensurable, which is decided from ``S`` alone: ``S``
  splits over Q, or :func:`residues_commensurable_in_pairs` holds.
* The ratio polynomial ``W(u) = res_t(S(t), S(u*t))``, whose roots are all
  pairwise residue ratios, is built only for the certificate of a
  commensurable line, which prints it.
* ``S`` and ``W`` come from power sums of their roots through Newton's
  identities, no determinant is formed (Bostan, Flajolet, Salvy and Schost,
  "Fast computation of special resultants", J. Symbolic Comput. 41, 2006).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _int_gcd
from operator import floordiv, truediv

from .algebra import (InternalInconsistencyError, Poly, RatFunc,
                      ResourceLimitError, _derivative, _int_add, _int_clear,
                      _int_exact_quotient, _int_inverse_mod, _int_mul,
                      _int_pseudo_divrem, _integer_form, _primitive, gcd,
                      is_squarefree, normalized_part, primitive_part,
                      rational_roots, squarefree_decompose)
from .verify import is_rational_square

# W(u) has degree (deg S)^2 and is built only for the certificate of a
# commensurable line; the parse budget already keeps deg S <= MAX_DEGREE.
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
    """a^-1 mod modulus by Euclid over Q.  Its one caller in the program is
    :func:`residue_resultant`; Hermite reduction inverts over Z with
    :func:`~liouvillian.algebra._int_inverse_mod`, and the tests' reference
    Hermite reduction keeps this one as the oracle it is checked against."""
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


def _combine(s1: Fraction, p1: list[int], s2: Fraction, p2: list[int]
             ) -> tuple[Fraction, list[int]]:
    """s1*p1 + s2*p2 as one scale times a primitive integer list."""
    a, b = s1.numerator * s2.denominator, s2.numerator * s1.denominator
    total = _int_add([c * a for c in p1], [c * b for c in p2])
    if not total:
        return Fraction(0), total
    prim = _primitive(total)
    return Fraction(total[-1], s1.denominator * s2.denominator * prim[-1]), prim


def _hermite(f: RatFunc, exact_only: bool) -> HermiteParts | None:
    """Hermite reduction over Z: Bronstein's quadratic HermiteReduce.

    The proper part's denominator gets one squarefree decomposition.  For
    each repeated factor V of multiplicity m, with U the other factors, U*V'
    is inverted modulo V once, over Z; then for j = m-1, ..., 1 the
    numerator A of A/(U V^(j+1)), a Fraction scale times a primitive integer
    list, gives B = -A/j * (U V')^-1 mod V and A/(U V^(j+1)) = (B/V^j)' +
    A_/(U V^j) with A_ = (A + j B U V')/V - U B', a division that is exact
    in Z[y].  The exact part, sum B/V^j, is assembled over prod V^(m-1).
    With ``exact_only``, an f whose remainder is nonzero gives None, before
    the exact part or the remainder is built.
    """
    poly_part, proper = f.proper_split()
    var = f.var
    decomposition = squarefree_decompose(proper.den)
    if all(m == 1 for _, m in decomposition):   # [] when proper is 0
        if exact_only and not proper.is_zero():
            return None
        return HermiteParts(poly_part, RatFunc.zero(var), proper)
    factors = [(_int_clear(v), m) for v, m in decomposition]
    # proper = scale * num / prod V^m over Z
    scale, num = _integer_form(proper.num)
    for v, m in factors:
        scale *= v[-1] ** m
    e_scale, e_num, e_den, d = Fraction(0), [], [1], [1]
    for i, (v, m) in enumerate(factors):
        u, d = d, _int_mul(d, v)   # the factors before V are down to multiplicity 1
        if m == 1 or not num:
            continue
        for w, e in factors[i + 1:]:
            for _ in range(e):
                u = _int_mul(u, w)
        uv = _int_mul(u, _derivative(v))
        _, r, k_uv = _int_pseudo_divrem(uv, v)
        inv_scale, inv = _int_inverse_mod(r, v)
        # V^(m-1-j) and n = sum B_j V^(m-1-j), so that sum B_j / V^j = n / V^(m-1)
        power, n_scale, n = [1], Fraction(0), []
        for j in range(m - 1, 0, -1):
            _, r, k = _int_pseudo_divrem(num, v)
            _, b, k2 = _int_pseudo_divrem(_int_mul(r, inv), v)
            b_scale = -scale * inv_scale * k_uv / (j * k * k2)
            t_scale, t = _combine(scale, num, j * b_scale, _int_mul(b, uv))
            scale, num = _combine(t_scale, _int_exact_quotient(v, t),
                                  -b_scale, _int_mul(u, _derivative(b)))
            n_scale, n = _combine(b_scale, _int_mul(b, power), n_scale, n)
            power = _int_mul(power, v)
        e_scale, e_num = _combine(e_scale, _int_mul(e_num, power), n_scale, _int_mul(n, e_den))
        e_den = _int_mul(e_den, power)
    if exact_only and num:
        return None
    # The exact part sum n_V / V^(m-1), scaled to a monic denominator, is
    # canonical as built, with no gcd.  At the first step for V the numerator
    # is coprime to V: f's principal part at V is untouched while the earlier
    # factors are reduced.  So B_(m-1) is a unit mod V, and n_V = B_(m-1)
    # (mod V); the other factors' powers are coprime to V too.  The remainder
    # keeps the general constructor: its residue can vanish at some roots of
    # V, so it can share a factor with prod V.
    lead = e_den[-1]
    e_scale /= lead
    return HermiteParts(poly_part,
                        RatFunc._reduced(Poly(var, [e_scale * c for c in e_num]),
                                         Poly(var, [Fraction(c, lead) for c in e_den])),
                        RatFunc(Poly(var, [scale * c for c in num]), Poly(var, d)))


def hermite_reduce(f: RatFunc) -> HermiteParts:
    """Hermite reduction of f over Z (see :func:`_hermite`), its remainder
    normalised by one gcd."""
    return _hermite(f, exact_only=False)


def rational_antiderivative(f: RatFunc) -> RatFunc | None:
    """The z with z' = f when one exists in Q(var), else None.

    Works identically for the autonomous variable y (constants ground field)
    and for x over Q(x) with d/dx.  Only whether the Hermite remainder is
    zero is read, so it is never normalised.
    """
    parts = _hermite(f, exact_only=True)
    if parts is None:
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


def residues_commensurable_in_pairs(residue_poly: Poly) -> bool:
    """For a residue polynomial S that does not split over Q: are its roots
    pairwise commensurable?  True iff S(t) = U(t^2), U splits over Q and
    every root of U over the first one is the square of a rational; the
    roots of S are then +-q*sqrt(u) for one root u of U and rationals q.

    Why nothing else can be commensurable: every automorphism sigma of the
    splitting field acts on commensurable roots b as sigma(b) = q*b with one
    rational q, of finite order, so q = +-1 and sigma fixes every b^2
    (Galois theory applied to the Rothstein-Trager residue criterion,
    Bronstein, *Symbolic Integration I*, ch. 2)."""
    coeffs = residue_poly.coeffs
    if any(coeffs[1::2]):
        return False
    roots, rest = rational_roots(Poly(RESIDUE_VAR, coeffs[::2]))
    if not rest.is_constant():
        return False
    first = roots[0][0]
    return all(is_rational_square(r / first) for r, _ in roots)


def scaled_log_witness(h: RatFunc, bound_factors: tuple[tuple[Fraction, Poly], ...]
                       ) -> tuple[Fraction, RatFunc]:
    """For proper h with squarefree denominator and all-rational residues,
    given with their bound factors by :func:`split_residues`: the least
    positive rational a and the z with z'/(a*z) = h exactly.

    a is 1 / gcd(residues); z is the product of the residue-bound denominator
    factors raised to the integer powers a*residue.  z is not checked here;
    :func:`~liouvillian.verify.verify_autonomous_witness` checks the emitted
    witness once, by substitution into y' = R(y).
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
    return scale, _power_product(h.var, [(bound, int(e)) for bound, e in pieces])


def _power_product(var: str, pieces) -> RatFunc:
    """prod g^e over the (g, e) pairs, for monic, pairwise coprime bound
    factors g (distinct residues bind disjoint pole sets) and integers e: the
    positive and the negative powers share no factor, so there is no gcd."""
    num = Poly.const(var, 1)
    den = Poly.const(var, 1)
    for factor, exponent in pieces:
        if exponent > 0:
            num = num * factor**exponent
        elif exponent < 0:
            den = den * factor**-exponent
    return RatFunc._reduced(num, den)


@dataclass(frozen=True)
class ResidueCertificate:
    """Residue data certifying a scaled-logarithmic-derivative verdict."""

    residue_poly: Poly                                    # in t
    ratio_poly: Poly                                      # in u
    rational_residues: tuple[tuple[Fraction, Poly], ...]  # (residue, bound factor)
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
    are rational multiples of one another: the residue polynomial S splits
    over Q (a witness) or :func:`residues_commensurable_in_pairs` holds (a
    certificate).  W is built only for the certificate, which prints it.
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
    residues, bound_factors = split_residues(f, residue_poly)
    if bound_factors is not None:
        scale, witness = scaled_log_witness(f, bound_factors)
        certificate = ResidueCertificate(residue_poly, ratio_resultant(residue_poly),
                                         bound_factors, scale)
        return LogDerivativeVerdict(kind="witness", scale=scale, witness=witness,
                                    certificate=certificate)
    if not residues_commensurable_in_pairs(residue_poly):
        return LogDerivativeVerdict(kind="no", reasons=(REASON_INCOMMENSURABLE,))
    if residues:
        raise InternalInconsistencyError(
            "commensurable residues split partially over Q")
    certificate = ResidueCertificate(residue_poly, ratio_resultant(residue_poly),
                                     (), None)
    return LogDerivativeVerdict(kind="certificate", certificate=certificate)

"""The four decision procedures.

* :func:`decide_autonomous` — does ``y' = R(y)`` over the rationals admit a
  non-constant liouvillian solution?  Equivalent (over an algebraically
  closed constant field) to ``1/R`` being either an exact derivative
  ``dz/dy`` or a scaled logarithmic derivative ``(dz/dy)/(a*z)`` of some
  rational ``z``; both properties are decided exactly and witnessed.
* :func:`decide_square` — ``(y')^2 = P(y)``: impossible for squarefree P of
  degree >= 3; explicitly solvable with a one-step tower for degree <= 2
  with distinct roots.
* :func:`decide_abel` — ``y' = a_n*y^n + ... + a_2*y^2 + a_1*y`` over Q(x):
  detects the coefficient pattern that confines every liouvillian solution
  (from constants-preserving extensions) to the algebraic closure.
* :func:`degree_bound_check` — solutions living in iterated antiderivative
  towers force the right-hand side degree down to 2.

The procedures construct witnesses without checking them; whoever emits one
checks it once through the independent :mod:`liouvillian.verify`, as the CLI
does.  The gamma that :func:`decide_abel` scales by is checked there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import InternalInconsistencyError, Poly, RatFunc, is_squarefree
from .reduction import (REASON_NOT_SQUAREFREE, ResidueCertificate,
                        _power_product, log_derivative_up_to_constant,
                        rational_antiderivative, residue_resultant,
                        split_residues)
from .towers import (ANTIDERIVATIVE, Generator, QuadExtension, QuadValue,
                     TowerWitness, antiderivative_witness, exponential_witness)
from .verify import (is_rational_square, rational_square_root,
                     verify_log_derivative)

LIOUVILLIAN = "liouvillian"
NOT_LIOUVILLIAN = "not_liouvillian"
ALGEBRAIC_ONLY = "algebraic_only"
INCONCLUSIVE = "inconclusive"
INAPPLICABLE = "inapplicable"
UNSUPPORTED = "unsupported"

BRANCH_ANTIDERIVATIVE = "antiderivative"
BRANCH_LOG_DERIVATIVE = "log_derivative"
BRANCH_NONE = "none"

REASON_NO_ANTIDERIVATIVE = "1/R has no rational antiderivative (nonzero Hermite remainder)"


# -- autonomous equations y' = R(y) ---------------------------------------


@dataclass(frozen=True)
class AutonomousVerdict:
    status: str
    branch: str
    witness: RatFunc | None = None        # z with z' = 1 resp. z' = a*z
    scale: Fraction | None = None         # the a of the logarithmic branch
    certificate: ResidueCertificate | None = None
    failure_reasons: tuple[str, ...] = ()


def decide_autonomous(rhs: RatFunc) -> AutonomousVerdict:
    """Decide liouvillian solvability of ``y' = R(y)`` with R in Q(y).

    Tries the exact-derivative branch first (witness z with z' = 1 along
    solutions), then the scaled-logarithmic branch (z' = a*z).  The two
    branches are mutually exclusive on canonical inputs: an exact derivative
    that is proper always has a repeated-root denominator.  The witness is
    unchecked: see :func:`~liouvillian.verify.verify_autonomous_witness`.
    """
    if rhs.is_zero():
        raise ValueError("right-hand side must be a nonzero rational function")
    flipped = rhs.inverse()
    anti = rational_antiderivative(flipped)
    if anti is not None:
        return AutonomousVerdict(LIOUVILLIAN, BRANCH_ANTIDERIVATIVE, witness=anti)
    log_verdict = log_derivative_up_to_constant(flipped)
    if log_verdict.kind == "witness":
        return AutonomousVerdict(LIOUVILLIAN, BRANCH_LOG_DERIVATIVE,
                                 witness=log_verdict.witness,
                                 scale=log_verdict.scale,
                                 certificate=log_verdict.certificate)
    if log_verdict.kind == "certificate":
        return AutonomousVerdict(LIOUVILLIAN, BRANCH_LOG_DERIVATIVE,
                                 certificate=log_verdict.certificate)
    return AutonomousVerdict(NOT_LIOUVILLIAN, BRANCH_NONE,
                             failure_reasons=(REASON_NO_ANTIDERIVATIVE,
                                              *log_verdict.reasons))


# -- squared equations (y')^2 = P(y) --------------------------------------


REASON_DEGREE_SQUAREFREE = "degree_and_squarefree"
REASON_CONSTRUCTION = "explicit_construction"
REASON_UNHANDLED = "repeated_roots_or_low_degree_unhandled"


@dataclass(frozen=True)
class SquareVerdict:
    status: str
    reason: str
    witness: TowerWitness | None = None


def _square_witness_constant(p: Poly) -> TowerWitness:
    value = p.constant_value()
    relation = "(y')^2 = P(y) via y' constant"
    if is_rational_square(value):
        root = rational_square_root(value)
        expr = RatFunc(Poly("t", (0, root)))
        return antiderivative_witness(expr, relation)
    # y = lam*t with lam^2 = P
    expr = QuadValue(RatFunc.zero("t"), RatFunc.gen("t"))
    return TowerWitness((Generator("t", ANTIDERIVATIVE),),
                        QuadExtension("lam", value), expr, relation)


def _square_witness_linear(p: Poly) -> TowerWitness:
    slope, offset = p.coeff(1), p.coeff(0)
    # y = (slope/4)*t^2 - offset/slope turns (y')^2 into P(y) exactly.
    expr = RatFunc(Poly("t", (-offset / slope, 0, slope / 4)))
    return antiderivative_witness(expr, "(y')^2 = P(y) via y quadratic in t")


def _square_witness_quadratic(p: Poly) -> TowerWitness:
    lead = p.coeff(2)
    half_sum = -p.coeff(1) / lead / 2           # midpoint of the two roots
    spread = half_sum * half_sum - p.coeff(0) / lead   # ((r1 - r2)/2)^2, nonzero
    # y = m + (v + e/v)/2 with v' = sqrt(lead)*v; only m and e = spread appear,
    # so a single extension lam^2 = lead always suffices.
    v = RatFunc.gen("v")
    expr_rf = half_sum + (v + spread / v) / 2
    relation = "(y')^2 = P(y) via y = m + (v + e/v)/2 over an exponential v"
    if is_rational_square(lead):
        rate = QuadValue.constant("v", rational_square_root(lead))
        return exponential_witness(QuadValue.rational(expr_rf), rate, relation, None)
    rate = QuadValue.constant("v", 0, 1)        # rate = lam
    return exponential_witness(QuadValue.rational(expr_rf), rate, relation,
                               QuadExtension("lam", lead))


def decide_square(p: Poly) -> SquareVerdict:
    """Decide ``(y')^2 = P(y)`` for P over Q.

    Squarefree P of degree >= 3: no non-constant liouvillian solution.
    Degree <= 2 (distinct roots in the quadratic case): explicitly
    liouvillian, with a one-generator tower witness (unchecked: see
    :func:`~liouvillian.verify.verify_square_witness`).  Repeated
    roots in degree >= 2 fall outside the criterion and are reported
    inapplicable rather than guessed.
    """
    if p.is_zero():
        raise ValueError("the squared equation needs a nonzero polynomial")
    degree = p.degree()
    if degree >= 3:
        if is_squarefree(p):
            return SquareVerdict(NOT_LIOUVILLIAN, REASON_DEGREE_SQUAREFREE)
        return SquareVerdict(INAPPLICABLE, REASON_UNHANDLED)
    if degree == 2 and not is_squarefree(p):
        return SquareVerdict(INAPPLICABLE, REASON_UNHANDLED)
    if degree == 0:
        witness = _square_witness_constant(p)
    elif degree == 1:
        witness = _square_witness_linear(p)
    else:
        witness = _square_witness_quadratic(p)
    return SquareVerdict(LIOUVILLIAN, REASON_CONSTRUCTION, witness)


# -- degree bound for iterated antiderivative towers -----------------------


NO_TOWER_SOLUTION = "no_solution_in_antiderivative_towers"


@dataclass(frozen=True)
class DegreeBoundVerdict:
    status: str     # NO_TOWER_SOLUTION | INCONCLUSIVE
    degree: int
    explanation: str


def degree_bound_check(coeffs: Sequence[RatFunc]) -> DegreeBoundVerdict:
    """For ``y' = P(y)`` with P polynomial in y over a coefficient field:
    any solution inside an iterated antiderivative tower with unchanged
    constants forces deg P <= 2, so degree >= 3 rules such solutions out.

    ``coeffs[i]`` is the coefficient of ``y**i``.
    """
    trimmed = list(coeffs)
    while trimmed and trimmed[-1].is_zero():
        trimmed.pop()
    if not trimmed:
        raise ValueError("the right-hand side polynomial is zero")
    degree = len(trimmed) - 1
    if degree >= 3:
        return DegreeBoundVerdict(
            NO_TOWER_SOLUTION, degree,
            f"degree {degree} >= 3: no solution outside the ground field in any "
            "iterated antiderivative extension with the same constants")
    return DegreeBoundVerdict(
        INCONCLUSIVE, degree,
        f"degree {degree} <= 2 is within the sharp bound; towers of "
        "antiderivatives can carry solutions (e.g. the quadratic case)")


# -- logarithmic derivatives of algebraic functions over Q(x) --------------


@dataclass(frozen=True)
class LogDerivativeOfAlgebraic:
    """Is alpha = gamma'/gamma for some nonzero gamma algebraic over Q(x)?

    kind "rational": gamma constructed in Q(x) (all residues integers);
    kind "algebraic": gamma exists but lives in a proper algebraic extension
    (rational non-integer residues), certificate attached; kind "no": the
    failed conjunct is listed in reasons.
    """

    kind: str  # "no" | "rational" | "algebraic"
    gamma: RatFunc | None = None
    certificate: ResidueCertificate | None = None
    reasons: tuple[str, ...] = ()


REASON_NOT_PROPER = "not a proper fraction"
REASON_IRRATIONAL_RESIDUES = "residues are not all rational"


def log_derivative_of_algebraic(alpha: RatFunc) -> LogDerivativeOfAlgebraic:
    if alpha.is_zero():
        return LogDerivativeOfAlgebraic("rational", gamma=RatFunc.const(alpha.var, 1))
    if not alpha.is_proper():
        return LogDerivativeOfAlgebraic("no", reasons=(REASON_NOT_PROPER,))
    if not is_squarefree(alpha.den):
        return LogDerivativeOfAlgebraic("no", reasons=(REASON_NOT_SQUAREFREE,))
    residue_poly = residue_resultant(alpha)
    _, bound_factors = split_residues(alpha, residue_poly)
    if bound_factors is None:
        return LogDerivativeOfAlgebraic("no", reasons=(REASON_IRRATIONAL_RESIDUES,))
    certificate = ResidueCertificate(residue_poly, Poly.zero("u"), bound_factors, None)
    if all(r.denominator == 1 for r, _ in bound_factors):
        gamma = _power_product(alpha.var, [(g, int(r)) for r, g in bound_factors])
        return LogDerivativeOfAlgebraic("rational", gamma=gamma,
                                        certificate=certificate)
    return LogDerivativeOfAlgebraic("algebraic", certificate=certificate)


# -- Abel-type equations over Q(x) -----------------------------------------


HYP_SCALING = "a1 is a logarithmic derivative of an element of Q(x)"
HYP_NO_ANTIDERIVATIVE_2 = "the y^2 coefficient has no antiderivative in Q(x)"
HYP_NO_ANTIDERIVATIVE_3 = "the y^3 coefficient has no antiderivative in Q(x)"

PART_ONE_FACT = (
    "With gamma' = a1*gamma for gamma algebraic over Q(x), no z outside the "
    "algebraic closure of Q(x) in Q(x)-bar(y) has z'/z algebraic.")
PART_TWO_FACT = (
    "With a1 = 0 and the y^2 coefficient not a derivative over Q(x), a solution "
    "y outside Q(x)-bar would force an antiderivative of the y^3 coefficient "
    "inside Q(x)-bar, hence inside Q(x); its absence confines every solution "
    "from a constants-preserving liouvillian extension to the algebraic closure.")


@dataclass(frozen=True)
class AbelVerdict:
    status: str                                  # ALGEBRAIC_ONLY | INCONCLUSIVE | UNSUPPORTED
    gamma: RatFunc | None
    scaled_coeffs: tuple[RatFunc, ...] | None    # after dividing out the linear term
    hypothesis_report: tuple[tuple[str, str], ...]
    part_one_fact: str
    part_two_fact: str


def decide_abel(coeffs: Sequence[RatFunc]) -> AbelVerdict:
    """Decide ``y' = a_n*y^n + ... + a_2*y^2 + a_1*y`` over Q(x).

    ``coeffs[i]`` is the coefficient of ``y**(i+1)`` (no constant term by
    construction).  A nonzero linear term must be the logarithmic derivative
    of some gamma in Q(x); substituting y -> gamma*y then multiplies the i-th
    coefficient by gamma**(i-1) and removes the linear term.  With the linear
    term gone, the verdict is "algebraic_only" exactly when neither the y^2
    nor the y^3 coefficient has a rational antiderivative: every solution in
    a liouvillian extension of the algebraic closure of Q(x) with the same
    constants is then itself algebraic.  For n = 2 the y^3 coefficient is the
    zero function, whose antiderivative always exists, so pure quadratic
    equations are always inconclusive (their solutions are reciprocals of
    antiderivatives, genuinely liouvillian).
    """
    work = list(coeffs)
    if len(work) < 2:
        raise ValueError("need coefficients up to y^2 at least (n >= 2)")
    hypotheses: list[tuple[str, str]] = []
    gamma = None
    scaled: tuple[RatFunc, ...] | None = None
    linear = work[0]
    if not linear.is_zero():
        scaling = log_derivative_of_algebraic(linear)
        if scaling.kind == "rational":
            gamma = scaling.gamma
            check = verify_log_derivative(linear, gamma)
            if not check.passed:
                raise InternalInconsistencyError(f"scaling gamma failed: {check.identity}")
            hypotheses.append((HYP_SCALING, "pass"))
            work = [RatFunc.zero(linear.var),
                    *(c * gamma**i for i, c in enumerate(work[1:], start=1))]
            scaled = tuple(work)
        elif scaling.kind == "algebraic":
            hypotheses.append((HYP_SCALING, "fail: gamma exists but is not in Q(x)"))
            hypotheses.append((HYP_NO_ANTIDERIVATIVE_2, "not_evaluated"))
            hypotheses.append((HYP_NO_ANTIDERIVATIVE_3, "not_evaluated"))
            return AbelVerdict(UNSUPPORTED, None, None, tuple(hypotheses),
                               PART_ONE_FACT, PART_TWO_FACT)
        else:
            hypotheses.append((HYP_SCALING,
                               f"fail: {'; '.join(scaling.reasons)}"))
            hypotheses.append((HYP_NO_ANTIDERIVATIVE_2, "not_evaluated"))
            hypotheses.append((HYP_NO_ANTIDERIVATIVE_3, "not_evaluated"))
            return AbelVerdict(INCONCLUSIVE, None, None, tuple(hypotheses),
                               PART_ONE_FACT, PART_TWO_FACT)
    else:
        hypotheses.append((HYP_SCALING, "pass (linear term already zero)"))
    quadratic = work[1]
    cubic = work[2] if len(work) >= 3 else RatFunc.zero(quadratic.var)
    anti_quadratic = rational_antiderivative(quadratic)
    anti_cubic = rational_antiderivative(cubic)
    hypotheses.append((HYP_NO_ANTIDERIVATIVE_2,
                       "pass" if anti_quadratic is None else "fail: antiderivative exists"))
    hypotheses.append((HYP_NO_ANTIDERIVATIVE_3,
                       "pass" if anti_cubic is None else "fail: antiderivative exists"))
    status = ALGEBRAIC_ONLY if anti_quadratic is None and anti_cubic is None \
        else INCONCLUSIVE
    return AbelVerdict(status, gamma, scaled, tuple(hypotheses),
                       PART_ONE_FACT, PART_TWO_FACT)

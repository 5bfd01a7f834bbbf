"""The decision procedures, their worked examples, and invariance checks."""

import random
from fractions import Fraction

import pytest

from liouvillian import decision
from liouvillian.algebra import (InternalInconsistencyError, Poly, RatFunc,
                                 is_squarefree)
from liouvillian.cli import _certificate_json
from liouvillian.decision import (decide_abel, decide_autonomous, decide_square,
                                  degree_bound_check,
                                  log_derivative_of_algebraic)
from liouvillian.parser import (parse_expression as pe,
                                parse_polynomial as pp,
                                parse_poly_over_coeff_field)
from liouvillian.verify import (VerificationReport, verify_autonomous_witness,
                                verify_square_witness)

from helpers import (invert_variable, is_canonical, rand_distinct_fractions,
                     rand_fraction, rand_poly, rand_ratfunc)

Y = Poly.gen("y")


def fr(n, d=1):
    return Fraction(n, d)


class TestAutonomous:
    def test_pure_square(self):
        v = decide_autonomous(pe("y^2", "y"))
        assert v.status == "liouvillian" and v.branch == "antiderivative"
        assert v.witness == pe("-1/y", "y")

    def test_linear(self):
        v = decide_autonomous(pe("y", "y"))
        assert (v.status, v.branch) == ("liouvillian", "log_derivative")
        assert v.scale == 1 and v.witness == pe("y", "y")

    def test_tangent_style_certificate(self):
        v = decide_autonomous(pe("y^2+1", "y"))
        assert (v.status, v.branch) == ("liouvillian", "log_derivative")
        assert v.witness is None
        assert v.certificate.residue_poly == Poly("t", (1, 0, 4))
        assert _certificate_json(v.certificate)["commensurable"] is True

    def test_logistic_style_witness(self):
        v = decide_autonomous(pe("y^2+y", "y"))
        assert v.scale == 1 and v.witness == pe("y/(y+1)", "y")

    def test_reciprocal(self):
        v = decide_autonomous(pe("1/y", "y"))
        assert (v.status, v.branch) == ("liouvillian", "antiderivative")
        assert v.witness == pe("y^2/2", "y")

    def test_double_pole_cubic(self):
        v = decide_autonomous(pe("y^3+y^2", "y"))
        assert v.status == "not_liouvillian" and v.branch == "none"
        assert len(v.failure_reasons) == 2
        assert any("antiderivative" in r for r in v.failure_reasons)
        assert any("squarefree" in r for r in v.failure_reasons)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            decide_autonomous(RatFunc.zero("y"))

    def test_witnesses_always_verify(self):
        rng = random.Random(103)
        seen = {"antiderivative": 0, "log_derivative": 0}
        for _ in range(150):
            rhs = rand_ratfunc(rng, "y", max_deg=2, span=3, nonzero=True)
            v = decide_autonomous(rhs)
            if v.status == "liouvillian" and v.witness is not None:
                seen[v.branch] += 1
                report = verify_autonomous_witness(rhs, v.branch, v.witness, v.scale)
                assert report.passed
        assert seen["antiderivative"] > 5 and seen["log_derivative"] > 5

    def test_high_powers_decide(self):
        # a degree-60 numerator over a 25-fold pole: large gcds on every step
        v = decide_autonomous(pe("(y^2+1)^30/(y-1/7)^25", "y"))
        assert v.status == "not_liouvillian"

    def test_constant_scaling_invariance(self):
        rng = random.Random(107)
        for _ in range(150):
            rhs = rand_ratfunc(rng, "y", max_deg=2, span=3, nonzero=True)
            c = rand_fraction(rng, span=4, nonzero=True)
            assert decide_autonomous(rhs).status == decide_autonomous(c * rhs).status

    def test_inversion_invariance(self):
        rng = random.Random(109)
        for _ in range(100):
            rhs = rand_ratfunc(rng, "y", max_deg=2, span=3, nonzero=True)
            flipped = invert_variable(rhs)
            assert decide_autonomous(rhs).status == decide_autonomous(flipped).status

    def test_constructed_solvable_cases_are_recognized(self):
        # completeness: equations built from an explicit z must never be
        # declared impossible
        rng = random.Random(163)
        checked = 0
        while checked < 150:
            z = RatFunc.const("y", 1)
            for _ in range(rng.randint(1, 3)):
                root = rand_fraction(rng, span=3, max_den=2)
                z = z * RatFunc(Poly("y", (root, 1))) ** rng.choice((-2, -1, 1, 2))
            use_log_branch = rng.random() < 0.5
            source = z.diff() if not use_log_branch else \
                (z.diff() / z if not z.is_constant() else None)
            if source is None or source.is_zero():
                continue
            verdict = decide_autonomous(source.inverse())
            assert verdict.status == "liouvillian"
            checked += 1

    def test_branches_exclusive(self):
        rng = random.Random(113)
        for _ in range(150):
            rhs = rand_ratfunc(rng, "y", max_deg=2, span=3, nonzero=True)
            v = decide_autonomous(rhs)
            if v.status == "liouvillian":
                assert v.branch in ("antiderivative", "log_derivative")
                if v.branch == "antiderivative":
                    assert v.scale is None and v.certificate is None
            else:
                assert v.branch == "none" and v.failure_reasons


class TestSquare:
    def test_elliptic_family(self):
        for a, b in ((1, 1), (-1, 0), (0, 1)):
            p = Y**3 + a * Y + b
            assert fr(a) ** 3 / 27 + fr(b) ** 2 / 4 != 0
            v = decide_square(p)
            assert v.status == "not_liouvillian"
            assert v.reason == "degree_and_squarefree"

    def test_linear_witness(self):
        v = decide_square(pp("2*y+3", "y"))
        assert v.status == "liouvillian"
        assert v.witness.expression.base == pe("1/2*t^2 - 3/2", "t")
        assert verify_square_witness(pp("2*y+3", "y"), v.witness).passed

    def test_circle_witness(self):
        p = pp("1 - y^2", "y")
        v = decide_square(p)
        assert v.status == "liouvillian"
        assert v.witness.quad_ext.square == fr(-1)
        assert v.witness.generators[0].kind == "exponential"
        assert verify_square_witness(p, v.witness).passed

    def test_cusp_inapplicable(self):
        v = decide_square(pp("y^3", "y"))
        assert v.status == "inapplicable"
        assert v.reason == "repeated_roots_or_low_degree_unhandled"

    def test_double_root_quadratic_inapplicable(self):
        assert decide_square(pp("y^2 - 2*y + 1", "y")).status == "inapplicable"

    def test_negative_leading_quadratic(self):
        p = pp("-3*y^2 + 1", "y")
        v = decide_square(p)
        assert v.status == "liouvillian"
        assert v.witness.quad_ext.square == fr(-3)
        assert verify_square_witness(p, v.witness).passed

    def test_constant_cases(self):
        exact = decide_square(pp("4", "y"))
        assert exact.status == "liouvillian" and exact.witness.quad_ext is None
        surd = decide_square(pp("5", "y"))
        assert surd.witness.quad_ext.square == fr(5)
        for value in ("4", "5"):
            v = decide_square(pp(value, "y"))
            assert verify_square_witness(pp(value, "y"), v.witness).passed

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            decide_square(Poly.zero("y"))

    def test_random_squarefree_high_degree(self):
        rng = random.Random(127)
        found = 0
        while found < 30:
            p = rand_poly(rng, "y", max_deg=5, span=4, nonzero=True)
            if p.degree() < 3 or not is_squarefree(p):
                continue
            found += 1
            v = decide_square(p)
            assert v.status == "not_liouvillian"
            # soundness boundary: only squarefree degree >= 3 may be impossible
            assert is_squarefree(p) and p.degree() >= 3

    def test_low_degree_witnesses_always_verify(self):
        rng = random.Random(131)
        checked = 0
        for _ in range(200):
            p = rand_poly(rng, "y", max_deg=2, span=4, nonzero=True)
            if p.degree() == 2 and not is_squarefree(p):
                continue
            v = decide_square(p)
            assert v.status == "liouvillian"
            assert verify_square_witness(p, v.witness).passed
            checked += 1
        assert checked > 150


class TestDegreeBound:
    def test_cubic_with_function_coefficient(self):
        coeffs = parse_poly_over_coeff_field("y^3 + x*y", "y", "x")
        v = degree_bound_check(coeffs)
        assert v.status == "no_solution_in_antiderivative_towers"
        assert v.degree == 3

    def test_riccati_sharpness(self):
        r = pe("1/(x^2+1)", "x")
        v = degree_bound_check([RatFunc.zero("x"), RatFunc.zero("x"), -r])
        assert v.status == "inconclusive" and v.degree == 2

    def test_linear(self):
        v = degree_bound_check([RatFunc.zero("x"), RatFunc.const("x", 1)])
        assert v.status == "inconclusive"

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            degree_bound_check([RatFunc.zero("x")])


class TestLogDerivativeOfAlgebraic:
    def test_simple_pole(self):
        v = log_derivative_of_algebraic(pe("1/x", "x"))
        assert v.kind == "rational" and v.gamma == pe("x", "x")

    def test_half_residue(self):
        v = log_derivative_of_algebraic(pe("1/(2*x)", "x"))
        assert v.kind == "algebraic" and v.gamma is None
        assert v.certificate.rational_residues[0][0] == fr(1, 2)

    def test_improper(self):
        v = log_derivative_of_algebraic(pe("x", "x"))
        assert v.kind == "no" and "proper" in v.reasons[0]

    def test_gamma_identity_randomized(self):
        rng = random.Random(137)
        for _ in range(100):
            gamma = RatFunc.const("x", 1)
            for _ in range(rng.randint(1, 3)):
                root = rand_fraction(rng, span=4, max_den=2)
                gamma = gamma * RatFunc(Poly("x", (root, 1))) ** rng.choice((-2, -1, 1, 2))
            if gamma.is_constant():
                continue
            v = log_derivative_of_algebraic(gamma.diff() / gamma)
            assert v.kind == "rational"
            assert v.gamma.diff() == (gamma.diff() / gamma) * v.gamma

    def test_gamma_is_canonical(self):
        """gamma is the product of the bound factors' powers, built with no
        gcd; equal residues bind their poles into one composite factor."""
        v = log_derivative_of_algebraic(pe("-1/x - 1/(x+3)", "x"))
        assert v.certificate.rational_residues == ((fr(-1), Poly("x", (0, 3, 1))),)
        assert v.gamma == pe("1/(x^2+3*x)", "x") and is_canonical(v.gamma)
        rng = random.Random(139)
        composite = 0
        for _ in range(100):
            factors = [Poly("x", (-c, 1)) for c in rand_distinct_fractions(rng, rng.randint(1, 4))]
            factors += rng.sample([Poly("x", (-2, 0, 1)), Poly("x", (1, 1, 1))], rng.randint(0, 2))
            gamma = RatFunc.const("x", 1)     # the reference: Henrici products
            for factor in factors:
                gamma = gamma * RatFunc(factor) ** rng.choice((-3, -1, 1, 2))
            alpha = gamma.diff() / gamma
            if alpha.is_zero():
                continue
            v = log_derivative_of_algebraic(alpha)
            assert v.kind == "rational" and v.gamma == gamma and is_canonical(v.gamma)
            composite += len(v.certificate.rational_residues) < len(factors)
        assert composite >= 30


class TestAbel:
    def test_scaled_family(self):
        v = decide_abel([pe("1/x", "x"), pe("1/x^2", "x"), pe("1/x^3", "x")])
        assert v.status == "algebraic_only"
        assert v.gamma == pe("x", "x")
        assert v.scaled_coeffs == (RatFunc.zero("x"), pe("1/x", "x"), pe("1/x", "x"))

    def test_scaling_gamma_is_checked_once(self, monkeypatch):
        coeffs = [pe("1/x", "x"), pe("1/x^2", "x"), pe("1/x^3", "x")]
        seen = []
        monkeypatch.setattr(decision, "verify_log_derivative",
                            lambda f, gamma: seen.append((f, gamma)) or
                            VerificationReport("gamma' = f*gamma", False, "1"))
        with pytest.raises(InternalInconsistencyError, match="scaling gamma failed"):
            decide_abel(coeffs)
        assert seen == [(pe("1/x", "x"), pe("x", "x"))]

    def test_prescaled_family(self):
        v = decide_abel([RatFunc.zero("x"), pe("1/x", "x"), pe("1/x", "x")])
        assert v.status == "algebraic_only"

    def test_constant_quadratic_coefficient(self):
        v = decide_abel([RatFunc.zero("x"), pe("1", "x"), pe("1/x", "x")])
        assert v.status == "inconclusive"
        results = dict(v.hypothesis_report)
        assert any("fail" in r for r in results.values())

    def test_pure_riccati_always_inconclusive(self):
        v = decide_abel([RatFunc.zero("x"), pe("1/x", "x")])
        assert v.status == "inconclusive"

    def test_algebraic_gamma_unsupported(self):
        v = decide_abel([pe("1/(2*x)", "x"), pe("1/x^2", "x"), pe("1/x^3", "x")])
        assert v.status == "unsupported"

    def test_no_gamma_inconclusive(self):
        v = decide_abel([pe("x", "x"), pe("1/x^2", "x"), pe("1/x^3", "x")])
        assert v.status == "inconclusive"

    def test_too_few_coefficients(self):
        with pytest.raises(ValueError):
            decide_abel([pe("1/x", "x")])

    def test_monotone_in_higher_coefficients(self):
        rng = random.Random(139)
        base = [RatFunc.zero("x"), pe("1/x", "x"), pe("1/x", "x")]
        assert decide_abel(base).status == "algebraic_only"
        for _ in range(50):
            extra = [rand_ratfunc(rng, "x", max_deg=2, span=3)
                     for _ in range(rng.randint(1, 3))]
            assert decide_abel(base + extra).status == "algebraic_only"

    def test_hypothesis_report_always_populated(self):
        cases = [
            [pe("1/x", "x"), pe("1/x^2", "x"), pe("1/x^3", "x")],
            [pe("x", "x"), pe("1/x^2", "x"), pe("1/x^3", "x")],
            [RatFunc.zero("x"), pe("1/x", "x")],
        ]
        for coeffs in cases:
            v = decide_abel(coeffs)
            assert len(v.hypothesis_report) == 3
            assert v.part_one_fact and v.part_two_fact

"""Optional cross-checks of the exact-arithmetic core against sympy.

These guard against blind spots shared by our in-repo oracles (for example a
sign or normalization slip made consistently in both the implementation and
its brute-force check).  Skipped cleanly when sympy is not installed.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from liouvillian.algebra import (Poly, RatFunc, gcd, is_squarefree,
                                 rational_roots, resultant,
                                 squarefree_decompose)
from liouvillian.reduction import (hermite_reduce, rational_antiderivative,
                                   ratio_resultant, residue_resultant)

from helpers import rand_poly, rand_ratfunc

Y = sympy.Symbol("y")
T = sympy.Symbol("t")
U = sympy.Symbol("u")


def to_sympy(p: Poly, symbol=Y):
    coeffs = [sympy.Rational(c.numerator, c.denominator)
              for c in reversed(p.coeffs)] or [0]
    return sympy.Poly.from_list(coeffs, symbol, domain="QQ")


def from_coeff(value) -> Fraction:
    return Fraction(int(value.p), int(value.q))


class TestAgainstSympy:
    def test_gcd(self):
        rng = random.Random(401)
        for _ in range(150):
            a = rand_poly(rng, "y", max_deg=4, nonzero=True)
            b = rand_poly(rng, "y", max_deg=4, nonzero=True)
            if rng.random() < 0.5:
                shared = rand_poly(rng, "y", max_deg=2, nonzero=True)
                a, b = a * shared, b * shared
            ours = to_sympy(gcd(a, b))
            theirs = to_sympy(a).gcd(to_sympy(b)).monic().set_domain("QQ")
            assert ours == theirs

    def test_univariate_resultant(self):
        # sympy swaps its arguments without the (-1)^(m*n) factor when the
        # first degree is smaller, so feed it the higher-degree side first
        rng = random.Random(409)
        for _ in range(150):
            a = rand_poly(rng, "y", max_deg=3, nonzero=True)
            b = rand_poly(rng, "y", max_deg=3, nonzero=True)
            if a.is_constant() and b.is_constant():
                continue
            ours = resultant(a, b).constant_value()
            if a.degree() >= b.degree():
                theirs = sympy.resultant(to_sympy(a).as_expr(),
                                         to_sympy(b).as_expr(), Y)
            else:
                swap_sign = (-1) ** (a.degree() * b.degree())
                theirs = swap_sign * sympy.resultant(to_sympy(b).as_expr(),
                                                     to_sympy(a).as_expr(), Y)
            assert ours == from_coeff(sympy.Rational(theirs))

    def test_bivariate_resultant(self):
        # S(t) against sympy's res_y(num - t*den', den), normalized; W(u)
        # against sympy's res_t(S(t), S(u*t)) exactly, Sylvester scale included
        rng = random.Random(419)
        checked = 0
        while checked < 60:
            den = rand_poly(rng, "y", max_deg=3, nonzero=True)
            num = rand_poly(rng, "y", max_deg=2, nonzero=True)
            if den.is_constant():
                continue
            h = RatFunc(num, den)
            if not h.is_proper() or not is_squarefree(h.den):
                continue
            s = residue_resultant(h)
            raw = sympy.Poly(sympy.resultant(
                to_sympy(h.num).as_expr() - T * to_sympy(h.den.diff()).as_expr(),
                to_sympy(h.den).as_expr(), Y), T)
            theirs = sympy.Poly(sympy.sqf_part(raw), T).primitive()[1]
            if theirs.LC() < 0:
                theirs = -theirs
            assert to_sympy(s, T).as_expr().equals(theirs.as_expr())
            s_t = to_sympy(s, T).as_expr()
            w = sympy.Poly(sympy.resultant(s_t, s_t.subs(T, U * T), T), U)
            assert to_sympy(ratio_resultant(s), U) == sympy.Poly(w, U, domain="QQ")
            checked += 1

    def test_squarefree_decomposition(self):
        rng = random.Random(421)
        for _ in range(100):
            p = rand_poly(rng, "y", max_deg=2, nonzero=True)
            q = rand_poly(rng, "y", max_deg=2, nonzero=True)
            product = p * q * q
            ours = sorted(((to_sympy(f), m) for f, m in
                           squarefree_decompose(product)), key=str)
            _, factors = sympy.sqf_list(to_sympy(product))
            theirs = sorted(
                ((sympy.Poly(f, Y).monic().set_domain("QQ"), m)
                 for f, m in factors if sympy.Poly(f, Y).degree() > 0),
                key=str)
            assert ours == theirs

    def test_rational_roots(self):
        rng = random.Random(431)
        for _ in range(100):
            p = rand_poly(rng, "y", max_deg=5, span=5, nonzero=True)
            if p.is_constant():
                continue
            ours = dict(rational_roots(p)[0])
            theirs = {from_coeff(root): mult
                      for root, mult in sympy.roots(to_sympy(p), Y).items()
                      if root.is_rational}
            assert ours == theirs

    def test_rational_antiderivative_against_integrate(self):
        rng = random.Random(433)
        for _ in range(40):
            f = rand_ratfunc(rng, "y", max_deg=2, span=3)
            anti = rational_antiderivative(f)
            f_s = (to_sympy(f.num).as_expr() / to_sympy(f.den).as_expr())
            integral = sympy.integrate(f_s, Y)
            is_rational = not integral.has(sympy.log) and not integral.has(sympy.atan)
            assert (anti is not None) == is_rational
            if anti is not None:
                anti_s = to_sympy(anti.num).as_expr() / to_sympy(anti.den).as_expr()
                assert sympy.simplify(sympy.diff(anti_s, Y) - f_s) == 0

    def test_hermite_remainder_poles_are_simple(self):
        rng = random.Random(439)
        for _ in range(60):
            den = rand_poly(rng, "y", max_deg=1, span=3, nonzero=True) ** rng.randint(2, 3)
            den = den * rand_poly(rng, "y", max_deg=2, span=3, nonzero=True)
            f = rand_ratfunc(rng, "y", max_deg=1, span=3) / den
            if f.is_zero():
                continue
            remainder = hermite_reduce(f).remainder
            if remainder.is_zero():
                continue
            den_s = to_sympy(remainder.den)
            assert all(m == 1 for _, m in sympy.sqf_list(den_s)[1])

"""Optional cross-checks of the exact-arithmetic core against sympy.

These guard against blind spots shared by our in-repo oracles (for example a
sign or normalization slip made consistently in both the implementation and
its brute-force check).  Skipped cleanly when sympy is not installed.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from liouvillian.algebra import (Poly, RatFunc, _prime, gcd, is_squarefree,
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


def sympy_gcd(a: Poly, b: Poly):
    return to_sympy(a).gcd(to_sympy(b)).monic().set_domain("QQ")


def wide_poly(rng: random.Random, degree: int, bits: int = 230) -> Poly:
    """Random polynomial of exactly this degree with coefficients of about
    ``bits`` bits over small and large denominators."""
    coeffs = [Fraction(rng.randint(-2**bits, 2**bits), rng.choice((1, 3, 2**40)))
              for _ in range(degree)]
    return Poly("y", coeffs + [rng.randint(1, 2**bits)])


class TestAgainstSympy:
    def test_gcd(self):
        rng = random.Random(401)
        for _ in range(150):
            a = rand_poly(rng, "y", max_deg=4, nonzero=True)
            b = rand_poly(rng, "y", max_deg=4, nonzero=True)
            if rng.random() < 0.5:
                shared = rand_poly(rng, "y", max_deg=2, nonzero=True)
                a, b = a * shared, b * shared
            assert to_sympy(gcd(a, b)) == sympy_gcd(a, b)

    def test_gcd_of_large_inputs_with_a_shared_power(self):
        rng = random.Random(439)
        shared = Poly("y", (2, 5))
        for _ in range(10):
            k = rng.randint(1, 23)
            da = rng.randint(20, 72)
            db = rng.randint(max(k, 20), da)
            a = shared**k * wide_poly(rng, da - k)
            b = shared**k * wide_poly(rng, db - k)
            ours = gcd(a, b)
            assert ours.degree() >= k
            assert to_sympy(ours) == sympy_gcd(a, b)

    def test_gcd_at_the_primes_of_the_modular_method(self):
        p0, p1 = _prime(0), _prime(1)
        y = Poly.gen("y")
        shared = Poly("y", (1, p0))
        cases = [
            # p0 divides both leading coefficients, so it must be skipped
            (shared * Poly("y", (3, 0, p0)), shared * Poly("y", (-5, p0))),
            # p0 divides one leading coefficient: its image drops a degree
            ((y + 7) * Poly("y", (1, 0, p0)), (y + 7) * (y - 3)),
            # the images mod p0 share the spurious factor y
            (y + p0, y),
            ((y + p0) * (y - 1), y * (y - 1)),
            # an unlucky prime after a lucky one
            ((y + p1) * (y - 1), y * (y - 1)),
            # a spurious cube mod p0 beside a true factor
            ((y + p0) ** 3 * (5 * y + 2), y ** 3 * (5 * y + 2) ** 2),
            # images mod p0 and p1 agree on y: only trial division rejects it
            ((y + p0 * p1) * (y - 1), y * (y - 1)),
        ]
        for a, b in cases:
            assert to_sympy(gcd(a, b)) == sympy_gcd(a, b)
            assert to_sympy(gcd(b, a)) == sympy_gcd(a, b)
        assert gcd(y + p0, y) == Poly.const("y", 1)

    def test_gcd_is_monic_divides_and_leaves_coprime_cofactors(self):
        rng = random.Random(443)
        for _ in range(60):
            shared = wide_poly(rng, rng.randint(0, 4), rng.choice((2, 70)))
            a = shared * wide_poly(rng, rng.randint(0, 6), rng.choice((2, 70, 200)))
            b = shared * wide_poly(rng, rng.randint(0, 6), rng.choice((2, 70, 200)))
            g = gcd(a, b)
            assert g.leading() == 1
            cofactor_a, cofactor_b = a.exact_div(g), b.exact_div(g)
            if not (cofactor_a.is_constant() or cofactor_b.is_constant()):
                assert resultant(cofactor_a, cofactor_b).constant_value() != 0

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

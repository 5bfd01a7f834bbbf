"""Exact-arithmetic core: worked examples plus randomized ring invariants."""

import random
from fractions import Fraction

import pytest

from liouvillian.algebra import (Poly, RatFunc,
                                 content_and_primitive, gcd, is_squarefree,
                                 normalized_part, rational_roots, resultant,
                                 squarefree_decompose)

from helpers import (is_canonical, rand_fraction, rand_poly, rand_ratfunc,
                     reference_divrem, reference_mul, reference_squarefree_decompose)

Y = Poly.gen("y")


def fr(n, d=1):
    return Fraction(n, d)


class TestPolyBasics:
    def test_zero_degree_sentinel(self):
        assert Poly.zero("y").degree() is None
        assert Poly.const("y", 5).degree() == 0
        assert (Y**3).degree() == 3

    def test_trailing_zeros_trimmed(self):
        assert Poly("y", (1, 2, 0, 0)) == Poly("y", (1, 2))

    def test_variable_mismatch_rejected(self):
        with pytest.raises(ValueError, match="variable mismatch"):
            _ = Y + Poly.gen("x")

    def test_constants_compatible_across_variables(self):
        assert Poly.const("x", 3) + Y == Y + 3

    def test_divrem_examples(self):
        assert (Y**3 - Y).divrem(Y**2 - 1) == (Y, Poly.zero("y"))
        assert (Y**2 + 1).divrem(Y) == (Y, Poly.const("y", 1))
        q, r = (3 * Y**2 + 2 * Y + 1).divrem(2 * Y + 1)
        assert q == Poly("y", (fr(1, 4), fr(3, 2)))
        assert r == Poly.const("y", fr(3, 4))

    def test_divrem_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            Y.divrem(Poly.zero("y"))

    def test_division_identity_randomized(self):
        rng = random.Random(101)
        for _ in range(300):
            a = rand_poly(rng, "y", max_deg=6)
            b = rand_poly(rng, "y", max_deg=4, nonzero=True)
            q, r = a.divrem(b)
            assert q * b + r == a
            assert r.is_zero() or r.degree() < b.degree()

    def test_diff_examples(self):
        assert (Y**3 + Y + 1).diff() == 3 * Y**2 + 1
        assert Poly.const("y", 5).diff().is_zero()
        assert (Y**2 + Y).diff() == 2 * Y + 1


def rand_operand(rng: random.Random, var: str = "y") -> Poly:
    """Zero, a constant or a polynomial of degree up to 8, with numerators up
    to 10^12 of either sign and denominators up to 4 or near 10^30."""
    degree = rng.choice([None, 0, 0, 1, 2, 3, 5, 8])
    if degree is None:
        return Poly.zero(var)
    span = rng.choice([9, 10**12])
    max_den = rng.choice([1, 4, 10**30])
    return Poly(var, [rand_fraction(rng, span, max_den) for _ in range(degree)]
                + [rand_fraction(rng, span, max_den, nonzero=True)])


class TestIntegerKernels:
    """Products and division run on cleared integer lists; the Fraction
    schoolbook loops in helpers are the reference."""

    def test_products_match_reference_randomized(self):
        rng = random.Random(211)
        for _ in range(300):
            a, b = rand_operand(rng), rand_operand(rng)
            assert a * b == reference_mul(a, b)
            n = rng.randint(0, 4)
            power = Poly.const("y", 1)
            for _ in range(n):
                power = reference_mul(power, a)
            assert a**n == power

    def test_scalar_products_match_reference_randomized(self):
        rng = random.Random(223)
        for _ in range(200):
            a = rand_operand(rng)
            k = rng.choice([rng.randint(-5, 5),
                            rand_fraction(rng, 10**12, rng.choice([4, 10**30]))])
            expected = reference_mul(a, Poly.const("y", k))
            assert a * k == expected
            assert k * a == expected

    def test_division_matches_reference_randomized(self):
        rng = random.Random(227)
        for _ in range(300):
            a, b = rand_operand(rng), rand_operand(rng)
            if b.is_zero():
                continue
            q, r = a.divrem(b)
            assert (q, r) == reference_divrem(a, b)
            assert r.is_zero() or r.degree() < b.degree()
            assert (a * b).exact_div(b) == a

    def test_inexact_division_rejected(self):
        with pytest.raises(ValueError, match="not exact"):
            (Y**2 + 1).exact_div(3 * Y - 1)

    @pytest.mark.parametrize("operation", [
        lambda a, b: a * b, lambda a, b: a.divrem(b), lambda a, b: a.exact_div(b)])
    def test_variable_mismatch_rejected(self, operation):
        with pytest.raises(ValueError, match="variable mismatch"):
            operation(Y**2 + fr(1, 3), Poly.gen("x") - 2)


class TestGcd:
    def test_examples(self):
        assert gcd(Y**3 - Y, Y**2 - 1) == Y**2 - 1
        assert gcd(Y**2 + 1, Y**2 - 1) == Poly.const("y", 1)
        assert gcd(Y**4 - 1, Y**6 - 1) == Y**2 - 1

    def test_zero_inputs(self):
        assert gcd(Poly.zero("y"), Y + 1) == Y + 1
        with pytest.raises(ValueError):
            gcd(Poly.zero("y"), Poly.zero("y"))

    def test_divides_both_randomized(self):
        rng = random.Random(7)
        for _ in range(200):
            a = rand_poly(rng, "y", max_deg=4, nonzero=True)
            b = rand_poly(rng, "y", max_deg=4, nonzero=True)
            common = rand_poly(rng, "y", max_deg=2, nonzero=True)
            g = gcd(a * common, b * common)
            assert (a * common).divrem(g)[1].is_zero()
            assert (b * common).divrem(g)[1].is_zero()
            # g is a multiple of every common divisor, in particular `common`
            assert g.divrem(common.monic())[1].is_zero()
            assert g.leading() == 1


class TestSquarefree:
    def test_examples(self):
        assert squarefree_decompose(Y**2 * (Y + 1)) == [(Y + 1, 1), (Y, 2)]
        assert squarefree_decompose(Y**3 - Y) == [((Y**3 - Y).monic(), 1)]
        # y^4 + 2y^3 + y^2 = (y^2 + y)^2
        assert squarefree_decompose(Y**4 + 2 * Y**3 + Y**2) == [(Y**2 + Y, 2)]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            squarefree_decompose(Poly.zero("y"))

    def test_reconstruction_randomized(self):
        rng = random.Random(23)
        for _ in range(200):
            p = rand_poly(rng, "y", max_deg=3, nonzero=True)
            q = rand_poly(rng, "y", max_deg=2, nonzero=True)
            product = p * q * q
            parts = squarefree_decompose(product)
            rebuilt = Poly.const("y", product.leading())
            for factor, mult in parts:
                assert factor.leading() == 1
                assert is_squarefree(factor)
                rebuilt = rebuilt * factor**mult
            assert rebuilt == product
            for i in range(len(parts)):
                for j in range(i + 1, len(parts)):
                    assert gcd(parts[i][0], parts[j][0]).is_constant()


class TestSquarefreeAgainstReference:
    """Yun's algorithm over Z against the monic Poly version it replaced."""

    def test_random_products(self):
        rng = random.Random(29)
        for _ in range(400):
            product = Poly.const("y", rand_fraction(rng, span=99, nonzero=True))
            for _ in range(rng.randint(1, 4)):
                factor = rand_poly(rng, "y", max_deg=3, span=rng.choice((9, 999999)),
                                   nonzero=True)
                product = product * factor**rng.randint(1, 6)
            assert squarefree_decompose(product) == reference_squarefree_decompose(product)

    @pytest.mark.parametrize("p", [Y, Y**8, (2 * Y + 7)**6, (Y - fr(1, 3))**9 * (Y**2 + 1),
                                   Poly.const("y", 5), (3 * Y**3 - Y + 2)**2 * Y**5])
    def test_edge_cases(self, p):
        assert squarefree_decompose(p) == reference_squarefree_decompose(p)


class TestResultant:
    def test_linear_example(self):
        assert resultant(Y - 3, Y - 5) == Poly.const("y", -2)

    def test_shared_factor_gives_zero(self):
        assert resultant(Y**2 - 1, Y - 1).is_zero()

    def test_zero_input_rejected(self):
        with pytest.raises(ValueError):
            resultant(Poly.zero("y"), Y)

    def test_gcd_duality_randomized(self):
        rng = random.Random(31)
        for k in range(200):
            a = rand_poly(rng, "y", max_deg=3, nonzero=True)
            b = rand_poly(rng, "y", max_deg=3, nonzero=True)
            if k % 3 == 0:  # force a shared root a third of the time
                shared = Poly("y", (rand_fraction(rng), 1))
                a, b = a * shared, b * shared
            if a.is_constant() and b.is_constant():
                continue
            res_zero = resultant(a, b).is_zero()
            assert res_zero == (not gcd(a, b).is_constant())

    def test_multiplicativity_in_roots(self):
        # res(f, g) = lc(f)^deg(g) * prod g(root of f), checked on split cases
        rng = random.Random(47)
        for _ in range(100):
            roots = {rand_fraction(rng) for _ in range(3)}
            lead = rand_fraction(rng, nonzero=True)
            f = Poly.const("y", lead)
            for root in roots:
                f = f * Poly("y", (-root, 1))
            g = rand_poly(rng, "y", max_deg=3, nonzero=True)
            expected = lead ** (g.degree() if g.degree() else 0)
            for root in roots:
                expected *= g(root)
            assert resultant(f, g).constant_value() == expected


class TestRationalRoots:
    def test_examples(self):
        roots, rest = rational_roots(Poly("u", (16, 0, -32, 0, 16)))
        assert roots == [(fr(-1), 2), (fr(1), 2)]
        assert rest.is_constant()
        roots, rest = rational_roots(Poly("u", (-2, 0, 1)))
        assert roots == [] and rest == Poly("u", (-2, 0, 1))
        roots, _ = rational_roots(Poly("u", (1, -3, 2)))
        assert roots == [(fr(1, 2), 1), (fr(1), 1)]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            rational_roots(Poly.zero("u"))

    def test_root_at_zero(self):
        roots, rest = rational_roots(Poly("y", (0, 0, 0, 2)))
        assert roots == [(fr(0), 3)] and rest == Poly.const("y", 2)

    def test_resource_guard(self):
        # a 14-digit prime constant term, beyond any divisor enumeration
        big_prime = 10**13 + 99
        roots, rest = rational_roots(Poly("y", (big_prime, 0, 0, 1)) * Poly("y", (1, 1)))
        assert roots == [(fr(-1), 1)]
        assert rest == Poly("y", (big_prime, 0, 0, 1))

    def test_completeness_oracle_randomized(self):
        rng = random.Random(59)
        rootfree = [Poly("y", (1, 0, 1)), Poly("y", (-2, 0, 1)),
                    Poly("y", (1, 1, 1)), Poly("y", (3, -1, 1))]
        for _ in range(200):
            expected: dict[Fraction, int] = {}
            product = Poly.const("y", rand_fraction(rng, nonzero=True))
            for _ in range(rng.randint(0, 3)):
                root = rand_fraction(rng, span=4, max_den=3)
                expected[root] = expected.get(root, 0) + 1
                product = product * Poly("y", (-root, 1))
            tail = rng.choice(rootfree)
            product = product * tail
            roots, rest = rational_roots(product)
            assert dict(roots) == expected
            assert rest.monic() == tail
            rebuilt = rest
            for root, mult in roots:
                rebuilt = rebuilt * Poly("y", (-root, 1)) ** mult
            assert rebuilt == product


class TestNormalization:
    def test_content_and_primitive(self):
        content, prim = content_and_primitive(Poly("y", (fr(2, 3), fr(4, 3))))
        assert content * prim == Poly("y", (fr(2, 3), fr(4, 3)))
        assert prim == Poly("y", (1, 2))
        assert content == fr(2, 3)

    def test_normalized_part_flips_sign_and_strips_squares(self):
        p = Poly("y", (0, 0, -2))  # -2y^2
        assert normalized_part(p) == Y

    def test_primitive_has_positive_lead(self):
        rng = random.Random(61)
        for _ in range(100):
            p = rand_poly(rng, "y", max_deg=4, nonzero=True)
            prim = content_and_primitive(p)[1]
            assert prim.leading() > 0
            assert all(c.denominator == 1 for c in prim.coeffs)


class TestRatFunc:
    def test_normalization_examples(self):
        assert RatFunc(Y**2 - 1, Y - 1) == RatFunc(Y + 1)
        assert RatFunc(2 * Y, Poly.const("y", 2)) == RatFunc(Y)
        half = RatFunc(Poly.const("y", 1), 2 * Y + 2)
        assert half.num == Poly.const("y", fr(1, 2)) and half.den == Y + 1

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc(Y, Poly.zero("y"))

    def test_arithmetic_examples(self):
        inv = RatFunc(Y**2).inverse()
        assert inv == RatFunc(Poly.const("y", 1), Y**2)
        s = RatFunc(Poly.const("y", 1), Y) + RatFunc(Poly.const("y", 1), Y + 1)
        assert s == RatFunc(2 * Y + 1, Y**2 + Y)
        prod = RatFunc(Y, Y + 1) * RatFunc(Y + 1, Y)
        assert prod == RatFunc.const("y", 1)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc(Y) / RatFunc.zero("y")
        with pytest.raises(ZeroDivisionError):
            RatFunc.zero("y").inverse()

    def test_diff_examples(self):
        assert (-RatFunc(Poly.const("y", 1), Y)).diff() == RatFunc(Poly.const("y", 1), Y**2)
        assert RatFunc(Y, Y + 1).diff() == RatFunc(Poly.const("y", 1), (Y + 1) ** 2)
        assert RatFunc.const("y", fr(7, 2)).diff().is_zero()

    def test_proper_split_examples(self):
        poly, proper = RatFunc(Y**3 + 1, Y**2).proper_split()
        assert poly == Y and proper == RatFunc(Poly.const("y", 1), Y**2)
        poly, proper = RatFunc(Poly.const("y", 1), Y**2 + 1).proper_split()
        assert poly.is_zero() and proper == RatFunc(Poly.const("y", 1), Y**2 + 1)
        poly, proper = RatFunc(Y**2).proper_split()
        assert poly == Y**2 and proper.is_zero()

    def test_canonical_after_ops_randomized(self):
        rng = random.Random(67)
        for _ in range(300):
            f = rand_ratfunc(rng, "y")
            g = rand_ratfunc(rng, "y")
            results = [f + g, f - g, f * g, f.diff()]
            if not g.is_zero():
                results.append(f / g)
            for h in results:
                assert is_canonical(h)

    def test_leibniz_randomized(self):
        rng = random.Random(71)
        for _ in range(200):
            f = rand_ratfunc(rng, "y", max_deg=2)
            g = rand_ratfunc(rng, "y", max_deg=2)
            assert (f * g).diff() == f.diff() * g + f * g.diff()


def _shared_factor_ratfunc(rng: random.Random, pool: list[Poly]) -> tuple[Poly, Poly]:
    """Unreduced parts: a random constant (possibly zero or negative) times
    repeated factors drawn from a small shared pool, over the same."""
    def part(zero_ok: bool) -> Poly:
        p = Poly.const("y", rand_fraction(rng, 6, 3, nonzero=not zero_ok))
        for _ in range(rng.randint(0, 3)):
            p = p * rng.choice(pool)
        return p
    return part(rng.random() < 0.9), part(False)


class TestRatFuncAgainstNaiveParts:
    """Each operation against the normalising constructor applied to its
    naive, unreduced parts, on operands built from a shared pool of factors
    so that operands share factors, repeat factors and cancel."""

    POOL = [Y, Y + 1, Y - 1, 2 * Y + 3, Y**2 + 1, -Y + fr(1, 2), Y**2 - 2,
            Poly.const("y", -3), Poly.const("y", fr(2, 5))]

    def operands(self, seed: int, count: int):
        rng = random.Random(seed)
        for _ in range(count):
            a, b = _shared_factor_ratfunc(rng, self.POOL)
            c, d = _shared_factor_ratfunc(rng, self.POOL)
            f = RatFunc(a, b)
            if rng.random() < 0.25:
                # g = k - f, so that f + g = k cancels across both denominators
                k, m = _shared_factor_ratfunc(rng, self.POOL)
                c, d = k * b - a * m, m * b
            yield f, RatFunc(c, d), (a, b, c, d)

    @staticmethod
    def check(got: RatFunc, want: RatFunc):
        assert got == want
        assert is_canonical(got) and got.num.var == got.den.var == "y"

    def test_field_operations(self):
        for f, g, (a, b, c, d) in self.operands(79, 500):
            self.check(f + g, RatFunc(a * d + c * b, b * d))
            self.check(f - g, RatFunc(a * d - c * b, b * d))
            self.check(f * g, RatFunc(a * c, b * d))
            self.check(-f, RatFunc(-a, b))
            if not g.is_zero():
                self.check(f / g, RatFunc(a * d, b * c))
                self.check(g.inverse(), RatFunc(d, c))

    def test_powers_and_proper_split(self):
        rng = random.Random(83)
        for f, _, (a, b, _, _) in self.operands(89, 500):
            n = rng.randint(-3, 3)
            if n >= 0:
                self.check(f**n, RatFunc(a**n, b**n))
            elif not f.is_zero():
                self.check(f**n, RatFunc(b**-n, a**-n))
            poly, proper = f.proper_split()
            q, r = a.divrem(b)
            self.check(proper, RatFunc(r, b))
            assert proper.is_proper() and proper + poly == f

    def test_constants_take_the_other_operand_variable(self):
        x = RatFunc(Poly.const("x", 1), Poly("x", (1, 1)))
        two = RatFunc.const("y", 2)
        for got, want in [(x * two, RatFunc(Poly.const("x", 2), Poly("x", (1, 1)))),
                          (two + x, RatFunc(Poly("x", (3, 2)), Poly("x", (1, 1)))),
                          (two * RatFunc.const("x", 3), RatFunc.const("x", 6)),
                          (x * RatFunc.zero("y"), RatFunc.zero("x"))]:
            assert got == want and got.num.var == got.den.var

"""Hermite reduction, residue machinery, and the log-derivative test,
checked against worked examples and brute-force oracles on split cases."""

import random
from fractions import Fraction

import pytest

from liouvillian import reduction
from liouvillian.algebra import (InternalInconsistencyError, Poly, RatFunc,
                                 ResourceLimitError, _derivative, _int_add,
                                 _int_inverse_mod, _int_pseudo_divrem,
                                 _integer_form, gcd, is_squarefree,
                                 normalized_part, rational_roots, resultant)
from liouvillian.parser import parse_expression as pe
from liouvillian.reduction import (hermite_reduce,
                                   log_derivative_up_to_constant,
                                   ratio_resultant, rational_antiderivative,
                                   residue_resultant,
                                   residues_commensurable_in_pairs,
                                   scaled_log_witness, split_residues)

import helpers
from helpers import (brute_residues, fraction_from_residues, rand_fraction,
                     rand_poly, rand_ratfunc, reference_hermite_reduce,
                     split_proper_fraction)

Y = Poly.gen("y")


def fr(n, d=1):
    return Fraction(n, d)


class TestHermite:
    def test_pure_double_pole(self):
        parts = hermite_reduce(pe("1/y^2", "y"))
        assert parts.poly_part.is_zero()
        assert parts.exact_part == pe("-1/y", "y")
        assert parts.remainder.is_zero()

    def test_squarefree_denominator_untouched(self):
        f = pe("1/(y^2+y)", "y")
        parts = hermite_reduce(f)
        assert parts.poly_part.is_zero()
        assert parts.exact_part.is_zero()
        assert parts.remainder == f

    def test_mixed_multiplicities(self):
        parts = hermite_reduce(pe("1/(y^2*(y+1))", "y"))
        assert parts.exact_part == pe("-1/y", "y")
        assert parts.remainder == pe("-1/(y^2+y)", "y")

    def test_reconstruction_randomized(self):
        rng = random.Random(11)
        for _ in range(300):
            den = rand_poly(rng, "y", max_deg=2, nonzero=True)
            den = den * rand_poly(rng, "y", max_deg=1, nonzero=True) ** rng.randint(1, 3)
            f = RatFunc(rand_poly(rng, "y", max_deg=4), den)
            parts = hermite_reduce(f)
            assert RatFunc(parts.poly_part) + parts.exact_part.diff() + parts.remainder == f
            assert parts.remainder.is_proper()
            if not parts.remainder.is_zero():
                assert is_squarefree(parts.remainder.den)


def _hermite_outcome(reduce, f):
    try:
        return reduce(f)
    except (ValueError, ZeroDivisionError, InternalInconsistencyError) as exc:
        return type(exc)


# g with g' having a pole of order k + 1 = 2, ..., 8 at every root of a
# linear, quadratic and cubic factor
_ANTIDERIVATIVES = [f"(3*x-1)/{v}^{k} + x" for v in ("(2*x-3)", "(x^2+x+1)", "(x^3-2*x+5)")
                    for k in range(1, 8)]


def _random_fraction(rng, var):
    """Numerator over a product of up to three factors: multiplicities up
    to 8, non-monic factors, some with 6-digit coefficients."""
    den = Poly.const(var, rng.randint(1, 7))
    for _ in range(rng.randint(1, 3)):
        factor = rand_poly(rng, var, max_deg=rng.choice((1, 1, 2, 3)),
                           span=rng.choice((9, 9, 999999)), nonzero=True)
        den = den * factor**rng.randint(1, 8 if factor.degree() == 1 else 4)
    return RatFunc(rand_poly(rng, var, max_deg=den.degree() + 2), den)


class TestHermiteAgainstReference:
    """hermite_reduce over Z against the Poly/RatFunc multiplicity-lowering
    loop it replaced: equal HermiteParts, or the same exception type."""

    EDGE_CASES = [
        ("0", "x"), ("x^3 - 2*x + 1/2", "x"), ("(x+1)/(x^2-2)", "x"), ("1/y^2", "y"),
        ("1/(x^2+x+1)^30", "x"), ("1/(2*x+7)^6", "x"),
        ("(x+2)*(x-1)/((x-1)^3*(x+2)^2*(x^2+1))", "x"),
        ("x/((x-1)^3*(x+1)^3) + 1/(x+1)^3", "x"),
        ("1/(x^2+x+1)^12 + 3/(x-1/3)^9 + 5/(2*x+7)^6", "x"),
    ]

    @pytest.mark.parametrize("text, var", EDGE_CASES)
    def test_edge_cases(self, text, var):
        f = pe(text, var)
        assert _hermite_outcome(hermite_reduce, f) == \
            _hermite_outcome(reference_hermite_reduce, f)

    @pytest.mark.parametrize("g", _ANTIDERIVATIVES)
    def test_exact_derivatives(self, g):
        f = pe(g, "x").diff()
        parts = hermite_reduce(f)
        assert parts.remainder.is_zero()
        assert parts == reference_hermite_reduce(f)

    @pytest.mark.parametrize("var", ["x", "y"])
    def test_random_fractions(self, var):
        rng = random.Random(31 if var == "x" else 37)
        for _ in range(300):
            f = _random_fraction(rng, var)
            assert _hermite_outcome(hermite_reduce, f) == \
                _hermite_outcome(reference_hermite_reduce, f), f

    @pytest.mark.parametrize("var", ["x", "y"])
    def test_exact_part_is_canonical(self, var):
        """The exact part is built with no gcd: it must be canonical as
        built, and so must the antiderivative built from it."""
        rng = random.Random(41 if var == "x" else 43)
        repeated = 0
        for _ in range(200):
            f = _random_fraction(rng, var)
            if is_squarefree(f.den):
                continue
            repeated += 1
            parts = hermite_reduce(f)
            assert helpers.is_canonical(parts.exact_part), f
            g = parts.exact_part + RatFunc(rand_poly(rng, var, max_deg=3))
            anti = rational_antiderivative(g.diff())
            assert helpers.is_canonical(anti) and anti.diff() == g.diff(), g
        assert repeated >= 120

    def test_inexact_lowering_raises(self, monkeypatch):
        """A wrong inverse leaves a numerator that V does not divide; both
        reductions must refuse it rather than return wrong parts."""
        int_inverse, inverse = reduction._int_inverse_mod, helpers._inverse_mod

        def int_off_by_one(r, v):
            scale, prim = int_inverse(r, v)
            return scale, _int_add(prim, [1])

        def off_by_one(a, modulus):
            return inverse(a, modulus) + 1

        monkeypatch.setattr(reduction, "_int_inverse_mod", int_off_by_one)
        monkeypatch.setattr(helpers, "_inverse_mod", off_by_one)
        for text in ("1/x^2", "1/(2*x+7)^6", "(x+5)/((x^2+x+1)^3*(x-2))"):
            f = pe(text, "x")
            with pytest.raises(ValueError, match="not exact"):
                hermite_reduce(f)
            assert _hermite_outcome(reference_hermite_reduce, f) is ValueError

    def test_factors_that_are_not_coprime_raise(self, monkeypatch):
        """U*V' not invertible modulo V is an internal inconsistency."""
        y = Poly.gen("y")
        monkeypatch.setattr(reduction, "squarefree_decompose",
                            lambda den: [(y, 1), (y, 2)])
        with pytest.raises(InternalInconsistencyError):
            hermite_reduce(pe("1/y^3", "y"))


def _int_list(rng, degree, bits):
    """Random integer list of exactly this degree, coefficients of either sign."""
    span = 2**bits
    return [rng.randint(-span, span) for _ in range(degree)] + \
        [rng.choice((-1, 1)) * rng.randint(1, span)]


class TestIntegerInverse:
    """_int_inverse_mod against the inverse over Q it replaced in Hermite
    reduction: the inverse is unique, so the two agree exactly."""

    @staticmethod
    def _oracle(r, v):
        return _integer_form(reduction._inverse_mod(Poly("x", r), Poly("x", v)))

    def test_random_coprime_pairs(self):
        rng = random.Random(53)
        checked = 0
        for _ in range(400):
            n = rng.randint(1, 10)
            bits = rng.choice((3, 3, 20, 110))
            v = _int_list(rng, n, bits)
            r = _int_list(rng, rng.randint(0, n - 1), rng.choice((3, 110)))
            if not gcd(Poly("x", r), Poly("x", v)).is_constant():
                continue
            checked += 1
            assert _int_inverse_mod(r, v) == self._oracle(r, v), (r, v)
        assert checked >= 350

    @pytest.mark.parametrize("r, v", [
        ([7], [1, 2]),                               # constant r, linear V
        ([-3], [5, 0, -4]),                          # negative leading coefficient
        ([2**120 + 1, -3], [1, 1, 2**105]),          # wide coefficients
        ([0, 0, 1], [-1, 0, 0, 2]),
    ])
    def test_examples(self, r, v):
        assert _int_inverse_mod(r, v) == self._oracle(r, v)

    def test_factor_of_a_wide_non_monic_cube(self):
        """U*V' mod V for the one repeated factor of the cube, and the
        inverse that hermite_reduce takes of it."""
        v = [1, 987654321] + [0] * 10 + [123456789]
        r = _int_pseudo_divrem(_derivative(v), v)[1]
        assert _int_inverse_mod(r, v) == self._oracle(r, v)
        f = pe("1/(123456789*x^12 + 987654321*x + 1)^3", "x")
        assert hermite_reduce(f) == reference_hermite_reduce(f)

    @pytest.mark.parametrize("r, v", [
        ([], [1, 0, 1]),                             # zero r
        ([1, 1], [1, 2, 1]),                         # r and V share x + 1
        ([0, 2], [0, 3, 0, 1]),                      # r and V share x
    ])
    def test_non_invertible_raises(self, r, v):
        with pytest.raises(InternalInconsistencyError,
                           match="expected an element invertible modulo the denominator"):
            _int_inverse_mod(r, v)


class TestUnnormalisedRemainder:
    """rational_antiderivative reads only whether the Hermite remainder is
    zero, and never normalises it."""

    def test_remainder_sharing_a_factor_with_prod_v(self):
        # the remainder numerator over (x-1)*(x+1) is x-1
        f = pe("-1/(x-1)^2 + 1/(x+1)", "x")
        parts = hermite_reduce(f)
        assert parts.exact_part == pe("1/(x-1)", "x")
        assert parts.remainder == pe("1/(x+1)", "x")
        assert helpers.is_canonical(parts.remainder)
        assert rational_antiderivative(f) is None

    @pytest.mark.parametrize("var", ["x", "y"])
    def test_none_exactly_when_the_remainder_is_nonzero(self, var):
        rng = random.Random(59 if var == "x" else 61)
        seen = {True: 0, False: 0}
        for _ in range(200):
            f = _random_fraction(rng, var)
            if rng.random() < 0.5:
                f = f.diff()            # an exact derivative, plus a log part at times
                if rng.random() < 0.5:
                    f = f + RatFunc(rand_poly(rng, var, max_deg=1, nonzero=True),
                                    rand_poly(rng, var, max_deg=2, nonzero=True))
            if is_squarefree(f.den):
                continue
            vanishes = hermite_reduce(f).remainder.is_zero()
            seen[vanishes] += 1
            assert (rational_antiderivative(f) is None) == (not vanishes), f
        assert min(seen.values()) >= 30


class TestRationalAntiderivative:
    def test_examples(self):
        assert rational_antiderivative(pe("1/x^2", "x")) == pe("-1/x", "x")
        assert rational_antiderivative(pe("1/x", "x")) is None
        assert rational_antiderivative(pe("2*x/(x^2+1)", "x")) is None

    def test_zero_has_zero_antiderivative(self):
        assert rational_antiderivative(RatFunc.zero("x")) == RatFunc.zero("x")

    def test_soundness_randomized(self):
        rng = random.Random(13)
        hits = 0
        for _ in range(300):
            f = rand_ratfunc(rng, "x", max_deg=3)
            anti = rational_antiderivative(f)
            if anti is not None:
                hits += 1
                assert anti.diff() == f
        assert hits > 20  # polynomials and exact derivatives do occur

    def test_derivatives_always_recognized(self):
        rng = random.Random(17)
        for _ in range(200):
            g = rand_ratfunc(rng, "x", max_deg=3)
            anti = rational_antiderivative(g.diff())
            assert anti is not None
            assert anti.diff() == g.diff()

    def test_scaling_equivariance(self):
        rng = random.Random(19)
        for _ in range(200):
            f = rand_ratfunc(rng, "x", max_deg=3, nonzero=True)
            c = rand_fraction(rng, nonzero=True)
            assert (rational_antiderivative(f) is None) == \
                (rational_antiderivative(c * f) is None)


class TestResidueResultant:
    def test_examples(self):
        assert residue_resultant(pe("1/(y^2+1)", "y")) == Poly("t", (1, 0, 4))
        assert residue_resultant(pe("1/(y^2+y)", "y")) == Poly("t", (-1, 0, 1))
        assert residue_resultant(pe("1/y", "y")) == Poly("t", (-1, 1))

    def test_preconditions(self):
        with pytest.raises(ValueError, match="proper"):
            residue_resultant(pe("y", "y"))
        with pytest.raises(ValueError, match="squarefree"):
            residue_resultant(pe("1/y^2", "y"))
        with pytest.raises(ValueError, match="zero"):
            residue_resultant(RatFunc.zero("y"))

    def test_residue_oracle_randomized(self):
        rng = random.Random(29)
        for _ in range(300):
            h, poles = split_proper_fraction(rng, "y", rng.randint(1, 4))
            s = residue_resultant(h)
            roots, rest = rational_roots(s)
            assert rest.is_constant()
            assert all(mult == 1 for _, mult in roots)
            assert {r for r, _ in roots} == brute_residues(h, poles)

    def test_never_vanishes_at_zero(self):
        rng = random.Random(37)
        for _ in range(200):
            h, _ = split_proper_fraction(rng, "y", rng.randint(1, 3))
            assert residue_resultant(h)(fr(0)) != 0


class TestRatioResultant:
    def test_examples(self):
        w = ratio_resultant(Poly("t", (1, 0, 4)))
        assert w == Poly("u", (16, 0, -32, 0, 16))
        assert ratio_resultant(Poly("t", (-1, 1))) == Poly("u", (-1, 1))
        # golden-ratio roots: only the trivial self-ratios u = 1 are rational
        roots, rest = rational_roots(ratio_resultant(Poly("t", (-1, -1, 1))))
        assert roots == [(fr(1), 2)]
        assert not rest.is_constant()

    def test_preconditions(self):
        with pytest.raises(ValueError, match="non-constant"):
            ratio_resultant(Poly.const("t", 3))
        with pytest.raises(ValueError, match="vanish"):
            ratio_resultant(Poly.gen("t"))
        with pytest.raises(ResourceLimitError):
            ratio_resultant(Poly("t", [1] + [0] * 64 + [1]))

    def test_one_is_always_a_root_and_zero_never(self):
        rng = random.Random(41)
        for _ in range(100):
            s = rand_poly(rng, "t", max_deg=3, nonzero=True)
            if s.is_constant() or s(fr(0)) == 0:
                continue
            w = ratio_resultant(s)
            assert w(fr(1)) == 0
            assert w(fr(0)) != 0
            assert w.degree() == s.degree() ** 2

    def test_ratio_oracle_randomized(self):
        rng = random.Random(43)
        for _ in range(300):
            h, by_pole = fraction_from_residues(rng, "y", rng.randint(2, 3))
            s = residue_resultant(h)
            residues = set(by_pole.values())
            expected = {a / b for a in residues for b in residues}
            roots, rest = rational_roots(ratio_resultant(s))
            assert rest.is_constant()
            assert {r for r, _ in roots} == expected


def _interpolate(var, points, values):
    """The polynomial of degree < len(points) through the given values
    (Lagrange's formula)."""
    total = Poly.zero(var)
    for i, (xi, yi) in enumerate(zip(points, values)):
        basis = Poly.const(var, yi)
        for j, xj in enumerate(points):
            if j != i:
                basis = basis * Poly(var, (-xj, 1)) * (1 / (xi - xj))
        total = total + basis
    return total


def _differential_inputs():
    """Random proper fractions with squarefree denominators, then
    1/(y^d + 1), 1/(y^d + y + 1) and sum(1/(y - i)) for d <= 8: the 1/R of
    the autonomous families R = y^d + 1, y^d + y + 1, 1/sum(1/(y - i))."""
    rng = random.Random(71)
    inputs = []
    while len(inputs) < 30:
        h = RatFunc(rand_poly(rng, "y", max_deg=3, nonzero=True),
                    rand_poly(rng, "y", max_deg=4, nonzero=True))
        if h.is_proper() and not h.den.is_constant() and is_squarefree(h.den):
            inputs.append(pytest.param(h, id=f"random-{len(inputs)}"))
    for d in range(2, 9):
        poles = " + ".join(f"1/(y - {i})" for i in range(1, d + 1))
        for text in (f"1/(y^{d} + 1)", f"1/(y^{d} + y + 1)", poles):
            inputs.append(pytest.param(pe(text, "y"), id=text))
    return inputs


class TestAgainstSylvester:
    """S and W, built from power sums, against the univariate Sylvester
    resultant at sample points."""

    @pytest.mark.parametrize("h", _differential_inputs())
    def test_residue_and_ratio_polynomials(self, h):
        s = residue_resultant(h)
        # res_y(num - t*den', den) has degree deg den in t; its values at
        # deg den + 1 points fix it, and its normalized part is S.  Points
        # where the y-degree of num - t*den' drops would change the
        # Sylvester layout, so they are skipped.
        dden = h.den.diff()
        points = []
        k = 0
        while len(points) <= h.den.degree():
            k += 1
            point = fr(k, 3)
            if (h.num - point * dden).degree() == dden.degree():
                points.append(point)
        values = [resultant(h.num - point * dden, h.den).constant_value()
                  for point in points]
        assert normalized_part(_interpolate("t", points, values)) == s
        w = ratio_resultant(s)
        assert w.degree() == s.degree() ** 2
        for k in range(1, w.degree() + 2):
            point = fr(k, 2) if k % 2 else fr(-k, 3)
            scaled = Poly("t", [c * point**j for j, c in enumerate(s.coeffs)])
            assert resultant(s, scaled).constant_value() == w(point)


class TestCommensurable:
    def test_examples(self):
        # the roots of S are commensurable iff the ratio polynomial splits
        roots, leftover = rational_roots(ratio_resultant(Poly("t", (1, 0, 4))))
        assert leftover.is_constant() and {r for r, _ in roots} == {fr(1), fr(-1)}
        _, leftover = rational_roots(ratio_resultant(Poly("t", (-1, -1, 1))))
        assert not leftover.is_constant()
        _, leftover = rational_roots(ratio_resultant(Poly("t", (2, -3, 1))))
        assert leftover.is_constant()


def _w_criterion(s):
    """Commensurable residues: every root of W = res_t(S(t), S(u*t)) is
    rational."""
    return rational_roots(ratio_resultant(s))[1].is_constant()


def _s_criterion(s):
    """The same, decided from S alone as log_derivative_up_to_constant does."""
    return rational_roots(s)[1].is_constant() or residues_commensurable_in_pairs(s)


def _random_residue_poly(rng):
    """A squarefree S with S(0) != 0 from a few of: rational linear factors,
    t^2 - q^2*c with one shared c (commensurable +-sqrt(c) pairs), t^2 - c'
    with a random c', t^4 - c' (even, with U = t^2 - c') and random
    quadratics."""
    shared = rng.choice((2, 3, -1, fr(5, 2)))
    while True:
        s = Poly.const("t", 1)
        for _ in range(rng.randint(1, 3)):
            kind = rng.randrange(5)
            if kind == 0:
                piece = Poly("t", (-rand_fraction(rng, nonzero=True), 1))
            elif kind == 1:
                piece = Poly("t", (-shared * rand_fraction(rng, nonzero=True) ** 2, 0, 1))
            elif kind == 2:
                piece = Poly("t", (-rand_fraction(rng, nonzero=True), 0, 1))
            elif kind == 3:
                piece = Poly("t", (-rand_fraction(rng, nonzero=True), 0, 0, 0, 1))
            else:
                piece = rand_poly(rng, "t", max_deg=2, nonzero=True)
            s = s * piece
        if not s.is_constant() and s(fr(0)) != 0 and is_squarefree(s):
            return s


class TestCommensurabilityFromS:
    """The S-only criterion against "W splits over Q", the definition."""

    def test_random_residue_polynomials(self):
        rng = random.Random(97)
        outcomes = []
        for _ in range(150):
            s = _random_residue_poly(rng)
            outcomes.append(_w_criterion(s))
            assert _s_criterion(s) == outcomes[-1], s
        assert 20 < sum(outcomes) < 130

    def test_random_proper_fractions(self):
        rng = random.Random(89)
        outcomes = []
        while len(outcomes) < 60:
            h = RatFunc(rand_poly(rng, "y", max_deg=2, nonzero=True),
                        rand_poly(rng, "y", max_deg=3, nonzero=True))
            if not h.is_proper() or h.den.is_constant() or not is_squarefree(h.den):
                continue
            expected = _w_criterion(residue_resultant(h))
            assert (log_derivative_up_to_constant(h).kind != "no") == expected, h
            outcomes.append(expected)
        assert 0 < sum(outcomes) < len(outcomes)

    @pytest.mark.parametrize("text, expected", [
        # +-sqrt(c) residue pairs: commensurable iff c1/c2 is a rational square
        ("1/(y^2-2)", True),
        ("1/(y^2+1)", True),
        ("1/(y^2-2) + 3/(y^2-8)", True),
        ("1/(y^2+1) + 1/(y^2+4)", True),
        ("1/(y^2-2) + 1/(y^2-3)", False),
        ("1/(y^2-2) + 1/(y^2+2)", False),
        ("1/(y^2+1) + 1/(y^2-1)", False),
        # residues 1, -1, +-sqrt(2): a partial split
        ("1/(y-5) - 1/(y-7) + 4/(y^2-2)", False),
        # an even S that splits: residues +-1 and +-2
        ("1/(y-1) - 1/(y-2) + 2/(y-3) - 2/(y-4)", True),
    ])
    def test_structured_fractions(self, text, expected):
        h = pe(text, "y")
        s = residue_resultant(h)
        assert _w_criterion(s) == expected
        assert _s_criterion(s) == expected
        assert (log_derivative_up_to_constant(h).kind != "no") == expected

    @pytest.mark.parametrize("roots, expected", [
        ((1, -1, "t^2-2"), False),                # (t-1)(t+1)(t^2-2)
        ((1, -1, 2, -2), True),                   # even, splits
        (("t^2-2", "t^2-18"), True),              # ratio 9
        (("t^2-2", "t^2-6"), False),              # ratio 3
        (("t^2+3", "t^2+1/3"), True),             # ratio 1/9
        (("t^2+3", "t^2-3"), False),              # ratio -1
        (("t^4-2",), False),                      # even, U = t^2-2 irreducible
        (("t^2-2", "t^3-2"), False),              # not even
    ])
    def test_structured_residue_polynomials(self, roots, expected):
        s = Poly.const("t", 1)
        for piece in roots:
            s = s * (pe(piece, "t").num if isinstance(piece, str)
                     else Poly("t", (-piece, 1)))
        assert _w_criterion(s) == expected
        assert _s_criterion(s) == expected


def _witness(h):
    _, bound_factors = split_residues(h, residue_resultant(h))
    return scaled_log_witness(h, bound_factors)


class TestScaledLogWitness:
    def test_examples(self):
        a, z = _witness(pe("1/(y^2+y)", "y"))
        assert a == 1 and z == pe("y/(y+1)", "y")
        a, z = _witness(pe("1/y", "y"))
        assert a == 1 and z == pe("y", "y")
        a, z = _witness(pe("3/(2*y)", "y"))
        assert a == fr(2, 3) and z == pe("y", "y")

    def test_irrational_residues_rejected(self):
        # residues of y/(y^2+y-1) are (5 +- sqrt(5))/10: no bound factors
        h = pe("y/(y^2+y-1)", "y")
        assert split_residues(h, residue_resultant(h)) == ((), None)
        # residues 1 and +-sqrt(2)/4: only the rational one is reported
        h = pe("1/y + 1/(y^2-2)", "y")
        assert split_residues(h, residue_resultant(h)) == ((fr(1),), None)

    def test_soundness_randomized(self):
        rng = random.Random(53)
        for _ in range(200):
            h, _ = fraction_from_residues(rng, "y", rng.randint(1, 3))
            a, z = _witness(h)
            assert a > 0
            assert z.diff() == a * z * h

    def test_scale_is_minimal(self):
        rng = random.Random(55)
        for _ in range(100):
            h, by_pole = fraction_from_residues(rng, "y", rng.randint(1, 3))
            a, _ = _witness(h)
            residues = set(by_pole.values())
            assert all((a * r).denominator == 1 for r in residues)
            # nothing smaller works: a/k for k>=2 fails for some residue
            for k in (2, 3, 5):
                smaller = a / k
                assert any((smaller * r).denominator != 1 for r in residues)

    def test_witness_degree_guard(self):
        # residues 1/997 and 1/991 force a witness of degree ~ 2000
        h = (RatFunc(Poly.const("y", fr(1, 997)), Poly("y", (0, 1)))
             + RatFunc(Poly.const("y", fr(1, 991)), Poly("y", (-1, 1))))
        with pytest.raises(ResourceLimitError, match="witness"):
            _witness(h)


class TestLogDerivativeVerdict:
    def test_examples(self):
        v = log_derivative_up_to_constant(pe("1/y", "y"))
        assert v.kind == "witness" and v.scale == 1 and v.witness == pe("y", "y")
        v = log_derivative_up_to_constant(pe("1/(y^2+1)", "y"))
        assert v.kind == "certificate"
        assert v.certificate.residue_poly == Poly("t", (1, 0, 4))
        assert v.certificate.ratio_poly == Poly("u", (16, 0, -32, 0, 16))
        v = log_derivative_up_to_constant(pe("1/y^2", "y"))
        assert v.kind == "no" and v.reasons == ("denominator is not squarefree",)

    def test_poly_part_conjunct(self):
        v = log_derivative_up_to_constant(pe("y + 1/y", "y"))
        assert v.kind == "no" and "polynomial part" in v.reasons[0]

    def test_incommensurable(self):
        # residues (5 +- sqrt(5))/10 have the irrational ratio (3 +- sqrt(5))/2
        v = log_derivative_up_to_constant(pe("y/(y^2+y-1)", "y"))
        assert v.kind == "no"
        assert "not all rational" in v.reasons[0]

    def test_exact_log_derivative_of_irrational_factors(self):
        # (y^2+y-1)'/(y^2+y-1) has residue 1 at both irrational poles
        v = log_derivative_up_to_constant(pe("(2*y+1)/(y^2+y-1)", "y"))
        assert v.kind == "witness" and v.scale == 1
        assert v.witness == pe("y^2+y-1", "y")

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            log_derivative_up_to_constant(RatFunc.zero("y"))

    def test_actual_log_derivatives_are_recognized(self):
        rng = random.Random(57)
        for _ in range(150):
            z = RatFunc.const("y", 1)
            for _ in range(rng.randint(1, 3)):
                root = rand_fraction(rng, span=4, max_den=2)
                z = z * RatFunc(Poly("y", (root, 1))) ** rng.choice((-2, -1, 1, 2))
            if z.is_constant():
                continue
            f = z.diff() / z
            v = log_derivative_up_to_constant(f)
            assert v.kind == "witness"
            assert v.witness.diff() == v.scale * v.witness * f

    def test_verdict_class_scaling_invariant(self):
        rng = random.Random(63)

        def classify(g):
            try:
                return log_derivative_up_to_constant(g)
            except ResourceLimitError:
                return None  # witness too large; scaling preserves its size

        for _ in range(150):
            f = rand_ratfunc(rng, "y", max_deg=2, span=3, nonzero=True)
            c = rand_fraction(rng, nonzero=True)
            v1 = classify(f)
            v2 = classify(c * f)
            if v1 is None or v2 is None:
                assert v1 is None and v2 is None
                continue
            assert v1.kind == v2.kind
            if v1.kind == "witness":
                # the canonical constant is fixed positive, so it scales by 1/|c|
                assert v2.scale == v1.scale / abs(c)

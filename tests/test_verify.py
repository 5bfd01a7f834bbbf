"""The verification oracle: exact identity checks and mutation detection."""

import random
from fractions import Fraction

import pytest

from liouvillian.algebra import Poly, RatFunc, ResourceLimitError
from liouvillian.decision import decide_autonomous, decide_square
from liouvillian.parser import (parse_expression as pe, parse_polynomial as pp,
                                render)
from liouvillian.towers import (ANTIDERIVATIVE, EXPONENTIAL, Generator,
                                QuadExtension, QuadValue, TowerWitness,
                                antiderivative_witness, exponential_witness)
from liouvillian.verify import (MalformedWitnessError, _QuadField, is_rational_square,
                                rational_square_root, verify_antiderivative,
                                verify_autonomous_witness, verify_log_derivative,
                                verify_square_witness)

from helpers import check_leibniz, rand_fraction, rand_poly, rand_ratfunc


def fr(n, d=1):
    return Fraction(n, d)


class TestRationalSquare:
    def test_detection(self):
        assert is_rational_square(fr(4))
        assert is_rational_square(fr(9, 4))
        assert is_rational_square(fr(0))
        assert not is_rational_square(fr(-4))
        assert not is_rational_square(fr(2))
        assert not is_rational_square(fr(1, 3))

    def test_root(self):
        assert rational_square_root(fr(9, 4)) == fr(3, 2)
        with pytest.raises(ValueError):
            rational_square_root(fr(2))


class TestAutonomousWitness:
    def test_antiderivative_pass(self):
        report = verify_autonomous_witness(pe("y^2", "y"), "antiderivative",
                                           pe("-1/y", "y"))
        assert report.passed and report.residual == "0"

    def test_log_pass(self):
        report = verify_autonomous_witness(pe("y^2+y", "y"), "log_derivative",
                                           pe("y/(y+1)", "y"), fr(1))
        assert report.passed

    def test_sign_error_detected(self):
        report = verify_autonomous_witness(pe("y^2", "y"), "antiderivative",
                                           pe("1/y", "y"))
        assert not report.passed
        assert report.residual == "-2"

    def test_malformed(self):
        with pytest.raises(MalformedWitnessError):
            verify_autonomous_witness(pe("y", "y"), "log_derivative",
                                      pe("y", "y"), None)
        with pytest.raises(MalformedWitnessError):
            verify_autonomous_witness(pe("y", "y"), "mystery", pe("y", "y"))


class TestSquareWitness:
    def test_linear_construction_passes(self):
        witness = antiderivative_witness(pe("1/2*t^2 - 3/2", "t"),
                                         "(y')^2 = 2y+3")
        assert verify_square_witness(pp("2*y+3", "y"), witness).passed

    def test_exponential_with_extension_passes(self):
        expr = QuadValue.rational(pe("(v^2 + 1)/(2*v)", "v"))
        rate = QuadValue.constant("v", 0, 1)  # rate = lam, lam^2 = -1
        witness = exponential_witness(expr, rate, "(y')^2 = 1-y^2",
                                      QuadExtension("lam", fr(-1)))
        assert verify_square_witness(pp("1 - y^2", "y"), witness).passed

    def test_wrong_expression_fails(self):
        witness = antiderivative_witness(pe("t^2", "t"), "(y')^2 = 2y+3")
        report = verify_square_witness(pp("2*y+3", "y"), witness)
        assert not report.passed
        assert report.residual != "0"

    def test_two_generators_rejected(self):
        gen = Generator("t", ANTIDERIVATIVE)
        witness = TowerWitness((gen, gen), None,
                               QuadValue.rational(pe("t", "t")), "bogus")
        with pytest.raises(MalformedWitnessError, match="one generator"):
            verify_square_witness(pp("y", "y"), witness)

    def test_extension_symbol_without_declaration_rejected(self):
        expr = QuadValue(pe("t", "t"), pe("1", "t"))
        witness = TowerWitness((Generator("t", ANTIDERIVATIVE),), None, expr, "bogus")
        with pytest.raises(MalformedWitnessError, match="extension"):
            verify_square_witness(pp("y", "y"), witness)

    def test_square_extension_rejected(self):
        # lam^2 = 9/4 would make the pair ring degenerate; refuse it
        expr = QuadValue(pe("t", "t"), pe("0", "t"))
        witness = TowerWitness((Generator("t", ANTIDERIVATIVE),),
                               QuadExtension("lam", fr(9, 4)), expr, "bogus")
        with pytest.raises(MalformedWitnessError, match="square root"):
            verify_square_witness(pp("y", "y"), witness)

    def test_missing_rate_rejected(self):
        witness = TowerWitness((Generator("v", EXPONENTIAL),), None,
                               QuadValue.rational(pe("v", "v")), "bogus")
        with pytest.raises(MalformedWitnessError, match="rate"):
            verify_square_witness(pp("y^2", "y"), witness)


class TestLeibniz:
    def test_examples(self):
        assert check_leibniz(pe("y", "y"), pe("y", "y")).passed
        assert check_leibniz(pe("1/y", "y"), pe("y^2", "y")).passed
        assert check_leibniz(pe("y/(y+1)", "y"), pe("1/y", "y")).passed

    def test_randomized(self):
        rng = random.Random(83)
        for _ in range(200):
            report = check_leibniz(rand_ratfunc(rng, "y", max_deg=2),
                                   rand_ratfunc(rng, "y", max_deg=2))
            assert report.passed


class TestIndependence:
    def test_verifier_never_imports_reduction(self):
        # the checker must not share code paths with the machinery it checks
        import ast
        from pathlib import Path
        import liouvillian.towers
        import liouvillian.verify

        for module in (liouvillian.verify, liouvillian.towers):
            tree = ast.parse(Path(module.__file__).read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    assert "reduction" not in (node.module or "")
                    assert "decision" not in (node.module or "")
                elif isinstance(node, ast.Import):
                    for alias in node.names:
                        assert "reduction" not in alias.name
                        assert "decision" not in alias.name


class TestMutationDetection:
    def test_autonomous_mutations_all_fail(self):
        rng = random.Random(89)
        rhs = pe("y^2+y", "y")
        z = pe("y/(y+1)", "y")
        for _ in range(50):
            bump = rand_fraction(rng, nonzero=True)
            index = rng.randrange(len(z.num.coeffs))
            coeffs = list(z.num.coeffs)
            coeffs[index] += bump
            mutated = RatFunc(Poly("y", coeffs), z.den)
            # constant multiples of z are the one legitimate gauge freedom
            if mutated.is_zero() or (mutated / z).is_constant():
                continue
            report = verify_autonomous_witness(rhs, "log_derivative", mutated, fr(1))
            assert not report.passed

    def test_square_mutations_all_fail(self):
        rng = random.Random(91)
        p = pp("2*y+3", "y")
        for _ in range(50):
            bump = rand_fraction(rng, nonzero=True)
            coeffs = [fr(-3, 2), fr(0), fr(1, 2)]
            coeffs[rng.randrange(3)] += bump
            witness = antiderivative_witness(RatFunc(Poly("t", coeffs)),
                                             "(y')^2 = 2y+3")
            assert not verify_square_witness(p, witness).passed


def _variants(rng, z):
    """z itself, z times a constant other than 1, and z with one coefficient
    of its numerator or denominator perturbed."""
    yield z
    yield z * rng.choice((fr(2), fr(-1), fr(3, 7)))
    for _ in range(3):
        num, den = list(z.num.coeffs), list(z.den.coeffs)
        target = rng.choice((num, den))
        target[rng.randrange(len(target))] += rand_fraction(rng, nonzero=True)
        if any(den):
            yield RatFunc(Poly(z.var, num), Poly(z.var, den))


class TestCorruptedWitnessResidual:
    """A check compares cleared polynomials: it passes a witness and fails
    its corruptions exactly when the normalised RatFunc residual of the
    identity is zero, and renders that residual."""

    def _assert_matches(self, report, residual):
        assert report.passed == residual.is_zero()
        assert report.residual == render(residual)
        return not report.passed

    def test_autonomous_witnesses(self):
        rng = random.Random(107)
        failed = {"antiderivative": 0, "log_derivative": 0}
        while min(failed.values()) < 60:
            rhs = rand_ratfunc(rng, "y", max_deg=2, nonzero=True)
            if rng.random() < 0.5 and not rhs.is_constant():
                rhs = rhs.diff().inverse()      # R = 1/z' has the witness z
            try:
                v = decide_autonomous(rhs)
            except ResourceLimitError:
                continue
            if v.witness is None:
                continue
            for z in _variants(rng, v.witness):
                if v.branch == "antiderivative":
                    report = verify_autonomous_witness(rhs, v.branch, z)
                    residual = rhs * z.diff() - 1
                else:
                    a = v.scale + rng.choice((0, 0, rand_fraction(rng, nonzero=True)))
                    report = verify_autonomous_witness(rhs, v.branch, z, a)
                    residual = rhs * z.diff() - a * z
                failed[v.branch] += self._assert_matches(report, residual)

    def test_antiderivative_and_log_derivative_witnesses(self):
        rng = random.Random(109)
        failed = [0, 0]
        while min(failed) < 60:
            z = rand_ratfunc(rng, "x", max_deg=2, nonzero=True)
            if z.is_constant():
                continue
            f, g = z.diff(), z.diff() / z
            for mutated in _variants(rng, z):
                failed[0] += self._assert_matches(verify_antiderivative(f, mutated),
                                                  mutated.diff() - f)
                failed[1] += self._assert_matches(verify_log_derivative(g, mutated),
                                                  mutated.diff() - g * mutated)


def _normalised_square_check(p, witness):
    """(y')^2 - P(y) in the normalised pair arithmetic of _QuadField: whether
    it is zero, and its rendering."""
    generator = witness.generators[0]
    ext = witness.quad_ext
    field = _QuadField(generator.name, ext.square if ext else None,
                       ext.symbol if ext else "lam")
    value = field.lift(witness.expression)
    derivative = field.derive(value, generator)
    residual = field.sub(field.mul(derivative, derivative), field.eval_poly(p, value))
    return field.is_zero(residual), field.render(residual)


def _with(witness, expression=None, rate=None, square=None):
    """The witness with its expression, its generator's rate or its lam^2
    replaced."""
    generator = witness.generators[0]
    if rate is not None:
        generator = Generator(generator.name, generator.kind, rate)
    ext = witness.quad_ext
    if square is not None:
        ext = QuadExtension(ext.symbol, square)
    return TowerWitness((generator,), ext, expression or witness.expression,
                        witness.relation)


def _bumped(rng, value, power=1):
    """A QuadValue with k*gen^power, k a nonzero constant, added to one of
    its components."""
    bump = rand_fraction(rng, nonzero=True) * RatFunc.gen(value.base.var) ** power
    if value.lam_part.is_zero() or rng.random() < 0.5:
        return QuadValue(value.base + bump, value.lam_part)
    return QuadValue(value.base, value.lam_part + bump)


def _constant_root_witness(rng):
    """A passing witness for P of degree 5 to 7: y is a constant root of P,
    rational or lam with lam^2 = c, over either generator kind."""
    cofactor = rand_poly(rng, "y", max_deg=5, span=5, nonzero=True)
    while cofactor.degree() < 4:
        cofactor = cofactor * Poly("y", (rand_fraction(rng, 3), 1))
    name, kind = rng.choice((("t", ANTIDERIVATIVE), ("v", EXPONENTIAL)))
    if rng.random() < 0.5:
        root = rand_fraction(rng, 4)
        p, ext = Poly("y", (-root, 1)) * cofactor, None
        expression = QuadValue.constant(name, root)
        rate = QuadValue.constant(name, rand_fraction(rng, nonzero=True))
    else:
        square = rng.choice((fr(2), fr(-1), fr(3, 5), fr(-7, 2)))
        p, ext = Poly("y", (-square, 0, 1)) * cofactor, QuadExtension("lam", square)
        expression = QuadValue.constant(name, 0, 1)
        rate = QuadValue.constant(name, rand_fraction(rng), rand_fraction(rng, nonzero=True))
    generator = Generator(name, kind, rate if kind == EXPONENTIAL else None)
    return p, TowerWitness((generator,), ext, expression, "constant root")


def _random_witness(rng):
    """An arbitrary witness over either generator kind, with or without an
    extension: almost always failing."""
    name, kind = rng.choice((("t", ANTIDERIVATIVE), ("v", EXPONENTIAL)))
    ext = rng.choice((None, QuadExtension("lam", fr(-3)), QuadExtension("lam", fr(5, 2))))
    lam = rand_ratfunc(rng, name, max_deg=2) if ext else RatFunc.zero(name)
    expression = QuadValue(rand_ratfunc(rng, name, max_deg=2), lam)
    rate = QuadValue.constant(name, rand_fraction(rng), rand_fraction(rng) if ext else 0)
    generator = Generator(name, kind, rate if kind == EXPONENTIAL else None)
    p = rand_poly(rng, "y", max_deg=rng.choice((2, 4, 6)), span=4, nonzero=True)
    return p, TowerWitness((generator,), ext, expression, "random")


class TestSquareCheckAgainstNormalised:
    """The square check compares cleared polynomials N^2 D^(e-4) and
    sum p_k Y^k D^(e-k), e = max(4, deg P): it passes exactly when the
    normalised residual is zero and renders that residual on a failure."""

    def _assert_matches(self, p, witness):
        report = verify_square_witness(p, witness)
        assert (report.passed, report.residual) == _normalised_square_check(p, witness)
        return report.passed

    def _perturbations(self, rng, p, witness):
        yield _with(witness, expression=_bumped(rng, witness.expression))
        rate = witness.generators[0].rate
        if rate is not None:
            yield _with(witness, rate=_bumped(rng, rate, power=0))
        if witness.quad_ext is not None:
            square = witness.quad_ext.square + rng.choice((1, 2, fr(1, 3)))
            if square != 0 and not is_rational_square(square):
                yield _with(witness, square=square)

    def test_constructions_and_their_perturbations(self):
        rng = random.Random(211)
        kinds, failed = {}, 0
        for _ in range(150):
            p = rand_poly(rng, "y", max_deg=2, span=6, nonzero=True)
            verdict = decide_square(p)
            if verdict.witness is None:
                continue
            witness = verdict.witness
            kind = (p.degree(), witness.generators[0].kind, witness.quad_ext is not None)
            kinds[kind] = kinds.get(kind, 0) + 1
            assert self._assert_matches(p, witness)
            for mutated in self._perturbations(rng, p, witness):
                failed += not self._assert_matches(p, mutated)
        assert failed >= 250
        # constant (rational and lam), linear, quadratic (rational rate and lam)
        assert set(kinds) == {(0, ANTIDERIVATIVE, False), (0, ANTIDERIVATIVE, True),
                              (1, ANTIDERIVATIVE, False), (2, EXPONENTIAL, False),
                              (2, EXPONENTIAL, True)}

    def test_degree_above_four(self):
        rng = random.Random(223)
        failed = 0
        for _ in range(60):
            p, witness = _constant_root_witness(rng)
            assert p.degree() > 4
            assert self._assert_matches(p, witness)
            for mutated in self._perturbations(rng, p, witness):
                failed += not self._assert_matches(p, mutated)
            bumped = p + rand_fraction(rng, nonzero=True)
            failed += not self._assert_matches(bumped, witness)
        assert failed >= 140

    def test_random_witnesses(self):
        rng = random.Random(227)
        for _ in range(150):
            self._assert_matches(*_random_witness(rng))

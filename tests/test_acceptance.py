"""Acceptance gate: every criterion the package must meet, one test each.

Each test prints a single PASS line on success (run with ``pytest -v -s`` to
see them); every expected value is exact, never approximate.  The randomized
suites run at least 1000 cases apiece with fixed seeds.
"""

import io
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import jsonschema

from liouvillian import cli
from liouvillian.algebra import (Poly, RatFunc, ResourceLimitError,
                                 is_squarefree, rational_roots)
from liouvillian.decision import (decide_abel, decide_autonomous,
                                  decide_square, degree_bound_check)
from liouvillian.parser import parse_expression as pe, parse_polynomial as pp
from liouvillian.reduction import (hermite_reduce, ratio_resultant,
                                   residue_resultant)
from liouvillian.verify import verify_autonomous_witness, verify_square_witness

from helpers import (brute_residues, check_leibniz, fraction_from_residues,
                     invert_variable,
                     rand_fraction, rand_poly, rand_ratfunc,
                     split_proper_fraction)

GOLDEN = Path(__file__).parent / "golden"
SCHEMA = json.loads(
    (Path(__file__).parent.parent / "schema" / "report.schema.json").read_text())


def announce(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE PASS - {criterion}: {detail}")


def timed_decide(fn, arg, budget=1.0):
    start = time.perf_counter()
    verdict = fn(arg)
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"decision took {elapsed:.2f}s (budget {budget}s)"
    return verdict


# -- criterion 1: autonomous equations --------------------------------------


def test_criterion_1_autonomous_suite():
    liouvillian_cases = ["y^2", "y", "y^2+1", "y^2+y", "1/y"]
    for text in liouvillian_cases:
        rhs = pe(text, "y")
        verdict = timed_decide(decide_autonomous, rhs)
        assert verdict.status == "liouvillian", text
        if verdict.witness is not None:
            report = verify_autonomous_witness(rhs, verdict.branch,
                                               verdict.witness, verdict.scale)
            assert report.passed and report.residual == "0", text
    for text in ["y^3+y^2", "y^2*(y+1)"]:
        verdict = timed_decide(decide_autonomous, pe(text, "y"))
        assert verdict.status == "not_liouvillian", text
        assert verdict.failure_reasons
    announce("criterion 1", "autonomous verdicts and exact witness residuals")


def test_criterion_1_commensurable_cubic_is_solvable():
    """y' = y^3 - y is solvable by quadrature: 1/(y^3 - y) has residues
    -1, 1/2, 1/2 at y = 0, 1, -1, whose pairwise ratios are rational, and
    z = (y^2 - 1)/y^2 satisfies dz/dy = 2 * z / (y^3 - y) exactly.  The
    emitted witness is re-verified here with zero residual."""
    rhs = pe("y^3 - y", "y")
    verdict = timed_decide(decide_autonomous, rhs)
    assert verdict.status == "liouvillian"
    assert verdict.branch == "log_derivative"
    assert verdict.scale == 2
    assert verdict.witness == pe("(y^2-1)/y^2", "y")
    report = verify_autonomous_witness(rhs, verdict.branch, verdict.witness,
                                       verdict.scale)
    assert report.passed and report.residual == "0"
    announce("criterion 1 (addendum)",
             "y^3 - y carries an exactly verified scaled-log witness")


# -- criterion 2: squared equations, impossibility side ----------------------


def test_criterion_2_elliptic_impossibility():
    y = Poly.gen("y")
    for a, b in ((1, 1), (-1, 0), (0, 1)):
        assert Fraction(a) ** 3 / 27 + Fraction(b) ** 2 / 4 != 0
        verdict = timed_decide(decide_square, y**3 + a * y + b)
        assert verdict.status == "not_liouvillian", (a, b)
    rng = random.Random(211)
    produced = 0
    while produced < 10:
        degree = rng.choice((3, 4, 5))
        p = Poly("y", [rand_fraction(rng, span=5) for _ in range(degree)] + [1])
        if p.degree() != degree or not is_squarefree(p):
            continue
        verdict = timed_decide(decide_square, p)
        assert verdict.status == "not_liouvillian", p
        produced += 1
    announce("criterion 2", "cubic/quartic/quintic squarefree impossibility")


# -- criterion 3: squared equations, constructive side -----------------------


def test_criterion_3_degenerate_square_cases():
    linear = pp("2*y + 3", "y")
    verdict = decide_square(linear)
    assert verdict.status == "liouvillian"
    report = verify_square_witness(linear, verdict.witness)
    assert report.passed and report.residual == "0"

    circle = pp("1 - y^2", "y")
    verdict = decide_square(circle)
    assert verdict.status == "liouvillian"
    assert verdict.witness.quad_ext.square == Fraction(-1)
    report = verify_square_witness(circle, verdict.witness)
    assert report.passed and report.residual == "0"

    assert decide_square(pp("y^3", "y")).status == "inapplicable"
    announce("criterion 3", "explicit tower witnesses verify with zero residual")


# -- criterion 4: the scaled equation family over Q(x) ------------------------


def test_criterion_4_abel_examples():
    verdict = decide_abel([pe("1/x", "x"), pe("1/x^2", "x"), pe("1/x^3", "x")])
    assert verdict.status == "algebraic_only"
    assert verdict.gamma == pe("x", "x")
    assert verdict.scaled_coeffs == (RatFunc.zero("x"), pe("1/x", "x"),
                                     pe("1/x", "x"))
    assert decide_abel([RatFunc.zero("x"), pe("1/x", "x"),
                        pe("1/x", "x")]).status == "algebraic_only"
    assert decide_abel([RatFunc.zero("x"), pe("1", "x"),
                        pe("1/x", "x")]).status == "inconclusive"
    announce("criterion 4", "coefficient scaling and algebraic-only verdicts")


# -- criterion 5: degree bound ------------------------------------------------


def test_criterion_5_degree_bound():
    rng = random.Random(223)
    for degree in range(1, 7):
        coeffs = [rand_ratfunc(rng, "x", max_deg=2, span=3) for _ in range(degree)]
        coeffs.append(RatFunc.const("x", 1))
        verdict = degree_bound_check(coeffs)
        expected = ("no_solution_in_antiderivative_towers" if degree >= 3
                    else "inconclusive")
        assert verdict.status == expected, degree
    riccati = [RatFunc.zero("x"), RatFunc.zero("x"), -pe("1/(x^2+1)", "x")]
    assert degree_bound_check(riccati).status == "inconclusive"
    announce("criterion 5", "degree >= 3 excludes antiderivative towers; "
                            "the quadratic case stays open")


# -- criterion 6: randomized property suites (>= 1000 cases each) ------------


def test_criterion_6a_leibniz_rule():
    rng = random.Random(301)
    for _ in range(1000):
        f = rand_ratfunc(rng, "y", max_deg=2, span=4)
        g = rand_ratfunc(rng, "y", max_deg=2, span=4)
        assert check_leibniz(f, g).passed
    announce("criterion 6a", "Leibniz rule on 1000 random pairs")


def test_criterion_6b_hermite_reconstruction():
    rng = random.Random(307)
    for _ in range(1000):
        den = rand_poly(rng, "y", max_deg=2, span=3, nonzero=True)
        den = den * rand_poly(rng, "y", max_deg=1, span=3, nonzero=True) ** rng.randint(1, 3)
        f = RatFunc(rand_poly(rng, "y", max_deg=4, span=3), den)
        parts = hermite_reduce(f)
        assert RatFunc(parts.poly_part) + parts.exact_part.diff() + parts.remainder == f
        if not parts.remainder.is_zero():
            assert is_squarefree(parts.remainder.den)
    announce("criterion 6b", "Hermite reconstruction on 1000 random fractions")


def test_criterion_6c_residue_oracle():
    rng = random.Random(311)
    for _ in range(1000):
        h, poles = split_proper_fraction(rng, "y", rng.randint(1, 3))
        s = residue_resultant(h)
        roots, rest = rational_roots(s)
        assert rest.is_constant()
        assert {r for r, _ in roots} == brute_residues(h, poles)
    announce("criterion 6c", "residue resultant matches brute force on "
                             "1000 split denominators")


def test_criterion_6d_ratio_oracle():
    rng = random.Random(313)
    for _ in range(1000):
        h, by_pole = fraction_from_residues(rng, "y", rng.randint(2, 3))
        s = residue_resultant(h)
        residues = set(by_pole.values())
        expected = {a / b for a in residues for b in residues}
        roots, rest = rational_roots(ratio_resultant(s))
        assert rest.is_constant()
        assert {r for r, _ in roots} == expected
    announce("criterion 6d", "ratio polynomial matches brute-force residue "
                             "ratios on 1000 split cases")


def _autonomous_pool(rng, count):
    pool = []
    while len(pool) < count:
        dice = rng.random()
        if dice < 0.35:
            h, _ = fraction_from_residues(rng, "y", rng.randint(1, 3),
                                          residue_span=2, residue_den=2)
            pool.append(h.inverse())
        elif dice < 0.55:
            g = rand_ratfunc(rng, "y", max_deg=2, span=2)
            if g.diff().is_zero():
                continue
            pool.append(g.diff().inverse())
        else:
            pool.append(rand_ratfunc(rng, "y", max_deg=2, span=3, nonzero=True))
    return pool


def _status_or_abort(rhs):
    try:
        return decide_autonomous(rhs).status
    except ResourceLimitError:
        return None


def test_criterion_6e_autonomous_invariances():
    rng = random.Random(317)
    aborted = 0
    for rhs in _autonomous_pool(rng, 1000):
        base = _status_or_abort(rhs)
        scaled = _status_or_abort(rand_fraction(rng, span=4, nonzero=True) * rhs)
        flipped = _status_or_abort(invert_variable(rhs))
        if None in (base, scaled, flipped):
            aborted += 1
            continue
        assert base == scaled
        assert base == flipped
    assert aborted <= 20  # witness-size aborts must stay exceptional
    announce("criterion 6e", "scaling and inversion invariance on 1000 "
                             f"equations ({aborted} resource aborts)")


def _mutations(values, rng):
    index = rng.randrange(len(values))
    bump = rand_fraction(rng, span=3, nonzero=True)
    out = list(values)
    out[index] += bump
    return out, index


def test_criterion_6f_witness_round_trip():
    rng = random.Random(331)
    emitted = 0
    mutations_checked = 0
    while emitted < 700:
        rhs = _autonomous_pool(rng, 1)[0]
        try:
            verdict = decide_autonomous(rhs)
        except ResourceLimitError:
            continue
        if verdict.witness is None:
            continue
        emitted += 1
        z = verdict.witness
        assert verify_autonomous_witness(rhs, verdict.branch, z,
                                         verdict.scale).passed
        for _ in range(2):
            coeffs, _ = _mutations(list(z.num.coeffs) or [Fraction(0)], rng)
            mutated = RatFunc(Poly("y", coeffs), z.den)
            if mutated.is_zero():
                continue
            if verdict.branch == "log_derivative" and (mutated / z).is_constant():
                continue  # constant multiples stay witnesses
            if verdict.branch == "antiderivative" and (mutated - z).is_constant():
                continue  # constant shifts stay witnesses
            assert not verify_autonomous_witness(rhs, verdict.branch, mutated,
                                                 verdict.scale).passed
            mutations_checked += 1
    square_emitted = 0
    while square_emitted < 300:
        p = rand_poly(rng, "y", max_deg=2, span=4, nonzero=True)
        if p.degree() == 2 and not is_squarefree(p):
            continue
        verdict = decide_square(p)
        assert verdict.status == "liouvillian"
        witness = verdict.witness
        assert verify_square_witness(p, witness).passed
        square_emitted += 1
        base = witness.expression.base
        if base.is_zero():
            continue  # pure lam*t constant witnesses mutate in the lam part
        coeffs, index = _mutations(list(base.num.coeffs), rng)
        if p.degree() == 0:
            # constant targets ignore shifts of y, and flipping the slope's
            # sign flips the generator: both remain witnesses
            if index == 0 or coeffs[index] == -base.num.coeffs[index]:
                continue
        mutated_expr = type(witness.expression)(RatFunc(Poly(base.var, coeffs),
                                                        base.den),
                                                witness.expression.lam_part)
        mutated = type(witness)(witness.generators, witness.quad_ext,
                                mutated_expr, witness.relation)
        assert not verify_square_witness(p, mutated).passed
        mutations_checked += 1
    assert mutations_checked >= 1000
    announce("criterion 6f", f"{emitted + square_emitted} emitted witnesses "
                             f"verified; {mutations_checked} mutations rejected")


# -- criterion 7: CLI contract ------------------------------------------------


def _run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    code = cli.run(argv, stdout=out, stderr=err)
    return code, out.getvalue()


def test_criterion_7_cli_contract(monkeypatch, tmp_path):
    golden_cases = [
        ("autonomous_y2", ["autonomous", "y^2"], 0),
        ("square_elliptic", ["square", "y^3 + y + 1"], 0),
        ("abel_example", ["abel", "--coeffs", "1/x;1/x^2;1/x^3"], 0),
        ("autonomous_zero", ["autonomous", "0"], 2),
    ]
    for name, argv, expected_code in golden_cases:
        code, payload = _run_cli(argv + ["--json"])
        assert code == expected_code
        assert payload == (GOLDEN / f"{name}.json").read_text()
        jsonschema.validate(json.loads(payload), SCHEMA)
        code, text = _run_cli(argv)
        assert code == expected_code
        assert text == (GOLDEN / f"{name}.txt").read_text()

    # exit-code matrix: 0 verdict, 1 parse, 2 precondition, 3 internal
    assert _run_cli(["autonomous", "y^2"])[0] == 0
    assert _run_cli(["autonomous", "y $"])[0] == 1
    assert _run_cli(["autonomous", "0"])[0] == 2
    from liouvillian.decision import AutonomousVerdict
    bogus = AutonomousVerdict("liouvillian", "antiderivative",
                              witness=pe("1/y", "y"))
    monkeypatch.setattr(cli, "decide_autonomous", lambda rhs: bogus)
    assert _run_cli(["autonomous", "y^2", "--verify"])[0] == 3
    monkeypatch.undo()

    # batch: counts, per-line errors, streaming JSON
    path = tmp_path / "batch.txt"
    path.write_text("# comment\ny^2\nbad $ line\ny^3+y^2\n")
    code, payload = _run_cli(["autonomous", "--input", str(path), "--json"])
    lines = [json.loads(line) for line in payload.splitlines()]
    assert len(lines) == 3 and code == 1
    for report in lines:
        jsonschema.validate(report, SCHEMA)
    announce("criterion 7", "golden outputs, schema conformance, exit codes")

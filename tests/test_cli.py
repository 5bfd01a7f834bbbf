"""CLI contract: golden outputs, JSON schema conformance, exit codes, batch."""

import io
import json
import sys
from pathlib import Path

import jsonschema
import pytest

from liouvillian import cli, parser, reduction, verify
from liouvillian.algebra import Poly, RatFunc
from liouvillian.decision import AutonomousVerdict
from liouvillian.parser import (MAX_COEFFICIENT_DIGITS, MAX_DEGREE, MAX_EXPONENT,
                                MAX_LITERAL_DIGITS, parse_expression as pe)
from liouvillian.reduction import ratio_resultant

GOLDEN = Path(__file__).parent / "golden"
SCHEMA = json.loads(
    (Path(__file__).parent.parent / "schema" / "report.schema.json").read_text())


def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    code = cli.run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def validate_lines(payload: str):
    reports = [json.loads(line) for line in payload.splitlines() if line]
    for report in reports:
        jsonschema.validate(report, SCHEMA)
    return reports


class TestGolden:
    @pytest.mark.parametrize("name,argv,code", [
        ("autonomous_y2", ["autonomous", "y^2"], 0),
        ("square_elliptic", ["square", "y^3 + y + 1"], 0),
        ("abel_example", ["abel", "--coeffs", "1/x;1/x^2;1/x^3"], 0),
        ("autonomous_zero", ["autonomous", "0"], 2),
    ])
    def test_both_modes(self, name, argv, code):
        got_code, got_json, _ = run_cli(argv + ["--json"])
        assert got_code == code
        assert got_json == (GOLDEN / f"{name}.json").read_text()
        got_code, got_text, _ = run_cli(argv)
        assert got_code == code
        assert got_text == (GOLDEN / f"{name}.txt").read_text()

    def test_key_fields_in_pure_square_report(self):
        _, payload, _ = run_cli(["autonomous", "y^2", "--json"])
        report = json.loads(payload)
        assert report["status"] == "liouvillian"
        assert report["branch"] == "antiderivative"
        assert report["witness"]["z"] == "-1/y"

    def test_determinism(self):
        first = run_cli(["autonomous", "y^2+y", "--json", "--verify"])
        second = run_cli(["autonomous", "y^2+y", "--json", "--verify"])
        assert first == second


class TestSchema:
    @pytest.mark.parametrize("argv", [
        ["autonomous", "y^2", "--json"],
        ["autonomous", "y^2+1", "--json", "--verify"],
        ["autonomous", "y^3+y^2", "--json"],
        ["autonomous", "y^3-y", "--json", "--verify"],
        ["autonomous", "0", "--json"],
        ["autonomous", "y $", "--json"],
        ["square", "y^3 + y + 1", "--json"],
        ["square", "1 - y^2", "--json", "--verify"],
        ["square", "2*y + 3", "--json", "--verify"],
        ["square", "5", "--json"],
        ["square", "y^3", "--json"],
        ["abel", "--coeffs", "1/x;1/x^2;1/x^3", "--json"],
        ["abel", "--coeffs", "0;1;1/x", "--json"],
        ["abel", "--coeffs", "1/(2*x);1/x^2;1/x^3", "--json"],
        ["degbound", "y^3 + x*y", "--coeff-field", "qx", "--json"],
        ["degbound", "y^2", "--json"],
        ["antider", "1/x^2", "--json", "--verify"],
        ["antider", "1/x", "--json"],
        ["logderiv", "1/x", "--json", "--verify"],
        ["logderiv", "1/(2*x)", "--json"],
        ["logderiv", "x", "--json"],
    ])
    def test_reports_conform(self, argv):
        _, payload, _ = run_cli(argv)
        reports = validate_lines(payload)
        assert len(reports) == 1

    def test_status_vocabulary(self):
        allowed = set(SCHEMA["properties"]["status"]["enum"])
        cases = [["autonomous", "y^2"], ["square", "y^3"], ["autonomous", "0"],
                 ["abel", "--coeffs", "0;1/x"], ["degbound", "y^3+x*y",
                 "--coeff-field", "qx"], ["antider", "1/x"], ["logderiv", "1/(2*x)"]]
        for argv in cases:
            _, payload, _ = run_cli(argv + ["--json"])
            assert json.loads(payload)["status"] in allowed


class TestExitCodes:
    def test_parse_error_is_one(self):
        code, payload, _ = run_cli(["autonomous", "y $ 2", "--json"])
        assert code == 1
        assert json.loads(payload)["status"] == "error"

    def test_wrong_variable_is_one(self):
        code, _, _ = run_cli(["autonomous", "x^2", "--json"])
        assert code == 1

    def test_precondition_is_two(self):
        assert run_cli(["autonomous", "0"])[0] == 2
        assert run_cli(["square", "0"])[0] == 2
        assert run_cli(["abel", "--coeffs", "1/x"])[0] == 2
        assert run_cli(["degbound", "0"])[0] == 2

    @pytest.mark.parametrize("procedure", ["autonomous", "square", "degbound",
                                           "degbound --coeff-field qx"])
    def test_exponent_over_the_bound_is_two(self, procedure, monkeypatch):
        def no_power(*args):
            raise AssertionError("a power was formed")

        monkeypatch.setattr(RatFunc, "__pow__", no_power)
        monkeypatch.setattr(Poly, "__pow__", no_power)
        # the product kernel of the two-variable power loop
        monkeypatch.setattr(parser, "_int_mul", no_power)
        literal = MAX_EXPONENT + 1
        code, payload, _ = run_cli([*procedure.split(), f"y^{literal} + 1", "--json"])
        assert code == 2
        (report,) = validate_lines(payload)
        assert report["status"] == "error"
        assert report["error"] == (
            f"resource limit: exponent literal {literal} at offset 2 exceeds "
            f"the bound MAX_EXPONENT = {MAX_EXPONENT} (stage: parse)")

    def test_long_integer_literal_is_two(self):
        code, payload, _ = run_cli(["autonomous", "y + " + "9" * 5000, "--json"])
        assert code == 2
        (report,) = validate_lines(payload)
        assert report["status"] == "error"
        assert report["error"] == (
            f"resource limit: integer literal at offset 4 has 5000 digits, above "
            f"the bound MAX_LITERAL_DIGITS = {MAX_LITERAL_DIGITS} (stage: parse)")

    @pytest.mark.parametrize("text,error", [
        ("(y+" + "9" * 4000 + ")^2",
         "subexpression at offset 4004 has coefficients of up to 26577 bits, more "
         f"than the bound MAX_COEFFICIENT_DIGITS = {MAX_COEFFICIENT_DIGITS} decimal digits"),
        ("(y+1)^1000",
         f"subexpression at offset 5 has degree 1000, above the bound MAX_DEGREE = {MAX_DEGREE}"),
    ])
    def test_parsed_size_over_the_budget_is_two(self, text, error, monkeypatch):
        def no_power(*args):
            raise AssertionError("a power was formed")

        monkeypatch.setattr(RatFunc, "__pow__", no_power)
        monkeypatch.setattr(Poly, "__pow__", no_power)
        # the product kernel of the power loop
        monkeypatch.setattr(parser, "_int_mul", no_power)
        code, payload, _ = run_cli(["autonomous", text, "--json"])
        assert code == 2
        (report,) = validate_lines(payload)
        assert report["status"] == "error"
        assert report["error"] == f"resource limit: {error} (stage: parse)"

    @pytest.mark.parametrize("text,error", [
        ("(x^2+3/7*x+y)^200",
         f"subexpression at offset 13 has degree 400, above the bound MAX_DEGREE = {MAX_DEGREE}"),
        ("(x+1)^1000*y^3",
         f"subexpression at offset 5 has degree 1000, above the bound MAX_DEGREE = {MAX_DEGREE}"),
    ])
    def test_two_variable_size_over_the_budget_is_two(self, text, error, monkeypatch):
        products = []
        multiply = parser._bi_mul
        monkeypatch.setattr(parser, "_bi_mul",
                            lambda *args: products.append(args) or multiply(*args))
        code, payload, _ = run_cli(["degbound", text, "--coeff-field", "qx", "--json"])
        # the small powers and products inside the base, never the large power
        assert len(products) <= 3
        assert code == 2
        (report,) = validate_lines(payload)
        assert report["status"] == "error"
        assert report["error"] == f"resource limit: {error} (stage: parse)"

    def test_two_variable_power_is_measured_once_formed(self):
        # each Q(x) coefficient of the base has degree 5, so the prediction,
        # 7*5, is within the bound; the y^7 coefficient of the power has
        # denominator (x-1)^15*(x-2)^35*(x-3)^15
        text = "(1/(x-1)^5 + y/(x-2)^5 + y^2/(x-3)^5)^7"
        code, payload, _ = run_cli(["degbound", text, "--coeff-field", "qx", "--json"])
        assert code == 2
        (report,) = validate_lines(payload)
        assert report["error"] == (
            f"resource limit: subexpression at offset 37 has degree 65, above the "
            f"bound MAX_DEGREE = {MAX_DEGREE} (stage: parse)")

    @pytest.mark.parametrize("text,reduced", [
        # the unreduced base coefficient has degree 40, its square 80
        ("((x+1)^40/(x+1)^39*y)^2", RatFunc(Poly("x", (1, 1)))),
        # the cheap bound on the square is about 26.6k bits; the base is x*y
        ("(1" + "0" * 4000 + "*x*y/1" + "0" * 4000 + ")^2", RatFunc.gen("x")),
    ], ids=["degree", "bits"])
    def test_two_variable_value_reduced_when_the_cheap_bound_fails(
            self, text, reduced, monkeypatch):
        measured = []
        check = parser._check_size
        monkeypatch.setattr(parser, "_check_size",
                            lambda f, *args: measured.append(f) or check(f, *args))
        code, payload, _ = run_cli(["degbound", text, "--coeff-field", "qx", "--json"])
        assert code == 0
        (report,) = validate_lines(payload)
        assert report["status"] == "inconclusive"
        assert report["details"]["degree"] == 2
        # the base was reduced and measured exactly, and then passed
        assert reduced in measured

    def test_failed_check_without_verify_is_three(self, monkeypatch):
        failed = verify.VerificationReport("(y')^2 = 1 - y^2 with y = ...", False, "1")
        monkeypatch.setattr(cli, "verify_square_witness", lambda p, w: failed)
        code, payload, _ = run_cli(["square", "1 - y^2", "--json"])
        assert code == 3
        (report,) = validate_lines(payload)
        assert report["status"] == "error"
        assert report["error"] == (
            "internal inconsistency: witness failed verification: "
            "(y')^2 = 1 - y^2 with y = ... (residual 1)")

    def test_missing_argument_is_one(self):
        code, _, err = run_cli(["autonomous"])
        assert code == 1 and "required" in err

    def test_empty_abel_coefficient_is_one(self):
        code, payload, _ = run_cli(["abel", "--coeffs", "1/x;;1/x", "--json"])
        assert code == 1
        assert "empty coefficient" in json.loads(payload)["error"]

    @pytest.mark.parametrize("coeffs,code,error", [
        ("1/x;1/(x", 1, "expected ')' (at offset 8)"),
        ("1/x; y", 1, "unknown variable 'y' (expected 'x') (at offset 5)"),
        ("1/x; (x+1)^1001", 2, "resource limit: exponent literal 1001 at offset 11 "
                               "exceeds the bound MAX_EXPONENT = 1000 (stage: parse)"),
        ("1/x;1;", 1, "empty coefficient in list (at offset 6)"),
    ])
    def test_abel_offsets_count_from_the_start_of_the_line(self, coeffs, code, error):
        got_code, payload, _ = run_cli(["abel", "--coeffs", coeffs, "--json"])
        assert got_code == code
        assert validate_lines(payload)[0]["error"] == error

    def test_superscript_digit_is_an_illegal_character(self):
        code, payload, _ = run_cli(["autonomous", "y^\u00b2", "--json"])
        assert code == 1
        assert validate_lines(payload)[0]["error"] == "illegal character '\u00b2' (at offset 2)"

    def test_input_and_inline_conflict_is_one(self, tmp_path):
        path = tmp_path / "eqs.txt"
        path.write_text("y^2\n")
        code, _, err = run_cli(["autonomous", "y", "--input", str(path)])
        assert code == 1 and "mutually exclusive" in err

    def test_unknown_subcommand_is_one(self):
        assert run_cli(["spectral", "y"])[0] == 1

    def test_missing_file_is_one(self):
        assert run_cli(["autonomous", "--input", "/nonexistent/file"])[0] == 1

    def test_internal_inconsistency_is_three(self, monkeypatch):
        bogus = AutonomousVerdict("liouvillian", "antiderivative",
                                  witness=pe("1/y", "y"))
        monkeypatch.setattr(cli, "decide_autonomous", lambda rhs: bogus)
        code, payload, _ = run_cli(["autonomous", "y^2", "--json", "--verify"])
        assert code == 3
        report = json.loads(payload)
        assert report["verification"]["passed"] is False

    def test_internal_error_status_is_three(self, monkeypatch):
        from liouvillian.algebra import InternalInconsistencyError

        def boom(rhs):
            raise InternalInconsistencyError("witness recheck failed")

        monkeypatch.setattr(cli, "decide_autonomous", boom)
        code, payload, _ = run_cli(["autonomous", "y^2", "--json"])
        assert code == 3
        assert "internal" in json.loads(payload)["error"]

    def test_unexpected_exception_is_three(self, monkeypatch):
        def boom(rhs):
            raise RuntimeError("unexpected")

        monkeypatch.setattr(cli, "decide_autonomous", boom)
        code, payload, _ = run_cli(["autonomous", "y^2", "--json"])
        assert code == 3
        (report,) = validate_lines(payload)
        assert report["status"] == "error"
        assert report["error"] == "internal error: RuntimeError: unexpected"


class TestBatch:
    def test_mixed_file(self, tmp_path):
        path = tmp_path / "batch.txt"
        path.write_text(
            "# autonomous equations, one per line\n"
            "y^2\n"
            "\n"
            "y^3+y^2\n"
            "y $ broken\n"
            "y^2+1\n")
        code, payload, _ = run_cli(["autonomous", "--input", str(path), "--json"])
        reports = validate_lines(payload)
        assert len(reports) == 4  # blank and comment lines are skipped
        assert [r["status"] for r in reports] == [
            "liouvillian", "not_liouvillian", "error", "liouvillian"]
        assert code == 1  # one malformed line

    def test_too_deep_line_is_a_parse_error(self, tmp_path):
        path = tmp_path / "batch.txt"
        path.write_text("y^2\n" + "(" * 3000 + "y" + ")" * 3000 + "\ny\n")
        code, payload, _ = run_cli(["autonomous", "--input", str(path), "--json"])
        reports = validate_lines(payload)
        assert [r["status"] for r in reports] == ["liouvillian", "error", "liouvillian"]
        assert "nested deeper" in reports[1]["error"]
        assert "offset 100" in reports[1]["error"]
        assert code == 1

    def test_internal_error_keeps_the_batch_going(self, tmp_path, monkeypatch):
        real = cli.decide_autonomous

        def flaky(rhs):
            if rhs == pe("y^3", "y"):
                raise RuntimeError("unexpected")
            return real(rhs)

        monkeypatch.setattr(cli, "decide_autonomous", flaky)
        path = tmp_path / "batch.txt"
        path.write_text("y^2\ny^3\ny\n")
        code, payload, _ = run_cli(["autonomous", "--input", str(path), "--json"])
        reports = validate_lines(payload)
        assert [r["status"] for r in reports] == ["liouvillian", "error", "liouvillian"]
        assert "RuntimeError" in reports[1]["error"]
        assert code == 3

    def test_clean_file_exits_zero(self, tmp_path):
        path = tmp_path / "batch.txt"
        path.write_text("y^2\ny\n1/y\n")
        code, payload, _ = run_cli(["autonomous", "--input", str(path), "--json"])
        assert code == 0
        assert len(validate_lines(payload)) == 3

    def test_abel_batch(self, tmp_path):
        path = tmp_path / "batch.txt"
        path.write_text("1/x;1/x^2;1/x^3\n0;1;1/x\n")
        code, payload, _ = run_cli(["abel", "--input", str(path), "--json"])
        assert code == 0
        statuses = [r["status"] for r in validate_lines(payload)]
        assert statuses == ["algebraic_only", "inconclusive"]


CHECKS = ("verify_autonomous_witness", "verify_square_witness",
          "verify_antiderivative", "verify_log_derivative")


class TestSingleCheck:
    """Every emitted witness is checked exactly once, with or without --verify."""

    @pytest.mark.parametrize("want_verify", [False, True])
    @pytest.mark.parametrize("procedure,lines,expected", [
        # antiderivative branch, log branch, certificate only, not liouvillian
        ("autonomous", ["y^2", "y^2+y", "y^2+1", "y^3+y^2"],
         {"verify_autonomous_witness": 2}),
        # constant, linear and quadratic witnesses; degree 3 has none
        ("square", ["5", "2*y + 3", "1 - y^2", "y^3 + y + 1"],
         {"verify_square_witness": 3}),
        ("antider", ["1/x^2", "1/x"], {"verify_antiderivative": 1}),
        # gamma in Q(x); gamma only algebraic; no gamma
        ("logderiv", ["1/x", "1/(2*x)", "x"], {"verify_log_derivative": 1}),
    ])
    def test_one_check_per_witness_line(self, procedure, lines, expected,
                                        want_verify, monkeypatch, tmp_path):
        calls = dict.fromkeys(CHECKS, 0)
        modules = [module for name, module in sys.modules.items()
                   if name.startswith("liouvillian")]
        for name in CHECKS:
            original = getattr(verify, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            for module in modules:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        path = tmp_path / "batch.txt"
        path.write_text("\n".join(lines) + "\n")
        argv = [procedure, "--input", str(path), "--json"]
        code, payload, _ = run_cli(argv + ["--verify"] if want_verify else argv)
        assert code == 0
        reports = validate_lines(payload)
        assert calls == {**dict.fromkeys(CHECKS, 0), **expected}
        recorded = [r["verification"] is not None for r in reports]
        assert sum(recorded) == (sum(expected.values()) if want_verify else 0)


class TestRationalRootSearch:
    """Lines whose rational-root search once factored their coefficients
    and ended in a resource limit."""

    @pytest.mark.parametrize("text,status,certificate_only", [
        ("y^2 - 10000019*10000079", "liouvillian", True),
        ("y^2 - 1000003*1000033", "liouvillian", True),
        ("(y^2+1)*(y^2+2)*(y^2+3)*(y^2+5)", "not_liouvillian", False),
        ("y^3-7*y+1234567", "not_liouvillian", False),
    ])
    def test_exact_verdicts(self, text, status, certificate_only):
        code, payload, _ = run_cli(["autonomous", text, "--json", "--verify"])
        assert code == 0
        (report,) = validate_lines(payload)
        assert report["status"] == status
        assert report["witness"] is None
        if certificate_only:
            assert report["branch"] == "log_derivative"
            assert report["certificate"]["commensurable"] is True
            assert report["certificate"]["residues"] == []
        else:
            assert report["reason"].endswith("residue ratios are not all rational")

    def test_rational_residues_reach_the_witness_bound(self):
        code, payload, _ = run_cli(["autonomous", "(y-1/3)*(y-5/7)*(y+11/13)", "--json"])
        assert code == 2
        (report,) = validate_lines(payload)
        assert report["error"] == ("resource limit: explicit logarithmic witness would "
                                   "have degree 426 (supported bound 128)")


class TestRatioPolynomialOnlyWhenPrinted:
    """Commensurability is decided from S; W is built only for the
    certificate of a witness or certificate line, which prints it."""

    @pytest.mark.parametrize("text", ["y^16+y+1", "1/(1/(y^2-2) + 1/(y^2-3))"])
    def test_no_line_never_builds_w(self, text, monkeypatch):
        def refuse(_):
            raise AssertionError("ratio polynomial built for a not_liouvillian line")
        monkeypatch.setattr(reduction, "ratio_resultant", refuse)
        code, payload, _ = run_cli(["autonomous", text, "--json", "--verify"])
        assert code == 0
        (report,) = validate_lines(payload)
        assert report["status"] == "not_liouvillian"
        assert report["reason"].endswith("residue ratios are not all rational")

    @pytest.mark.parametrize("text,witness,ratio_poly", [
        ("y^2+y", "y/(y + 1)", "u^4 - 2*u^2 + 1"),
        ("y^2+1", None, "16*u^4 - 32*u^2 + 16"),
    ])
    def test_printed_certificate_keeps_w(self, text, witness, ratio_poly, monkeypatch):
        built = []

        def counted(s):
            built.append(s)
            return ratio_resultant(s)
        monkeypatch.setattr(reduction, "ratio_resultant", counted)
        code, payload, _ = run_cli(["autonomous", text, "--json", "--verify"])
        assert code == 0
        (report,) = validate_lines(payload)
        assert report["status"] == "liouvillian"
        assert (report["witness"] and report["witness"]["z"]) == witness
        assert report["certificate"]["ratio_poly"] == ratio_poly
        assert len(built) == 1


class TestFlags:
    def test_no_witness_suppresses_rendering(self):
        _, payload, _ = run_cli(["autonomous", "y^2", "--json", "--no-witness"])
        assert json.loads(payload)["witness"] is None

    def test_verify_reports_pass(self):
        _, payload, _ = run_cli(["square", "1 - y^2", "--json", "--verify"])
        report = json.loads(payload)
        assert report["verification"]["passed"] is True
        assert report["verification"]["residual"] == "0"

    def test_degbound_default_field_rejects_x(self):
        code, _, _ = run_cli(["degbound", "y^3 + x*y", "--json"])
        assert code == 1

    def test_tower_witness_rendering(self):
        _, payload, _ = run_cli(["square", "1 - y^2", "--json"])
        witness = json.loads(payload)["witness"]
        assert witness["quad_ext"] == {"symbol": "lam", "square": "-1"}
        assert witness["generators"][0]["kind"] == "exponential"
        assert witness["generators"][0]["rate"] == "lam"


class TestLeadingMinus:
    """An expression that begins with a minus sign is an expression, not an
    option, wherever it stands among the flags."""

    @pytest.mark.parametrize("argv, status, z", [
        (["autonomous", "-y^2", "--json"], "liouvillian", "1/y"),
        (["autonomous", "--json", "-y^2"], "liouvillian", "1/y"),
        (["antider", "-1/x^2", "--json", "--verify"], "liouvillian", "1/x"),
        (["antider", "--json", "--verify", "-1/x^2"], "liouvillian", "1/x"),
        (["square", "--json", "-y^2+1"], "liouvillian", None),
        (["logderiv", "-1/x", "--json"], "liouvillian", "1/x"),
    ])
    def test_verdict(self, argv, status, z, capsys):
        code, payload, err = run_cli(argv)
        (report,) = validate_lines(payload)
        assert code == 0 and err == ""
        assert report["status"] == status
        assert report["equation"] == next(a for a in argv[1:] if not a.startswith("--"))
        if z is not None:
            assert report["witness"]["z"] == z
        assert capsys.readouterr() == ("", "")

    def test_abel_coefficients_attached_to_the_flag(self):
        code, payload, _ = run_cli(["abel", "--coeffs=-1/x;1", "--json"])
        (report,) = validate_lines(payload)
        assert code == 0 and report["equation"] == "-1/x;1"
        assert report["details"]["gamma"] == "1/x"

    @pytest.mark.parametrize("argv", [
        ["autonomous", "--frobnicate", "y"],
        ["autonomous", "-y^2", "-y"],
        ["autonomous", "y", "-y"],
        ["abel", "-1/x;1"],
    ])
    def test_usage_errors_go_to_the_given_stderr(self, argv, capsys):
        code, payload, err = run_cli(argv)
        assert code == 1 and payload == ""
        assert "unrecognized arguments" in err
        assert capsys.readouterr() == ("", "")

    def test_help_is_not_an_expression(self, capsys):
        code, payload, _ = run_cli(["autonomous", "-h"])
        assert code == 1 and payload.startswith("usage: liouvillian autonomous")
        assert capsys.readouterr() == ("", "")

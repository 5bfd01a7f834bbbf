"""CLI contract: golden outputs, JSON schema conformance, exit codes, batch."""

import io
import json
from pathlib import Path

import jsonschema
import pytest

from liouvillian import cli
from liouvillian.algebra import Poly, RatFunc
from liouvillian.decision import AutonomousVerdict
from liouvillian.parser import MAX_EXPONENT, parse_expression as pe

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

    @pytest.mark.parametrize("procedure", ["autonomous", "square", "degbound"])
    def test_exponent_over_the_bound_is_two(self, procedure, monkeypatch):
        def no_power(*args):
            raise AssertionError("a power was formed")

        monkeypatch.setattr(RatFunc, "__pow__", no_power)
        monkeypatch.setattr(Poly, "__pow__", no_power)
        literal = MAX_EXPONENT + 1
        code, payload, _ = run_cli([procedure, f"y^{literal} + 1", "--json"])
        assert code == 2
        (report,) = validate_lines(payload)
        assert report["status"] == "error"
        assert report["error"] == (
            f"resource limit: exponent literal {literal} at offset 2 exceeds "
            f"the bound MAX_EXPONENT = {MAX_EXPONENT} (stage: parse)")

    def test_missing_argument_is_one(self):
        code, _, err = run_cli(["autonomous"])
        assert code == 1 and "required" in err

    def test_empty_abel_coefficient_is_one(self):
        code, payload, _ = run_cli(["abel", "--coeffs", "1/x;;1/x", "--json"])
        assert code == 1
        assert "empty coefficient" in json.loads(payload)["error"]

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

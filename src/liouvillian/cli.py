"""Command-line front end.

One subcommand per decision procedure::

    liouvillian autonomous "<R(y)>"        y' = R(y)
    liouvillian square     "<P(y)>"        (y')^2 = P(y)
    liouvillian abel       --coeffs "<a1>;<a2>;...;<an>"   y' = an*y^n+...+a1*y
    liouvillian degbound   "<P(y)>" [--coeff-field {q,qx}]
    liouvillian antider    "<f(x)>"        rational antiderivative over Q(x)
    liouvillian logderiv   "<f(x)>"        gamma'/gamma = f for algebraic gamma

An expression may begin with a minus sign, before or after the flags; an
``abel`` list that does is attached to its flag, ``--coeffs=-1/x;1``.

Flags: ``--json`` (one JSON object per input line), ``--verify`` (report the
one check that :mod:`liouvillian.verify` makes of every emitted witness, with
its exact residual), ``--input FILE`` (batch mode,
'#' comments and blank lines skipped), ``--witness/--no-witness`` (witness
rendering, on by default).

Exit codes: 0 verdicts produced; 1 parse or usage error (``-h`` too); 2 precondition
violation (zero right-hand side, malformed coefficient list, resource limit);
3 internal inconsistency (an emitted witness failed its check, or any
other unexpected exception — a bug, reported loudly on its own line while a
batch goes on).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from fractions import Fraction

from .algebra import (InternalInconsistencyError, Poly, RatFunc,
                      ResourceLimitError)
from .decision import (AbelVerdict, AutonomousVerdict, DegreeBoundVerdict,
                       SquareVerdict, decide_abel, decide_autonomous,
                       decide_square, degree_bound_check,
                       log_derivative_of_algebraic)
from .parser import (ParseError, parse_expression, parse_poly_over_coeff_field,
                     parse_polynomial, render, render_poly)
from .reduction import ResidueCertificate, rational_antiderivative
from .towers import TowerWitness
from .verify import (VerificationReport, render_quad_value,
                     verify_antiderivative, verify_autonomous_witness,
                     verify_log_derivative, verify_square_witness)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_PRECONDITION = 2
EXIT_INTERNAL = 3

PROCEDURES = ("autonomous", "square", "abel", "degbound", "antider", "logderiv")


# -- report rendering -------------------------------------------------------


def _frac(value: Fraction | None) -> str | None:
    return None if value is None else str(value)


def _certificate_json(cert: ResidueCertificate | None) -> dict | None:
    if cert is None:
        return None
    return {
        "residue_poly": render_poly(cert.residue_poly),
        "ratio_poly": (render_poly(cert.ratio_poly)
                       if not cert.ratio_poly.is_zero() else None),
        "residues": [{"residue": str(r), "bound_factor": render_poly(g)}
                     for r, g in cert.rational_residues],
        "commensurable": True,
        "scale": _frac(cert.scale),
    }


def _tower_witness_json(witness: TowerWitness) -> dict:
    symbol = witness.quad_ext.symbol if witness.quad_ext else "lam"
    generators = []
    for gen in witness.generators:
        generators.append({
            "name": gen.name,
            "kind": gen.kind,
            "rate": render_quad_value(gen.rate, symbol) if gen.rate else None,
        })
    return {
        "y": render_quad_value(witness.expression, symbol),
        "generators": generators,
        "quad_ext": ({"symbol": witness.quad_ext.symbol,
                      "square": str(witness.quad_ext.square)}
                     if witness.quad_ext else None),
        "relation": witness.relation,
    }


class Outcome:
    """A single report plus the exit severity it implies."""

    def __init__(self, report: dict, severity: int = EXIT_OK,
                 human: list[str] | None = None):
        self.report = report
        self.severity = severity
        self.human = human or []


def _base_report(equation: str, procedure: str, status: str) -> dict:
    return {"equation": equation, "procedure": procedure, "status": status,
            "branch": None, "reason": None, "witness": None,
            "certificate": None, "hypothesis_report": None, "details": None,
            "verification": None, "error": None}


def _checked(report: dict, human: list[str], check: VerificationReport,
             want_verify: bool) -> Outcome:
    """The one check of a line's witness; a failure is an internal error.
    ``--verify`` puts the check's record in the report."""
    if want_verify:
        report["verification"] = {"identity": check.identity,
                                  "passed": check.passed, "residual": check.residual}
        human.append(f"verified:  {'pass' if check.passed else 'FAIL'}")
    elif not check.passed:
        raise InternalInconsistencyError(f"witness failed verification: "
                                         f"{check.identity} (residual {check.residual})")
    return Outcome(report, EXIT_OK if check.passed else EXIT_INTERNAL, human)


def _autonomous_outcome(text: str, rhs: RatFunc, verdict: AutonomousVerdict,
                        want_witness: bool, want_verify: bool) -> Outcome:
    report = _base_report(text, "autonomous", verdict.status)
    report["branch"] = verdict.branch
    human = [f"equation:  y' = {text}  (autonomous)",
             f"status:    {verdict.status}",
             f"branch:    {verdict.branch}"]
    if verdict.failure_reasons:
        report["reason"] = "; ".join(verdict.failure_reasons)
        human.append("failed criteria for 1/R:")
        human.extend(f"  - {r}" for r in verdict.failure_reasons)
    if verdict.witness is not None and want_witness:
        relation = ("dz/dy * R = 1" if verdict.branch == "antiderivative"
                    else f"dz/dy * R = {verdict.scale} * z")
        report["witness"] = {"z": render(verdict.witness),
                             "scale": _frac(verdict.scale),
                             "relation": relation}
        human.append(f"witness:   z = {render(verdict.witness)}   [{relation}]")
    elif verdict.status == "liouvillian" and verdict.witness is None:
        human.append("witness:   certificate only (residues are commensurable "
                     "but irrational; no rational z exists)")
    report["certificate"] = _certificate_json(verdict.certificate)
    if verdict.certificate is not None:
        human.append(f"residues:  roots of {render_poly(verdict.certificate.residue_poly)}")
    if verdict.witness is not None:
        return _checked(report, human, verify_autonomous_witness(
            rhs, verdict.branch, verdict.witness, verdict.scale), want_verify)
    return Outcome(report, EXIT_OK, human)


def _square_outcome(text: str, poly: Poly, verdict: SquareVerdict,
                    want_witness: bool, want_verify: bool) -> Outcome:
    report = _base_report(text, "square", verdict.status)
    report["reason"] = verdict.reason
    human = [f"equation:  (y')^2 = {text}  (square)",
             f"status:    {verdict.status}",
             f"reason:    {verdict.reason}"]
    if verdict.status == "not_liouvillian":
        human.append(f"           deg P = {poly.degree()} >= 3 and P has no repeated roots")
    if verdict.witness is not None and want_witness:
        report["witness"] = _tower_witness_json(verdict.witness)
        symbol = verdict.witness.quad_ext.symbol if verdict.witness.quad_ext else "lam"
        human.append(f"witness:   y = {render_quad_value(verdict.witness.expression, symbol)}")
        for gen in verdict.witness.generators:
            rate = (f"{gen.name}' = ({render_quad_value(gen.rate, symbol)})*{gen.name}"
                    if gen.rate else f"{gen.name}' = 1")
            human.append(f"           generator {gen.name}: {rate}")
        if verdict.witness.quad_ext:
            human.append(f"           extension: {symbol}^2 = {verdict.witness.quad_ext.square}")
    if verdict.witness is not None:
        return _checked(report, human, verify_square_witness(poly, verdict.witness),
                        want_verify)
    return Outcome(report, EXIT_OK, human)


def _abel_outcome(text: str, verdict: AbelVerdict) -> Outcome:
    report = _base_report(text, "abel", verdict.status)
    report["hypothesis_report"] = [{"hypothesis": h, "result": r}
                                   for h, r in verdict.hypothesis_report]
    report["details"] = {
        "gamma": render(verdict.gamma) if verdict.gamma is not None else None,
        "scaled_coeffs": ([render(c) for c in verdict.scaled_coeffs]
                          if verdict.scaled_coeffs is not None else None),
        "part_one_fact": verdict.part_one_fact,
        "part_two_fact": verdict.part_two_fact,
    }
    human = [f"equation:  y' = sum(a_i * y^i) with [a1;a2;...] = {text}  (abel)",
             f"status:    {verdict.status}"]
    if verdict.gamma is not None:
        human.append(f"gamma:     {render(verdict.gamma)} (removes the linear term)")
    if verdict.scaled_coeffs is not None:
        human.append("scaled:    [" + "; ".join(render(c) for c in verdict.scaled_coeffs) + "]")
    human.append("hypotheses:")
    human.extend(f"  - {h}: {r}" for h, r in verdict.hypothesis_report)
    if verdict.status == "algebraic_only":
        human.append("conclusion: every liouvillian solution (constants preserved) is algebraic")
    return Outcome(report, EXIT_OK, human)


def _degbound_outcome(text: str, verdict: DegreeBoundVerdict) -> Outcome:
    report = _base_report(text, "degbound", verdict.status)
    report["details"] = {"degree": verdict.degree, "explanation": verdict.explanation}
    human = [f"equation:  y' = {text}  (degree bound)",
             f"status:    {verdict.status}",
             f"           {verdict.explanation}"]
    return Outcome(report, EXIT_OK, human)


def _antider_outcome(text: str, f: RatFunc, want_witness: bool,
                     want_verify: bool) -> Outcome:
    anti = rational_antiderivative(f)
    status = "liouvillian" if anti is not None else "inconclusive"
    report = _base_report(text, "antider", status)
    human = [f"input:     f = {text}  (antiderivative over Q(x))"]
    if anti is not None:
        report["reason"] = "rational antiderivative exists"
        if want_witness:
            report["witness"] = {"z": render(anti), "scale": None,
                                 "relation": "dz/dx = f"}
        human.append(f"status:    {status} (already solvable inside Q(x))")
        if want_witness:
            human.append(f"witness:   z = {render(anti)} with dz/dx = f")
        return _checked(report, human, verify_antiderivative(f, anti, text),
                        want_verify)
    else:
        report["reason"] = "no rational antiderivative (nonzero Hermite remainder)"
        human.append("status:    no antiderivative within Q(x); no liouvillian claim made")
    return Outcome(report, EXIT_OK, human)


def _logderiv_outcome(text: str, f: RatFunc, want_witness: bool,
                      want_verify: bool) -> Outcome:
    verdict = log_derivative_of_algebraic(f)
    status = {"rational": "liouvillian", "algebraic": "liouvillian",
              "no": "inconclusive"}[verdict.kind]
    report = _base_report(text, "logderiv", status)
    report["certificate"] = _certificate_json(verdict.certificate)
    report["details"] = {"kind": verdict.kind,
                         "gamma": (render(verdict.gamma)
                                   if verdict.gamma is not None else None)}
    human = [f"input:     f = {text}  (logarithmic derivative over Q(x))"]
    if verdict.kind == "rational":
        report["reason"] = "gamma in Q(x) with gamma'/gamma = f"
        human.append(f"status:    gamma = {render(verdict.gamma)} satisfies gamma'/gamma = f")
        if want_witness:
            report["witness"] = {"z": render(verdict.gamma), "scale": "1",
                                 "relation": "dz/dx = f * z"}
        return _checked(report, human,
                        verify_log_derivative(f, verdict.gamma, text), want_verify)
    elif verdict.kind == "algebraic":
        report["reason"] = "gamma exists but only algebraic over Q(x)"
        human.append("status:    some algebraic gamma satisfies gamma'/gamma = f, "
                     "but none inside Q(x) (non-integer rational residues)")
    else:
        report["reason"] = "; ".join(verdict.reasons)
        human.append(f"status:    no algebraic gamma exists ({report['reason']})")
    return Outcome(report, EXIT_OK, human)


# -- dispatch ---------------------------------------------------------------


def _process_line(procedure: str, text: str, args: argparse.Namespace) -> Outcome:
    want_witness = args.witness
    want_verify = args.verify
    try:
        if procedure == "autonomous":
            rhs = parse_expression(text, "y")
            return _autonomous_outcome(text, rhs, decide_autonomous(rhs),
                                       want_witness, want_verify)
        if procedure == "square":
            poly = parse_polynomial(text, "y")
            return _square_outcome(text, poly, decide_square(poly),
                                   want_witness, want_verify)
        if procedure == "abel":
            # parsed in place, so that offsets count from the start of the line
            spans, start = [], 0
            for piece in text.split(";"):
                if not piece.strip():
                    raise ParseError("empty coefficient in list", start)
                spans.append((start, start + len(piece)))
                start += len(piece) + 1
            coeffs = [parse_expression(text, "x", start, end) for start, end in spans]
            return _abel_outcome(text, decide_abel(coeffs))
        if procedure == "degbound":
            if args.coeff_field == "qx":
                coeffs = parse_poly_over_coeff_field(text, "y", "x")
            else:
                poly = parse_polynomial(text, "y")
                coeffs = [RatFunc.const("x", c) for c in poly.coeffs]
            return _degbound_outcome(text, degree_bound_check(coeffs))
        if procedure == "antider":
            return _antider_outcome(text, parse_expression(text, "x"),
                                    want_witness, want_verify)
        if procedure == "logderiv":
            return _logderiv_outcome(text, parse_expression(text, "x"),
                                     want_witness, want_verify)
        raise AssertionError(f"unknown procedure {procedure}")
    except ParseError as exc:
        return _error(text, procedure, EXIT_PARSE, str(exc))
    except ResourceLimitError as exc:
        return _error(text, procedure, EXIT_PRECONDITION, f"resource limit: {exc}")
    except InternalInconsistencyError as exc:
        return _error(text, procedure, EXIT_INTERNAL,
                      f"internal inconsistency: {exc}", f"INTERNAL: {exc}")
    except (ValueError, ZeroDivisionError) as exc:
        return _error(text, procedure, EXIT_PRECONDITION, str(exc))
    except Exception as exc:  # a bug: report it on this line, keep the batch going
        message = f"{type(exc).__name__}: {exc}"
        return _error(text, procedure, EXIT_INTERNAL,
                      f"internal error: {message}", f"INTERNAL: {message}")


def _error(text: str, procedure: str, severity: int, message: str,
           human: str | None = None) -> Outcome:
    report = _base_report(text, procedure, "error")
    report["error"] = message
    return Outcome(report, severity, [f"error:     {human or message}"])


def _emit(outcome: Outcome, as_json: bool, stream) -> None:
    if as_json:
        stream.write(json.dumps(outcome.report) + "\n")
    else:
        stream.write("\n".join(outcome.human) + "\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liouvillian",
        description="Exact liouvillian-solvability decisions for first-order ODEs")
    sub = parser.add_subparsers(dest="procedure", required=True)
    for name, needs_expr in (("autonomous", True), ("square", True),
                             ("abel", False), ("degbound", True),
                             ("antider", True), ("logderiv", True)):
        p = sub.add_parser(name)
        if needs_expr:
            p.add_argument("expression", nargs="?", default=None)
        else:
            p.add_argument("--coeffs", default=None,
                           help="semicolon-separated coefficients a1;a2;...;an")
        p.add_argument("--json", action="store_true")
        p.add_argument("--verify", action="store_true")
        p.add_argument("--input", default=None, metavar="FILE")
        p.add_argument("--witness", action=argparse.BooleanOptionalAction,
                       default=True)
        if name == "degbound":
            p.add_argument("--coeff-field", choices=("q", "qx"), default="q",
                           dest="coeff_field")
    return parser


def run(argv: list[str], stdout=None, stderr=None) -> int:
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    parser = _build_parser()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            args, extras = parser.parse_known_args(argv)
            # argparse takes an expression with a leading minus, -y^2, for an option
            if (len(extras) == 1 and not extras[0].startswith("--")
                    and getattr(args, "expression", "") is None):
                args.expression, extras = extras[0], []
            if extras:
                parser.error(f"unrecognized arguments: {' '.join(extras)}")
    except SystemExit:
        # after -h or a usage error: no verdict, and the exit contract reserves 1
        return EXIT_PARSE
    procedure = args.procedure
    single = args.coeffs if procedure == "abel" else args.expression
    if args.input is not None and single is not None:
        stderr.write("error: --input and an inline equation are mutually exclusive\n")
        return EXIT_PARSE
    if args.input is None and single is None:
        stderr.write("error: an equation (or --coeffs / --input) is required\n")
        return EXIT_PARSE

    if args.input is None:
        outcome = _process_line(procedure, single, args)
        _emit(outcome, args.json, stdout)
        return outcome.severity

    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            raw_lines = handle.readlines()
    except OSError as exc:
        stderr.write(f"error: cannot read {args.input}: {exc}\n")
        return EXIT_PARSE
    severity = EXIT_OK
    for raw in raw_lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        outcome = _process_line(procedure, line, args)
        _emit(outcome, args.json, stdout)
        if outcome.severity == EXIT_INTERNAL:
            severity = EXIT_INTERNAL
        elif outcome.severity != EXIT_OK and severity != EXIT_INTERNAL:
            severity = EXIT_PARSE
    return severity


def main(argv: list[str] | None = None) -> None:
    sys.exit(run(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    main()

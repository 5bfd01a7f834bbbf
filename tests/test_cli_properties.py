"""Property test of the Q(x) subcommands through ``cli.run``: on generated
expressions of bounded size, every run ends in a verdict or a typed error
(exit 0, 1 or 2, never 3), prints one report that conforms to the schema,
and every emitted witness passes its check."""

import io
import json
from pathlib import Path

import jsonschema
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from liouvillian import cli

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "schema" / "report.schema.json").read_text())

# a fixed seed, no example database: the same examples on every run
PROPERTY = settings(derandomize=True, database=None, max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _expressions(variables, ops):
    """Expression texts with at most 8 leaves: small rationals and the given
    variables, combined by the given binary operators, powers 0..3 and
    negation."""
    numbers = st.builds(lambda n, d: str(n) if d == 1 else f"{n}/{d}",
                        st.integers(0, 12), st.integers(1, 5))
    atoms = st.one_of(numbers, st.sampled_from(variables))

    def extend(children):
        return st.one_of(
            st.builds(lambda a, op, b: f"({a}){op}({b})",
                      children, st.sampled_from(ops), children),
            st.builds(lambda a, k: f"({a})^{k}", children, st.integers(0, 3)),
            children.map(lambda a: f"-({a})"))

    return st.recursive(atoms, extend, max_leaves=8)


def _check(argv):
    """Run one line with ``--json --verify``; ``--`` before an expression
    keeps a leading minus from reading as an option."""
    out = io.StringIO()
    code = cli.run([argv[0], "--json", "--verify", *argv[1:]], stdout=out,
                   stderr=io.StringIO())
    assert code in (0, 1, 2), argv
    reports = [json.loads(line) for line in out.getvalue().splitlines()]
    assert len(reports) == 1, argv
    for report in reports:
        jsonschema.validate(report, SCHEMA)
        if report["witness"] is not None:
            assert report["verification"]["passed"], argv


@PROPERTY
@given(_expressions(["y"], "+-*"))
def test_square(text):
    _check(["square", "--", text])


@PROPERTY
@given(_expressions(["x"], "+-*/"))
def test_antider(text):
    _check(["antider", "--", text])


@PROPERTY
@given(_expressions(["x"], "+-*/"))
def test_logderiv(text):
    _check(["logderiv", "--", text])


@PROPERTY
@given(st.lists(_expressions(["x"], "+-*/"), min_size=2, max_size=4))
def test_abel(coeffs):
    _check(["abel", f"--coeffs={';'.join(coeffs)}"])


@PROPERTY
@given(_expressions(["x", "y"], "+-*/"))
def test_degbound_over_qx(text):
    _check(["degbound", "--coeff-field", "qx", "--", text])

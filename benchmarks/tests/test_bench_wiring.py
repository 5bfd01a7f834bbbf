"""Self-test of the benchmark's wiring: tracer, accounting and oracle.

Run with ``python -m pytest benchmarks/tests -q`` from the repository root.
"""

import importlib
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import harness  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CHEAP_HARD = {"y^3 + y + 1", "1/(1/y + 8/(y - 1/3) - 4/(y + 2/5))",
              "y^2 - 1000003*1000033", "1/(1/(y - 1) + 1/(y - 2) + 1/(y - 3))"}


def _small_corpora():
    return {"auto_pool": workloads.auto_pool(7, count=60),
            "auto_hard": [c for c in workloads.auto_hard(7) if c.text in CHEAP_HARD],
            "qx_mix": workloads.qx_mix(7, per_procedure=12)}


def _originals():
    return {name: getattr(importlib.import_module(f"liouvillian.{name.split('.')[0]}"),
                          name.split(".")[1])
            for name in tracing.NAMES}


def _package_modules():
    return [m for n, m in sys.modules.items()
            if m is not None and (n == "liouvillian" or n.startswith("liouvillian."))]


def _union_s(spans) -> float:
    """Seconds covered by at least one span."""
    covered, reach = 0.0, float("-inf")
    for start, end in sorted((span.start, span.end) for span in spans):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered


def test_corpora_depend_only_on_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 5) == workloads.build(name, 5)
    assert workloads.build("auto_pool", 5) != workloads.build("auto_pool", 6)
    assert len(workloads.build("auto_hard", 5)) == 32


def test_every_lookup_is_replaced_and_restored():
    originals = _originals()
    by_id = {id(fn): name for name, fn in originals.items()}
    with tracing.Tracer() as tracer:
        for module in _package_modules():
            for attr, value in vars(module).items():
                assert id(value) not in by_id, f"{module.__name__}.{attr} not wrapped"
        for name in tracing.NAMES:
            assert f"liouvillian.{name}" in tracer.sites[name]
        assert {"liouvillian.reduction.gcd", "liouvillian.decision.gcd"} <= \
            set(tracer.sites["algebra.gcd"])
        sites = {site: name for name, found in tracer.sites.items() for site in found}
    for site, name in sites.items():
        module, attr = site.rsplit(".", 1)
        assert getattr(sys.modules[module], attr) is originals[name]


def test_every_function_is_called_and_time_is_accounted(tmp_path):
    called = set()
    for name, cases in _small_corpora().items():
        batches = harness.Batches.write(cases, tmp_path / name)
        tracer = tracing.Tracer()
        with tracer:
            start = time.perf_counter()
            result = harness.run_pass(batches, normalise=False)
            wall_s = time.perf_counter() - start
        tracer.assign_lines(0, result.stamps)
        summary = tracing.summarize(tracer.spans, wall_s)
        called |= {n for n, count in summary["calls"].items() if count}
        # Self times, which rest on the parent links, must add up to the time
        # covered by the union of the span intervals, which ignores them.
        covered = _union_s(tracer.spans)
        tolerance = 1e-6 * len(tracer.spans) + 1e-9
        assert abs(sum(summary["self_s"].values()) - covered) < tolerance
        assert all(t > -1e-9 for t in summary["self_s"].values())
        assert result.wall_s <= wall_s
        assert summary["cli_self_s"] >= 0
        assert all(0 <= span.line < len(cases) for span in tracer.spans)
    assert called == set(tracing.NAMES), set(tracing.NAMES) - called


def test_oracle_accepts_the_program_and_rejects_corruptions(tmp_path):
    cases = workloads.auto_pool(11, count=40)
    batches = harness.Batches.write(cases, tmp_path)
    reports = harness.parse_reports(harness.run_pass(batches).output)
    corrupted = 0
    for index, report in zip(batches.order, reports):
        case = cases[index]
        assert oracle.check(case, report) is None
        flipped = dict(report, status="not_liouvillian"
                       if report["status"] == "liouvillian" else "liouvillian")
        assert oracle.check(case, flipped) is not None
        failed = dict(report, status="error", error="resource limit: too many divisors")
        assert oracle.check(case, failed) is not None
        if report["witness"]:
            witness = dict(report["witness"], z=f"2*({report['witness']['z']}) + 1")
            assert oracle.check(case, dict(report, witness=witness)) is not None
            corrupted += 1
    assert corrupted > 10


def test_oracle_matches_the_documented_verdicts_of_known_defects():
    expected = {"liouvillian, with a witness": ("liouvillian", True),
                "liouvillian, with a certificate": ("liouvillian", False),
                "not_liouvillian": ("not_liouvillian", False)}
    for text, (error, verdict) in workloads.KNOWN_DEFECTS.items():
        truth = oracle.autonomous_truth(text)
        assert (truth["status"], truth["witness"]) == expected[verdict], text
        case = workloads.Case("autonomous", text, None)
        assert oracle.check(case, {"status": "error", "error": error}) is None

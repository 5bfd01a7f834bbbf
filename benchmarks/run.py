"""Benchmark of the liouvillian CLI batch path.

    python3 benchmarks/run.py [--workload auto_pool|auto_hard|qx_mix|all]
                              [--seed N] [--seconds S] [--trace 0|1]

``--trace 0`` measures the end-to-end metrics with no tracing.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics.
Every run checks each distinct output line with the sympy oracle and fails
(exit 1, ``"correct": false``) on any mismatch.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a copy of the result, with the environment, is written under
``.bench_build/bench/results/``.  ``--workload all`` runs each workload in
its own process and merges their results.  See ``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "bench"
SETUP_RUNS = 11
SANDBOX_LIMITS = ("no CPU pinning and no frequency control; tracing uses "
                  "in-process wrappers only")
# The child times the import first, then samples machine speed.
_SETUP_CHILD = ("import sys, time; sys.path[:0] = sys.argv[1:3]; "
                "t = time.perf_counter(); import liouvillian.cli; "
                "t = time.perf_counter() - t; import statistics, harness; "
                "print(t, statistics.median(harness.reference_kernel() "
                "for _ in range(9)))")

END_TO_END_UNITS = {"verdicts_per_s": "1/s", "latency_p50_ms": "ms",
                    "latency_tail_ms": "ms", "verdict_share": "ratio",
                    "peak_rss_mb": "MB", "setup_s": "s"}


def _fail(message: str) -> int:
    print(f"benchmark: {message}", file=sys.stderr)
    return 2


def measure_setup(reference_s: float) -> tuple[float, float]:
    """Median cold import of ``liouvillian.cli`` in fresh interpreters, timed
    inside the child, normalised for machine speed and raw; one unmeasured
    child first writes the bytecode."""
    normalised, raw = [], []
    for run in range(SETUP_RUNS + 1):
        child = subprocess.run([sys.executable, "-E", "-c", _SETUP_CHILD, str(SRC),
                                str(Path(__file__).resolve().parent)],
                               capture_output=True, text=True, check=True, timeout=120)
        seconds, kernel_s = map(float, child.stdout.split())
        if run:
            raw.append(seconds)
            normalised.append(seconds * reference_s / kernel_s)
    return statistics.median(normalised), statistics.median(raw)


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
            "platform": platform.platform(), "seed": seed,
            "git_commit": _git_commit(), "sandbox_limits": SANDBOX_LIMITS}


# -- one workload -----------------------------------------------------------------


def _check_outputs(cases, batches, output, differs, oracle, harness):
    """Reports of the first pass, and every problem found: later passes must
    repeat the first byte for byte, and the oracle must accept each line."""
    problems = [f"pass {number} output differs from pass 1" for number in differs]
    reports = harness.parse_reports(output)
    if len(reports) != len(cases):
        return reports, problems + [f"{len(reports)} output lines for {len(cases)} inputs"]
    for index, report in zip(batches.order, reports):
        case = cases[index]
        if report["procedure"] != case.procedure or report["equation"] != case.text:
            problems.append(f"report out of order at {case.text!r}")
            continue
        wrong = oracle.check(case, report)
        if wrong:
            problems.append(f"{case.procedure} {case.text!r}: {wrong}")
    return reports, problems


def _timed_passes(batches, seconds, harness, tracer=None):
    """Untraced passes (or untraced/traced pairs when ``tracer`` is given)
    until the next would end after ``seconds``; at least one.  Returns the
    passes, the first output, and the numbers of passes whose output
    differed from it; later outputs are dropped so memory does not grow."""
    plain, traced, differs = [], [], []
    first_output = None

    def keep(result):
        nonlocal first_output
        if first_output is None:
            first_output = result.output
        elif result.output != first_output:
            differs.append(len(plain) + len(traced))
        result.output = ""
        return result

    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        plain.append(keep(harness.run_pass(batches)))
        if tracer is not None:
            first_span = len(tracer.spans)
            with tracer:
                traced.append(keep(harness.run_pass(batches, normalise=False)))
            tracer.assign_lines(first_span, traced[-1].stamps)
        now = time.perf_counter()
        if now - start + (now - begun) > seconds:
            return plain, traced, first_output, differs


def _layer_metrics(tracer, traced, reports, plain, tracing) -> dict:
    summary = tracing.summarize(tracer.spans, sum(r.wall_s for r in traced))
    per_pass = len(traced)
    lines = len(reports)
    witnesses = sum(1 for r in reports
                    if r["procedure"] in ("autonomous", "square") and r["witness"])
    calls, self_s = summary["calls"], summary["self_s"]
    checks = sum(calls[name] for name in tracing.CHECKS) / per_pass
    roots = calls["algebra.rational_roots"]
    untraced_s = statistics.median(r.wall_s for r in plain)
    traced_s = statistics.median(r.wall_s for r in traced)
    metrics = {}
    for name in tracing.NAMES:
        metrics[f"{name}.calls"] = (calls[name] / per_pass, "count")
        metrics[f"{name}.self_s"] = (self_s[name] / per_pass, "s")
    metrics.update({
        "cli.self_s": (summary["cli_self_s"] / per_pass, "s"),
        "parser.parses_per_line": (summary["outer_parses"] / per_pass / lines, "ratio"),
        "verify.checks_per_witness": (checks / witnesses if witnesses else 0.0, "ratio"),
        "algebra.gcd.calls_per_line": (calls["algebra.gcd"] / per_pass / lines, "ratio"),
        "algebra.resultant.sylvester_size_max": (tracer.sylvester_size_max, "count"),
        "reduction.ratio_resultant.w_degree_max": (tracer.w_degree_max, "count"),
        "algebra.rational_roots.split_share": (tracer.roots_split / roots if roots else 0.0,
                                               "ratio"),
        "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
        "trace.lines_per_pass": (lines, "count"),
        "trace.witnesses_per_pass": (witnesses, "count"),
        "trace.untraced_pass_s": (untraced_s, "s"),
        "trace.traced_pass_s": (traced_s, "s"),
    })
    return metrics


def _slowest_lines(tracer, cases, batches, tracing) -> list[str]:
    """The three traced lines with the most wall time, with their two
    heaviest layers."""
    per_line: dict[int, dict[str, float]] = {}
    spans = tracer.spans
    for span in spans:
        duration = span.end - span.start
        own = per_line.setdefault(span.line, {})
        name = tracing.NAMES[span.name]
        own[name] = own.get(name, 0.0) + duration
        if span.parent >= 0:
            parent = tracing.NAMES[spans[span.parent].name]
            own[parent] = own.get(parent, 0.0) - duration
    total = {line: sum(layers.values()) for line, layers in per_line.items()}
    out = []
    for line in sorted(total, key=total.get, reverse=True)[:3]:
        if 0 <= line < len(batches.order):
            text = cases[batches.order[line]].text
            heavy = sorted(per_line[line].items(), key=lambda kv: -kv[1])[:2]
            layers = ", ".join(f"{name} {sec:.3f}s" for name, sec in heavy)
            out.append(f"{total[line]:.3f}s in spans  {text[:60]!r}  ({layers})")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import harness  # these import the program, so only after the path is set
    import tracing

    setup_s, raw_setup_s = (None, None) if trace else measure_setup(harness.REFERENCE_S)
    cases = workloads.build(name, seed)
    batches = harness.Batches.write(cases, WORK / name)
    tracer = tracing.Tracer() if trace else None
    plain, traced, output, differs = _timed_passes(batches, seconds, harness, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    import oracle  # after the timed passes: sympy must not count in peak RSS

    reports, problems = _check_outputs(cases, batches, output, differs, oracle, harness)
    is_error = [r.get("status") == "error" for r in reports]
    samples = len(cases) * len(plain)
    tail = harness.tail_percentile(len(cases))
    result = {"workload": name, "passes": len(plain), "traced_passes": len(traced),
              "lines_per_pass": len(cases), "problems": problems,
              "attempted": samples, "failed": sum(is_error) * len(plain),
              "tail": {"percentile": tail, "lines": len(cases),
                       "beyond": len(cases) - math.ceil(tail / 100 * len(cases))},
              "pass_wall_s": [r.wall_s for r in plain],
              "pass_norm_wall_s": [r.norm_wall_s for r in plain],
              "errors": sorted({r["error"] for r in reports if r.get("status") == "error"}),
              "metrics": {}}
    if problems:
        return result
    if trace:
        result["metrics"] = _layer_metrics(tracer, traced, reports, plain, tracing)
        result["slowest_lines"] = _slowest_lines(tracer, cases, batches, tracing)
        return result
    figures = harness.end_to_end(plain, is_error)
    figures.update(peak_rss_mb=peak_rss_mb, setup_s=setup_s)
    result["metrics"] = {key: (value, END_TO_END_UNITS[key]) for key, value in figures.items()}
    result["raw"] = dict(harness.end_to_end(plain, is_error, normalised=False),
                         setup_s=raw_setup_s)
    return result


def _print_result(result: dict) -> None:
    print(f"workload {result['workload']}: {result['passes']} passes"
          + (f" + {result['traced_passes']} traced" if result["traced_passes"] else "")
          + f", {result['lines_per_pass']} lines per pass")
    for key, (value, unit) in result["metrics"].items():
        note = ""
        if key == "latency_tail_ms":
            tail = result["tail"]
            note = (f"  (p{tail['percentile']} of {tail['lines']} line medians, "
                    f"{tail['beyond']} beyond)")
        elif key == "verdict_share":
            note = (f"  (error_share {1 - value:.4f}: {result['failed']} of "
                    f"{result['attempted']} lines)")
        print(f"  {key:<48} {value:>14.6g} {unit}{note}")
    if "raw" in result:
        print("  raw wall-clock figures: " + ", ".join(
            f"{key} {value:.6g}" for key, value in result["raw"].items()))
    for error in result["errors"]:
        print(f"  error line: {error}")
    for line in result.get("slowest_lines", ()):
        print(f"  slow line: {line}")
    for problem in result["problems"][:20]:
        print(f"  ORACLE MISMATCH: {problem}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=317)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "liouvillian" / "cli.py").is_file():
        return _fail(f"no program source at {SRC / 'liouvillian'}")
    sys.path.insert(0, str(SRC))
    import liouvillian

    if not Path(liouvillian.__file__).resolve().is_relative_to(SRC):
        return _fail(f"liouvillian was imported from {liouvillian.__file__}, not {SRC}")

    if args.workload == "all":
        return _run_all(args)
    env = environment(args.seed)
    print("environment: " + json.dumps(env))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_result(result)
    correct = not result["problems"]
    summary = {"correct": correct, "attempted": result["attempted"],
               "failed": result["failed"],
               "metrics": {key: {"value": value, "unit": unit}
                           for key, (value, unit) in result["metrics"].items()}}
    WORK.joinpath("results").mkdir(parents=True, exist_ok=True)
    record = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"environment": env, "args": vars(args),
                                  "result": result, "summary": summary}, indent=1))
    print(json.dumps(summary))
    return 0 if correct else 1


def _run_all(args) -> int:
    """Each workload in its own process, so that none inherits another's
    peak RSS or imports; the last line merges their results, with every
    metric name prefixed by its workload except ``setup_s``.  Set-up does not
    depend on the workload, so it is reported once: the median of the
    workloads' set-up medians."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    setups = []
    for name in workloads.WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stderr.write(child.stderr)
        lines = child.stdout.splitlines()
        if child.returncode not in (0, 1) or not lines:
            return _fail(f"workload {name} exited with {child.returncode}")
        print("\n".join(lines[:-1]))
        summary = json.loads(lines[-1])
        merged["correct"] &= summary["correct"]
        merged["attempted"] += summary["attempted"]
        merged["failed"] += summary["failed"]
        if "setup_s" in summary["metrics"]:
            setups.append(summary["metrics"].pop("setup_s"))
        merged["metrics"].update((f"{name}.{key}", value)
                                 for key, value in summary["metrics"].items())
    if setups:
        merged["metrics"]["setup_s"] = {
            "value": statistics.median(s["value"] for s in setups), "unit": "s"}
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Timed passes over a corpus through the real CLI batch path.

One closed-loop client in one thread: each pass hands the corpus files to
``liouvillian.cli.run([...,"--input", FILE, "--json", "--verify"])`` in turn,
and the next pass starts when the last line is written.  Per-line latency is
the gap between consecutive JSON lines, stamped as ``cli.run`` writes them to
a stream object supplied here; the first line of a batch is measured from the
``cli.run`` call.

A shared 2-core Intel Xeon changed speed by up to 1.75x within minutes, so
the timing figures are normalised for machine speed.  While a pass runs, a
timer signal runs a fixed reference kernel every ``SAMPLE_INTERVAL_S``; its
time is taken out of the line it interrupted.  A line's normalised latency
is its latency times ``REFERENCE_S`` over the median kernel time sampled
during the line (or, for a short line, at the nearest samples): the time the
line would take on a machine that runs the kernel in ``REFERENCE_S``.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import json
import math
import signal
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from liouvillian import cli

MIN_TAIL_LINES = 10
# About the reference kernel's median time on a shared 2-core Intel Xeon
# with Python 3.11.7.  Normalised times are times on a machine that runs the
# kernel in exactly this long.
REFERENCE_S = 800e-6
SAMPLE_INTERVAL_S = 0.05
MIN_SAMPLES = 7             # kernel samples behind each normalised latency
_SMALL = [Fraction(i % 7 - 3, i % 5 + 1) for i in range(8)]
_LARGE = [Fraction((i * 7919) ** 5 - 3, (i % 5 + 1) * 10**12 + 7) for i in range(1, 7)]


def _product(terms: list[Fraction]) -> None:
    product = [Fraction(0)] * (2 * len(terms) - 1)
    for i, a in enumerate(terms):
        for j, b in enumerate(terms):
            product[i + j] += a * b


def _bareiss(n: int = 9) -> None:
    matrix = [[(i * 31 + j * 17) ** 7 % 10**40 + 1 for j in range(n)] for i in range(n)]
    previous = 1
    for k in range(n - 1):
        pivot = matrix[k][k]
        for row in matrix[k + 1:]:
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (pivot * row[j] - lead * matrix[k][j]) // previous
        previous = pivot


def reference_kernel() -> float:
    """Seconds taken by fixed work in the program's style: polynomial products
    over Q with small and with large coefficients, and a fraction-free
    integer elimination.  Its temporaries die at once."""
    start = time.perf_counter()
    _product(_SMALL)
    _product(_LARGE)
    _bareiss()
    return time.perf_counter() - start


class SpeedSampler:
    """Runs the reference kernel from a SIGALRM interval timer while active."""

    def __init__(self):
        self.times: list[float] = []
        self.kernel_s: list[float] = []
        self.stolen_s = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_kernel()
        end = time.perf_counter()
        self.times.append(start)
        self.kernel_s.append(end - start)
        self.stolen_s += end - start

    def __enter__(self) -> SpeedSampler:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed_factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the median kernel time during [start, end],
        widened to the nearest MIN_SAMPLES samples."""
        low = bisect.bisect_left(self.times, start)
        high = bisect.bisect_right(self.times, end)
        if high - low < MIN_SAMPLES:
            middle = (low + high) // 2
            low = max(0, middle - MIN_SAMPLES // 2)
            high = min(len(self.times), low + MIN_SAMPLES)
        return REFERENCE_S / statistics.median(self.kernel_s[low:high])


class LineClock:
    """Write-only text stream that records when each line arrives, and how
    much sampler time had been spent by then."""

    def __init__(self, sampler: SpeedSampler | None = None):
        self.sampler = sampler
        self.lines: list[str] = []
        self.stamps: list[float] = []
        self.stolen: list[float] = []

    def stolen_s(self) -> float:
        return self.sampler.stolen_s if self.sampler else 0.0

    def write(self, text: str) -> int:
        self.stolen.append(self.stolen_s())
        self.stamps.append(time.perf_counter())
        self.lines.append(text)
        return len(text)

    def flush(self) -> None:
        pass


@dataclass
class PassResult:
    wall_s: float                 # sum of the line latencies
    latencies_s: list[float]
    norm_wall_s: float            # the same, normalised for machine speed
    norm_latencies_s: list[float]
    stamps: list[float]
    output: str


@dataclass
class Batches:
    """The corpus split into one input file per subcommand, in first-seen
    order, with the argv each needs."""

    argvs: list[list[str]] = field(default_factory=list)
    order: list[int] = field(default_factory=list)  # output line -> case index

    @classmethod
    def write(cls, cases, directory: Path) -> Batches:
        directory.mkdir(parents=True, exist_ok=True)
        batches = cls()
        procedures = list(dict.fromkeys(case.procedure for case in cases))
        for procedure in procedures:
            indices = [i for i, case in enumerate(cases) if case.procedure == procedure]
            path = directory / f"{procedure}.txt"
            path.write_text("".join(cases[i].text + "\n" for i in indices),
                            encoding="utf-8")
            argv = [procedure, "--input", str(path), "--json", "--verify"]
            if procedure == "degbound":
                argv += ["--coeff-field", "qx"]
            batches.argvs.append(argv)
            batches.order.extend(indices)
        return batches


def run_pass(batches: Batches, normalise: bool = True) -> PassResult:
    """One pass; with ``normalise`` the speed sampler runs and the
    normalised figures are filled in, else they repeat the raw ones."""
    sampler = SpeedSampler() if normalise else None
    clock = LineClock(sampler)
    err = io.StringIO()
    latencies, intervals = [], []
    with sampler or contextlib.nullcontext():
        for argv in batches.argvs:
            first = len(clock.stamps)
            previous, stolen = time.perf_counter(), clock.stolen_s()
            cli.run(argv, stdout=clock, stderr=err)
            for stamp, stolen_by_now in zip(clock.stamps[first:], clock.stolen[first:]):
                latencies.append(stamp - previous - (stolen_by_now - stolen))
                intervals.append((previous, stamp))
                previous, stolen = stamp, stolen_by_now
    normalised = latencies if sampler is None else [
        latency * sampler.speed_factor(start, end)
        for latency, (start, end) in zip(latencies, intervals)]
    return PassResult(sum(latencies), latencies, sum(normalised), normalised,
                      clock.stamps, "".join(clock.lines))


def parse_reports(output: str) -> list[dict]:
    return [json.loads(line) for line in output.splitlines()]


def tail_percentile(lines: int) -> int:
    """The highest whole percentile with at least ten lines beyond it; fixed
    by the corpus, so it does not move with speed."""
    return max(50, math.floor(100 * (lines - MIN_TAIL_LINES) / lines))


def ranked_percentile(samples: list[tuple[list[float], float]], is_error: list[bool],
                      percentile: float) -> float:
    """Nearest-rank percentile over the input lines of each line's median
    latency across passes, given as (latencies, pass wall time) per pass.
    An error line ranks above every verdict; if the rank lands on one, the
    value is the median pass wall time, which bounds the latency of any
    line.  Taking each line's median first keeps the rank on one line: with
    pooled samples, the median of an even-sized corpus falls between two
    lines and jumps between their costs."""
    verdicts = sorted(statistics.median(latencies[line] for latencies, _ in samples)
                      for line, failed in enumerate(is_error) if not failed)
    index = max(0, math.ceil(percentile / 100 * len(is_error)) - 1)
    if index < len(verdicts):
        return verdicts[index]
    return statistics.median(wall for _, wall in samples)


def end_to_end(passes: list[PassResult], is_error: list[bool],
               normalised: bool = True) -> dict:
    """The per-workload timing figures, normalised for machine speed or raw."""
    lines = len(is_error)
    verdicts = lines - sum(is_error)
    samples = [(r.norm_latencies_s, r.norm_wall_s) if normalised else
               (r.latencies_s, r.wall_s) for r in passes]
    return {
        "verdicts_per_s": verdicts * len(passes) / sum(wall for _, wall in samples),
        "latency_p50_ms": 1000 * ranked_percentile(samples, is_error, 50),
        "latency_tail_ms": 1000 * ranked_percentile(samples, is_error,
                                                    tail_percentile(lines)),
        "verdict_share": verdicts / lines,
    }

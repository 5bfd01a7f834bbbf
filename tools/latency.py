"""Single-line latency across degree families, one fresh process per run.

    python3 tools/latency.py [--src DIR] [--smallest] [--repeat K]

Each line of a fixed family runs through ``liouvillian.cli.run`` with
``--json --verify`` in a new Python process, one at a time; the child times
the call alone (not interpreter start-up or import) and reports its exit
code and the bytes it wrote.  For each line the table has one row: family,
size, best-of-K seconds, exit code and report bytes, or "> 60" when a run
did not finish within the 60 s wall-clock cap (the child is then killed and
the line is not repeated; the slowest line takes about 15 s).  The exit
status is 1 when any line hit the cap or exited 3 (an internal error), else
0.  ``--smallest`` runs only the first size of each family, a quick check
that the tool and every family still run.  ``--src`` names the source tree
to import (default: this checkout's ``src``), so two trees can be compared
row by row.  Standard library only.

Every family has a fixed, finite list of sizes whose dense size is bounded;
a line such as ``logderiv "10^4300/x"``, whose gamma would be a dense
polynomial of degree 10^4300, is never run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CAP_S = 60.0          # wall-clock cap per run
EXIT_INTERNAL = 3     # liouvillian.cli's exit code for an internal error

# The child imports the CLI, then times one call into an in-memory stream.
_CHILD = """\
import io, json, sys, time
sys.path.insert(0, sys.argv[1])
from liouvillian import cli
out, err = io.StringIO(), io.StringIO()
start = time.perf_counter()
code = cli.run(sys.argv[2:], stdout=out, stderr=err)
elapsed = time.perf_counter() - start
print(json.dumps({"s": elapsed, "exit": code,
                  "bytes": len(out.getvalue().encode("utf-8"))}))
"""


def _sqrt_poles(n: int) -> str:
    return "1/(" + " + ".join(f"1/(y^2-{2 * i * i})" for i in range(1, n + 1)) + ")"


def _rational_poles(n: int) -> str:
    return "1/(" + " + ".join(f"1/(y-{i}/{i + 1})" for i in range(1, n + 1)) + ")"


# the two lines that end on the witness degree bound, keyed by that degree
_WITNESS_BOUND = {158: "(-3/2*y^2 - 1/3*y)/(-1/3*y - 3/2)",
                  426: "(y-1/3)*(y-5/7)*(y+11/13)"}

# name -> (sizes, argv of one size); every argv gets --json --verify
FAMILIES = {
    "antider_power": ((5, 10, 20, 30),
                      lambda k: ["antider", f"1/(x^2+x+1)^{k}"]),
    "antider_wide_factor": ((2, 3, 4, 5),
                            lambda k: ["antider", f"1/(123456789*x^12+987654321*x+1)^{k}"]),
    "trinomial": ((8, 16, 32, 48, 64),
                  lambda d: ["autonomous", f"y^{d}+y+1"]),
    "sqrt_poles": ((4, 8, 10, 12), lambda n: ["autonomous", _sqrt_poles(n)]),
    "rational_poles": ((8, 16, 24, 32), lambda n: ["autonomous", _rational_poles(n)]),
    "wide_coefficient": ((10, 50, 100),
                         lambda k: ["autonomous", f"y^16+{'9' * k}*y+1"]),
    "logderiv_residue": ((1, 3, 5),
                         lambda k: ["logderiv", f"{10 ** k}/x"]),
    "abel_residue": ((1, 3, 5),
                     lambda k: ["abel", "--coeffs", f"{10 ** k}/x;1;1;1"]),
    "witness_bound": (tuple(_WITNESS_BOUND), lambda d: ["autonomous", _WITNESS_BOUND[d]]),
}


def time_line(src: Path, argv: list[str], repeat: int) -> dict | None:
    """Best of ``repeat`` runs of one line, or None when a run passed the cap."""
    best = None
    for _ in range(repeat):
        try:
            done = subprocess.run([sys.executable, "-c", _CHILD, str(src), *argv,
                                   "--json", "--verify"],
                                  capture_output=True, text=True, timeout=CAP_S, check=False)
        except subprocess.TimeoutExpired:
            return None
        if done.returncode != 0:
            raise RuntimeError(f"child failed on {argv}: {done.stderr.strip()}")
        result = json.loads(done.stdout)
        if best is None or result["s"] < best["s"]:
            best = result
    return best


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--smallest", action="store_true",
                        help="run only the smallest size of each family")
    parser.add_argument("--repeat", type=int, default=3, help="runs per line (best of)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    src = args.src.resolve()
    print(f"{'family':<20} {'size':>5} {'best_s':>9} {'exit':>4} {'bytes':>8}", flush=True)
    failed = False
    for name, (sizes, line) in FAMILIES.items():
        for size in sizes[:1] if args.smallest else sizes:
            best = time_line(src, line(size), args.repeat)
            if best is None:
                print(f"{name:<20} {size:>5} {'> ' + format(CAP_S, 'g'):>9}", flush=True)
            else:
                print(f"{name:<20} {size:>5} {best['s']:>9.4f} {best['exit']:>4} "
                      f"{best['bytes']:>8}", flush=True)
            failed |= best is None or best["exit"] == EXIT_INTERNAL
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

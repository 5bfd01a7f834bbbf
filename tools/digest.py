"""Output digests of the benchmark corpora, for byte-identity checks.

    python3 tools/digest.py [--seeds 7 317 925] [--src DIR]

Builds each workload's corpus with ``benchmarks/workloads.py`` and splits it
into the benchmark's batches with ``benchmarks/harness.py`` (both imported
read-only), then runs ``liouvillian.cli.run`` in process on each batch in
three output modes: human ``--verify``, ``--json --verify`` and ``--json
--verify --no-witness``.  For each (workload, seed, mode) it prints one line:
the sha256 of the whole output and the exit codes of the calls, in
subcommand order.  Two source trees print the same lines exactly when they
give the same output and exit codes on these corpora, so run it on both
sides of a change and ``diff`` the results.  ``--src`` names the source tree
to import (default: this checkout's ``src``).  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODES = {"human": ["--verify"],
         "json": ["--json", "--verify"],
         "json-no-witness": ["--json", "--verify", "--no-witness"]}


def digest(run, argvs: list[list[str]], flags: list[str]) -> tuple[str, list[int]]:
    """sha256 of the output of one pass over the benchmark's ``argvs``, with
    their ``--json --verify`` replaced by ``flags``, and its exit codes."""
    hasher, codes = hashlib.sha256(), []
    for argv in argvs:
        out = io.StringIO()
        argv = [a for a in argv if a not in ("--json", "--verify")] + flags
        codes.append(run(argv, stdout=out, stderr=io.StringIO()))
        hasher.update(out.getvalue().encode("utf-8"))
    return hasher.hexdigest(), codes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 317, 925])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "benchmarks")]
    import harness
    import workloads
    from liouvillian import cli

    with tempfile.TemporaryDirectory() as scratch:
        for name in workloads.WORKLOADS:
            for seed in args.seeds:
                batches = harness.Batches.write(workloads.build(name, seed), Path(scratch))
                for mode, flags in MODES.items():
                    sha, codes = digest(cli.run, batches.argvs, flags)
                    print(f"{name} {seed} {mode} {sha} exit={','.join(map(str, codes))}",
                          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

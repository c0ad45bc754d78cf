"""Check that two runs at one seed emit the same outputs and counts.

    python3 perfbench/determinism.py [--seed N] [workload ...]

Runs ``run.py`` twice per workload with one short pass and compares the
``digest`` lines (sha256 of every output and its counts) and the count lines.
Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

COUNT_PREFIXES = ("digest ", "out_", "pch_calls ")


def fingerprint(workload: str, seed: int) -> list[str]:
    run = Path(__file__).with_name("run.py")
    argv = [sys.executable, str(run), "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, capture_output=True, text=True, cwd=run.parent.parent, check=True)
    return [line for line in done.stdout.splitlines() if line.startswith(COUNT_PREFIXES)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*", default=sorted(WORKLOADS))
    args = parser.parse_args()
    differ = 0
    for workload in args.workloads:
        first, second = fingerprint(workload, args.seed), fingerprint(workload, args.seed)
        same = first == second
        differ += not same
        print(f"{workload} seed {args.seed}: {'same' if same else 'DIFFERENT'}")
        for line in first if same else first + ["--"] + second:
            print(f"  {line}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

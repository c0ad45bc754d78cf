"""Benchmark of the optsort command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it drives ``src/optsort`` through
the CLI exactly as the installed ``optsort`` command would, one call at a
time.  Inputs come from ``--seed``; every output is checked (``checks.py``)
outside the timed region.  A run repeats passes over the workload's calls
for about ``--seconds``.  Between passes it times the trivial call
``optsort gen-sorter 1`` (process start and import, ``setup_s``) and a
fixed calibration loop that scales the other end-to-end times.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` the run measures untraced passes for half the time and passes
through the traced launcher (``tracing.py``) for the other half, and the
result holds the per-layer metrics.  The last stdout line is the JSON result;
the lines before it name every metric with its unit, and the digest that two
runs at one seed must share.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checks
import tracing
from workloads import WORKLOADS, Call

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_tmp"
ENTRY = "import sys; from optsort.cli import main; sys.exit(main())"
CALL_TIMEOUT_S = 120
OVERRUN = 1.25
# One untraced pass and the gap after it at the commit that defined the
# benchmark, in seconds.  It fixes how many passes a run of a given length
# makes at least, and with that the rank of call_s.tail, whatever the speed
# of the code under test.
NOMINAL_PASS_S = {"rewrite-fine": 3.5, "rewrite-wide": 8.1, "verify-grid": 10.0, "pch": 3.6}
# The machine the benchmark was defined on is shared, and its speed drifted
# between 1.0x and 2.2x over seconds to minutes.  A fixed pure-Python loop,
# run as a child process before and after every pass, measures that speed.
# End-to-end times are scaled by (REFERENCE_S / loop time around their pass)
# ** SCALE_EXPONENT: the workloads slowed by about the square root of the
# loop's slowdown (compute-bound ones more, memory-bound rewrite-wide less).
# Over ten runs per workload this cut the spread of wall_s from 0.07-0.14 to
# 0.06-0.10 of the median.
CALIBRATION = "s = 0\nfor i in range(2_000_000):\n    s += i\n"
REFERENCE_S = 0.25
SCALE_EXPONENT = 0.5
SETUP_PROBES = 2
LEAST_SETUP_PROBES = 10
# Output sizes apply to the rewrite workloads and pch_calls to pch; they are
# reported with the per-layer metrics, which may be zero on a workload.
COUNTS = ("out_bytes", "out_rules", "out_atoms", "out_min_terms", "pch_calls")


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


@dataclass
class Outcome:
    seconds: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


def run_cli(argv: tuple[str, ...], stdin: str | None, trace: tuple[Path, str] | None = None) -> Outcome:
    """Run one CLI call with piped stdin, timing it and reading its peak RSS."""
    if trace is None:
        cmd = [sys.executable, "-c", ENTRY, *argv]
    else:
        cmd = [sys.executable, str(Path(tracing.__file__)), str(trace[0]), trace[1], *argv]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(ROOT / "src")
    data = (stdin or "").encode()
    stderr: list[bytes] = []
    start = perf_counter()
    proc = subprocess.Popen(
        cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT, env=env
    )
    watchdog = threading.Timer(CALL_TIMEOUT_S, proc.kill)

    def feed() -> None:
        try:
            proc.stdin.write(data)
            proc.stdin.close()
        except BrokenPipeError:
            pass

    threads = [threading.Thread(target=feed), threading.Thread(target=lambda: stderr.append(proc.stderr.read()))]
    try:
        watchdog.start()
        for thread in threads:
            thread.start()
        stdout = proc.stdout.read()
        for thread in threads:
            thread.join()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
        proc.stdout.close()
        proc.stderr.close()
    return Outcome(
        seconds,
        usage.ru_maxrss / 1024,
        proc.returncode,
        stdout.decode(errors="replace"),
        b"".join(stderr).decode(errors="replace"),
    )


class Checker:
    """Checks every call of a run and keeps the run's failure count and sizes.

    The first correct output of each call is checked in full; later passes
    must reproduce it byte for byte.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.attempted = 0
        self.errors: list[str] = []
        self.first: dict[str, tuple[str, dict]] = {}

    def check(self, call: Call, stdin: str | None, outcome: Outcome) -> None:
        self.attempted += 1
        error = self._error(call, stdin, outcome)
        if error:
            self.errors.append(f"{call.label}: {error}")

    def _error(self, call: Call, stdin: str | None, outcome: Outcome) -> str | None:
        if outcome.code != 0:
            return f"exit code {outcome.code}: {outcome.stderr.strip()[-200:]}"
        if "Traceback" in outcome.stderr:
            return "traceback on stderr"
        digest = hashlib.sha256(outcome.stdout.encode()).hexdigest()
        if call.label in self.first:
            if self.first[call.label][0] != digest:
                return "output differs from the first pass"
            return None
        error, counts = self._content(call, stdin, outcome.stdout)
        if error is None:
            self.first[call.label] = (digest, counts)
        return error

    def _content(self, call: Call, stdin: str | None, stdout: str) -> tuple[str | None, dict]:
        command = call.argv[0]
        if command == "rewrite":
            return checks.check_rewrite(stdin, stdout, call.facts["max_atom"], self.seed)
        if command == "gen-binomial":
            return checks.aspif_shape_error(stdout), {}
        if command == "verify":
            expected = call.facts.get("answer_sets") or checks.answer_set_count(call.facts)
            return checks.check_verify(stdout, expected), {}
        if command == "pch":
            error, m = checks.check_pch(stdout, call.facts["n"], call.facts["k"], call.argv[-1])
            return error, {"pch_calls": m}
        return f"no check for {command}", {}

    def counts(self) -> dict[str, int]:
        out = dict.fromkeys(COUNTS, 0)
        for _, counts in self.first.values():
            for key, value in counts.items():
                out[key] += value
        return out

    def digest(self) -> str:
        """Hash of every checked output and count, for comparing runs."""
        text = json.dumps(sorted((label, d, c) for label, (d, c) in self.first.items()))
        return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Pass:
    wall: float
    outcomes: dict[str, Outcome]
    traces: dict[str, dict] | None


def run_pass(calls: list[Call], checker: Checker, traced: bool) -> Pass:
    outcomes: dict[str, Outcome] = {}
    inputs: dict[str, str | None] = {}
    start = perf_counter()
    for call in calls:
        stdin = call.stdin if call.stdin_from is None else outcomes[call.stdin_from].stdout
        inputs[call.label] = stdin
        trace = (WORK / f"{call.label}.json", call.label) if traced else None
        outcomes[call.label] = run_cli(call.argv, stdin, trace)
    wall = perf_counter() - start
    for call in calls:
        checker.check(call, inputs[call.label], outcomes[call.label])
    traces = None
    if traced:
        traces = {}
        for call in calls:
            path = WORK / f"{call.label}.json"
            if path.exists():
                traces[call.label] = json.loads(path.read_text())
                path.unlink()
    return Pass(wall, outcomes, traces)


class Gaps:
    """What runs between passes: ``optsort gen-sorter 1`` and the calibration.

    The trivial call times process start plus import (``setup_s``); probing
    it between passes spreads the probes over the run's changing speed.
    """

    def __init__(self) -> None:
        self.setup: list[float] = []
        self.calibration: list[float] = []

    def probe(self, times: int = SETUP_PROBES) -> None:
        for _ in range(times):
            outcome = run_cli(("gen-sorter", "1"), None)
            if outcome.code != 0 or outcome.stdout != "width=1 depth=0 comparators=0\n":
                raise SetupError(outcome.stderr.strip()[-300:] or outcome.stdout[:300])
            self.setup.append(outcome.seconds)

    def __call__(self) -> None:
        self.probe()
        start = perf_counter()
        subprocess.run([sys.executable, "-S", "-c", CALIBRATION], check=True)
        self.calibration.append(perf_counter() - start)

    def speed(self, index: int) -> float:
        """Scale for times of pass ``index``, from the gaps on either side."""
        return (REFERENCE_S / statistics.mean(self.calibration[index : index + 2])) ** SCALE_EXPONENT


class SetupError(RuntimeError):
    """The trivial call failed, so nothing else can be measured."""


def measure(
    calls: list[Call], checker: Checker, seconds: float, nominal: float, traced: bool, gap
) -> list[Pass]:
    """At least seconds/nominal passes, then more while they fit in the time.

    On a machine much slower than the nominal one, passes stop at
    ``OVERRUN`` times the time, so a run stays within its budget.
    """
    least = max(1, math.floor(seconds / nominal))
    passes: list[Pass] = []
    start = perf_counter()
    gap()
    while not passes or (
        perf_counter() - start + statistics.median(p.wall for p in passes)
        <= seconds * (OVERRUN if len(passes) < least else 1)
    ):
        passes.append(run_pass(calls, checker, traced))
        gap()
    return passes


def tail_quantile(samples: list[float], least: int) -> tuple[float, float]:
    """Value at the highest quantile with ten of ``least`` samples beyond it.

    The quantile comes from the smallest sample count a run of this length
    makes, so it does not move when faster code fits more passes in a run.
    """
    q = (least - 11) / (least - 1) if least >= 11 else 1.0
    ordered = sorted(samples)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return q, ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def end_to_end(gaps: Gaps, passes: list[Pass], least_calls: int) -> tuple[dict, list[str]]:
    # Times are scaled by their pass's speed (see REFERENCE_S).  call_s.p50
    # is the median over passes of each pass's median call.  Every pass holds
    # the same calls, so a pass median always comes from the same inputs; the
    # median of all calls of a workload with an even number of inputs would
    # instead straddle the gap between two inputs' times.
    speed = [gaps.speed(i) for i in range(len(passes))]
    calls = [o.seconds * f for p, f in zip(passes, speed) for o in p.outcomes.values()]
    q, tail = tail_quantile(calls, least_calls)
    metrics = {
        "setup_s": statistics.median(gaps.setup),
        "wall_s": statistics.median(p.wall * f for p, f in zip(passes, speed)),
        "call_s.p50": statistics.median(
            statistics.median(o.seconds for o in p.outcomes.values()) * f
            for p, f in zip(passes, speed)
        ),
        "call_s.tail": tail,
        "peak_rss_mb": statistics.median(max(o.rss_mb for o in p.outcomes.values()) for p in passes),
    }
    notes = [
        f"passes {len(passes)}, calls {len(calls)}, setup calls {len(gaps.setup)}",
        f"call_s.tail is the p{100 * q:.1f} of {len(calls)} calls",
        "unscaled pass seconds " + " ".join(f"{p.wall:.4g}" for p in passes),
        "calibration seconds " + " ".join(f"{c:.4g}" for c in gaps.calibration),
    ]
    return metrics, notes


def per_layer(untraced: list[Pass], traced: list[Pass], checker: Checker, names: dict) -> dict:
    """Median over traced passes of each layer total, plus derived ratios."""
    counts = checker.counts()
    out_rules = {label: c.get("out_rules", 0) for label, (_, c) in checker.first.items()}
    per_pass = []
    for p in traced:
        by_call = {label: tracing.layer_totals(t) for label, t in p.traces.items()}
        total: dict[str, float] = {}
        for totals in by_call.values():
            for key, value in totals.items():
                total[key] = total.get(key, 0.0) + value
        overhead = sum(
            p.outcomes[label].seconds - totals.get("cli.main_s", 0.0)
            for label, totals in by_call.items()
        )
        values = {
            name: total.get(name, 0.0)
            for name in names
            if name.endswith("_s") and name not in ("cli.process_overhead_s", "trace.overhead_s")
        }
        values.update(
            {
                "cli.process_overhead_s": overhead,
                "network.components": total.get("network.decompose_sparse#", 0),
                "propagate.components_folded": total.get("propagate.propagate_decomposition#", 0),
                "encode.rules": total.get("encode.asp_of_network#", 0),
                "asplang.least_model_calls": total.get("asplang.least_model#", 0),
                "analysis.nogood_checks": total.get(
                    "asplang.Nogood.conflicts_with@analysis.run_pch#", 0
                ),
            }
        )
        values["analysis.useful_ratio"] = (
            counts["pch_calls"] / values["analysis.nogood_checks"] if values["analysis.nogood_checks"] else 0.0
        )
        values["rewrite.doubling_ratio"] = doubling_ratio(by_call, out_rules)
        per_pass.append(values)
    metrics = {name: statistics.median(v[name] for v in per_pass) for name in per_pass[0]}
    metrics["trace.overhead_s"] = statistics.median(p.wall for p in traced) - statistics.median(
        p.wall for p in untraced
    )
    metrics.update(counts)
    return metrics


def doubling_ratio(by_call: dict[str, dict], out_rules: dict[str, int]) -> float:
    """rewrite_objective time ratio n=256 : n=128 over the output-rule ratio."""
    small, large = "fine-128", "fine-256"
    if not (by_call.get(small) and by_call.get(large) and out_rules.get(small) and out_rules.get(large)):
        return 0.0
    seconds = by_call[large]["rewrite.rewrite_objective_s"] / by_call[small]["rewrite.rewrite_objective_s"]
    return seconds / (out_rules[large] / out_rules[small])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "optsort" / "cli.py").is_file():
        print(f"error: no optsort sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    end_to_end_units, per_layer_units = _declared("end_to_end"), _declared("per_layer")

    WORK.mkdir(exist_ok=True)
    try:
        gaps = Gaps()
        gaps.probe(1)
        calls = WORKLOADS[args.workload](args.seed)
        checker = Checker(args.seed)
        nominal = NOMINAL_PASS_S[args.workload]
        if args.trace:
            untraced = measure(calls, checker, args.seconds / 2, nominal, False, lambda: None)
            traced = measure(calls, checker, args.seconds / 2, nominal, True, lambda: None)
            metrics = per_layer(untraced, traced, checker, per_layer_units)
            units, notes = per_layer_units, [f"untraced passes {len(untraced)}, traced passes {len(traced)}"]
        else:
            passes = measure(calls, checker, args.seconds, nominal, False, gaps)
            gaps.probe(max(0, LEAST_SETUP_PROBES - len(gaps.setup)))
            least_calls = max(1, math.floor(args.seconds / nominal)) * len(calls)
            metrics, notes = end_to_end(gaps, passes, least_calls)
            units = end_to_end_units
            for name, value in checker.counts().items():
                notes.append(f"{name} {value} {per_layer_units[name]}")
    except SetupError as error:
        print(f"error: the trivial call optsort gen-sorter 1 failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    failed = len(checker.errors)
    for error in checker.errors:
        print(f"FAILED {error}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for note in notes:
        print(note)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"failed_ratio {failed / checker.attempted:.6g} ratio ({failed} of {checker.attempted} calls)")
    print(f"digest {checker.digest()}")
    result = {
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Traced launcher for the optsort CLI, and the per-layer metrics of its spans.

    python3 perfbench/tracing.py SPANS_PATH CALL_ID [optsort arguments...]

runs ``optsort.cli.main`` like the ``optsort`` command does, after wrapping
the public functions named in ``SPANNED`` in every optsort module that binds
their names.  Each wrapped call records a span (name, start, end, parent,
count) in memory; the hot leaves in ``LEAVES`` only add to a count and a
total time under the innermost open span.  At exit the spans are written to
SPANS_PATH as JSON, tagged with CALL_ID.  The program itself is not changed.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# Functions that get a span, by module; the optional function maps the call's
# arguments and result to a work count recorded on the span.
SPANNED = {
    "cli.main": None,
    "aspif.parse": None,
    "aspif.write": None,
    "aspif.to_ground_program": None,
    "network.oe_sorter": None,
    "network.limit_depth": None,
    "network.decompose_sparse": lambda args, result: len(result.components),
    "propagate.propagate_decomposition": lambda args, result: len(args[1].components),
    "encode.dense_wire_atom_map": None,
    "encode.asp_of_network": lambda args, result: len(result),
    "rewrite.rewrite_objective": None,
    "rewrite.verify_rewrite": None,
    "asplang.enumerate_answer_sets_layered": None,
    "asplang.enumerate_answer_sets_split": None,
    "analysis.run_pch": None,
    "analysis.attach_network": None,
}
LEAVES = ("asplang.least_model", "asplang.Nogood.conflicts_with")


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, count]
        self.stack: list[int] = []
        self.leaves: dict[tuple[int, str], list] = {}  # (span, leaf) -> [count, seconds]

    def span(self, name: str, fn, count):
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else None, None])
            self.stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    self.spans[index][4] = count(args, result)
                return result
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans[index][1:3] = [start, end]

        return wrapper

    def leaf(self, name: str, fn):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                key = (self.stack[-1] if self.stack else -1, name)
                entry = self.leaves.setdefault(key, [0, 0.0])
                entry[0] += 1
                entry[1] += elapsed

        return wrapper


def install(recorder: Recorder) -> None:
    """Replace every binding of the traced functions in the optsort modules."""
    import optsort.cli  # noqa: F401  (imports every layer)

    modules = [m for n, m in sys.modules.items() if n == "optsort" or n.startswith("optsort.")]
    for name, count in SPANNED.items():
        _replace(modules, name, lambda fn: recorder.span(name, fn, count))
    for name in LEAVES:
        _replace(modules, name, lambda fn: recorder.leaf(name, fn))


def _replace(modules: list, name: str, wrap) -> None:
    module, *owner, attr = name.split(".")
    target = sys.modules[f"optsort.{module}"]
    for part in owner:
        target = getattr(target, part)
    original = getattr(target, attr)
    wrapper = wrap(original)
    setattr(target, attr, wrapper)
    for m in modules:
        for key, value in list(vars(m).items()):
            if value is original:
                setattr(m, key, wrapper)


def _launch(spans_path: str, call_id: str, argv: list[str]) -> int:
    recorder = Recorder()
    install(recorder)
    try:
        code = sys.modules["optsort.cli"].main(argv)
    except SystemExit as stop:
        code = stop.code if isinstance(stop.code, int) else 1
    finally:
        sys.stdout.flush()
        leaves = [[span, leaf, n, t] for (span, leaf), (n, t) in recorder.leaves.items()]
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"call": call_id, "spans": recorder.spans, "leaves": leaves}, handle)
    return code


def layer_totals(trace: dict) -> dict[str, float]:
    """Per-layer totals of one traced call.

    ``<function>_s`` sums the spans of a function that are not nested in a
    span of the same function, so recursion is counted once; ``<function>#``
    sums span counts; ``<leaf>#`` and ``<leaf>_s`` sum leaf calls, and
    ``<leaf>@<span name>#`` counts the leaf calls made directly under that
    span.  ``rewrite.self_s`` is the time of ``rewrite_objective`` spans not
    covered by their child spans or leaves.
    """
    spans = trace["spans"]
    totals: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        totals[key] = totals.get(key, 0.0) + value

    covered = [0.0] * len(spans)
    for name, start, end, parent, count in spans:
        if parent is not None:
            covered[parent] += end - start
        ancestor = parent
        while ancestor is not None and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor is None:
            add(f"{name}_s", end - start)
        if count is not None:
            add(f"{name}#", count)
    for span, leaf, n, seconds in trace["leaves"]:
        add(f"{leaf}#", n)
        add(f"{leaf}_s", seconds)
        if span >= 0:
            covered[span] += seconds
            add(f"{leaf}@{spans[span][0]}#", n)
    for index, (name, start, end, _, _) in enumerate(spans):
        if name == "rewrite.rewrite_objective":
            add("rewrite.self_s", end - start - covered[index])
    return totals


if __name__ == "__main__":
    sys.exit(_launch(sys.argv[1], sys.argv[2], sys.argv[3:]))

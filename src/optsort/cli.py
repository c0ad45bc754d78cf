"""Command-line front end: rewriting, generation, verification, rendering.

The rewrite path is stream-friendly: aspif in on stdin or a file, aspif out
on stdout, diagnostics on stderr only.  Exit codes: 0 success, 1 verification
failure, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import gc
import random
import sys

from . import aspif
from .analysis import (
    attach_network,
    binomial_document,
    binomial_program,
    card_propagator,
    check_binomial_bytes,
    check_candidate_cost,
    output_atoms,
    run_pch,
)
from .asplang import SemanticsError, auto_split_atoms
from .network import layout_diagram, oe_sorter, render_diagram
from .propagate import from_input_weights, propagate_sparse
from .rewrite import (
    VERIFY_GRID,
    RewriteConfig,
    check_rule_budget,
    random_opt_document,
    rewrite_objective,
    verify_grid,
)


def _sparseness(value: str) -> int | None:
    if value == "inf":
        return None
    try:
        parsed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'inf', got {value!r}")
    if parsed < 1:
        raise argparse.ArgumentTypeError("sparseness must be >= 1")
    return parsed


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optsort",
        description="Rewrite aspif optimization statements through sorting networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rewrite = sub.add_parser("rewrite", help="rewrite minimize statements of an aspif document")
    p_rewrite.add_argument("input", nargs="?", help="aspif file (default: stdin)")
    p_rewrite.add_argument("-o", "--output", help="output file (default: stdout)")
    p_rewrite.add_argument("--depth", type=int, default=None, help="network depth limit")
    p_rewrite.add_argument(
        "--sparseness", type=_sparseness, default=1, help="propagation block size or 'inf'"
    )
    p_rewrite.add_argument("--no-propagate", action="store_true", help="attach the network only")
    p_rewrite.add_argument("--report", help="write a rewrite summary to this path")
    p_rewrite.add_argument(
        "--sidecar", help="write the wire-to-atom debug mapping to this path"
    )

    p_gen = sub.add_parser("gen-binomial", help="emit a subset-choice program with a lower bound")
    p_gen.add_argument("n", type=int)
    p_gen.add_argument("k", type=int)
    p_gen.add_argument("--opt", action="store_true", help="add the unit-weight objective")

    p_sorter = sub.add_parser("gen-sorter", help="build an odd-even sorting network")
    p_sorter.add_argument("n", type=int)
    p_sorter.add_argument("--depth", type=int, default=None, help="depth limit")

    p_verify = sub.add_parser(
        "verify", help="brute-force check rewriting on a document or random programs"
    )
    p_verify.add_argument("input", nargs="?", help="aspif file (default: stdin when piped)")
    p_verify.add_argument(
        "--random", action="store_true", help="sweep seeded random programs instead of reading input"
    )
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--count", type=int, default=20, help="number of random programs")
    p_verify.add_argument(
        "--max-atoms", type=int, default=16, help="refuse programs with more atoms"
    )

    p_pch = sub.add_parser("pch", help="simulate the propagator call history on a binomial program")
    p_pch.add_argument("n", type=int)
    p_pch.add_argument("k", type=int)
    p_pch.add_argument(
        "--network",
        default="none",
        help="'none', 'full', or 'depth:D' sorter attached to the choice atoms",
    )
    p_pch.add_argument("--trace", action="store_true", help="print one line per propagator call")

    p_render = sub.add_parser("render", help="draw a sorting network, optionally with weights")
    p_render.add_argument("n", type=int)
    p_render.add_argument("--depth", type=int, default=None, help="depth limit")
    p_render.add_argument("--weights", help="comma-separated input weights to propagate and show")
    p_render.add_argument(
        "--sparseness", type=_sparseness, default=1, help="propagation block size or 'inf'"
    )
    p_render.add_argument("--no-propagate", action="store_true")
    return parser


def _read_document(path: str | None) -> aspif.AspifDocument:
    if path is None:
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    doc = aspif.parse(text)
    if not doc.had_terminator:
        print("warning: missing terminator, one will be appended", file=sys.stderr)
    return doc


def _cmd_rewrite(args: argparse.Namespace) -> int:
    doc = _read_document(args.input)
    config = RewriteConfig(
        depth_limit=args.depth,
        sparseness=args.sparseness,
        propagate=not args.no_propagate,
    )
    rewritten, report = rewrite_objective(doc, config)
    text = aspif.write(rewritten)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(report.to_text() + "\n")
    if args.sidecar:
        with open(args.sidecar, "w", encoding="utf-8") as handle:
            handle.write(report.sidecar_text() + "\n")
    return 0


def _cmd_gen_binomial(args: argparse.Namespace) -> int:
    if args.n < 0 or args.k < 0:
        print("error: n and k must be non-negative", file=sys.stderr)
        return 2
    check_binomial_bytes(args.n)
    if args.k > args.n:
        print(f"warning: k={args.k} > n={args.n}, the program has no answer sets", file=sys.stderr)
    sys.stdout.write(aspif.write(binomial_document(args.n, args.k, opt=args.opt)))
    return 0


def _cmd_gen_sorter(args: argparse.Namespace) -> int:
    check_rule_budget([args.n], args.depth, f"a sorter on {args.n} wires")
    network = oe_sorter(args.n, args.depth)
    print(f"width={network.width} depth={network.depth} comparators={network.size()}")
    return 0


def _verify_document(doc: aspif.AspifDocument, max_atoms: int) -> tuple[bool, list[str]]:
    before = aspif.to_ground_program(doc)
    searched = len(auto_split_atoms(before[0]))
    if searched > max_atoms:
        raise SemanticsError(
            f"{searched} search atoms exceed --max-atoms {max_atoms}"
        )
    lines = []
    ok = True
    for config, report in verify_grid(doc, before):
        depth, sparseness = config.depth_limit, config.sparseness
        label = (
            f"depth={'inf' if depth is None else depth} "
            f"sparseness={'inf' if sparseness is None else sparseness} "
            f"propagate={'on' if config.propagate else 'off'}"
        )
        if report.ok:
            lines.append(f"{label} ok answer_sets={report.answer_sets}")
        else:
            ok = False
            lines.append(f"{label} FAIL {report.detail}")
    return ok, lines


def _cmd_verify(args: argparse.Namespace) -> int:
    if not args.random and (args.input is not None or not sys.stdin.isatty()):
        doc = _read_document(args.input)
        ok, lines = _verify_document(doc, args.max_atoms)
        print("\n".join(lines))
        return 0 if ok else 1
    if args.count < 0:
        print(f"error: --count must be >= 0, got {args.count}", file=sys.stderr)
        return 2
    # every program is checked before any line is printed, so a refusal
    # leaves stdout empty
    seeds = range(args.seed, args.seed + args.count)
    verdicts = [
        _verify_document(random_opt_document(random.Random(s)), args.max_atoms)[0]
        for s in seeds
    ]
    for seed, ok in zip(seeds, verdicts):
        print(f"program seed={seed} {'ok' if ok else 'FAIL'}")
    print(f"verified {len(seeds)} programs x {len(VERIFY_GRID)} configurations")
    return 0 if all(verdicts) else 1


def _cmd_pch(args: argparse.Namespace) -> int:
    if not (0 <= args.k <= args.n):
        print("error: need 0 <= k <= n", file=sys.stderr)
        return 2
    kind, _, depth = args.network.partition(":")
    if not (
        args.network in ("none", "full")
        or (kind == "depth" and depth.isascii() and depth.isdigit())
    ):
        print(
            f"error: unknown network kind {args.network!r} for --network, "
            "expected 'none', 'full' or 'depth:D' with an integer D >= 0",
            file=sys.stderr,
        )
        return 2
    program = binomial_program(args.n, args.k)
    inputs = list(range(1, args.n + 1))
    if args.network == "none":
        propagator = card_propagator(inputs, args.k)
    else:
        network = oe_sorter(args.n, int(depth) if kind == "depth" else None)
        added = network.width * network.depth + network.size()
        check_candidate_cost(args.n, len(program.normal_rules) + added)
        program, wire_map = attach_network(program, inputs, network)
        propagator = card_propagator(output_atoms(wire_map), args.k)
    trace = run_pch(program, propagator)
    if args.trace:
        print(trace.to_text())
    else:
        print(trace.summary())
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    check_rule_budget([args.n], args.depth, f"a sorter on {args.n} wires")
    network = oe_sorter(args.n, args.depth)
    annotations = None
    if args.weights is not None:
        try:
            weights = [int(w) for w in args.weights.split(",")]
        except ValueError:
            raise ValueError(
                f"--weights expects {args.n} comma-separated integers, got {args.weights!r}"
            ) from None
        if len(weights) != args.n:
            print(f"error: expected {args.n} weights, got {len(weights)}", file=sys.stderr)
            return 2
        layout_diagram(network, {})  # refuses a drawing too big even without labels
        matrix = from_input_weights(weights, network.depth)
        if not args.no_propagate:
            matrix = propagate_sparse(matrix, network, args.sparseness)
        annotations = {(i, j): str(w) for i, j, w in matrix.nonzero_entries()}
    drawing = render_diagram(network, annotations)
    sys.stdout.flush()  # the drawing's bytes bypass the text layer
    sys.stdout.buffer.write(drawing)
    sys.stdout.buffer.write(b"\n")
    return 0


_HANDLERS = {
    "rewrite": _cmd_rewrite,
    "gen-binomial": _cmd_gen_binomial,
    "gen-sorter": _cmd_gen_sorter,
    "verify": _cmd_verify,
    "pch": _cmd_pch,
    "render": _cmd_render,
}


def _run(argv: list[str] | None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError) as error:
        # every error class of the package subclasses ValueError
        print(f"error: {error}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    # Everything optsort builds is acyclic (tuples, ints, strings), so reference
    # counting frees it; the cyclic collector would only rescan the live
    # statement heap, about a quarter of a wide rewrite.  The caller's setting
    # comes back on every exit, argparse's SystemExit included.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())

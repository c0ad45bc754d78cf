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
    card_propagator,
    check_binomial_bytes,
    check_candidate_cost,
    run_pch,
)
from .network import layout_diagram, oe_sorter, render_diagram
from .rewrite import (
    VERIFY_GRID,
    RewriteConfig,
    check_random_count,
    check_rule_budget,
    place_weights,
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
    p_verify.add_argument("input", nargs="?", help="aspif file (default: stdin)")
    p_verify.add_argument(
        "--random", action="store_true", help="sweep seeded random programs instead of reading input"
    )
    p_verify.add_argument("--seed", type=int, help="first random seed (default: 0)")
    p_verify.add_argument("--count", type=int, help="number of random programs (default: 20)")

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
    # refused before any input is read: at a terminal a read of stdin would wait
    if args.depth is not None and args.depth < 0:
        raise ValueError(f"depth limit must be >= 0, got {args.depth}")
    doc = _read_document(args.input)
    config = RewriteConfig(args.depth, args.sparseness, not args.no_propagate)
    rewritten, report = rewrite_objective(doc, config)
    text = aspif.write(rewritten)
    # the report first: a path that cannot be written leaves stdout empty
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(report.to_text() + "\n")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_gen_binomial(args: argparse.Namespace) -> int:
    if args.n < 0 or args.k < 0:
        raise ValueError("n and k must be non-negative")
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


def _verify_document(doc: aspif.AspifDocument) -> tuple[bool, list[str]]:
    lines = []
    ok = True
    for config, report in verify_grid(doc):
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
    # a flag that does not apply is refused before any input is read
    if not args.random:
        if args.seed is not None or args.count is not None:
            flag = "--seed" if args.seed is not None else "--count"
            raise ValueError(f"{flag} applies only with --random")
        ok, lines = _verify_document(_read_document(args.input))
        print("\n".join(lines))
        return 0 if ok else 1
    if args.input is not None:
        raise ValueError(f"verify --random reads no input, got the file {args.input!r}")
    first = 0 if args.seed is None else args.seed
    count = 20 if args.count is None else args.count
    if count < 0:
        raise ValueError(f"--count must be >= 0, got {count}")
    check_random_count(count)
    # every program is checked before any line is printed, so a refusal
    # leaves stdout empty
    seeds = range(first, first + count)
    verdicts = [_verify_document(random_opt_document(random.Random(s)))[0] for s in seeds]
    for seed, ok in zip(seeds, verdicts):
        print(f"program seed={seed} {'ok' if ok else 'FAIL'}")
    print(f"verified {len(seeds)} programs x {len(VERIFY_GRID)} configurations")
    return 0 if all(verdicts) else 1


def _cmd_pch(args: argparse.Namespace) -> int:
    if not (0 <= args.k <= args.n):
        raise ValueError("need 0 <= k <= n")
    kind, _, depth = args.network.partition(":")
    if not (
        args.network in ("none", "full")
        or (kind == "depth" and depth.isascii() and depth.isdigit())
    ):
        raise ValueError(
            f"unknown network kind {args.network!r} for --network, "
            "expected 'none', 'full' or 'depth:D' with an integer D >= 0"
        )
    depth_limit = 0 if args.network == "none" else None if args.network == "full" else int(depth)
    # the cost is checked before the program is built: the binomial program
    # has no normal rules, and a sorter, once the rule budget admits it,
    # adds width x depth + size
    check_rule_budget([args.n], depth_limit, f"a sorter on {args.n} wires")
    network = oe_sorter(args.n, depth_limit)
    check_candidate_cost(args.n, network.width * network.depth + network.size())
    document = binomial_document(args.n, args.k, opt=True)
    program, watched = attach_network(document, depth_limit)
    trace = run_pch(program, card_propagator(watched, args.k))
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
            raise ValueError(f"expected {args.n} weights, got {len(weights)}")
        layout_diagram(network, {})  # refuses a drawing too big even without labels
        config = RewriteConfig(args.depth, args.sparseness, not args.no_propagate)
        placed = place_weights(weights, network, config)
        annotations = {(i, j): str(w) for i, j, w in placed}
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

"""Output checks that do not rely on optsort's own reader or semantics.

The rewrite check reads the emitted text with a minimal reader of its own,
computes the least model of the new bridge and network rules under seeded
0/1 assignments to the original atoms, and compares every priority's
minimize value with the value of the original objective.  The harness
checks compare ``verify`` and ``pch`` verdicts with answers the benchmark
knows or computes by itself.
"""

from __future__ import annotations

import math
import random

VERIFY_CONFIGURATIONS = 30


def aspif_shape_error(text: str) -> str | None:
    """Why ``text`` is not an aspif document, or None."""
    lines = text.split("\n")
    if len(lines) < 3 or lines[-1] != "" or not lines[0].startswith("asp 1 0 0"):
        return "stdout is not an aspif document"
    if lines[-2] != "0":
        return "aspif output lacks the terminator"
    for line in lines[1:-2]:
        if not line.split(" ", 1)[0].isdigit():
            return f"aspif output has a bad statement line {line[:40]!r}"
    return None


def _minimize_terms(tokens: list[str]) -> tuple[int, list[tuple[int, int]]]:
    count = int(tokens[2])
    flat = list(map(int, tokens[3 : 3 + 2 * count]))
    return int(tokens[1]), list(zip(flat[0::2], flat[1::2]))


def _split_document(text: str, max_atom: int):
    """Minimize terms by priority, new rules, kept lines and counts."""
    minimize: dict[int, list[tuple[int, int]]] = {}
    new_rules: list[tuple[int, list[int]]] = []
    kept: list[str] = []
    rules = 0
    for line in text.split("\n")[1:-2]:
        tokens = line.split(" ")
        if tokens[0] == "2":
            priority, terms = _minimize_terms(tokens)
            minimize.setdefault(priority, []).extend(terms)
            continue
        if tokens[0] == "1":
            rules += 1
            if tokens[1] == "0" and tokens[2] == "1" and int(tokens[3]) > max_atom:
                if tokens[4] != "0":
                    raise ValueError(f"new rule without a normal body: {line[:60]!r}")
                new_rules.append((int(tokens[3]), list(map(int, tokens[6:]))))
                continue
        kept.append(line)
    return minimize, new_rules, kept, rules


def _least_model(
    new_rules: list[tuple[int, list[int]]], true_original: set[int], max_atom: int
) -> set[int]:
    # Bodies may hold original literals of either sign (bridge rules) and
    # positive fresh atoms (network rules).  Original literals are fixed by
    # the assignment, so the rest is a positive program: iterate to the
    # least fixpoint.
    fixed: list[tuple[int, tuple[int, ...]]] = []
    for head, body in new_rules:
        fresh = []
        holds = True
        for lit in body:
            if abs(lit) <= max_atom:
                holds = holds and ((abs(lit) in true_original) == (lit > 0))
            elif lit > 0:
                fresh.append(lit)
            else:
                raise ValueError(f"rule for {head} negates the fresh atom {-lit}")
        if holds:
            fixed.append((head, tuple(fresh)))
    model: set[int] = set()
    changed = True
    while changed:
        changed = False
        for head, body in fixed:
            if head not in model and all(map(model.__contains__, body)):
                model.add(head)
                changed = True
    return model


def _value(terms: list[tuple[int, int]], true_atoms: set[int]) -> int:
    return sum(w for lit, w in terms if (abs(lit) in true_atoms) == (lit > 0))


def check_rewrite(source: str, output: str, max_atom: int, seed: int) -> tuple[str | None, dict]:
    """Check one rewrite; returns (error or None, output counts)."""
    counts = {"out_bytes": len(output.encode())}
    shape = aspif_shape_error(output)
    if shape:
        return shape, counts
    try:
        before, before_rules, before_kept, _ = _split_document(source, max_atom)
        after, new_rules, kept, rules = _split_document(output, max_atom)
    except (ValueError, IndexError) as error:
        return f"unreadable rewrite output: {error}", counts
    fresh = {h for h, _ in new_rules} | {abs(l) for t in after.values() for l, _ in t if abs(l) > max_atom}
    counts.update(
        out_rules=rules,
        out_atoms=len(fresh),
        out_min_terms=sum(len(t) for t in after.values()),
    )
    if before_rules:
        return "the benchmark input already holds atoms above its declared maximum", counts
    if kept != before_kept:
        return "non-minimize statements did not come out verbatim and in order", counts
    if set(after) != set(before):
        return f"priorities changed from {sorted(before)} to {sorted(after)}", counts
    atoms = sorted({abs(l) for t in before.values() for l, _ in t})
    rng = random.Random(seed)
    assignments = [set(), set(atoms)] + [
        {a for a in atoms if rng.random() < 0.5} for _ in range(3)
    ]
    for true_original in assignments:
        try:
            model = _least_model(new_rules, true_original, max_atom) | true_original
        except ValueError as error:
            return str(error), counts
        for priority, terms in before.items():
            want = _value(terms, true_original)
            got = _value(after[priority], model)
            if want != got:
                return (
                    f"priority {priority} value {got} differs from the original {want} "
                    f"on an assignment with {len(true_original)} true atoms"
                ), counts
    return None, counts


def answer_set_count(facts: dict) -> int:
    """Answer sets of a generated program, by brute force over its choices."""
    choice = facts["choice"]
    count = 0
    for mask in range(1 << len(choice)):
        model = {a for b, a in enumerate(choice) if mask >> b & 1}
        for head, body in facts["rules"]:
            if all((abs(l) in model) == (l > 0) for l in body):
                model.add(head)
        fires = any(
            sum((abs(l) in model) == (l > 0) for l in lits) >= bound
            for bound, lits in facts["constraints"]
        )
        count += not fires
    return count


def check_verify(output: str, answer_sets: int) -> str | None:
    lines = output.splitlines()
    if len(lines) != VERIFY_CONFIGURATIONS:
        return f"verify printed {len(lines)} lines, expected {VERIFY_CONFIGURATIONS}"
    expected = f" ok answer_sets={answer_sets}"
    for line in lines:
        if not line.endswith(expected):
            return f"verify line {line!r} does not end with {expected!r}"
    return None


def check_pch(output: str, n: int, k: int, network: str) -> tuple[str | None, int]:
    """Check one ``pch`` summary line; returns (error or None, history length)."""
    fields = dict(part.split("=", 1) for part in output.split() if "=" in part)
    if set(fields) != {"m", "complete"} or not fields["m"].isdigit():
        return f"unexpected pch output {output.strip()!r}", 0
    m = int(fields["m"])
    if fields["complete"] != "true":
        return "pch history is incomplete", m
    if network == "none" and m != math.comb(n, k):
        return f"pch without a network gave m={m}, expected C({n},{k})={math.comb(n, k)}", m
    if network == "full" and m > n - k + 1:
        return f"pch with the full sorter gave m={m} > n-k+1={n - k + 1}", m
    return None, m

"""Seeded inputs for the four benchmark workloads.

Every workload is a list of CLI calls that make up one pass.  Inputs come
only from the seed, and the sizes that set the cost of a pass (wired terms,
body rules, choice atoms, objective terms) follow a fixed schedule, so a new
seed changes the content of the inputs but not the amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Call:
    """One CLI call of a pass.

    ``stdin_from`` names an earlier call of the same pass whose stdout is
    piped in, as in ``optsort gen-binomial 10 5 --opt | optsort verify``.
    ``facts`` carries what the generator knows about the input, for the
    output checks.
    """

    label: str
    argv: tuple[str, ...]
    stdin: str | None = None
    stdin_from: str | None = None
    facts: dict = field(default_factory=dict)


def _objective_terms(rng: random.Random, atoms: list[int], spare: int) -> list[tuple[int, int]]:
    # One term per atom, about 20 % negated, weights in 1..1000.  Then a few
    # duplicates (merged into existing slots), zero and negative weights on the
    # spare atoms (passed through), so the wired count stays len(atoms).
    terms = [(-a if rng.random() < 0.2 else a, rng.randint(1, 1000)) for a in atoms]
    terms += [(lit, rng.randint(1, 1000)) for lit, _ in rng.sample(terms, 4)]
    terms += [(spare + 1, 0), (-(spare + 2), 0), (spare + 3, 0)]
    terms += [(spare + 4, -rng.randint(1, 1000)), (-(spare + 5), -rng.randint(1, 1000))]
    rng.shuffle(terms)
    return terms


def _minimize_line(priority: int, terms: list[tuple[int, int]]) -> str:
    flat = " ".join(f"{lit} {w}" for lit, w in terms)
    return f"2 {priority} {len(terms)} {flat}"


def _document(lines: list[str]) -> str:
    return "\n".join(["asp 1 0 0", *lines, "0"]) + "\n"


def _objective_call(label: str, rng: random.Random, n: int, args: tuple[str, ...]) -> Call:
    terms = _objective_terms(rng, list(range(1, n + 1)), n)
    return Call(
        label,
        ("rewrite", *args),
        stdin=_document([_minimize_line(0, terms)]),
        facts={"max_atom": n + 5},
    )


def rewrite_fine(seed: int) -> list[Call]:
    rng = random.Random(seed)
    return [
        _objective_call("fine-128", rng, 128, ("--sparseness", "1")),
        _objective_call("fine-256", rng, 256, ("--sparseness", "1")),
        _objective_call("fine-512-d8", rng, 512, ("--depth", "8", "--sparseness", "1")),
    ]


def _wide_body(rng: random.Random, atoms: int, rules: int) -> list[str]:
    # A 64-atom choice, normal rules, integrity constraints, a few weight
    # constraints and outputs, then raw external and heuristic lines.  All
    # lines are in canonical aspif spelling so they must come back verbatim.
    choice = 64
    lines = [f"1 1 {choice} {' '.join(map(str, range(1, choice + 1)))} 0 0"]
    lines.append(f"1 0 1 {atoms} 0 1 1")
    for idx in range(rules - 2):
        k = rng.randint(1, 3)
        body = [a if rng.random() < 0.8 else -a for a in rng.sample(range(1, atoms + 1), k)]
        lits = " ".join(map(str, body))
        if idx % 50 == 49:
            terms = " ".join(f"{lit} 1" for lit in body)
            lines.append(f"1 0 0 1 {max(1, k - 1)} {k} {terms}")
        elif idx % 10 == 9:
            lines.append(f"1 0 0 0 {k} {lits}")
        else:
            head = rng.randint(choice + 1, atoms)
            lines.append(f"1 0 1 {head} 0 {k} {lits}")
    for a in rng.sample(range(1, choice + 1), 8):
        lines.append(f"4 3 a{a % 10:02d} 1 {a}")
    for a in rng.sample(range(choice + 1, atoms + 1), 40):
        lines.append(f"5 {a} {rng.randint(0, 3)}")
    for a in rng.sample(range(1, choice + 1), 40):
        lines.append(f"7 {rng.randint(0, 5)} {a} {rng.randint(-5, 5)} {rng.randint(0, 9)} 0")
    return lines


def rewrite_wide(seed: int) -> list[Call]:
    rng = random.Random(seed)
    atoms = 20_000
    body = _wide_body(rng, atoms, 50_000)
    wired = sorted(rng.sample(range(1, atoms + 1), 2048))
    terms = _objective_terms(rng, wired, atoms)
    # The objective sits in the middle of the body, so the rewritten block
    # must land where the minimize statement was.
    lines = body[:25_000] + [_minimize_line(0, terms)] + body[25_000:]
    wide = Call(
        "wide-2048",
        ("rewrite", "--sparseness", "inf"),
        stdin=_document(lines),
        facts={"max_atom": atoms + 5},
    )
    return [wide, _objective_call("wide-4096-d8", rng, 4096, ("--depth", "8", "--sparseness", "inf"))]


def _random_program(rng: random.Random, index: int) -> tuple[str, dict]:
    """A small optimization program the benchmark can solve by itself.

    Choice atoms are free; each derived atom has one rule over earlier atoms
    with negation only on choice atoms, so every choice subset fixes one
    candidate model and the answer sets are the candidates no constraint
    rejects.  Everything that sets the cost of verifying it follows
    ``index``: 5..8 choice atoms, 8..14 distinct objective literals with one
    zero and one negative weight per priority, 1..2 priorities, an integrity
    constraint over three choice literals on every third program and an
    at-least-half cardinality constraint on every fourth.  The seed picks
    literals, signs and weights.
    """
    n_choice = 5 + index % 4
    n_terms = 8 + index % 7
    priorities = 1 + index % 2
    choice = list(range(1, n_choice + 1))
    lines = [f"1 1 {n_choice} {' '.join(map(str, choice))} 0 0"]
    rules: list[tuple[int, list[int]]] = []
    constraints: list[tuple[int, list[int]]] = []  # (bound, literals of weight 1)
    atoms = list(choice)
    for _ in range(3):
        head = atoms[-1] + 1
        body = [a if a > n_choice or rng.random() < 0.7 else -a for a in rng.sample(atoms, 2)]
        rules.append((head, body))
        lines.append(f"1 0 1 {head} 0 2 {' '.join(map(str, body))}")
        atoms.append(head)
    if index % 3 == 0:
        body = [a if rng.random() < 0.6 else -a for a in rng.sample(choice, 3)]
        constraints.append((3, body))
        lines.append(f"1 0 0 0 3 {' '.join(map(str, body))}")
    if index % 4 == 1:
        # Fires when more than half of the choice atoms are false.
        bound = n_choice - n_choice // 2 + 1
        body = [-a for a in choice]
        constraints.append((bound, body))
        terms = " ".join(f"{lit} 1" for lit in body)
        lines.append(f"1 0 0 1 {bound} {n_choice} {terms}")
    literals = rng.sample(atoms + [-a for a in atoms], n_terms)
    per_priority = [n_terms - n_terms // 2, n_terms // 2] if priorities == 2 else [n_terms]
    for priority, count in enumerate(per_priority):
        level, literals = literals[:count], literals[count:]
        weights = [0, -rng.randint(1, 9)] + [rng.randint(1, 30) for _ in range(count - 2)]
        rng.shuffle(weights)
        lines.append(_minimize_line(priority, list(zip(level, weights))))
    facts = {"choice": choice, "rules": rules, "constraints": constraints}
    return _document(lines), facts


VERIFY_PROGRAMS = 14


def verify_grid(seed: int) -> list[Call]:
    rng = random.Random(seed)
    calls = []
    for index in range(VERIFY_PROGRAMS):
        text, facts = _random_program(rng, index)
        calls.append(Call(f"program-{index:02d}", ("verify",), stdin=text, facts=facts))
    calls.append(Call("gen-binomial-10-5", ("gen-binomial", "10", "5", "--opt")))
    calls.append(
        Call(
            "verify-binomial-10-5",
            ("verify",),
            stdin_from="gen-binomial-10-5",
            facts={"answer_sets": 638},
        )
    )
    return calls


def pch(seed: int) -> list[Call]:
    # The pch subcommand generates its own program, so the seed has no effect.
    del seed
    return [
        Call("pch-12-6-none", ("pch", "12", "6", "--network", "none"), facts={"n": 12, "k": 6}),
        Call("pch-12-6-full", ("pch", "12", "6", "--network", "full"), facts={"n": 12, "k": 6}),
        Call("pch-12-6-d4", ("pch", "12", "6", "--network", "depth:4"), facts={"n": 12, "k": 6}),
        Call("pch-13-6-d5", ("pch", "13", "6", "--network", "depth:5"), facts={"n": 13, "k": 6}),
    ]


WORKLOADS = {
    "rewrite-fine": rewrite_fine,
    "rewrite-wide": rewrite_wide,
    "verify-grid": verify_grid,
    "pch": pch,
}

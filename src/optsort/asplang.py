"""Ground answer-set programs and their brute-force semantics.

Programs mix normal rules, choice rules, cardinality constraints and nogoods
over positive integer atoms.  Everything here is meant for desk-scale
verification: answer sets and supported models are enumerated exhaustively,
guarded by an atom-count limit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

MAX_ENUM_ATOMS = 24

Interpretation = frozenset[int]


class SemanticsError(ValueError):
    """Raised for malformed programs or blown enumeration guards."""


class Literal(NamedTuple):
    """An atom or its default negation."""

    atom: int
    positive: bool = True

    def satisfied_by(self, interpretation: frozenset[int]) -> bool:
        return (self.atom in interpretation) == self.positive

    def negated(self) -> "Literal":
        return Literal(self.atom, not self.positive)


def pos(atom: int) -> Literal:
    return Literal(atom, True)


def neg(atom: int) -> Literal:
    return Literal(atom, False)


@dataclass(frozen=True)
class NormalRule:
    head: int
    pos_body: frozenset[int] = frozenset()
    neg_body: frozenset[int] = frozenset()

    def body_satisfied_by(self, interpretation: frozenset[int]) -> bool:
        return self.pos_body <= interpretation and not (self.neg_body & interpretation)

    def atoms(self) -> frozenset[int]:
        return frozenset({self.head}) | self.pos_body | self.neg_body


def rule(head: int, body: Iterable[int] = (), not_body: Iterable[int] = ()) -> NormalRule:
    return NormalRule(head, frozenset(body), frozenset(not_body))


def fact(head: int) -> NormalRule:
    return NormalRule(head)


@dataclass(frozen=True)
class ChoiceRule:
    """Justifies any subset of its head atoms when the body holds."""

    head_atoms: frozenset[int]
    body: frozenset[Literal] = frozenset()

    def __post_init__(self) -> None:
        if not self.head_atoms:
            raise SemanticsError("choice rule needs a nonempty head")

    def body_satisfied_by(self, interpretation: frozenset[int]) -> bool:
        return all(l.satisfied_by(interpretation) for l in self.body)

    def atoms(self) -> frozenset[int]:
        return self.head_atoms | frozenset(l.atom for l in self.body)


@dataclass(frozen=True)
class CardinalityConstraint:
    """Requires at least ``lower_bound`` of the listed literals to hold."""

    literals: tuple[Literal, ...]
    lower_bound: int

    def __post_init__(self) -> None:
        n = len(set(self.literals))
        if not (0 <= self.lower_bound <= n + 1):
            raise SemanticsError(
                f"cardinality bound {self.lower_bound} outside 0..{n + 1}"
            )

    def satisfied_by(self, interpretation: frozenset[int]) -> bool:
        distinct = set(self.literals)
        return sum(1 for l in distinct if l.satisfied_by(interpretation)) >= self.lower_bound

    def atoms(self) -> frozenset[int]:
        return frozenset(l.atom for l in self.literals)


@dataclass(frozen=True)
class Nogood:
    """Forbids every total assignment extending the signed literals.

    Signed literals are (atom, sign) pairs, sign True meaning assigned true.
    """

    signed_literals: frozenset[tuple[int, bool]]

    def __post_init__(self) -> None:
        atoms = [a for a, _ in self.signed_literals]
        if len(atoms) != len(set(atoms)):
            raise SemanticsError("nogood mentions an atom with both signs")

    def conflicts_with(self, interpretation: frozenset[int]) -> bool:
        return all((a in interpretation) == sign for a, sign in self.signed_literals)

    def satisfied_by(self, interpretation: frozenset[int]) -> bool:
        return not self.conflicts_with(interpretation)

    def atoms(self) -> frozenset[int]:
        return frozenset(a for a, _ in self.signed_literals)


def nogood(true_atoms: Iterable[int] = (), false_atoms: Iterable[int] = ()) -> Nogood:
    signed = {(a, True) for a in true_atoms} | {(a, False) for a in false_atoms}
    return Nogood(frozenset(signed))


@dataclass(frozen=True)
class GroundProgram:
    signature: frozenset[int]
    normal_rules: tuple[NormalRule, ...] = ()
    choice_rules: tuple[ChoiceRule, ...] = ()
    cardinality_constraints: tuple[CardinalityConstraint, ...] = ()
    nogoods: tuple[Nogood, ...] = ()

    def __post_init__(self) -> None:
        used = self.used_atoms()
        if not used <= self.signature:
            raise SemanticsError(
                f"atoms {sorted(used - self.signature)} missing from signature"
            )
        for a in self.signature:
            if a < 1:
                raise SemanticsError(f"atom ids must be >= 1, got {a}")

    def used_atoms(self) -> frozenset[int]:
        used: set[int] = set()
        for r in self.normal_rules:
            used |= r.atoms()
        for c in self.choice_rules:
            used |= c.atoms()
        for cc in self.cardinality_constraints:
            used |= cc.atoms()
        for ng in self.nogoods:
            used |= ng.atoms()
        return frozenset(used)

    def head_atoms(self) -> frozenset[int]:
        heads = {r.head for r in self.normal_rules}
        for c in self.choice_rules:
            heads |= c.head_atoms
        return frozenset(heads)


@dataclass(frozen=True)
class ObjectiveFunction:
    """One priority level of a minimize statement: weighted literals."""

    terms: tuple[tuple[int, Literal], ...]

    def atoms(self) -> frozenset[int]:
        return frozenset(l.atom for _, l in self.terms)


class FreshAtoms:
    """Hands out unused atom ids, counting up from a start value."""

    def __init__(self, first_free: int):
        self._next = first_free

    def take(self) -> int:
        atom = self._next
        self._next += 1
        return atom

    def reserve(self, count: int) -> int:
        """Claim a contiguous block of ids; returns the first one."""
        first = self._next
        self._next += count
        return first

    @property
    def next_id(self) -> int:
        return self._next


def expand_choice(rule: ChoiceRule, fresh: FreshAtoms) -> list[NormalRule]:
    """Rewrite a choice rule into 1 + 2*|head| normal rules.

    A fresh trigger atom carries the body; each head atom a gets the pair
    a :- not a', trigger and a' :- not a with a fresh complement atom a'.
    """
    trigger = fresh.take()
    pos_body = frozenset(l.atom for l in rule.body if l.positive)
    neg_body = frozenset(l.atom for l in rule.body if not l.positive)
    out = [NormalRule(trigger, pos_body, neg_body)]
    for a in sorted(rule.head_atoms):
        complement = fresh.take()
        out.append(NormalRule(a, frozenset({trigger}), frozenset({complement})))
        out.append(NormalRule(complement, frozenset(), frozenset({a})))
    return out


def expand_cardinality(cc: CardinalityConstraint, guard: int = 10**6) -> list[Nogood]:
    """Materialize the constraint as one nogood per falsifiable subset.

    Each (n - k + 1)-subset of the distinct literals yields the nogood that
    forbids falsifying the whole subset at once.
    """
    literals = sorted(set(cc.literals))
    n = len(literals)
    size = n - cc.lower_bound + 1
    if size < 0:
        return []
    if size > n:
        return []
    if math.comb(n, size) > guard:
        raise SemanticsError(
            f"cardinality expansion of C({n}, {size}) subsets exceeds guard {guard}"
        )
    out = []
    for subset in itertools.combinations(literals, size):
        signed = frozenset(
            (l.atom, False) if l.positive else (l.atom, True) for l in subset
        )
        out.append(Nogood(signed))
    return out


def reduct(program: GroundProgram, interpretation: frozenset[int]) -> list[NormalRule]:
    """Gelfond-Lifschitz reduct; requires choice rules to be expanded already."""
    if program.choice_rules:
        raise SemanticsError("reduct expects a program without choice rules")
    return [
        NormalRule(r.head, r.pos_body, frozenset())
        for r in program.normal_rules
        if not (r.neg_body & interpretation)
    ]


def _derivations(
    program: GroundProgram, interpretation: frozenset[int]
) -> list[tuple[int, frozenset[int]]]:
    # Positive derivation rules available under the candidate interpretation.
    # Choice heads in the candidate count as derivable whenever their body's
    # negative part is not blocked; the positive part still must be derived.
    out = [
        (r.head, r.pos_body)
        for r in program.normal_rules
        if not (r.neg_body & interpretation)
    ]
    for c in program.choice_rules:
        blocked = any(
            not l.satisfied_by(interpretation) for l in c.body if not l.positive
        )
        if blocked:
            continue
        pos_body = frozenset(l.atom for l in c.body if l.positive)
        for a in c.head_atoms & interpretation:
            out.append((a, pos_body))
    return out


class PositiveRules:
    """Positive (head, positive-body) rules compiled for repeated closure.

    Compiling builds the premise counts and the atom-to-rule index once;
    each closure copies only the counts, so closing many fact sets over the
    same rules costs no rebuild.
    """

    def __init__(self, derivation_rules: Iterable[tuple[int, frozenset[int]]]):
        self._heads: list[int] = []
        self._premises: list[int] = []
        self._waiting: dict[int, list[int]] = {}
        self._facts: list[int] = []
        for idx, (head, body) in enumerate(derivation_rules):
            self._heads.append(head)
            self._premises.append(len(body))
            if not body:
                self._facts.append(head)
            for atom in body:
                self._waiting.setdefault(atom, []).append(idx)

    def closure(self, facts: Iterable[int] = ()) -> frozenset[int]:
        """Least model of the rules plus the given facts.

        Linear in the total body size, via unsatisfied-premise counting.
        """
        heads, waiting = self._heads, self._waiting
        missing = self._premises.copy()
        stack = [*self._facts, *facts]
        model: set[int] = set()
        while stack:
            atom = stack.pop()
            if atom in model:
                continue
            model.add(atom)
            for idx in waiting.get(atom, ()):
                missing[idx] -= 1
                if missing[idx] == 0:
                    stack.append(heads[idx])
        return frozenset(model)


def least_model(derivation_rules: Iterable[tuple[int, frozenset[int]]]) -> frozenset[int]:
    """Least fixpoint of a set of positive (head, positive-body) rules."""
    return PositiveRules(derivation_rules).closure()


def satisfies(program: GroundProgram, interpretation: frozenset[int]) -> bool:
    """Classical satisfaction of rules, cardinality constraints and nogoods."""
    for r in program.normal_rules:
        if r.body_satisfied_by(interpretation) and r.head not in interpretation:
            return False
    for cc in program.cardinality_constraints:
        if not cc.satisfied_by(interpretation):
            return False
    for ng in program.nogoods:
        if ng.conflicts_with(interpretation):
            return False
    return True


def is_answer_set(program: GroundProgram, interpretation: frozenset[int]) -> bool:
    """Stable-model check: satisfaction plus derivability of every true atom.

    The candidate must equal the least model of its reduct, so atoms that head
    no rule (normal or choice) can never be true in an answer set.
    """
    if not interpretation <= program.signature:
        return False
    if not satisfies(program, interpretation):
        return False
    return least_model(_derivations(program, interpretation)) == interpretation


def _enum_guard(atom_count: int) -> None:
    if atom_count > MAX_ENUM_ATOMS:
        raise SemanticsError(
            f"{atom_count} atoms exceed the brute-force guard of {MAX_ENUM_ATOMS}"
        )


def _lex_sorted(models: Iterable[frozenset[int]]) -> list[frozenset[int]]:
    return sorted(models, key=lambda m: tuple(sorted(m)))


def _candidate_interpretations(program: GroundProgram) -> Iterable[frozenset[int]]:
    _enum_guard(len(program.signature))
    # Only head atoms can be true in answer sets or supported models, so the
    # search space is restricted to subsets of them.
    heads = sorted(program.head_atoms())
    for size_mask in range(1 << len(heads)):
        yield frozenset(a for bit, a in enumerate(heads) if size_mask >> bit & 1)


def enumerate_answer_sets(program: GroundProgram) -> list[frozenset[int]]:
    """All answer sets, in lexicographic order of their sorted atom tuples."""
    return _lex_sorted(
        i for i in _candidate_interpretations(program) if is_answer_set(program, i)
    )


def is_supported_model(program: GroundProgram, interpretation: frozenset[int]) -> bool:
    """Model where every true atom heads some rule with a satisfied body."""
    if not interpretation <= program.signature:
        return False
    if not satisfies(program, interpretation):
        return False
    for a in interpretation:
        supported = any(
            r.head == a and r.body_satisfied_by(interpretation)
            for r in program.normal_rules
        ) or any(
            a in c.head_atoms and c.body_satisfied_by(interpretation)
            for c in program.choice_rules
        )
        if not supported:
            return False
    return True


def enumerate_supported_models(program: GroundProgram) -> list[frozenset[int]]:
    return _lex_sorted(
        i
        for i in _candidate_interpretations(program)
        if is_supported_model(program, i)
    )


def evaluate(objective: ObjectiveFunction, interpretation: frozenset[int]) -> int:
    """Sum of weights of the satisfied literals."""
    return sum(w for w, l in objective.terms if l.satisfied_by(interpretation))


def optimal_value(program: GroundProgram, objective: ObjectiveFunction) -> int | None:
    answer_sets = enumerate_answer_sets(program)
    if not answer_sets:
        return None
    return min(evaluate(objective, m) for m in answer_sets)


@dataclass(frozen=True)
class _SplitParts:
    bottom: GroundProgram
    top_rules: tuple[NormalRule, ...]
    straddling_cardinality: tuple[CardinalityConstraint, ...]
    straddling_nogoods: tuple[Nogood, ...]


def _split(program: GroundProgram, bottom_atoms: frozenset[int]) -> _SplitParts:
    bottom_rules, top_rules = [], []
    for r in program.normal_rules:
        if r.head in bottom_atoms:
            if not r.atoms() <= bottom_atoms:
                raise SemanticsError(
                    f"rule for {r.head} reaches outside the splitting set"
                )
            bottom_rules.append(r)
        elif r.neg_body - bottom_atoms:
            raise SemanticsError(
                f"rule for {r.head} negates atoms "
                f"{sorted(r.neg_body - bottom_atoms)} above the splitting set"
            )
        else:
            top_rules.append(r)
    for c in program.choice_rules:
        if not c.head_atoms & bottom_atoms:
            raise SemanticsError(
                f"choice rule for {sorted(c.head_atoms)} lies above the splitting set"
            )
        if not c.atoms() <= bottom_atoms:
            raise SemanticsError("choice rule straddles the splitting set")
    bottom_cc, straddle_cc = [], []
    for cc in program.cardinality_constraints:
        (bottom_cc if cc.atoms() <= bottom_atoms else straddle_cc).append(cc)
    bottom_ng, straddle_ng = [], []
    for ng in program.nogoods:
        (bottom_ng if ng.atoms() <= bottom_atoms else straddle_ng).append(ng)
    bottom = GroundProgram(
        signature=frozenset(bottom_atoms),
        normal_rules=tuple(bottom_rules),
        choice_rules=program.choice_rules,
        cardinality_constraints=tuple(bottom_cc),
        nogoods=tuple(bottom_ng),
    )
    return _SplitParts(bottom, tuple(top_rules), tuple(straddle_cc), tuple(straddle_ng))


def auto_split_atoms(program: GroundProgram) -> frozenset[int]:
    """Smallest workable splitting set for layered enumeration.

    Seeds with everything that demands search or constrains models (choice
    rules, nogoods, cardinality constraints, negated body atoms) and closes
    under rule definitions, so the part above the split reduces to a positive
    program once the bottom is fixed.
    """
    bottom: set[int] = set()
    for c in program.choice_rules:
        bottom |= c.atoms()
    for ng in program.nogoods:
        bottom |= ng.atoms()
    for cc in program.cardinality_constraints:
        bottom |= cc.atoms()
    for r in program.normal_rules:
        bottom |= r.neg_body
    changed = True
    while changed:
        changed = False
        for r in program.normal_rules:
            if r.head in bottom and not r.atoms() <= bottom:
                bottom |= r.atoms()
                changed = True
    return frozenset(bottom)


def enumerate_answer_sets_layered(program: GroundProgram) -> list[frozenset[int]]:
    """Answer sets via an automatically chosen splitting set.

    Falls back to plain brute force when no proper split exists.  This keeps
    programs whose upper layers are positive and deterministic (for example
    attached network translations) enumerable far beyond the flat guard.
    """
    bottom_atoms = auto_split_atoms(program)
    if bottom_atoms >= program.used_atoms():
        return enumerate_answer_sets(program)
    return enumerate_answer_sets_split(program, bottom_atoms)


def enumerate_answer_sets_split(
    program: GroundProgram, bottom_atoms: frozenset[int]
) -> list[frozenset[int]]:
    """Enumerate answer sets layer by layer across a splitting set.

    ``bottom_atoms`` must be closed under rule heads: any rule defining a
    bottom atom may only mention bottom atoms.  The part above the split may
    negate bottom atoms only and may hold no choice rule; anything else
    raises SemanticsError.  By the splitting-set theorem each bottom answer
    set M then extends to exactly one candidate, the least model of the
    upper rules over M.  The upper rules are compiled once, with ``-b``
    standing for ``not b``, and each M is closed together with ``-b`` for
    every negated bottom atom b outside M.
    """
    parts = _split(program, bottom_atoms)
    upper = PositiveRules(
        (r.head, r.pos_body | {-b for b in r.neg_body}) for r in parts.top_rules
    )
    negated = sorted({b for r in parts.top_rules for b in r.neg_body})
    results: list[frozenset[int]] = []
    for bottom_model in enumerate_answer_sets_layered(parts.bottom):
        closed = upper.closure(
            [*bottom_model, *(-b for b in negated if b not in bottom_model)]
        )
        combined = frozenset(a for a in closed if a > 0)
        if all(cc.satisfied_by(combined) for cc in parts.straddling_cardinality) and all(
            ng.satisfied_by(combined) for ng in parts.straddling_nogoods
        ):
            results.append(combined)
    return _lex_sorted(results)

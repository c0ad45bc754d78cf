"""Reader/writer for the aspif v1 text format subset used by the rewriter.

Rule (1), minimize (2) and output (4) statements are interpreted; every other
statement code is carried through verbatim so downstream consumers lose
nothing.  Writing is canonical: single spaces, "\\n" line endings, terminator
always present, raw lines byte-identical.

Statements are named tuples, so they compare as plain tuples:
``WeightBody(0, t) == Minimize(0, t)`` holds, and only ``isinstance`` tells
the kinds apart.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import NamedTuple, Union

from .asplang import (
    CardinalityConstraint,
    ChoiceRule,
    GroundProgram,
    Literal,
    Nogood,
    NormalRule,
    ObjectiveFunction,
)

DISJUNCTIVE = 0
CHOICE = 1


class AspifParseError(ValueError):
    """Raised on malformed aspif input, with a line number when known."""


class UnsupportedStatementError(ValueError):
    """Raised when a document cannot be bridged to ground-program semantics."""


class NormalBody(NamedTuple):
    literals: tuple[int, ...]


class WeightBody(NamedTuple):
    lower_bound: int
    terms: tuple[tuple[int, int], ...]  # (literal, weight)


class Rule(NamedTuple):
    head_kind: int  # DISJUNCTIVE or CHOICE
    head_atoms: tuple[int, ...]
    body: Union[NormalBody, WeightBody]


class Minimize(NamedTuple):
    priority: int
    terms: tuple[tuple[int, int], ...]  # (literal, weight)


class Output(NamedTuple):
    name: str
    condition: tuple[int, ...]


class Raw(NamedTuple):
    line: str


Statement = Union[Rule, Minimize, Output, Raw]


class AspifDocument(NamedTuple):
    version: tuple[int, int, int] = (1, 0, 0)
    tags: tuple[str, ...] = ()
    statements: tuple[Statement, ...] = ()
    had_terminator: bool = True

    def max_atom_id(self) -> int:
        """Largest atom id in sight; raw lines are scanned conservatively.

        For unknown statements every integer token is taken as a potential
        atom id, which can only overshoot, never collide.
        """
        top = 0
        for s in self.statements:
            if isinstance(s, Rule):
                top = max(top, *s.head_atoms, 0)
                if isinstance(s.body, NormalBody):
                    top = max(top, *(abs(l) for l in s.body.literals), 0)
                else:
                    top = max(top, *(abs(l) for l, _ in s.body.terms), 0)
            elif isinstance(s, Minimize):
                top = max(top, *(abs(l) for l, _ in s.terms), 0)
            elif isinstance(s, Output):
                top = max(top, *(abs(l) for l in s.condition), 0)
            else:
                for token in s.line.split():
                    value = _integer(token)
                    if value is not None:
                        top = max(top, abs(value))
        return top


def _integer(token: str) -> int | None:
    """Value of an aspif integer token (optional sign, ASCII digits), else None."""
    try:
        value = int(token)
    except ValueError:  # also digit strings longer than the interpreter converts
        return None
    # int() also takes underscores, surrounding whitespace and non-ASCII digits
    if not token.isascii() or "_" in token or token != token.strip():
        return None
    return value


class _Tokens:
    """Token walker that words the error for a statement line the slicer refused."""

    def __init__(self, parts: list[str], line_no: int):
        self.parts = parts
        self.pos = 0
        self.line_no = line_no

    def take_int(self, what: str) -> int:
        if self.pos >= len(self.parts):
            raise AspifParseError(f"line {self.line_no}: truncated statement, missing {what}")
        token = self.parts[self.pos]
        self.pos += 1
        value = _integer(token)
        if value is None:
            raise AspifParseError(
                f"line {self.line_no}: non-integer token {token!r} for {what}"
            )
        return value

    def take_count(self, what: str) -> int:
        count = self.take_int(what)
        if count < 0:
            raise AspifParseError(f"line {self.line_no}: negative {what} {count}")
        return count

    def take_literal(self, what: str) -> int:
        lit = self.take_int(what)
        if lit == 0:
            raise AspifParseError(f"line {self.line_no}: {what} 0 is not allowed")
        return lit

    def finish(self) -> None:
        if self.pos != len(self.parts):
            raise AspifParseError(
                f"line {self.line_no}: {len(self.parts) - self.pos} unexpected trailing tokens"
            )


def _parse_rule(tokens: _Tokens) -> Rule:
    head_kind = tokens.take_int("head kind")
    if head_kind not in (DISJUNCTIVE, CHOICE):
        raise AspifParseError(f"line {tokens.line_no}: unknown head kind {head_kind}")
    m = tokens.take_count("head atom count")
    heads = tuple(tokens.take_int("head atom") for _ in range(m))
    body_kind = tokens.take_int("body kind")
    if body_kind == 0:
        n = tokens.take_count("body literal count")
        lits = tuple(tokens.take_literal("body literal") for _ in range(n))
        body: Union[NormalBody, WeightBody] = NormalBody(lits)
    elif body_kind == 1:
        bound = tokens.take_int("lower bound")
        n = tokens.take_count("body element count")
        terms = tuple(
            (tokens.take_literal("body literal"), tokens.take_int("weight"))
            for _ in range(n)
        )
        body = WeightBody(bound, terms)
    else:
        raise AspifParseError(f"line {tokens.line_no}: unknown body kind {body_kind}")
    tokens.finish()
    if any(a < 1 for a in heads):
        raise AspifParseError(f"line {tokens.line_no}: head atoms must be positive")
    return Rule(head_kind, heads, body)


def _parse_minimize(tokens: _Tokens) -> Minimize:
    priority = tokens.take_int("priority")
    n = tokens.take_count("term count")
    terms = tuple(
        (tokens.take_literal("minimize literal"), tokens.take_int("weight"))
        for _ in range(n)
    )
    tokens.finish()
    return Minimize(priority, terms)


def _values(rest: str) -> list[int] | None:
    """Every token after the statement code as an integer, or None.

    On an ASCII line without underscores, ``int()`` accepts exactly the
    tokens that ``_integer`` accepts, so one conversion checks the line.
    """
    if not rest.isascii() or "_" in rest:
        return None
    try:
        return list(map(int, rest.split()))
    except ValueError:
        return None


def _slice_rule(v: list[int]) -> Rule | None:
    """The rule the token walker reads from these values, or None where it
    would refuse them."""
    if len(v) < 4:
        return None
    head_kind, m = v[0], v[1]
    k = m + 2  # index of the body kind
    if head_kind not in (DISJUNCTIVE, CHOICE) or m < 0 or len(v) < k + 2:
        return None
    heads = tuple(v[2:k])
    if heads and min(heads) < 1:
        return None
    if v[k] == 0:
        lits = tuple(v[k + 2 :])
        if v[k + 1] != len(lits) or 0 in lits:
            return None
        return Rule(head_kind, heads, NormalBody(lits))
    if v[k] == 1 and len(v) >= k + 3:
        flat = v[k + 3 :]
        lits = flat[0::2]
        if 2 * v[k + 2] != len(flat) or 0 in lits:
            return None
        return Rule(head_kind, heads, WeightBody(v[k + 1], tuple(zip(lits, flat[1::2]))))
    return None


def _slice_minimize(v: list[int]) -> Minimize | None:
    """The minimize statement the token walker reads from these values, or
    None where it would refuse them."""
    if len(v) < 2:
        return None
    flat = v[2:]
    lits = flat[0::2]
    if 2 * v[1] != len(flat) or 0 in lits:
        return None
    return Minimize(v[0], tuple(zip(lits, flat[1::2])))


def _parse_output(rest: str, line_no: int) -> Output:
    len_token, _, tail = rest.partition(" ")
    length = _integer(len_token)
    if length is None:
        raise AspifParseError(f"line {line_no}: bad output string length")
    if length < 0 or len(tail) < length:
        raise AspifParseError(f"line {line_no}: output string shorter than declared")
    name = tail[:length]
    remainder = tail[length:]
    if remainder and not remainder.startswith(" "):
        raise AspifParseError(f"line {line_no}: output string length mismatch")
    tokens = _Tokens(remainder.split(), line_no)
    n = tokens.take_count("condition count")
    condition = tuple(tokens.take_literal("condition literal") for _ in range(n))
    tokens.finish()
    return Output(name, condition)


def parse(text: str) -> AspifDocument:
    """Parse an aspif document from text.

    A missing trailing terminator is tolerated (and recorded); anything after
    the terminator is an error.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise AspifParseError("empty input, expected an aspif header")
    header = lines[0].split(" ")
    if len(header) < 4 or header[0] != "asp":
        raise AspifParseError(f"bad header {lines[0]!r}, expected 'asp 1 0 0'")
    version = tuple(_integer(token) for token in header[1:4])
    if None in version:
        raise AspifParseError(f"bad header version in {lines[0]!r}")
    if version != (1, 0, 0):
        raise AspifParseError(f"unsupported aspif version {version}")
    tags = tuple(header[4:])
    statements: list[Statement] = []
    terminated = False
    for line_no, line in enumerate(lines[1:], start=2):
        if terminated:
            raise AspifParseError(f"line {line_no}: content after terminator")
        if line == "0":
            terminated = True
            continue
        if not line.strip():
            raise AspifParseError(f"line {line_no}: blank statement line")
        # a valid code token holds no whitespace, so the rest splits like the line
        code_token, _, rest = line.partition(" ")
        code = _integer(code_token)
        if code is None:
            raise AspifParseError(
                f"line {line_no}: non-integer statement code {code_token!r}"
            )
        if code == 1 or code == 2:
            v = _values(rest)
            statement = None
            if v is not None:
                statement = _slice_rule(v) if code == 1 else _slice_minimize(v)
            if statement is None:  # the walker raises the error it finds first
                tokens = _Tokens(rest.split(), line_no)
                statement = _parse_rule(tokens) if code == 1 else _parse_minimize(tokens)
            statements.append(statement)
        elif code == 4:
            statements.append(_parse_output(rest, line_no))
        else:
            statements.append(Raw(line))
    return AspifDocument(version, tags, tuple(statements), terminated)


def _render_statement(s: Statement) -> str:
    if isinstance(s, Rule):
        body = s.body
        if isinstance(body, NormalBody):
            values = (1, s.head_kind, len(s.head_atoms), *s.head_atoms,
                      0, len(body.literals), *body.literals)
        else:
            values = (1, s.head_kind, len(s.head_atoms), *s.head_atoms,
                      1, body.lower_bound, len(body.terms), *chain.from_iterable(body.terms))
    elif isinstance(s, Minimize):
        values = (2, s.priority, len(s.terms), *chain.from_iterable(s.terms))
    elif isinstance(s, Output):
        return " ".join(map(str, (4, len(s.name), s.name, len(s.condition), *s.condition)))
    else:
        return s.line
    # one format per line; "%d" renders an int as str() does, and faster
    return ("%d" + " %d" * (len(values) - 1)) % values


def write(doc: AspifDocument) -> str:
    """Canonical rendering; always ends with the terminator line."""
    header = " ".join(["asp", *map(str, doc.version), *doc.tags])
    lines = [header]
    lines.extend(map(_render_statement, doc.statements))
    lines.append("0")
    return "\n".join(lines) + "\n"


def literal_from_int(lit: int) -> Literal:
    """Signed aspif literal to semantic literal (negative = default negation)."""
    if lit == 0:
        raise UnsupportedStatementError("literal 0 is not allowed")
    return Literal(abs(lit), lit > 0)


def _constraint_from_weight_body(body: WeightBody) -> CardinalityConstraint | Nogood | None:
    """Integrity constraint over a weight body, when weights are uniform.

    Returns None when the constraint can never fire, an empty nogood when it
    always fires, and an at-least constraint over complemented literals
    otherwise.
    """
    merged: dict[int, int] = {}
    for lit, w in body.terms:
        merged[lit] = merged.get(lit, 0) + w
    weights = set(merged.values())
    if len(weights) > 1 or any(w < 0 for w in weights):
        raise UnsupportedStatementError(
            "weight body with non-uniform weights cannot be bridged"
        )
    n = len(merged)
    w = weights.pop() if weights else 0
    if w == 0:
        fires = body.lower_bound <= 0
        return Nogood(frozenset()) if fires else None
    needed = math.ceil(body.lower_bound / w)
    if needed <= 0:
        return Nogood(frozenset())
    if needed > n:
        return None
    complements = tuple(literal_from_int(lit).negated() for lit in sorted(merged))
    return CardinalityConstraint(complements, n - needed + 1)


def to_ground_program(doc: AspifDocument) -> tuple[GroundProgram, dict[int, ObjectiveFunction]]:
    """Bridge the document to brute-force semantics.

    Supports normal rules, integrity constraints (normal or uniform-weight
    bodies), choice rules with normal bodies, minimize and output statements.
    Anything else raises UnsupportedStatementError.
    """
    normal_rules: list[NormalRule] = []
    choice_rules: list[ChoiceRule] = []
    cardinality: list[CardinalityConstraint] = []
    nogoods: list[Nogood] = []
    objective_terms: dict[int, list[tuple[int, Literal]]] = {}
    atoms: set[int] = set()
    for s in doc.statements:
        if isinstance(s, Raw):
            raise UnsupportedStatementError(
                f"statement {s.line.split(' ', 1)[0]!r} has no ground-program bridge"
            )
        if isinstance(s, Output):
            atoms.update(abs(l) for l in s.condition)
            continue
        if isinstance(s, Minimize):
            bucket = objective_terms.setdefault(s.priority, [])
            for lit, w in s.terms:
                bucket.append((w, literal_from_int(lit)))
                atoms.add(abs(lit))
            continue
        if isinstance(s.body, WeightBody):
            if s.head_atoms or s.head_kind == CHOICE:
                raise UnsupportedStatementError(
                    "weight bodies are only bridged on integrity constraints"
                )
            atoms.update(abs(l) for l, _ in s.body.terms)
            constraint = _constraint_from_weight_body(s.body)
            if isinstance(constraint, CardinalityConstraint):
                cardinality.append(constraint)
            elif isinstance(constraint, Nogood):
                nogoods.append(constraint)
            continue
        lits = [literal_from_int(l) for l in s.body.literals]
        atoms.update(l.atom for l in lits)
        atoms.update(s.head_atoms)
        if s.head_kind == CHOICE:
            if s.head_atoms:
                choice_rules.append(ChoiceRule(frozenset(s.head_atoms), frozenset(lits)))
            continue
        if len(s.head_atoms) > 1:
            raise UnsupportedStatementError("disjunctive heads are not bridged")
        pos_body = frozenset(l.atom for l in lits if l.positive)
        neg_body = frozenset(l.atom for l in lits if not l.positive)
        if s.head_atoms:
            normal_rules.append(NormalRule(s.head_atoms[0], pos_body, neg_body))
        elif not pos_body & neg_body:
            # a constraint needing some atom both true and false never fires
            nogoods.append(
                Nogood(
                    frozenset(
                        {(a, True) for a in pos_body} | {(a, False) for a in neg_body}
                    )
                )
            )
    program = GroundProgram(
        signature=frozenset(atoms),
        normal_rules=tuple(normal_rules),
        choice_rules=tuple(choice_rules),
        cardinality_constraints=tuple(cardinality),
        nogoods=tuple(nogoods),
    )
    objectives = {
        p: ObjectiveFunction(tuple(terms)) for p, terms in sorted(objective_terms.items())
    }
    return program, objectives

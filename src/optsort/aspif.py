"""Reader/writer for the aspif v1 text format subset used by the rewriter.

Rule (1), minimize (2) and output (4) statements are interpreted; every other
statement code is carried through verbatim, as a ``Raw`` statement, so
downstream consumers lose nothing.  Writing is canonical: single spaces,
"\\n" line endings, terminator always present, raw text byte-identical.  The
rules a rewrite adds are aspif lines already (see ``encode``), so each level's
rules are one ``Raw`` statement of many lines, never a record per rule.

A literal is a signed int, as in the text: ``a`` for atom a, ``-a`` for its
default negation.  ``to_ground_program`` hands literals to ``asplang`` in the
same form, and each priority's objective as its (literal, weight) terms.

Statements are named tuples, so they compare as plain tuples:
``WeightBody(0, t) == Minimize(0, t)`` holds, and only ``isinstance`` tells
the kinds apart.
"""

from __future__ import annotations

from itertools import chain, takewhile
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

from .asplang import GroundProgram, GroundRule, Nogood, WeightConstraint

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
    """One or more statement lines, ``"\\n"``-separated, that ``write`` copies verbatim.

    ``parse`` makes one per line of an uninterpreted statement code; a
    rewrite holds the rule lines it adds for a priority level in one.
    """

    line: str


Statement = Union[Rule, Minimize, Output, Raw]


class AspifDocument(NamedTuple):
    tags: tuple[str, ...] = ()
    statements: tuple[Statement, ...] = ()
    had_terminator: bool = True

    def max_atom_id(self) -> int:
        """Largest atom id in sight; raw text is scanned conservatively.

        For raw statements every integer token, on each of their lines, is
        taken as a potential atom id, which can only overshoot, never collide.
        """
        # every literal tuple in sight, and every integer of raw text, for
        # one max over them all
        literals: list[Iterable[int]] = []
        add = literals.append
        for s in self.statements:
            if isinstance(s, Rule):
                add(s.head_atoms)
                if isinstance(s.body, NormalBody):
                    add(s.body.literals)
                else:
                    add(map(itemgetter(0), s.body.terms))
            elif isinstance(s, Minimize):
                add(map(itemgetter(0), s.terms))
            elif isinstance(s, Output):
                add(s.condition)
            else:
                add(value for value in map(_integer, s.line.split()) if value is not None)
        return max(map(abs, chain.from_iterable(literals)), default=0)


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


def _integers(rest: str) -> tuple[list[int], tuple[str, ...]]:
    """The values of the leading integer tokens of ``rest``, and the tokens
    from the first one that is not an integer on.  On an ASCII line without
    underscores, ``int()`` accepts exactly the tokens that ``_integer``
    accepts, so one conversion reads a clean line."""
    if rest.isascii() and "_" not in rest:
        try:
            return list(map(int, rest.split())), ()
        except ValueError:
            pass
    tokens = rest.split()
    values = list(takewhile(lambda value: value is not None, map(_integer, tokens)))
    return values, tuple(tokens[len(values) :])


def _missing(refused: tuple[str, ...], what: str, line_no: int) -> AspifParseError:
    """The error for a field that a line's values run out before."""
    if refused:
        return AspifParseError(f"line {line_no}: non-integer token {refused[0]!r} for {what}")
    return AspifParseError(f"line {line_no}: truncated statement, missing {what}")


def _bad_run(
    v: list[int], at: int, refused: tuple[str, ...], count: str, literal: str, line_no: int,
    weighted: bool = False,
) -> AspifParseError:
    """The first error in the run of literals counted at ``v[at]`` that ends
    a line, each literal followed by its weight when ``weighted``.

    A missing or negative count comes first, then a literal 0, which lies
    before the end of the values, then a missing token, then trailing ones.
    """
    if at >= len(v):
        return _missing(refused, count, line_no)
    if v[at] < 0:
        return AspifParseError(f"line {line_no}: negative {count} {v[at]}")
    start = at + 1
    end = start + (2 if weighted else 1) * v[at]
    if 0 in v[start:end:2 if weighted else 1]:
        return AspifParseError(f"line {line_no}: {literal} 0 is not allowed")
    if len(v) < end:  # a weighted run may stop between a literal and its weight
        what = "weight" if weighted and (len(v) - start) % 2 else literal
        return _missing(refused, what, line_no)
    trailing = len(v) + len(refused) - end
    return AspifParseError(f"line {line_no}: {trailing} unexpected trailing tokens")


def _parse_rule(v: list[int], refused: tuple[str, ...], line_no: int) -> Rule:
    """The rule a line's values spell, or the error met first in token order."""
    size = len(v)
    if not size:
        raise _missing(refused, "head kind", line_no)
    head_kind = v[0]
    if head_kind not in (DISJUNCTIVE, CHOICE):
        raise AspifParseError(f"line {line_no}: unknown head kind {head_kind}")
    if size < 2 or v[1] < 0:  # the head atom count's own error comes first
        raise _bad_run(v, 1, refused, "head atom count", "head atom", line_no)
    k = v[1] + 2  # index of the body kind
    if size <= k:
        raise _missing(refused, "head atom" if size < k else "body kind", line_no)
    if v[k] == 0:
        lits = tuple(v[k + 2 :])
        if size < k + 2 or v[k + 1] != len(lits) or 0 in lits or refused:
            raise _bad_run(v, k + 1, refused, "body literal count", "body literal", line_no)
        body: Union[NormalBody, WeightBody] = NormalBody(lits)
    elif v[k] == 1:
        if size == k + 1:
            raise _missing(refused, "lower bound", line_no)
        flat = v[k + 3 :]
        lits = flat[0::2]
        if size < k + 3 or 2 * v[k + 2] != len(flat) or 0 in lits or refused:
            raise _bad_run(v, k + 2, refused, "body element count", "body literal", line_no, True)
        body = WeightBody(v[k + 1], tuple(zip(lits, flat[1::2])))
    else:
        raise AspifParseError(f"line {line_no}: unknown body kind {v[k]}")
    heads = tuple(v[2:k])
    if heads and min(heads) < 1:
        raise AspifParseError(f"line {line_no}: head atoms must be positive")
    return Rule(head_kind, heads, body)


def _parse_minimize(v: list[int], refused: tuple[str, ...], line_no: int) -> Minimize:
    """The minimize statement a line's values spell, or the first error."""
    if not v:
        raise _missing(refused, "priority", line_no)
    flat = v[2:]
    lits = flat[0::2]
    if len(v) < 2 or 2 * v[1] != len(flat) or 0 in lits or refused:
        raise _bad_run(v, 1, refused, "term count", "minimize literal", line_no, True)
    return Minimize(v[0], tuple(zip(lits, flat[1::2])))


def _parse_output(rest: str, line_no: int) -> Output:
    # the length counts the string's UTF-8 bytes, as gringo writes it
    len_token, _, tail = rest.partition(" ")
    length = _integer(len_token)
    if length is None:
        raise AspifParseError(f"line {line_no}: bad output string length")
    data = tail.encode("utf-8", "surrogateescape")
    if length < 0 or len(data) < length:
        raise AspifParseError(f"line {line_no}: output string shorter than declared")
    if length < len(data) and data[length] & 0xC0 == 0x80:  # a continuation byte
        raise AspifParseError(f"line {line_no}: output string length ends inside a character")
    name = data[:length].decode("utf-8", "surrogateescape")
    remainder = data[length:].decode("utf-8", "surrogateescape")
    if remainder and not remainder.startswith(" "):
        raise AspifParseError(f"line {line_no}: output string length mismatch")
    v, refused = _integers(remainder)
    condition = tuple(v[1:])
    if not v or v[0] != len(condition) or 0 in condition or refused:
        raise _bad_run(v, 0, refused, "condition count", "condition literal", line_no)
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
        if not line or line.isspace():
            raise AspifParseError(f"line {line_no}: blank statement line")
        # a valid code token holds no whitespace, so the rest splits like the line
        code_token, _, rest = line.partition(" ")
        code = _integer(code_token)
        if code is None:
            raise AspifParseError(
                f"line {line_no}: non-integer statement code {code_token!r}"
            )
        if code == 1 or code == 2:
            v, refused = _integers(rest)
            decode = _parse_rule if code == 1 else _parse_minimize
            statements.append(decode(v, refused, line_no))
        elif code == 4:
            statements.append(_parse_output(rest, line_no))
        else:
            statements.append(Raw(line))
    return AspifDocument(tags, tuple(statements), terminated)


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
        length = len(s.name.encode("utf-8", "surrogateescape"))
        return " ".join(map(str, (4, length, s.name, len(s.condition), *s.condition)))
    else:
        return s.line
    # one format per line; "%d" renders an int as str() does, and faster
    return ("%d" + " %d" * (len(values) - 1)) % values


def write(doc: AspifDocument) -> str:
    """Canonical rendering; always ends with the terminator line."""
    header = " ".join(["asp 1 0 0", *doc.tags])
    # the final newline too, so the text is joined once
    return "\n".join([header, *map(_render_statement, doc.statements), "0\n"])


def _atoms_of(literals: Sequence[int]) -> Iterator[int]:
    """The atoms of a statement's literals.  ``parse`` refuses literal 0, so
    only a document built in code can hold it; it is refused here."""
    if 0 in literals:
        raise UnsupportedStatementError("literal 0 is not allowed")
    return map(abs, literals)


# A ground program and each priority's objective: its minimize terms,
# (literal, weight) pairs in statement order.
Bridged = tuple[GroundProgram, dict[int, tuple[tuple[int, int], ...]]]


def to_ground_program(doc: AspifDocument) -> Bridged:
    """Bridge the document to brute-force semantics.

    Supports normal rules, integrity constraints, choice rules with normal
    bodies, minimize and output statements.  A choice rule becomes one
    choice ``GroundRule`` per head atom, and a constraint's weight body is
    kept as written, as a ``WeightConstraint``.  Anything else, raw
    statements too, raises UnsupportedStatementError.
    """
    rules: list[GroundRule] = []
    weight_constraints: list[WeightConstraint] = []
    nogoods: list[Nogood] = []
    objective_terms: dict[int, list[tuple[int, int]]] = {}
    atoms: set[int] = set()
    for s in doc.statements:
        if isinstance(s, Raw):
            raise UnsupportedStatementError(
                f"statement {s.line.split(' ', 1)[0]!r} has no ground-program bridge"
            )
        if isinstance(s, Output):
            atoms.update(_atoms_of(s.condition))
            continue
        if isinstance(s, Minimize):
            atoms.update(_atoms_of([l for l, _ in s.terms]))
            objective_terms.setdefault(s.priority, []).extend(s.terms)
            continue
        if isinstance(s.body, WeightBody):
            if s.head_atoms or s.head_kind == CHOICE:
                raise UnsupportedStatementError(
                    "weight bodies are only bridged on integrity constraints"
                )
            atoms.update(_atoms_of([l for l, _ in s.body.terms]))
            weight_constraints.append(WeightConstraint(s.body.terms, s.body.lower_bound))
            continue
        lits = s.body.literals
        atoms.update(_atoms_of(lits))
        atoms.update(s.head_atoms)
        pos_body = frozenset(l for l in lits if l > 0)
        neg_body = frozenset(-l for l in lits if l < 0)
        if s.head_kind == CHOICE:
            rules += (GroundRule(a, pos_body, neg_body, True) for a in s.head_atoms)
            continue
        if len(s.head_atoms) > 1:
            raise UnsupportedStatementError("disjunctive heads are not bridged")
        if s.head_atoms:
            rules.append(GroundRule(s.head_atoms[0], pos_body, neg_body))
        elif not pos_body & neg_body:
            # a constraint needing some atom both true and false never fires
            nogoods.append(Nogood(frozenset(lits)))
    program = GroundProgram(
        signature=frozenset(atoms),
        rules=tuple(rules),
        weight_constraints=tuple(weight_constraints),
        nogoods=tuple(nogoods),
    )
    objectives = {p: tuple(terms) for p, terms in sorted(objective_terms.items())}
    return program, objectives

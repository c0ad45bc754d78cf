"""Static checks on the package and its tests, read from their syntax trees.

- No module in ``src/optsort`` or ``tests`` imports a name it never uses.
- No module in ``src/optsort`` imports a private name (one starting with
  ``_``) from another optsort module: what a module shares is public.
- Every top-level function and class in ``src/optsort``, and every method of
  those classes, is referenced from ``src/optsort`` or ``perfbench``.  The
  dotted names that ``perfbench/tracing.py`` wraps count as references.
  Nothing is exempt: the paper's calculus that no command runs lives in
  ``tests/conftest.py``.

References are matched by name, not resolved.  A top-level function or class
counts as referenced when any variable or attribute has its name; a method
only when an attribute does (``x.value``, not a local variable ``value``)
outside the methods of that name, so methods that only call each other
(``l.holds(...)`` inside ``holds``) are not referenced.

Every optsort record is a ``typing.NamedTuple``, so no module imports
``dataclasses`` and importing ``optsort.cli`` does not load it: its import and
its generated class bodies would add to the start-up that every call pays.
Only ``WeightMatrix`` validates its fields at construction, and every
record's fields are frozen.  Nor does any module import ``concurrent`` or
``multiprocessing``: every command runs in one process.
"""

import ast
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from optsort.asplang import GroundProgram, GroundRule, Nogood, WeightConstraint
from optsort.network import ConfinedNetwork, Decomposition
from optsort.propagate import WeightError, WeightMatrix
from optsort.rewrite import RewriteConfig

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "optsort"
PERFBENCH = ROOT / "perfbench"

BANNED_IMPORTS = {"dataclasses", "concurrent", "multiprocessing"}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names(tree: ast.AST) -> tuple[set[str], set[str]]:
    """Variable names and attribute names the tree reads or writes.

    An attribute inside a method of its own name is left out.
    """
    names, attributes = set(), set()

    def visit(node: ast.AST, methods: frozenset[str]) -> None:
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in methods:
            attributes.add(node.attr)
        for child in ast.iter_child_nodes(node):
            if isinstance(node, ast.ClassDef) and isinstance(child, ast.FunctionDef):
                visit(child, methods | {child.name})
            else:
                visit(child, methods)

    visit(tree, frozenset())
    return names, attributes


def _unused_imports(path: Path) -> list[str]:
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {bound}")
    return unused


def _definitions(path: Path):
    """(qualified name, name) of each top-level function, class and method."""
    for node in _tree(path).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("__"):
                    yield f"{node.name}.{member.name}", member.name


def _references() -> tuple[set[str], set[str]]:
    """Names and attribute names used in ``src/optsort`` and ``perfbench``.

    Each dotted name that ``perfbench/tracing.py`` wraps adds its parts as
    attribute names, since the tracer reaches them by attribute.
    """
    names, attributes = set(), set()
    for path in [*PACKAGE.glob("*.py"), *PERFBENCH.glob("*.py")]:
        tree_names, tree_attributes = _names(_tree(path))
        names |= tree_names
        attributes |= tree_attributes
    tracing = runpy.run_path(str(PERFBENCH / "tracing.py"))
    for dotted in [*tracing["SPANNED"], *tracing["LEAVES"]]:
        attributes.update(dotted.split("."))
    return names, attributes


def test_no_unused_imports():
    paths = sorted([*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py")])
    unused = [entry for path in paths for entry in _unused_imports(path)]
    assert unused == []


def test_no_module_imports_a_private_name_from_another():
    private = [
        f"{path.relative_to(ROOT)}:{node.lineno} {alias.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "optsort")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_every_definition_is_referenced():
    names, attributes = _references()
    unreferenced = [
        f"{path.stem}.{qualified}"
        for path in sorted(PACKAGE.glob("*.py"))
        for qualified, name in _definitions(path)
        if name not in (attributes if "." in qualified else names | attributes)
    ]
    assert unreferenced == []


def test_no_module_imports_dataclasses():
    importers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] in BANNED_IMPORTS for m in modules):
                importers.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert importers == []


def test_importing_the_cli_leaves_dataclasses_unloaded():
    # a fresh interpreter: pytest itself has loaded dataclasses here
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import sys, optsort.cli; sys.exit('dataclasses' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (done.returncode, done.stderr) == (0, "")


# One valid record of each validating kind, and one invalid construction of
# it with the error class and message it raises.  Every other record is
# checked where its input enters: by ``aspif.parse``, the CLI flags,
# ``propagate_confined``'s region guard and ``from_input_weights``.
VALIDATING_RECORDS = [
    (
        WeightMatrix(1, 0, ((0,),)),
        lambda: WeightMatrix(1, 0, ((-1,),)),
        WeightError,
        "negative weight -1",
    ),
]


@pytest.mark.parametrize(
    "record, construct, error, message",
    VALIDATING_RECORDS,
    ids=[type(case[0]).__name__ for case in VALIDATING_RECORDS],
)
def test_a_validating_record_checks_at_construction_and_stays_frozen(
    record, construct, error, message
):
    with pytest.raises(error) as raised:
        construct()
    assert type(raised.value) is error and str(raised.value) == message
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)


# The records that do not validate their fields are frozen all the same.
PLAIN_RECORDS = [
    GroundRule(1),
    WeightConstraint(((1, 1),), 1),
    Nogood(frozenset({1})),
    GroundProgram(frozenset({1}), (GroundRule(1),)),
    ConfinedNetwork(frozenset({1}), 1, 1),
    Decomposition(),
    RewriteConfig(),
]


@pytest.mark.parametrize("record", PLAIN_RECORDS, ids=lambda record: type(record).__name__)
def test_a_record_stays_frozen(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)

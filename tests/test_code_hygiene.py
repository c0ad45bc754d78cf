"""Static checks on the package and its tests, read from their syntax trees.

- No module in ``src/optsort`` or ``tests`` imports a name it never uses.
- Every top-level function and class in ``src/optsort``, and every method of
  those classes, is referenced from ``src/optsort`` or ``perfbench``.  The
  dotted names that ``perfbench/tracing.py`` wraps count as references.  Only
  the paper's calculus, which the acceptance tests pin, may go unreferenced.

References are matched by name, not resolved.  A top-level function or class
counts as referenced when any variable or attribute has its name; a method
only when an attribute does (``x.value``, not a local variable ``value``)
outside the methods of that name, so methods that only call each other
(``l.holds(...)`` inside ``holds``) are not referenced.
"""

import ast
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "optsort"
PERFBENCH = ROOT / "perfbench"

CALCULUS = {"propagate_full", "weight_function", "permutation_of", "whole_network_decomposition"}


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


def test_every_definition_is_referenced():
    names, attributes = _references()
    unreferenced = [
        f"{path.stem}.{qualified}"
        for path in sorted(PACKAGE.glob("*.py"))
        for qualified, name in _definitions(path)
        if name not in CALCULUS
        and name not in (attributes if "." in qualified else names | attributes)
    ]
    assert unreferenced == []

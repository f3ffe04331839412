"""The library surface: every public module-level function and class has a use.

A public name that only tests reach is an option nobody runs; it should be
deleted with its tests rather than kept in step with the code around it.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bsvielab"
LIBRARY = sorted(PACKAGE.rglob("*.py"))
USERS = LIBRARY + sorted((ROOT / "bench").glob("*.py"))

# Public names that only tests read today.  Each is a reference value the
# tests check the solvers against, not an option of a solver; a change that
# wires one in or deletes it takes it off this list.
TEST_ONLY: set[str] = set()


def _public_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node


def _references(node: ast.AST):
    """Names used below ``node``: loaded names, attribute names and strings
    (``getattr`` and the benchmark's tracing tables name functions by string)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def test_every_public_library_name_is_used_outside_its_definition():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in USERS}
    uses = Counter()
    for tree in trees.values():
        uses.update(_references(tree))
    unused = []
    for path in LIBRARY:
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        for definition in _public_definitions(trees[path]):
            inside = sum(1 for name in _references(definition) if name == definition.name)
            if uses[definition.name] == inside:
                unused.append(f"{module}.{definition.name}")
    assert sorted(unused) == sorted(TEST_ONLY)

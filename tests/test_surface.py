"""The library surface: every public name, method and option has a use.

A public name that only tests reach is an option nobody runs; it should be
deleted with its tests rather than kept in step with the code around it.
The same holds one level down, for the public methods and properties of a
public class and for the defaulted parameters of public functions, methods
and constructors: a default that no call overrides is a setting nobody sets.
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

# Methods and parameters that only tests use, each kept for the reason given.
TEST_SEAMS: dict[str, str] = {
    "lattice.TwoParamProcess.pairs":
        "the accessor the solution-equality tests compare two Z fields with",
    "lattice.LevelNodes.w":
        "the Brownian values a callable reads at its nodes; no scenario's data depends "
        "on W, the tests' W-dependent generators do",
    "harness.cli.main(argv=)":
        "the seam the CLI tests drive; the console script calls main() with no argument",
}


def _trees() -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in USERS}


def _uses(trees) -> Counter:
    uses = Counter()
    for tree in trees.values():
        uses.update(_references(tree))
    return uses


def _module(path: Path) -> str:
    return ".".join(path.relative_to(PACKAGE).with_suffix("").parts)


def _public(node: ast.AST) -> bool:
    return not node.name.startswith("_")


def _public_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if _public(node):
                yield node


def _public_methods(cls: ast.ClassDef):
    """The public methods and properties defined in the body of ``cls``."""
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _public(node):
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


def _attributes(node: ast.AST):
    """Attribute names read below ``node`` (``x.name``): the only way a method
    or property is reached, so a bare name that matches one (a loop variable,
    a module) is no use of it."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            yield sub.attr


def _unreferenced(definitions, uses: Counter, label, references=_references):
    """Labels of the definitions whose name is used nowhere outside themselves."""
    for definition in definitions:
        inside = sum(1 for name in references(definition) if name == definition.name)
        if uses[definition.name] == inside:
            yield label(definition)


def _callables(path: Path, tree: ast.Module):
    """(label, callee name, function, is a method) for every public function,
    every public method of a public class and every public class's constructor."""
    module = _module(path)
    for node in _public_definitions(tree):
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if method.name == "__init__":
                    yield f"{module}.{node.name}", node.name, method, True
                elif _public(method):
                    yield f"{module}.{node.name}.{method.name}", method.name, method, True
        else:
            yield f"{module}.{node.name}", node.name, node, False


def _calls(trees) -> dict[str, list[ast.Call]]:
    """Every call in ``trees``, keyed by the callee's name (``f(...)``, ``x.f(...)``)."""
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Call):
                func = sub.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name is not None:
                    calls.setdefault(name, []).append(sub)
    return calls


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether ``call`` passes parameter ``name`` (positional slot ``position``, or None)."""
    if any(kw.arg is None or kw.arg == name for kw in call.keywords):  # **kw passes any name
        return True
    if position is None:
        return False
    return any(isinstance(a, ast.Starred) for a in call.args) or len(call.args) > position


def _defaulted(function: ast.FunctionDef, method: bool):
    """(name, positional slot or None) of each defaulted parameter; a method's
    slots do not count ``self``/``cls``, which the call does not pass."""
    args = function.args
    positional = args.posonlyargs + args.args
    static = any(getattr(d, "id", None) == "staticmethod" for d in function.decorator_list)
    skip = 1 if method and not static else 0
    first = len(positional) - len(args.defaults)
    for slot, arg in enumerate(positional):
        if slot >= first:
            yield arg.arg, slot - skip
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def test_every_public_library_name_is_used_outside_its_definition():
    trees = _trees()
    uses = _uses(trees)
    unused = []
    for path in LIBRARY:
        module = _module(path)
        unused += _unreferenced(
            _public_definitions(trees[path]), uses, lambda d: f"{module}.{d.name}"
        )
    assert sorted(unused) == sorted(TEST_ONLY)


def test_every_public_method_is_used_outside_its_definition():
    trees = _trees()
    uses = Counter(name for tree in trees.values() for name in _attributes(tree))
    unused = []
    for path in LIBRARY:
        module = _module(path)
        for cls in _public_definitions(trees[path]):
            if isinstance(cls, ast.ClassDef):
                unused += _unreferenced(
                    _public_methods(cls), uses, lambda d: f"{module}.{cls.name}.{d.name}",
                    _attributes,
                )
    expected = sorted(k for k in TEST_SEAMS if not k.endswith("=)"))
    assert sorted(unused) == expected, f"unused methods: {sorted(unused)}"


def test_every_defaulted_parameter_is_passed_by_some_call():
    trees = _trees()
    calls = _calls(trees)
    unset = []
    for path in LIBRARY:
        for label, callee, function, method in _callables(path, trees[path]):
            for name, position in _defaulted(function, method):
                if not any(_passes(c, name, position) for c in calls.get(callee, [])):
                    unset.append(f"{label}({name}=)")
    expected = sorted(k for k in TEST_SEAMS if k.endswith("=)"))
    assert sorted(unset) == expected, f"parameters no call passes: {sorted(unset)}"

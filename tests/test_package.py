"""The package holds what the CLI runs: code that only the tests use lives in tests/."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "slce"
EXEMPT = {("cli", "main")}  # the entry point: called from outside the package


def _definitions(tree: ast.Module):
    """(name, node) for each top-level function or class and each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    sub.name.startswith("__") and sub.name.endswith("__")
                ):
                    yield sub.name, sub


def _references(node: ast.AST) -> Counter:
    """Names that node uses: loaded names, attributes and imported names."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name] += 1
    return out


def test_every_definition_in_the_package_is_used_by_the_package():
    """Each top-level function or class and each non-dunder method of src/slce is
    referenced somewhere in src/slce outside its own definition; only cli.main is
    exempt.  References are matched by name alone, not resolved: two methods with
    the same name count as one, and so do a function and an attribute or a local
    variable that share its name.
    """
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    unused = [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name, node in _definitions(tree)
        if (module, name) not in EXEMPT and everywhere[name] - _references(node)[name] == 0
    ]
    assert not unused, f"used only outside src/slce (move to tests/): {unused}"

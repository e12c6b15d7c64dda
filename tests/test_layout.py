"""Every public module-level name in the package has a caller in the package.

A function or class that only tests call belongs in the tests (as an oracle)
or nowhere.  References are names and attribute lookups in any module of
src/eulermc; an import or an `__all__` entry is not a use.
"""

import ast
from pathlib import Path

import eulermc

PACKAGE = Path(eulermc.__file__).resolve().parent

# public names that callers outside the package use, each with its reason
ENTRY_POINTS = {
    "register_model_preset": "installs custom model coefficients; the README documents it",
    "main": "cli.main runs one command for in-process callers and the benchmark child",
    "script_entry": "the `eulermc` console script in pyproject.toml",
}


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _definitions(trees):
    """(module, name) of every public module-level function and class."""
    return [
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def _references(trees):
    refs = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
    return refs


def test_every_public_name_has_a_caller_in_the_package():
    trees = _trees()
    refs = _references(trees)
    unused = [
        f"{module}:{name}"
        for module, name in _definitions(trees)
        if name not in refs and name not in ENTRY_POINTS
    ]
    assert not unused, f"defined but never used in src/eulermc: {unused}"


def test_entry_points_exist():
    assert set(ENTRY_POINTS) <= {name for _, name in _definitions(_trees())}

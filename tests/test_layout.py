"""Every public module-level name in the package has a caller in the package.

A function or class that only tests call belongs in the tests (as an oracle)
or nowhere.  References are names and attribute lookups in any module of
src/eulermc; an import or an `__all__` entry is not a use.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import eulermc
from eulermc import cli, harness, simulate

PACKAGE = Path(eulermc.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# public names that callers outside the package use, each with its reason
ENTRY_POINTS = {
    "register_model_preset": "installs custom model coefficients; the README documents it",
    "main": "cli.main runs one command for in-process callers and the benchmark child",
    "script_entry": "the `eulermc` console script in pyproject.toml",
    "frozen_density": "the benchmark traces it, and tests/test_parametrix.py checks it against "
    "the scheme density; the series reads the same running sums (parametrix._running_sums)",
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


# numpy random names whose draws depend on numpy internals (Generator
# normals, legacy and SeedSequence seeding) rather than on the chunk streams
_FOREIGN_RNG = {"default_rng", "Generator", "RandomState", "SeedSequence"}


def _dotted(node):
    """'a.b.c' for a chain of attribute lookups on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def test_every_random_draw_reads_the_chunk_streams():
    # the package draws through eulermc.simulate's Philox chunk streams only:
    # np.random.Philox is the one numpy random name it may use.  It imports no
    # scipy module at all: scipy.stats has QMC engines and distributions that
    # draw their own, and scipy is a test dependency only (pyproject.toml), so
    # no run may load it; the CLI probes of tests/test_cli.py see only the
    # commands they run
    found = []
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr, _dotted(node) or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            for name in names:
                random = name.startswith(("np.random.", "numpy.random."))
                if (
                    name in _FOREIGN_RNG
                    or random and name.split(".")[2] != "Philox"
                    or name.split(".")[0] == "scipy"
                ):
                    found.append(f"{module}:{node.lineno}: {name}")
    assert not found, f"random draws outside the chunk streams, or scipy: {sorted(set(found))}"


def test_benchmark_hooks_resolve_on_the_package(monkeypatch):
    # perfbench/child.py wraps each TARGETS attribute and runs a workload
    # through cli._COMMANDS, so a rename in the package would break
    # `perfbench/run.py --trace 1`; its scripts import each other by name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look it up
    spec.loader.exec_module(run)
    for module, path, name in run.TARGETS:
        owner = importlib.import_module(f"eulermc.{module}")
        for part in path.split("."):
            assert hasattr(owner, part), f"{name}: eulermc.{module} has no {path}"
            owner = getattr(owner, part)
        assert callable(owner), name
    assert callable(simulate.draw_dim)
    assert set(cli._COMMANDS) == set(harness.COMMANDS)
    assert {workload.argv[0] for workload in run.WORKLOADS.values()} <= set(cli._COMMANDS)


def _package_imports(tree):
    """The package modules that a module's imports name, at module level or
    inside a function: `from .x import ...`, `from . import x` and the
    absolute `eulermc.x` forms."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 1 or module.split(".")[0] == "eulermc":
                module = module.removeprefix("eulermc").lstrip(".")
                names.update([module.split(".")[0]] if module else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            names.update(a.name.split(".")[1] for a in node.names if a.name.startswith("eulermc."))
    return names


def test_only_cli_imports_harness_and_nothing_imports_cli():
    # the harness runs commands and writes every file: the layers below it
    # hand it data, and the CLI front end is the one layer above it
    found = [
        f"{module} imports {target}"
        for module, tree in _trees().items()
        for target in _package_imports(tree)
        if target == "cli" or (target == "harness" and module != "cli.py")
    ]
    assert not found, found

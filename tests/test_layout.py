"""Every public module-level name in the package has a caller in the package.

A function or class that only tests call belongs in the tests (as an oracle)
or nowhere.  References are names and attribute lookups in any module of
src/eulermc; an import or an `__all__` entry is not a use.
"""

import ast
import builtins
import importlib
import importlib.util
import sys
from pathlib import Path

import eulermc
from eulermc import cli, errors, harness, simulate
from eulermc.model import MODEL_PRESETS

PACKAGE = Path(eulermc.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# public names that callers outside the package use, each with its reason
ENTRY_POINTS = {
    "register_model_preset": "installs custom model coefficients; the README documents it",
    "main": "cli.main runs one command for in-process callers and the benchmark child",
    "script_entry": "the `eulermc` console script in pyproject.toml",
    "frozen_density": "the benchmark traces it, and tests/test_parametrix.py checks it against "
    "the scheme density; the series reads the same running sums (parametrix._running_sums)",
    "kernel_density": "the benchmark traces it, and criterion 02 and tests/oracles.py use it as "
    "the kernel oracle; the envelope fit works with its log (harness.run_density_check)",
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


# parameter defaults that no call in the package sets, each with its reason
UNSET_DEFAULTS = {
    "cli.py:main": "an entry point: argv=None reads the command line",
    **{
        f"model.py:{name}": "a MODEL_PRESETS builder: model_preset calls it as builder(**params)"
        for name in ("_const_model", "_trig_model")
    },
}


def _defaults(trees):
    """(module:function, function, parameter, position) of every parameter
    with a default; the position leaves out a leading self or cls, and is
    None for keyword-only parameters."""
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            shift = int(bool(positional) and positional[0].arg in ("self", "cls"))
            first = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first:], first - shift):
                found.append((f"{module}:{node.name}", node.name, arg.arg, i))
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    found.append((f"{module}:{node.name}", node.name, arg.arg, None))
    return found


def _unset_defaults(trees):
    """The _defaults entries that no call in the package sets by keyword or
    by position; a call with *args or **kwargs sets every parameter."""
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                keywords = {k.arg for k in node.keywords}
                starred = None in keywords or any(isinstance(a, ast.Starred) for a in node.args)
                calls.setdefault(name, []).append((starred, len(node.args), keywords))
    return {
        f"{key}({param})"
        for key, name, param, pos in _defaults(trees)
        if not any(
            starred or param in keywords or pos is not None and pos < n_args
            for starred, n_args, keywords in calls.get(name, [])
        )
    }


def test_every_parameter_default_is_set_by_a_caller_in_the_package():
    # a default that no call overrides is a constant with extra steps; each
    # UNSET_DEFAULTS entry must still be such a function
    unset = _unset_defaults(_trees())
    extra = sorted(entry for entry in unset if entry.split("(")[0] not in UNSET_DEFAULTS)
    assert not extra, f"parameter defaults that no call in src/eulermc sets: {extra}"
    assert {entry.split("(")[0] for entry in unset} == set(UNSET_DEFAULTS)


def test_harness_names_a_preset_only_in_its_field_table_and_the_default():
    # what a preset's model is, its exact law and its control twin included,
    # lives in eulermc.model: the harness names a preset only to hand the
    # builder its config fields, and as the default of the preset field
    tree = _trees()["harness.py"]
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "_PRESET_FIELDS":
            allowed.update(node.value.keys)
        elif isinstance(node, ast.AnnAssign) and ast.unparse(node.target) == "preset":
            allowed.add(node.value)
    found = [
        f"harness.py:{node.lineno}: {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in MODEL_PRESETS and node not in allowed
    ]
    assert not found, f"preset names outside _PRESET_FIELDS and the preset default: {found}"


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


def _perfbench_run(monkeypatch):
    """perfbench/run.py as a module; its scripts import each other by name."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look it up
    spec.loader.exec_module(run)
    return run


def test_benchmark_hooks_resolve_on_the_package(monkeypatch):
    # perfbench/child.py wraps each TARGETS attribute and runs a workload
    # through cli._COMMANDS, so a rename in the package would break
    # `perfbench/run.py --trace 1`
    run = _perfbench_run(monkeypatch)
    for module, path, name in run.TARGETS:
        owner = importlib.import_module(f"eulermc.{module}")
        for part in path.split("."):
            assert hasattr(owner, part), f"{name}: eulermc.{module} has no {path}"
            owner = getattr(owner, part)
        assert callable(owner), name
    assert callable(simulate.draw_dim)
    assert set(cli._COMMANDS) == set(harness.COMMANDS)
    assert {workload.argv[0] for workload in run.WORKLOADS.values()} <= set(cli._COMMANDS)


def test_no_command_runner_shares_a_name_with_a_traced_function(monkeypatch):
    # the traced run names a command's span `harness.<runner __name__>`: a
    # runner named like a traced function would merge the two spans, and
    # count and time that function twice
    traced = {path.split(".")[-1] for _, path, _ in _perfbench_run(monkeypatch).TARGETS}
    runners = {command.__name__ for command in cli._COMMANDS.values()}
    assert len(runners) == len(cli._COMMANDS) and not runners & traced, runners & traced


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


def test_each_exit_code_has_one_error_class():
    # cli.main reads only a failure's exit_code, so a subclass below a code's
    # class is a name that changes nothing; ConfigError is itself the builtin
    # ValueError that library callers catch
    per_code = (errors.ConfigError, errors.NumericError, errors.StatisticsError)
    below = [
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, per_code) and obj not in per_code
    ]
    assert not below, f"error classes below an exit code's class: {below}"
    assert issubclass(errors.ConfigError, ValueError)


def _raised_class(node):
    """The name of the class a raise constructs: the callee of `raise X(...)`,
    or a builtin class raised by name; None for a bare raise or a caught
    object raised again."""
    if isinstance(node.exc, ast.Call):
        return _dotted(node.exc.func)
    name = _dotted(node.exc) if node.exc is not None else None
    return name if isinstance(getattr(builtins, name or "", None), type) else None


def test_every_raise_constructs_an_exit_code_class():
    # a builtin ValueError or TypeError reaches the CLI as a traceback
    allowed = {None, "ConfigError", "NumericError", "StatisticsError"}
    found = [
        f"{module}:{node.lineno} raises {_raised_class(node)}"
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and _raised_class(node) not in allowed
    ]
    assert not found, found

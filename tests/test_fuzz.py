"""A bounded fuzz test of the command line.

Hypothesis draws a command and a `--set` map over the typed config fields:
typed values, boundary values (0, -1, huge, NaN, empty lists) and wrong
types, x0 among them, with an `abs` growth spec (rho0, beta) a third of the
time.  Every size field is drawn small and `threads` is at most 2, so no
example allocates much or starts many threads; `derandomize=True` and a
fixed example count keep the test deterministic.

Each example runs `cli.main` in process.  It must exit 0, 2, 3 or 4; a
failed run prints one `error:` line and writes no file; no JSON report
holds NaN or Infinity; and two runs of one command whose bodies differ
(config-hash lines left out) have different config hashes.  A run that
succeeds is run twice more, each time with one of the fields it read set
anew, so that a read field the hash leaves out shows within the pair.
"""

import contextlib
import dataclasses
import io
import json
import math
import tempfile
import zlib
from pathlib import Path
from unittest import mock

from hypothesis import given, settings, strategies as st

from eulermc import harness
from eulermc.cli import main

# the small values of each size field: every example sets each field but d
# and dp (which a preset refuses away from their defaults) to one of them
_SIZES = {
    "M": [1, 2, 7],
    "num_batches": [1, 2, 20],
    "control_factor": [1, 3],
    "N": [1, 2, 5],
    "num_r": [1, 3],
    "density_samples": [2, 300, 3000],
    "grid_points": [3, 41, 101],
    "geodesic_steps": [2, 5],
    "r_max": [0, 1, 2],
    "threads": [1, 2],
}
_DIMENSIONS = {"d": [1, 2, 3], "dp": [1, 2]}
_FLOATS = [0.0, 1.0, 2.0, -1.0, 0.5, 3.0, 1e-300, 1e300, math.nan, math.inf, -math.inf]
_WORDS = [
    "const", "trig", "kinetic", "identity", "sum", "abs", "asian-diff", "hist", "ck", "full", "",
]
_WRONG = st.sampled_from(["abc", True, None, 2.5, [], [[0.0]], {"a": 1}])
_KINDS = {
    "float": st.sampled_from(_FLOATS),
    "int": st.sampled_from([0, 1, 2, -1, 10**30]),
    "list[float]": st.lists(st.sampled_from(_FLOATS), max_size=3),
    "str": st.sampled_from(_WORDS),
    "bool": st.booleans(),
    "None": st.none(),
}
_FIELDS = {f.name: f.type for f in dataclasses.fields(harness.ExperimentConfig)}
del _FIELDS["out_dir"]
# plain values, which most fields accept
_PLAIN = {
    **_KINDS,
    "float": st.sampled_from([0.25, 0.5, 2.0, 3.0]),
    "int": st.sampled_from([0, 1, 2, 5]),
    "list[float]": st.lists(st.sampled_from([0.25, 0.5, 2.0, 3.0]), min_size=1, max_size=3),
}


def _typed(name, kinds=_KINDS, low=(0, -1)):
    """A value of the field's annotation; a size field takes one of its
    small values or a value in low."""
    small = {**_SIZES, **_DIMENSIONS}.get(name)
    if small is not None:
        return st.sampled_from([*small, *low])
    return st.one_of(*(kinds[kind] for kind in _FIELDS[name].split(" | ")))


def _value(name):
    """A value of the field's annotation three times in four, else a wrong type."""
    return st.one_of(_typed(name), _typed(name), _typed(name), _WRONG)


_GROWTH = st.one_of(
    st.just({}),
    st.just({}),
    st.fixed_dictionaries(
        {
            "functional": st.just("abs"),
            "rho0": st.sampled_from(_FLOATS),
            "beta": st.sampled_from(_FLOATS),
        }
    ),
)
_SETS = st.dictionaries(st.sampled_from(sorted(_FIELDS)), st.none(), max_size=4).flatmap(
    lambda names: st.fixed_dictionaries({name: _value(name) for name in names})
)
_RUNS = st.tuples(
    st.sampled_from(sorted(harness.COMMANDS)),
    st.fixed_dictionaries({name: st.sampled_from(v) for name, v in _SIZES.items()}),
    _GROWTH,
    _SETS,
)


def _reject_constant(name):
    raise AssertionError(f"JSON report holds {name}")


def _body(path: Path) -> bytes:
    """The file's bytes without its config-hash line."""
    lines = path.read_bytes().split(b"\n")
    return b"\n".join(
        line for line in lines if not line.startswith((b"# config-hash: ", b'  "config_hash": '))
    )


def _run(command: str, values: dict, seen: dict):
    """Run command with --set name=value for each entry of values and check
    its exit and files.  seen maps (command, config hash) to the set map
    and file bodies of each run that succeeded.  The fields the run read
    when it succeeded, else None."""
    made = []

    class Recording(harness._Recording):
        def __init__(self, **fields):
            super().__init__(**fields)
            made.append(self)

    argv = [command]
    for name, value in values.items():
        argv += ["--set", f"{name}={json.dumps(value)}"]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), mock.patch.object(harness, "_Recording", Recording):
            rc = main([*argv, "--out-dir", str(out)])
        files = sorted(out.glob("*")) if out.exists() else []
        assert rc in (0, 2, 3, 4), (rc, values)
        if rc != 0:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (lines, values)
            assert not files, (files, values)
            return None
        digests = set()
        for path in files:
            if path.suffix == ".json":
                report = json.loads(path.read_text(), parse_constant=_reject_constant)
                digests.add(report["config_hash"])
            elif path.suffix == ".csv":
                digests.add(path.read_text().split("\n", 1)[0].removeprefix("# config-hash: "))
        bodies = {path.name: _body(path) for path in files}
    (digest,) = digests
    first = seen.setdefault((command, digest), (values, bodies))
    assert first[1] == bodies, f"{command} wrote {first[0]} and {values} under one hash {digest}"
    return made[0].reads


def test_cli_exits_cleanly_on_drawn_configs():
    seen = {}

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(_RUNS, st.data())
    def check(run, data):
        command, sizes, growth, sets = run
        values = {**sizes, **growth, **sets}
        reads = _run(command, values, seen)
        if reads is None:
            return
        reads = sorted(reads - {"out_dir"})
        # two fields picked by a checksum of the map: hypothesis draws
        # favour the first entries of a list
        k = zlib.crc32(json.dumps(values, sort_keys=True).encode())
        for name in dict.fromkeys([reads[k % len(reads)], reads[k // len(reads) % len(reads)]]):
            _run(command, {**values, name: data.draw(_typed(name, _PLAIN, ()))}, seen)

    check()

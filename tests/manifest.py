"""The output manifest: a fixed set of small CLI runs and two SHA-256 digests
of every file they write, kept in tests/manifest.json: "full" of the file's
bytes, and "body" of the file less its config hash (a CSV without its
`# config-hash` line, a JSON report without its config_hash key, any other
file whole).

    PYTHONPATH=src python tests/manifest.py

reruns the set and rewrites the manifest; tests/test_manifest.py reruns it
and names each file whose digest differs, the files whose body changed apart
from those whose config hash alone changed.  A change that alters outputs
commits the rewritten manifest and says in CHANGES.md why each file changed.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from eulermc.cli import main

MANIFEST = Path(__file__).resolve().with_name("manifest.json")

_LOWER = ["--set", 'functional="abs"', "--set", "rho0=1", "--set", "beta=1"]
_KINETIC = ["--set", 'preset="kinetic"', "--set", "dp=1", "--set", "x0=[0,0]"]
_SEED = ["--set", "M=50", "--set", "N=2"]
_CONTROL = ["--set", "M=100", "--set", "num_batches=50", "--set", "num_r=5", "--set", "control_factor=20"]

# label -> argv without --out-dir; sizes are cut so that the set runs in
# about a second
COMMANDS = {
    # README examples but parametrix (see test_manifest)
    "readme-bounds": ["bounds", *_KINETIC, "--set", "eps=[0.05,0.01]"],
    "readme-concentration": ["concentration", "--set", "M=100", "--set", "num_batches=2000", "--seed", "1"],
    "readme-control-geodesic": [
        "control-geodesic", "--set", "control_x=[0,0]", "--set", "control_x_prime=[0,1]",
    ],
    # hist envelope fits, on fewer samples than the defaults: the README
    # kinetic check, and a two-dimensional const law off the origin
    "readme-density-check": [
        "density-check", *_KINETIC, "--set", "c=2.0", "--set", "C=1.2",
        "--set", "density_samples=100000",
    ],
    "density-d2-off-origin": [
        "density-check", "--set", "d=2", "--set", "x0=[0.3,-1]", "--set", "density_samples=100000",
    ],
    # lower-bound constants: gamma_F is E|Y| by one deterministic integral
    "lower-bounds-d1": ["bounds", *_LOWER],
    "lower-bounds-d2": ["bounds", "--set", "d=2", "--set", "x0=[0,0]", *_LOWER],
    "lower-bounds-d2-off-origin": ["bounds", "--set", "d=2", "--set", "x0=[0.3,-1.0]", *_LOWER],
    "lower-bounds-d3": ["bounds", "--set", "d=3", "--set", "x0=[0,0,0]", *_LOWER],
    "lower-bounds-kinetic": ["bounds", *_KINETIC, *_LOWER],
    # a numeric cone, and theta in an odd dimension
    "lower-bounds-d2-cone": ["bounds", "--set", "d=2", "--set", "x0=[0,0]", *_LOWER, "--set", "cone=3"],
    "lower-bounds-d3-theta": ["bounds", "--set", "d=3", "--set", "x0=[0,0,0]", *_LOWER, "--set", "theta=3"],
    "lower-bounds-kinetic-off-origin": ["bounds", *_KINETIC[:4], "--set", "x0=[1,0.5]", *_LOWER],
    # M = 1 leaves some lower-bound radii testable, so lower_empirical is not empty
    "lower-concentration-d2": [
        "concentration", "--set", "d=2", "--set", "x0=[0,0]", "--set", "M=1",
        "--set", "num_batches=400", *_LOWER,
    ],
    "simulate-binary": ["simulate", "--set", "M=1000", "--set", "export_binary=true"],
    # three interleaved columns and a last CSV block of 905 rows; the last
    # chunk's columns end inside a 4-word Philox block
    "simulate-d3": ["simulate", "--set", "d=3", "--set", "M=5001"],
    # two draws per step, the same partial last chunk
    "simulate-kinetic": ["simulate", *_KINETIC, "--set", "M=5001"],
    # noise scales other than 1, in more than one coordinate
    "simulate-d16-sigma": ["simulate", "--set", "d=16", "--set", "sigma0=0.7", "--set", "M=5001"],
    "simulate-kinetic-sigma": [
        "simulate", *_KINETIC[:2], "--set", "dp=4", "--set", "sigma0=1.3", "--set", "M=5001",
    ],
    # control runs: no closed-form mean for trig or damped kinetic
    "control-trig": ["concentration", "--set", 'preset="trig"', *_CONTROL],
    "control-kinetic": ["concentration", *_KINETIC, "--set", "damp=0.5", *_CONTROL],
    # kinetic abs: the twin's exact E|X_T| under damping, the preset's own at damp = 0
    "control-kinetic-abs": [
        "concentration", *_KINETIC, "--set", "damp=0.5", "--set", 'functional="abs"', *_CONTROL,
    ],
    "exact-kinetic-abs": ["concentration", *_KINETIC, "--set", 'functional="abs"', *_CONTROL],
    # a trig control run that doubles from 4096 to 8192 to 16384 samples
    "control-trig-doubling": ["concentration", "--set", 'preset="trig"', "--set", "b_amp=1", *_CONTROL],
    # the other functionals (asian-diff with its normalised alpha), and an
    # explicit r_grid
    "concentration-sum-d3": [
        "concentration", "--set", "d=3", "--set", 'functional="sum"', *_CONTROL[:2],
        "--set", "num_batches=200",
    ],
    "concentration-asian-diff": [
        "concentration", *_KINETIC, "--set", 'functional="asian-diff"', *_CONTROL[:2],
        "--set", "num_batches=200",
    ],
    "concentration-r-grid": [
        "concentration", *_CONTROL[:2], "--set", "num_batches=200",
        "--set", "r_grid=[0,0.05,0.1,0.2]",
    ],
    # one side of each SAME_RUN pair
    "control-geodesic-M": [
        "control-geodesic", "--set", "control_x=[0,0]", "--set", "control_x_prime=[0,1]",
        "--set", "M=5",
    ],
    "simulate-M": ["simulate", "--set", "M=50"],
    "simulate-M-eps": ["simulate", "--set", "M=50", "--set", "eps=[0.1]"],
    "bounds-M": ["bounds", "--set", "M=50"],
    "bounds-M-density-samples": ["bounds", "--set", "M=50", "--set", "density_samples=5"],
    "bounds-M-seed": ["bounds", "--set", "M=50", "--seed", "5"],
    "bounds-M-N": ["bounds", "--set", "M=50", "--set", "N=16"],
    "readme-concentration-unread": [
        "concentration", "--set", "M=100", "--set", "num_batches=2000", "--seed", "1",
        "--set", "control_factor=5", "--set", "theta=3",
    ],
    "seed-minus-one": ["simulate", *_SEED, "--seed", "-1", "--set", "stream_id=-1"],
    "seed-two-64-minus-one": [
        "simulate", *_SEED, "--seed", str(2**64 - 1), "--set", f"stream_id={2**64 - 1}",
    ],
    "kinetic-x0-one": ["simulate", *_KINETIC[:4], "--set", "M=50", "--set", "x0=[0]"],
    "kinetic-x0-two": ["simulate", *_KINETIC, "--set", "M=50"],
}

# label pairs that give the same run, so they must write the same bytes,
# config-hash line included: a field the run does not read (M for
# control-geodesic, eps for simulate, density_samples, the seed and N for
# bounds, control_factor and theta for a concentration run with an exact
# reference and no growth spec), a Philox key equal mod 2**64, and a start
# point given once for every coordinate
SAME_RUN = [
    ("readme-control-geodesic", "control-geodesic-M"),
    ("simulate-M", "simulate-M-eps"),
    ("bounds-M", "bounds-M-density-samples"),
    ("bounds-M", "bounds-M-seed"),
    ("bounds-M", "bounds-M-N"),
    ("readme-concentration", "readme-concentration-unread"),
    ("seed-minus-one", "seed-two-64-minus-one"),
    ("kinetic-x0-one", "kinetic-x0-two"),
]


def _body(path: Path, data: bytes) -> bytes:
    """The bytes of the file less its config hash."""
    if path.suffix == ".csv" and data.startswith(b"# config-hash: "):
        return data.split(b"\n", 1)[1]
    if path.suffix == ".json":
        report = json.loads(data)
        report.pop("config_hash", None)
        return json.dumps(report, sort_keys=True, indent=2).encode()
    return data


def run_all(root: Path) -> dict:
    """Run every command under root/<label> and return
    {label/file: {"body": sha256, "full": sha256}}."""
    for label, argv in COMMANDS.items():
        if main([*argv, "--out-dir", str(root / label)]) != 0:
            raise RuntimeError(f"{label} failed: eulermc {' '.join(argv)}")
    digests = {}
    for path in sorted(root.glob("*/*")):
        data = path.read_bytes()
        digests[f"{path.parent.name}/{path.name}"] = {
            "body": hashlib.sha256(_body(path, data)).hexdigest(),
            "full": hashlib.sha256(data).hexdigest(),
        }
    return digests


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_all(Path(tmp))
    MANIFEST.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {MANIFEST}", file=sys.stderr)

"""Output checks and digests for the benchmark's workloads.

Each check reads one CLI run's output directory and raises CheckError when
an output is wrong.  The checks hold for any master seed: they test the
statistical or numerical promise of the command, not particular values.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path


class CheckError(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _csv_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        first = fh.readline()
        _require(first.startswith("# config-hash: "), f"{path.name}: no config-hash line")
        reader = csv.reader(fh)
        return next(reader), list(reader)


def digest(out_dir: Path) -> str:
    """SHA-256 over the names and bytes of every output file."""
    h = hashlib.sha256()
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(out_dir)).encode() + b"\0")
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
    return h.hexdigest()


def config_hash(out_dir: Path) -> str:
    """The config hash the run wrote into its first output file."""
    for path in sorted(out_dir.iterdir()):
        if path.suffix == ".json":
            return json.loads(path.read_text())["config_hash"]
        if path.suffix == ".csv":
            with open(path) as fh:
                return fh.readline().removeprefix("# config-hash: ").strip()
    raise CheckError("no output files")


def concentration(out_dir: Path) -> None:
    """Every empirical tail frequency and its Wilson 99% upper limit stay
    under the bound (the rule of acceptance criterion 07)."""
    header, rows = _csv_rows(out_dir / "concentration.csv")
    _require(header == ["r", "empirical_freq", "bound", "wilson_upper"], "bad header")
    _require(len(rows) > 0, "no radii")
    for r, freq, bound, wilson in rows:
        _require(float(freq) <= float(bound), f"r={r}: frequency {freq} > bound {bound}")
        _require(float(wilson) <= float(bound), f"r={r}: Wilson {wilson} > bound {bound}")


def parametrix(out_dir: Path) -> None:
    """Series within 1e-2 of the Chapman-Kolmogorov table and term norms
    decreasing from the first correction on (the rule of criterion 06)."""
    report = json.loads((out_dir / "parametrix.json").read_text())
    rel = report["sup_rel_error_vs_ck"]
    _require(rel < 1e-2, f"sup relative error {rel} >= 1e-2")
    norms = report["term_sup_norms"]
    _require(len(norms) >= 3, "fewer than two correction terms")
    _require(
        all(norms[r] < norms[r - 1] for r in range(2, len(norms))),
        f"term norms do not decay: {norms}",
    )
    header, rows = _csv_rows(out_dir / "parametrix_series.csv")
    _require(header == ["x_prime", "value"], "bad series header")
    _require(len(rows) == report["grid"]["n_points"], "series row count")


def density(out_dir: Path) -> None:
    """At least 5 reported bins and a finite fitted envelope."""
    report = json.loads((out_dir / "density_check.json").read_text())
    _require(report["n_reported"] >= 5, f"n_reported {report['n_reported']} < 5")
    for key in ("c_fit", "C_fit"):
        _require(math.isfinite(report[key]), f"{key} is not finite")


def simulate(M: int):
    """M data rows, and mean and variance of x_1 within 5 standard errors of
    the exact N(0, 1) terminal law of the const preset."""

    def check(out_dir: Path) -> None:
        # streamed (Welford), so the benchmark process stays small: a child's
        # ru_maxrss includes its parent's pages before exec
        n, mean, m2 = 0, 0.0, 0.0
        with open(out_dir / "samples.csv", newline="") as fh:
            _require(fh.readline().startswith("# config-hash: "), "no config-hash line")
            _require(fh.readline() == "sample_index,x_1\n", "bad header")
            for line in fh:
                index, x = line.split(",")
                _require(int(index) == n, f"sample_index {index} at row {n}")
                n += 1
                step = float(x) - mean
                mean += step / n
                m2 += step * (float(x) - mean)
        _require(n == M, f"{n} rows, expected {M}")
        var = m2 / (M - 1)
        _require(abs(mean) < 5.0 / math.sqrt(M), f"mean {mean} off N(0, 1)")
        _require(abs(var - 1.0) < 5.0 * math.sqrt(2.0 / (M - 1)), f"variance {var} off N(0, 1)")

    return check

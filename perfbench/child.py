"""Run one eulermc CLI command in this process.

usage: python3 child.py REPORT MODE -- COMMAND [CLI ARGUMENTS ...]

The command runs through eulermc.cli.main, as the `eulermc` script runs it.
MODE is `run` (untraced), `trace` (every layer entry point wrapped in a
span) or `setup` (stop at the first call into the command layer, before
any work).  REPORT receives a JSON object with the monotonic time of that
first call, the import time of eulermc.cli, the versions in use and, when
traced, the spans.  Tracing replaces the module attributes that callers look
up with timed wrappers; the program's files are not changed and its outputs
must not change either.
"""

from __future__ import annotations

import importlib
import inspect
import json
import platform
import sys
import time

from spans import Spans


def _simulate_attrs(fn, draw_dim):
    """Samples and standard normals requested by one simulate_terminal call."""
    sig = inspect.signature(fn)

    def attrs(*args, **kwargs):
        bound = sig.bind(*args, **kwargs).arguments
        M, N = int(bound["M"]), int(bound["grid"].N)
        return {"samples": M, "normals": M * N * draw_dim(bound["model"])}

    return attrs


# (eulermc module, attribute its callers look up, span name)
TARGETS = (
    ("harness", "simulate_terminal", "simulate.simulate_terminal"),
    ("simulate", "scheme_step", "simulate.scheme_step"),
    ("harness", "reference_mean", "harness.reference_mean"),
    ("harness", "run_density_check", "harness.run_density_check"),
    ("harness", "kernel_density", "gaussianref.kernel_density"),
    ("harness", "parametrix_series", "parametrix.parametrix_series"),
    ("harness", "chapman_kolmogorov_density", "parametrix.chapman_kolmogorov_density"),
    ("parametrix", "frozen_density", "parametrix.frozen_density"),
    ("harness", "export_csv", "simulate.export_csv"),
    ("harness", "write_csv", "harness.write_csv"),
    ("harness", "write_json", "harness.write_json"),
    ("parametrix", "DensityTable.to_csv", "parametrix.DensityTable.to_csv"),
)


def install_spans(spans: Spans) -> None:
    """Replace each target with a timed wrapper."""
    from eulermc.simulate import draw_dim

    for module, path, name in TARGETS:
        owner = importlib.import_module(f"eulermc.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        fn = getattr(owner, attr)
        attrs = _simulate_attrs(fn, draw_dim) if attr == "simulate_terminal" else None
        setattr(owner, attr, spans.wrap(name, fn, attrs))


def main() -> int:
    report_path, mode = sys.argv[1], sys.argv[2]
    argv = sys.argv[4:]
    t0 = time.monotonic()
    from eulermc import cli

    report: dict = {"import_s": time.monotonic() - t0, "first_call": None}
    spans = Spans() if mode == "trace" else None
    if spans is not None:
        install_spans(spans)

    command = cli._COMMANDS[argv[0]]
    if spans is not None:
        command = spans.wrap(f"harness.{command.__name__}", command)

    def entry(cfg):
        report["first_call"] = time.monotonic()
        return None if mode == "setup" else command(cfg)

    cli._COMMANDS[argv[0]] = entry
    try:
        return cli.main(argv)
    finally:
        import eulermc
        import numpy
        import scipy

        report.update(
            eulermc_file=eulermc.__file__,
            versions={
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
            },
        )
        if spans is not None:
            report["spans"] = spans.dump()
        with open(report_path, "w") as fh:
            json.dump(report, fh)

if __name__ == "__main__":
    sys.exit(main())

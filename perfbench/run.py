"""Outside-in benchmark of the eulermc command line.

usage: python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                                [--trace 0|1]

Run from the root of a checkout.  One workload is one CLI invocation (see
WORKLOADS and perfbench/README.md).  The benchmark starts it as a fresh
subprocess, one at a time in a closed loop: SETUP_PROBES launches that stop
at the first call into the command layer (the first one is an untimed
warm-up), then whole invocations until about --seconds have passed (at
least MIN_RUNS).  A fixed reference computation is timed before and after
each process, and wall_s and setup_s are scaled by it to a reference host
speed (see REFERENCE).  Every invocation's outputs are checked and digested;
all invocations of a run use the same seed, so their digests must agree,
traced or not.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced invocations and reports the per-layer
metrics.  Every metric is printed by name and unit, the environment is
printed and written with the per-invocation records under .perfbench/, and
the last line of standard output is the JSON result:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import spans
from child import TARGETS

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
DEFAULT_SEED = 20260808
SETUP_PROBES = 2
MIN_RUNS = 2
CHILD_LIMIT_S = 120.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# On a shared host the speed of one core swings by up to 1.6x, in phases of
# seconds to minutes, so a run's median wall time spreads by a fifth from run
# to run.  The benchmark therefore times this fixed computation, in a process
# of its own, before and after every CLI process, and scales that process's
# times by REFERENCE_S over the mean of the two.  It calls no eulermc code
# and mixes what the workloads do: interpreted arithmetic, many small numpy
# calls and a large one.  REFERENCE_S is about its time on an idle core of
# the baseline machine (README, Host speed).
REFERENCE = """
import time
import numpy as np

rng = np.random.default_rng(0)
t0 = time.perf_counter()
acc = 0.0
for i in range(600_000):
    acc += (i * 0.5) % 7.0
for _ in range(2_000):
    acc += float(np.cumsum(rng.standard_normal(500))[-1])
x = rng.standard_normal(2_000_000)
x.sort()
acc += float(x @ x)
print(time.perf_counter() - t0)
"""
REFERENCE_S = 0.20


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    check: Callable[[Path], None]


_KINETIC = ("--set", 'preset="kinetic"', "--set", "dp=1", "--set", "x0=[0,0]")
# a 5e5-sample control run; its standard error must stay under a tenth of
# the smallest radius, and 10 radii instead of 20 double that radius
_SHORT_CONTROL = ("--set", "control_factor=25", "--set", "num_r=10")

# Each CLI call is cut to about 3 s (README, Workloads), so that one run
# takes the median of five to seven of them.
WORKLOADS = {
    "conc-trig-ctrl": Workload(
        ("concentration", "--set", 'preset="trig"', *_SHORT_CONTROL, "--threads", "1"),
        checks.concentration,
    ),
    "parametrix-trig": Workload(
        ("parametrix", "--set", 'preset="trig"', "--set", "N=10", "--set", "grid_points=401"),
        checks.parametrix,
    ),
    "density-kinetic-t2": Workload(
        (
            "density-check", *_KINETIC, "--set", "c=2.0", "--set", "C=1.2",
            "--set", "density_samples=250000", "--threads", "2",
        ),
        checks.density,
    ),
    "simulate-csv": Workload(
        ("simulate", "--set", "M=250000", "--threads", "1"),
        checks.simulate(250_000),
    ),
}

LAYERS = tuple(name for _, _, name in TARGETS)
WRITERS = (
    "simulate.export_csv",
    "harness.write_csv",
    "harness.write_json",
    "parametrix.DensityTable.to_csv",
)
RATIOS = ("failed_frac", "process.cpu_per_wall", "trace.coverage")


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name in RATIOS:
        return "ratio"
    if name == "io.bytes_written":
        return "B"
    return "count"


# ---------------------------------------------------------------------------
# One CLI invocation.


def child_env(nproc: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for var in BLAS_VARS:
        env[var] = str(nproc)
    return env


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(cmd: list[str], env: dict, log: Path):
    """Start cmd, wait for it alone; return (launch time, wall, exit code,
    rusage of that process)."""
    with open(log, "wb") as fh:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            cmd, env=env, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=fh, stderr=subprocess.STDOUT
        )
        timer = threading.Timer(CHILD_LIMIT_S, _kill, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - t0
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return t0, wall, proc.returncode, usage


def layer_metrics(report: dict, wall: float, setup: float) -> dict:
    """Per-layer metrics of one traced invocation."""
    recs = [spans.Span(**s) for s in report["spans"]]
    tot = spans.totals(recs)
    zero = {"s": 0.0, "self_s": 0.0, "calls": 0}
    m: dict = {}
    for name in LAYERS:
        row = tot.get(name, zero)
        for key in ("s", "self_s", "calls"):
            m[f"{name}.{key}"] = row[key]
    roots = [s for s in recs if s.parent is None]
    m["harness.run_cmd.s"] = sum(s.end - s.start for s in roots)
    m["harness.run_cmd.self_s"] = sum(
        tot[name]["self_s"] for name in {s.name for s in roots}
    )
    sims = [s.attrs for s in recs if s.name == "simulate.simulate_terminal"]
    m["simulate.samples"] = sum(a["samples"] for a in sims)
    m["simulate.normals"] = sum(a["normals"] for a in sims)
    m["simulate.draw.s"] = m["simulate.simulate_terminal.self_s"]
    draw = m["simulate.draw.s"]
    m["simulate.normals_per_s"] = m["simulate.normals"] / draw if draw > 0 else 0.0
    m["io.write.s"] = sum(m[f"{name}.s"] for name in WRITERS)
    m["cli.import.s"] = report["import_s"]
    m["trace.coverage"] = (setup + m["harness.run_cmd.s"]) / wall
    return m


@dataclass
class Invocation:
    mode: str  # run, trace or setup (see child.py)
    wall_s: float
    exit_code: int
    peak_rss_mb: float
    cpu_s: float
    setup_s: float | None = None
    versions: dict | None = None
    digest: str | None = None
    config_hash: str | None = None
    bytes_written: int = 0
    layers: dict | None = None
    failure: str | None = None
    reference_s: float | None = None  # mean of the references just before and after


def reference_s(env: dict) -> float:
    """Seconds of one run of REFERENCE, timed inside its own process.  -E
    drops PYTHONPATH and -P the working directory from its import path, so
    it cannot import the checkout's code."""
    try:
        out = subprocess.run(
            [sys.executable, "-E", "-P", "-c", REFERENCE],
            env=env, cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True,
            text=True, timeout=CHILD_LIMIT_S, check=True,
        )
        return float(out.stdout)
    except (subprocess.SubprocessError, ValueError) as exc:
        raise RuntimeError(f"reference computation failed: {exc}") from exc


def invoke(wl: Workload, seed: int, mode: str, env: dict, work: Path, i: int, verdicts: dict):
    """One CLI process; its outputs are digested, checked and deleted."""
    out, report_path = work / f"out{i}", work / f"report{i}.json"
    cmd = [
        sys.executable, str(CHILD), str(report_path), mode, "--",
        *wl.argv, "--seed", str(seed), "--out-dir", str(out),
    ]
    log = work / f"log{i}.txt"
    t0, wall, code, usage = run_child(cmd, env, log)
    inv = Invocation(
        mode=mode,
        wall_s=wall,
        exit_code=code,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        cpu_s=usage.ru_utime + usage.ru_stime,
    )
    try:
        if code != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-1:]
            raise checks.CheckError(f"exit code {code}: {' '.join(tail)}")
        report = json.loads(report_path.read_text())
        if not Path(report["eulermc_file"]).resolve().is_relative_to(ROOT / "src"):
            raise checks.CheckError(f"eulermc imported from {report['eulermc_file']}")
        if report["first_call"] is None:
            raise checks.CheckError("command layer never called")
        inv.setup_s = report["first_call"] - t0
        inv.versions = report["versions"]
        if mode == "setup":
            return inv
        if mode == "trace":
            inv.layers = layer_metrics(report, wall, inv.setup_s)
        inv.digest = checks.digest(out)
        inv.config_hash = checks.config_hash(out)
        inv.bytes_written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        if inv.digest not in verdicts:
            try:
                wl.check(out)
                verdicts[inv.digest] = None
            except checks.CheckError as exc:
                verdicts[inv.digest] = f"output check: {exc}"
        inv.failure = verdicts[inv.digest]
    except (checks.CheckError, OSError, ValueError, KeyError) as exc:
        inv.failure = str(exc) or type(exc).__name__
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return inv


# ---------------------------------------------------------------------------
# A run: set-up probes, closed loop, metrics.


def measure(wl: Workload, seed: int, seconds: float, trace: bool, env: dict, work: Path):
    """SETUP_PROBES set-up-only invocations, then whole ones until the
    deadline; a traced run alternates untraced and traced invocations."""
    verdicts: dict = {}
    invs: list[Invocation] = []
    deadline = time.monotonic() + seconds
    modes = itertools.chain(
        ["setup"] * SETUP_PROBES, itertools.cycle(["run", "trace"] if trace else ["run"])
    )
    cycles: list[float] = []  # seconds of one reference and one whole invocation
    # start another invocation only if it is expected to end less than half
    # a cycle past the deadline, so a run lasts about --seconds
    before = reference_s(env)
    while len(cycles) < MIN_RUNS or time.monotonic() + statistics.median(cycles) / 2 < deadline:
        t0 = time.monotonic()
        inv = invoke(wl, seed, next(modes), env, work, len(invs), verdicts)
        after = reference_s(env)
        inv.reference_s = (before + after) / 2
        before = after
        invs.append(inv)
        if inv.mode != "setup":
            cycles.append(time.monotonic() - t0)
    digests = [i.digest for i in invs if i.digest is not None]
    for inv in invs:
        if inv.failure is None and inv.digest not in (None, digests[0]):
            inv.failure = "output digest differs from the first run of this set"
    return invs


def percentile_note(values: list[float]) -> str:
    """The highest percentile with at least ten runs above it."""
    n = len(values)
    if n < 11:
        return f"median of {n} runs; no percentile has 10 runs above it"
    k = n - 10
    return f"median of {n} runs; p{100.0 * k / n:.0f} = {sorted(values)[k - 1]:.6g}"


def summarize(invs: list[Invocation], trace: bool) -> tuple[dict, dict]:
    """(metrics, notes) from the successful invocations of one run.  The
    first set-up probe is a warm-up (bytecode, page cache) and not timed.
    wall_s and setup_s are scaled to the reference host speed, process by
    process."""
    ok = [i for i in invs[1:] if i.failure is None]
    plain = [i for i in ok if i.mode == "run"]
    if not plain:
        raise RuntimeError("no untraced invocation completed")
    med = statistics.median
    walls = [i.wall_s * REFERENCE_S / i.reference_s for i in plain]
    setups = [i.setup_s * REFERENCE_S / i.reference_s for i in ok if i.mode != "trace"]
    metrics = {
        "wall_s": med(walls),
        "setup_s": med(setups),
        "host.reference_s": med(i.reference_s for i in invs),
        "host.wall_s": med(i.wall_s for i in plain),
        "host.setup_s": med(i.setup_s for i in ok if i.mode != "trace"),
        "peak_rss_mb": med(i.peak_rss_mb for i in plain),
        "failed_frac": sum(i.failure is not None for i in invs) / len(invs),
    }
    notes = {
        "wall_s": percentile_note(walls),
        "setup_s": f"median of {len(setups)} launches",
        "failed_frac": f"of {len(invs)} processes",
        "host.reference_s": f"median; each process's wall_s and setup_s are scaled by {REFERENCE_S} / its own",
        "host.wall_s": "unscaled",
        "host.setup_s": "unscaled",
    }
    if trace:
        traced = [i for i in ok if i.mode == "trace"]
        if not traced:
            raise RuntimeError("no traced invocation completed")
        for name in traced[0].layers:
            metrics[name] = med(i.layers[name] for i in traced)
        metrics["io.bytes_written"] = med(i.bytes_written for i in traced)
        metrics["process.cpu_s"] = med(i.cpu_s for i in plain)
        metrics["process.cpu_per_wall"] = med(i.cpu_s / i.wall_s for i in plain)
        traced_wall = med(i.wall_s * REFERENCE_S / i.reference_s for i in traced)
        metrics["trace.overhead_s"] = traced_wall - metrics["wall_s"]
        notes["trace.overhead_s"] = "traced minus untraced median wall_s, both scaled"
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "eulermc" / "cli.py").is_file():
        print(f"perfbench: no eulermc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    for m in wanted:
        if unit_of(m["name"]) != m["unit"]:
            raise RuntimeError(f"unit of {m['name']} disagrees with BENCHMARK.json")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    state = ROOT / ".perfbench"
    work = state / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    wl = WORKLOADS[args.workload]
    try:
        invs = measure(wl, args.seed, seconds, bool(args.trace), env, work)
        metrics, notes = summarize(invs, bool(args.trace))
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(i.failure is not None for i in invs)
    info = dict(
        next((i.versions for i in invs if i.versions), {}),
        nproc=nproc,
        blas_threads={v: env[v] for v in BLAS_VARS},
        workload=args.workload,
        argv=list(wl.argv),
        seed=args.seed,
        config_hashes=sorted({i.config_hash for i in invs if i.config_hash}),
        digests=sorted({i.digest for i in invs if i.digest}),
    )

    counts = {m: sum(i.mode == m for i in invs) for m in ("setup", "run", "trace")}
    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"processes {len(invs)} ({counts['setup']} set-up only, {counts['run']} untraced, "
        f"{counts['trace']} traced)  failed {failed}"
    )
    for name in sorted(metrics):
        print(f"  {name:44s} {metrics[name]:>16.6g} {unit_of(name):6s} {notes.get(name, '')}")
    for k, inv in enumerate(invs):
        if inv.failure:
            print(f"  process {k} ({inv.mode}) FAILED: {inv.failure}")
    print("env: " + json.dumps(info, sort_keys=True))

    result = {
        "correct": failed == 0,
        "attempted": len(invs),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    results = state / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"env": info, "metrics": metrics, "invocations": [vars(i) for i in invs], "result": result}
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

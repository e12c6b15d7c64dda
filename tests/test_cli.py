import errno
import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from eulermc import harness
from eulermc.cli import main


def file_hash(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_json(path):
    return json.loads(Path(path).read_text())


def write_cfg(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_missing_config_is_config_error(tmp_path):
    rc = main(["bounds", "--config", str(tmp_path / "nope.json")])
    assert rc == 2


def test_unknown_key_is_config_error(tmp_path):
    cfg = write_cfg(tmp_path, {"bogus": 1})
    assert main(["bounds", "--config", cfg]) == 2


@pytest.mark.parametrize("key", ["lambda0", "L0"])
def test_model_constants_are_not_config_keys(tmp_path, capsys, key):
    # each preset computes lambda0 and L0 from its own parameters
    assert main(["simulate", "--set", f"{key}=2", "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: unknown config keys: ['{key}']\n"


def test_bad_set_syntax_is_config_error(tmp_path):
    assert main(["bounds", "--set", "M"]) == 2


def test_bounds_outputs(tmp_path):
    cfg = write_cfg(tmp_path, {"M": 1000, "eps": [0.05, 0.01]})
    out = str(tmp_path / "out")
    rc = main(["bounds", "--config", cfg, "--out-dir", out])
    assert rc == 0
    csv_path = os.path.join(out, "bounds.csv")
    lines = Path(csv_path).read_text().splitlines()
    assert lines[0].startswith("# config-hash: ")
    assert lines[1] == "eps,radius,total_radius"
    assert len(lines) == 4
    payload = read_json(os.path.join(out, "bounds.json"))
    assert payload["alpha_T"] == 2.0
    assert payload["config_hash"] == lines[0].split()[-1]


def test_simulate_csv_format(tmp_path):
    cfg = write_cfg(tmp_path, {"preset": "kinetic", "dp": 1, "x0": [0.0, 0.0], "M": 7, "N": 3})
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg, "--out-dir", out, "--set", "export_binary=true"]) == 0
    lines = Path(out, "samples.csv").read_text().splitlines()
    assert lines[1] == "sample_index,x_1,x_2"
    assert len(lines) == 2 + 7
    raw = Path(out, "samples.bin").read_bytes()
    arr = np.frombuffer(raw, dtype="<f8").reshape(7, 2)
    # %.17g round-trips every float64, so the two files hold the same samples
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    assert np.array_equal(rows[:, 0], np.arange(7))
    assert np.array_equal(rows[:, 1:], arr)


def test_statistics_error_exit_code(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {"preset": "const", "d": 1, "density_samples": 200, "min_bin_count": 500},
    )
    assert main(["density-check", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 4


def test_numeric_error_exit_code(tmp_path):
    # a grid far too narrow for the terminal density trips the mass guard
    cfg = write_cfg(
        tmp_path,
        {"preset": "trig", "N": 4, "density_mode": "ck", "grid_radius": 0.05, "grid_points": 11},
    )
    assert main(["density-check", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 3


def test_seed_and_threads_overrides(tmp_path):
    cfg = write_cfg(tmp_path, {"M": 5, "N": 2})
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["simulate", "--config", cfg, "--out-dir", out1, "--seed", "42"]) == 0
    assert main(["simulate", "--config", cfg, "--out-dir", out2, "--seed", "43"]) == 0
    assert file_hash(os.path.join(out1, "samples.csv")) != file_hash(
        os.path.join(out2, "samples.csv")
    )


def test_thread_count_does_not_change_outputs(tmp_path):
    payload = {
        "preset": "const", "d": 1, "M": 40, "num_batches": 120, "N": 3,
        "master_seed": 99,
    }
    cfg = write_cfg(tmp_path, payload)
    out1, out8 = str(tmp_path / "t1"), str(tmp_path / "t8")
    assert main(["concentration", "--config", cfg, "--out-dir", out1, "--threads", "1"]) == 0
    assert main(["concentration", "--config", cfg, "--out-dir", out8, "--threads", "8"]) == 0
    for name in ("concentration.csv", "concentration.json"):
        assert file_hash(os.path.join(out1, name)) == file_hash(os.path.join(out8, name))


def test_thread_count_does_not_change_a_twin_control_run(tmp_path):
    # the control run doubles from 4096 to 32768 samples, across chunks
    # that --threads 2 runs in parallel
    payload = {
        "preset": "trig", "a_amp": 0.5, "b_amp": 0.3, "functional": "abs", "x0": [0.2],
        "M": 50, "num_batches": 40, "control_factor": 20, "N": 4, "r_grid": [0.0, 0.01, 0.05],
    }
    cfg = write_cfg(tmp_path, payload)
    out1, out2 = str(tmp_path / "t1"), str(tmp_path / "t2")
    assert main(["concentration", "--config", cfg, "--out-dir", out1, "--threads", "1"]) == 0
    assert main(["concentration", "--config", cfg, "--out-dir", out2, "--threads", "2"]) == 0
    for name in ("concentration.csv", "concentration.json"):
        assert file_hash(os.path.join(out1, name)) == file_hash(os.path.join(out2, name))
    report = json.loads(Path(out1, "concentration.json").read_text())
    assert 0.0 < report["reference_se"] < 1e-3


def test_control_geodesic_csv(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {"control_t": 1.0, "control_x": [0.0, 0.0], "control_x_prime": [0.0, 1.0], "geodesic_steps": 20},
    )
    out = str(tmp_path / "out")
    assert main(["control-geodesic", "--config", cfg, "--out-dir", out]) == 0
    lines = Path(out, "geodesic.csv").read_text().splitlines()
    assert lines[1] == "s,state_1,state_2"
    assert len(lines) == 2 + 21
    payload = read_json(os.path.join(out, "control.json"))
    assert payload["energy"] == pytest.approx(12.0, rel=1e-9)
    assert payload["energy"] == pytest.approx(2 * payload["kinetic_metric_sq"], rel=1e-9)


def test_parametrix_cmd(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {"preset": "trig", "a_amp": 0.1, "N": 5, "grid_points": 301, "grid_radius": 8.0},
    )
    out = str(tmp_path / "out")
    assert main(["parametrix", "--config", cfg, "--out-dir", out]) == 0
    payload = read_json(os.path.join(out, "parametrix.json"))
    assert payload["sup_rel_error_vs_ck"] < 1e-2
    assert payload["series_mass"] == pytest.approx(1.0, abs=1e-6)
    norms = payload["term_sup_norms"]
    assert payload["term_decay_ratios"] == [b / a for a, b in zip(norms, norms[1:])]
    assert payload["terms_decay"] is True
    lines = Path(out, "parametrix_series.csv").read_text().splitlines()
    assert lines[1] == "x_prime,value"
    assert len(lines) == 2 + 301


# argv of bad inputs that exit 2 with one line, and their test ids
CONFIG_ERRORS = [
    ["bounds", "--out-dir", "{file}/out"],
    ["bounds", "--set", "rho0=1", "--set", "beta=1", "--set", 'cone="half"'],
    ["density-check", "--set", "c_grid=[]", "--set", "density_samples=1000"],
    ["simulate", "--set", 'M="abc"'],
    ["simulate", "--set", "N=2.5"],
    ["simulate", "--set", "sigma0=0"],
    ["parametrix", "--set", "grid_points=100000"],
    ["density-check", "--set", 'density_mode="ck"', "--set", "grid_points=100000"],
    ["bounds", "--set", "T=true"],
    ["parametrix", "--set", "grid_points=2"],
    ["density-check", "--set", 'density_mode="ck"', "--set", "grid_points=2"],
    ["simulate", "--threads", "1000000"],
    ["bounds", "--set", "c=NaN"],
    ["bounds", "--set", 'c="nan"'],
    ["bounds", "--set", "T=Infinity"],
    ["simulate", "--set", 'export_binary="yes"'],
    ["bounds", "--set", "eta=0.5"],
    ["simulate", "--set", 'preset="kinetic"', "--set", "d=2"],
    ["bounds", "--set", 'preset="trig"', "--set", "sigma0=2"],
    ["simulate", "--set", "N=100000000000000"],
    ["bounds", "--set", "b0=[1,2]"],
    ["bounds", "--set", "T=" + "1" * 5000],
    ["bounds", "--set", "d=-1"],
    ["bounds", "--set", 'preset="kinetic"', "--set", "dp=-1"],
    ["density-check", "--set", "density_samples=1"],
    ["concentration", "--set", "M=1", "--set", "rho0=1", "--set", "beta=1"],
    ["bounds", "--set", "rho0=1", "--set", "beta=1"],
    [
        "bounds", "--set", "d=2", "--set", "x0=[0,0]", "--set", 'functional="abs"',
        "--set", "rho0=1", "--set", "beta=1.0000000001",
    ],
    ["bounds", "--set", 'functional="nonsense"'],
    ["bounds", "--set", 'functional="asian-diff"'],
    ["bounds", "--set", "rho0=1"],
    ["concentration", "--set", "beta=1"],
    ["concentration", "--set", "num_r=-1"],
    ["control-geodesic", "--set", "control_x=[]", "--set", "control_x_prime=[]"],
    # 16 TB of states: refused by its size, where numpy raised a MemoryError
    ["control-geodesic", "--set", "geodesic_steps=1000000000000"],
    ["concentration", "--set", 'preset="trig"', "--set", "control_factor=0"],
    ["concentration", "--set", "M=10", "--set", "num_batches=20", "--set", "control_factor=-1"],
    # |b0| squared overflows; the grid check must still be the only line
    ["parametrix", "--set", "b0=[1e200]", "--set", "grid_points=101", "--set", "N=2"],
    # an empty list would run in full and write a header with no rows
    ["concentration", "--set", "r_grid=[]"],
    # a negative radius is refused before any draw: the control run and the
    # simulation once ran first, and with no positive radius the control run
    # headed for its cap of 2e8 samples
    [
        "concentration", "--set", 'preset="trig"', "--set", "M=2000", "--set", "num_batches=1000",
        "--set", "r_grid=[-1,1]",
    ],
    [
        "concentration", "--set", 'preset="trig"', "--set", "M=2000", "--set", "num_batches=1000",
        "--set", "r_grid=[-1]",
    ],
    ["bounds", "--set", "eps=[]"],
    # both once gave an infinite fit (exit 3) or too few bins (exit 4)
    [
        "density-check", "--set", 'preset="kinetic"', "--set", "dp=1", "--set", "x0=[0,0]",
        "--set", "min_bin_count=0", "--set", "high_mass_fraction=0",
    ],
    ["density-check", "--set", "high_mass_fraction=1.5"],
    # envelope shapes are checked before sampling: each needs c > 0 and a
    # finite 1/c, and the configured (c, C) a domination constant C >= 1
    ["density-check", "--set", "c=1e-310", "--set", "density_samples=3000"],
    ["density-check", "--set", "c_grid=[1e-310,1]", "--set", "density_samples=3000"],
    ["density-check", "--set", "c_grid=[0,1]", "--set", "density_samples=3000"],
    ["density-check", "--set", "C=0.5", "--set", "density_samples=3000"],
    # the bound constants refuse the same (c, C) as the envelope check
    ["bounds", "--set", "C=0.5"],
    ["concentration", "--set", "c=-1"],
    # past the caps: a d x d float64 noise matrix above 128 MiB, and more than
    # 2**16 default radii; far past them numpy's MemoryError was a traceback
    ["bounds", "--set", "d=4097"],
    ["bounds", "--set", 'preset="kinetic"', "--set", "dp=4097"],
    ["concentration", "--set", "num_r=65537"],
    ["parametrix", "--set", 'preset="trig"', "--set", "a_amp=1"],
    ["bounds", "--set", 'functional="abs"', "--set", "rho0=1", "--set", "beta=1", "--set", "cone=0"],
    ["parametrix", "--set", "grid_points=1"],
]
CONFIG_ERROR_IDS = [
    "out-dir-under-file", "cone-not-a-number", "empty-c-grid", "M-string", "N-float",
    "sigma0-zero", "parametrix-grid-too-large", "ck-grid-too-large", "T-bool",
    "parametrix-grid-too-coarse", "ck-grid-too-coarse", "threads-too-many",
    "c-nan", "c-nan-string", "T-infinite", "export-binary-string", "eta-unknown",
    "kinetic-d", "trig-sigma0", "N-too-large", "b0-wrong-length", "T-5000-digits", "d-negative",
    "dp-negative", "density-samples-one", "conc-identity-no-growth",
    "bounds-identity-no-growth", "bounds-abs-beta-above-one", "bounds-unknown-functional", "bounds-asian-diff-const",
    "rho0-without-beta", "beta-without-rho0", "num-r-negative", "control-empty-endpoints",
    "geodesic-steps-huge",
    "control-factor-zero", "control-factor-negative", "parametrix-b0-huge",
    "empty-r-grid", "negative-radius", "no-positive-radius", "empty-eps", "min-bin-count-zero",
    "high-mass-fraction-above-one",
    "density-c-reciprocal-overflows", "c-grid-reciprocal-overflows", "c-grid-zero",
    "density-C-below-one", "bounds-C-below-one", "concentration-c-negative",
    "d-too-large", "dp-too-large", "num-r-too-large", "trig-a-amp-one", "cone-zero",
    "parametrix-grid-one-point",
]


@pytest.mark.parametrize("args", CONFIG_ERRORS, ids=CONFIG_ERROR_IDS)
def test_bad_input_is_one_line_config_error(tmp_path, capsys, args):
    (tmp_path / "file").write_text("")
    argv = [a.format(file=tmp_path / "file") for a in args]
    if "--out-dir" not in argv:
        argv += ["--out-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "args",
    [args for args in CONFIG_ERRORS if any(a.startswith("r_grid=[-") for a in args)],
    ids=["negative-radius", "no-positive-radius"],
)
def test_negative_radius_is_refused_before_any_draw(tmp_path, capsys, monkeypatch, args):
    def draw(*args, **kwargs):
        raise AssertionError("simulate_terminal was called")

    monkeypatch.setattr(harness, "simulate_terminal", draw)
    assert main([*args, "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: r_grid ")


def test_r_max_above_n_names_config_fields(tmp_path, capsys):
    argv = ["parametrix", "--set", 'preset="trig"', "--set", "N=4", "--set", "r_max=5"]
    # on the narrow grid the CK oracle would exit 3 with a mass loss, so r_max
    # is checked before it runs
    for extra in ([], ["--set", "grid_radius=0.5"]):
        assert main(argv + extra + ["--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: r_max must lie in [0, N] = [0, 4], got 5\n"


def test_huge_constant_drift_simulates_without_warnings(tmp_path, capsys):
    argv = ["simulate", "--set", "b0=[1e200]", "--set", "M=5", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


_ABS_GROWTH = ["--set", 'functional="abs"', "--set", "rho0=1", "--set", "beta=1"]
_KINETIC = ["--set", 'preset="kinetic"', "--set", "dp=1", "--set", "x0=[0,0]"]

# argv of bad inputs that exit 3 with one line, and their test ids
NUMERIC_ERRORS = [
    ["parametrix", "--set", "grid_radius=0.5"],
    ["simulate", "--set", "sigma0=1e308"],
    ["bounds", "--set", "c=1e-320"],
    ["concentration", "--set", "c=1e-320"],
    # control.json holds an infinite energy; geodesic.csv alone would be finite
    ["control-geodesic", "--set", "control_x_prime=[0,1e200]"],
    ["concentration", "--set", "M=10", "--set", "num_batches=20", "--set", "x0=[1e308]"],
    # t**2 and t**3 underflow to 0, and the divisions by them give inf and NaN
    [
        "control-geodesic", "--set", "control_t=1e-300", "--set", "control_x=[0,0]",
        "--set", "control_x_prime=[0,1]",
    ],
    # the c^{-1} kernel's variance c T overflows (gamma_F read 0) or underflows
    ["bounds", "--set", "c=1e300", "--set", "T=1e10", *_ABS_GROWTH],
    ["bounds", "--set", "c=1e-300", "--set", "T=1e-30", *_ABS_GROWTH],
    # chi = log(...) / rho0^2 overflows once rho0^2 underflows
    ["bounds", *_ABS_GROWTH[:2], "--set", "beta=1", "--set", "rho0=1e-300"],
    # rho0 beta - F_floor cancels to 0 and takes gamma_F with it
    ["bounds", *_ABS_GROWTH[:2], "--set", "beta=1", "--set", "rho0=1e200"],
    # T^4 in the kinetic spectrum overflows; at c = 1e-300, T = 1e20 lambda_min underflows to 0
    ["bounds", *_KINETIC, "--set", "T=1e200"],
    ["bounds", *_KINETIC, "--set", "c=1e-300", "--set", "T=1e20"],
    # the drift swamps the noise: the sample std overflows, or the samples'
    # spread falls below their float spacing, and no histogram bin is left
    ["density-check", "--set", "b0=[1e300]", "--set", "N=1", "--set", "density_samples=3000"],
    ["density-check", "--set", "b0=[1e100]", "--set", "N=1", "--set", "density_samples=3000"],
    # log C_fit is finite but its exp is past the float range
    ["density-check", "--set", "c_grid=[1e300]", "--set", "density_samples=3000"],
    # d = 2 bins of area 1e-320 or so: their densities overflow, and have no log
    [
        "density-check", "--set", "d=2", "--set", "x0=[0,0]", "--set", "sigma0=1e-100",
        "--set", "T=1e-110", "--set", "density_samples=3000",
    ],
    # a numeric cone's share divides by the sphere measure, whose gamma(d/2) overflows
    ["bounds", "--set", "d=400", "--set", "cone=3", *_ABS_GROWTH],
    # T^3 in the kinetic spectrum underflows to 0
    ["bounds", *_KINETIC, "--set", "T=1e-120"],
    ["concentration", *_KINETIC, "--set", "T=1e-120"],
    # the least eigenvalue, c / T or about c / 2T in the kinetic spectrum,
    # overflows and alpha_T = 2 / lambda_min reads 0; asian-diff's 2 T / c underflows
    ["bounds", "--set", "T=1e-320"],
    ["bounds", "--set", "c=1e308", "--set", "T=1e-10"],
    ["bounds", *_KINETIC, "--set", "c=1e308", "--set", "T=1e-10"],
    ["concentration", "--set", "c=1e308", "--set", "T=1e-10"],
    ["bounds", *_KINETIC, "--set", 'functional="asian-diff"', "--set", "c=1e308", "--set", "T=1e-300"],
]
NUMERIC_ERROR_IDS = [
    "parametrix-truncated-grid", "sigma0-overflow", "bounds-alpha-inf", "conc-alpha-inf",
    "control-energy-inf", "conc-batch-mean-overflow", "control-tiny-t",
    "gamma-variance-overflow", "gamma-variance-underflow", "chi-overflow",
    "bar-delta-cancels", "kinetic-root-overflow", "kinetic-lambda-min-underflows",
    "hist-width-overflow", "hist-spread-below-spacing", "envelope-ratio-overflow",
    "hist-density-overflow", "cone-constant-overflow", "bounds-kinetic-cube-underflow",
    "conc-kinetic-cube-underflow", "bounds-alpha-zero-tiny-T", "bounds-alpha-zero-huge-c",
    "bounds-kinetic-alpha-zero", "conc-alpha-zero", "bounds-asian-diff-alpha-zero",
]
# argv of runs whose one error line numpy used to precede with a RuntimeWarning,
# and their exit codes: a state past the float range, and a control run's spread
WARNING_ERRORS = [
    (["simulate", "--set", "T=1e300", "--set", "b0=[1e300]", "--set", "M=10"], 3),
    (
        [
            "concentration", "--set", 'preset="trig"', "--set", "b_amp=1e300", "--set", "M=10",
            "--set", "num_batches=20",
        ],
        4,
    ),
    (
        [
            "concentration", *_KINETIC, "--set", "damp=1e300", "--set", "M=10",
            "--set", "num_batches=20",
        ],
        4,
    ),
]


@pytest.mark.parametrize("args", NUMERIC_ERRORS, ids=NUMERIC_ERROR_IDS)
def test_bad_input_is_one_line_numeric_error(tmp_path, capsys, args):
    assert main(args + ["--out-dir", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    # refused before any output is written
    assert not list((tmp_path / "out").glob("*"))


def test_kinetic_spectrum_whose_largest_eigenvalue_alone_overflows_runs(tmp_path):
    # 3 c / T^3 overflows, but the least eigenvalue, about c / 2T, and with it
    # alpha_T stay finite and positive
    argv = ["bounds", *_KINETIC, "--set", "c=1e300", "--set", "T=1e-3"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    assert 0.0 < read_json(tmp_path / "bounds.json")["alpha_T"] < math.inf


def _child_env() -> dict:
    """The environment of a child interpreter that imports this eulermc."""
    import eulermc

    src = str(Path(eulermc.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


_ONE_LINE_PROBE = """
import contextlib, io, json, sys, warnings
from eulermc.cli import main
for k, argv in enumerate(json.loads(sys.argv[2])):
    warnings.simplefilter("always")  # every warning of every run is shown
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv + ["--out-dir", f"{sys.argv[1]}/{k}"])
    print(json.dumps([code, err.getvalue()]))
"""


def test_bad_input_prints_one_line_in_a_fresh_interpreter(tmp_path):
    # pytest records warnings, so only a child process sees a RuntimeWarning
    # that numpy prints before the error line
    cases = [(args, 3) for args in NUMERIC_ERRORS] + WARNING_ERRORS
    out = subprocess.run(
        [sys.executable, "-c", _ONE_LINE_PROBE, str(tmp_path), json.dumps([a for a, _ in cases])],
        env=_child_env(), capture_output=True, text=True, timeout=300, check=True,
    ).stdout.splitlines()
    got = [tuple(json.loads(line)) for line in out]
    assert len(got) == len(cases)
    for (args, code), (rc, err) in zip(cases, got):
        assert rc == code, args
        assert err.startswith("error: ") and err.count("\n") == 1, (args, err)


def _lower_constants(tmp_path, *args):
    """The `constants` of a bounds run of F = |y| on argv args, checked finite."""
    out = tmp_path / str(len(list(tmp_path.iterdir())))
    assert main(["bounds", *args, *_ABS_GROWTH, "--out-dir", str(out)]) == 0
    report = read_json(out / "bounds.json")["constants"]
    assert all(math.isfinite(report[k]) for k in ("chi", "bar_alpha_inv", "bar_delta"))
    return report


def _full_sphere_chi_is_flat_in_d(tmp_path):
    # the full sphere's share is 1 and no gamma(d/2) is formed
    for C in ("1", "2"):
        chi = [
            _lower_constants(tmp_path, "--set", f"d={d}", "--set", f"C={C}")["chi"]
            for d in (342, 344, 4096)
        ]
        assert chi == [chi[0]] * 3


def _kinetic_runs_at_large_dp(tmp_path):
    # the kinetic q is taken in log form
    for dp in (200, 2048):
        _lower_constants(tmp_path, *_KINETIC[:2], "--set", f"dp={dp}", "--set", "x0=[0]")


def _kinetic_runs_at_small_t(tmp_path):
    _lower_constants(
        tmp_path, *_KINETIC[:2], "--set", "dp=100", "--set", "x0=[0]", "--set", "T=0.001"
    )


def _tiny_cone_has_finite_log_share(tmp_path):
    # a cone of 5e-324 has a finite log share
    argv = ["--set", "d=2", "--set", "x0=[0,0]", "--set", "cone=5e-324"]
    assert _lower_constants(tmp_path, *argv)["chi"] > 700


# inputs that once overflowed or underflowed in the lower-bound constants, and
# the ids of the numeric errors they used to be
@pytest.mark.parametrize(
    "check",
    [
        _full_sphere_chi_is_flat_in_d, _kinetic_runs_at_large_dp, _kinetic_runs_at_small_t,
        _tiny_cone_has_finite_log_share,
    ],
    ids=[
        "sphere-measure-overflow", "kinetic-sphere-measure-overflow",
        "kinetic-chi-ratio-overflow", "cone-constant-underflow",
    ],
)
def test_lower_constants_run_where_the_sphere_measure_overflows(tmp_path, check):
    check(tmp_path)


def test_envelope_shape_whose_kernel_underflows_fits_without_warnings(tmp_path, capsys):
    # at c = 1e-300 one envelope kernel underflows to 0 on every bin; the fit
    # works in log space, where that ratio is finite, and still takes c = 1
    argv = ["density-check", "--set", "c_grid=[1e-300,1]", "--set", "density_samples=3000"]
    assert main([*argv, "--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    assert read_json(tmp_path / "density_check.json")["c_fit"] == 1.0


def test_off_origin_two_dimensional_lower_bound_runs(tmp_path):
    argv = ["bounds", "--set", "d=2", "--set", "x0=[0.3,-1.0]", *_ABS_GROWTH]
    assert main([*argv, "--out-dir", str(tmp_path)]) == 0


def test_lower_tail_bound_that_underflows_is_zero(tmp_path):
    # at beta = 1e-300, (r / beta)^2 is past the float range for every r > 0
    argv = [
        "concentration", *_ABS_GROWTH[:2], "--set", "rho0=1", "--set", "beta=1e-300",
        "--set", "M=1", "--set", "num_batches=50", "--out-dir", str(tmp_path),
    ]
    assert main(argv) == 0
    report = read_json(tmp_path / "concentration.json")
    assert [bound for _, bound in report["lower_curve"]] == [0.0] * 19
    assert report["lower_empirical"] == []


def test_one_sample_control_run_is_refused_before_writing(tmp_path, capsys):
    # one control sample has no standard error (std with ddof=1 is NaN)
    out = tmp_path / "out"
    argv = [
        "concentration", "--set", 'preset="trig"', "--set", "M=1", "--set", "num_batches=1",
        "--set", "control_factor=1", "--out-dir", str(out),
    ]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists() or not list(out.iterdir())


def test_output_file_that_cannot_be_written_is_config_error(tmp_path, capsys):
    # bounds.json is written first; bounds.csv is a directory, so its write
    # fails and the run removes bounds.json again
    out = tmp_path / "out"
    (out / "bounds.csv").mkdir(parents=True)
    assert main(["bounds", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out / 'bounds.csv'}: ") and err.count("\n") == 1
    assert [path.name for path in out.iterdir()] == ["bounds.csv"]
    assert (out / "bounds.csv").is_dir()


def test_a_write_cut_short_removes_its_file(tmp_path, capsys, monkeypatch):
    # the second block of a three-block samples.csv fails as on a full disk,
    # after the first block went to the file: the run removes the file
    from eulermc import csvtext, harness

    format_rows, calls = csvtext.format_rows, []

    def failing(*args):
        calls.append(args)
        if len(calls) == 2:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return format_rows(*args)

    monkeypatch.setattr(csvtext, "format_rows", failing)
    out = tmp_path / "out"
    rows = 3 * harness._CSV_BLOCK
    assert main(["simulate", "--set", f"M={rows}", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out / 'samples.csv'}: ") and err.count("\n") == 1
    assert len(calls) == 2 and list(out.iterdir()) == []


def test_grid_too_large_is_refused_before_allocating(tmp_path, capsys):
    tracemalloc.start()
    try:
        rc = main(["parametrix", "--set", "grid_points=100000", "--out-dir", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert peak < 2**20  # not even the 0.8 MB node vector of the grid
    err = capsys.readouterr().err
    assert "76,295 MiB per n x n float64 matrix (n = 100001)" in err
    assert "cap of 128 MiB" in err


def test_bounds_at_high_dimension_holds_no_noise_matrix(tmp_path):
    # the const preset applies sigma0 to the normals and builds no matrix,
    # so d = 4096 does not hold a 128 MiB d x d array
    argv = ["bounds", "--set", "d=4096", "--set", 'functional="abs"']
    tracemalloc.start()
    try:
        rc = main([*argv, "--set", "rho0=1", "--set", "beta=1", "--out-dir", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 32 * 2**20


def test_sample_array_too_large_is_refused_before_allocating(tmp_path, capsys):
    tracemalloc.start()
    try:
        rc = main(["simulate", "--set", "M=100000000000", "--out-dir", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert peak < 2**20
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "100,000,000,000 samples of dimension 1 need 745 GiB, above the cap of 1 GiB" in err


_IMPORT_PROBE = """
import sys
def loaded():
    heavy = ("scipy", "numpy.polynomial", "concurrent.futures", "logging", "_hashlib", "ssl")
    return " ".join(sorted(m for m in sys.modules if m.startswith(heavy)))
import eulermc.cli
print(loaded())
assert eulermc.cli.main({argv!r} + ["--out-dir", sys.argv[1]]) == 0
print(loaded())
"""


def _scipy_loaded(tmp_path, argv):
    """The scipy, numpy.polynomial, concurrent.futures, logging, _hashlib and
    ssl modules loaded by `import eulermc.cli` and then by running argv, in a
    fresh interpreter (this one has loaded scipy.stats)."""
    probe = _IMPORT_PROBE.format(argv=argv)
    out = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path)],
        env=_child_env(), capture_output=True, text=True, timeout=120, check=True,
    ).stdout.split("\n")
    return set(out[0].split()), set(out[1].split())


# numpy.random imports secrets, and through it hashlib and OpenSSL: a
# command that draws normals may load _hashlib, once it runs
_DRAWING = {"_hashlib"}


def test_cli_start_up_leaves_heavy_scipy_unloaded(tmp_path):
    # the normals are the package's own, so drawing loads no scipy either;
    # 40,000 samples make two groups, and one thread steps them
    argv = ["simulate", "--set", "M=40000", "--set", "N=2", "--threads", "1"]
    at_import, after_run = _scipy_loaded(tmp_path, argv)
    assert at_import == set() and after_run <= _DRAWING


def test_two_threads_load_neither_concurrent_futures_nor_logging(tmp_path):
    # the two groups go to the calling thread and one plain thread
    argv = ["simulate", "--set", "M=40000", "--set", "N=2", "--threads", "2"]
    at_import, after_run = _scipy_loaded(tmp_path, argv)
    assert at_import == set() and after_run <= _DRAWING


@pytest.mark.parametrize(
    "argv",
    [
        ["parametrix", "--set", 'preset="trig"', "--set", "N=3", "--set", "grid_points=101"],
        ["control-geodesic", "--set", "control_x=[0,0]", "--set", "control_x_prime=[0,1]"],
        [
            "bounds", "--set", 'preset="kinetic"', "--set", "dp=1", "--set", "x0=[0,0]",
            "--set", "eps=[0.05,0.01]",
        ],
        ["density-check", "--set", 'density_mode="ck"', "--set", 'preset="trig"'],
        # gamma(F) of the lower bound is a pure-Python integral in every d
        ["bounds", *_ABS_GROWTH],
        ["bounds", "--set", "d=2", "--set", "x0=[0.3,-1.0]", *_ABS_GROWTH],
    ],
    ids=[
        "parametrix", "control-geodesic", "kinetic-bounds", "ck-density-check",
        "lower-bounds-d1", "lower-bounds-d2",
    ],
)
def test_commands_that_draw_nothing_leave_scipy_unloaded(tmp_path, argv):
    assert _scipy_loaded(tmp_path, argv) == (set(), set())


_SMALL_CONCENTRATION = ["concentration", "--set", "M=20", "--set", "num_batches=10"]


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--set", 'preset="trig"', "--set", "M=50", "--set", "N=3"],
        [*_SMALL_CONCENTRATION, "--set", 'functional="identity"'],
        [*_SMALL_CONCENTRATION, "--set", 'functional="abs"'],
        [
            *_SMALL_CONCENTRATION, "--set", 'preset="trig"', "--set", 'functional="identity"',
            "--set", "control_factor=5",
        ],
        [
            *_SMALL_CONCENTRATION, "--set", 'preset="trig"', "--set", 'functional="abs"',
            "--set", "control_factor=5",
        ],
        ["density-check", "--set", 'density_mode="hist"', "--set", "density_samples=20000"],
    ],
    ids=[
        "trig-simulate", "const-identity-concentration", "const-abs-concentration",
        "trig-identity-concentration", "trig-abs-concentration", "hist-density-check",
    ],
)
def test_commands_that_draw_leave_scipy_unloaded(tmp_path, argv):
    at_import, after_run = _scipy_loaded(tmp_path, argv)
    assert at_import == set() and after_run <= _DRAWING


def test_config_error_message_to_stderr(tmp_path, capsys):
    assert main(["bounds", "--set", "M=0"]) == 2
    assert "error:" in capsys.readouterr().err


def _readme_examples():
    """The `eulermc ...` commands of README's Examples block, continuation
    lines joined, each as an argv without the program name."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Examples", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [cmd for cmd in block.replace("\\\n", " ").splitlines() if cmd.startswith("eulermc ")]
    return [shlex.split(cmd)[1:] for cmd in commands]


def test_readme_examples_run(tmp_path):
    examples = _readme_examples()
    assert len(examples) == 5
    for k, argv in enumerate(examples):
        # the last --out-dir wins, so the examples write under tmp_path
        assert main(argv + ["--out-dir", str(tmp_path / str(k))]) == 0, argv


def test_readme_control_example_is_exact(tmp_path):
    # the path is a cubic and |u|^2 a quadratic, so both come out exact
    (argv,) = [argv for argv in _readme_examples() if argv[0] == "control-geodesic"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    report = read_json(os.path.join(tmp_path, "control.json"))
    assert report["energy"] == 2 * report["kinetic_metric_sq"]
    assert report["endpoint_error"] <= 1e-15
    s, v, z = np.loadtxt(tmp_path / "geodesic.csv", delimiter=",", skiprows=2).T
    assert np.max(np.abs(v - 6 * s * (1 - s))) <= 1e-15
    assert np.max(np.abs(z - s * s * (3 - 2 * s))) <= 1e-15


def test_ck_density_check_hashes_no_sample_count_or_stream(tmp_path):
    # the CK table draws nothing, so density_samples and the seed are not
    # read; C_fit depends on numpy's dispatch tier, so this pair is compared
    # here and not in the output manifest
    argv = ["density-check", "--set", 'density_mode="ck"']
    assert main([*argv, "--out-dir", str(tmp_path / "a")]) == 0
    unread = ["--set", "density_samples=5", "--seed", "3"]
    assert main([*argv, *unread, "--out-dir", str(tmp_path / "b")]) == 0
    a, b = (Path(tmp_path, run, "density_check.json").read_bytes() for run in "ab")
    assert a == b

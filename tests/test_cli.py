import hashlib
import json
import os

import numpy as np
import pytest

from eulermc.cli import main


def file_hash(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


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


def test_bad_set_syntax_is_config_error(tmp_path):
    assert main(["bounds", "--set", "M"]) == 2


def test_bounds_outputs(tmp_path):
    cfg = write_cfg(tmp_path, {"M": 1000, "eps": [0.05, 0.01]})
    out = str(tmp_path / "out")
    rc = main(["bounds", "--config", cfg, "--out-dir", out])
    assert rc == 0
    csv_path = os.path.join(out, "bounds.csv")
    lines = open(csv_path).read().splitlines()
    assert lines[0].startswith("# config-hash: ")
    assert lines[1] == "eps,radius,total_radius"
    assert len(lines) == 4
    payload = json.load(open(os.path.join(out, "bounds.json")))
    assert payload["alpha_T"] == 2.0
    assert payload["config_hash"] == lines[0].split()[-1]


def test_simulate_csv_format(tmp_path):
    cfg = write_cfg(tmp_path, {"preset": "kinetic", "dp": 1, "x0": [0.0, 0.0], "M": 7, "N": 3})
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg, "--out-dir", out, "--set", "export_binary=true"]) == 0
    lines = open(os.path.join(out, "samples.csv")).read().splitlines()
    assert lines[1] == "sample_index,x_1,x_2"
    assert len(lines) == 2 + 7
    raw = open(os.path.join(out, "samples.bin"), "rb").read()
    arr = np.frombuffer(raw, dtype="<f8").reshape(7, 2)
    got = [float(v) for v in lines[2].split(",")[1:]]
    assert np.allclose(arr[0], got)


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


def test_control_geodesic_csv(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {"control_t": 1.0, "control_x": [0.0, 0.0], "control_x_prime": [0.0, 1.0], "geodesic_steps": 20},
    )
    out = str(tmp_path / "out")
    assert main(["control-geodesic", "--config", cfg, "--out-dir", out]) == 0
    lines = open(os.path.join(out, "geodesic.csv")).read().splitlines()
    assert lines[1] == "s,state_1,state_2"
    assert len(lines) == 2 + 21
    payload = json.load(open(os.path.join(out, "control.json")))
    assert payload["energy"] == pytest.approx(12.0, rel=1e-9)
    assert payload["energy"] == pytest.approx(2 * payload["kinetic_metric_sq"], rel=1e-9)


def test_parametrix_cmd(tmp_path):
    cfg = write_cfg(
        tmp_path,
        {"preset": "trig", "a_amp": 0.1, "N": 5, "grid_points": 301, "grid_radius": 8.0},
    )
    out = str(tmp_path / "out")
    assert main(["parametrix", "--config", cfg, "--out-dir", out]) == 0
    payload = json.load(open(os.path.join(out, "parametrix.json")))
    assert payload["sup_rel_error_vs_ck"] < 1e-2
    assert payload["series_mass"] == pytest.approx(1.0, abs=1e-6)
    lines = open(os.path.join(out, "parametrix_series.csv")).read().splitlines()
    assert lines[1] == "x_prime,value"
    assert len(lines) == 2 + 301


@pytest.mark.parametrize(
    "args",
    [
        ["bounds", "--out-dir", "{file}/out"],
        ["bounds", "--set", "lower_bounds=true", "--set", "rho0=1", "--set", "beta=1",
         "--set", 'cone="half"'],
        ["density-check", "--set", "c_grid=[]", "--set", "density_samples=1000"],
        ["simulate", "--set", 'M="abc"'],
        ["simulate", "--set", "N=2.5"],
    ],
    ids=["out-dir-under-file", "cone-not-a-number", "empty-c-grid", "M-string", "N-float"],
)
def test_bad_input_is_one_line_config_error(tmp_path, capsys, args):
    (tmp_path / "file").write_text("")
    argv = [a.format(file=tmp_path / "file") for a in args]
    if "--out-dir" not in argv:
        argv += ["--out-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_config_error_message_to_stderr(tmp_path, capsys):
    assert main(["bounds", "--set", "M=0"]) == 2
    assert "error:" in capsys.readouterr().err

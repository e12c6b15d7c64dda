import dataclasses
import hashlib
import importlib.util
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from eulermc import concentration as conc
from eulermc import harness, model as model_module
from eulermc.cli import main
from eulermc.errors import ConfigError, NumericError, StatisticsError
from eulermc.gaussianref import KernelSpec
from eulermc.harness import (
    ExperimentConfig,
    analytic_reference,
    build_model,
    config_hash,
    load_config,
    make_functional,
    run_bound_table,
    run_concentration_experiment,
    run_density_check,
    wilson_upper,
    write_csv,
)
from eulermc.model import (
    MODEL_PRESETS, Case, GrowthSpec, SchemeGrid, SdeModel, register_model_preset,
)
from eulermc.simulate import RngSpec, simulate_terminal
from oracles import noncentral_chi3_mean, norm_mean_2d


def cfg_with(**kw):
    return ExperimentConfig.from_dict(kw)


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"no_such_key": 1})


def test_invalid_counts_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"M": 0})


def run_hash(tmp_path, command, **kw):
    """The one config hash that `command` writes, run on the config kw."""
    out = Path(tempfile.mkdtemp(dir=tmp_path))
    harness.run_command(command, cfg_with(**kw, out_dir=str(out)))
    hashes = {
        json.loads(path.read_text())["config_hash"]
        if path.suffix == ".json"
        else path.read_text().split("\n", 1)[0].split()[-1]
        for path in out.iterdir()
        if path.suffix != ".bin"
    }
    (digest,) = hashes
    return digest


# a small run of each command
_SMALL = {
    "simulate": {"M": 10},
    "bounds": {},
    "concentration": {"M": 10, "num_batches": 20},
    "density-check": {"density_mode": "ck", "grid_points": 101},
    "parametrix": {"grid_points": 101, "r_max": 1},
    "control-geodesic": {"geodesic_steps": 20},
}


def test_config_hash_ignores_execution_fields(tmp_path):
    # each run writes into a directory of its own
    assert set(_SMALL) == set(harness.COMMANDS)
    for command, kw in _SMALL.items():
        one, two = (run_hash(tmp_path, command, **kw, threads=t) for t in (1, 2))
        assert one == two, command
    assert run_hash(tmp_path, "simulate", M=10) != run_hash(tmp_path, "simulate", M=11)


def test_config_hash_is_hashlib_sha256_of_the_hashed_fields(tmp_path, monkeypatch):
    # harness takes the interpreter's builtin SHA-256; every command's hash
    # is the one hashlib gives for the same JSON blob
    blobs, sha256 = [], harness.sha256

    def recorded(data):
        blobs.append(data)
        return sha256(data)

    monkeypatch.setattr(harness, "sha256", recorded)
    for command, kw in _SMALL.items():
        blobs.clear()
        digest = run_hash(tmp_path, command, **kw)
        assert blobs and {hashlib.sha256(b).hexdigest()[:12] for b in blobs} == {digest}, command


def test_config_hash_constructor_is_fips_sha256():
    # FIPS 180-2, appendix B.1; the builtin module where the interpreter has one
    digest = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    assert harness.sha256(b"abc").hexdigest() == digest
    if importlib.util.find_spec("_sha2") or importlib.util.find_spec("_sha256"):
        assert harness.sha256.__module__ in ("_sha2", "_sha256")


def test_config_hash_tells_runs_apart_and_equal_runs_alike(tmp_path):
    # the manifest's SAME_RUN pairs check the CLI cases (unread fields, the
    # seed mod 2**64, a kinetic x0 given once); b0 is checked here
    b0 = [0.5, [0.5], [0.5, 0.5]]
    assert len({run_hash(tmp_path, "simulate", M=10, d=2, b0=b) for b in b0}) == 1
    differ = [
        ("simulate", {"d": 2, "b0": [0.5, 0.25]}, {"d": 2, "b0": [0.5, 0.5]}),
        ("simulate", {"preset": "kinetic", "x0": [0, 1]}, {"preset": "kinetic", "x0": [0, 0]}),
        ("simulate", {"master_seed": -1}, {"master_seed": 2**64 - 2}),
        ("bounds", {"eps": [0.1]}, {}),
        ("control-geodesic", {"geodesic_steps": 20}, {}),
    ]
    for command, a, b in differ:
        assert run_hash(tmp_path, command, **a) != run_hash(tmp_path, command, **b), (a, b)
    assert cfg_with(master_seed=-1, stream_id=2**64 + 3).master_seed == 2**64 - 1
    assert cfg_with(stream_id=2**64 + 3).stream_id == 3


def test_config_hash_treats_integral_numbers_as_floats(tmp_path):
    # pinned hashes: any change to the hashed form (a field added, removed
    # or stored differently) shows here
    assert run_hash(tmp_path, "simulate") == "41b8076f37f1"
    assert run_hash(tmp_path, "simulate", T=1) == "41b8076f37f1"
    # bounds builds no time grid and, with no growth spec, reads neither
    # x0, cone nor theta: its hash covers the model, T, c, C, functional,
    # rho0, beta, M and eps
    kinetic = dict(preset="kinetic", dp=1, x0=[0, 0])
    assert run_hash(tmp_path, "bounds", **kinetic, T=2.0) == "4a2643a98619"
    assert run_hash(tmp_path, "bounds", **kinetic, T=2) == "4a2643a98619"
    assert run_hash(tmp_path, "simulate", x0=[0]) == run_hash(tmp_path, "simulate", x0=[0.0])
    # a scalar x0 is the one-element list it broadcasts like
    assert run_hash(tmp_path, "simulate", x0=0.0) == "41b8076f37f1"
    assert cfg_with(x0=0).x0 == [0.0]
    cfg = cfg_with(b0=[1, 2], d=2, cone=2, eps=[1], control_x=[0, 0], export_binary=True)
    assert cfg.b0 == [1.0, 2.0] and isinstance(cfg.b0[0], float)
    assert isinstance(cfg.cone, float) and isinstance(cfg.eps[0], float)
    assert isinstance(cfg.control_x[0], float)
    assert cfg.export_binary is True and isinstance(cfg.N, int)
    assert run_hash(tmp_path, "simulate", T=2) != run_hash(tmp_path, "simulate", T=1)
    with pytest.raises(ConfigError, match="too large"):
        cfg_with(T=10**400)


def test_scalar_for_a_list_field_is_the_one_element_list(tmp_path):
    assert run_hash(tmp_path, "bounds", eps=0.05) == run_hash(tmp_path, "bounds", eps=[0.05])
    assert cfg_with(r_grid=0.1).r_grid == [0.1]
    assert cfg_with(c_grid=2).c_grid == [2.0]
    assert cfg_with(r_grid=None).r_grid is None


@pytest.mark.parametrize(
    "raw, words",
    [
        ({"c": math.nan}, "c must be a finite number, got nan"),
        ({"eps": [0.05, -math.inf]}, "eps[1] must be a finite number, got -inf"),
        ({"export_binary": 1}, "export_binary must be bool, got 1"),
        ({"x0": [[0.0]]}, "x0 must be list[float], got [[0.0]]"),
        ({"b0": [1, True]}, "b0 must be list[float], got [1, True]"),
        ({"rho0": "1"}, "rho0 must be float | None, got '1'"),
        ({"functional": None}, "functional must be str, got None"),
    ],
)
def test_loader_refuses_values_outside_the_annotation(raw, words):
    with pytest.raises(ConfigError, match=re.escape(words)):
        ExperimentConfig.from_dict(raw)


_FIELDS = [f.name for f in dataclasses.fields(ExperimentConfig)]
# every field a run may read and hash
_HASHED = [name for name in _FIELDS if name not in ("out_dir", "threads")]
_SCALARS = st.one_of(st.floats(), st.integers(), st.booleans(), st.text(max_size=4), st.none())


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(_FIELDS), st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3))))
def test_loader_refuses_or_round_trips_its_canonical_form(raw):
    try:
        cfg = ExperimentConfig.from_dict(raw)
    except ConfigError:
        return
    stored = json.dumps(dataclasses.asdict(cfg), allow_nan=False)
    again = ExperimentConfig.from_dict(json.loads(stored))
    # the draws are not clamped, so they are not run: the hash of every
    # field a run may read stands for the hash of any run
    assert config_hash(again, _HASHED) == config_hash(cfg, _HASHED)


def test_load_config_roundtrip(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"M": 17, "T": 0.5}))
    cfg = load_config(str(p), {"N": 3})
    assert cfg.M == 17 and cfg.T == 0.5 and cfg.N == 3
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))
    p.write_text('{"T": ' + "1" * 5000 + "}")  # past Python's integer digit limit
    with pytest.raises(ConfigError):
        load_config(str(p))
    p.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="config must be a JSON object"):
        load_config(str(p))


def _exact_reference(**kw):
    """The reference mean of a config whose preset simulates its law exactly,
    which must come with standard error 0."""
    cfg, model, tgrid, f = _control_setup(**kw)
    ref, se = harness.reference_mean(cfg, model, tgrid, f, 0.01)
    assert se == 0.0
    return ref


def test_analytic_references():
    assert _exact_reference(preset="const", b0=0.25, T=2.0, functional="identity") == 0.5
    want = 1.3 * math.sqrt(2 / math.pi)
    ref = _exact_reference(preset="const", sigma0=1.3, functional="abs")
    assert ref == pytest.approx(want, rel=1e-12)
    assert _exact_reference(preset="kinetic", x0=[0.4, 0.0], functional="identity") == 0.4
    want = (0.4 - (0.1 + 0.4 * 2.0) / 2.0) / math.sqrt(2.0)
    ref = _exact_reference(preset="kinetic", x0=[0.4, 0.1], T=2.0, functional="asian-diff")
    assert ref == pytest.approx(want, rel=1e-15)
    # trig states only its twin, and a custom model that states neither runs f(X)
    assert MODEL_PRESETS["trig"]().law is None and MODEL_PRESETS["trig"]().twin is not None
    assert _sine_drift_model().law is None and _sine_drift_model().twin is None


def test_linear_reference_reads_only_the_kernel_mean():
    import tracemalloc

    # the d x d covariance at d = 4096 would take 128 MiB
    law = KernelSpec(Case.NONDEGENERATE, 1.0, 2.0, np.full(4096, 0.25))
    tracemalloc.start()
    try:
        ref = analytic_reference("sum", lambda x: x.sum(axis=-1), law)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ref == 1024.0
    assert peak < 2**20


def test_const_abs_references_are_noncentral_chi_means():
    from scipy.stats import rice

    # X_T ~ N(x0 + b0 T, sigma0^2 T I): E|X_T| is a Rice mean in d = 2 and
    # the noncentral chi_3 mean in d = 3
    kw = dict(preset="const", sigma0=1.3, T=2.0, functional="abs")
    s = 1.3 * math.sqrt(2.0)
    ref = _exact_reference(d=2, x0=[0.3, -1.0], b0=[0.1, 0.2], **kw)
    m = math.hypot(0.3 + 0.2, -1.0 + 0.4)
    assert ref == pytest.approx(rice(b=m / s, scale=s).mean(), rel=1e-12)
    ref = _exact_reference(d=3, x0=[0.5, 0.5, 0.5], **kw)
    assert ref == pytest.approx(s * noncentral_chi3_mean(math.sqrt(0.75) / s), rel=1e-12)


def test_undamped_kinetic_references_read_the_exact_law():
    # at damp = 0, (v_T, z_T) ~ N((v0, z0 + v0 T), sigma0^2 [[T, T^2/2], [T^2/2, T^3/3]])
    kw = dict(preset="kinetic", x0=[0.5, 0.2], sigma0=1.5, T=2.0)
    mean = np.array([0.5, 0.2 + 0.5 * 2.0])
    cov = 1.5**2 * np.array([[2.0, 2.0], [2.0, 8.0 / 3.0]])
    assert _exact_reference(**kw, functional="identity") == 0.5
    ref = _exact_reference(**kw, functional="sum")
    assert ref == pytest.approx(mean.sum() / math.sqrt(2.0), rel=1e-15)
    ref = _exact_reference(**kw, functional="abs")
    assert ref == pytest.approx(norm_mean_2d(mean, cov), rel=1e-12)
    # the sum of a unit-noise start at (0.5, 0.2), T = 1
    assert _exact_reference(preset="kinetic", x0=[0.5, 0.2], functional="sum") == (
        0.8485281374238569
    )


def test_normal_quantiles_match_scipy_stats():
    from scipy.special import ndtri
    from scipy.stats import norm

    assert harness._WILSON_Z99 == norm.ppf(0.99) == float(ndtri(0.99))
    mu, s = 0.1 + 0.3 * 2.0, 1.3 * math.sqrt(2.0)
    want = s * math.sqrt(2.0 / math.pi) * math.exp(-(mu**2) / (2 * s * s)) + mu * (
        1.0 - 2.0 * norm.cdf(-mu / s)
    )
    ref = _exact_reference(preset="const", x0=[0.1], b0=0.3, sigma0=1.3, T=2.0, functional="abs")
    assert ref == pytest.approx(want, rel=1e-12)


def test_functionals_are_unit_lipschitz_samples():
    rng = np.random.default_rng(0)
    for name, preset in [("identity", "const"), ("sum", "const"), ("abs", "const")]:
        cfg = cfg_with(preset=preset, d=2, functional=name, x0=[0.0, 0.0])
        f = make_functional(cfg, build_model(cfg))
        x = rng.standard_normal((200, 2))
        y = x + rng.standard_normal((200, 2)) * 0.1
        num = np.abs(np.asarray(f(x)) - np.asarray(f(y)))
        den = np.linalg.norm(x - y, axis=1)
        assert np.all(num <= den * (1 + 1e-9))


def test_asian_diff_requires_kinetic():
    cfg = cfg_with(preset="const", functional="asian-diff")
    with pytest.raises(ConfigError):
        make_functional(cfg, build_model(cfg))


def test_wilson_upper_basics():
    assert wilson_upper(0, 100) > 0.0
    assert wilson_upper(50, 100) > 0.5
    assert wilson_upper(100, 100) <= 1.0
    # increasing in k
    uppers = [wilson_upper(k, 200) for k in range(0, 200, 20)]
    assert all(a < b for a, b in zip(uppers, uppers[1:]))


def test_concentration_report_gaussian_preset():
    cfg = cfg_with(
        preset="const", d=1, b0=0.0, sigma0=1.0, c=1.0, C=1.0,
        M=50, num_batches=400, T=1.0, N=4, master_seed=7,
    )
    rep = run_concentration_experiment(cfg)
    assert rep["alpha_T"] == pytest.approx(2.0)
    assert rep["delta_bias"] == 0.0
    assert rep["reference_mean"] == 0.0
    rs = [r for r, _ in rep["bound_curve"]]
    assert len(rs) == cfg.num_r and rs[0] == 0.0
    # bound at r = 0 is 2 and the frequency is a probability
    assert rep["bound_curve"][0][1] == 2.0
    assert all(0.0 <= fq <= 1.0 for fq in rep["empirical_freq"])
    # one-sided comparison holds including the confidence allowance
    assert all(
        w <= b for (_, b), w in zip(rep["bound_curve"], rep["wilson_upper"])
    )


def test_concentration_bias_shift_with_C():
    cfg = cfg_with(
        preset="const", d=1, b0=0.0, sigma0=1.0, c=1.0, C=2.0,
        M=50, num_batches=300, T=1.0, N=2, master_seed=11,
    )
    rep = run_concentration_experiment(cfg)
    assert rep["delta_bias"] == pytest.approx(2 * math.sqrt(2.0 * math.log(2.0)))
    # the shifted threshold makes exceedances rarer than the bound at every r
    assert all(
        fq <= b for (_, b), fq in zip(rep["bound_curve"], rep["empirical_freq"])
    )


def test_concentration_control_run_reference():
    cfg = cfg_with(
        preset="trig", a_amp=0.2, functional="abs", c=1.0, C=1.5,
        M=40, num_batches=50, num_r=8, T=1.0, N=3, master_seed=3, control_factor=40,
    )
    rep = run_concentration_experiment(cfg)
    assert rep["reference_se"] > 0.0
    assert math.isfinite(rep["reference_mean"])


def test_concentration_control_run_power_guard():
    cfg = cfg_with(
        preset="trig", a_amp=0.2, functional="abs", c=1.0, C=1.5,
        M=40, num_batches=5, T=1.0, N=3, master_seed=3, control_factor=1,
    )
    with pytest.raises(StatisticsError):
        run_concentration_experiment(cfg)


def _control_setup(**kw):
    cfg = cfg_with(**kw)
    model, tgrid = build_model(cfg), SchemeGrid(T=cfg.T, N=cfg.N)
    return cfg, model, tgrid, make_functional(cfg, model)


def _spy_simulations(monkeypatch):
    """Record (model, M, sample_offset) of every simulate_terminal call the
    harness makes."""
    calls = []
    real = harness.simulate_terminal

    def spy(model, grid, x0, rng, M, threads=1, sample_offset=0):
        calls.append((model, M, sample_offset))
        return real(model, grid, x0, rng, M, threads=threads, sample_offset=sample_offset)

    monkeypatch.setattr(harness, "simulate_terminal", spy)
    return calls


def _plain_mean(cfg, model, tgrid, f, n, stream_id):
    """Mean and standard error of f over n plain samples on stream_id."""
    x = simulate_terminal(
        model, tgrid, harness.start_point(cfg, model), RngSpec(cfg.master_seed, stream_id), n
    )
    vals = f(x)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n))


def test_twin_control_run_of_a_martingale_centres_on_the_start():
    # with b_amp = 0 each Euler step adds a centred increment, so the
    # scheme's E X_T is exactly x0 whatever a_amp is
    cfg, model, tgrid, f = _control_setup(preset="trig", a_amp=0.5, x0=[0.3], N=4)
    ref, se = harness.reference_mean(cfg, model, tgrid, f, 0.01)
    assert 0.0 < se < 1e-3
    assert abs(ref - 0.3) <= 3.0 * se


@pytest.mark.parametrize(
    "kw",
    [
        dict(preset="trig", a_amp=0.5, b_amp=0.3, functional="abs", x0=[0.2], N=4),
        dict(preset="kinetic", damp=0.5, functional="asian-diff", x0=[0.5, 0.3], N=4),
        dict(preset="kinetic", damp=0.5, functional="abs", x0=[0.5, 0.3], N=4),
    ],
    ids=["trig-abs", "damped-kinetic-asian-diff", "damped-kinetic-abs"],
)
def test_twin_control_run_agrees_with_a_long_plain_run(kw):
    cfg, model, tgrid, f = _control_setup(**kw)
    ref, se = harness.reference_mean(cfg, model, tgrid, f, 0.01)
    # a stream no run of this config reads
    plain, plain_se = _plain_mean(cfg, model, tgrid, f, 1_000_000, cfg.stream_id + 7)
    assert 0.0 < se < 1e-3
    assert abs(ref - plain) <= 3.0 * math.hypot(se, plain_se)


def test_twin_control_run_stops_at_the_first_chunk_that_meets_the_target(monkeypatch):
    calls = _spy_simulations(monkeypatch)
    cfg, model, tgrid, f = _control_setup(preset="trig", functional="abs")
    ref, se = harness.reference_mean(cfg, model, tgrid, f, 0.05)
    assert se < 0.005
    # the preset and its twin, on the same 4096 sample indices
    assert [(M, lo) for _, M, lo in calls] == [(4096, 0), (4096, 0)]
    assert calls[0][0] is model and calls[1][0] is not model


def test_twin_control_run_without_a_target_runs_to_the_cap(monkeypatch):
    # a cap off the chunk grid, reached by doubling at --threads 2; the
    # estimate equals a one-shot run of the same samples at one thread
    kw = dict(preset="trig", a_amp=0.5, b_amp=0.3, functional="abs", x0=[0.2], N=4)
    cfg, model, tgrid, f = _control_setup(**kw, M=10, num_batches=10, control_factor=124, threads=2)
    calls = _spy_simulations(monkeypatch)
    ref, se = harness.reference_mean(cfg, model, tgrid, f, 0.0)
    assert [(M, lo) for _, M, lo in calls] == [
        (4096, 0), (4096, 0), (4096, 4096), (4096, 4096), (4208, 8192), (4208, 8192),
    ]
    twin = build_model(cfg_with(preset="const"))
    x0, rng = harness.start_point(cfg, model), RngSpec(cfg.master_seed, cfg.stream_id + 1)
    diff = f(simulate_terminal(model, tgrid, x0, rng, 12400)) - f(
        simulate_terminal(twin, tgrid, x0, rng, 12400)
    )
    law = KernelSpec(Case.NONDEGENERATE, 1.0, tgrid.T, x0)
    assert ref == diff.mean() + analytic_reference("abs", f, law)
    assert se == diff.std(ddof=1) / math.sqrt(12400)


def test_twin_control_run_that_reaches_the_cap_is_refused():
    cfg, model, tgrid, f = _control_setup(
        preset="kinetic", damp=0.5, functional="asian-diff", x0=[0.0, 0.0],
        M=10, num_batches=10, control_factor=100,
    )
    with pytest.raises(StatisticsError, match="r_min/10"):
        harness.reference_mean(cfg, model, tgrid, f, 1e-3)


def _sine_drift_model():
    # np.sin, unlike np.tanh, gives the same bits on every numpy dispatch tier
    return SdeModel(
        Case.NONDEGENERATE, 1,
        lambda t, x: -0.5 * np.sin(np.asarray(x, dtype=float)),
        lambda t, x, g: g,
        1.0, 1.0,
    )


def test_custom_preset_control_run_doubles_like_the_twin_runs(monkeypatch):
    monkeypatch.setitem(MODEL_PRESETS, "sine-drift", _sine_drift_model)
    calls = _spy_simulations(monkeypatch)
    cfg, model, tgrid, f = _control_setup(
        preset="sine-drift", x0=[0.5], M=20, num_batches=10, control_factor=50, N=3
    )
    # with no twin the run estimates the mean of f(X) itself, from one chunk
    # doubling to the cap of control_factor * M * num_batches = 10000
    # samples; pinned to its bits.  r_min = 0 reads samples 0 ... 9999 in
    # order, as one plain run of the whole cap does
    ref = harness.reference_mean(cfg, model, tgrid, f, 0.0)
    assert ref == (0.32060932570696116, 0.008937217290238076)
    assert ref == _plain_mean(cfg, model, tgrid, f, 10000, cfg.stream_id + 1)
    assert [(M, lo) for _, M, lo in calls] == [(4096, 0), (4096, 4096), (1808, 8192)]
    # the first chunk already meets r_min / 10 = 0.05
    calls.clear()
    assert harness.reference_mean(cfg, model, tgrid, f, 0.5) == (
        0.3178643421119831, 0.014116020437632871,
    )
    assert [(M, lo) for _, M, lo in calls] == [(4096, 0)]


def _unit_noise_model():
    # dX = dW: X_T follows p_1(T, x0, .) exactly, and the model says so
    return SdeModel(
        Case.NONDEGENERATE, 1,
        lambda t, x: np.zeros(np.shape(x)),
        lambda t, x, g: g,
        1.0, 1.0, law=(1.0, None),
    )


def test_registered_preset_simulates_its_model(monkeypatch, tmp_path, capsys):
    # the test registers into a copy of the table; monkeypatch restores the original
    monkeypatch.setattr(model_module, "MODEL_PRESETS", dict(MODEL_PRESETS))
    register_model_preset("sine-drift", _sine_drift_model)
    cfg = cfg_with(preset="sine-drift", x0=[0.5], M=7, N=3, out_dir=str(tmp_path))
    harness.run_command("simulate", cfg)
    lines = (tmp_path / "samples.csv").read_text().splitlines()
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    want = simulate_terminal(
        _sine_drift_model(), SchemeGrid(T=cfg.T, N=3), np.array([0.5]),
        RngSpec(cfg.master_seed, cfg.stream_id), 7,
    )
    assert lines[1] == "sample_index,x_1" and np.array_equal(rows[:, 1:], want)
    # a custom preset reads no model field, so setting one is refused
    argv = ["simulate", "--set", 'preset="sine-drift"', "--set", "d=2", "--out-dir", str(tmp_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: preset 'sine-drift' does not read d; leave it unset\n"


def test_custom_preset_states_its_own_law_and_twin(monkeypatch):
    # a custom model takes the path a built-in one does: its law gives the
    # exact reference, and its twin the twin control run
    monkeypatch.setitem(MODEL_PRESETS, "unit-noise", _unit_noise_model)
    assert _exact_reference(preset="unit-noise", x0=[0.5], T=2.0) == 0.5

    def twinned():
        return dataclasses.replace(_sine_drift_model(), twin=_unit_noise_model())

    monkeypatch.setitem(MODEL_PRESETS, "sine-twin", twinned)
    calls = _spy_simulations(monkeypatch)
    cfg, model, tgrid, f = _control_setup(preset="sine-twin", x0=[0.5], N=3)
    ref, se = harness.reference_mean(cfg, model, tgrid, f, 0.05)
    assert [(M, lo) for _, M, lo in calls] == [(4096, 0), (4096, 0)]
    assert calls[0][0] is model and calls[1][0] is model.twin
    # the twin takes the drift's spread out of the estimate
    plain, plain_se = _plain_mean(cfg, model, tgrid, f, 100_000, cfg.stream_id + 7)
    assert 0.0 < se < plain_se * math.sqrt(100_000 / 4096) / 2
    assert abs(ref - plain) <= 3.0 * math.hypot(se, plain_se)


def test_concentration_with_growth_constants():
    cfg = cfg_with(
        preset="const", d=2, b0=0.0, sigma0=1.0, c=1.0, C=1.0, x0=[0.0, 0.0],
        M=30, num_batches=60, T=1.0, N=2, master_seed=5,
        functional="abs", rho0=1.0, beta=1.0,
    )
    rep = run_concentration_experiment(cfg)
    assert rep["constants"] is not None
    assert rep["constants"]["chi"] == 0.0
    assert rep["constants"]["bar_alpha_inv"] == pytest.approx(0.5)
    assert rep["lower_curve"] is not None and len(rep["lower_curve"]) > 0
    # empirical lower entries only where the prediction is resolvable
    assert rep["lower_empirical"] is not None
    for r, thr, freq in rep["lower_empirical"]:
        assert thr > 0 and 0.0 <= freq <= 1.0


def test_concentration_lower_empirical_keeps_upper_frequencies():
    # M = 1 leaves batch means wide enough that some lower-bound radii are
    # testable; their frequencies must not replace the upper-side ones
    cfg = cfg_with(M=1, functional="abs", rho0=1.0, beta=1.0)
    rep = run_concentration_experiment(cfg)
    assert len(rep["empirical_freq"]) == cfg.num_r
    assert rep["lower_empirical"]
    for r, thr, freq in rep["lower_empirical"]:
        assert thr > 0 and 0.0 <= freq <= 1.0


def test_bound_table_values():
    cfg = cfg_with(preset="const", d=1, c=1.0, C=1.0, T=1.0, M=10_000, eps=[0.05])
    table = run_bound_table(cfg)
    assert table["alpha_T"] == pytest.approx(2.0)
    assert table["delta_bias"] == 0.0
    want = math.sqrt(2.0 * math.log(40.0) / 10_000.0)
    assert table["radii"][0]["radius"] == pytest.approx(want, rel=1e-12)
    assert table["radii"][0]["total_radius"] == pytest.approx(want, rel=1e-12)


def test_bound_table_kinetic_alpha():
    cfg = cfg_with(preset="kinetic", dp=1, x0=[0.0, 0.0], c=1.0, C=1.0, T=1.0)
    table = run_bound_table(cfg)
    assert table["alpha_T"] == pytest.approx(2.0 / (4.0 - math.sqrt(13.0)), rel=1e-12)


def test_bound_table_normalized_functional_alpha():
    cfg = cfg_with(
        preset="kinetic", dp=1, x0=[0.0, 0.0], functional="asian-diff", c=2.0, T=1.5
    )
    table = run_bound_table(cfg)
    assert table["alpha_T"] == pytest.approx(
        2.0 * 1.5 / ((4.0 - math.sqrt(13.0)) * 2.0), rel=1e-12
    )


def test_bound_table_lower_constants_pipeline():
    cfg = cfg_with(
        preset="const", d=2, x0=[0.0, 0.0], c=1.0, C=1.0, T=1.0,
        functional="abs", rho0=1.0, beta=1.0,
    )
    table = run_bound_table(cfg)
    consts = table["constants"]
    assert consts["chi"] == 0.0
    assert consts["bar_alpha_inv"] == pytest.approx(0.5, rel=1e-14)
    assert consts["F_floor"] == 1.0
    # gamma(F) is the Rayleigh mean sqrt(pi/2) of |y| under the unit kernel
    assert consts["gamma_F"] == pytest.approx(math.sqrt(math.pi / 2), rel=1e-12)
    assert "gamma_F_se" not in consts


def test_bound_table_lower_constants_d3():
    # the floor of abs is rho0 exactly, not a minimum over sampled
    # directions; gamma(F) is exact in d = 3 too, whatever the seed
    cfg = cfg_with(d=3, x0=[0.0, 0.0, 0.0], functional="abs", rho0=1.0, beta=1.0)
    consts = run_bound_table(cfg)["constants"]
    assert consts["F_floor"] == 1.0
    assert consts["gamma_F"] == pytest.approx(math.sqrt(8 / math.pi), rel=1e-12)
    assert run_bound_table(dataclasses.replace(cfg, master_seed=5))["constants"] == consts


@settings(max_examples=50, deadline=None)
@given(
    functional=st.sampled_from(["abs", "identity", "sum", "asian-diff"]),
    rho0=st.floats(min_value=1e-3, max_value=50.0),
    beta=st.floats(min_value=1e-3, max_value=2.0),
    angle=st.floats(min_value=0.0, max_value=2 * math.pi),
)
@example(functional="abs", rho0=1.0, beta=1.0, angle=0.0)
@example(functional="abs", rho0=1.0, beta=1.0000000001, angle=0.0)
def test_growth_rule_over_beta(functional, rho0, beta, angle):
    # abs grows exactly when beta <= 1, with floor rho0; the linear presets
    # never grow.  The rule is checked against the functional itself on a
    # kinetic model, where all four presets exist.
    cfg = cfg_with(preset="kinetic", x0=[0.0, 0.0], T=1.5, functional=functional)
    model = build_model(cfg)
    f = make_functional(cfg, model)
    growth = GrowthSpec(rho0, beta, 2 * math.pi)
    if functional == "abs":
        s = np.array([[math.cos(angle), math.sin(angle)]])
        assert f(3 * rho0 * s)[0] - f(rho0 * s)[0] == pytest.approx(2 * rho0, rel=1e-12)
        assert f(rho0 * s)[0] == pytest.approx(rho0, rel=1e-12)
    else:
        # F(0) = 0, so a linear F decreases along minus its gradient
        grad = f(np.eye(2))
        s = -grad / np.linalg.norm(grad)
        assert f(3 * rho0 * s[None])[0] < f(rho0 * s[None])[0]
    if functional == "abs" and beta <= 1.0:
        assert harness.sphere_floor(functional, growth) == rho0
    else:
        with pytest.raises(ConfigError, match="fails the growth check"):
            harness.sphere_floor(functional, growth)


def test_concentration_lower_bias_uses_normalized_alpha():
    # asian-diff takes the time-normalized alpha in the lower bias; it is
    # linear, so no command reaches its lower bound, and the bias is checked
    # on lower_constants: its first term is (1 + sqrt 2) sqrt(alpha log C) for
    # the alpha passed in
    cfg = cfg_with(
        preset="kinetic", x0=[0.0, 0.0], functional="asian-diff", rho0=0.5, beta=1.0,
        T=1.5, C=1.5,
    )
    model = build_model(cfg)
    alpha = conc.concentration_alpha_normalized(1.0, 1.5)
    assert run_bound_table(dataclasses.replace(cfg, rho0=None, beta=None))["alpha_T"] == alpha
    floor = -0.5 * math.sqrt((1.0 + 1.5**-2) / 2.0)  # -rho0 |grad F|
    k = conc.lower_constants(
        model.case, model.d, cfg.c, cfg.C, cfg.T, alpha, harness.start_point(cfg, model),
        harness.growth_spec(cfg), floor, cfg.theta,
    )
    first = k["bar_delta"] - k["gamma_F"] - 0.5 * 1.0 + floor
    assert first == pytest.approx((1 + math.sqrt(2)) * math.sqrt(alpha * math.log(1.5)), rel=1e-12)


def test_write_json_refuses_non_finite():
    # JSON has no NaN or infinity; the report is refused as it is encoded,
    # before run_command opens any file
    for bad in (math.nan, math.inf):
        with pytest.raises(NumericError, match="report.json"):
            harness.json_text("report.json", {"delta_bias": bad}, "0" * 12)


def test_bound_table_lower_requires_growth():
    # one of rho0 and beta alone would drop the lower bound and still split
    # the config hash
    for growth in ({"rho0": 1.0}, {"beta": 1.0}):
        cfg = cfg_with(preset="const", d=2, x0=[0.0, 0.0], functional="abs", **growth)
        for run in (run_bound_table, run_concentration_experiment):
            with pytest.raises(ConfigError, match="rho0 and beta set the growth spec together"):
                run(cfg)


def test_bound_table_growth_check_rejects_bad_functional():
    cfg = cfg_with(
        preset="const", d=2, x0=[0.0, 0.0], functional="identity", rho0=1.0, beta=1.0,
    )
    with pytest.raises(ConfigError):
        run_bound_table(cfg)


def test_concentration_growth_check_runs_before_sampling(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the growth check")

    monkeypatch.setattr(harness, "simulate_terminal", no_sampling)
    cfg = cfg_with(M=1, rho0=1.0, beta=1.0)  # identity is linear: no growth
    with pytest.raises(ConfigError, match="growth check"):
        run_concentration_experiment(cfg)


def test_bound_table_builds_its_functional():
    with pytest.raises(ConfigError, match="unknown functional preset 'nonsense'"):
        run_bound_table(cfg_with(functional="nonsense"))
    with pytest.raises(ConfigError, match="asian-diff needs a kinetic model"):
        run_bound_table(cfg_with(functional="asian-diff"))


def test_bounds_and_concentration_report_equal_constants():
    cfg = cfg_with(functional="abs", rho0=1.0, beta=1.0, M=20, num_batches=30)
    consts = run_bound_table(cfg)["constants"]
    assert set(consts) == {
        "chi", "bar_alpha_inv", "bar_delta", "gamma_F", "F_floor", "theta",
    }
    assert run_concentration_experiment(cfg)["constants"] == consts


def test_density_check_exact_gaussian():
    # 4e5 samples: looser tolerances than the 1e6-sample acceptance case
    cfg = cfg_with(
        preset="const", d=1, b0=0.0, sigma0=1.0, c=1.0, C=1.1, T=1.0, N=2,
        density_samples=400_000, master_seed=13,
    )
    rep = run_density_check(cfg)
    assert rep["mode"] == "hist"
    assert 0.9 <= rep["c_fit"] <= 1.1
    assert rep["C_fit"] <= 1.08
    assert rep["envelope_holds"]


def test_density_check_kinetic_exact_shape_is_two():
    # exact kinetic covariance [[T, T^2/2], [T^2/2, T^3/3]] matches the
    # kernel with shape constant 2
    cfg = cfg_with(
        preset="kinetic", dp=1, x0=[0.0, 0.0], c=2.0, C=1.2, T=1.0, N=2,
        density_samples=400_000, master_seed=17,
    )
    rep = run_density_check(cfg)
    assert 1.8 <= rep["c_fit"] <= 2.2
    assert rep["C_fit"] < 1.2
    assert rep["envelope_holds"]


def test_density_check_ck_mode():
    cfg = cfg_with(
        preset="trig", a_amp=0.1, c=0.5, C=5.0, T=1.0, N=10, density_mode="ck",
        grid_points=401,
    )
    rep = run_density_check(cfg)
    assert rep["envelope_holds"]
    assert rep["n_samples"] == 0
    assert rep["C_fit"] < 5.0


def test_density_check_insufficient_samples():
    cfg = cfg_with(
        preset="const", d=1, density_samples=200, min_bin_count=500, master_seed=1
    )
    with pytest.raises(StatisticsError):
        run_density_check(cfg)


def test_density_check_dimension_guard():
    cfg = cfg_with(preset="const", d=3, x0=[0.0, 0.0, 0.0])
    with pytest.raises(ConfigError):
        run_density_check(cfg)


@st.composite
def _binned_block(draw):
    """A (d, m) block, a column of m samples per coordinate, and its
    np.arange edges, as run_density_check builds
    them from lo, hi and a width: spans from 1e-6 to 1e6, widths such as 0.1
    that binary does not hold, and samples on the edges, at lo and outside."""
    d = draw(st.sampled_from([1, 2]))
    m = draw(st.one_of(st.just(1), st.integers(2, 40)))
    edges, columns = [], []
    for _ in range(d):
        width = draw(st.sampled_from([0.1, 0.3, 0.7, 1 / 3]) | st.floats(0.1, 1.0))
        width *= 10.0 ** draw(st.integers(-6, 5))
        bins = draw(st.integers(1, 64))
        lo = draw(st.floats(-1e6, 1e6)) if draw(st.booleans()) else 0.0
        e = np.arange(lo, lo + bins * width + width, width)
        assume(e.size >= 2 and (np.diff(e) > 0).all())
        span = e[-1] - lo
        values = st.one_of(
            st.sampled_from(e.tolist()), st.just(lo), st.just(float(e[-1])),
            st.floats(lo, float(e[-1])), st.floats(lo - span, float(e[-1]) + span),
        )
        edges.append(e)
        columns.append(draw(st.lists(values, min_size=m, max_size=m)))
    return np.array(columns), edges


@settings(max_examples=300, deadline=None)
@given(_binned_block())
def test_bin_counts_equal_histogramdd(case):
    columns, edges = case
    got = harness._bin_counts(columns, edges)
    assert got.dtype == np.float64
    assert np.array_equal(got, np.histogramdd(columns.T, bins=edges)[0])


@pytest.mark.parametrize("n", [2, 3, 129, 8193, 250_000])
@pytest.mark.parametrize("d", [1, 2])
def test_column_stats_are_numpys_to_the_bit(n, d, numpy_normals):
    # numpy sums an (n, 2) array over axis 0 row by row, and the one column
    # of an (n, 1) array pairwise; the running sums must make its additions,
    # on subnormal spreads, large means and sums that overflow
    for scale, shift in [(1.0, 0.0), (1e-310, 3e-310), (3.0, 1e6), (1e306, 1e307)]:
        s = shift + scale * numpy_normals(n, (n, d))
        with np.errstate(over="ignore", invalid="ignore"):
            want = (s.min(axis=0), s.max(axis=0), s.std(axis=0, ddof=1))
        for got, w in zip(harness._column_stats(s), want):
            assert np.array_equal(got.view(np.int64), w.view(np.int64)), (scale, got, w)


def test_report_dict_schema():
    cfg = cfg_with(
        preset="const", d=1, M=20, num_batches=30, N=2, master_seed=23
    )
    payload = run_concentration_experiment(cfg)
    for key in (
        "case", "c", "C", "T", "M", "alpha_T", "delta_bias",
        "bound_curve", "lower_curve", "constants",
    ):
        assert key in payload


def _exact_ties():
    """Doubles m 2^-j = m 5^j / 10^j with m odd and m 5^j of 18 digits, so
    that %.17g rounds a tie, from about 1e-4 (j = 21) to 1e14 (j = 3)."""
    ties = []
    for j in range(3, 22):
        lo, hi = -(-(10**17) // 5**j), min(10**18 // 5**j, 2**53)
        for m in (lo, (lo + hi) // 2, hi - 2):
            m |= 1
            assert len(str(m * 5**j)) == 18
            ties.append(m * 2.0**-j)
    return ties


# signed zero, the least subnormal, the switches of %g between fixed and
# exponent form, both ends of the float range, each power of ten from 1e-6 to
# 1e17 and its neighbours (1e-4 and 1e15 bound the block formatter's exact
# range), and ties at the 17th digit, in both signs
_CSV_FLOATS = [-0.0, 5e-324, 1e-5, 9.9999999999999995e-5, 1e16, 1e17, 1.7e308, -1.7e308]
_CSV_FLOATS += [
    sign * float(np.nextafter(float(f"1e{k}"), toward))
    for k in range(-6, 18)
    for toward in (0.0, float(f"1e{k}"), np.inf)
    for sign in (1, -1)
]
_CSV_FLOATS += [sign * tie for tie in _exact_ties() for sign in (1, -1)]
_CSV_INTS = [np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, -1, 9, 10]


def _csv_oracle(columns) -> list[str]:
    """The data rows of `columns` formatted one row at a time."""
    formats = ["%d" if np.asarray(col).dtype.kind in "iu" else "%.17g" for col in columns]
    return [
        ",".join(f % (int(v) if f == "%d" else float(v)) for f, v in zip(formats, row))
        for row in zip(*columns)
    ]


_B = harness._CSV_BLOCK


# rows of no full block, and one or two blocks less one, even and plus one,
# and whole blocks with a partial one, so the rows meet every block edge
@pytest.mark.parametrize(
    "rows", [0, 1, _B - 1, _B, _B + 1, 2 * _B - 1, 2 * _B, 2 * _B + 1, 3 * _B + 7, 6 * _B + 7]
)
def test_write_csv_matches_a_row_by_row_oracle(tmp_path, rows):
    normals = np.random.default_rng(rows).standard_normal(11)
    floats = np.resize(np.concatenate([_CSV_FLOATS, normals]), rows)
    wrapped = np.arange(rows, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)  # wraps past 2**63
    columns = [
        np.resize(np.concatenate([_CSV_INTS, np.arange(rows) * -7 + 3]), rows),
        floats,
        np.resize(np.concatenate([np.array([2**64 - 1], np.uint64), wrapped]), rows),
        floats[::-1],
    ]
    write_csv(tmp_path / "t.csv", ["i", "x", "u", "y"], columns, "abc123")
    want = ["# config-hash: abc123", "i,x,u,y"] + _csv_oracle(columns)
    text = (tmp_path / "t.csv").read_text()
    assert text.endswith("\n") and text.split("\n")[:-1] == want


def test_write_csv_prints_a_range_column_as_integers(tmp_path):
    rows = _B + 5
    x = np.linspace(-1.0, 1.0, rows)
    write_csv(tmp_path / "t.csv", ["i", "x"], [range(3, 3 + 2 * rows, 2), x])
    want = ["i,x"] + _csv_oracle([np.arange(3, 3 + 2 * rows, 2), x])
    assert (tmp_path / "t.csv").read_text().split("\n")[:-1] == want


# one full block, so the block formatter writes every row: any float64 bit
# pattern, the formatter's own range, and any int64
@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.integers(0, 2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64))),
            st.floats(-1e15, 1e15),
        ),
        min_size=1,
        max_size=200,
    ),
    st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=200),
)
def test_write_csv_of_full_blocks_matches_the_oracle_on_any_bits(floats, ints):
    columns = [
        np.resize(np.array(ints, dtype=np.int64), _B),
        np.resize(np.array(floats), _B),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        write_csv(Path(tmp) / "t.csv", ["i", "x"], columns)
        text = (Path(tmp) / "t.csv").read_text()
    assert text.split("\n")[:-1] == ["i,x"] + _csv_oracle(columns)


def test_write_csv_peak_memory_does_not_grow_with_rows(tmp_path):
    import tracemalloc

    peaks = []
    for blocks in (4, 16):
        rows = blocks * harness._CSV_BLOCK
        columns = [np.arange(rows), np.linspace(-1.0, 1.0, rows)]
        tracemalloc.start()
        try:
            write_csv(tmp_path / "t.csv", ["i", "x"], columns)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks

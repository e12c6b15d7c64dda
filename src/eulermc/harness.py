"""Experiment orchestration: configs in, CSV/JSON out.

A single flat JSON document configures every experiment; unknown keys are
rejected.  Outputs never contain timestamps or thread counts, and the
config hash excludes execution-only fields (out_dir, threads), so a rerun
with the same config and seed is byte-identical no matter how work is
threaded.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import norm

from . import concentration as conc
from .errors import ArgumentError, ConfigError, StatisticsError
from .gaussianref import KernelSpec, kernel_density
from .model import (
    Case,
    GaussParams,
    GrowthSpec,
    SdeModel,
    SchemeGrid,
    check_growth,
    model_preset,
    sample_rays,
    sphere_surface_measure,
)
from .parametrix import (
    chapman_kolmogorov_density,
    default_grid,
    parametrix_series,
)
from .control import ControlProblem, energy, geodesic
from .gaussianref import kinetic_metric
from .simulate import RngSpec, TerminalBatch, simulate_terminal

_WILSON_Z99 = float(norm.ppf(0.99))


@dataclass
class ExperimentConfig:
    """Flat experiment configuration; see README for the schema."""

    # model
    preset: str = "const"
    d: int = 1
    dp: int = 1
    b0: float | list = 0.0
    sigma0: float = 1.0
    a_amp: float = 0.1
    b_amp: float = 0.0
    damp: float = 0.0
    lambda0: float | None = None
    L0: float | None = None
    eta: float = 1.0
    # grid
    T: float = 1.0
    N: int = 8
    # envelope constants
    c: float = 1.0
    C: float = 1.0
    # Monte Carlo batches
    M: int = 100
    num_batches: int = 200
    master_seed: int = 20260808
    stream_id: int = 0
    control_factor: int = 100
    # functional and start point
    functional: str = "identity"
    x0: list = field(default_factory=lambda: [0.0])
    # bound queries
    r_grid: list | None = None
    num_r: int = 20
    eps: list = field(default_factory=lambda: [0.05])
    lower_bounds: bool = False
    rho0: float | None = None
    beta: float | None = None
    cone: float | str = "full"
    theta: float | None = None
    # density checks
    density_samples: int = 1_000_000
    density_mode: str = "hist"
    c_grid: list | None = None
    high_mass_fraction: float = 0.3
    min_bin_count: int = 50
    # parametrix
    r_max: int = 3
    grid_points: int = 601
    grid_radius: float = 10.0
    # control problem
    control_t: float = 1.0
    control_x: list = field(default_factory=lambda: [0.0, 0.0])
    control_x_prime: list = field(default_factory=lambda: [0.0, 1.0])
    geodesic_steps: int = 200
    # output
    export_binary: bool = False
    out_dir: str = "out"
    threads: int = 1

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for f in dataclasses.fields(cls):
            value = raw.get(f.name, 0)
            if f.type == "int" and (isinstance(value, bool) or not isinstance(value, int)):
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
        cfg = cls(**raw)
        if cfg.M < 1 or cfg.num_batches < 1:
            raise ConfigError("M and num_batches must be >= 1")
        if cfg.threads < 1:
            raise ConfigError("threads must be >= 1")
        return cfg

    def canonical(self) -> dict:
        out = dataclasses.asdict(self)
        out.pop("out_dir")
        out.pop("threads")
        return out

    @property
    def config_hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


def load_config(path: str | None, overrides: dict | None = None) -> ExperimentConfig:
    raw: dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
    if overrides:
        raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


def build_model(cfg: ExperimentConfig) -> SdeModel:
    params: dict = {"eta": cfg.eta}
    if cfg.lambda0 is not None:
        params["lambda0"] = cfg.lambda0
    if cfg.L0 is not None:
        params["L0"] = cfg.L0
    if cfg.preset == "const":
        params.update(d=cfg.d, b0=cfg.b0, sigma0=cfg.sigma0)
    elif cfg.preset == "trig":
        params.update(a_amp=cfg.a_amp, b_amp=cfg.b_amp)
    elif cfg.preset == "kinetic":
        params.update(dp=cfg.dp, damp=cfg.damp, sigma0=cfg.sigma0)
    return model_preset(cfg.preset, **params)


def build_grid(cfg: ExperimentConfig) -> SchemeGrid:
    return SchemeGrid(T=cfg.T, N=cfg.N)


def start_point(cfg: ExperimentConfig, model: SdeModel) -> np.ndarray:
    x0 = np.asarray(cfg.x0, dtype=float).reshape(-1)
    if x0.shape[0] == 1 and model.d > 1:
        x0 = np.full(model.d, x0[0])
    if x0.shape[0] != model.d:
        raise ConfigError(f"x0 has dimension {x0.shape[0]}, model needs {model.d}")
    return x0


# ---------------------------------------------------------------------------
# Functional presets (all 1-Lipschitz) and their analytic reference means.


def make_functional(cfg: ExperimentConfig, model: SdeModel, tgrid: SchemeGrid):
    name = cfg.functional
    if name == "identity":
        return lambda x: np.asarray(x, dtype=float)[..., 0]
    if name == "sum":
        scale = 1.0 / math.sqrt(model.d)
        return lambda x: np.asarray(x, dtype=float).sum(axis=-1) * scale
    if name == "abs":
        return lambda x: np.linalg.norm(np.asarray(x, dtype=float), axis=-1)
    if name == "asian-diff":
        if model.case is not Case.KINETIC:
            raise ConfigError("asian-diff needs a kinetic model")
        dp = model.d_prime
        T = tgrid.T
        scale = 1.0 / math.sqrt(2.0 * dp)

        def f(x):
            x = np.asarray(x, dtype=float)
            return (x[..., :dp] - x[..., dp:] / T).sum(axis=-1) * scale

        return f
    raise ConfigError(f"unknown functional preset {cfg.functional!r}")


def analytic_reference(cfg: ExperimentConfig, model: SdeModel, tgrid: SchemeGrid):
    """Closed-form E[f(X_T)] for the Gaussian presets; None when unknown."""
    x0 = start_point(cfg, model)
    T = tgrid.T
    if cfg.preset == "const":
        b = np.broadcast_to(np.atleast_1d(np.asarray(cfg.b0, dtype=float)), (model.d,))
        mean = x0 + b * T
        if cfg.functional == "identity":
            return float(mean[0])
        if cfg.functional == "sum":
            return float(mean.sum() / math.sqrt(model.d))
        if cfg.functional == "abs" and model.d == 1:
            mu, s = float(mean[0]), cfg.sigma0 * math.sqrt(T)
            return s * math.sqrt(2.0 / math.pi) * math.exp(-(mu**2) / (2 * s * s)) + mu * (
                1.0 - 2.0 * norm.cdf(-mu / s)
            )
    if cfg.preset == "kinetic" and cfg.damp == 0.0:
        dp = model.d_prime
        mean_v = x0[:dp]
        mean_z = x0[dp:] + x0[:dp] * T
        if cfg.functional == "identity":
            return float(mean_v[0])
        if cfg.functional == "asian-diff":
            return float((mean_v - mean_z / T).sum() / math.sqrt(2.0 * dp))
    return None


def growth_spec(cfg: ExperimentConfig, model: SdeModel) -> GrowthSpec | None:
    if cfg.rho0 is None or cfg.beta is None:
        return None
    if cfg.cone == "full":
        measure = sphere_surface_measure(model.d)
    else:
        try:
            measure = float(cfg.cone)
        except (TypeError, ValueError):
            raise ConfigError(f"cone must be a number or 'full', got {cfg.cone!r}") from None
    return GrowthSpec(rho0=cfg.rho0, beta=cfg.beta, cone_measure=measure)


def wilson_upper(k: int, n: int, z: float = _WILSON_Z99) -> float:
    """Upper limit of the one-sided Wilson score interval for k/n."""
    if n < 1:
        raise ArgumentError("need n >= 1")
    p = k / n
    denom = 1.0 + z * z / n
    center = p + z * z / (2.0 * n)
    rad = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))
    return (center + rad) / denom


def _alpha_for(cfg: ExperimentConfig, model: SdeModel) -> float:
    if cfg.functional == "asian-diff":
        return conc.concentration_alpha_normalized(cfg.c, cfg.T)
    return conc.concentration_alpha(model.case, cfg.c, cfg.T)


def _lower_bound(cfg, model, gauss, alpha, growth, f) -> conc.LowerBound:
    return conc.lower_bound(
        model.case, model.d, gauss, cfg.T, alpha, growth, f, start_point(cfg, model),
        theta=cfg.theta, seed=cfg.master_seed,
    )


def _default_r_grid(cfg: ExperimentConfig, alpha: float) -> np.ndarray:
    # cover radii down to where the bound is still statistically testable:
    # num_batches trials resolve frequencies down to ~25/num_batches (the
    # Wilson upper limit at zero events is ~5.4/num_batches), floor 1%
    eps_hi = min(max(0.01, 25.0 / cfg.num_batches), 1.0)
    r_hi = conc.confidence_radius(eps_hi, cfg.M, alpha)
    return np.linspace(0.0, r_hi, cfg.num_r)


def reference_mean(cfg: ExperimentConfig, model, tgrid, f, r_min: float):
    """Analytic reference when available, else a control run on a disjoint
    stream whose standard error must stay below r_min / 10."""
    ref = analytic_reference(cfg, model, tgrid)
    if ref is not None:
        return float(ref), 0.0
    n_ctrl = cfg.control_factor * cfg.M * cfg.num_batches
    batch = simulate_terminal(
        model,
        tgrid,
        start_point(cfg, model),
        RngSpec(cfg.master_seed, cfg.stream_id + 1),
        n_ctrl,
        threads=cfg.threads,
    )
    vals = np.asarray(f(batch.samples), dtype=float)
    se = float(vals.std(ddof=1) / math.sqrt(n_ctrl))
    if r_min > 0 and se >= r_min / 10.0:
        raise StatisticsError(
            f"control-run standard error {se:.3e} >= r_min/10 = {r_min / 10:.3e}"
        )
    return float(vals.mean()), se


@dataclass
class ConcentrationReport:
    case: str
    c: float
    C: float
    T: float
    M: int
    num_batches: int
    alpha_T: float
    delta_bias: float
    reference_mean: float
    reference_se: float
    bound_curve: list  # (r, bound) pairs
    empirical_freq: list
    wilson_upper: list
    lower_curve: list | None
    lower_empirical: list | None  # (r, threshold, freq) where power permits
    constants: dict | None

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def run_concentration_experiment(cfg: ExperimentConfig) -> ConcentrationReport:
    """Batch deviation frequencies against the theoretical tail bound."""
    model = build_model(cfg)
    tgrid = build_grid(cfg)
    f = make_functional(cfg, model, tgrid)
    gauss = GaussParams(cfg.c, cfg.C)
    alpha = _alpha_for(cfg, model)
    delta = conc.domination_bias(gauss.C, alpha)
    r_grid = (
        np.asarray(cfg.r_grid, dtype=float)
        if cfg.r_grid is not None
        else _default_r_grid(cfg, alpha)
    )
    positive = r_grid[r_grid > 0]
    r_min = float(positive.min()) if positive.size else 0.0
    ref, se = reference_mean(cfg, model, tgrid, f, r_min)

    total = cfg.M * cfg.num_batches
    batch = simulate_terminal(
        model,
        tgrid,
        start_point(cfg, model),
        RngSpec(cfg.master_seed, cfg.stream_id),
        total,
        threads=cfg.threads,
    )
    vals = np.asarray(f(batch.samples), dtype=float).reshape(cfg.num_batches, cfg.M)
    deviations = np.abs(vals.mean(axis=1) - ref)

    bound_curve, freq, wilson = [], [], []
    for r in r_grid:
        k = int(np.count_nonzero(deviations >= r + delta))
        bound_curve.append((float(r), conc.upper_tail_bound(float(r), cfg.M, alpha)))
        freq.append(k / cfg.num_batches)
        wilson.append(wilson_upper(k, cfg.num_batches))

    lower_curve = None
    lower_empirical = None
    constants = None
    growth = growth_spec(cfg, model)
    if growth is not None:
        lower = _lower_bound(cfg, model, gauss, alpha, growth, f)
        rate, bias = lower.rate, lower.bias
        lower_curve = [
            (float(r), conc.lower_tail_bound(float(r), cfg.M, rate.inv_alpha, growth.beta, growth.rho0))
            for r in r_grid
            if r > 0
        ]
        # empirical validation only where the predicted probability is
        # resolvable at this batch count; elsewhere the formulas stand alone
        lower_empirical = []
        for r, bound in lower_curve:
            thr = r - bias.value
            if bound >= 1e-3 and thr > 0:
                freq = float(np.count_nonzero(deviations >= thr)) / cfg.num_batches
                lower_empirical.append((r, thr, freq))
        constants = {
            "chi": rate.chi,
            "bar_alpha_inv": rate.inv_alpha,
            "bar_delta": bias.value,
            "theta": rate.theta,
        }

    return ConcentrationReport(
        case=model.case.value,
        c=cfg.c,
        C=cfg.C,
        T=cfg.T,
        M=cfg.M,
        num_batches=cfg.num_batches,
        alpha_T=alpha,
        delta_bias=delta,
        reference_mean=ref,
        reference_se=se,
        bound_curve=bound_curve,
        empirical_freq=freq,
        wilson_upper=wilson,
        lower_curve=lower_curve,
        lower_empirical=lower_empirical,
        constants=constants,
    )


@dataclass
class DensityCheckReport:
    mode: str
    case: str
    d: int
    T: float
    n_samples: int
    n_reported: int
    c_fit: float
    C_fit: float
    sup_ratio: float  # at the configured (c, C)
    inf_ratio: float
    envelope_holds: bool

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _ratio_requirement(dens, centers, case, T, x0, c):
    """Smallest C making the envelope hold for shape c on the given bins."""
    up = kernel_density(KernelSpec(case, c, T, x0), centers)
    lo = kernel_density(KernelSpec(case, 1.0 / c, T, x0), centers)
    sup_ratio = float(np.max(dens / up))
    inf_ratio = float(np.min(dens / lo))
    c_req = max(sup_ratio, 1.0 / inf_ratio if inf_ratio > 0 else math.inf, 1.0)
    return c_req, sup_ratio, inf_ratio


def run_density_check(cfg: ExperimentConfig) -> DensityCheckReport:
    """Envelope ratios of the sampled (or composed) terminal density.

    Histogram mode bins at least 1e6 samples with Scott-rule widths and fits
    the smallest domination constant over a shape grid, restricted to
    high-mass bins.  CK mode (scalar non-degenerate models) replaces the
    histogram with the Chapman-Kolmogorov table.
    """
    model = build_model(cfg)
    tgrid = build_grid(cfg)
    x0 = start_point(cfg, model)
    if model.d > 2:
        raise ConfigError("density checks cover d <= 2")
    c_grid = (
        np.asarray(cfg.c_grid, dtype=float)
        if cfg.c_grid is not None
        else np.geomspace(0.25, 4.0, 241)
    )
    if c_grid.size == 0:
        raise ConfigError("c_grid must not be empty")

    if cfg.density_mode == "ck":
        grid = default_grid(model, tgrid, float(x0[0]), cfg.grid_points, cfg.grid_radius)
        table = chapman_kolmogorov_density(model, tgrid, 0, tgrid.N, float(x0[0]), grid)
        mask = table.values > 1e-10
        centers = grid.points[mask][:, None]
        dens = table.values[mask]
        n_samples = 0
    elif cfg.density_mode == "hist":
        batch = simulate_terminal(
            model,
            tgrid,
            x0,
            RngSpec(cfg.master_seed, cfg.stream_id),
            cfg.density_samples,
            threads=cfg.threads,
        )
        s = batch.samples
        n = s.shape[0]
        widths = 3.49 * s.std(axis=0, ddof=1) * n ** (-1.0 / (2 + model.d))
        edges = [
            np.arange(s[:, i].min(), s[:, i].max() + widths[i], widths[i])
            for i in range(model.d)
        ]
        counts, edges = np.histogramdd(s, bins=edges)
        vols = math.prod(float(w[1] - w[0]) for w in edges)
        centers_1d = [0.5 * (e[:-1] + e[1:]) for e in edges]
        mesh = np.stack(np.meshgrid(*centers_1d, indexing="ij"), axis=-1).reshape(
            -1, model.d
        )
        counts = counts.reshape(-1)
        threshold = max(cfg.min_bin_count, cfg.high_mass_fraction * counts.max())
        mask = counts >= threshold
        if int(mask.sum()) < 5:
            raise StatisticsError(
                "fewer than 5 bins carry enough samples in the reported region"
            )
        centers = mesh[mask]
        dens = counts[mask] / (n * vols)
        n_samples = n
    else:
        raise ConfigError("density_mode must be 'hist' or 'ck'")

    fits = [
        _ratio_requirement(dens, centers, model.case, cfg.T, x0, float(c))[0]
        for c in c_grid
    ]
    best = int(np.argmin(fits))
    c_fit, C_fit = float(c_grid[best]), float(fits[best])
    _, sup_ratio, inf_ratio = _ratio_requirement(
        dens, centers, model.case, cfg.T, x0, cfg.c
    )
    holds = sup_ratio <= cfg.C and inf_ratio >= 1.0 / cfg.C
    return DensityCheckReport(
        mode=cfg.density_mode,
        case=model.case.value,
        d=model.d,
        T=cfg.T,
        n_samples=n_samples,
        n_reported=int(np.count_nonzero(mask)),
        c_fit=c_fit,
        C_fit=C_fit,
        sup_ratio=sup_ratio,
        inf_ratio=inf_ratio,
        envelope_holds=bool(holds),
    )


def run_bound_table(cfg: ExperimentConfig) -> dict:
    """All concentration constants plus confidence radii for an eps list."""
    model = build_model(cfg)
    tgrid = build_grid(cfg)
    gauss = GaussParams(cfg.c, cfg.C)
    alpha = _alpha_for(cfg, model)
    delta = conc.domination_bias(gauss.C, alpha)
    rows = []
    for eps in cfg.eps:
        radius = conc.confidence_radius(float(eps), cfg.M, alpha)
        rows.append({"eps": float(eps), "radius": radius, "total_radius": radius + delta})
    table: dict = {
        "case": model.case.value,
        "c": cfg.c,
        "C": cfg.C,
        "T": cfg.T,
        "M": cfg.M,
        "alpha_T": alpha,
        "delta_bias": delta,
        "radii": rows,
        "constants": None,
    }
    if cfg.lower_bounds:
        growth = growth_spec(cfg, model)
        if growth is None:
            raise ConfigError("lower bounds requested without rho0/beta growth spec")
        f = make_functional(cfg, model, tgrid)
        single = lambda y: float(f(np.asarray(y, dtype=float)[None, :])[0])
        rays = sample_rays(growth, model.d, [growth.rho0 * 2.0, growth.rho0 * 5.0], 32)
        if not check_growth(single, growth, rays).ok:
            raise ConfigError("functional fails the growth check on sampled rays")
        lower = _lower_bound(cfg, model, gauss, alpha, growth, f)
        rate, bias = lower.rate, lower.bias
        table["constants"] = {
            "chi": rate.chi,
            "bar_alpha_inv": rate.inv_alpha,
            "bar_delta": bias.value,
            "gamma_F": bias.gamma_term,
            "F_floor": bias.floor,
            "theta": rate.theta,
        }
    return table


# ---------------------------------------------------------------------------
# Output writers.  No timestamps; 17 significant digits; config hash first.


_CSV_BLOCK = 1 << 12  # rows formatted per block; bounds the memory of .tolist()


def write_csv(path, header: list[str], columns, config_hash: str | None = None) -> None:
    """The one CSV writer: integer columns bare, float columns with 17 digits.

    Each column's format is chosen once; rows are formatted from .tolist()
    blocks of the columns.
    """
    columns = [np.asarray(col) for col in columns]
    row = ",".join("%d" if col.dtype.kind in "iu" else "%.17g" for col in columns) + "\n"
    with open(path, "w") as fh:
        if config_hash is not None:
            fh.write(f"# config-hash: {config_hash}\n")
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(columns[0]), _CSV_BLOCK):
            block = [col[lo : lo + _CSV_BLOCK].tolist() for col in columns]
            fh.writelines([row % values for values in zip(*block)])


def export_csv(batch: TerminalBatch, path, config_hash: str | None = None) -> None:
    """Write `sample_index, x_1, ..., x_d` rows (17 significant digits)."""
    header = ["sample_index"] + [f"x_{k + 1}" for k in range(batch.samples.shape[1])]
    write_csv(path, header, [np.arange(batch.M), *batch.samples.T], config_hash)


def export_binary(batch: TerminalBatch, path) -> None:
    """Raw little-endian float64 samples, row major, M x d."""
    with open(path, "wb") as fh:
        fh.write(batch.samples.astype("<f8").tobytes(order="C"))


def write_json(path, obj: dict, config_hash: str) -> None:
    payload = dict(obj)
    payload["config_hash"] = config_hash
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _outpath(cfg: ExperimentConfig, name: str) -> str:
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {cfg.out_dir}: {exc}") from None
    return os.path.join(cfg.out_dir, name)


def run_simulate_cmd(cfg: ExperimentConfig) -> TerminalBatch:
    model = build_model(cfg)
    tgrid = build_grid(cfg)
    batch = simulate_terminal(
        model,
        tgrid,
        start_point(cfg, model),
        RngSpec(cfg.master_seed, cfg.stream_id),
        cfg.M,
        threads=cfg.threads,
    )
    export_csv(batch, _outpath(cfg, "samples.csv"), cfg.config_hash)
    if cfg.export_binary:
        export_binary(batch, _outpath(cfg, "samples.bin"))
    return batch


def run_bounds_cmd(cfg: ExperimentConfig) -> dict:
    table = run_bound_table(cfg)
    write_json(_outpath(cfg, "bounds.json"), table, cfg.config_hash)
    write_csv(
        _outpath(cfg, "bounds.csv"),
        ["eps", "radius", "total_radius"],
        [[row[key] for row in table["radii"]] for key in ("eps", "radius", "total_radius")],
        cfg.config_hash,
    )
    return table


def run_concentration_cmd(cfg: ExperimentConfig) -> ConcentrationReport:
    report = run_concentration_experiment(cfg)
    r, bound = np.array(report.bound_curve, dtype=float).reshape(-1, 2).T
    write_csv(
        _outpath(cfg, "concentration.csv"),
        ["r", "empirical_freq", "bound", "wilson_upper"],
        [r, report.empirical_freq, bound, report.wilson_upper],
        cfg.config_hash,
    )
    write_json(_outpath(cfg, "concentration.json"), report.as_dict(), cfg.config_hash)
    return report


def run_density_cmd(cfg: ExperimentConfig) -> DensityCheckReport:
    report = run_density_check(cfg)
    write_json(_outpath(cfg, "density_check.json"), report.as_dict(), cfg.config_hash)
    return report


def run_parametrix_cmd(cfg: ExperimentConfig) -> dict:
    model = build_model(cfg)
    tgrid = build_grid(cfg)
    x0 = float(start_point(cfg, model)[0])
    grid = default_grid(model, tgrid, x0, cfg.grid_points, cfg.grid_radius)
    series, norms, _ = parametrix_series(model, tgrid, 0, tgrid.N, x0, grid, cfg.r_max)
    ck = chapman_kolmogorov_density(model, tgrid, 0, tgrid.N, x0, grid)
    scale = float(np.max(np.abs(ck.values)))
    sup_rel = float(np.max(np.abs(series.values - ck.values))) / scale
    series.to_csv(_outpath(cfg, "parametrix_series.csv"), cfg.config_hash)
    report = {
        "r_max": cfg.r_max,
        "term_sup_norms": norms,
        "sup_rel_error_vs_ck": sup_rel,
        "series_mass": series.mass(),
        "ck_mass": ck.mass(),
        "grid": {"lo": grid.lo, "hi": grid.hi, "n_points": grid.n_points},
    }
    write_json(_outpath(cfg, "parametrix.json"), report, cfg.config_hash)
    return report


def run_control_cmd(cfg: ExperimentConfig) -> dict:
    x = np.asarray(cfg.control_x, dtype=float)
    xp = np.asarray(cfg.control_x_prime, dtype=float)
    if x.size % 2 != 0 or x.size != xp.size:
        raise ConfigError("control endpoints need matching even dimensions")
    problem = ControlProblem(t=cfg.control_t, x=x, x_prime=xp, d_prime=x.size // 2)
    times, states = geodesic(problem, cfg.geodesic_steps)
    write_csv(
        _outpath(cfg, "geodesic.csv"),
        ["s"] + [f"state_{k + 1}" for k in range(states.shape[1])],
        [times, *states.T],
        cfg.config_hash,
    )
    e = energy(problem)
    report = {
        "energy": e,
        "kinetic_metric_sq": float(kinetic_metric(cfg.control_t, x, xp, x.size // 2)),
        "endpoint_error": float(np.linalg.norm(states[-1] - xp)),
    }
    write_json(_outpath(cfg, "control.json"), report, cfg.config_hash)
    return report

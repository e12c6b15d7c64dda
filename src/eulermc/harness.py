"""Experiment orchestration: configs in, CSV/JSON out.

A single flat JSON document configures every experiment; unknown keys and
values outside their field's annotation are rejected.  COMMANDS maps each
command to the runner that returns its files, and run_command writes them.
run_command hands the runner a config that notes each field read from it,
and a file's config hash covers the fields the run read, less out_dir and
threads: a field the run never reads cannot split the hash of a run.
Outputs never contain timestamps or thread counts, so a rerun with the same
config and seed is byte-identical no matter how work is threaded.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import concentration as conc
from .errors import ArgumentError, ConfigError, NumericError, StatisticsError
from .gaussianref import KernelSpec, kernel_exponent, kernel_mean_cov, kernel_norm_mean
from .gaussianref import kernel_density  # noqa: F401  perfbench/child.py traces it here
from .model import (
    Case,
    GaussParams,
    GrowthSpec,
    SdeModel,
    SchemeGrid,
    model_preset,
    sphere_surface_measure,
)
from .parametrix import (
    Grid1D,
    chapman_kolmogorov_density,
    check_r_max,
    default_grid,
    parametrix_series,
    term_decay,
)
from .control import ControlProblem, energy, geodesic
from .gaussianref import kernel_normalizer, kinetic_metric
from .simulate import _CHUNK, RngSpec, _log, simulate_terminal

# float(scipy.special.ndtri(0.99)), the 99% normal quantile, as a literal so
# that the module loads without scipy
_WILSON_Z99 = 2.3263478740408408

# largest n x n float64 matrix a CK or parametrix grid may need (n <= 4095)
_MATRIX_CAP_BYTES = 2**27
# largest d and dp: the model's d x d float64 noise matrix stays within the cap
_MAX_DIM = math.isqrt(_MATRIX_CAP_BYTES // 8)
# most pool threads and default radii a run may ask for: fixed numbers, so
# that a config loads alike on every host
_MAX_THREADS = 256
_MAX_NUM_R = 2**16

# The streams a run reads: the simulation (master_seed, stream_id), the
# control run stream_id + 1.
_SIMULATION, _CONTROL = 0, 1


def _finite(name: str, value) -> float:
    try:
        out = float(value)
    except OverflowError:
        raise ConfigError(f"{name} must be a finite number, got an integer too large") from None
    if not math.isfinite(out):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return out


def _coerce(name: str, annotation: str, value):
    """`value` as the field `name` stores it, else ConfigError.  `annotation`
    is the field's annotation as written, such as "float | list[float]".

    Integers in real-valued fields become floats (T=1 hashes like T=1.0), a
    scalar given for a list field becomes the one-element list it runs like,
    and a bool counts only for a bool field: as 0 or 1 it would run under a
    hash of its own.
    """
    allowed = annotation.split(" | ")
    kind = type(value).__name__ if value is not None else "None"
    if kind in allowed and kind != "float":
        return value  # None, a string, a bool or an integer, where allowed
    if kind in ("int", "float") and "float" in allowed:
        return _finite(name, value)
    if "list[float]" in allowed:
        items = value if kind == "list" else [value]
        if all(type(v) in (int, float) for v in items):
            return [_finite(f"{name}[{k}]", v) for k, v in enumerate(items)]
    raise ConfigError(f"{name} must be {annotation}, got {value!r}")


@dataclass
class ExperimentConfig:
    """Flat experiment configuration; see README for the schema."""

    # model
    preset: str = "const"
    d: int = 1
    dp: int = 1
    b0: list[float] = field(default_factory=lambda: [0.0])
    sigma0: float = 1.0
    a_amp: float = 0.1
    b_amp: float = 0.0
    damp: float = 0.0
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
    x0: list[float] = field(default_factory=lambda: [0.0])
    # bound queries
    r_grid: list[float] | None = None
    num_r: int = 20
    eps: list[float] = field(default_factory=lambda: [0.05])
    rho0: float | None = None
    beta: float | None = None
    cone: float | str = "full"
    theta: float | None = None
    # density checks
    density_samples: int = 1_000_000
    density_mode: str = "hist"
    c_grid: list[float] | None = None
    high_mass_fraction: float = 0.3
    min_bin_count: int = 50
    # parametrix
    r_max: int = 3
    grid_points: int = 601
    grid_radius: float = 10.0
    # control problem
    control_t: float = 1.0
    control_x: list[float] = field(default_factory=lambda: [0.0, 0.0])
    control_x_prime: list[float] = field(default_factory=lambda: [0.0, 1.0])
    geodesic_steps: int = 200
    # output
    export_binary: bool = False
    out_dir: str = "out"
    threads: int = 1

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        fields = dataclasses.fields(cls)
        unknown = set(raw) - {f.name for f in fields}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**{f.name: _coerce(f.name, f.type, raw[f.name]) for f in fields if f.name in raw})
        if min(cfg.M, cfg.num_batches, cfg.d, cfg.dp, cfg.num_r, cfg.control_factor) < 1:
            raise ConfigError("M, num_batches, d, dp, num_r and control_factor must be >= 1")
        for name in ("r_grid", "eps", "c_grid"):
            if getattr(cfg, name) == []:
                raise ConfigError(f"{name} must not be empty")
        if cfg.r_grid and min(cfg.r_grid) < 0:
            raise ConfigError(f"r_grid entries must be >= 0, got {cfg.r_grid}")
        for name, cap in (("d", _MAX_DIM), ("dp", _MAX_DIM), ("num_r", _MAX_NUM_R)):
            if getattr(cfg, name) > cap:
                raise ConfigError(f"{name} must be at most {cap}, got {getattr(cfg, name)}")
        if not 1 <= cfg.threads <= _MAX_THREADS:
            raise ConfigError(f"threads must lie in [1, {_MAX_THREADS}], got {cfg.threads}")
        # the Philox key is taken mod 2**64: -1 and 2**64 - 1 are one stream
        cfg.master_seed %= 2**64
        cfg.stream_id %= 2**64
        return cfg


def load_config(path: str | None, overrides: dict | None = None) -> ExperimentConfig:
    raw: dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
    if overrides:
        raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


# the model fields each built-in preset reads
_PRESET_FIELDS = {
    "const": ("d", "b0", "sigma0"),
    "trig": ("a_amp", "b_amp"),
    "kinetic": ("dp", "damp", "sigma0"),
}


def build_model(cfg: ExperimentConfig) -> SdeModel:
    """The preset's model.  A model field the preset does not read must keep
    its default: set, it would change the config hash and not the run."""
    used = _PRESET_FIELDS.get(cfg.preset, ())
    defaults = ExperimentConfig()
    for name in sorted({f for fields in _PRESET_FIELDS.values() for f in fields} - set(used)):
        if getattr(cfg, name) != getattr(defaults, name):
            raise ConfigError(f"preset {cfg.preset!r} does not read {name}; leave it unset")
    return model_preset(cfg.preset, **{k: getattr(cfg, k) for k in used})


def build_grid(cfg: ExperimentConfig) -> SchemeGrid:
    return SchemeGrid(T=cfg.T, N=cfg.N)


def start_point(cfg: ExperimentConfig, model: SdeModel) -> np.ndarray:
    x0 = np.array(cfg.x0)
    if x0.shape[0] == 1 and model.d > 1:
        x0 = np.full(model.d, x0[0])
    if x0.shape[0] != model.d:
        raise ConfigError(f"x0 has dimension {x0.shape[0]}, model needs {model.d}")
    return x0


def _simulate(
    cfg: ExperimentConfig, model, tgrid, M: int, offset: int = _SIMULATION, start: int = 0
):
    """(M, d) terminal samples from the configured start on stream offset,
    for the sample indices start to start + M - 1."""
    return simulate_terminal(
        model, tgrid, start_point(cfg, model), RngSpec(cfg.master_seed, cfg.stream_id + offset),
        M, threads=cfg.threads, sample_offset=start,
    )


# ---------------------------------------------------------------------------
# Functional presets (all 1-Lipschitz) and their analytic reference means.


def make_functional(cfg: ExperimentConfig, model: SdeModel):
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
        T = cfg.T
        scale = 1.0 / math.sqrt(2.0 * dp)

        def f(x):
            x = np.asarray(x, dtype=float)
            return (x[..., :dp] - x[..., dp:] / T).sum(axis=-1) * scale

        return f
    raise ConfigError(f"unknown functional preset {cfg.functional!r}")


def sphere_floor(functional: str, growth: GrowthSpec) -> float:
    """inf F over the rho0 sphere, for a functional preset F that grows with
    slope beta on the full sphere: F(rho s) - F(rho0 s) >= beta (rho - rho0)
    for every unit s and rho > rho0.  ConfigError when it does not grow.

    abs has F(rho s) - F(rho0 s) = rho - rho0, so it grows exactly when
    beta <= 1, and its infimum is exactly rho0.  identity, sum and asian-diff
    are linear: each decreases along some direction, so none grows.
    """
    if functional != "abs" or growth.beta > 1.0:
        raise ConfigError(
            f"functional {functional!r} fails the growth check at beta = {growth.beta!r}: "
            "abs grows with slope 1, and the linear presets decrease along some direction"
        )
    return growth.rho0


def _kernel_law(model: SdeModel, x0: np.ndarray, T: float) -> KernelSpec:
    """The kernel p_c(T, x0 + b T, .) that the model's X_T follows, from its
    law (c, b); with b None the mean is x0 itself, signed zeros and all."""
    c, b = model.law
    return KernelSpec(model.case, c, T, x0 if b is None else x0 + b * T)


def analytic_reference(functional: str, f, law: KernelSpec) -> float:
    """E f(Y) for Y under the kernel law: kernel_norm_mean for abs, and
    f(E Y) for the linear presets identity, sum and asian-diff."""
    if functional == "abs":
        return kernel_norm_mean(law)
    return float(f(kernel_mean_cov(law)[0]))


def _table_grid(cfg: ExperimentConfig, model: SdeModel, tgrid: SchemeGrid, x: float) -> Grid1D:
    """The spatial grid of the CK and parametrix tables.

    Both build n x n float64 matrices on it, so a grid whose one such matrix
    would exceed _MATRIX_CAP_BYTES is refused before anything is allocated.

    A grid too coarse for one scheme step is refused too.  With spacing
    h > 2 sqrt(lambda0 delta), every one-step density has a standard
    deviation below h/2, and its trapezoid mass on the grid is off by about
    2 exp(-pi^2/2) ~ 0.014 (times a phase set by where the mean falls between
    nodes), far above the CK mass tolerance parametrix._MASS_TOL.
    """
    grid = default_grid(model, tgrid, x, cfg.grid_points, cfg.grid_radius)
    size = 8 * grid.n_points**2
    if size > _MATRIX_CAP_BYTES:
        raise ConfigError(
            f"grid_points={cfg.grid_points} needs {size / 2**20:,.0f} MiB per n x n "
            f"float64 matrix (n = {grid.n_points}), above the cap of "
            f"{_MATRIX_CAP_BYTES // 2**20} MiB"
        )
    limit = 2.0 * math.sqrt(model.lambda0 * tgrid.delta)
    if grid.h > limit:
        raise ConfigError(
            f"grid_points={cfg.grid_points} gives spacing h = {grid.h:.3g}, above "
            f"2 sqrt(lambda0 delta) = {limit:.3g}: one scheme step falls between nodes"
        )
    return grid


def growth_spec(cfg: ExperimentConfig, model: SdeModel) -> GrowthSpec | None:
    if cfg.rho0 is None and cfg.beta is None:
        return None
    if cfg.rho0 is None or cfg.beta is None:
        raise ConfigError("rho0 and beta set the growth spec together; set both or neither")
    if cfg.cone == "full":
        measure = sphere_surface_measure(model.d)
    elif isinstance(cfg.cone, str):
        raise ConfigError(f"cone must be a number or 'full', got {cfg.cone!r}")
    else:
        measure = cfg.cone
    return GrowthSpec(rho0=cfg.rho0, beta=cfg.beta, cone_measure=measure)


def wilson_upper(k: int, n: int) -> float:
    """Upper limit of the one-sided 99% Wilson score interval for k/n."""
    if n < 1:
        raise ArgumentError("need n >= 1")
    p, z = k / n, _WILSON_Z99
    denom = 1.0 + z * z / n
    center = p + z * z / (2.0 * n)
    rad = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))
    return (center + rad) / denom


def _alpha_for(cfg: ExperimentConfig, model: SdeModel) -> float:
    if cfg.functional == "asian-diff":
        return conc.concentration_alpha_normalized(cfg.c, cfg.T)
    return conc.concentration_alpha(model.case, cfg.c, cfg.T)


def _bound_constants(cfg: ExperimentConfig, model: SdeModel):
    """(alpha, delta, constants): the upper-side constant alpha of the
    functional, the bias delta, and, when rho0 and beta set a growth spec,
    conc.lower_constants of F = |y| from x0, whose functional must then grow
    (sphere_floor); else None."""
    gauss = GaussParams(cfg.c, cfg.C)
    alpha = _alpha_for(cfg, model)
    delta = conc.domination_bias(gauss.C, alpha)
    if not (math.isfinite(alpha) and math.isfinite(delta)):
        raise NumericError(f"alpha_T = {alpha} and delta_bias = {delta} must be finite")
    growth = growth_spec(cfg, model)
    if growth is None:
        return alpha, delta, None
    floor = sphere_floor(cfg.functional, growth)
    constants = conc.lower_constants(
        model.case, model.d, gauss.c, gauss.C, cfg.T, alpha, start_point(cfg, model), growth,
        floor, cfg.theta,
    )
    inv_alpha, bias = constants["bar_alpha_inv"], constants["bar_delta"]
    if not (math.isfinite(inv_alpha) and math.isfinite(bias)):
        raise NumericError(f"bar_alpha_inv = {inv_alpha} and bar_delta = {bias} must be finite")
    return alpha, delta, constants


def _default_r_grid(cfg: ExperimentConfig, alpha: float) -> np.ndarray:
    # cover radii down to where the bound is still statistically testable:
    # num_batches trials resolve frequencies down to ~25/num_batches (the
    # Wilson upper limit at zero events is ~5.4/num_batches), floor 1%
    eps_hi = min(max(0.01, 25.0 / cfg.num_batches), 1.0)
    r_hi = conc.confidence_radius(eps_hi, cfg.M, alpha)
    return np.linspace(0.0, r_hi, cfg.num_r)


def reference_mean(cfg: ExperimentConfig, model, tgrid, f, r_min: float):
    """(E f(X_T), standard error): the reference of the model's exact law
    (model.law), else a control run on stream stream_id + 1 whose standard
    error must fall below r_min / 10 (StatisticsError otherwise).

    With a Gaussian twin (model.twin), the control run estimates the mean of
    f(X) - f(X_twin) on shared normals and adds the reference of the twin's
    law; a model with neither estimates the mean of f(X).  The run
    starts at one chunk of samples and doubles until the standard error
    meets the target; samples [0, n) alone give the estimate at size n.  It
    stops at the cap, control_factor * M * num_batches samples, and
    r_min = 0 runs to the cap.
    """
    x0 = start_point(cfg, model)
    if model.law is not None:
        return analytic_reference(cfg.functional, f, _kernel_law(model, x0, tgrid.T)), 0.0
    cap = cfg.control_factor * cfg.M * cfg.num_batches
    if cap < 2:
        raise StatisticsError(
            f"control_factor * M * num_batches = {cap}: a control run needs at least "
            "2 samples for a standard error"
        )
    twin = model.twin

    def values(lo: int, hi: int) -> np.ndarray:
        """f(X), less f(X_twin) when there is a twin, for samples [lo, hi)."""
        out = np.asarray(f(_simulate(cfg, model, tgrid, hi - lo, _CONTROL, lo)), dtype=float)
        if twin is not None:
            out -= f(_simulate(cfg, twin, tgrid, hi - lo, _CONTROL, lo))
        return out

    n = min(_CHUNK, cap)
    vals = values(0, n)
    se = float(vals.std(ddof=1) / math.sqrt(n))
    while n < cap and se >= r_min / 10.0:
        n = min(2 * n, cap)
        vals = np.concatenate([vals, values(vals.size, n)])
        se = float(vals.std(ddof=1) / math.sqrt(n))
    if r_min > 0 and se >= r_min / 10.0:
        raise StatisticsError(
            f"control-run standard error {se:.3e} >= r_min/10 = {r_min / 10:.3e}"
        )
    ref = vals.mean()
    if twin is not None:
        ref += analytic_reference(cfg.functional, f, _kernel_law(twin, x0, tgrid.T))
    return float(ref), se


def run_concentration_experiment(cfg: ExperimentConfig) -> dict:
    """Batch deviation frequencies against the theoretical tail bound: the
    report of concentration.json.  bound_curve holds (r, bound) pairs and
    lower_empirical (r, threshold, freq) where power permits.  NumericError
    when a batch mean's deviation overflows."""
    model = build_model(cfg)
    tgrid = build_grid(cfg)
    f = make_functional(cfg, model)
    alpha, delta, constants = _bound_constants(cfg, model)
    r_grid = (
        np.asarray(cfg.r_grid, dtype=float)
        if cfg.r_grid is not None
        else _default_r_grid(cfg, alpha)
    )
    positive = r_grid[r_grid > 0]
    r_min = float(positive.min()) if positive.size else 0.0
    ref, se = reference_mean(cfg, model, tgrid, f, r_min)

    samples = _simulate(cfg, model, tgrid, cfg.M * cfg.num_batches)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(f(samples), dtype=float).reshape(cfg.num_batches, cfg.M)
        deviations = np.abs(vals.mean(axis=1) - ref)
    if not np.isfinite(deviations).all():
        raise NumericError("a batch mean of f or its deviation from the reference overflows")

    bound_curve, freq, wilson = [], [], []
    for r in r_grid:
        k = int(np.count_nonzero(deviations >= r + delta))
        bound_curve.append((float(r), conc.upper_tail_bound(float(r), cfg.M, alpha)))
        freq.append(k / cfg.num_batches)
        wilson.append(wilson_upper(k, cfg.num_batches))

    lower_curve = None
    lower_empirical = None
    if constants is not None:
        inv_rate = constants["bar_alpha_inv"]
        lower_curve = [
            (float(r), conc.lower_tail_bound(float(r), cfg.M, inv_rate, cfg.beta, cfg.rho0))
            for r in r_grid
            if r > 0
        ]
        # empirical validation only where the predicted probability is
        # resolvable at this batch count; elsewhere the formulas stand alone
        lower_empirical = []
        for r, bound in lower_curve:
            thr = r - constants["bar_delta"]
            if bound >= 1e-3 and thr > 0:
                lower_freq = float(np.count_nonzero(deviations >= thr)) / cfg.num_batches
                lower_empirical.append((r, thr, lower_freq))

    return {
        "case": model.case.value, "c": cfg.c, "C": cfg.C, "T": cfg.T, "M": cfg.M,
        "num_batches": cfg.num_batches, "alpha_T": alpha, "delta_bias": delta,
        "reference_mean": ref, "reference_se": se, "bound_curve": bound_curve,
        "empirical_freq": freq, "wilson_upper": wilson, "lower_curve": lower_curve,
        "lower_empirical": lower_empirical, "constants": constants,
    }


def run_density_check(cfg: ExperimentConfig) -> dict:
    """Envelope ratios of the sampled (or composed) terminal density: the
    report of density_check.json, with sup_ratio and inf_ratio at the
    configured (c, C).

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
    gauss = GaussParams(cfg.c, cfg.C)
    # the fitted shapes, then the configured one; each pairs p_c with p_{1/c}
    fitted = np.geomspace(0.25, 4.0, 241) if cfg.c_grid is None else cfg.c_grid
    shapes = np.append(fitted, gauss.c)
    bad = [c for c in shapes.tolist() if not (c > 0 and math.isfinite(1.0 / c))]
    if bad:
        raise ConfigError(f"envelope shapes need c > 0 and a finite 1/c, got {bad}")

    if cfg.density_mode == "ck":
        grid = _table_grid(cfg, model, tgrid, float(x0[0]))
        table = chapman_kolmogorov_density(model, tgrid, float(x0[0]), grid)
        mask = table.values > 1e-10
        centers = grid.points[mask][:, None]
        dens = table.values[mask]
        n = 0
    elif cfg.density_mode == "hist":
        # Scott-rule bin widths need a sample standard deviation
        if cfg.density_samples < 2:
            raise ConfigError(f"density_samples must be >= 2, got {cfg.density_samples}")
        if cfg.min_bin_count < 1:  # empty bins would enter the fit as zero densities
            raise ConfigError(f"min_bin_count must be >= 1, got {cfg.min_bin_count}")
        if not 0.0 <= cfg.high_mass_fraction <= 1.0:
            raise ConfigError(f"high_mass_fraction must be in [0, 1], got {cfg.high_mass_fraction}")
        s = _simulate(cfg, model, tgrid, cfg.density_samples)
        n = s.shape[0]
        with np.errstate(over="ignore", invalid="ignore"):
            widths = 3.49 * s.std(axis=0, ddof=1) * n ** (-1.0 / (2 + model.d))
        lo, hi = s.min(axis=0), s.max(axis=0)
        if not (np.isfinite(widths) & (widths > 0) & (hi > lo)).all():
            raise NumericError(f"samples in [{lo}, {hi}] give Scott-rule bin widths {widths}")
        edges = [np.arange(lo[i], hi[i] + widths[i], widths[i]) for i in range(model.d)]
        counts, edges = np.histogramdd(s, bins=edges)
        vols = math.prod(float(w[1] - w[0]) for w in edges)
        centers_1d = [0.5 * (e[:-1] + e[1:]) for e in edges]
        mesh = np.stack(np.meshgrid(*centers_1d, indexing="ij"), axis=-1).reshape(-1, model.d)
        counts = counts.reshape(-1)
        threshold = max(cfg.min_bin_count, cfg.high_mass_fraction * counts.max())
        mask = counts >= threshold
        if int(mask.sum()) < 5:
            raise StatisticsError("fewer than 5 bins carry enough samples in the reported region")
        centers = mesh[mask]
        with np.errstate(over="ignore", divide="ignore"):  # out-of-range values are refused below
            dens = counts[mask] / (n * vols)
    else:
        raise ConfigError("density_mode must be 'hist' or 'ck'")

    if not ((dens >= np.finfo(float).tiny) & (dens < np.inf)).all():  # the domain of _log
        raise NumericError(f"densities in [{dens.min()}, {dens.max()}] leave the normal range")
    # p_c is log-linear in c: log p_c = -c q - log Z(1) + (d/2) log c, with
    # q = -kernel_exponent at c = 1.  So every log(dens / p_c) comes from one
    # (shapes x bins) pass of + * / max min; with the IEEE-only _log and libm's
    # scalar log and exp, no numpy dispatch tier moves a bit of the fit
    log_dens = _log(dens)
    q = -kernel_exponent(KernelSpec(model.case, 1.0, cfg.T, x0), centers)
    log_z1 = math.log(kernel_normalizer(model.case, 1.0, cfg.T, model.d))
    half_log = np.array([0.5 * model.d * math.log(c) for c in shapes.tolist()])
    log_sup = (log_dens + shapes[:, None] * q).max(axis=1) + (log_z1 - half_log)
    log_inf = (log_dens + q / shapes[:, None]).min(axis=1) + (log_z1 + half_log)
    log_req = np.maximum(np.maximum(log_sup, -log_inf), 0.0)
    best = int(np.argmin(log_req[:-1]))
    logs = [float(log_req[best]), float(log_sup[-1]), float(log_inf[-1])]
    try:
        C_fit, sup_ratio, inf_ratio = map(math.exp, logs)
    except OverflowError:
        raise NumericError(f"log C_fit, sup_ratio and inf_ratio {logs}: an exp overflows") from None
    holds = sup_ratio <= cfg.C and inf_ratio >= 1.0 / cfg.C
    return {
        "mode": cfg.density_mode, "case": model.case.value, "d": model.d, "T": cfg.T,
        "n_samples": n, "n_reported": dens.size, "c_fit": float(shapes[best]),
        "C_fit": C_fit, "sup_ratio": sup_ratio, "inf_ratio": inf_ratio,
        "envelope_holds": bool(holds),
    }


def run_bound_table(cfg: ExperimentConfig) -> dict:
    """All concentration constants plus confidence radii for an eps list."""
    model = build_model(cfg)
    make_functional(cfg, model)  # refuses an unknown preset
    alpha, delta, constants = _bound_constants(cfg, model)
    rows = []
    for eps in cfg.eps:
        radius = conc.confidence_radius(eps, cfg.M, alpha)
        rows.append({"eps": eps, "radius": radius, "total_radius": radius + delta})
    return {
        "case": model.case.value,
        "c": cfg.c,
        "C": cfg.C,
        "T": cfg.T,
        "M": cfg.M,
        "alpha_T": alpha,
        "delta_bias": delta,
        "radii": rows,
        "constants": constants,
    }


# ---------------------------------------------------------------------------
# Output writers.  No timestamps; 17 significant digits; config hash first.


# rows per formatted block and write: larger blocks are faster but raise the
# peak RSS of `simulate --set M=250000` (41.1 MB at 4096 rows, 43.0 at 8192,
# 40.5 at 2048 and at 1024)
_CSV_BLOCK = 1 << 11


def _block(col, lo: int, hi: int) -> np.ndarray:
    """Rows lo to hi - 1 of a column as an array; a range column becomes an
    array a block at a time, never whole."""
    part = col[lo:hi]
    return np.arange(part.start, part.stop, part.step) if isinstance(part, range) else part


def write_csv(path, header: list[str], columns, config_hash: str | None = None) -> None:
    """The one CSV writer: integer columns bare, float columns with 17 digits.

    A column is an array, a sequence or a range (printed as integers).  Each
    full block of rows is formatted by `csvtext.format_rows`; the last,
    partial block is one `%` of the row format repeated over its .tolist()
    values, interleaved row by row, so a table shorter than one block never
    loads that module.  The bytes are those of `%d` and `%.17g` either way.
    """
    columns = [col if isinstance(col, range) else np.asarray(col) for col in columns]
    ints = [isinstance(col, range) or col.dtype.kind in "iu" for col in columns]
    row = ",".join("%d" if is_int else "%.17g" for is_int in ints) + "\n"
    rows = len(columns[0])
    full = rows - rows % _CSV_BLOCK
    with open(path, "wb") as fh:
        if config_hash is not None:
            fh.write(f"# config-hash: {config_hash}\n".encode())
        fh.write((",".join(header) + "\n").encode())
        if full:
            from .csvtext import format_rows

            for lo in range(0, full, _CSV_BLOCK):
                fh.write(format_rows([_block(col, lo, lo + _CSV_BLOCK) for col in columns], ints))
        tail = [_block(col, full, rows).tolist() for col in columns]
        fh.write((row * (rows - full) % tuple(chain.from_iterable(zip(*tail)))).encode())


def export_csv(samples: np.ndarray):
    """The (header, columns) table of `sample_index, x_1, ..., x_d` rows."""
    header = ["sample_index"] + [f"x_{k + 1}" for k in range(samples.shape[1])]
    return header, [range(samples.shape[0]), *samples.T]


def json_text(name: str, obj: dict, config_hash: str) -> str:
    """The strict JSON text of report `name`, with its config hash: a NaN
    or infinity raises NumericError."""
    try:
        payload = {**obj, "config_hash": config_hash}
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"{name}: {exc}") from None


def write_json(path, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text + "\n")


# ---------------------------------------------------------------------------
# The command table.  A runner returns its command's files as {file name:
# payload}: a dict is a JSON report, a (header, columns) pair a CSV table,
# and an array the raw little-endian float64 bytes of samples.bin.


def _simulate_files(cfg: ExperimentConfig) -> dict:
    samples = _simulate(cfg, build_model(cfg), build_grid(cfg), cfg.M)
    files = {"samples.csv": export_csv(samples)}
    if cfg.export_binary:  # row major, M x d
        files["samples.bin"] = samples
    return files


def _bounds_files(cfg: ExperimentConfig) -> dict:
    table = run_bound_table(cfg)
    header = ["eps", "radius", "total_radius"]
    return {
        "bounds.json": table,
        "bounds.csv": (header, [[row[key] for row in table["radii"]] for key in header]),
    }


def _concentration_files(cfg: ExperimentConfig) -> dict:
    report = run_concentration_experiment(cfg)
    r, bound = np.array(report["bound_curve"], dtype=float).reshape(-1, 2).T
    columns = [r, report["empirical_freq"], bound, report["wilson_upper"]]
    return {
        "concentration.csv": (["r", "empirical_freq", "bound", "wilson_upper"], columns),
        "concentration.json": report,
    }


def _parametrix_files(cfg: ExperimentConfig) -> dict:
    model = build_model(cfg)
    tgrid = build_grid(cfg)
    x0 = float(start_point(cfg, model)[0])
    grid = _table_grid(cfg, model, tgrid, x0)
    check_r_max(cfg.r_max, tgrid)
    # the cheap CK oracle holds the mass-truncation guard, so it runs first
    ck = chapman_kolmogorov_density(model, tgrid, x0, grid)
    series, norms, _ = parametrix_series(model, tgrid, x0, grid, cfg.r_max)
    scale = float(np.max(np.abs(ck.values)))
    ratios, growing = term_decay(norms)
    report = {
        "r_max": cfg.r_max,
        "term_sup_norms": norms,
        "term_decay_ratios": ratios,
        "terms_decay": not growing,
        "sup_rel_error_vs_ck": float(np.max(np.abs(series.values - ck.values))) / scale,
        "series_mass": series.mass(),
        "ck_mass": ck.mass(),
        "grid": {"lo": grid.lo, "hi": grid.hi, "n_points": grid.n_points},
    }
    return {"parametrix_series.csv": series.to_csv(), "parametrix.json": report}


def _control_files(cfg: ExperimentConfig) -> dict:
    x = np.asarray(cfg.control_x, dtype=float)
    xp = np.asarray(cfg.control_x_prime, dtype=float)
    if x.size == 0 or x.size % 2 != 0 or x.size != xp.size:
        raise ConfigError("control endpoints need matching, nonzero even dimensions")
    problem = ControlProblem(t=cfg.control_t, x=x, x_prime=xp, d_prime=x.size // 2)
    # an overflow, or a division by a control_t that underflows, leaves an
    # infinity or a NaN in the report, which json_text refuses
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        times, states = geodesic(problem, cfg.geodesic_steps)
        report = {
            "energy": energy(problem),
            "kinetic_metric_sq": float(kinetic_metric(cfg.control_t, x, xp, x.size // 2)),
            "endpoint_error": float(np.linalg.norm(states[-1] - xp)),
        }
    header = ["s"] + [f"state_{k + 1}" for k in range(states.shape[1])]
    return {"geodesic.csv": (header, [times, *states.T]), "control.json": report}


COMMANDS = {
    "simulate": _simulate_files,
    "bounds": _bounds_files,
    "concentration": _concentration_files,
    "density-check": lambda cfg: {"density_check.json": run_density_check(cfg)},
    "parametrix": _parametrix_files,
    "control-geodesic": _control_files,
}


class _Recording(ExperimentConfig):
    """A config that adds the name of each field read from it to self.reads."""

    def __getattribute__(self, name):
        if name in ExperimentConfig.__dataclass_fields__:
            object.__getattribute__(self, "reads").add(name)
        return object.__getattribute__(self, name)


def config_hash(cfg: ExperimentConfig, names) -> str:
    """The first 12 hex digits of the SHA-256 of the fields `names`, as the
    loader stores them.  An x0 or b0 whose entries are all equal counts as
    its first entry, the list it broadcasts like."""
    values = {}
    for name in names:
        value = getattr(cfg, name)
        if name in ("x0", "b0") and value and value.count(value[0]) == len(value):
            value = value[0]
        values[name] = value
    blob = json.dumps(values, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def run_command(command: str, cfg: ExperimentConfig) -> None:
    """Run `command` and write its files into cfg.out_dir under the hash of
    the fields the run read, less out_dir and threads.  Every JSON report is
    encoded before any file opens, so a run that fails writes nothing; a
    file that cannot be written removes itself, if a write cut it short, and
    the ones written before it."""
    rec = _Recording(**vars(cfg))
    rec.reads = set()
    files = COMMANDS[command](rec)
    digest = config_hash(cfg, rec.reads - {"out_dir", "threads"})
    texts = {
        name: json_text(name, obj, digest) for name, obj in files.items() if isinstance(obj, dict)
    }
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {cfg.out_dir}: {exc}") from None
    written = []
    for name, payload in files.items():
        path = os.path.join(cfg.out_dir, name)
        try:
            if name in texts:
                write_json(path, texts[name])
            elif isinstance(payload, tuple):
                write_csv(path, *payload, digest)
            else:
                payload.astype("<f8", copy=False).tofile(path)
        except OSError as exc:
            # an error without a file name came after the open (a full disk,
            # say), so the file is there, cut short
            for done in written if exc.filename else [*written, path]:
                os.remove(done)
            raise ConfigError(f"cannot write {path}: {exc}") from None
        written.append(path)

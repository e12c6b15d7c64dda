"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Each criterion runs at its stated tolerance and, where one is stated, within
its runtime budget.  Lines are written past pytest's capture so they always
appear in the run log.
"""

import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
from scipy.integrate import quad

from eulermc import concentration as conc
from eulermc.cli import main as cli_main
from eulermc.control import ControlProblem, energy, geodesic
from eulermc.gaussianref import (
    KernelSpec,
    hessian_spectral_bounds,
    kernel_density,
    kernel_mean_cov,
    kinetic_metric,
)
from eulermc.harness import ExperimentConfig, run_concentration_experiment, run_density_check
from eulermc.model import Case, GrowthSpec, SchemeGrid, model_preset
from eulermc.parametrix import chapman_kolmogorov_density, default_grid, parametrix_series
from eulermc.simulate import kinetic_step
from oracles import radial_tail, semigroup_residual, tensor_quad_2d


REPORT_LINES: list[str] = []


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" ({detail})"
    REPORT_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def test_criterion_01_kinetic_one_step_covariance(numpy_normals):
    t0 = time.perf_counter()
    m = model_preset("kinetic", dp=1)
    n = 100_000
    draws = numpy_normals(20260808, (n, 2))
    out = kinetic_step(m, 0.0, np.zeros((n, 2)), 1.0, draws)
    cov = np.cov(out.T)
    want = np.array([[1.0, 0.5], [0.5, 1.0 / 3.0]])
    ok = True
    worst = 0.0
    for i in range(2):
        for j in range(2):
            se = math.sqrt((want[i, i] * want[j, j] + want[i, j] ** 2) / n)
            dev = abs(cov[i, j] - want[i, j]) / se
            worst = max(worst, dev)
            ok = ok and dev < 3.0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _report(1, "kinetic one-step covariance within 3 SE",
            ok, f"worst dev {worst:.2f} SE, {elapsed:.2f}s < 5s")


def test_criterion_02_kernel_normalization_and_semigroup():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)

    # normalization: case (a) d = 1, 2 and case (b) d = 2, to 1e-6
    norm_worst = 0.0
    for c, t, x in [(1.0, 1.0, 0.3), (0.7, 2.0, -1.2)]:
        s = KernelSpec(Case.NONDEGENERATE, c, t, np.array([x]))
        val, _ = quad(lambda u: float(kernel_density(s, np.array([u]))), x - 50, x + 50)
        norm_worst = max(norm_worst, abs(val - 1.0))
    for case, c, t, x in [
        (Case.NONDEGENERATE, 1.0, 1.0, np.array([0.1, -0.4])),
        (Case.NONDEGENERATE, 0.6, 1.7, np.array([0.0, 0.0])),
        (Case.KINETIC, 1.0, 1.0, np.array([0.2, -0.3])),
        (Case.KINETIC, 2.0, 0.8, np.array([0.0, 0.5])),
    ]:
        s = KernelSpec(case, c, t, x)
        mean, cov = kernel_mean_cov(s)
        w0, w1 = 11 * math.sqrt(cov[0, 0]), 11 * math.sqrt(cov[1, 1])
        val = tensor_quad_2d(
            lambda pts: kernel_density(s, pts),
            [(mean[0] - w0, mean[0] + w0), (mean[1] - w1, mean[1] + w1)],
            n_per_dim=240,
        )
        norm_worst = max(norm_worst, abs(val - 1.0))

    # semigroup residual at 20 random (s, t, x, x')
    resid_worst = 0.0
    for k in range(20):
        t = float(rng.uniform(0.3, 2.0))
        split = float(rng.uniform(0.05, 0.95)) * t
        c = float(rng.uniform(0.5, 2.0))
        if k < 8:
            case, d = Case.NONDEGENERATE, 1
        elif k < 14:
            case, d = Case.NONDEGENERATE, 2
        else:
            case, d = Case.KINETIC, 2
        x = rng.standard_normal(d)
        xp = x + rng.standard_normal(d) * math.sqrt(t)
        s = KernelSpec(case, c, t, x)
        resid_worst = max(resid_worst, semigroup_residual(s, split, x, xp))

    elapsed = time.perf_counter() - t0
    ok = norm_worst < 1e-6 and resid_worst < 1e-5 and elapsed < 30.0
    _report(2, "kernel normalization 1e-6 and semigroup residual 1e-5",
            ok, f"norm {norm_worst:.1e}, resid {resid_worst:.1e}, {elapsed:.1f}s < 30s")


def test_criterion_03_eigenvalue_identities():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        c = float(rng.uniform(0.1, 5.0))
        T = float(rng.uniform(0.05, 10.0))
        h = np.array([[2 * c / T, -3 * c / T**2], [-3 * c / T**2, 6 * c / T**3]])
        lam_min = float(np.linalg.eigvalsh(h)[0])
        alpha = conc.concentration_alpha(Case.KINETIC, c, T)
        worst = max(worst, abs(alpha - 2.0 / lam_min) / (2.0 / lam_min))
    lo, _ = hessian_spectral_bounds(Case.KINETIC, 1.0, 1.0)
    gap = abs(lo - (4.0 - math.sqrt(13.0)))
    ok = worst < 1e-12 and gap < 1e-12
    _report(3, "alpha = 2/lambda_min to 1e-12; lambda_min(1,1) = 4 - sqrt(13)",
            ok, f"worst rel {worst:.1e}, unit gap {gap:.1e}")


def test_criterion_04_radial_tails():
    worst = 0.0
    for d in range(1, 9):
        for x in (0.5, 1.0, 2.0, 4.0):
            oracle, _ = quad(
                lambda r: r ** (d - 1) * math.exp(-r * r / 2.0),
                x, x + 60.0, epsabs=1e-13, epsrel=1e-13, limit=400,
            )
            worst = max(worst, abs(radial_tail(d, x) - oracle))
    ok = worst < 1e-10
    _report(4, "radial tail closed forms match quadrature to 1e-10",
            ok, f"worst abs {worst:.1e}")


def test_criterion_05_control_identity():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        dp = int(rng.integers(1, 3))
        t = float(rng.uniform(0.05, 4.0))
        x = rng.standard_normal(2 * dp) * 2
        xp = rng.standard_normal(2 * dp) * 2
        want = 2.0 * float(kinetic_metric(t, x, xp, dp))
        gap = abs(energy(ControlProblem(t, x, xp, dp)) - want)
        worst = max(worst, gap / max(1.0, want))
    endpoint_ok = True
    for _ in range(25):
        pr = ControlProblem(
            float(rng.uniform(0.2, 2.0)), rng.standard_normal(2), rng.standard_normal(2), 1
        )
        _, states = geodesic(pr, 200)
        err = np.linalg.norm(states[-1] - pr.x_prime)
        endpoint_ok = endpoint_ok and err < 1e-6 * (1 + np.linalg.norm(pr.x_prime))
    z = 1.3
    vertical = energy(ControlProblem(1.0, np.zeros(2), np.array([0.0, z]), 1))
    vertical_ok = abs(vertical - 12 * z * z) < 1e-9
    ok = worst < 1e-9 and endpoint_ok and vertical_ok
    _report(5, "energy = 2 d_t^2 to 1e-9, geodesic endpoints, 12 z^2 case",
            ok, f"worst rel {worst:.1e}")


def test_criterion_06_parametrix():
    t0 = time.perf_counter()
    const = model_preset("const", d=1, b0=0.0, sigma0=1.0)
    tg = SchemeGrid(T=1.0, N=10)
    grid_c = default_grid(const, tg, 0.0, 600, 10.0)
    table, _, _ = parametrix_series(const, tg, 0.0, grid_c, r_max=3)
    exact = np.exp(-grid_c.points**2 / 2) / math.sqrt(2 * math.pi)
    const_err = float(np.max(np.abs(table.values - exact)))

    trig = model_preset("trig", a_amp=0.1)
    grid_t = default_grid(trig, tg, 0.0, 600, 10.0)
    series, norms, _ = parametrix_series(trig, tg, 0.0, grid_t, r_max=3)
    ck = chapman_kolmogorov_density(trig, tg, 0.0, grid_t)
    rel = float(np.max(np.abs(series.values - ck.values))) / float(np.max(ck.values))
    decaying = norms[2] < norms[1] and norms[3] < norms[2]
    elapsed = time.perf_counter() - t0
    ok = const_err < 1e-8 and rel < 1e-2 and decaying and elapsed < 120.0
    _report(6, "parametrix: exact Gaussian 1e-8; vs CK 1e-2 with decaying terms",
            ok, f"const {const_err:.1e}, rel {rel:.1e}, {elapsed:.1f}s < 120s")


def test_criterion_07_concentration_inequality_empirical():
    t0 = time.perf_counter()
    cfg = ExperimentConfig.from_dict({
        "preset": "const", "d": 1, "b0": 0.0, "sigma0": 1.0,
        "c": 1.0, "C": 1.0, "M": 100, "num_batches": 2000,
        "T": 1.0, "N": 8, "num_r": 20, "master_seed": 20260808,
    })
    rep = run_concentration_experiment(cfg)
    freq_ok = all(
        fq <= b for (_, b), fq in zip(rep["bound_curve"], rep["empirical_freq"])
    )
    wilson_ok = all(
        w <= b for (_, b), w in zip(rep["bound_curve"], rep["wilson_upper"])
    )
    elapsed = time.perf_counter() - t0
    ok = freq_ok and wilson_ok and len(rep["bound_curve"]) == 20 and elapsed < 60.0
    _report(7, "empirical tail frequency (with Wilson 99%) under the bound at 20 radii",
            ok, f"{elapsed:.1f}s < 60s")


def test_criterion_08_envelope_fit_exact_case():
    cfg = ExperimentConfig.from_dict({
        "preset": "const", "d": 1, "b0": 0.0, "sigma0": 1.0,
        "c": 1.0, "C": 1.05, "T": 1.0, "N": 4,
        "density_samples": 1_000_000, "master_seed": 20260808,
    })
    rep = run_density_check(cfg)
    ok = rep["C_fit"] <= 1.05 and 0.95 <= rep["c_fit"] <= 1.05
    _report(8, "envelope fit on the exact case: C <= 1.05, c in [0.95, 1.05]",
            ok, f"c_fit {rep['c_fit']:.4f}, C_fit {rep['C_fit']:.4f}")


def test_criterion_09_determinism_across_threads(tmp_path):
    payload = {
        "preset": "const", "d": 1, "b0": 0.0, "sigma0": 1.0,
        "c": 1.0, "C": 1.0, "M": 60, "num_batches": 300,
        "T": 1.0, "N": 4, "master_seed": 31415,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(payload))
    out1, out8 = str(tmp_path / "t1"), str(tmp_path / "t8")
    rc1 = cli_main(["concentration", "--config", str(cfg_path), "--out-dir", out1, "--threads", "1"])
    rc8 = cli_main(["concentration", "--config", str(cfg_path), "--out-dir", out8, "--threads", "8"])
    ok = rc1 == 0 and rc8 == 0
    for name in ("concentration.csv", "concentration.json"):
        h1 = hashlib.sha256(Path(out1, name).read_bytes()).hexdigest()
        h8 = hashlib.sha256(Path(out8, name).read_bytes()).hexdigest()
        ok = ok and h1 == h8
    _report(9, "identical output files at --threads 1 and --threads 8", ok)


def test_criterion_10_constant_assembly():
    # d = 2, C = 1, rho0 = beta = 1 on the full circle |A| = 2 pi, from 0
    growth = GrowthSpec(1.0, 1.0, 2 * math.pi)

    def lower(c, T):
        alpha = conc.concentration_alpha(Case.NONDEGENERATE, c, T)
        return conc.lower_constants(
            Case.NONDEGENERATE, 2, c, 1.0, T, alpha, np.zeros(2), growth, 1.0, None
        )

    k, k2 = lower(1.0, 1.0), lower(2.0, 0.5)
    delta = conc.domination_bias(1.0, conc.concentration_alpha(Case.NONDEGENERATE, 1.0, 1.0))
    ok = (
        k["chi"] == 0.0
        and k["bar_alpha_inv"] == 0.5  # c^{-1}/(2T) at c = T = 1, exactly
        and k2["bar_alpha_inv"] == 0.5  # (1/2)/(2 * 0.5), exactly in floats
        and delta == 0.0
    )
    _report(10, "chi = 0, 1/alpha_lower = c^{-1}/(2T), delta = 0 at C = 1", ok)

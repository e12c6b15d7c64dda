import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from eulermc.errors import ConfigError, NumericError
from eulermc.gaussianref import (
    KernelSpec,
    hessian_spectral_bounds,
    kernel_density,
    kernel_exponent,
    kernel_norm_mean,
    kernel_normalizer,
    kinetic_metric,
)
from eulermc.model import Case, model_preset
from eulermc.simulate import scheme_step
from oracles import (
    cone_constant, folded_normal_mean, kernel_mean_cov, kinetic_lambda_min, radial_tail,
    semigroup_residual, tensor_quad_2d,
)


def spec_a(c=1.0, t=1.0, x=(0.0,)):
    return KernelSpec(Case.NONDEGENERATE, c, t, np.asarray(x, dtype=float))


def spec_b(c=1.0, t=1.0, x=(0.0, 0.0)):
    return KernelSpec(Case.KINETIC, c, t, np.asarray(x, dtype=float))


def test_mode_value_standard_normal():
    assert float(kernel_density(spec_a(), np.array([0.0]))) == pytest.approx(
        1.0 / math.sqrt(2 * math.pi), rel=1e-12
    )


def test_normalization_1d_quadrature():
    for c, t, x in [(1.0, 1.0, 0.3), (0.5, 2.0, -1.0), (3.0, 0.2, 0.0)]:
        s = spec_a(c, t, (x,))
        val, _ = quad(lambda u: float(kernel_density(s, np.array([u]))), x - 40, x + 40)
        assert val == pytest.approx(1.0, abs=1e-8)


def test_normalization_2d_case_a():
    s = KernelSpec(Case.NONDEGENERATE, 0.8, 1.3, np.array([0.2, -0.4]))
    width = 12 * math.sqrt(1.3 / 0.8)
    val = tensor_quad_2d(
        lambda pts: kernel_density(s, pts),
        [(0.2 - width, 0.2 + width), (-0.4 - width, -0.4 + width)],
        n_per_dim=220,
    )
    assert val == pytest.approx(1.0, abs=1e-6)


def test_normalization_2d_kinetic():
    # iterated Gaussian integrals give exactly 1 for the kinetic kernel
    for c, t in [(1.0, 1.0), (2.0, 0.7), (0.5, 1.6)]:
        s = spec_b(c, t, (0.1, -0.2))
        mean, cov = kernel_mean_cov(s)
        w0, w1 = 11 * math.sqrt(cov[0, 0]), 11 * math.sqrt(cov[1, 1])
        val = tensor_quad_2d(
            lambda pts: kernel_density(s, pts),
            [(mean[0] - w0, mean[0] + w0), (mean[1] - w1, mean[1] + w1)],
            n_per_dim=240,
        )
        assert val == pytest.approx(1.0, abs=1e-6)


def test_kernel_positive():
    s = spec_b()
    pts = np.random.default_rng(0).standard_normal((50, 2)) * 3
    assert np.all(kernel_density(s, pts) > 0)


def test_semigroup_1d():
    # Gaussian convolution identity: variances add, so the residual is tiny
    s = spec_a(c=1.3, t=1.0, x=(0.4,))
    assert semigroup_residual(s, 0.5, np.array([0.4]), np.array([1.1])) < 1e-8
    assert semigroup_residual(s, 0.01, np.array([0.4]), np.array([1.1])) < 1e-8


def test_semigroup_2d_case_a():
    s = KernelSpec(Case.NONDEGENERATE, 0.9, 1.4, np.array([0.0, 0.5]))
    r = semigroup_residual(s, 0.6, np.array([0.0, 0.5]), np.array([0.7, -0.3]))
    assert r < 1e-5


def test_semigroup_2d_kinetic():
    s = spec_b(c=1.0, t=1.0)
    r = semigroup_residual(s, 0.35, np.array([0.2, -0.1]), np.array([-0.4, 0.6]))
    assert r < 1e-5
    r_edge = semigroup_residual(s, 0.01, np.array([0.2, -0.1]), np.array([0.1, 0.0]))
    assert r_edge < 1e-5


def test_semigroup_rejects_bad_split():
    with pytest.raises(ConfigError):
        semigroup_residual(spec_a(), 1.5, np.array([0.0]), np.array([0.0]))


def test_kinetic_metric_values():
    assert kinetic_metric(1.0, [0.0, 0.0], [0.0, 0.0], 1) == 0.0
    # x = (0, 0) -> x' = (0, z): only the position term, 6 z^2
    assert kinetic_metric(1.0, [0.0, 0.0], [0.0, 2.0], 1) == pytest.approx(24.0)
    # free transport is at zero distance
    for t in (0.3, 1.0, 2.5):
        assert kinetic_metric(t, [1.7, 0.0], [1.7, 1.7 * t], 1) == pytest.approx(
            0.0, abs=1e-12
        )


def test_kinetic_exponent_matches_metric():
    # exponent of the kinetic kernel = -(c/2) * d_t^2 exactly
    rng = np.random.default_rng(3)
    for _ in range(100):
        c = float(rng.uniform(0.2, 3.0))
        t = float(rng.uniform(0.1, 4.0))
        x = rng.standard_normal(2)
        xp = rng.standard_normal(2)
        s = KernelSpec(Case.KINETIC, c, t, x)
        expo = float(kernel_exponent(s, xp))
        metric = float(kinetic_metric(t, x, xp, 1))
        assert expo == pytest.approx(-0.5 * c * metric, rel=1e-12, abs=1e-14)


# The potential of p_c is V = -kernel_exponent, with p_c = Z^{-1} e^{-V}.


def test_potential_at_base_point():
    # V vanishes at the free-transport image of the start point
    s = KernelSpec(Case.KINETIC, 1.0, 1.0, np.array([0.3, -0.7]))
    assert float(kernel_exponent(s, np.array([0.3, -0.7 + 0.3]))) == pytest.approx(0.0, abs=1e-14)


def test_potential_nondegenerate_case():
    s = KernelSpec(Case.NONDEGENERATE, 2.0, 0.5, np.array([1.0]))
    v = -float(kernel_exponent(s, np.array([1.6])))
    assert v == pytest.approx(2.0 * 0.36 / (2 * 0.5), rel=1e-14)


def test_potential_hessian_block():
    # V is quadratic, so central second differences give its Hessian exactly
    s = KernelSpec(Case.KINETIC, 1.0, 1.0, np.zeros(2))
    x0, eps = np.array([0.5, 0.5]), 0.25
    e = np.eye(2) * eps
    hess = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            vals = [
                -float(kernel_exponent(s, x0 + si * e[i] + sj * e[j]))
                for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1))
            ]
            hess[i, j] = (vals[0] - vals[1] - vals[2] + vals[3]) / (4 * eps * eps)
    assert np.allclose(hess, np.array([[2.0, -3.0], [-3.0, 6.0]]), atol=1e-12)


def test_hessian_bounds_kinetic_unit():
    lo, hi = hessian_spectral_bounds(Case.KINETIC, 1.0, 1.0)
    assert lo == pytest.approx(4.0 - math.sqrt(13.0), abs=1e-12)
    assert hi == pytest.approx(4.0 + math.sqrt(13.0), abs=1e-12)


def test_hessian_bounds_case_a():
    assert hessian_spectral_bounds(Case.NONDEGENERATE, 3.0, 2.0) == (1.5, 1.5)


def test_hessian_bounds_match_eigensolver():
    rng = np.random.default_rng(11)
    for _ in range(100):
        c = float(rng.uniform(0.1, 5.0))
        T = float(rng.uniform(0.05, 10.0))
        h = np.array([[2 * c / T, -3 * c / T**2], [-3 * c / T**2, 6 * c / T**3]])
        eig = np.linalg.eigvalsh(h)
        lo, hi = hessian_spectral_bounds(Case.KINETIC, c, T)
        assert lo == pytest.approx(eig[0], rel=1e-12, abs=1e-12 * abs(eig[1]))
        assert hi == pytest.approx(eig[1], rel=1e-12)


def test_hessian_min_positive_on_log_grid():
    for T in np.geomspace(1e-3, 1e3, 61):
        lo, _ = hessian_spectral_bounds(Case.KINETIC, 1.0, float(T))
        assert lo > 0


def test_hessian_min_matches_decimal_oracle_at_large_horizons():
    # c/T + 3c/T^3 (1 - root) read 8.6e-9 off at T = 1e4, 10% off at 1e8
    # and 0 at 1e20
    for c in (0.37, 1.0, 2.5):
        for T in np.geomspace(1e-3, 1e20, 47):
            lo, _ = hessian_spectral_bounds(Case.KINETIC, c, float(T))
            want = kinetic_lambda_min(c, float(T))
            assert abs(lo - want) <= 1e-15 * want, (c, T)


def test_hessian_bounds_refuse_a_kinetic_horizon_past_the_float_range():
    # T^4 overflows at T = 1e200; 3c/(T (T^2 + 3 + 3 root)) underflows to 0
    # at c = 1e-300, T = 1e20
    for c, T, match in ((1.0, 1e200, "overflows"), (1e-300, 1e20, "underflows")):
        with pytest.raises(NumericError, match=match):
            hessian_spectral_bounds(Case.KINETIC, c, T)


def test_radial_tail_small_cases():
    assert radial_tail(2, 1.0) == pytest.approx(math.exp(-0.5), rel=1e-14)
    # M(4, x) = x^2 + 2
    assert radial_tail(4, 1.0) == pytest.approx(3 * math.exp(-0.5), rel=1e-14)
    # d = 1 is the plain Gaussian upper tail
    assert radial_tail(1, 0.7) == pytest.approx(
        math.sqrt(2 * math.pi) * norm.sf(0.7), rel=1e-12
    )


def test_radial_tail_matches_quadrature():
    for d in range(1, 9):
        for x in (0.5, 1.0, 2.0, 4.0):
            oracle, err = quad(
                lambda r: r ** (d - 1) * math.exp(-r * r / 2.0),
                x,
                x + 50.0,
                epsabs=1e-13,
                epsrel=1e-13,
                limit=300,
            )
            assert err < 1e-11
            assert radial_tail(d, x) == pytest.approx(oracle, abs=1e-10)


def test_norm_mean_builds_no_covariance_matrix():
    # the kernel's covariance is one block per coordinate or pair; a d x d
    # matrix at d = 4096 would take 128 MiB to read three numbers
    for spec in (spec_a(x=np.zeros(4096)), spec_b(x=np.zeros(4096))):
        tracemalloc.start()
        try:
            kernel_norm_mean(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_cone_constant_values():
    # the tail constant K(d, A) of tests/oracles.py, the reference for chi
    assert cone_constant(2, 2 * math.pi) == pytest.approx(math.pi)
    assert cone_constant(3, 4 * math.pi) == pytest.approx(2 * math.sqrt(math.pi))
    assert cone_constant(4, 2 * math.pi**2) == pytest.approx(math.pi**2)
    # (d/2 - 1)! passes the float range at d = 344: a numeric error naming it
    assert math.isfinite(cone_constant(342, 1.0))
    with pytest.raises(NumericError, match=r"K\(d, A\) overflows at d = 344: \(d/2 - 1\)!"):
        cone_constant(344, 1.0)


def test_mean_cov_matches_samples(numpy_normals):
    # the kinetic p_c(t, x, .) is the law of one exact kinetic step of length
    # t from x with noise sqrt(2/c)
    s = spec_b(c=2.0, t=1.0)
    mean, cov = kernel_mean_cov(s)
    m = model_preset("kinetic", dp=1, sigma0=math.sqrt(2.0 / s.c))
    x = np.broadcast_to(s.x, (200_000, 2))
    draws = scheme_step(m, 0.0, x, s.t, numpy_normals(5, (200_000, 2)))
    assert np.allclose(draws.mean(axis=0), mean, atol=4e-3)
    assert np.allclose(np.cov(draws.T), cov, atol=6e-3)


def test_norm_mean_closed_forms():
    # spec_a(c, t, x) has covariance (t/c) I; d = 1 is the folded normal, and
    # d = 2 at the origin the Rayleigh mean sqrt(pi/2) sqrt(t/c)
    for c, t, x in ((1.0, 1.0, 0.0), (0.5, 2.0, 0.0), (0.5, 2.0, 0.7), (2.0, 1.0, -3.0)):
        want = folded_normal_mean(x, math.sqrt(t / c))
        assert kernel_norm_mean(spec_a(c, t, (x,))) == pytest.approx(want, rel=1e-12)
    for c, t in ((1.0, 1.0), (1 / 1.5, 2.0)):
        want = math.sqrt(math.pi / 2) * math.sqrt(t / c)
        assert kernel_norm_mean(spec_a(c, t, (0.0, 0.0))) == pytest.approx(want, rel=1e-12)


def test_norm_mean_at_extreme_scales():
    # the problem is scaled before the integral in log s, so a kernel far
    # wider or narrower than 1 keeps the same relative accuracy
    for c, x in ((1e-6, 1e3), (1e6, 1e3), (1e6, 0.0), (1e-300, 1e-200)):
        want = folded_normal_mean(x, math.sqrt(1.0 / c))
        assert kernel_norm_mean(spec_a(c, 1.0, (x,))) == pytest.approx(want, rel=1e-12)
    with pytest.raises(NumericError, match="finite, positive scale"):
        kernel_norm_mean(spec_a(1e-300, 1e300))


def test_norm_mean_kinetic_matches_sampling(numpy_normals):
    # the kinetic covariance has one 2x2 (v_k, z_k) block per coordinate
    s = spec_b(c=0.8, t=1.3, x=(0.3, -1.0, 0.5, 0.2))
    mean, cov = kernel_mean_cov(s)
    n = 1_000_000
    norms = np.linalg.norm(mean + numpy_normals(17, (n, 4)) @ np.linalg.cholesky(cov).T, axis=1)
    se = norms.std(ddof=1) / math.sqrt(n)
    assert abs(kernel_norm_mean(s) - norms.mean()) < 4 * se


def test_normalizer_closed_form():
    # prefactor of the kinetic kernel is (sqrt(3) c / 2 pi t^2)^{d/2}
    c, t = 1.7, 0.6
    z = kernel_normalizer(Case.KINETIC, c, t, 2)
    assert 1.0 / z == pytest.approx(math.sqrt(3.0) * c / (2 * math.pi * t * t))

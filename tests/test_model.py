import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eulermc.errors import ArgumentError, ConfigError, InvalidModelError
from eulermc.model import (
    Case,
    GaussParams,
    GrowthSpec,
    SchemeGrid,
    check_growth,
    model_preset,
    sample_rays,
    sphere_surface_measure,
    unit_directions,
    validate_assumptions,
)


def grid_points(model, n=25, span=3.0):
    xs = np.linspace(-span, span, n)
    if model.d == 1:
        pts = [(0.0, np.array([x])) for x in xs]
    else:
        pts = [(0.0, np.full(model.d, x)) for x in xs]
    pairs = [(t, x, x + 0.37) for (t, x) in pts]
    return pts, pairs


def test_identity_diffusion_passes():
    m = model_preset("const", d=2, b0=0.0, sigma0=1.0, lambda0=1.0)
    pts, pairs = grid_points(m)
    rep = validate_assumptions(m, pts, pairs)
    assert rep.passed
    assert rep.ratio_min == pytest.approx(1.0)
    assert rep.ratio_max == pytest.approx(1.0)


def test_scaled_diffusion_needs_larger_lambda0():
    # a = 4 I has quadratic form 4 in every direction
    tight = model_preset("const", d=2, sigma0=2.0, lambda0=1.0)
    pts, pairs = grid_points(tight)
    assert not validate_assumptions(tight, pts, pairs).uniformly_elliptic
    loose = model_preset("const", d=2, sigma0=2.0, lambda0=4.0)
    assert validate_assumptions(loose, pts, pairs).passed


def test_sine_drift_bound_detected_on_dense_samples():
    m = model_preset("trig", b_amp=1.0, a_amp=0.0, L0=0.5)
    xs = np.linspace(-math.pi, math.pi, 401)
    pts = [(0.0, np.array([x])) for x in xs]
    pairs = [(0.0, np.array([x]), np.array([x + 0.1])) for x in xs[:50]]
    rep = validate_assumptions(m, pts, pairs)
    assert rep.sup_drift == pytest.approx(1.0, abs=1e-3)
    assert not rep.drift_and_holder_bounded
    assert not rep.passed


def test_positive_definite_along_sampled_directions():
    m = model_preset("trig", a_amp=0.3)
    pts, pairs = grid_points(m)
    rep = validate_assumptions(m, pts, pairs, n_directions=150)
    assert rep.ratio_min > 0


def test_nonfinite_sigma_raises():
    def bad_sigma(t, x):
        out = np.ones(x.shape[:-1] + (1, 1))
        return out * np.nan

    from eulermc.model import SdeModel

    m = SdeModel(Case.NONDEGENERATE, 1, lambda t, x: np.zeros_like(x), bad_sigma, 1.0, 1.0, 1.0)
    with pytest.raises(InvalidModelError):
        validate_assumptions(m, [(0.0, np.array([0.0]))], [(0.0, np.array([0.0]), np.array([1.0]))])


def test_empty_samples_rejected():
    m = model_preset("const")
    with pytest.raises(ArgumentError):
        validate_assumptions(m, [], [])


def test_growth_of_norm_has_zero_margin():
    spec = GrowthSpec.full_sphere(2, rho0=1.0, beta=1.0)
    rays = sample_rays(spec, 2, [2.0, 5.0, 10.0], n_directions=16)
    res = check_growth(lambda y: float(np.linalg.norm(y)), spec, rays)
    assert res.ok
    assert res.margin == pytest.approx(0.0, abs=1e-12)


def test_constant_function_fails_growth():
    spec = GrowthSpec.full_sphere(2, rho0=1.0, beta=0.1)
    rays = sample_rays(spec, 2, [3.0], n_directions=8)
    res = check_growth(lambda y: 1.0, spec, rays)
    assert not res.ok
    assert res.margin < 0


def test_hinge_function_growth():
    # max(|y| - 1, 0) grows with unit slope beyond radius 1
    spec = GrowthSpec.full_sphere(1, rho0=2.0, beta=1.0)
    rays = sample_rays(spec, 1, [2.5, 4.0, 9.0])
    res = check_growth(lambda y: max(float(np.linalg.norm(y)) - 1.0, 0.0), spec, rays)
    assert res.ok
    assert res.margin == pytest.approx(0.0, abs=1e-12)


def test_growth_rejects_empty_rays():
    spec = GrowthSpec.full_sphere(2, rho0=1.0, beta=1.0)
    with pytest.raises(ArgumentError):
        check_growth(lambda y: 0.0, spec, [])


@settings(max_examples=50, deadline=None)
@given(
    rho0=st.floats(min_value=1e-3, max_value=50.0),
    radius_factor=st.floats(min_value=1.001, max_value=100.0),
    d=st.integers(min_value=1, max_value=4),
)
def test_norm_satisfies_growth_for_every_rho0(rho0, radius_factor, d):
    spec = GrowthSpec.full_sphere(d, rho0=rho0, beta=1.0)
    rays = sample_rays(spec, d, [rho0 * radius_factor], n_directions=8)
    assert check_growth(lambda y: float(np.linalg.norm(y)), spec, rays).ok


def test_scheme_grid_times():
    g = SchemeGrid(T=0.7, N=7)
    assert g.times[0] == 0.0
    assert g.times[-1] == 0.7
    assert np.all(np.diff(g.times) > 0)
    assert g.delta == pytest.approx(0.1)
    assert g.step_index(0.05) == 0
    assert g.step_index(0.7) == 6


def test_grid_validation():
    with pytest.raises(ConfigError):
        SchemeGrid(T=-1.0, N=3)
    with pytest.raises(ConfigError):
        SchemeGrid(T=1.0, N=0)


def test_gauss_params_validation():
    with pytest.raises(ConfigError):
        GaussParams(c=1.0, C=0.5)
    with pytest.raises(ConfigError):
        GaussParams(c=-1.0, C=2.0)


def test_kinetic_model_shape():
    m = model_preset("kinetic", dp=2)
    assert m.case is Case.KINETIC
    assert m.d == 4 and m.d_prime == 2
    a = m.diffusion(0.0, np.zeros(4))
    assert a.shape == (2, 2)


def test_sphere_surface_values():
    assert sphere_surface_measure(1) == 2.0
    assert sphere_surface_measure(2) == pytest.approx(2 * math.pi)
    assert sphere_surface_measure(3) == pytest.approx(4 * math.pi)
    assert sphere_surface_measure(4) == pytest.approx(2 * math.pi**2)


def test_unit_directions_are_unit():
    for d in (1, 2, 3):
        dirs = unit_directions(d, 64, seed=1)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)


def test_unit_directions_match_scipy_stats_form():
    from scipy.stats import norm, qmc

    u = np.clip(qmc.Sobol(3, scramble=True, seed=5).random(64), 1e-12, 1 - 1e-12)
    g = norm.ppf(u)
    want = g / np.linalg.norm(g, axis=1, keepdims=True)
    np.testing.assert_array_equal(unit_directions(3, 64, seed=5), want)


def test_unknown_preset():
    with pytest.raises(ConfigError):
        model_preset("nope")

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
)
from eulermc.simulate import RngSpec, unit_directions
from oracles import chunk_words, word_normals


def test_identity_diffusion_passes():
    # a = I meets the ellipticity bound [1/lambda0, lambda0] with lambda0 = 1
    m = model_preset("const", d=2, b0=0.0, sigma0=1.0)
    assert m.lambda0 == 1.0
    assert np.array_equal(m.diffusion(0.0, np.zeros((5, 2))), np.broadcast_to(np.eye(2), (5, 2, 2)))


def test_scaled_diffusion_needs_larger_lambda0():
    # a = 4 I and a = I/4 have quadratic forms 4 and 1/4 in every direction
    for sigma0 in (2.0, 0.5, -2.0):
        assert model_preset("const", d=2, sigma0=sigma0).lambda0 == 4.0
        assert model_preset("kinetic", dp=1, sigma0=sigma0).lambda0 == 4.0


def test_sine_drift_bound_detected_on_dense_samples():
    # the default L0 covers sup |b_amp sin x| = b_amp, which dense samples find
    m = model_preset("trig", b_amp=1.0, a_amp=0.0)
    xs = np.linspace(-math.pi, math.pi, 401)[:, None]
    sup_drift = float(np.max(np.abs(m.drift(0.0, xs))))
    assert sup_drift == pytest.approx(1.0, abs=1e-3)
    assert sup_drift <= m.L0


def test_positive_definite_along_sampled_directions():
    # <a xi, xi> stays inside [1/lambda0, lambda0] for the default lambda0
    dirs = unit_directions(3, 128, RngSpec(4))
    m = model_preset("const", d=3, sigma0=0.7)
    ratios = np.einsum("ni,ij,nj->n", dirs, m.diffusion(0.0, np.zeros(3)), dirs)
    assert np.all(ratios > 0)
    assert np.all((ratios >= (1 - 1e-12) / m.lambda0) & (ratios <= m.lambda0))
    trig = model_preset("trig", a_amp=0.3)
    a = trig.diffusion(0.0, np.linspace(-math.pi, math.pi, 401)[:, None])[:, 0, 0]
    assert np.all((a >= (1 - 1e-12) / trig.lambda0) & (a <= trig.lambda0))


def test_nonfinite_sigma_raises():
    for preset, params in [("const", {"d": 1}), ("kinetic", {"dp": 1})]:
        for bad in (math.nan, math.inf):
            with pytest.raises(InvalidModelError):
                model_preset(preset, sigma0=bad, **params)


def test_growth_of_norm_has_zero_margin():
    spec = GrowthSpec(1.0, 1.0, sphere_surface_measure(2))
    rays = sample_rays(unit_directions(2, 16, RngSpec(0)), [2.0, 5.0, 10.0])
    res = check_growth(lambda y: float(np.linalg.norm(y)), spec, rays)
    assert res.ok
    assert res.margin == pytest.approx(0.0, abs=1e-12)


def test_constant_function_fails_growth():
    spec = GrowthSpec(1.0, 0.1, sphere_surface_measure(2))
    rays = sample_rays(unit_directions(2, 8, RngSpec(0)), [3.0])
    res = check_growth(lambda y: 1.0, spec, rays)
    assert not res.ok
    assert res.margin < 0


def test_hinge_function_growth():
    # max(|y| - 1, 0) grows with unit slope beyond radius 1
    spec = GrowthSpec(2.0, 1.0, sphere_surface_measure(1))
    rays = sample_rays(unit_directions(1, 8, RngSpec(0)), [2.5, 4.0, 9.0])
    res = check_growth(lambda y: max(float(np.linalg.norm(y)) - 1.0, 0.0), spec, rays)
    assert res.ok
    assert res.margin == pytest.approx(0.0, abs=1e-12)


def test_growth_rejects_empty_rays():
    spec = GrowthSpec(1.0, 1.0, sphere_surface_measure(2))
    with pytest.raises(ArgumentError):
        check_growth(lambda y: 0.0, spec, [])


@settings(max_examples=50, deadline=None)
@given(
    rho0=st.floats(min_value=1e-3, max_value=50.0),
    radius_factor=st.floats(min_value=1.001, max_value=100.0),
    d=st.integers(min_value=1, max_value=4),
)
def test_norm_satisfies_growth_for_every_rho0(rho0, radius_factor, d):
    spec = GrowthSpec(rho0, 1.0, sphere_surface_measure(d))
    rays = sample_rays(unit_directions(d, 8, RngSpec(0)), [rho0 * radius_factor])
    assert check_growth(lambda y: float(np.linalg.norm(y)), spec, rays).ok


def test_scheme_grid_times():
    g = SchemeGrid(T=0.7, N=7)
    assert g.times[0] == 0.0
    assert g.times[-1] == 0.7
    assert np.all(np.diff(g.times) > 0)
    assert g.delta == pytest.approx(0.1)


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
        dirs = unit_directions(d, 64, RngSpec(1))
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)


def test_unit_directions_match_oracle_words():
    # direction i normalizes the step-0 normals of sample i: coordinate k is
    # word k * 4096 + i of chunk 0
    i, k = np.meshgrid(np.arange(64), np.arange(3), indexing="ij")
    g = word_normals(chunk_words(5, 0, 0, k * 4096 + i))
    want = g / np.linalg.norm(g, axis=1, keepdims=True)
    np.testing.assert_array_equal(unit_directions(3, 64, RngSpec(5)), want)


def test_unknown_preset():
    with pytest.raises(ConfigError):
        model_preset("nope")

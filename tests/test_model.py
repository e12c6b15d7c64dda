import dataclasses
import math

import numpy as np
import pytest

from eulermc.errors import ConfigError, NumericError
from eulermc.model import Case, SchemeGrid, model_preset, sphere_surface_measure
from oracles import diffusion_matrix


def test_identity_diffusion_passes():
    # a = I meets the ellipticity bound [1/lambda0, lambda0] with lambda0 = 1
    m = model_preset("const", d=2, b0=0.0, sigma0=1.0)
    assert m.lambda0 == 1.0
    a = diffusion_matrix(m, 0.0, np.zeros((5, 2)))
    assert np.array_equal(a, np.broadcast_to(np.eye(2), (5, 2, 2)))


def test_scaled_diffusion_needs_larger_lambda0():
    # a = 4 I and a = I/4 have quadratic forms 4 and 1/4 in every direction
    for sigma0 in (2.0, 0.5, -2.0):
        assert model_preset("const", d=2, sigma0=sigma0).lambda0 == 4.0
        assert model_preset("kinetic", dp=1, sigma0=sigma0).lambda0 == 4.0


def test_presets_state_their_exact_law_and_their_twin():
    # const: X_T ~ p_c(T, x0 + b0 T, .) with c = 1/sigma0^2
    m = model_preset("const", d=2, b0=[0.5, -1.0], sigma0=2.0)
    c, b = m.law
    assert c == 0.25 and b.tolist() == [0.5, -1.0] and m.twin is None
    # undamped kinetic: p_c(T, x0, .) with c = 2/sigma0^2; damped, its twin
    m = model_preset("kinetic", dp=2, sigma0=0.5)
    assert m.law == (8.0, None) and m.twin is None
    m = model_preset("kinetic", dp=2, damp=0.5, sigma0=0.5)
    assert m.law is None and m.twin.law == (8.0, None) and m.twin.d == 4
    # trig: the unit-noise const model, with no drift
    m = model_preset("trig", a_amp=0.5, b_amp=0.3)
    c, b = m.twin.law
    assert m.law is None and c == 1.0 and b.tolist() == [0.0]


def test_a_twin_needs_a_law_and_the_model_dimension():
    const = model_preset("const")
    for model, twin in [(const, model_preset("trig")), (model_preset("const", d=2), const)]:
        with pytest.raises(ConfigError, match="twin"):
            dataclasses.replace(model, twin=twin)


def test_sine_drift_bound_detected_on_dense_samples():
    # the default L0 covers sup |b_amp sin x| = b_amp, which dense samples find
    m = model_preset("trig", b_amp=1.0, a_amp=0.0)
    xs = np.linspace(-math.pi, math.pi, 401)[:, None]
    sup_drift = float(np.max(np.abs(m.drift(0.0, xs))))
    assert sup_drift == pytest.approx(1.0, abs=1e-3)
    assert sup_drift <= m.L0


def test_drift_bound_takes_the_size_of_the_drift_not_its_sign():
    # sup |b_amp sin x| = |b_amp| and sup |damp tanh v| = |damp| whatever the sign
    for sign in (1.0, -1.0):
        assert model_preset("trig", b_amp=3.0 * sign).L0 == 3.1
        assert model_preset("kinetic", damp=3.0 * sign).L0 == 3.0
        assert model_preset("kinetic", dp=4, damp=3.0 * sign).L0 == 6.0


def test_positive_definite_along_sampled_directions(numpy_normals):
    # <a xi, xi> stays inside [1/lambda0, lambda0] for the default lambda0
    g = numpy_normals(4, (128, 3))
    dirs = g / np.linalg.norm(g, axis=1, keepdims=True)
    m = model_preset("const", d=3, sigma0=0.7)
    ratios = np.einsum("ni,ij,nj->n", dirs, diffusion_matrix(m, 0.0, np.zeros(3)), dirs)
    assert np.all(ratios > 0)
    assert np.all((ratios >= (1 - 1e-12) / m.lambda0) & (ratios <= m.lambda0))
    trig = model_preset("trig", a_amp=0.3)
    a = diffusion_matrix(trig, 0.0, np.linspace(-math.pi, math.pi, 401)[:, None])[:, 0, 0]
    assert np.all((a >= (1 - 1e-12) / trig.lambda0) & (a <= trig.lambda0))


def test_nonfinite_sigma_raises():
    for preset, params in [("const", {"d": 1}), ("kinetic", {"dp": 1})]:
        for bad in (math.nan, math.inf):
            with pytest.raises(ConfigError):
                model_preset(preset, sigma0=bad, **params)


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


def test_kinetic_model_shape():
    m = model_preset("kinetic", dp=2)
    assert m.case is Case.KINETIC
    assert m.d == 4 and m.d_prime == 2
    a = diffusion_matrix(m, 0.0, np.zeros(4))
    assert a.shape == (2, 2)


def test_sphere_surface_values():
    assert sphere_surface_measure(1) == 2.0
    assert sphere_surface_measure(2) == pytest.approx(2 * math.pi)
    assert sphere_surface_measure(3) == pytest.approx(4 * math.pi)
    assert sphere_surface_measure(4) == pytest.approx(2 * math.pi**2)
    # gamma(d/2) passes the float range at d = 344: a numeric error naming it
    assert math.isfinite(sphere_surface_measure(343))
    with pytest.raises(NumericError, match=r"measure overflows at d = 344: gamma\(d/2\)"):
        sphere_surface_measure(344)


def test_unknown_preset():
    with pytest.raises(ConfigError):
        model_preset("nope")

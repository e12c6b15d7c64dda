import math
import sys

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import chisquare, norm

from eulermc.errors import ArgumentError
from eulermc.model import SchemeGrid, model_preset
from eulermc.simulate import (
    _CHUNK,
    RngSpec,
    _word_normals,
    euler_step,
    kinetic_step,
    kinetic_step_factor,
    mc_deviation,
    simulate_terminal,
)


@pytest.mark.parametrize(
    "seed, stream", [(20260808, 0), (2**63 + 5, 7), (-3, 2**64 - 1)]
)
def test_words_match_numpy_philox(seed, stream):
    # a uint64 key array: numpy routes a list key through float64
    key = np.array([seed & (2**64 - 1), stream], dtype=np.uint64)
    rng = RngSpec(seed, stream)
    indices = [0, 1, 4095, 4096, 2**32 + 5, 2**63 + 1]
    for k in (1, 4, 5, 13):
        got = rng.words(indices, k)
        assert got.dtype == np.uint64 and got.shape == (len(indices), k)
        for row, i in zip(got, indices):
            want = np.random.Philox(key=key, counter=i << 128).random_raw(k)
            assert np.array_equal(row, want), (i, k)


def test_normals_map_words_by_inverse_cdf():
    rng = RngSpec(11, 2)
    indices = np.arange(4101, dtype=np.uint64)
    z = rng.normals(indices, 13)
    u = ((rng.words(indices, 13) >> np.uint64(12)).astype(float) + 0.5) * 2.0**-52
    assert np.array_equal(z, ndtri(u))
    # any (sample, word) is addressable on its own
    assert np.array_equal(rng.normals([4100], 5)[0], z[4100, :5])


def test_extreme_words_give_finite_symmetric_normals():
    words = np.array([0, 2**64 - 1, 2**63 - 1, 2**63, 12345], dtype=np.uint64)
    z = _word_normals(words)
    assert np.all(np.isfinite(z))
    assert z[1] == -z[0] == pytest.approx(8.2095, abs=1e-4)
    assert np.array_equal(_word_normals(~words), -z)


def test_step_identity_map_of_draw():
    m = model_preset("const", d=2, b0=0.0, sigma0=1.0)
    g = np.array([0.7, -1.3])
    out = euler_step(m, 0.0, np.zeros(2), 1.0, g)
    assert np.allclose(out, g)


def test_step_pure_drift():
    m = model_preset("const", d=1, b0=1.0, sigma0=1.0)
    out = euler_step(m, 0.0, np.zeros(1), 0.5, np.zeros(1))
    assert out[0] == pytest.approx(0.5)


def test_step_moments(numpy_normals):
    # one-step law N(b delta, sigma^2 delta): mean 0.03, var 0.144
    m = model_preset("const", d=1, b0=0.3, sigma0=1.2)
    n = 100_000
    draws = numpy_normals(123, (n, 1))
    out = euler_step(m, 0.0, np.zeros((n, 1)), 0.1, draws)
    mean, var = out.mean(), out.var(ddof=1)
    se_mean = math.sqrt(0.144 / n)
    se_var = 0.144 * math.sqrt(2.0 / n)
    assert abs(mean - 0.03) < 3 * se_mean
    assert abs(var - 0.144) < 3 * se_var


def test_kinetic_factor_reproduces_block_covariance():
    sig = np.array([[1.3, 0.2], [0.0, 0.8]])
    a = sig @ sig.T
    delta = 0.37
    L = kinetic_step_factor(sig, delta)
    want = np.block(
        [[a * delta, a * delta**2 / 2], [a * delta**2 / 2, a * delta**3 / 3]]
    )
    assert np.max(np.abs(L @ L.T - want)) < 1e-12 * np.max(np.abs(want))


def test_kinetic_step_sample_covariance(numpy_normals):
    m = model_preset("kinetic", dp=1)
    n = 100_000
    draws = numpy_normals(7, (n, 2))
    out = kinetic_step(m, 0.0, np.zeros((n, 2)), 1.0, draws)
    cov = np.cov(out.T)
    want = np.array([[1.0, 0.5], [0.5, 1.0 / 3.0]])
    # sample covariance standard errors for Gaussian data
    for i in range(2):
        for j in range(2):
            se = math.sqrt((want[i, i] * want[j, j] + want[i, j] ** 2) / n)
            assert abs(cov[i, j] - want[i, j]) < 3 * se


def test_kinetic_step_zero_draw_is_transport():
    m = model_preset("kinetic", dp=1)
    out = kinetic_step(m, 0.0, np.array([2.0, 5.0]), 0.25, np.zeros(2))
    assert out[0] == pytest.approx(2.0)
    assert out[1] == pytest.approx(5.0 + 2.0 * 0.25)


def test_kinetic_step_scaled_sigma(numpy_normals):
    m = model_preset("kinetic", dp=1, sigma0=2.0)
    delta = 0.5
    n = 100_000
    draws = numpy_normals(8, (n, 2))
    out = kinetic_step(m, 0.0, np.zeros((n, 2)), delta, draws)
    cov = np.cov(out.T)
    want = 4.0 * np.array(
        [[delta, delta**2 / 2], [delta**2 / 2, delta**3 / 3]]
    )
    for i in range(2):
        for j in range(2):
            se = math.sqrt((want[i, i] * want[j, j] + want[i, j] ** 2) / n)
            assert abs(cov[i, j] - want[i, j]) < 3 * se


def test_single_step_grid_reduces_to_step():
    m = model_preset("const", d=1, b0=0.2, sigma0=0.9)
    tg = SchemeGrid(T=0.3, N=1)
    rng = RngSpec(99, 4)
    batch = simulate_terminal(m, tg, [1.0], rng, 5)
    for i in range(5):
        d = rng.normals([i], 1)
        want = euler_step(m, 0.0, np.array([1.0]), 0.3, d[0])
        assert np.array_equal(batch.samples[i], want)


def test_terminal_law_exact_for_constant_coefficients():
    # Gaussian increments telescope: X_T ~ N(x0, T) for every N
    m = model_preset("const", d=1, b0=0.0, sigma0=1.0)
    for N in (1, 3, 10):
        batch = simulate_terminal(m, SchemeGrid(T=2.0, N=N), [0.0], RngSpec(5, N), 20_000)
        var = batch.samples.var(ddof=1)
        assert abs(var - 2.0) < 3 * 2.0 * math.sqrt(2.0 / 20_000)


def test_terminal_chi_squared_goodness_of_fit():
    m = model_preset("const", d=1, b0=0.4, sigma0=1.1)
    T, N, n = 1.5, 6, 100_000
    batch = simulate_terminal(m, SchemeGrid(T=T, N=N), [0.2], RngSpec(31), n)
    mu, s = 0.2 + 0.4 * T, 1.1 * math.sqrt(T)
    edges = norm.ppf(np.linspace(0.0, 1.0, 51)[1:-1], loc=mu, scale=s)
    counts = np.histogram(batch.samples[:, 0], bins=np.r_[-np.inf, edges, np.inf])[0]
    stat, pvalue = chisquare(counts)
    assert pvalue > 1e-3


def test_kinetic_terminal_covariance_every_N():
    # (W_T, int W) has covariance [[T, T^2/2], [T^2/2, T^3/3]] by Ito isometry
    m = model_preset("kinetic", dp=1)
    T = 1.0
    want = np.array([[T, T**2 / 2], [T**2 / 2, T**3 / 3]])
    for N in (1, 4, 9):
        batch = simulate_terminal(m, SchemeGrid(T=T, N=N), [0.0, 0.0], RngSpec(17, N), 50_000)
        cov = np.cov(batch.samples.T)
        for i in range(2):
            for j in range(2):
                se = math.sqrt((want[i, i] * want[j, j] + want[i, j] ** 2) / 50_000)
                assert abs(cov[i, j] - want[i, j]) < 3 * se


def test_determinism_across_threads_and_runs():
    m = model_preset("trig", a_amp=0.2, b_amp=0.3)
    tg = SchemeGrid(T=1.0, N=5)
    a = simulate_terminal(m, tg, [0.0], RngSpec(1234, 9), 9000, threads=1)
    b = simulate_terminal(m, tg, [0.0], RngSpec(1234, 9), 9000, threads=4)
    assert np.array_equal(a.samples, b.samples)
    c = simulate_terminal(m, tg, [0.0], RngSpec(1234, 9), 9000, threads=2)
    assert np.array_equal(a.samples, c.samples)


def test_offset_extends_stream():
    m = model_preset("const", d=1)
    tg = SchemeGrid(T=1.0, N=2)
    full = simulate_terminal(m, tg, [0.0], RngSpec(3), 10)
    tail = simulate_terminal(m, tg, [0.0], RngSpec(3), 4, sample_offset=6)
    assert np.array_equal(full.samples[6:], tail.samples)


@pytest.mark.parametrize(
    "offset, M", [(-1, 5), (2**64 - 4, 5)], ids=["negative", "past-2**64"]
)
def test_sample_indices_must_fit_uint64(offset, M):
    m = model_preset("const", d=1)
    with pytest.raises(ArgumentError):
        simulate_terminal(m, SchemeGrid(T=1.0, N=1), [0.0], RngSpec(3), M, sample_offset=offset)


def test_last_sample_index_draws():
    m = model_preset("const", d=1)
    tg = SchemeGrid(T=1.0, N=1)
    batch = simulate_terminal(m, tg, [0.0], RngSpec(3), 4, sample_offset=2**64 - 4)
    want = euler_step(m, 0.0, np.zeros(1), 1.0, RngSpec(3).normals([2**64 - 1], 1)[0])
    assert np.array_equal(batch.samples[-1], want)


def test_threads_under_frequent_switches():
    # workers write disjoint slices of one output while numpy drops the GIL
    m = model_preset("kinetic", dp=1)
    tg = SchemeGrid(T=1.0, N=3)
    M = 3 * _CHUNK + 17
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        a = simulate_terminal(m, tg, [0.0, 0.0], RngSpec(5, 1), M, threads=1)
        b = simulate_terminal(m, tg, [0.0, 0.0], RngSpec(5, 1), M, threads=4)
    finally:
        sys.setswitchinterval(old)
    assert np.array_equal(a.samples, b.samples)


def test_mc_deviation_constant_functional():
    m = model_preset("const", d=1)
    batch = simulate_terminal(m, SchemeGrid(T=1.0, N=1), [0.0], RngSpec(2), 100)
    dev = mc_deviation(batch, lambda x: np.full(x.shape[0], 3.0), 3.0)
    assert dev == 0.0


def test_mc_deviation_clt_scale():
    m = model_preset("const", d=1, b0=0.0, sigma0=1.0)
    T, M = 1.0, 40_000
    batch = simulate_terminal(m, SchemeGrid(T=T, N=1), [0.0], RngSpec(77), M)
    dev = mc_deviation(batch, lambda x: x[:, 0], 0.0)
    assert abs(dev) < 4 * math.sqrt(T / M)


def test_mc_deviation_against_control_run():
    m = model_preset("trig", a_amp=0.2)
    tg = SchemeGrid(T=1.0, N=4)
    f = lambda x: np.abs(x[:, 0])
    control = simulate_terminal(m, tg, [0.0], RngSpec(41, 1), 200_000)
    ref = float(f(control.samples).mean())
    batch = simulate_terminal(m, tg, [0.0], RngSpec(41, 0), 2000)
    dev = mc_deviation(batch, f, ref)
    sd = float(f(batch.samples).std(ddof=1))
    assert abs(dev) < 5 * sd / math.sqrt(2000)


def test_mc_deviation_requires_finite_reference():
    m = model_preset("const", d=1)
    batch = simulate_terminal(m, SchemeGrid(T=1.0, N=1), [0.0], RngSpec(2), 10)
    with pytest.raises(ArgumentError):
        mc_deviation(batch, lambda x: x[:, 0], math.inf)


def test_step_error_carries_sample_index():
    from eulermc.errors import NumericError
    from eulermc.model import Case, SdeModel

    # drift blows up once the state passes a threshold
    def drift(t, x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) > 1.5, np.inf, 0.0)

    def sigma(t, x):
        x = np.asarray(x, dtype=float)
        return np.ones(x.shape[:-1] + (1, 1))

    m = SdeModel(Case.NONDEGENERATE, 1, drift, sigma, 1.0, 1.0, 1.0)
    with pytest.raises(NumericError, match=r"sample \d+"):
        simulate_terminal(m, SchemeGrid(T=4.0, N=8), [0.0], RngSpec(1), 200)


def test_case_dispatch_errors():
    ma = model_preset("const", d=1)
    mk = model_preset("kinetic", dp=1)
    with pytest.raises(ArgumentError):
        kinetic_step(ma, 0.0, np.zeros(1), 0.1, np.zeros(2))
    with pytest.raises(ArgumentError):
        euler_step(mk, 0.0, np.zeros(2), 0.1, np.zeros(1))

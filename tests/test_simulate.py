import hashlib
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chisquare, norm

from eulermc import simulate
from eulermc.errors import ConfigError, NumericError
from eulermc.model import MODEL_PRESETS, Case, SchemeGrid, SdeModel, model_preset
from eulermc.simulate import (
    _CHUNK,
    RngSpec,
    _group_normals,
    _log,
    _map_work,
    _word_normals,
    draw_dim,
    scheme_step,
    simulate_terminal,
)
from oracles import (
    _philox4x64,
    chunk_words,
    fdlibm_log,
    full_drift_model,
    matrix_step,
    row_major_terminal,
    trig_sigma,
    word_normals,
)


def _normals(words):
    """The normal map, on scratch of its own."""
    return _word_normals(words, np.empty(_map_work(words.size)))


def test_reference_philox_known_answer():
    # Random123 known-answer vector: Philox4x64-10 at counter 0, key 0
    want = [0x16554D9ECA36314C, 0xDB20FE9D672D0FDC, 0xD7E772CEE186176B, 0x7E68B68AEC7BA23B]
    zero = np.uint64(0)
    assert [int(w) for w in _philox4x64((zero,) * 4, (zero, zero))] == want
    # numpy adds 1 to the counter before its first block
    assert np.random.Philox(key=0, counter=2**256 - 1).random_raw(4).tolist() == want


@pytest.mark.parametrize(
    "seed, stream", [(20260808, 0), (2**63 + 5, 7), (-3, 2**64 - 1)]
)
@pytest.mark.parametrize("c", [0, 1, 2**52 - 1])
def test_chunk_words_match_reference_philox(seed, stream, c):
    bitgen = RngSpec(seed, stream).chunk(c)
    # consecutive draws continue one stream, as simulate_terminal reads it
    got = np.concatenate([bitgen.random_raw(k) for k in (1, 4, 5, 13)])
    assert got.dtype == np.uint64
    assert np.array_equal(got, chunk_words(seed, stream, c, np.arange(23)))


def test_normals_map_words_by_inverse_cdf():
    words = RngSpec(11, 2).chunk(3).random_raw(2 * _CHUNK + 5)
    z = _normals(words)
    assert np.shares_memory(z, words)  # a contiguous buffer is mapped in place
    assert np.array_equal(z, word_normals(chunk_words(11, 2, 3, np.arange(words.size))))


def test_extreme_words_give_finite_symmetric_normals():
    words = np.array([0, 2**64 - 1, 2**63 - 1, 2**63, 12345], dtype=np.uint64)
    z = _normals(words.copy())  # the map writes over its words
    assert np.all(np.isfinite(z))
    assert z[1] == -z[0] == pytest.approx(8.2095, abs=1e-4)
    assert np.array_equal(_normals(~words), -z)


def _words_near(*uniforms) -> np.ndarray:
    """The words whose uniforms ((w >> 12) + 0.5) 2**-52 lie nearest each
    given uniform, with their two neighbours on each side."""
    near = [int(u * 2.0**52) + k for u in uniforms for k in range(-2, 3)]
    return np.array([m << 12 for m in near if 0 <= m < 2**52], dtype=np.uint64)


# branch edges of ndtri (y = e^-2, z = sqrt(-2 log y) = 8), powers of two
# in y and in z (the |f| < 2^-20 branch of the log), both ends of the range
_EDGE_WORDS = np.concatenate(
    [
        np.array([0, 1, 4095, 4096, 2**64 - 1, 2**63 - 1, 2**63], dtype=np.uint64),
        _words_near(
            math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0), 0.5, 0.25, 2.0**-10,
            2.0**-40, math.exp(-8.0), math.exp(-2.0) * (1 + 1e-9),
        ),
    ]
)


@pytest.mark.parametrize("lo, hi", [(0, 905), (3, 4093)])
def test_normal_map_of_a_strided_partial_chunk_matches_oracle(lo, hi):
    # the (steps, ndraw, width) words of columns [lo, hi) of a chunk, viewed
    # as a strided view: the columns end inside a 4-word block
    first, stop = lo // 4, -(-hi // 4)
    words = RngSpec(23, 4).chunk(1).random_raw(3 * 2 * 4 * (stop - first))
    view = words.reshape(3, 2, -1)[:, :, lo - 4 * first : hi - 4 * first]
    view[0, 0, : _EDGE_WORDS.size] = _EDGE_WORDS
    view[-1, 1, -_EDGE_WORDS.size :] = ~_EDGE_WORDS
    assert not view.flags.c_contiguous
    want = word_normals(view)
    z = _normals(view)
    assert z.shape == view.shape
    assert np.array_equal(z.ravel(), want)


def test_normal_map_is_within_8_ulp_of_scipy_ndtri():
    # the map is Cephes ndtri on fdlibm's log; scipy's ndtri is Cephes on libm's
    from scipy.special import ndtri

    words = np.concatenate([RngSpec(21, 5).chunk(7).random_raw(2**20), _EDGE_WORDS])
    u = ((words >> np.uint64(12)).astype(float) + 0.5) * 2.0**-52
    z, want = _normals(words.copy()), ndtri(u)
    assert np.all(np.abs(z - want) <= 8 * np.spacing(np.abs(want)))
    assert np.max(np.abs(z)) <= 8.21
    # Cephes takes its tail branch at y = e^-2 but its central one at
    # 1 - e^-2 (as rounded), so the one word pair that meets those two
    # uniforms maps to -z only up to rounding; every other ~w maps to -z
    edge = (u == 0.13533528323661269189) | (u == 1.0 - 0.13533528323661269189)
    assert np.count_nonzero(edge) == 2
    assert np.array_equal(_normals(~words[~edge]), -z[~edge])
    assert np.allclose(_normals(~words[edge]), -z[edge], rtol=1e-15, atol=0)


def test_normal_map_differs_from_scipy_only_in_its_log():
    # with libm's log in place of fdlibm's, the scalar port is scipy's ndtri
    from scipy.special import ndtri

    words = np.concatenate([RngSpec(22).chunk(0).random_raw(20_000), _EDGE_WORDS])
    want = ndtri(((words >> np.uint64(12)).astype(float) + 0.5) * 2.0**-52)
    assert np.array_equal(word_normals(words, math.log), want)
    assert np.array_equal(word_normals(words), _normals(words))


def test_log_is_fdlibm_log():
    # the map's domain, y in [2^-53, e^-2] and sqrt(-2 log y) in [2, 8.21],
    # and the high mantissa words where fdlibm's branches and its halving
    # of 1 + f switch, at exponents from -53 to 3
    edges = np.array([0, 1, 0x6147A, 0x6A09C, 0x6B851, 0xFFFFE, 0xFFFFF]) / 2.0**20 + 1.0
    edges = np.outer(2.0 ** np.arange(-53.0, 4.0), edges).ravel()
    x = np.concatenate(
        [
            np.exp(-np.linspace(2.0, 36.8, 20_001)),
            np.linspace(2.0, 8.21, 20_001),
            edges,
            np.nextafter(edges, np.inf),
            np.nextafter(edges, 0.0),
        ]
    )
    got = _log(x)
    assert np.array_equal(got, [fdlibm_log(float(v)) for v in x])
    libm = np.array([math.log(float(v)) for v in x])
    assert np.all(np.abs(got - libm) <= np.spacing(np.abs(libm)))


def test_normal_map_allocates_no_block_sized_temporaries():
    # the map works in the caller's scratch: after a warm call, a call on a
    # 65,536-word block allocates only its tail's indices and values
    words = RngSpec(24, 1).chunk(0).random_raw(2 * 2**16)
    work = np.empty(_map_work(2**16))
    _word_normals(words[: 2**16], work)
    tracemalloc.start()
    try:
        _word_normals(words[2**16 :], work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 2**20, peak


_TIER_PROBE = """
import hashlib, sys
from pathlib import Path
import numpy as np
from eulermc.cli import main
from eulermc.harness import _CSV_BLOCK, write_csv
from eulermc.simulate import RngSpec, _map_work, _word_normals
words = np.concatenate([RngSpec(5, 1).chunk(2).random_raw(2**16), ~np.arange(64, dtype=np.uint64)])
normals = _word_normals(words.copy(), np.empty(_map_work(words.size)))
print(hashlib.sha256(normals.tobytes()).hexdigest())
assert main(["simulate", "--set", "M=5000", "--set", "N=4", "--out-dir", sys.argv[1]]) == 0
print(hashlib.sha256(Path(sys.argv[1], "samples.csv").read_bytes()).hexdigest())
# d = 256: each step maps 153,600 words in three pieces (the run above
# reads its full first chunk a batch of coordinates per call)
assert main(["simulate", "--set", "d=256", "--set", "M=600", "--out-dir", sys.argv[1]]) == 0
print(hashlib.sha256(Path(sys.argv[1], "samples.csv").read_bytes()).hexdigest())
# undamped kinetic dp = 2: every column op of the step on contiguous columns
kinetic = ["--set", 'preset="kinetic"', "--set", "dp=2", "--set", "x0=[0]"]
assert main(["simulate", *kinetic, "--set", "M=5000", "--out-dir", sys.argv[1]]) == 0
print(hashlib.sha256(Path(sys.argv[1], "samples.csv").read_bytes()).hexdigest())
# full blocks of the CSV writer: normals, powers of ten and their neighbours,
# ties at the 17th digit (m 2^-j), raw bit patterns and the int64 ends
tens = [float(f"1e{k}") for k in range(-6, 18)]
edges = [np.nextafter(t, to) for t in tens for to in (0.0, np.inf)] + tens
edges += [(-(-(10**17) // 5**j) | 1) * 2.0**-j for j in range(3, 22)]
x = np.concatenate([normals[:1000], edges, words[:500].view(np.float64)])
x = np.resize(np.concatenate([x, -x]), 2 * _CSV_BLOCK)
i = np.resize(np.array([-(2**63), 2**63 - 1, 0, -1]), 2 * _CSV_BLOCK)
write_csv(Path(sys.argv[1], "edges.csv"), ["i", "x"], [i, x])
print(hashlib.sha256(Path(sys.argv[1], "edges.csv").read_bytes()).hexdigest())
# the README kinetic density-check, on fewer samples: its envelope fit
kinetic = ["--set", 'preset="kinetic"', "--set", "dp=1", "--set", "x0=[0,0]"]
argv = ["density-check", *kinetic, "--set", "c=2.0", "--set", "C=1.2"]
argv += ["--set", "density_samples=100000"]
assert main([*argv, "--out-dir", sys.argv[1]]) == 0
print(hashlib.sha256(Path(sys.argv[1], "density_check.json").read_bytes()).hexdigest())
"""

# numpy CPU dispatch tiers to switch off, newest first
_TIERS = [
    ("X86_V4", "AVX512_ICL", "AVX512_SPR"),
    ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"),
]


def test_normals_and_a_run_agree_across_numpy_dispatch_tiers(tmp_path):
    from numpy._core._multiarray_umath import __cpu_features__

    import eulermc

    tiers = [tier for tier in _TIERS if __cpu_features__.get(tier[0])]
    if not tiers:
        pytest.skip("the host has none of the dispatch tiers to switch off")
    src = str(Path(eulermc.__file__).resolve().parents[1])
    digests = set()
    for k, tier in enumerate([(), *tiers]):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        env.pop("NPY_DISABLE_CPU_FEATURES", None)
        if tier:
            env["NPY_DISABLE_CPU_FEATURES"] = " ".join(f for f in tier if __cpu_features__.get(f))
        out = subprocess.run(
            [sys.executable, "-c", _TIER_PROBE, str(tmp_path / str(k))],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        ).stdout
        digests.add(tuple(out.split()))
    assert len(digests) == 1, digests


def test_step_identity_map_of_draw():
    m = model_preset("const", d=2, b0=0.0, sigma0=1.0)
    g = np.array([0.7, -1.3])
    out = scheme_step(m, 0.0, np.zeros(2), 1.0, g)
    assert np.allclose(out, g)


def test_step_pure_drift():
    m = model_preset("const", d=1, b0=1.0, sigma0=1.0)
    out = scheme_step(m, 0.0, np.zeros(1), 0.5, np.zeros(1))
    assert out[0] == pytest.approx(0.5)


def test_step_moments(numpy_normals):
    # one-step law N(b delta, sigma^2 delta): mean 0.03, var 0.144
    m = model_preset("const", d=1, b0=0.3, sigma0=1.2)
    n = 100_000
    draws = numpy_normals(123, (n, 1))
    out = scheme_step(m, 0.0, np.zeros((n, 1)), 0.1, draws)
    mean, var = out.mean(), out.var(ddof=1)
    se_mean = math.sqrt(0.144 / n)
    se_var = 0.144 * math.sqrt(2.0 / n)
    assert abs(mean - 0.03) < 3 * se_mean
    assert abs(var - 0.144) < 3 * se_var


def test_kinetic_factor_reproduces_block_covariance():
    # the step is affine in the draw; its linear part L must factor the block
    # covariance [[a d, a d^2/2], [a d^2/2, a d^3/3]] with a = sigma sigma^T
    sig = np.array([[1.3, 0.2], [0.0, 0.8]])
    a = sig @ sig.T
    delta = 0.37
    m = SdeModel(
        Case.KINETIC, 4, lambda t, x: np.zeros(np.shape(x)[:-1] + (2,)),
        lambda t, x, g: np.einsum("ij,...j->...i", sig, g), 4.0, 1.0,
    )
    x = np.zeros((5, 4))
    draws = np.vstack([np.zeros(4), np.eye(4)])
    out = scheme_step(m, 0.0, x, delta, draws)
    L = (out[1:] - out[0]).T
    want = np.block(
        [[a * delta, a * delta**2 / 2], [a * delta**2 / 2, a * delta**3 / 3]]
    )
    assert np.max(np.abs(L @ L.T - want)) < 1e-12 * np.max(np.abs(want))


def test_kinetic_step_sample_covariance(numpy_normals):
    m = model_preset("kinetic", dp=1)
    n = 100_000
    draws = numpy_normals(7, (n, 2))
    out = scheme_step(m, 0.0, np.zeros((n, 2)), 1.0, draws)
    cov = np.cov(out.T)
    want = np.array([[1.0, 0.5], [0.5, 1.0 / 3.0]])
    # sample covariance standard errors for Gaussian data
    for i in range(2):
        for j in range(2):
            se = math.sqrt((want[i, i] * want[j, j] + want[i, j] ** 2) / n)
            assert abs(cov[i, j] - want[i, j]) < 3 * se


def test_kinetic_step_zero_draw_is_transport():
    m = model_preset("kinetic", dp=1)
    out = scheme_step(m, 0.0, np.array([2.0, 5.0]), 0.25, np.zeros(2))
    assert out[0] == pytest.approx(2.0)
    assert out[1] == pytest.approx(5.0 + 2.0 * 0.25)


def test_kinetic_step_scaled_sigma(numpy_normals):
    m = model_preset("kinetic", dp=1, sigma0=2.0)
    delta = 0.5
    n = 100_000
    draws = numpy_normals(8, (n, 2))
    out = scheme_step(m, 0.0, np.zeros((n, 2)), delta, draws)
    cov = np.cov(out.T)
    want = 4.0 * np.array(
        [[delta, delta**2 / 2], [delta**2 / 2, delta**3 / 3]]
    )
    for i in range(2):
        for j in range(2):
            se = math.sqrt((want[i, i] * want[j, j] + want[i, j] ** 2) / n)
            assert abs(cov[i, j] - want[i, j]) < 3 * se


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("sigma0", [0.37, 0.7, 1.3])
@pytest.mark.parametrize(
    "preset, params",
    [
        ("const", {"d": 1, "b0": 0.3}),
        ("const", {"d": 3, "b0": [0.3, -1.1, 2.0]}),
        ("const", {"d": 256, "b0": -0.4}),
        ("kinetic", {"dp": 1}),
        ("kinetic", {"dp": 32}),
        ("kinetic", {"dp": 1, "damp": 0.5}),
        ("kinetic", {"dp": 32, "damp": 0.5}),
    ],
)
def test_step_matches_the_matrix_form_bit_for_bit(preset, params, sigma0, numpy_normals):
    # sigma0 I applied by einsum adds only +-0 products to sigma0 g: the same bits
    m = model_preset(preset, sigma0=sigma0, **params)
    n, dp = 64, m.d_prime
    x = 3.0 * numpy_normals(1, (n, m.d))
    g = numpy_normals(2, (n, draw_dim(m)))
    sig = np.broadcast_to(sigma0 * np.eye(dp), (n, dp, dp))
    for t, delta in [(0.0, 0.125), (0.3, 0.37), (1.0, 2.0)]:
        _assert_same_bits(scheme_step(m, t, x, delta, g), matrix_step(m, sig, t, x, delta, g))


@pytest.mark.parametrize("a_amp, b_amp", [(0.1, 0.0), (0.5, 0.3), (0.9, -1.2)])
def test_trig_step_matches_the_matrix_form_bit_for_bit(a_amp, b_amp, numpy_normals):
    m = model_preset("trig", a_amp=a_amp, b_amp=b_amp)
    x = 3.0 * numpy_normals(3, (256, 1))
    g = numpy_normals(4, (256, 1))
    for t, delta in [(0.0, 0.125), (0.3, 0.37)]:
        want = matrix_step(m, trig_sigma(a_amp, x), t, x, delta, g)
        _assert_same_bits(scheme_step(m, t, x, delta, g), want)


def test_step_never_writes_into_what_noise_returns(numpy_normals):
    # this noise returns the draws themselves: a step that scaled its result
    # in place would change the draws, and the integrated block with them
    dp = 3
    m = SdeModel(
        Case.KINETIC, 2 * dp, lambda t, x: -0.5 * np.tanh(x[..., :dp]), lambda t, x, g: g, 1.0, 1.0,
    )
    x = numpy_normals(5, (64, 2 * dp))
    g = numpy_normals(6, (64, 2 * dp))
    drawn = g.copy()
    got = scheme_step(m, 0.1, x, 0.25, g)
    assert np.array_equal(g, drawn)
    _assert_same_bits(got, matrix_step(m, np.eye(dp), 0.1, x, 0.25, drawn))


@pytest.mark.parametrize("preset, params", [("const", {"d": 3}), ("kinetic", {"dp": 2, "damp": 0.5})])
def test_step_writes_into_the_buffer_it_is_given(preset, params, numpy_normals):
    m = model_preset(preset, **params)
    x = numpy_normals(7, (64, m.d))
    g = numpy_normals(8, (64, draw_dim(m)))
    out = np.full((64, m.d), np.nan)
    got = scheme_step(m, 0.2, x, 0.25, g, out)
    assert got is out
    _assert_same_bits(out, scheme_step(m, 0.2, x, 0.25, g))


def test_single_step_grid_reduces_to_step():
    m = model_preset("const", d=1, b0=0.2, sigma0=0.9)
    tg = SchemeGrid(T=0.3, N=1)
    rng = RngSpec(99, 4)
    batch = simulate_terminal(m, tg, [1.0], rng, 5)
    # step 0, coordinate 0 of sample i reads word i of chunk 0
    z = word_normals(chunk_words(99, 4, 0, np.arange(5)))
    for i in range(5):
        want = scheme_step(m, 0.0, np.array([1.0]), 0.3, z[i : i + 1])
        assert np.array_equal(batch[i], want)


def test_words_are_step_major_within_a_chunk():
    # word (n ndraw + k) 4096 + (i mod 4096) drives step n, coordinate k of sample i
    m = model_preset("kinetic", dp=1)
    tg = SchemeGrid(T=1.0, N=3)
    offset = _CHUNK + 10
    batch = simulate_terminal(m, tg, [0.0, 0.0], RngSpec(8, 1), 6, sample_offset=offset)
    for i in range(6):
        col = (offset + i) % _CHUNK
        x = np.zeros(2)
        for n in range(3):
            w = [(2 * n + k) * _CHUNK + col for k in range(2)]
            x = scheme_step(m, tg.times[n], x, tg.delta, word_normals(chunk_words(8, 1, 1, w)))
        assert np.array_equal(batch[i], x)


def test_normals_are_the_first_step_of_a_run():
    # one unit Euler step from 0 with sigma = I adds exactly the step-0
    # normals; 4100 samples reach into chunk 1
    n, k = _CHUNK + 4, 2
    m = model_preset("const", d=k)
    run = simulate_terminal(m, SchemeGrid(T=1.0, N=1), [0.0, 0.0], RngSpec(6, 2), n)
    assert run.shape == (n, k)
    # sample 0, coordinates 0 and 1: words 0 and 4096 of chunk 0
    assert np.array_equal(run[0], word_normals(chunk_words(6, 2, 0, [0, _CHUNK])))
    # sample 4097, coordinate 1: word 1 * 4096 + 1 of chunk 1
    assert run[_CHUNK + 1, 1] == word_normals(chunk_words(6, 2, 1, [_CHUNK + 1]))[0]


def test_terminal_law_exact_for_constant_coefficients():
    # Gaussian increments telescope: X_T ~ N(x0, T) for every N
    m = model_preset("const", d=1, b0=0.0, sigma0=1.0)
    for N in (1, 3, 10):
        batch = simulate_terminal(m, SchemeGrid(T=2.0, N=N), [0.0], RngSpec(5, N), 20_000)
        var = batch.var(ddof=1)
        assert abs(var - 2.0) < 3 * 2.0 * math.sqrt(2.0 / 20_000)


def test_terminal_chi_squared_goodness_of_fit():
    m = model_preset("const", d=1, b0=0.4, sigma0=1.1)
    T, N, n = 1.5, 6, 100_000
    batch = simulate_terminal(m, SchemeGrid(T=T, N=N), [0.2], RngSpec(31), n)
    mu, s = 0.2 + 0.4 * T, 1.1 * math.sqrt(T)
    edges = norm.ppf(np.linspace(0.0, 1.0, 51)[1:-1], loc=mu, scale=s)
    counts = np.histogram(batch[:, 0], bins=np.r_[-np.inf, edges, np.inf])[0]
    stat, pvalue = chisquare(counts)
    assert pvalue > 1e-3


def test_kinetic_terminal_covariance_every_N():
    # (W_T, int W) has covariance [[T, T^2/2], [T^2/2, T^3/3]] by Ito isometry
    m = model_preset("kinetic", dp=1)
    T = 1.0
    want = np.array([[T, T**2 / 2], [T**2 / 2, T**3 / 3]])
    for N in (1, 4, 9):
        batch = simulate_terminal(m, SchemeGrid(T=T, N=N), [0.0, 0.0], RngSpec(17, N), 50_000)
        cov = np.cov(batch.T)
        for i in range(2):
            for j in range(2):
                se = math.sqrt((want[i, i] * want[j, j] + want[i, j] ** 2) / 50_000)
                assert abs(cov[i, j] - want[i, j]) < 3 * se


def test_determinism_across_threads_and_runs():
    m = model_preset("trig", a_amp=0.2, b_amp=0.3)
    tg = SchemeGrid(T=1.0, N=5)
    a = simulate_terminal(m, tg, [0.0], RngSpec(1234, 9), 9000, threads=1)
    b = simulate_terminal(m, tg, [0.0], RngSpec(1234, 9), 9000, threads=4)
    assert np.array_equal(a, b)
    c = simulate_terminal(m, tg, [0.0], RngSpec(1234, 9), 9000, threads=2)
    assert np.array_equal(a, c)


def test_offset_extends_stream():
    m = model_preset("const", d=1)
    tg = SchemeGrid(T=1.0, N=2)
    # the second offset run straddles the boundary of chunks 0 and 1
    for offset, M in ((6, 4), (4086, 20)):
        full = simulate_terminal(m, tg, [0.0], RngSpec(3), offset + M)
        tail = simulate_terminal(m, tg, [0.0], RngSpec(3), M, sample_offset=offset)
        assert np.array_equal(full[offset:], tail)


def test_simulate_peak_memory_does_not_grow_with_steps():
    # normals live for one step, so N = 256 needs no more than N = 64
    m = model_preset("kinetic", dp=1)
    peaks = []
    for N in (64, 256):
        tracemalloc.start()
        try:
            simulate_terminal(m, SchemeGrid(T=1.0, N=N), [0.0, 0.0], RngSpec(4), 8192)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


@pytest.mark.parametrize(
    "offset, M", [(-1, 5), (2**64 - 4, 5)], ids=["negative", "past-2**64"]
)
def test_sample_indices_must_fit_uint64(offset, M):
    m = model_preset("const", d=1)
    with pytest.raises(ConfigError):
        simulate_terminal(m, SchemeGrid(T=1.0, N=1), [0.0], RngSpec(3), M, sample_offset=offset)


def test_last_sample_index_draws():
    m = model_preset("const", d=1)
    tg = SchemeGrid(T=1.0, N=1)
    batch = simulate_terminal(m, tg, [0.0], RngSpec(3), 4, sample_offset=2**64 - 4)
    # sample 2**64 - 1 is column 4095 of chunk 2**52 - 1
    z = word_normals(chunk_words(3, 0, 2**52 - 1, [_CHUNK - 1]))
    want = scheme_step(m, 0.0, np.zeros(1), 1.0, z)
    assert np.array_equal(batch[-1], want)


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
    assert np.array_equal(a, b)


def test_each_worker_allocates_its_scratch_once(monkeypatch):
    # four groups of up to 8 chunks: each worker allocates the map's scratch
    # on its first group and reuses it for the others
    m, grid, M = model_preset("const", d=1), SchemeGrid(T=1.0, N=4), 3 * 8 * _CHUNK + 5
    calls = []
    monkeypatch.setattr(simulate, "_map_work", lambda n: calls.append(n) or _map_work(n))
    one = simulate_terminal(m, grid, [0.0], RngSpec(9), M)
    assert len(calls) == 1
    calls.clear()
    two = simulate_terminal(m, grid, [0.0], RngSpec(9), M, threads=2)
    assert 1 <= len(calls) <= 2 and np.array_equal(one, two)
    # nor is any state buffer allocated: a kinetic group steps its state in
    # its own rows of the output and in the work buffer, so the arrays that
    # simulate_terminal and its workers' `run` make are the output and each
    # worker's words and work buffers
    m, group = model_preset("kinetic", dp=1), 8 * _CHUNK
    made, empty = [], np.empty

    def spy(shape, *args, **kwargs):
        if sys._getframe(1).f_code.co_name in ("simulate_terminal", "run"):
            made.append(math.prod(np.atleast_1d(shape)))
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", spy)
    for threads in (1, 2):
        made.clear()
        simulate_terminal(m, grid, [0.0, 0.0], RngSpec(9), M, threads=threads)
        scratch = sorted([2 * group, max(_map_work(2 * group), 2 * group)] * threads)
        assert made[0] == 2 * M and sorted(made[1:]) in (scratch[::threads], scratch), made


def test_concurrent_calls_keep_their_own_scratch():
    # each call owns its workers' scratch: two calls at once, each with a
    # pool of its own, give their sequential results bit for bit
    grid = SchemeGrid(T=1.0, N=4)
    M = 2 * 8 * _CHUNK + 100  # three groups, so that each call starts a pool
    calls = [
        (model_preset("kinetic", dp=1), [0.0, 0.0], RngSpec(31, 1)),
        (model_preset("trig", a_amp=0.3, b_amp=0.2), [0.1], RngSpec(32, 2)),
    ]
    want = [simulate_terminal(m, grid, x0, rng, M) for m, x0, rng in calls]
    got = [None] * len(calls)
    start = threading.Barrier(len(calls))

    def call(k):
        m, x0, rng = calls[k]
        start.wait(timeout=60)
        got[k] = simulate_terminal(m, grid, x0, rng, M, threads=2)

    workers = [threading.Thread(target=call, args=(k,)) for k in range(len(calls))]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(w.is_alive() for w in workers)
    for g, w in zip(got, want):
        assert g is not None and np.array_equal(g, w)


def test_mc_deviation_clt_scale():
    m = model_preset("const", d=1, b0=0.0, sigma0=1.0)
    T, M = 1.0, 40_000
    batch = simulate_terminal(m, SchemeGrid(T=T, N=1), [0.0], RngSpec(77), M)
    dev = batch[:, 0].mean()
    assert abs(dev) < 4 * math.sqrt(T / M)


def test_mc_deviation_against_control_run():
    m = model_preset("trig", a_amp=0.2)
    tg = SchemeGrid(T=1.0, N=4)
    f = lambda x: np.abs(x[:, 0])
    control = simulate_terminal(m, tg, [0.0], RngSpec(41, 1), 200_000)
    ref = float(f(control).mean())
    batch = simulate_terminal(m, tg, [0.0], RngSpec(41, 0), 2000)
    dev = float(f(batch).mean()) - ref
    sd = float(f(batch).std(ddof=1))
    assert abs(dev) < 5 * sd / math.sqrt(2000)


def _failures(model, grid, rng, M, sample_offset):
    """{chunk: (step, sample)} of a scalar run from 0: each failing chunk's
    earliest failing step and, at that step, its first failing sample.

    Each sample is replayed on its own normals (ndraw = 1: word
    n 4096 + (i mod 4096) of its chunk drives step n) up to its first
    non-finite state; a chunk's samples are replayed side by side.
    """
    failures = {}
    first, last = divmod(sample_offset, _CHUNK)[0], (sample_offset + M - 1) // _CHUNK
    for c in range(first, last + 1):
        lo = max(sample_offset, c * _CHUNK)
        hi = min(sample_offset + M, (c + 1) * _CHUNK)
        words = rng.chunk(c).random_raw(grid.N * _CHUNK)
        normals = _normals(words).reshape(grid.N, _CHUNK)[:, lo - c * _CHUNK : hi - c * _CHUNK]
        x = np.zeros((hi - lo, 1))
        for n in range(grid.N):
            x = scheme_step(model, grid.times[n], x, grid.delta, normals[n][:, None])
            bad = np.flatnonzero(~np.isfinite(x[:, 0]))
            if bad.size:
                failures[c] = (n, lo + int(bad[0]))
                break
    return failures


def _first_failure(model, grid, rng, M, sample_offset):
    """(step, sample) that simulate_terminal names for a scalar run from 0:
    those of the first chunk with a failing sample."""
    failures = _failures(model, grid, rng, M, sample_offset)
    return failures[min(failures)]


def _blowup_model(threshold):
    """A scalar model whose drift is infinite once |x| passes threshold."""

    def drift(t, x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) > threshold, np.inf, 0.0)

    def noise(t, x, g):
        return g

    return SdeModel(Case.NONDEGENERATE, 1, drift, noise, 1.0, 1.0)


def test_step_error_carries_sample_index():
    from eulermc.errors import NumericError

    m = _blowup_model(1.5)
    grid, rng = SchemeGrid(T=4.0, N=8), RngSpec(1)
    # samples 3000 to 7999 span chunks 0 and 1, which are stepped as one group
    step, sample = _first_failure(m, grid, rng, 5000, 3000)
    want = f"non-finite state at step {step} in sample {sample}"
    for threads in (1, 2):
        with pytest.raises(NumericError) as exc:
            simulate_terminal(m, grid, [0.0], rng, 5000, threads=threads, sample_offset=3000)
        assert str(exc.value) == want


def test_error_names_the_first_chunk_when_a_later_chunk_of_its_group_fails_earlier():
    from eulermc.errors import NumericError

    # samples 3000 to 39863 span chunks 0 to 9: groups of chunks 0-7 and 8-9
    m, grid, rng = _blowup_model(3.0), SchemeGrid(T=1.0, N=8), RngSpec(1)
    M, offset = 9 * _CHUNK, 3000
    failures = _failures(m, grid, rng, M, offset)
    first = min(failures)
    step = failures[first][0]
    assert any(c // 8 == first // 8 and n < step for c, (n, _) in failures.items() if c > first)
    assert len({c // 8 for c in failures}) == 2  # both groups fail
    want = "non-finite state at step {} in sample {}".format(*_first_failure(m, grid, rng, M, offset))
    for threads in (1, 2):
        with pytest.raises(NumericError) as exc:
            simulate_terminal(m, grid, [0.0], rng, M, threads=threads, sample_offset=offset)
        assert str(exc.value) == want


def test_more_threads_than_cores_step_every_group_and_raise_the_first_failure():
    # seven groups among eight workers under frequent switches: a group no
    # worker steps leaves its rows unset, and the error names the first
    # failing chunk whichever worker met it
    from eulermc.errors import NumericError

    grid, M = SchemeGrid(T=1.0, N=8), 6 * 8 * _CHUNK + 5
    m, rng, blowup = model_preset("const", d=1), RngSpec(11), _blowup_model(3.8)
    want = "non-finite state at step {} in sample {}".format(*_first_failure(blowup, grid, rng, M, 0))
    failing = sorted({c // 8 for c in _failures(blowup, grid, rng, M, 0)})
    assert failing[0] > 0 and len(failing) > 2  # groups 1 to 4 fail
    one = simulate_terminal(m, grid, [0.0], rng, M)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        eight = simulate_terminal(m, grid, [0.0], rng, M, threads=8)
        with pytest.raises(NumericError) as exc:
            simulate_terminal(blowup, grid, [0.0], rng, M, threads=8)
    finally:
        sys.setswitchinterval(old)
    assert np.array_equal(one, eight)
    assert str(exc.value) == want


def _oracle_run(model, grid, x0, seed, stream, M, offset):
    """The terminal points of samples offset to offset + M - 1, stepped on
    normals read word by word: step n, coordinate k of sample i is word
    (n ndraw + k) 4096 + (i mod 4096) of chunk i // 4096, mapped by the
    scalar oracle."""
    ndraw = draw_dim(model)
    idx = np.arange(offset, offset + M, dtype=np.uint64)
    chunks, cols = idx // np.uint64(_CHUNK), idx % np.uint64(_CHUNK)
    normals = np.empty((grid.N, M, ndraw))
    for c in np.unique(chunks).tolist():
        rows = np.flatnonzero(chunks == c)
        w = (np.arange(grid.N * ndraw, dtype=np.uint64)[:, None] * np.uint64(_CHUNK) + cols[rows])
        z = word_normals(chunk_words(seed, stream, c, w)).reshape(grid.N, ndraw, rows.size)
        normals[:, rows] = z.transpose(0, 2, 1)
    x = np.broadcast_to(np.asarray(x0, dtype=float), (M, model.d))
    for n in range(grid.N):
        x = scheme_step(model, grid.times[n], x, grid.delta, normals[n])
    return x


@pytest.mark.parametrize(
    "preset, params, x0",
    [
        ("const", dict(d=1, b0=0.3), [0.5]),
        ("kinetic", dict(dp=1, damp=0.5), [0.4, -0.2]),
        ("const", dict(d=16), [0.0] * 16),
    ],
    ids=["const-d1", "kinetic-dp1", "const-d16"],
)
@pytest.mark.parametrize(
    "offset, M",
    [
        (7, 90),  # inside one chunk
        (4000, 150),  # fewer samples than a chunk, across a chunk edge
        (2 * _CHUNK + 1000, 8 * _CHUNK + 50),  # partial first and last chunks
        (_CHUNK - 6, 16 * _CHUNK + 13),  # 18 chunks: three groups of up to 8
    ],
    ids=["in-chunk", "across-edge", "partial-ends", "three-groups"],
)
def test_groups_read_each_samples_own_words(preset, params, x0, offset, M):
    m = model_preset(preset, **params)
    if m.d == 16:  # a group is one chunk: 4109 samples from offset 4090 make three groups
        M = min(M, _CHUNK + 13)
    grid = SchemeGrid(T=1.0, N=2)
    want = _oracle_run(m, grid, x0, 12, 3, M, offset)
    for threads in (1, 2):
        got = simulate_terminal(m, grid, x0, RngSpec(12, 3), M, threads, offset)
        assert np.array_equal(got, want)


# const and kinetic at sigma0 = 1, where the noise is g itself, and at 1.3;
# undamped kinetic and b0 = 0 take no drift, damped kinetic and b0 != 0 do
_ROW_MAJOR_CASES = [
    (preset, {**params, **sigma0})
    for preset, params in [
        ("const", dict(d=1)),
        ("const", dict(d=3)),
        ("const", dict(d=3, b0=[0.3, -1.1, 2.0])),
        ("kinetic", dict(dp=1)),
        ("kinetic", dict(dp=3)),
        ("kinetic", dict(dp=1, damp=0.5)),
        ("kinetic", dict(dp=3, damp=0.5)),
    ]
    for sigma0 in ({}, {"sigma0": 1.3})
] + [("trig", dict(a_amp=0.3, b_amp=0.2))]


@pytest.mark.parametrize("preset, params", _ROW_MAJOR_CASES, ids=str)
def test_runs_match_the_row_major_step_loop(preset, params):
    # samples 3000 to 35,844: partial first and last chunks, in two groups
    # at ndraw <= 2 and five at ndraw = 6; the state starts at a -0.0
    m = model_preset(preset, **params)
    grid, rng, M, offset = SchemeGrid(T=1.5, N=3), RngSpec(19, 2), 8 * _CHUNK + 77, 3000
    x0 = np.resize([-0.0, 0.3, -1.2], m.d)
    want = row_major_terminal(full_drift_model(preset, **params), grid, x0, rng, M, offset)
    for threads in (1, 2):
        got = simulate_terminal(m, grid, x0, rng, M, threads, offset)
        assert got.flags.c_contiguous
        _assert_same_bits(got, want)


@pytest.mark.parametrize("case, d", [(Case.KINETIC, 4), (Case.NONDEGENERATE, 3)])
def test_a_diverging_run_fails_as_the_row_major_loop_does(case, d):
    dp = d // 2 if case is Case.KINETIC else d

    def drift(t, x):
        return np.where(np.abs(x[..., :dp]) > 2.5, np.inf, 0.0)

    m = SdeModel(case, d, drift, lambda t, x, g: g, 1.0, 1.0)
    grid, rng, M, offset = SchemeGrid(T=2.0, N=8), RngSpec(5, 2), 3 * _CHUNK + 10, 1000
    with pytest.raises(NumericError) as want:
        row_major_terminal(m, grid, np.zeros(d), rng, M, offset)
    for threads in (1, 2):
        with pytest.raises(NumericError) as got:
            simulate_terminal(m, grid, np.zeros(d), rng, M, threads, offset)
        assert str(got.value) == str(want.value)


# the signed values the zero-drift rule is pinned on, and the steps
_SIGNED = [sign * v for v in (0.0, 1e-320, 1e-300, 0.5, 3.0, 1e300) for sign in (1.0, -1.0)]


@pytest.mark.parametrize("delta", [0.125, 1e-170, 1e-200])
def test_a_zero_drift_adds_0_0_and_a_unit_noise_is_g(delta, numpy_normals):
    v, z = (a.ravel() for a in np.meshgrid(_SIGNED, _SIGNED))
    # the undamped kinetic drift -0.0 tanh(v), and const's +0.0, give the
    # bits of v + 0.0 and (v delta + z) + 0.0
    for b in (-0.0 * np.tanh(v), np.zeros_like(v)):
        _assert_same_bits(b * delta + v, v + 0.0)
        half = 0.5 * b
        half *= delta * delta
        _assert_same_bits((v * delta + z) + half, (v * delta + z) + 0.0)
    # +0.0 tanh(v), at damp = -0.0, does not: its zeros have v's sign
    b = 0.0 * np.tanh(v)
    assert not np.array_equal((b * delta + v).view(np.int64), (v + 0.0).view(np.int64))
    _assert_same_bits(1.0 * v, v)  # sigma0 = 1
    # so the presets drop those drifts and return g at sigma0 = 1 ...
    assert model_preset("kinetic").drift is None and model_preset("const", d=2).drift is None
    for preset, params in [("kinetic", dict(damp=-0.0)), ("kinetic", dict(damp=0.5)), ("const", dict(b0=-0.0))]:
        assert model_preset(preset, **params).drift is not None
    g = numpy_normals(9, (4, 2))
    assert model_preset("kinetic").noise(0.0, g, g) is g
    # ... and a step on the table is the full step to the bit, with signed
    # zero normals too, for which a signed zero state would show
    x = np.stack([v, z], axis=1)
    g = x[:, ::-1] / 1e300
    for preset, params in [("kinetic", dict(dp=1)), ("const", dict(d=2)), ("kinetic", dict(dp=1, damp=-0.0))]:
        want = scheme_step(full_drift_model(preset, **params), 0.0, x, delta, g)
        _assert_same_bits(scheme_step(model_preset(preset, **params), 0.0, x, delta, g), want)


@pytest.mark.parametrize("case, d", [(Case.KINETIC, 2), (Case.KINETIC, 6), (Case.NONDEGENERATE, 3)])
def test_steps_see_contiguous_columns(monkeypatch, case, d):
    # a spy preset: its drift and noise see each block of the state, and the
    # normals, as columns of unit stride
    dp = d // 2 if case is Case.KINETIC else d
    calls = []

    def unit_stride(a):
        return a.size == 0 or a.strides[0] == a.itemsize

    def spy():
        def drift(t, x):
            calls.append("drift")
            assert unit_stride(x[..., :dp]) and unit_stride(x[..., dp:]), x.strides
            return np.zeros(x.shape[:-1] + (dp,))

        def noise(t, x, g):
            calls.append("noise")
            assert unit_stride(g), g.strides
            return g

        return SdeModel(case, d, drift, noise, 1.0, 1.0)

    monkeypatch.setitem(MODEL_PRESETS, "spy", spy)
    m, grid = model_preset("spy"), SchemeGrid(T=1.0, N=2)
    simulate_terminal(m, grid, np.zeros(d), RngSpec(3), 2 * _CHUNK + 9, threads=2, sample_offset=5)
    assert "drift" in calls and "noise" in calls


@pytest.mark.parametrize(
    "edges",
    [
        [_CHUNK - 5, _CHUNK, 2 * _CHUNK, 3 * _CHUNK, 3 * _CHUNK + 7],
        [2, _CHUNK, 2 * _CHUNK - 1],  # partial chunks that skip no 4-word block
    ],
    ids=["partial-full-partial", "unskipped-partials"],
)
@pytest.mark.parametrize("ndraw", [1, 2, 17, 256])
def test_group_normals_are_the_words_of_their_index(ndraw, edges):
    # a chunk that skips no block reads 16 coordinates a call, so 17 and 256
    # cross that batch
    rng, steps = RngSpec(41, 3), 2
    m = edges[-1] - edges[0]
    words = np.empty(ndraw * m, dtype=np.uint64)
    normals = _group_normals(rng, edges, ndraw, steps, words, np.empty(_map_work(words.size)))
    # word (n ndraw + k) 4096 + (i mod 4096) of chunk i // 4096
    want = np.empty((steps, ndraw, m), dtype=np.uint64)
    for a, b in zip(edges[:-1], edges[1:]):
        c, lo = divmod(a, _CHUNK)
        stream = rng.chunk(c).random_raw(steps * ndraw * _CHUNK).reshape(steps, ndraw, _CHUNK)
        want[:, :, a - edges[0] : b - edges[0]] = stream[:, :, lo : lo + b - a]
    for n, got in enumerate(normals):
        assert got.shape == (m, ndraw)
        assert np.array_equal(got, _normals(want[n]).T), n


class _CountedReads:
    """A chunk's bit generator that records the size of each random_raw call."""

    def __init__(self, bitgen, reads):
        self.bitgen, self.reads = bitgen, reads

    def random_raw(self, size):
        self.reads.append(size)
        return self.bitgen.random_raw(size)

    def advance(self, delta):
        self.bitgen.advance(delta)


@pytest.mark.parametrize("ndraw", [1, 2, 17, 256])
def test_a_full_chunk_reads_16_coordinates_a_call(monkeypatch, ndraw):
    reads, chunk = [], RngSpec.chunk
    monkeypatch.setattr(RngSpec, "chunk", lambda self, c: _CountedReads(chunk(self, c), reads))
    words = np.empty(ndraw * _CHUNK, dtype=np.uint64)
    work = np.empty(_map_work(words.size))
    for n, _ in enumerate(_group_normals(RngSpec(2), [_CHUNK, 2 * _CHUNK], ndraw, 3, words, work)):
        assert len(reads) == (n + 1) * -(-ndraw // 16)
    assert sum(reads) == 3 * ndraw * _CHUNK and max(reads) <= 16 * _CHUNK


def test_a_high_d_group_maps_its_words_in_pieces(monkeypatch):
    # at ndraw = 256 a chunk's step reads 2^20 words: the work buffer holds
    # the state, not 3 floats a word, and the map runs in 2^16-word pieces
    assert _map_work(256 * _CHUNK) == _map_work(2**16) == 3 * 2**16 + 8
    m = model_preset("const", d=256)
    sizes = []

    def group_normals(rng, edges, ndraw, steps, words, work):
        sizes.append(work.size)
        return _group_normals(rng, edges, ndraw, steps, words, work)

    monkeypatch.setattr(simulate, "_group_normals", group_normals)
    simulate_terminal(m, SchemeGrid(T=1.0, N=1), np.zeros(256), RngSpec(6), _CHUNK + 3)
    assert sizes == [max(_map_work(2**16), _CHUNK * 256)] * 2
    # the piecewise map equals one whole-array call: rare branches at the
    # piece edges, then the same words with a piece larger than the array
    words = RngSpec(7).chunk(0).random_raw(256 * _CHUNK)
    for edge in range(2**16, words.size, 2**16):
        words[edge - 3 : edge + 3] = _EDGE_WORDS[:6]
    pieces = _normals(words.copy())
    monkeypatch.setattr(simulate, "_BLOCK_WORDS", words.size)
    assert np.array_equal(pieces, _normals(words))


@pytest.mark.parametrize(
    "preset, params, x0, cap_mib",
    [("const", dict(d=1), [0.0], 1.60), ("kinetic", dict(dp=1), [0.0, 0.0], 3.19)],
    ids=["const-d1", "kinetic-dp1"],
)
def test_simulate_peak_memory_does_not_grow_with_samples(preset, params, x0, cap_mib):
    # a group holds at most 8 chunks' state and one step's normals, so the
    # traced peak above the output array does not grow with M
    m, grid = model_preset(preset, **params), SchemeGrid(T=1.0, N=8)
    simulate_terminal(m, grid, x0, RngSpec(4), 2**16)  # first-call allocations
    above = {}
    for M in (2**16, 250_000, 2**18):
        tracemalloc.start()
        try:
            simulate_terminal(m, grid, x0, RngSpec(4), M)
            above[M] = tracemalloc.get_traced_memory()[1] - 8 * M * m.d
        finally:
            tracemalloc.stop()
    assert above[250_000] <= cap_mib * 2**20, above
    assert above[2**18] <= 1.05 * above[2**16], above

import math

import numpy as np
import pytest

from eulermc import parametrix
from eulermc.errors import ConfigError, NumericError
from eulermc.harness import ExperimentConfig, run_density_check, write_csv
from eulermc.model import MODEL_PRESETS, Case, SchemeGrid, SdeModel, model_preset
from eulermc.parametrix import (
    DensityTable,
    Grid1D,
    _fast_len,
    chapman_kolmogorov_density,
    default_grid,
    frozen_density,
    one_step_density,
    parametrix_series,
)
from eulermc.simulate import RngSpec, simulate_terminal
from oracles import pairwise_parametrix_series


CONST = model_preset("const", d=1, b0=0.0, sigma0=1.0)
TRIG = model_preset("trig", a_amp=0.1)


def gauss(y, mean, var):
    return math.exp(-((y - mean) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)


def zero_start(delta, steps):
    """The grid of `steps` steps of length delta from t_0 = 0: the engine's
    span t_0 .. t_N."""
    return SchemeGrid(T=steps * delta, N=steps)


def test_grid_basics():
    g = Grid1D(-1.0, 1.0, 5)
    assert g.h == 0.5
    assert np.allclose(g.points, [-1, -0.5, 0, 0.5, 1])
    assert g.weights().sum() == pytest.approx(2.0)
    with pytest.raises(ConfigError):
        Grid1D(1.0, -1.0, 5)
    # the default grid makes its node count odd, so that x is a node
    centered = default_grid(CONST, SchemeGrid(T=1.0, N=2), 0.3, 10, 1.0)
    assert centered.n_points == 11
    assert np.isclose(centered.points, 0.3).any()


def test_frozen_density_constant_coefficients_is_scheme_density():
    m = model_preset("const", d=1, b0=0.4, sigma0=1.3)
    xs = np.linspace(-3, 3, 11)
    for steps in (1, 5, 2):
        tg = zero_start(0.2, steps)
        span = steps * tg.delta
        want = [gauss(x, 0.7 + 0.4 * span, 1.69 * span) for x in xs]
        got = frozen_density(m, tg, 0.7, xs)
        assert np.allclose(got, want, rtol=1e-14)


def test_frozen_density_time_dependent_variance_sum():
    # a(t) = 1 + t/2 frozen anywhere: variance is sum (1 + t_i/2) delta
    def noise(t, x, g):
        return math.sqrt(1.0 + t / 2.0) * np.asarray(g, dtype=float)

    m = SdeModel(Case.NONDEGENERATE, 1, lambda t, x: np.zeros_like(x), noise, 2.0, 1.0)
    tg = zero_start(1.0 / 8, 6)
    var = sum((1.0 + tg.times[i] / 2.0) * tg.delta for i in range(tg.N))
    got = frozen_density(m, tg, 0.0, np.array([0.9]))
    assert got[0] == pytest.approx(gauss(0.9, 0.0, var), rel=1e-14)


def test_one_step_density_properties():
    tg = SchemeGrid(T=1.0, N=10)
    grid = Grid1D(-4, 4, 801)
    vals = one_step_density(TRIG, tg, 0.0, grid.points)
    # symmetric about the mean (zero drift at x = 0)
    assert np.allclose(vals, vals[::-1], rtol=1e-12)
    assert float(grid.weights() @ vals) == pytest.approx(1.0, abs=1e-8)


def test_one_step_density_matches_simulation_histogram():
    m = model_preset("trig", a_amp=0.2, b_amp=0.3)
    tg = SchemeGrid(T=1.0, N=4)
    n = 1_000_000
    batch = simulate_terminal(m, SchemeGrid(T=0.25, N=1), [0.3], RngSpec(2024), n)
    edges = np.linspace(-1.6, 2.2, 201)
    counts, _ = np.histogram(batch[:, 0], bins=edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    width = edges[1] - edges[0]
    dens = one_step_density(m, tg, 0.3, centers)
    expected = dens * n * width
    # 3 standard errors per bin, Poisson scale
    bad = np.abs(counts - expected) > 3.0 * np.sqrt(np.maximum(expected, 1.0))
    assert bad.mean() < 0.01


def kernel_row(model, tg, x, grid):
    """Term 1 of the series from (t_0, x) to t_N over delta, on the grid: the
    defect kernel H(t_0, t_N, x, .) that the series builds, plus (for
    N > 1) its convolutions with the frozen densities of the later steps."""
    return parametrix_series(model, tg, x, grid, r_max=1)[2][1] / tg.delta


def test_defect_kernel_zero_for_constant_coefficients():
    grid = Grid1D(-8, 8, 401)
    for steps in (1, 3, 5):
        assert np.max(np.abs(kernel_row(CONST, zero_start(0.2, steps), 0.2, grid))) < 1e-14


def test_defect_kernel_single_step_closed_form():
    # b = 0, a(x) = 1 + 0.1 sin x: difference of two explicit Gaussians
    tg = zero_start(0.1, 1)
    grid = Grid1D(-8, 8, 401)
    delta = tg.delta
    got = kernel_row(TRIG, tg, 0.0, grid)
    want = [
        (gauss(xp, 0.0, delta) - gauss(xp, 0.0, (1 + 0.1 * math.sin(xp)) * delta)) / delta
        for xp in grid.points
    ]
    assert np.max(np.abs(got - want)) < 1e-12


def test_defect_kernel_mass_nearly_cancels():
    # the true one-step density has unit mass; the frozen one is evaluated
    # with parameters that vary with the target, so its mass is 1 + O(delta)
    # and the kernel's signed mass is small against its absolute mass
    grid = Grid1D(-6, 6, 1201)
    vals = kernel_row(TRIG, zero_start(0.1, 1), 0.0, grid)
    signed = abs(float(grid.weights() @ vals))
    total = float(grid.weights() @ np.abs(vals))
    assert signed < 1e-2
    assert signed < 0.05 * total


def test_series_constant_coefficients_exact():
    tg = SchemeGrid(T=1.0, N=5)
    grid = default_grid(CONST, tg, 0.0, 401, 8.0)
    table, norms, _ = parametrix_series(CONST, tg, 0.0, grid, r_max=3)
    exact = np.exp(-grid.points**2 / 2) / math.sqrt(2 * math.pi)
    assert np.max(np.abs(table.values - exact)) < 1e-8
    assert all(n < 1e-12 for n in norms[1:])


def test_series_matches_chapman_kolmogorov():
    tg = SchemeGrid(T=1.0, N=10)
    grid = default_grid(TRIG, tg, 0.0, 600, 10.0)
    table, norms, _ = parametrix_series(TRIG, tg, 0.0, grid, r_max=3)
    ck = chapman_kolmogorov_density(TRIG, tg, 0.0, grid)
    rel = np.max(np.abs(table.values - ck.values)) / np.max(ck.values)
    assert rel < 1e-2
    # term sup norms decay beyond r = 1
    assert norms[2] < norms[1]
    assert norms[3] < norms[2]
    assert table.mass() == pytest.approx(1.0, abs=1e-6)


def test_series_matches_chapman_kolmogorov_at_fifty_steps():
    # criterion 06's rule at N = 50: the discrete parametrix is bounded
    # uniformly in N (Konakov and Mammen, PTRF 117, 2000)
    tg = SchemeGrid(T=1.0, N=50)
    grid = default_grid(TRIG, tg, 0.0, 201, 10.0)
    table, norms, _ = parametrix_series(TRIG, tg, 0.0, grid, r_max=3)
    ck = chapman_kolmogorov_density(TRIG, tg, 0.0, grid)
    rel = np.max(np.abs(table.values - ck.values)) / np.max(ck.values)
    assert rel < 1e-2
    assert norms[1] > norms[2] > norms[3]


def test_fft_length_is_scipy_next_fast_len():
    from scipy.fft import next_fast_len

    # 2n - 1 for every grid from 3 points up to the 4095-point cap
    got = [_fast_len(m) for m in range(5, 8190)]
    assert got == [next_fast_len(m, real=True) for m in range(5, 8190)]


def test_series_full_order_agrees_with_ck_tightly():
    tg = SchemeGrid(T=1.0, N=6)
    grid = default_grid(TRIG, tg, 0.0, 401, 9.0)
    table, _, _ = parametrix_series(TRIG, tg, 0.0, grid, r_max=6)
    ck = chapman_kolmogorov_density(TRIG, tg, 0.0, grid)
    rel = np.max(np.abs(table.values - ck.values)) / np.max(ck.values)
    assert rel < 1e-6


def test_trig_grid_is_the_same_for_either_drift_sign():
    # sup |b_amp sin x| = |b_amp| for either sign, so both drifts get
    # L0 = 3.1 and the half-width 10 sqrt(lambda0 T) + L0 T
    tg = SchemeGrid(T=1.0, N=10)
    up, down = (default_grid(model_preset("trig", b_amp=b), tg, 0.0, 401, 10.0) for b in (3.0, -3.0))
    assert up == down
    assert up.hi == pytest.approx(10.0 * math.sqrt(1.0 / 0.9) + 3.1, rel=1e-15)


# Sup norms of terms 0..3 at trig (a_amp = 0.1), N = 10, default_grid(..., 601,
# 10.0), from the right-associated series that stored every kernel table
# H(t_k, t_m) and composed them with n x n products.
RIGHT_ASSOCIATED_TERM_NORMS = [
    0.39941486901041817,
    0.011741869435044395,
    0.00033738709581340666,
    5.5090687522713144e-06,
]


def test_series_term_norms_match_right_associated_series():
    tg = SchemeGrid(T=1.0, N=10)
    grid = default_grid(TRIG, tg, 0.0, 601, 10.0)
    _, norms, _ = parametrix_series(TRIG, tg, 0.0, grid, r_max=3)
    assert norms == pytest.approx(RIGHT_ASSOCIATED_TERM_NORMS, rel=1e-12, abs=0.0)


def test_series_peak_memory_does_not_grow_with_steps():
    import tracemalloc

    peaks = []
    ck_peaks = []
    for N in (6, 12):
        tg = SchemeGrid(T=1.0, N=N)
        grid = default_grid(TRIG, tg, 0.0, 201, 10.0)
        for record, run in (
            (peaks, lambda: parametrix_series(TRIG, tg, 0.0, grid, r_max=3)),
            (ck_peaks, lambda: chapman_kolmogorov_density(TRIG, tg, 0.0, grid)),
        ):
            tracemalloc.start()
            try:
                run()
                record.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert peaks[1] < 1.1 * peaks[0]
    # the reused one-step matrix is one matrix, not one per step
    assert ck_peaks[1] < 1.1 * ck_peaks[0]


@pytest.mark.parametrize("N, n", [(10, 401), (50, 601)])
def test_flushed_matrices_hold_no_tiny_values(monkeypatch, N, n):
    # every Gaussian table of the series (the rows of T_0 and of the first
    # step, Q, the blocks of G, the full tails of the smallest gaps and the
    # block rows of the other tails and of the l = 0 frozen step) is 0 or at
    # least 1e-290, so no product with it is subnormal; none of them depends
    # on r_max beyond the number of full tails
    shapes = set()
    gauss = parametrix._gauss

    def checked(*args, **kwargs):
        out = gauss(*args, **kwargs)
        shapes.add(out.shape)
        assert np.all((out == 0.0) | (out >= 1e-290))
        return out

    monkeypatch.setattr(parametrix, "_gauss", checked)
    tg = SchemeGrid(T=1.0, N=N)
    parametrix_series(TRIG, tg, 0.0, default_grid(TRIG, tg, 0.0, n, 10.0), r_max=1)
    # n for the rows, n x n for Q and the full tail; blocks of 64 target rows
    # (the last one shorter) of the 2n - 1 displacements for G and of the n
    # nodes for the frozen step and the tails
    last = n % 64
    assert shapes == {(n,), (n, n), (64, 2 * n - 1), (last, 2 * n - 1), (64, n), (last, n)}


def _time_dependent_trig():
    # a(t, x) = 1 + 0.1 sin(x + t), no drift
    return SdeModel(
        Case.NONDEGENERATE, 1,
        lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
        lambda t, x, g: np.sqrt(1.0 + 0.1 * np.sin(np.asarray(x, dtype=float) + t)) * g,
        1.0 / 0.9, 1.0,
    )


def _count_one_step_builds(monkeypatch):
    calls = []
    build = parametrix._one_step_matrix

    def counted(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(parametrix, "_one_step_matrix", counted)
    return calls


def test_time_independent_steps_build_the_one_step_matrix_once(monkeypatch):
    calls = _count_one_step_builds(monkeypatch)
    tg = SchemeGrid(T=1.0, N=10)
    grid = default_grid(TRIG, tg, 0.0, 201, 10.0)
    parametrix_series(TRIG, tg, 0.0, grid, r_max=3)
    assert len(calls) == 1
    chapman_kolmogorov_density(TRIG, tg, 0.0, grid)
    assert len(calls) == 2


def test_time_dependent_steps_build_the_one_step_matrix_every_step(monkeypatch):
    monkeypatch.setitem(MODEL_PRESETS, "trig-in-time", _time_dependent_trig)
    model = model_preset("trig-in-time")
    calls = _count_one_step_builds(monkeypatch)
    tg = SchemeGrid(T=1.0, N=10)
    grid = default_grid(model, tg, 0.0, 600, 10.0)
    # steps 1 .. 9 each; step 0 starts from the point mass at x
    table, norms, _ = parametrix_series(model, tg, 0.0, grid, r_max=3)
    assert len(calls) == 9
    ck = chapman_kolmogorov_density(model, tg, 0.0, grid)
    assert len(calls) == 18
    # criterion 06's rule
    rel = np.max(np.abs(table.values - ck.values)) / np.max(ck.values)
    assert rel < 1e-2
    assert norms[1] > norms[2] > norms[3]


def _assert_equals_pairwise_sweep(model, tg, grid, r_max):
    table, norms, terms = parametrix_series(model, tg, 0.0, grid, r_max)
    want_values, want_norms, want_terms = pairwise_parametrix_series(model, tg, 0.0, grid, r_max)
    assert len(terms) == len(want_terms) == r_max + 1
    assert all(np.array_equal(got, want) for got, want in zip(terms, want_terms))
    assert norms == want_norms
    assert np.array_equal(table.values, want_values)


@pytest.mark.parametrize("r_max", [0, 1, 2, 3])
def test_blocked_sweep_equals_pairwise_sweep_bit_for_bit(r_max):
    tg = SchemeGrid(T=1.0, N=10)
    # 201 = 3 * 64 + 9 target rows: the last block is partial
    grid = default_grid(TRIG, tg, 0.0, 201, 10.0)
    _assert_equals_pairwise_sweep(TRIG, tg, grid, r_max)


def test_blocked_sweep_equals_pairwise_sweep_for_time_dependent_steps():
    model = _time_dependent_trig()
    tg = SchemeGrid(T=1.0, N=10)
    _assert_equals_pairwise_sweep(model, tg, default_grid(model, tg, 0.0, 201, 10.0), 3)


def _tail_shapes(monkeypatch):
    shapes = []
    build = parametrix._frozen_tail

    def recorded(*args, **kwargs):
        out = build(*args, **kwargs)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(parametrix, "_frozen_tail", recorded)
    return shapes


@pytest.mark.parametrize("N, r_max", [(10, 0), (10, 1), (10, 3), (3, 3)])
def test_repeating_steps_build_the_smallest_gaps_tails_once(monkeypatch, N, r_max):
    # the full tails of gaps 1 .. min(r_max, N - 1), once each; every other
    # tail is built by blocks of target rows
    shapes = _tail_shapes(monkeypatch)
    tg = SchemeGrid(T=1.0, N=N)
    parametrix_series(TRIG, tg, 0.0, default_grid(TRIG, tg, 0.0, 201, 10.0), r_max)
    full = min(r_max, N - 1)
    assert shapes.count((201, 201)) == full
    # the pairs (l, m) whose gap m - l - 1 exceeds `full`, each by its 4 blocks
    by_rows = sum(N - g for g in range(full + 1, N)) if r_max else 0
    want = [(201, 201)] * full + [(64, 201)] * 3 * by_rows + [(9, 201)] * by_rows
    assert sorted(shapes) == sorted(want)


def test_time_dependent_steps_build_no_full_tail(monkeypatch):
    shapes = _tail_shapes(monkeypatch)
    model = _time_dependent_trig()
    tg = SchemeGrid(T=1.0, N=10)
    parametrix_series(model, tg, 0.0, default_grid(model, tg, 0.0, 201, 10.0), r_max=3)
    assert (201, 201) not in shapes
    # gaps 1 .. 9 after steps 0 .. 8, each by its 4 blocks
    assert len(shapes) == 45 * 4


def test_series_r_max_validation():
    tg = SchemeGrid(T=1.0, N=4)
    grid = Grid1D(-5, 5, 101)
    with pytest.raises(ConfigError):
        parametrix_series(TRIG, tg, 0.0, grid, r_max=5)


def test_ck_single_step_is_one_step_density():
    tg = zero_start(0.25, 1)
    grid = Grid1D(-6, 6, 501)
    table = chapman_kolmogorov_density(TRIG, tg, 0.1, grid)
    assert np.allclose(table.values, one_step_density(TRIG, tg, 0.1, grid.points))


def test_ck_constant_coefficients_exact_gaussian():
    tg = SchemeGrid(T=1.0, N=8)
    grid = default_grid(CONST, tg, 0.0, 501, 9.0)
    table = chapman_kolmogorov_density(CONST, tg, 0.0, grid)
    exact = np.exp(-grid.points**2 / 2) / math.sqrt(2 * math.pi)
    assert np.max(np.abs(table.values - exact)) < 1e-8


def test_ck_matches_simulation_histogram():
    m = model_preset("trig", a_amp=0.2, b_amp=0.2)
    tg = SchemeGrid(T=1.0, N=5)
    grid = default_grid(m, tg, 0.0, 501, 9.0)
    table = chapman_kolmogorov_density(m, tg, 0.0, grid)
    n = 1_000_000
    batch = simulate_terminal(m, tg, [0.0], RngSpec(909), n)
    edges = np.linspace(-3.5, 3.5, 141)
    counts, _ = np.histogram(batch[:, 0], bins=edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    width = edges[1] - edges[0]
    expected = np.interp(centers, grid.points, table.values) * n * width
    bad = np.abs(counts - expected) > 3.0 * np.sqrt(np.maximum(expected, 1.0))
    assert bad.mean() < 0.01


def test_ck_truncation_guard():
    tg = SchemeGrid(T=1.0, N=4)
    with pytest.raises(NumericError, match="loses mass"):
        chapman_kolmogorov_density(TRIG, tg, 0.0, Grid1D(-1.0, 1.0, 101))


def test_kernel_decay_weighted_by_reference():
    # |term 1| / delta (t_N - t_0)^{1/2} / p_cfit stays bounded on the grid
    grid = default_grid(TRIG, SchemeGrid(T=1.0, N=10), 0.0, 301, 8.0)
    near = np.abs(grid.points) <= 2.0
    xp = grid.points[near]
    c_fit = 0.9
    worst = 0.0
    for steps in (1, 3, 6, 10):
        tg = zero_start(0.1, steps)
        span = tg.times[-1] - tg.times[0]
        h = kernel_row(TRIG, tg, 0.0, grid)[near]
        ref = np.array([gauss(x, 0.0, span / c_fit) for x in xp]) * math.sqrt(c_fit)
        worst = max(worst, float(np.max(np.abs(h) * span ** (1 - 0.5) / ref)))
    assert math.isfinite(worst)
    assert worst < 50.0


def ck_density_check(**kw):
    return run_density_check(ExperimentConfig.from_dict({"density_mode": "ck", **kw}))


def test_envelope_exact_gaussian_case():
    # the CK table of the constant model is the Gaussian p_1 itself
    exact = dict(preset="const", d=1, b0=0.0, sigma0=1.0, T=1.0, N=6, c=1.0)
    rep = ck_density_check(**exact, C=1.0 + 1e-6, grid_points=501, grid_radius=9.0)
    assert rep["sup_ratio"] == pytest.approx(1.0, abs=1e-6)
    assert rep["inf_ratio"] == pytest.approx(1.0, abs=1e-6)
    assert rep["envelope_holds"]
    assert rep["c_fit"] == pytest.approx(1.0, rel=1e-12)
    assert rep["C_fit"] == pytest.approx(1.0, abs=1e-6)


def test_envelope_perturbed_model():
    trig = dict(preset="trig", a_amp=0.1, T=1.0, N=10, c=0.5, grid_points=501, grid_radius=9.0)
    rep = ck_density_check(**trig, C=5.0)
    assert rep["envelope_holds"]
    # a domination constant below the measured ratio must trip the detector
    assert not ck_density_check(**trig, C=rep["sup_ratio"] * 0.99)["envelope_holds"]


def test_term_decay_warning():
    import warnings as w

    from eulermc.errors import DivergenceWarning
    from eulermc.parametrix import check_term_decay

    with w.catch_warnings(record=True) as caught:
        w.simplefilter("always")
        check_term_decay([1.0, 0.5, 0.7, 0.1])
    assert any(issubclass(c.category, DivergenceWarning) for c in caught)
    with w.catch_warnings(record=True) as caught:
        w.simplefilter("always")
        check_term_decay([1.0, 0.5, 0.1, 0.01])
    assert not caught


def test_term_decay_ratios_and_growing_terms():
    from eulermc.parametrix import term_decay

    assert term_decay([1.0, 0.5, 0.7, 0.1]) == ([0.5 / 1.0, 0.7 / 0.5, 0.1 / 0.7], [2])
    assert term_decay([1.0, 0.0, 0.0]) == ([0.0, None], [])
    assert term_decay([0.4]) == ([], [])


def test_table_csv_exports(tmp_path):
    grid = Grid1D(0.0, 1.0, 3)
    vec = DensityTable(grid, np.array([0.1, 0.2, 0.3]))
    write_csv(tmp_path / "vec.csv", *vec.to_csv(), "abc123")
    lines = (tmp_path / "vec.csv").read_text().splitlines()
    assert lines[0] == "# config-hash: abc123"
    assert lines[1] == "x_prime,value"
    assert len(lines) == 5
    # the shared writer: integral floats bare, no hash comment without a hash
    write_csv(tmp_path / "floats.csv", ["x", "x_prime", "value"], [[0.0], [0.5], [1.0]])
    assert (tmp_path / "floats.csv").read_text() == "x,x_prime,value\n0,0.5,1\n"
    # integers bare, floats with 17 significant digits
    write_csv(tmp_path / "cols.csv", ["i", "v"], [np.arange(2), np.array([0.1, 2.5])], "abc123")
    assert (tmp_path / "cols.csv").read_text() == (
        "# config-hash: abc123\ni,v\n0,0.10000000000000001\n1,2.5\n"
    )


def test_mass_needs_a_vector_table():
    grid = Grid1D(-1, 1, 11)
    assert DensityTable(grid, np.ones(11)).mass() == pytest.approx(2.0)

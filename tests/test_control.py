import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from eulermc import control
from eulermc.control import ControlProblem, energy, geodesic, optimal_control
from eulermc.errors import ArgumentError
from eulermc.gaussianref import kinetic_metric
from oracles import gram, gram_inverse, optimal_control_gram, resolvent


def test_resolvent_identity_and_block():
    assert np.array_equal(resolvent(0.3, 0.3, 2), np.eye(4))
    R = resolvent(1.0, 0.0, 1)
    assert R[1, 0] == 1.0 and R[0, 0] == 1.0 and R[0, 1] == 0.0


def test_resolvent_composition():
    for dp in (1, 2):
        R = resolvent(0.9, 0.2, dp) @ resolvent(0.2, -0.4, dp)
        assert np.max(np.abs(R - resolvent(0.9, -0.4, dp))) < 1e-14


def test_gram_values():
    Q = gram(1.0, 1)
    assert np.allclose(Q, [[1.0, 0.5], [0.5, 1.0 / 3.0]])
    # determinant per coordinate pair is t^4/12
    for t in (0.5, 1.0, 2.0):
        assert np.linalg.det(gram(t, 1)) == pytest.approx(t**4 / 12.0, rel=1e-12)


def test_gram_matches_resolvent_quadrature():
    t, dp = 1.3, 1
    B = np.vstack([np.eye(dp), np.zeros((dp, dp))])
    want = gram(t, dp)
    for i in range(2):
        for j in range(2):
            val, _ = quad(
                lambda s: (resolvent(t, s, dp) @ B @ B.T @ resolvent(t, s, dp).T)[i, j],
                0.0,
                t,
                epsabs=1e-12,
            )
            assert val == pytest.approx(want[i, j], abs=1e-10)


def test_gram_inverse_closed_form():
    for t in (0.2, 1.0, 3.7):
        for dp in (1, 2):
            prod = gram(t, dp) @ gram_inverse(t, dp)
            assert np.max(np.abs(prod - np.eye(2 * dp))) < 1e-10


def test_gram_solve_with_block_preconditioning():
    # conditioning degrades like t-power blocks; row scaling keeps solves tight
    rng = np.random.default_rng(0)
    for t in (1e-2, 1.0, 1e2):
        rhs = rng.standard_normal(2)
        sol = gram_inverse(t, 1) @ rhs
        resid = gram(t, 1) @ sol - rhs
        scale = np.array([math.sqrt(t), math.sqrt(t**3)])
        assert np.max(np.abs(resid / scale)) < 1e-10 * max(1.0, np.max(np.abs(rhs)))


def test_zero_displacement_control_is_zero():
    pr = ControlProblem(1.0, np.zeros(2), np.zeros(2), 1)
    for s in (0.0, 0.4, 1.0):
        assert np.allclose(optimal_control(pr, s), 0.0)
    assert energy(pr) == pytest.approx(0.0, abs=1e-15)


def test_vertical_displacement_control():
    z = 0.8
    pr = ControlProblem(1.0, np.zeros(2), np.array([0.0, z]), 1)
    for s in (0.0, 0.25, 0.5, 1.0):
        assert optimal_control(pr, s)[0] == pytest.approx(6 * z * (1 - 2 * s), rel=1e-12)


def test_closed_form_equals_gram_form():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(100):
        dp = int(rng.integers(1, 4))
        t = float(rng.uniform(0.05, 5.0))
        pr = ControlProblem(t, rng.standard_normal(2 * dp), rng.standard_normal(2 * dp), dp)
        s = float(rng.uniform(0.0, t))
        gap = np.max(np.abs(optimal_control(pr, s) - optimal_control_gram(pr, s)))
        worst = max(worst, gap)
    assert worst < 1e-10


def test_energy_vertical_case():
    # integral of (6 z (1 - 2 s))^2 over [0, 1] is 12 z^2
    z = 1.7
    pr = ControlProblem(1.0, np.zeros(2), np.array([0.0, z]), 1)
    assert energy(pr) == pytest.approx(12 * z * z, rel=1e-12)


def test_energy_is_twice_squared_metric():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        dp = int(rng.integers(1, 3))
        t = float(rng.uniform(0.05, 4.0))
        x = rng.standard_normal(2 * dp) * 2
        xp = rng.standard_normal(2 * dp) * 2
        pr = ControlProblem(t, x, xp, dp)
        want = 2.0 * float(kinetic_metric(t, x, xp, dp))
        assert abs(energy(pr) - want) < 1e-9 * max(1.0, want)


def test_energy_quadratic_homogeneity():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(2)
    xp = rng.standard_normal(2)
    base = energy(ControlProblem(0.7, x, xp, 1))
    for s in (0.5, 2.0, 10.0):
        scaled = energy(ControlProblem(0.7, s * x, s * xp, 1))
        assert scaled == pytest.approx(s * s * base, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    t=st.floats(min_value=0.1, max_value=3.0),
    z=st.floats(min_value=-5.0, max_value=5.0),
    v=st.floats(min_value=-5.0, max_value=5.0),
)
def test_energy_metric_identity_property(t, z, v):
    x = np.array([v, 0.0])
    xp = np.array([0.0, z])
    pr = ControlProblem(t, x, xp, 1)
    want = 2.0 * float(kinetic_metric(t, x, xp, 1))
    assert abs(energy(pr) - want) < 1e-9 * max(1.0, want)


def test_geodesic_reaches_endpoint():
    rng = np.random.default_rng(12)
    for _ in range(20):
        dp = int(rng.integers(1, 3))
        t = float(rng.uniform(0.2, 2.0))
        pr = ControlProblem(t, rng.standard_normal(2 * dp), rng.standard_normal(2 * dp), dp)
        times, states = geodesic(pr, 100)
        err = np.linalg.norm(states[-1] - pr.x_prime)
        assert err < 1e-6 * (1 + np.linalg.norm(pr.x_prime))


def test_geodesic_rest_point():
    pr = ControlProblem(1.0, np.array([0.0, 2.0]), np.array([0.0, 2.0]), 1)
    _, states = geodesic(pr, 50)
    assert np.max(np.abs(states - states[0])) < 1e-12


def test_geodesic_midpoint_position():
    # (0,0) -> (0,z) at t=1: velocity path 6 z s (1 - s) and position path
    # z s^2 (3 - 2 s), at every row
    z = 1.4
    pr = ControlProblem(1.0, np.zeros(2), np.array([0.0, z]), 1)
    s, states = geodesic(pr, 100)
    assert np.max(np.abs(states[:, 0] - 6 * z * s * (1 - s))) <= 1e-14
    assert np.max(np.abs(states[:, 1] - z * s * s * (3 - 2 * s))) <= 1e-14


def _geodesic_row(pr, s):
    """One geodesic row from scalar controls at time s, the loop form."""
    dp = pr.d_prime
    v, z = pr.x[:dp], pr.x[dp:]
    u0 = optimal_control(pr, 0.0)

    def velocity(s):
        return v + s * (u0 + optimal_control(pr, s)) / 2.0

    vs = velocity(s)
    return [*vs, *(z + s * (v + 4.0 * velocity(s / 2.0) + vs) / 6.0)]


def test_geodesic_rows_match_the_per_row_loop(monkeypatch):
    # the array form does each row's arithmetic in the loop's order, so the
    # bits agree, in one block of rows or across blocks of 7; so do the
    # controls at an array of times and one at a time
    rng = np.random.default_rng(5)
    for k in range(50):
        if k == 25:
            monkeypatch.setattr(control, "_ROW_BLOCK", 7)
        dp = int(rng.integers(1, 4))
        t = float(np.exp(rng.uniform(-2.0, 2.0)))
        pr = ControlProblem(t, rng.standard_normal(2 * dp), rng.standard_normal(2 * dp), dp)
        times, states = geodesic(pr, int(rng.integers(2, 60)))
        assert states.tobytes() == np.array([_geodesic_row(pr, s) for s in times]).tobytes()
        rows = np.array([optimal_control(pr, s) for s in times])
        assert optimal_control(pr, times).tobytes() == rows.tobytes()


def test_geodesic_peaks_near_its_states_array():
    # rows are built in blocks into one preallocated array, so the traced
    # peak is the states and times arrays and one block's temporaries; built
    # at once, the temporaries and the concatenation took it to 3x the states
    pr = ControlProblem(1.0, np.zeros(2), np.array([0.0, 1.0]), 1)
    tracemalloc.start()
    try:
        _, states = geodesic(pr, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * states.nbytes, peak / states.nbytes


def test_geodesic_argument_checks():
    pr = ControlProblem(1.0, np.zeros(2), np.ones(2), 1)
    with pytest.raises(ArgumentError):
        geodesic(pr, 1)
    # refused by its size, before anything is allocated
    with pytest.raises(ArgumentError, match="above the 1 GiB cap"):
        geodesic(pr, 10**12)
    with pytest.raises(ArgumentError):
        optimal_control(pr, 2.0)
    with pytest.raises(ArgumentError):
        optimal_control(pr, np.array([0.5, -0.1]))
    with pytest.raises(ArgumentError):
        ControlProblem(-1.0, np.zeros(2), np.ones(2), 1)

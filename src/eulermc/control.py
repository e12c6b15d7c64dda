"""Minimum-energy steering of the kinetic transport system.

State (v, z) in R^{2 d'} follows dv = u dt, dz = v dt for a control u.  The
energy integral of the optimal control between two states equals twice the
squared kinetic metric, which is the identity the density lower bounds rest
on.  Everything is per coordinate pair, in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError

_GEODESIC_RTOL = 1e-6  # endpoint tolerance of geodesic, relative to 1 + |x'|
_STATES_CAP_BYTES = 2**30  # of a geodesic's states, as simulate_terminal caps its samples
_ROW_BLOCK = 2**14  # geodesic rows built at a time


@dataclass(frozen=True)
class ControlProblem:
    """Steer (v, z) from x to x_prime in time t."""

    t: float
    x: np.ndarray
    x_prime: np.ndarray
    d_prime: int

    def __post_init__(self):
        x, xp = np.asarray(self.x, dtype=float), np.asarray(self.x_prime, dtype=float)
        if self.d_prime < 1 or x.size != 2 * self.d_prime or xp.size != x.size:
            raise ConfigError("control endpoints need matching, nonzero even dimensions")
        if self.t <= 0:
            raise ConfigError("horizon must be positive")
        object.__setattr__(self, "x", x.reshape(-1))
        object.__setattr__(self, "x_prime", xp.reshape(-1))


def optimal_control(problem: ControlProblem, s) -> np.ndarray:
    """Optimal control at the time or array of times s in [0, t], closed form.

    With dv = v' - v and g = z' - z - v t (the position gap after free
    transport of the initial velocity):

        u(s) = dv (6 s - 2 t) / t^2 + 6 g (t - 2 s) / t^3.

    Agrees with B^T R(t, s)^T Q_t^{-1} (x' - R(t, 0) x).
    """
    s = np.asarray(s, dtype=float)[..., None]
    if not np.all((0.0 <= s) & (s <= problem.t)):
        raise ConfigError("control time must lie in [0, t]")
    dp = problem.d_prime
    t = problem.t
    dv = problem.x_prime[:dp] - problem.x[:dp]
    g = problem.x_prime[dp:] - problem.x[dp:] - problem.x[:dp] * t
    return dv * (6.0 * s - 2.0 * t) / t**2 + 6.0 * g * (t - 2.0 * s) / t**3


def energy(problem: ControlProblem) -> float:
    """Integral of |u(s)|^2 over [0, t] for the optimal control.

    Simpson's rule on u(0), u(t/2) and u(t), exact because |u(s)|^2 is
    quadratic in s.  Equals 2 * kinetic_metric(t, x, x').
    """
    t = problem.t
    sq = [float(u @ u) for u in (optimal_control(problem, s) for s in (0.0, t / 2.0, t))]
    return t * (sq[0] + 4.0 * sq[1] + sq[2]) / 6.0


def geodesic(problem: ControlProblem, steps: int):
    """The controlled state under the optimal control at steps + 1 even times.

    Each row is exact: v(s) = v + s (u(0) + u(s)) / 2, as u is affine, and
    z(s) = z + s (v + 4 v(s/2) + v(s)) / 6, as v is quadratic.  Returns
    (times, states) with states of shape (steps + 1, 2 d'), refused above
    _STATES_CAP_BYTES.  Raises NumericError when the endpoint misses x'
    by more than _GEODESIC_RTOL * (1 + |x'|).
    """
    if steps < 2:
        raise ConfigError("need at least two steps")
    dp = problem.d_prime
    size = 16 * dp * (steps + 1)
    if size > _STATES_CAP_BYTES:
        raise ConfigError(
            f"{steps:,} geodesic steps need {size / 2**30:,.0f} GiB of states, above the 1 GiB cap"
        )
    v, z = problem.x[:dp], problem.x[dp:]
    u0 = optimal_control(problem, 0.0)

    def velocity(s):
        return v + s[:, None] * (u0 + optimal_control(problem, s)) / 2.0

    times = np.linspace(0.0, problem.t, steps + 1)
    states = np.empty((steps + 1, 2 * dp))
    for lo in range(0, steps + 1, _ROW_BLOCK):  # rows in blocks: temporaries stay small
        s, rows = times[lo:lo + _ROW_BLOCK], states[lo:lo + _ROW_BLOCK]
        rows[:, :dp] = velocity(s)
        rows[:, dp:] = z + s[:, None] * (v + 4.0 * velocity(s / 2.0) + rows[:, :dp]) / 6.0
    err = float(np.linalg.norm(states[-1] - problem.x_prime))
    if err > _GEODESIC_RTOL * (1.0 + float(np.linalg.norm(problem.x_prime))):
        raise NumericError(f"geodesic endpoint error {err:.2e} above tolerance")
    return times, states

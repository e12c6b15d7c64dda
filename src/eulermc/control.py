"""Minimum-energy steering of the kinetic transport system.

State (v, z) in R^{2 d'} follows dv = u dt, dz = v dt for a control u.  The
energy integral of the optimal control between two states equals twice the
squared kinetic metric, which is the identity the density lower bounds rest
on.  Everything is per coordinate pair, in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, IntegrationError
from .quadrature import gauss_legendre

_ENERGY_NODES = 64  # Gauss-Legendre nodes of energy
_GEODESIC_RTOL = 1e-6  # endpoint tolerance of geodesic, relative to 1 + |x'|


@dataclass(frozen=True)
class ControlProblem:
    """Steer (v, z) from x to x_prime in time t."""

    t: float
    x: np.ndarray
    x_prime: np.ndarray
    d_prime: int

    def __post_init__(self):
        if self.t <= 0:
            raise ArgumentError("horizon must be positive")
        x = np.asarray(self.x, dtype=float).reshape(2 * self.d_prime)
        xp = np.asarray(self.x_prime, dtype=float).reshape(2 * self.d_prime)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "x_prime", xp)


def optimal_control(problem: ControlProblem, s: float) -> np.ndarray:
    """Optimal control at time s in [0, t], closed form.

    With dv = v' - v and g = z' - z - v t (the position gap after free
    transport of the initial velocity):

        u(s) = dv (6 s - 2 t) / t^2 + 6 g (t - 2 s) / t^3.

    Agrees with B^T R(t, s)^T Q_t^{-1} (x' - R(t, 0) x).
    """
    if not 0.0 <= s <= problem.t:
        raise ArgumentError("control time must lie in [0, t]")
    dp = problem.d_prime
    t = problem.t
    dv = problem.x_prime[:dp] - problem.x[:dp]
    g = problem.x_prime[dp:] - problem.x[dp:] - problem.x[:dp] * t
    return dv * (6.0 * s - 2.0 * t) / t**2 + 6.0 * g * (t - 2.0 * s) / t**3


def energy(problem: ControlProblem) -> float:
    """Integral of |u(s)|^2 over [0, t] for the optimal control.

    Gauss-Legendre quadrature; the control is affine in s, so the rule is
    exact far below _ENERGY_NODES.  Equals 2 * kinetic_metric(t, x, x').
    """
    nodes, weights = gauss_legendre(0.0, problem.t, _ENERGY_NODES)
    total = 0.0
    for s, w in zip(nodes, weights):
        u = optimal_control(problem, s)
        total += w * float(u @ u)
    return total


def geodesic(problem: ControlProblem, steps: int):
    """Integrate the controlled state with the optimal control (RK4).

    Returns (times, states) with states of shape (steps + 1, 2 d').  Raises
    IntegrationError when the endpoint misses x' by more than
    _GEODESIC_RTOL * (1 + |x'|).
    """
    if steps < 2:
        raise ArgumentError("need at least two steps")
    dp = problem.d_prime
    h = problem.t / steps

    def rhs(s, y):
        dy = np.empty_like(y)
        dy[:dp] = optimal_control(problem, min(max(s, 0.0), problem.t))
        dy[dp:] = y[:dp]
        return dy

    times = np.linspace(0.0, problem.t, steps + 1)
    states = np.empty((steps + 1, 2 * dp))
    y = problem.x.copy()
    states[0] = y
    for k in range(steps):
        s = times[k]
        k1 = rhs(s, y)
        k2 = rhs(s + h / 2.0, y + h / 2.0 * k1)
        k3 = rhs(s + h / 2.0, y + h / 2.0 * k2)
        k4 = rhs(s + h, y + h * k3)
        y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[k + 1] = y
    err = float(np.linalg.norm(y - problem.x_prime))
    if err > _GEODESIC_RTOL * (1.0 + float(np.linalg.norm(problem.x_prime))):
        raise IntegrationError(f"geodesic endpoint error {err:.2e} above tolerance")
    return times, states


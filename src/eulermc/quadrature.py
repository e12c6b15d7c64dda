"""Quadrature helpers.

One-dimensional integrals go through adaptive Gauss-Kronrod (scipy's quad)
on a truncated interval.  Two-dimensional integrals use tensor-product
composite Gauss-Legendre on a truncated box; for the smooth Gaussian-type
integrands in this package that is spectrally accurate and much faster than
nested adaptive rules.  Truncation radii are configurable at every call site.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ToleranceError


def adaptive_1d(f, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Adaptive Gauss-Kronrod integral of f over [lo, hi].

    Raises ToleranceError when the reported error estimate exceeds tol
    relative to max(1, |result|).
    """
    from scipy.integrate import quad

    value, abserr = quad(f, lo, hi, epsabs=tol * 1e-2, epsrel=tol * 1e-2, limit=200)
    if abserr > tol * max(1.0, abs(value)):
        raise ToleranceError(
            f"1-d quadrature error estimate {abserr:.2e} above tolerance {tol:.2e}"
        )
    return value


def gauss_legendre(lo: float, hi: float, n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [lo, hi]."""
    x, w = leggauss(n)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def composite_gauss_legendre(lo: float, hi: float, panels: int, n: int = 16):
    """Composite Gauss-Legendre rule: `panels` panels of n points each."""
    edges = np.linspace(lo, hi, panels + 1)
    nodes = []
    weights = []
    for a, b in zip(edges[:-1], edges[1:]):
        x, w = gauss_legendre(a, b, n)
        nodes.append(x)
        weights.append(w)
    return np.concatenate(nodes), np.concatenate(weights)


def tensor_quad_2d(
    f, box, n_per_dim: int = 160, check_tol: float | None = None, panels: int = 1
):
    """Integrate f over the box [(lo0, hi0), (lo1, hi1)].

    f must accept an (m, 2) array of points and return m values.  Each
    dimension uses `panels` Gauss-Legendre panels of n_per_dim points;
    composite panels keep convergence fast when f has kinks.  When
    check_tol is given the rule is re-evaluated at half resolution and a
    ToleranceError is raised if the two results differ by more than
    check_tol * max(1, |result|).
    """

    def run(n):
        x0, w0 = composite_gauss_legendre(box[0][0], box[0][1], panels, n)
        x1, w1 = composite_gauss_legendre(box[1][0], box[1][1], panels, n)
        pts = np.stack(np.meshgrid(x0, x1, indexing="ij"), axis=-1).reshape(-1, 2)
        vals = f(pts).reshape(x0.size, x1.size)
        return float(w0 @ vals @ w1)

    value = run(n_per_dim)
    if check_tol is not None:
        coarse = run(max(8, n_per_dim // 2))
        if abs(value - coarse) > check_tol * max(1.0, abs(value)):
            raise ToleranceError(
                f"2-d quadrature refinement gap {abs(value - coarse):.2e} "
                f"above tolerance {check_tol:.2e}"
            )
    return value


def trapezoid_weights(n: int, h: float) -> np.ndarray:
    """Trapezoid weights for n uniformly spaced points with spacing h."""
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w

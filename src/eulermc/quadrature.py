"""Quadrature rules: Gauss-Legendre nodes on an interval (the control
energy) and trapezoid weights on a uniform grid (the parametrix tables)."""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss


def gauss_legendre(lo: float, hi: float, n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [lo, hi]."""
    x, w = leggauss(n)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def trapezoid_weights(n: int, h: float) -> np.ndarray:
    """Trapezoid weights for n uniformly spaced points with spacing h."""
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w

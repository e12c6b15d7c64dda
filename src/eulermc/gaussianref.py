"""Gaussian reference kernels, the kinetic metric, and their spectra.

The two-parameter kernel family p_c covers both model classes.  In the
non-degenerate case

    p_c(t, x, x') = (c / 2 pi t)^{d/2} exp(-c |x' - x|^2 / (2 t)),

and in the kinetic case, writing v for the first d' coordinates, z for the
rest, dv = v' - v and w = z' - z - (v + v')/2 * t,

    p_c(t, x, x') = (sqrt(3) c / 2 pi t^2)^{d/2}
                    exp(-c [ |dv|^2 / (4 t) + 3 |w|^2 / t^3 ]).

Both are probability densities in x' for every c > 0 and satisfy the
Chapman-Kolmogorov semigroup identity.  The kinetic exponent equals
-(c/2) d_t^2(x, x') for the kinetic metric implemented below, whose own
weights are (1/2t, 6/t^3); the factor 2 sits in c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .model import Case


@dataclass(frozen=True)
class KernelSpec:
    """Kernel p_c(t, x, .) with shape constant c at elapsed time t from x."""

    case: Case
    c: float
    t: float
    x: np.ndarray

    def __post_init__(self):
        if self.c <= 0 or self.t <= 0:
            raise ConfigError("kernel needs c > 0 and t > 0")
        object.__setattr__(self, "x", np.atleast_1d(np.asarray(self.x, dtype=float)))

    @property
    def d(self) -> int:
        return self.x.shape[0]


def kernel_normalizer(case: Case, c: float, t: float, d: int) -> float:
    """Closed-form normalization Z with p_c = Z^{-1} e^{-V}."""
    if case is Case.KINETIC:
        return (2.0 * math.pi * t * t / (math.sqrt(3.0) * c)) ** (d / 2)
    return (2.0 * math.pi * t / c) ** (d / 2)


def kernel_exponent(spec: KernelSpec, xp) -> np.ndarray:
    """Exponent of p_c at x', i.e. log p_c + log Z (vectorized over x')."""
    xp = np.asarray(xp, dtype=float)
    x = spec.x
    c, t = spec.c, spec.t
    if spec.case is Case.KINETIC:
        return -0.5 * c * kinetic_metric(t, x, xp, spec.d // 2)
    diff = xp - x
    return -c * np.sum(diff * diff, axis=-1) / (2.0 * t)


def kernel_density(spec: KernelSpec, xp) -> np.ndarray:
    """Density value of p_c at x' (vectorized over leading axes of x')."""
    log_z = math.log(kernel_normalizer(spec.case, spec.c, spec.t, spec.d))
    return np.exp(kernel_exponent(spec, xp) - log_z)


def _transport(case: Case, x: np.ndarray, t: float) -> np.ndarray:
    """Mean of p_c(t, x, .): free transport of x (identity if non-degenerate)."""
    if case is Case.KINETIC:
        dp = x.shape[0] // 2
        out = x.copy()
        out[dp:] += x[:dp] * t
        return out
    return x.copy()


def _block(spec: KernelSpec):
    """(a, b, e): the covariance of p_c(t, x, .) is a I in the non-degenerate
    case, and [[a, b], [b, e]] per pair (v_k, z_k) in the kinetic case."""
    c, t = spec.c, spec.t
    if spec.case is Case.KINETIC:
        return 2.0 * t / c, t * t / c, 2.0 * t**3 / (3.0 * c)
    return t / c, 0.0, 0.0


def kernel_norm_mean(spec: KernelSpec) -> float:
    """E|Y| for Y ~ p_c(t, x, .), with mean m and covariance Sigma.

    sqrt(q) = (1 / 2 sqrt pi) int_0^inf (1 - e^{-sq}) s^{-3/2} ds gives
    E|Y| = (1 / 2 sqrt pi) int_0^inf (1 - phi(s)) s^{-3/2} ds, where
    phi(s) = E e^{-s|Y|^2} = det(I + 2s Sigma)^{-1/2} exp(-s m'(I + 2s Sigma)^{-1} m).
    Sigma is (t/c) I, or in the kinetic case one 2x2 block [[a, b], [b, e]]
    per pair (v_k, z_k), so det and inverse are closed forms per block.  Y
    is scaled first so that the larger of max Sigma_ii and |m|^2 is 1.  The
    integral is the trapezoid rule in u = log s, step 0.05 on [-60, 60],
    plus the tails beyond, where 1 - phi is 1 and s E|Y|^2 to first order.
    It runs in math (log1p, expm1) and no numpy ufunc, so the value does not
    depend on numpy's dispatch tier.
    """
    m = _transport(spec.case, spec.x, spec.t).tolist()
    a, b, e = _block(spec)
    if spec.case is Case.KINETIC:
        n = spec.d // 2
        v, z = m[:n], m[n:]
    else:  # 1x1 blocks: b = e = 0 and no z
        n, v, z = spec.d, m, []
    vv, vz, zz = (math.fsum(p * q for p, q in zip(*pair)) for pair in ((v, v), (v, z), (z, z)))
    scale = max(a, e, vv + zz)
    if not 0.0 < scale < math.inf:
        raise NumericError(
            "E|Y| under the kernel needs a finite, positive scale (largest variance or "
            f"squared mean), got {scale}"
        )
    a, b, e, vv, vz, zz = (w / scale for w in (a, b, e, vv, vz, zz))
    det = a * e - b * b
    total = 2.0 * math.exp(-30.0) * (1.0 + n * (a + e) + vv + zz)  # the two tails
    for k in range(-1200, 1201):
        s = math.exp(0.05 * k)
        w = 2.0 * s
        grow = w * (a + e) + w * w * det  # det(I + 2sB) - 1
        form = ((1.0 + w * e) * vv - 2.0 * w * b * vz + (1.0 + w * a) * zz) / (1.0 + grow)
        weight = 0.025 if abs(k) == 1200 else 0.05
        total -= weight * math.expm1(-0.5 * n * math.log1p(grow) - s * form) / math.sqrt(s)
    return math.sqrt(scale) * total / (2.0 * math.sqrt(math.pi))


def kinetic_metric(t: float, x, xp, d_prime: int) -> float:
    """Squared kinetic distance |dv|^2/(2t) + 6 |dz - avg t|^2 / t^3.

    dz is compared against the transport of the average velocity
    (v + v')/2 over the elapsed time; the distance vanishes exactly on free
    transport images.
    """
    if t <= 0:
        raise ConfigError("elapsed time must be positive")
    x = np.asarray(x, dtype=float)
    xp = np.asarray(xp, dtype=float)
    dv = xp[..., :d_prime] - x[..., :d_prime]
    w = (
        xp[..., d_prime:]
        - x[..., d_prime:]
        - 0.5 * (x[..., :d_prime] + xp[..., :d_prime]) * t
    )
    return np.sum(dv * dv, axis=-1) / (2.0 * t) + 6.0 * np.sum(w * w, axis=-1) / t**3


def kinetic_root(T: float) -> float:
    """sqrt(1 + T^2/3 + T^4/9), the root in the kinetic potential's spectrum."""
    try:
        return math.sqrt(1.0 + T * T / 3.0 + T**4 / 9.0)
    except OverflowError:
        raise NumericError(f"the kinetic spectrum at T = {T!r} overflows (T^4)") from None


def hessian_spectral_bounds(case: Case, c: float, T: float):
    """Smallest and largest eigenvalue of the potential Hessian.

    Non-degenerate case: both equal c/T.  Kinetic case:
    c/T + (3c/T^3) (1 -/+ kinetic_root(T)).  The smallest is taken as
    det/largest = 3c/(T (T^2 + 3 + 3 root)), which does not cancel as T grows.
    """
    if c <= 0 or T <= 0:
        raise ConfigError("need c > 0 and T > 0")
    if case is Case.KINETIC:
        root = kinetic_root(T)
        cube = T**3
        if cube == 0.0:
            raise NumericError(f"the kinetic spectrum at T = {T!r} underflows (T^3)")
        lo = 3.0 * c / (T * (T * T + 3.0 + 3.0 * root))
        hi = c / T + 3.0 * c / cube * (1.0 + root)
        if not lo > 0.0:
            raise NumericError(f"the least kinetic eigenvalue underflows at c = {c!r}, T = {T!r}")
        return lo, hi
    return c / T, c / T

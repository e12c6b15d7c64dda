"""SDE models, discretization grids, and growth specs.

Two model families are supported.  In the non-degenerate case the noise
drives every coordinate.  In the kinetic case the state splits into a
velocity block of dimension d' = d/2 driven by the noise and a position
block that integrates the velocity; the user supplies coefficients for the
velocity block only.

A growth spec states the paper's growth assumption on a functional; which
functional presets meet it is stated in eulermc.harness, next to them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .errors import ConfigError, NumericError


class Case(Enum):
    NONDEGENERATE = "nondegenerate"
    KINETIC = "kinetic"


@dataclass(frozen=True)
class SdeModel:
    """Diffusion model together with its ellipticity/boundedness metadata.

    drift maps (t, x) with x of shape (..., d) to shape (..., d_prime); for
    kinetic models this is the velocity-block drift only.  drift is None for
    a drift that is zero everywhere: the step then adds 0.0 in place of
    b delta and b delta^2/2, which for finite states and delta > 0 has the
    bits of a +0.0 drift and of the undamped kinetic -0.0 tanh(v).  noise
    maps (t, x, g) with g of shape (..., d_prime) to sigma(t, x) g, of shape
    (..., d_prime): it is linear in g and never writes into g, and it may
    return g itself, as the presets do at sigma0 = 1.  Both callables must
    be vectorized over the leading axes of x and g, which may be strided
    views: simulate_terminal passes (m, d) transposes of row-major (d, m)
    blocks, so the m values of one coordinate are contiguous.

    lambda0 bounds the ellipticity ratio of a = sigma sigma^T into
    [1/lambda0, lambda0], L0 bounds sup|drift| plus the Holder quotient of a
    in space.  Both are properties of the diffusion: each preset computes
    them from its own parameters, and a custom model supplies its own.

    law is (c, b) when X_T from x0 follows the kernel p_c(T, x0 + b T, .)
    exactly, b None for no shift; twin is a model of the same dimension with a
    law that stays close to this one on the same normals.  Either may be None.
    """

    case: Case
    d: int
    drift: Callable[[float, np.ndarray], np.ndarray] | None
    noise: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    lambda0: float
    L0: float
    law: tuple[float, np.ndarray | None] | None = None
    twin: SdeModel | None = None

    def __post_init__(self):
        if self.d < 1:
            raise ConfigError("dimension d must be >= 1")
        if self.case is Case.KINETIC and self.d % 2 != 0:
            raise ConfigError("kinetic models need an even dimension")
        if self.lambda0 <= 0 or self.L0 <= 0:
            raise ConfigError("lambda0 and L0 must be positive")
        if self.twin is not None and (self.twin.law is None or self.twin.d != self.d):
            raise ConfigError("a twin model needs a law and the model's dimension")

    @property
    def d_prime(self) -> int:
        return self.d // 2 if self.case is Case.KINETIC else self.d


@dataclass(frozen=True)
class SchemeGrid:
    """Uniform time grid 0 = t_0 < ... < t_N = T with step T/N."""

    T: float
    N: int
    times: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.T <= 0:
            raise ConfigError("horizon T must be positive")
        if not 1 <= self.N <= 2**24:  # 2**24 steps: 128 MiB of grid times
            raise ConfigError(f"step count N must lie in [1, 2**24], got {self.N:,}")
        times = self.delta * np.arange(self.N + 1, dtype=float)
        times[-1] = self.T  # last step absorbs float rounding
        object.__setattr__(self, "times", times)

    @property
    def delta(self) -> float:
        return self.T / self.N


def sphere_surface_measure(d: int) -> float:
    """Surface measure of the unit sphere in R^d; counts {-1, 1} for d = 1."""
    if d < 1:
        raise ConfigError("dimension must be >= 1")
    if d == 1:
        return 2.0
    try:
        return 2.0 * math.pi ** (d / 2) / math.gamma(d / 2)
    except OverflowError:
        raise NumericError(f"the unit sphere's measure overflows at d = {d}: gamma(d/2)") from None


@dataclass(frozen=True)
class GrowthSpec:
    """Linear growth of slope beta along rays in a direction cone beyond rho0.

    cone_measure is the surface measure of the cone's direction set (the
    number of half-lines, 1 or 2, when d = 1), or None for the full sphere.
    """

    rho0: float
    beta: float
    cone_measure: float | None = None

    def __post_init__(self):
        if self.rho0 <= 0 or self.beta <= 0:
            raise ConfigError("rho0 and beta must be positive")
        if self.cone_measure is not None and self.cone_measure <= 0:
            raise ConfigError("cone_measure must be positive")


# ---------------------------------------------------------------------------
# Model presets.  Custom coefficients are plugged in as Python callables via
# register_model_preset; they are never parsed from text.


def _scalar_noise_lambda0(s0: float) -> float:
    """Ellipticity bound max(s0^2, s0^-2) of the noise s0 I."""
    if s0 == 0.0 or not math.isfinite(s0):
        raise ConfigError(f"sigma0 must be finite and nonzero, got {s0!r}")
    try:
        return max(s0**2, s0**-2)
    except OverflowError:
        raise NumericError(f"sigma0 = {s0!r}: max(sigma0^2, sigma0^-2) overflows") from None


def _scalar_noise(s0: float):
    """The noise s0 g: g itself at s0 = 1, where 1.0 * g has g's bits."""
    if s0 == 1.0:
        return lambda t, x, g: g
    return lambda t, x, g: s0 * g


def _const_model(d=1, b0=0.0, sigma0=1.0):
    d = int(d)
    b = np.atleast_1d(np.asarray(b0, dtype=float))
    if b.shape not in ((1,), (d,)):
        raise ConfigError(f"b0 has {b.size} entries, the model needs 1 or d = {d}")
    b = np.broadcast_to(b, (d,)).copy()
    s0 = float(sigma0)

    def drift(t, x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(b, x.shape[:-1] + (d,))

    # hypot, unlike np.linalg.norm, does not overflow for |b| above 1e154
    L0 = max(1.0, math.hypot(*b))
    lambda0 = _scalar_noise_lambda0(s0)  # first: it refuses a sigma0 whose square underflows
    zero = not (b.any() or np.signbit(b).any())  # +0.0 everywhere: no drift (SdeModel)
    return SdeModel(
        Case.NONDEGENERATE, d, None if zero else drift, _scalar_noise(s0), lambda0, L0,
        law=(1.0 / s0**2, b),
    )


def _trig_model(b_amp=0.0, a_amp=0.1):
    """Scalar model with a(x) = 1 + a_amp sin(x) and drift b_amp sin(x)."""
    a_amp = float(a_amp)
    b_amp = float(b_amp)
    if not 0 <= a_amp < 1:
        raise ConfigError("a_amp must lie in [0, 1) to keep the model elliptic")

    def drift(t, x):
        x = np.asarray(x, dtype=float)
        return b_amp * np.sin(x)

    def noise(t, x, g):
        x = np.asarray(x, dtype=float)
        return np.sqrt(1.0 + a_amp * np.sin(x)) * g

    lambda0 = 1.0 / (1.0 - a_amp) if a_amp > 0 else 1.0
    L0 = max(1.0, abs(b_amp) + a_amp)
    # the twin keeps the unit noise and drops both sines
    return SdeModel(Case.NONDEGENERATE, 1, drift, noise, lambda0, L0, twin=_const_model())


def _kinetic_model(dp=1, damp=0.0, sigma0=1.0):
    """Velocity/position model; velocity drift -damp tanh(v), noise sigma0 I."""
    dp = int(dp)
    damp = float(damp)
    s0 = float(sigma0)

    def drift(t, x):
        x = np.asarray(x, dtype=float)
        return -damp * np.tanh(x[..., :dp])

    L0 = max(1.0, abs(damp) * math.sqrt(dp))
    lambda0 = _scalar_noise_lambda0(s0)  # first: it refuses a sigma0 whose square underflows
    # undamped, X_T follows p_c(T, x0, .); damped, the twin drops the damping
    law = (2.0 / s0**2, None) if damp == 0.0 else None
    twin = None if law else _kinetic_model(dp, 0.0, s0)
    # -0.0 tanh(v) is a drift the step may drop (SdeModel); at damp = -0.0,
    # +0.0 tanh(v) is not: its zeros have v's sign
    zero = damp == 0.0 and math.copysign(1.0, damp) > 0
    return SdeModel(
        Case.KINETIC, 2 * dp, None if zero else drift, _scalar_noise(s0), lambda0, L0, law, twin
    )


MODEL_PRESETS = {
    "const": _const_model,
    "trig": _trig_model,
    "kinetic": _kinetic_model,
}


def register_model_preset(name: str, builder) -> None:
    MODEL_PRESETS[name] = builder


def model_preset(name: str, **params) -> SdeModel:
    try:
        builder = MODEL_PRESETS[name]
    except KeyError:
        raise ConfigError(f"unknown model preset {name!r}") from None
    return builder(**params)

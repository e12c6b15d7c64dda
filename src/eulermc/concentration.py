"""Concentration constants and non-asymptotic Monte Carlo deviation bounds.

Upper side: a batch mean of a 1-Lipschitz functional of the scheme deviates
from its expectation by more than r + delta with probability at most
2 exp(-M r^2 / alpha), where alpha is the log-Sobolev constant of the
dominating Gaussian kernel and delta = 2 sqrt(alpha log C) is an
M-independent bias coming from the domination constant.

Lower side: under a cone growth assumption on the functional the deviation
probability is at least 2 exp(-M (1/alpha_lower) max(r/beta, rho0)^2), with
an explicit rate 1/alpha_lower = Lambda + chi assembled from the flat
Gaussian lower envelope and a cone-measure penalty chi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ArgumentError, NumericError
from .gaussianref import (
    KernelSpec,
    cone_constant,
    hessian_spectral_bounds,
    kernel_norm_mean,
    kinetic_root,
)
from .model import Case, GrowthSpec

SQRT13 = math.sqrt(13.0)


def concentration_alpha(case: Case, c: float, T: float) -> float:
    """Sub-Gaussian constant alpha of the dominating kernel at horizon T.

    Equals 2/lambda_min of the kernel potential's Hessian: 2T/c in the
    non-degenerate case, and in the kinetic case the inverse of
    (c/2T) (1 + (3/T^2)(1 - sqrt(1 + T^2/3 + T^4/9))).
    """
    return 2.0 / hessian_spectral_bounds(case, c, T)[0]


def concentration_alpha_normalized(c: float, T: float) -> float:
    """alpha for kinetic functionals of (velocity, position/T).

    The time-normalized potential Hessian is (c/T) [[2, -3], [-3, 6]] per
    coordinate pair, with smallest eigenvalue (4 - sqrt(13)) c / T, so
    alpha = 2T / ((4 - sqrt(13)) c).  (Stated elsewhere as
    alpha = (4 - sqrt(13)) c / T, which is the eigenvalue itself and does
    not scale like a squared deviation; the LSI reading is used here.)
    """
    if c <= 0 or T <= 0:
        raise ArgumentError("need c > 0 and T > 0")
    return 2.0 * T / ((4.0 - SQRT13) * c)


def domination_bias(C: float, alpha: float) -> float:
    """M-independent bias 2 sqrt(alpha log C)."""
    if C < 1:
        raise ArgumentError("domination constant C must be >= 1")
    if alpha <= 0:
        raise ArgumentError("alpha must be positive")
    return 2.0 * math.sqrt(alpha * math.log(C))


def upper_tail_bound(r: float, M: int, alpha: float) -> float:
    """Raw bound 2 exp(-M r^2 / alpha); clipping at 1 is a display concern."""
    if r < 0 or M < 1 or alpha <= 0:
        raise ArgumentError("need r >= 0, M >= 1, alpha > 0")
    return 2.0 * math.exp(-M * r * r / alpha)


def confidence_radius(epsilon: float, M: int, alpha: float) -> float:
    """Radius r with upper_tail_bound(r, M, alpha) = epsilon."""
    if not 0.0 < epsilon <= 2.0:
        raise ArgumentError("epsilon must lie in (0, 2]")
    return math.sqrt(alpha / M * math.log(2.0 / epsilon))


def _log_plus(value: float) -> float:
    return max(math.log(value), 0.0) if value > 0 else 0.0


def growth_penalty(
    case: Case,
    d: int,
    rho0: float,
    C: float,
    cone_measure: float,
    theta: float | None = None,
    T: float | None = None,
) -> float:
    """Additive penalty chi in the lower deviation rate.

    Non-degenerate, even d:  log(pi^{d/2} C / K(d, A))_+ / rho0^2.
    Non-degenerate, odd d:   same with K(d, A) arccos(theta^{-1/2}).
    Kinetic (even d only):
      log((pi/T)^{d/2} [T^2 + 3(1 + sqrt(1 + T^2/3 + T^4/9))]^{d/2} C
          / K(d, A))_+ / rho0^2.
    chi is 0 where rho0^2 overflows and inf where it underflows to 0.
    """
    if rho0 <= 0:
        raise ArgumentError("rho0 must be positive")
    if C < 1:
        raise ArgumentError("C must be >= 1")
    K = cone_constant(d, cone_measure)
    if case is Case.KINETIC:
        if d % 2 != 0:
            raise ArgumentError("kinetic models have even dimension")
        if T is None or T <= 0:
            raise ArgumentError("kinetic penalty needs T > 0")
        inner = (math.pi / T) ** (d / 2) * (T * T + 3.0 * (1.0 + kinetic_root(T))) ** (d / 2)
        numerator = _log_plus(inner * C / K)
    elif d % 2 == 0:
        numerator = _log_plus(math.pi ** (d / 2) * C / K)
    elif theta is None or theta <= 1:
        raise ArgumentError("odd dimensions need theta > 1")
    else:
        numerator = _log_plus(math.pi ** (d / 2) * C / (K * math.acos(theta**-0.5)))
    try:
        return numerator / rho0**2 if numerator > 0 else 0.0
    except OverflowError:  # rho0^2 is past the float range
        return 0.0
    except ZeroDivisionError:  # rho0^2 underflows to 0
        return math.inf


@dataclass(frozen=True)
class LowerRate:
    inv_alpha: float  # 1/alpha_lower = Lambda + chi (theta Lambda + chi, odd d)
    lam: float  # Lambda, the flat-envelope curvature term
    chi: float


def lower_rate(
    case: Case,
    d: int,
    c: float,
    T: float,
    rho0: float,
    C: float,
    cone_measure: float,
    theta: float | None = None,
) -> LowerRate:
    """Lower deviation rate with Lambda = lambda_max/2 of the c^{-1} kernel.

    Valid when the lower-envelope Gaussian is centered at the cone's sphere
    center, so its potential and gradient vanish there.
    """
    lam_bar = hessian_spectral_bounds(case, 1.0 / c, T)[1]
    lam = lam_bar / 2.0
    # growth_penalty refuses an odd-d non-degenerate theta that is not > 1
    chi = growth_penalty(case, d, rho0, C, cone_measure, theta=theta, T=T)
    if case is not Case.KINETIC and d % 2 == 1:
        inv = theta * lam + chi
    else:
        inv = lam + chi
    return LowerRate(inv_alpha=inv, lam=lam, chi=chi)


def lower_tail_bound(
    r: float, M: int, inv_rate: float, beta: float, rho0: float
) -> float:
    """2 exp(-M inv_rate max(r/beta, rho0)^2); constant plateau below beta rho0."""
    if r <= 0 or M < 1:
        raise ArgumentError("need r > 0 and M >= 1")
    try:
        square = max(r / beta, rho0) ** 2
    except OverflowError:  # past the float range: the bound is 0
        return 0.0
    return 2.0 * math.exp(-M * inv_rate * square)


@dataclass(frozen=True)
class LowerBias:
    value: float
    gamma_term: float  # mean of F under the c^{-1} kernel


def lower_bias(
    case: Case,
    c: float,
    C: float,
    T: float,
    alpha: float,
    x,
    growth: GrowthSpec,
    floor: float,
) -> LowerBias:
    """Bias (1 + sqrt 2) sqrt(alpha log C) + gamma(F) + rho0 beta - floor,
    where floor is inf F over the rho0 sphere.

    F is the norm |y|, the one functional preset that grows
    (harness.sphere_floor), so gamma(F), its mean under the c^{-1} kernel
    started at x, is kernel_norm_mean.
    """
    gamma_term = kernel_norm_mean(KernelSpec(case, 1.0 / c, T, x))
    log_term = (1.0 + math.sqrt(2.0)) * math.sqrt(alpha * math.log(C))
    slope_term = growth.rho0 * growth.beta
    value = log_term + gamma_term + slope_term - floor
    # slope_term - floor cancels at beta = 1, after a large rho0 has rounded gamma_F away
    exact = math.fsum((log_term, gamma_term, slope_term, -floor))
    if abs(value - exact) > 1e-9 * abs(exact):
        raise NumericError(f"rho0 beta = {slope_term!r} swamps gamma_F in bar_delta = {value!r}")
    return LowerBias(value=value, gamma_term=gamma_term)

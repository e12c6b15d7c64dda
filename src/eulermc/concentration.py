"""Concentration constants and non-asymptotic Monte Carlo deviation bounds.

Upper side: a batch mean of a 1-Lipschitz functional of the scheme deviates
from its expectation by more than r + delta with probability at most
2 exp(-M r^2 / alpha), where alpha is the log-Sobolev constant of the
dominating Gaussian kernel and delta = 2 sqrt(alpha log C) is an
M-independent bias coming from the domination constant.

Lower side: under a cone growth assumption on the functional the deviation
probability is at least 2 exp(-M (1/alpha_lower) max(r/beta, rho0)^2), with
an explicit rate 1/alpha_lower = Lambda + chi assembled from the flat
Gaussian lower envelope and a penalty chi from the cone's share of the
sphere.
"""

from __future__ import annotations

import math

from .errors import ConfigError, NumericError
from .gaussianref import KernelSpec, hessian_spectral_bounds, kernel_norm_mean, kinetic_root
from .model import Case, GrowthSpec, sphere_surface_measure

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
        raise ConfigError("need c > 0 and T > 0")
    return 2.0 * T / ((4.0 - SQRT13) * c)


def domination_bias(C: float, alpha: float) -> float:
    """M-independent bias 2 sqrt(alpha log C)."""
    if C < 1:
        raise ConfigError("domination constant C must be >= 1")
    if alpha <= 0:
        raise ConfigError("alpha must be positive")
    return 2.0 * math.sqrt(alpha * math.log(C))


def upper_tail_bound(r: float, M: int, alpha: float) -> float:
    """Raw bound 2 exp(-M r^2 / alpha); clipping at 1 is a display concern."""
    if r < 0 or M < 1 or alpha <= 0:
        raise ConfigError("need r >= 0, M >= 1, alpha > 0")
    return 2.0 * math.exp(-M * r * r / alpha)


def confidence_radius(epsilon: float, M: int, alpha: float) -> float:
    """Radius r with upper_tail_bound(r, M, alpha) = epsilon."""
    if not 0.0 < epsilon <= 2.0:
        raise ConfigError("epsilon must lie in (0, 2]")
    return math.sqrt(alpha / M * math.log(2.0 / epsilon))


def lower_constants(
    case: Case, d: int, c: float, C: float, T: float, alpha: float, x0, growth: GrowthSpec,
    floor: float, theta: float | None,
) -> dict:
    """The lower-bound constants of F = |y| from x0 that bounds.json and
    concentration.json report; floor is inf F over the rho0 sphere.

    Rate 1/alpha_lower = Lambda + chi, theta Lambda + chi in non-degenerate
    odd d (theta > 1, 2 by default), with Lambda = lambda_max/2 of the c^{-1}
    kernel: valid when the lower-envelope Gaussian is centered at the cone's
    sphere center, so its potential and gradient vanish there.  Penalty
    chi = (log C - log share + log q)_+ / rho0^2, with share = |A| / |S^{d-1}|
    the cone's share of the unit sphere (1 for the full sphere, which takes
    no Gamma function), and q = 1 in even d, pi / (2 arccos(theta^{-1/2})) in
    odd d, and in the kinetic case [(T^2 + 3(1 + sqrt(1 + T^2/3 + T^4/9))) / T]^{d/2},
    taken in log form so that it cannot overflow; chi is 0 where rho0^2
    overflows and inf where it underflows to 0.  Bias
    bar_delta = (1 + sqrt 2) sqrt(alpha log C) + gamma_F + rho0 beta - floor,
    with gamma_F the mean of |y| under the c^{-1} kernel from x0.
    """
    lam = hessian_spectral_bounds(case, 1.0 / c, T)[1] / 2.0
    if C < 1:
        raise ConfigError("C must be >= 1")
    if case is Case.KINETIC and d % 2 != 0:
        raise ConfigError("kinetic models have even dimension")
    odd = case is not Case.KINETIC and d % 2 == 1
    if odd:
        theta = 2.0 if theta is None else theta
        if theta <= 1:
            raise ConfigError("odd dimensions need theta > 1")
    if growth.cone_measure is None:
        log_share = 0.0
    else:
        log_share = math.log(growth.cone_measure) - math.log(sphere_surface_measure(d))
    if case is Case.KINETIC:
        log_q = d / 2 * math.log((T * T + 3.0 * (1.0 + kinetic_root(T))) / T)
    else:
        log_q = math.log(math.pi / (2.0 * math.acos(theta**-0.5))) if odd else 0.0
    numerator = max(math.log(C) - log_share + log_q, 0.0)
    try:
        chi = numerator / growth.rho0**2 if numerator > 0 else 0.0
    except OverflowError:  # rho0^2 is past the float range
        chi = 0.0
    except ZeroDivisionError:  # rho0^2 underflows to 0
        chi = math.inf
    inv_alpha = theta * lam + chi if odd else lam + chi
    gamma_F = kernel_norm_mean(KernelSpec(case, 1.0 / c, T, x0))
    log_term = (1.0 + math.sqrt(2.0)) * math.sqrt(alpha * math.log(C))
    slope_term = growth.rho0 * growth.beta
    bias = log_term + gamma_F + slope_term - floor
    # slope_term - floor cancels at beta = 1, after a large rho0 has rounded gamma_F away
    exact = math.fsum((log_term, gamma_F, slope_term, -floor))
    if abs(bias - exact) > 1e-9 * abs(exact):
        raise NumericError(f"rho0 beta = {slope_term!r} swamps gamma_F in bar_delta = {bias!r}")
    return {
        "chi": chi,
        "bar_alpha_inv": inv_alpha,
        "bar_delta": bias,
        "gamma_F": gamma_F,
        "F_floor": floor,
        "theta": theta,
    }


def lower_tail_bound(
    r: float, M: int, inv_rate: float, beta: float, rho0: float
) -> float:
    """2 exp(-M inv_rate max(r/beta, rho0)^2); constant plateau below beta rho0."""
    if r <= 0 or M < 1:
        raise ConfigError("need r > 0 and M >= 1")
    try:
        square = max(r / beta, rho0) ** 2
    except OverflowError:  # past the float range: the bound is 0
        return 0.0
    return 2.0 * math.exp(-M * inv_rate * square)

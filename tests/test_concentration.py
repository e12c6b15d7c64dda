import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eulermc import concentration as conc
from eulermc.errors import ConfigError, NumericError
from eulermc.gaussianref import hessian_spectral_bounds
from eulermc.harness import ExperimentConfig, _bound_report, build_model
from eulermc.model import Case, GrowthSpec, sphere_surface_measure
from oracles import cone_constant, folded_normal_mean, noncentral_chi3_mean

SQ13 = math.sqrt(13.0)


def test_alpha_case_a():
    assert conc.concentration_alpha(Case.NONDEGENERATE, 1.0, 2.0) == pytest.approx(4.0)
    # consistency with the isotropic Hessian
    lo, _ = hessian_spectral_bounds(Case.NONDEGENERATE, 0.7, 1.3)
    assert conc.concentration_alpha(Case.NONDEGENERATE, 0.7, 1.3) == pytest.approx(
        2.0 / lo, rel=1e-14
    )


def test_alpha_kinetic_unit():
    assert conc.concentration_alpha(Case.KINETIC, 1.0, 1.0) == pytest.approx(
        2.0 / (4.0 - SQ13), rel=1e-12
    )


def test_alpha_kinetic_equals_lsi_of_min_eigenvalue():
    rng = np.random.default_rng(1)
    for _ in range(100):
        c = float(rng.uniform(0.1, 4.0))
        T = float(rng.uniform(0.05, 8.0))
        lo, _ = hessian_spectral_bounds(Case.KINETIC, c, T)
        assert conc.concentration_alpha(Case.KINETIC, c, T) == pytest.approx(
            2.0 / lo, rel=1e-12
        )


def test_alpha_kinetic_short_time_limit():
    # the kernel's velocity block has weight 1/(4t), so its short-time LSI
    # constant is 4T/c (twice the non-degenerate-kernel value 2T/c)
    T = 1e-3
    a = conc.concentration_alpha(Case.KINETIC, 1.0, T)
    assert abs(a / (4.0 * T) - 1.0) < 1e-3


def test_alpha_normalized():
    val = conc.concentration_alpha_normalized(1.0, 1.0)
    assert val == pytest.approx(2.0 / (4.0 - SQ13), rel=1e-12)
    # linear homogeneity in T
    assert conc.concentration_alpha_normalized(1.0, 2.0) == pytest.approx(2 * val)
    # matches the eigensolver on the T-normalized Hessian
    rng = np.random.default_rng(2)
    for _ in range(50):
        c = float(rng.uniform(0.2, 3.0))
        T = float(rng.uniform(0.1, 5.0))
        h = c / T * np.array([[2.0, -3.0], [-3.0, 6.0]])
        lam_min = float(np.linalg.eigvalsh(h)[0])
        assert conc.concentration_alpha_normalized(c, T) == pytest.approx(
            2.0 / lam_min, rel=1e-12
        )


def test_domination_bias():
    assert conc.domination_bias(1.0, 3.0) == 0.0
    assert conc.domination_bias(math.e, 2.0) == pytest.approx(2 * math.sqrt(2.0))
    assert conc.domination_bias(math.exp(4.0), 4.0) == pytest.approx(8.0)
    with pytest.raises(ConfigError):
        conc.domination_bias(0.5, 1.0)


def test_upper_tail_values():
    assert conc.upper_tail_bound(0.0, 10, 1.0) == 2.0
    assert conc.upper_tail_bound(0.2, 100, 2.0) == pytest.approx(2 * math.exp(-2.0))
    r = np.linspace(0, 1, 9)
    vals = [conc.upper_tail_bound(float(x), 50, 2.0) for x in r]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert conc.upper_tail_bound(0.5, 200, 2.0) < conc.upper_tail_bound(0.5, 100, 2.0)


def test_confidence_radius():
    assert conc.confidence_radius(2.0, 10, 1.0) == 0.0
    want = math.sqrt(2.0 * math.log(40.0) / 1000.0)
    assert conc.confidence_radius(0.05, 1000, 2.0) == pytest.approx(want, rel=1e-12)
    assert want == pytest.approx(0.085894, abs=5e-7)
    with pytest.raises(ConfigError):
        conc.confidence_radius(2.5, 10, 1.0)


@settings(max_examples=100, deadline=None)
@given(
    eps=st.floats(min_value=1e-6, max_value=1.999),
    M=st.integers(min_value=1, max_value=10**6),
    alpha=st.floats(min_value=1e-3, max_value=1e3),
)
def test_radius_bound_round_trip(eps, M, alpha):
    r = conc.confidence_radius(eps, M, alpha)
    assert conc.upper_tail_bound(r, M, alpha) == pytest.approx(eps, rel=1e-12)


def lower(d=2, c=1.0, C=1.0, T=1.0, alpha=2.0, x0=None, rho0=1.0, beta=1.0, measure=None,
          floor=None, theta=None, case=Case.NONDEGENERATE):
    """conc.lower_constants of F = |y|, by default from 0 on the full sphere
    (measure None) with floor rho0, as harness._bound_report passes them."""
    growth = GrowthSpec(rho0, beta, measure)
    x0 = np.zeros(d) if x0 is None else np.asarray(x0, dtype=float)
    return conc.lower_constants(
        case, d, c, C, T, alpha, x0, growth, rho0 if floor is None else floor, theta
    )


def test_growth_penalty_case_a():
    # a cone of measure 2 pi is the whole circle: share 1, so C = 1 gives chi 0
    assert lower(measure=2 * math.pi)["chi"] == 0.0
    assert lower(C=math.e, measure=2 * math.pi)["chi"] == pytest.approx(1.0)


def _chi_from_cone_constant(case, d, C, T, theta, measure, rho0):
    """log(pi^{d/2} C / (K(d, A) [arccos(theta^{-1/2}) in odd d]))_+ / rho0^2,
    and its kinetic form with (pi/T)^{d/2} [T^2 + 3(1 + root)]^{d/2} for
    pi^{d/2}, from the oracle's K(d, A)."""
    K = cone_constant(d, sphere_surface_measure(d) if measure is None else measure)
    if case is Case.KINETIC:
        root = math.sqrt(1 + T**2 / 3 + T**4 / 9)
        ratio = (math.pi / T) ** (d / 2) * (T * T + 3 * (1 + root)) ** (d / 2) * C / K
    else:
        ratio = math.pi ** (d / 2) * C / (K * math.acos(theta**-0.5) if d % 2 else K)
    return max(math.log(ratio), 0.0) / rho0**2


def test_chi_from_the_cone_share_matches_the_cone_constant_form():
    # share = |A| / |S^{d-1}|; where the old ratio is 1 up to rounding (even d,
    # C = 1) its log is within 1e-15 of the 0 that the share form gives
    cases = [
        (Case.NONDEGENERATE, d, C, 1.0, theta, None, 1.0)
        for d in range(1, 41) for theta in (2.0, 3.0) for C in (1.0, 1.5, 3.0)
    ]
    cases += [
        (Case.NONDEGENERATE, d, C, 1.0, 2.0, measure, rho0)
        for d in range(1, 6) for measure in (0.1, 1.0, 2.0, 2 * math.pi, 7.0)
        for C in (1.0, 3.0) for rho0 in (0.5, 1.0)
    ]
    cases += [
        (Case.KINETIC, 2 * dp, C, T, None, None, 1.0)
        for dp in (1, 2, 3) for T in (0.1, 1.0, 10.0) for C in (1.0, 1.5, 3.0)
    ]
    for case, d, C, T, theta, measure, rho0 in cases:
        got = lower(d=d, C=C, T=T, theta=theta, measure=measure, rho0=rho0, case=case)["chi"]
        want = _chi_from_cone_constant(case, d, C, T, theta, measure, rho0)
        assert got == pytest.approx(want, rel=1e-14, abs=1e-15), (case, d, C, T, theta, measure)


def test_chi_is_zero_on_the_full_even_sphere_at_c_one():
    # share 1 and q = 1: log C - 0 + 0 is exactly 0, in every even d
    for d in (*range(2, 41, 2), 342, 344, 4096):
        assert lower(d=d)["chi"] == 0.0


def test_numeric_cone_of_the_whole_sphere_is_the_full_sphere():
    # |A| = |S^{d-1}| gives log share = 0 exactly: cone 2 in d = 1, 2 pi in d = 2
    for d, measure in ((1, 2.0), (2, 2 * math.pi)):
        for C in (1.0, 1.5, 3.0):
            assert lower(d=d, C=C, measure=measure) == lower(d=d, C=C)


def test_growth_penalty_monotonicity():
    base = lower(C=5.0, measure=2 * math.pi)["chi"]
    assert lower(C=10.0, measure=2 * math.pi)["chi"] > base
    assert lower(C=5.0, measure=math.pi)["chi"] > base
    assert base >= 0.0


def test_growth_penalty_odd_d_needs_theta():
    # theta defaults to 2 in odd d, and must exceed 1
    for theta in (1.0, 0.5):
        with pytest.raises(ConfigError, match="odd dimensions need theta > 1"):
            lower(d=3, C=2.0, measure=4 * math.pi, theta=theta)
    default = lower(d=3, C=2.0, measure=4 * math.pi)
    assert default == lower(d=3, C=2.0, measure=4 * math.pi, theta=2.0)
    assert default["theta"] == 2.0 and default["chi"] >= 0.0
    # even d reads no theta, and reports the one given
    assert lower(theta=3.0)["bar_alpha_inv"] == lower()["bar_alpha_inv"]
    assert lower(theta=3.0)["theta"] == 3.0 and lower()["theta"] is None


def test_growth_penalty_kinetic_display():
    # displayed form: ((pi/T)^{d/2} [T^2 + 3(1 + sqrt(1 + T^2/3 + T^4/9))]^{d/2} C / K)_+
    T, d, C = 1.3, 2, 1.5
    root = math.sqrt(1 + T**2 / 3 + T**4 / 9)
    inner = (math.pi / T) * (T * T + 3 * (1 + root)) * C / math.pi  # K(2, 2 pi) = pi
    want = math.log(inner) / 1.0
    got = lower(d=d, C=C, T=T, measure=2 * math.pi, case=Case.KINETIC)["chi"]
    assert got == pytest.approx(want, rel=1e-12)
    with pytest.raises(ConfigError):
        lower(d=3, measure=1.0, case=Case.KINETIC)


def test_growth_penalty_past_the_float_range_of_rho0_squared():
    # d = 1: log q = log(pi / (2 arccos(theta^-1/2))) = log 2 > 0; d = 2: 0.
    # floor 0 keeps rho0 beta - floor from cancelling in bar_delta
    def chi(d, rho0):
        return lower(d=d, rho0=rho0, measure=2.0 if d == 1 else 2 * math.pi, floor=0.0)["chi"]

    assert (chi(1, 1e-300), chi(1, 1e200)) == (math.inf, 0.0)
    assert chi(2, 1e-300) == 0.0


def test_lower_rate_case_a_even():
    k = lower(measure=2 * math.pi)
    assert k["chi"] == 0.0
    assert k["bar_alpha_inv"] == pytest.approx(0.5, rel=1e-14)


def test_lower_rate_kinetic_lambda():
    # Lambda = bar_alpha_inv - chi, with chi > 0 here
    k = lower(measure=2 * math.pi, case=Case.KINETIC)
    assert k["chi"] > 0.0
    assert k["bar_alpha_inv"] - k["chi"] == pytest.approx(0.5 * (4.0 + SQ13), rel=1e-12)


def test_lower_rate_lambda_is_half_max_eigenvalue():
    rng = np.random.default_rng(4)
    for _ in range(50):
        c = float(rng.uniform(0.2, 3.0))
        T = float(rng.uniform(0.1, 5.0))
        k = lower(c=c, T=T, measure=2 * math.pi, case=Case.KINETIC)
        lam_bar = hessian_spectral_bounds(Case.KINETIC, 1.0 / c, T)[1]
        assert k["bar_alpha_inv"] - k["chi"] == pytest.approx(lam_bar / 2.0, rel=1e-12)


def test_lower_rate_odd_uses_theta():
    lam = hessian_spectral_bounds(Case.NONDEGENERATE, 1.0, 1.0)[1] / 2.0
    k2 = lower(d=1, measure=2.0, theta=2.0)
    k3 = lower(d=1, measure=2.0, theta=3.0)
    assert k3["bar_alpha_inv"] - k3["chi"] == pytest.approx(3.0 * lam)
    assert k2["bar_alpha_inv"] == pytest.approx(2.0 * lam + k2["chi"])


@settings(max_examples=80, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=6),
    c=st.floats(min_value=1e-2, max_value=1e2),
    T=st.floats(min_value=1e-2, max_value=1e2),
    rho0=st.floats(min_value=1e-2, max_value=10.0),
    C=st.floats(min_value=1.0, max_value=1e6),
    kinetic=st.booleans(),
)
def test_assembled_constants_finite(d, c, T, rho0, C, kinetic):
    if kinetic:
        case, dd = Case.KINETIC, 2 * ((d + 1) // 2)
    else:
        case, dd = Case.NONDEGENERATE, d
    alpha = conc.concentration_alpha(case, c, T)
    k = lower(d=dd, c=c, C=C, T=T, alpha=alpha, rho0=rho0, case=case)  # theta 2 in odd d
    assert math.isfinite(k["chi"]) and k["chi"] >= 0.0
    assert math.isfinite(k["bar_alpha_inv"]) and k["bar_alpha_inv"] > 0.0
    assert math.isfinite(k["bar_delta"])
    assert math.isfinite(conc.domination_bias(C, alpha))
    # bounds stay monotone where claimed
    lo1 = conc.lower_tail_bound(2 * rho0, 3, k["bar_alpha_inv"], 1.0, rho0)
    lo2 = conc.lower_tail_bound(4 * rho0, 3, k["bar_alpha_inv"], 1.0, rho0)
    assert lo2 <= lo1


def test_lower_tail_bound():
    # plateau below beta * rho0
    v1 = conc.lower_tail_bound(0.2, 5, 0.5, 1.0, 1.0)
    v2 = conc.lower_tail_bound(0.9, 5, 0.5, 1.0, 1.0)
    assert v1 == v2
    assert conc.lower_tail_bound(2.0, 1, 0.5, 1.0, 1.0) == pytest.approx(
        2 * math.exp(-2.0)
    )
    assert conc.lower_tail_bound(3.0, 5, 0.5, 1.0, 1.0) < v1
    # (r / beta)^2 past the float range: the bound underflows to exactly 0
    assert conc.lower_tail_bound(0.5, 1, 0.5, 1e-300, 1.0) == 0.0


def _chi_pair_deviation(d: int, thr: float) -> float:
    """P(|(Y1 + Y2)/2 - E Y1| >= thr) for independent chi_d Y1 and Y2, by a
    1-D quadrature of their convolution in scipy.special's incomplete gammas."""
    from scipy.integrate import quad
    from scipy.special import gammainc, gammaincc, gammaln

    log_norm = (d / 2 - 1) * math.log(2.0) + gammaln(d / 2)

    def pdf(y):
        return math.exp((d - 1) * math.log(y) - y * y / 2 - log_norm) if y > 0 else 0.0

    def cdf(x):
        return gammainc(d / 2, x * x / 2) if x > 0 else 0.0

    def sf(x):
        return gammaincc(d / 2, x * x / 2) if x > 0 else 1.0

    mean = math.sqrt(2.0) * math.exp(gammaln((d + 1) / 2) - gammaln(d / 2))
    hi, lo = 2.0 * (mean + thr), 2.0 * (mean - thr)
    # P(Y1 + Y2 >= hi): Y1 >= hi alone, else Y2 >= hi - Y1; likewise below lo
    upper = sf(hi) + quad(lambda y: pdf(y) * sf(hi - y), 0.0, hi, epsabs=0.0, epsrel=1e-10)[0]
    if lo <= 0:
        return upper
    return upper + quad(lambda y: pdf(y) * cdf(lo - y), 0.0, lo, epsabs=0.0, epsrel=1e-10)[0]


@pytest.mark.parametrize(
    "d, M",
    [
        pytest.param(1, 1, id="1"),
        pytest.param(2, 1, id="2", marks=pytest.mark.xfail(
            strict=True, raises=AssertionError, reason=(
                "ROADMAP item 7: the lower bound fails on the exact law in d = 2; at r = 2.355 "
                "the exact probability is 0.0739 against a bound of 0.1249"
            ),
        )),
        pytest.param(3, 1, id="3"),
        pytest.param(4, 1, id="4"),
        *(pytest.param(d, 2, id=f"{d}-M2") for d in (1, 2, 3, 4)),
    ],
)
def test_lower_tail_bound_holds_on_the_exact_chi_law(d, M):
    from scipy.stats import chi

    # the const preset with unit noise from 0 simulates X_T ~ N(0, I_d)
    # exactly, so at M = 1 the batch mean |X_T| follows chi_d, and at M = 2
    # it is the mean of two independent chi_d; the reference is their mean.
    # The grid keeps the radii that a run tests, those with a positive
    # threshold r - bar_delta (lower_empirical), and at M = 2 those where the
    # bound is at least 1e-12, within the quadrature's reach
    cfg = ExperimentConfig.from_dict(dict(
        preset="const", d=d, x0=[0.0], M=M, c=1.0, C=1.0, functional="abs", rho0=1.0, beta=1.0,
    ))
    constants = _bound_report(cfg, build_model(cfg))["constants"]
    r = np.linspace(0.01, 6.0, 600)
    bound = np.array([conc.lower_tail_bound(x, M, constants["bar_alpha_inv"], 1.0, 1.0) for x in r])
    thr = r - constants["bar_delta"]
    keep = (thr > 0) & (bound >= 1e-12) if M == 2 else thr > 0
    r, thr, bound = r[keep], thr[keep], bound[keep]
    if M == 1:
        mean = chi.mean(d)
        exact = chi.sf(mean + thr, d) + chi.cdf(mean - thr, d)
    else:
        exact = np.array([_chi_pair_deviation(d, t) for t in thr])
    assert r.size > (400 if M == 1 else 100)
    assert not (exact < bound).any(), f"exact below the bound at r = {r[exact < bound]}"


@pytest.mark.parametrize(
    "fields, functional, M, c, law",
    [
        *(
            pytest.param(dict(preset="const", d=d), fn, M, 1.0, 1.0, id=f"const-{fn}-{d}-M{M}")
            for fn in ("identity", "sum") for d in (1, 2, 3, 4) for M in (1, 2)
        ),
        *(
            pytest.param(dict(preset="const", d=d), "abs", M, 1.0, "chi", id=f"const-abs-{d}-M{M}")
            for d in (1, 2, 3, 4) for M in (1, 2)
        ),
        *(
            pytest.param(
                dict(preset="kinetic", dp=dp), fn, M, 2.0, var, id=f"kinetic-{fn}-{dp}-M{M}"
            )
            for fn, var in (("identity", 1.0), ("asian-diff", 1.0 / 6.0))
            for dp in (1, 2) for M in (1, 2)
        ),
        pytest.param(
            dict(preset="const", sigma0=1.5), "identity", 1, 1.0, 2.25, id="const-sigma0-1.5",
            marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
                "ROADMAP item 15: c = 1 lies above the law's c = 1/sigma0^2 = 0.444, so the "
                "envelope fails; at r = 3.255 the exact probability is 0.0300 against a bound "
                "of 0.0100"
            )),
        ),
    ],
)
def test_upper_tail_bound_holds_on_the_exact_law(fields, functional, M, c, law):
    from scipy.stats import chi

    # from 0 both presets simulate X_T exactly: const as N(0, sigma0^2 I_d),
    # undamped kinetic (law c = 2) with velocity N(0, T) and v - x/T of
    # variance T/3 per coordinate.  So at T = 1 f(X_T) is Gaussian with
    # variance law (sigma0^2 for identity and sum, 1/6 for asian-diff), or
    # chi_d for abs.  alpha_T and delta_bias are the program's own, at C = 1
    cfg = ExperimentConfig.from_dict(dict(fields, M=M, c=c, C=1.0, functional=functional))
    model = build_model(cfg)
    report = _bound_report(cfg, model)
    r = np.linspace(0.0, 8.0, 801)[1:]
    bound = np.array([conc.upper_tail_bound(x, M, report["alpha_T"]) for x in r])
    thr = r + report["delta_bias"]
    if law != "chi":
        exact = np.array([math.erfc(t * math.sqrt(M / (2.0 * law))) for t in thr])
    elif M == 1:
        mean = chi.mean(model.d)
        exact = chi.sf(mean + thr, model.d) + chi.cdf(mean - thr, model.d)
    else:
        exact = np.array([_chi_pair_deviation(model.d, t) for t in thr])
    assert not (exact > bound).any(), f"exact above the bound at r = {r[exact > bound]}"


def test_wasserstein_bound():
    # the transport part of the lower bias composes the W1 bounds
    # sqrt(alpha log C) and sqrt(alpha log C^2) into (1 + sqrt 2) sqrt(alpha log C);
    # the rest is gamma(F) + rho0 beta - floor
    alpha, C = 1.7, 2.5
    k = lower(d=1, C=C, alpha=alpha, rho0=1.5, beta=0.7)
    w1 = math.sqrt(alpha * math.log(C)) + math.sqrt(alpha * math.log(C * C))
    assert k["bar_delta"] - k["gamma_F"] - 1.5 * 0.7 + 1.5 == pytest.approx(w1, rel=1e-9)


def test_lower_bias_halfnormal_mean():
    # gamma(F) of |y| under the c^{-1} kernel (variance c T) started at x is
    # the folded normal mean; at x = 0, sqrt(2 c T / pi)
    def gamma(c, T, x):
        return lower(d=1, c=c, T=T, x0=[x])["gamma_F"]

    assert gamma(1.5, 2.0, 0.0) == pytest.approx(math.sqrt(2 * 1.5 * 2.0 / math.pi), rel=1e-12)
    assert gamma(0.3, 1.0, -2.5) == pytest.approx(folded_normal_mean(-2.5, math.sqrt(0.3)), rel=1e-12)


def test_lower_bias_floor_of_norm():
    # F = |y| has floor rho0 on the rho0 sphere (harness.sphere_floor); the
    # bias subtracts the floor it is given, so at beta = 1 and C = 1 the
    # terms rho0 beta and -floor cancel and gamma(F) is left
    def bias(floor):
        return lower(rho0=1.3, floor=floor)

    exact = bias(1.3)
    assert exact["F_floor"] == 1.3
    assert exact["bar_delta"] == pytest.approx(exact["gamma_F"], rel=1e-15)
    assert bias(1.0)["bar_delta"] - exact["bar_delta"] == pytest.approx(0.3, rel=1e-12)


def test_lower_bias_refuses_a_sum_that_rounding_cancels():
    # rho0 beta - floor = 1e200 - 1e200 leaves gamma(F) as the bias, but
    # the sum in float order rounds it away
    with pytest.raises(NumericError, match="swamps gamma_F"):
        lower(d=1, rho0=1e200)


def test_lower_bias_gamma_is_the_noncentral_chi3_mean():
    # with unit covariance (c T = 1) |y| is noncentral chi_3 with a = |x|:
    # mean sqrt(2/pi) e^{-a^2/2} + (a + 1/a) erf(a/sqrt 2); at x = 0 sqrt(8/pi)
    for x in ([0.5, 0.5, 0.5], [0.0, -2.0, 0.1], [3.0, 4.0, 12.0]):
        k = lower(d=3, c=2.0, T=0.5, x0=x)
        assert k["gamma_F"] == pytest.approx(noncentral_chi3_mean(math.hypot(*x)), rel=1e-12)
    assert lower(d=3)["gamma_F"] == pytest.approx(math.sqrt(8 / math.pi), rel=1e-12)


def test_lower_bound_assembly_pipeline():
    # d = 2, C = 1, |A| = 2 pi, rho0 = 1: chi = 0 and 1/alpha_lower = c^{-1}/(2T)
    alpha = conc.concentration_alpha(Case.NONDEGENERATE, 1.0, 1.0)
    k = lower(alpha=alpha)
    assert k["chi"] == 0.0
    assert k["bar_alpha_inv"] == pytest.approx(0.5, rel=1e-14)
    assert k["bar_delta"] == pytest.approx(k["gamma_F"], rel=1e-12)

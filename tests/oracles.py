"""Reference implementations that tests compare the package against.

None of this code runs in a CLI command.  Adaptive Gauss-Kronrod (scipy's
quad) in 1-d and composite tensor Gauss-Legendre in 2-d (gauss_legendre,
on numpy's leggauss) are the quadrature rules of the oracles.  The
semigroup residual checks the kernels p_c by quadrature (acceptance
criterion 02), the radial tail closed forms are compared with quadrature
(criterion 04), the closed-form means of |Y| for Gaussian Y check
gaussianref.kernel_norm_mean, the tail constant K(d, A) checks the cone
penalty chi of concentration.lower_constants, the Gram-matrix form of the
optimal control cross-checks control.optimal_control, Philox4x64-10 in
numpy uint64 arithmetic checks the words that np.random.Philox gives
eulermc.simulate, and a scalar port of its normal map (Cephes ndtri on
fdlibm's log) checks the normals it makes of them.  The matrix form of the
scheme step, sigma as a (..., d', d') matrix applied by einsum, checks
simulate.scheme_step, and sigma read off a model's noise on the unit
vectors checks the presets' ellipticity.  A row-major step loop, each
chunk's state stepped in its rows of the output with the presets' drift and
noise computed in full (the kinetic -0.0 tanh(v) and sigma0 g at sigma0 = 1
included), checks simulate.simulate_terminal bit for bit.
"""

from __future__ import annotations

import dataclasses
import decimal
import math
import struct

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.special import erfc

from eulermc.control import ControlProblem
from eulermc.errors import ConfigError, NumericError
from eulermc.gaussianref import KernelSpec, _block, _transport, kernel_density, kernel_normalizer
from eulermc.model import Case, SchemeGrid, SdeModel, model_preset
from eulermc.parametrix import (
    _BLOCK,
    Grid1D,
    _built_per_change,
    _fast_len,
    _gauss,
    _one_step_matrix,
    _running_sums,
    _shift_kernel_spectra,
    _step_moments,
    one_step_density,
)
from eulermc.simulate import (
    _CHUNK, _P0, _P1, _P2, _Q0, _Q1, _Q2, _group_normals, _map_work, draw_dim, scheme_step,
)


def adaptive_1d(f, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Adaptive Gauss-Kronrod integral of f over [lo, hi].

    Raises NumericError when the reported error estimate exceeds tol
    relative to max(1, |result|).
    """
    value, abserr = quad(f, lo, hi, epsabs=tol * 1e-2, epsrel=tol * 1e-2, limit=200)
    if abserr > tol * max(1.0, abs(value)):
        raise NumericError(
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
    NumericError is raised if the two results differ by more than
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
            raise NumericError(
                f"2-d quadrature refinement gap {abs(value - coarse):.2e} "
                f"above tolerance {check_tol:.2e}"
            )
    return value


def kernel_density_from(case: Case, c: float, t: float, u, xp) -> np.ndarray:
    """p_c(t, u, x') for a fixed target x', vectorized over start points u."""
    u = np.asarray(u, dtype=float)
    xp = np.atleast_1d(np.asarray(xp, dtype=float))
    d = xp.shape[0]
    if case is Case.KINETIC:
        dp = d // 2
        dv = xp[:dp] - u[..., :dp]
        w = xp[dp:] - u[..., dp:] - 0.5 * (u[..., :dp] + xp[:dp]) * t
        expo = -c * (
            np.sum(dv * dv, axis=-1) / (4.0 * t)
            + 3.0 * np.sum(w * w, axis=-1) / t**3
        )
    else:
        diff = xp - u
        expo = -c * np.sum(diff * diff, axis=-1) / (2.0 * t)
    return np.exp(expo) / kernel_normalizer(case, c, t, d)


def _precision_from(case: Case, c: float, t: float, d: int) -> np.ndarray:
    """Hessian in x' of -log p_c(t, x, x')."""
    if case is Case.KINETIC:
        dp = d // 2
        h = np.zeros((d, d))
        h[:dp, :dp] = 2.0 * c / t * np.eye(dp)
        h[:dp, dp:] = h[dp:, :dp] = -3.0 * c / t**2 * np.eye(dp)
        h[dp:, dp:] = 6.0 * c / t**3 * np.eye(dp)
        return h
    return c / t * np.eye(d)


def _precision_to(case: Case, c: float, t: float, d: int) -> np.ndarray:
    """Hessian in the start point u of -log p_c(t, u, x')."""
    h = _precision_from(case, c, t, d)
    if case is Case.KINETIC:
        dp = d // 2
        h = h.copy()
        h[:dp, dp:] = h[dp:, :dp] = 3.0 * c / t**2 * np.eye(dp)
    return h


def kernel_mean_cov(spec: KernelSpec):
    """Mean and covariance of the p_c(t, x, .) distribution."""
    mean = _transport(spec.case, spec.x, spec.t)
    a, b, e = _block(spec)
    if spec.case is Case.KINETIC:
        return mean, np.kron([[a, b], [b, e]], np.eye(spec.d // 2))
    return mean, a * np.eye(spec.d)


def _back_transport(case: Case, xp: np.ndarray, t: float) -> np.ndarray:
    """Mean in u of p_c(t, u, x'): backward transport of x'."""
    if case is Case.KINETIC:
        dp = xp.shape[0] // 2
        out = xp.copy()
        out[dp:] -= xp[:dp] * t
        return out
    return xp.copy()


def semigroup_residual(
    spec: KernelSpec,
    s: float,
    x,
    xp,
    n_nodes: int = 200,
    radius: float = 12.0,
    check_tol: float = 1e-7,
) -> float:
    """| integral of p_c(t-s, x, u) p_c(s, u, x') du  -  p_c(t, x, x') |.

    The integrand is a single Gaussian in u; the quadrature box is centered
    on its mode and scaled by its own covariance, then integrated with
    adaptive Gauss-Kronrod (d = 1) or a tensor Gauss-Legendre rule (d = 2).
    """
    if not 0.0 < s < spec.t:
        raise ConfigError("split time must satisfy 0 < s < t")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xp = np.atleast_1d(np.asarray(xp, dtype=float))
    d = x.shape[0]
    if d > 2:
        raise ConfigError("semigroup quadrature is implemented for d <= 2")
    case, c = spec.case, spec.c
    tau = spec.t - s

    h1 = _precision_from(case, c, tau, d)
    h2 = _precision_to(case, c, s, d)
    m1 = _transport(case, x, tau)
    m2 = _back_transport(case, xp, s)
    h = h1 + h2
    mode = np.linalg.solve(h, h1 @ m1 + h2 @ m2)
    widths = np.sqrt(np.diag(np.linalg.inv(h)))

    first = KernelSpec(case, c, tau, x)

    def integrand(u_pts: np.ndarray) -> np.ndarray:
        return kernel_density(first, u_pts) * kernel_density_from(
            case, c, s, u_pts, xp
        )

    if d == 1:
        lo, hi = mode[0] - radius * widths[0], mode[0] + radius * widths[0]
        val = adaptive_1d(
            lambda u: float(integrand(np.array([[u]]))[0]), lo, hi, tol=check_tol
        )
    else:
        box = [
            (mode[0] - radius * widths[0], mode[0] + radius * widths[0]),
            (mode[1] - radius * widths[1], mode[1] + radius * widths[1]),
        ]
        val = tensor_quad_2d(integrand, box, n_per_dim=n_nodes, check_tol=check_tol)
    target = float(kernel_density(KernelSpec(case, c, spec.t, x), xp))
    return abs(val - target)


def folded_normal_mean(mu: float, s: float) -> float:
    """E|Y| for Y ~ N(mu, s^2); s sqrt(2/pi) at mu = 0."""
    return s * math.sqrt(2 / math.pi) * math.exp(-mu * mu / (2 * s * s)) + mu * math.erf(
        mu / (s * math.sqrt(2))
    )


def noncentral_chi3_mean(a: float) -> float:
    """E|Y| for Y ~ N(m, I_3) with |m| = a > 0."""
    return math.sqrt(2 / math.pi) * math.exp(-a * a / 2) + (a + 1 / a) * math.erf(a / math.sqrt(2))


def norm_mean_2d(mean, cov) -> float:
    """E|Y| for Y ~ N(mean, cov) in the plane, in polar coordinates.

    Along the direction u the exponent is -(a r^2 - 2 b r + q) / 2 with
    a = u'P u, b = u'P m, q = m'P m (P the inverse covariance), whose
    integral of r^2 over r > 0 is a normal partial moment; quad integrates
    the result over the angle.
    """
    m = np.asarray(mean, dtype=float)
    P = np.linalg.inv(np.asarray(cov, dtype=float))
    q = float(m @ P @ m)

    def along(theta):
        u = np.array([math.cos(theta), math.sin(theta)])
        a, b = float(u @ P @ u), float(u @ P @ m)
        mu, s = b / a, 1.0 / math.sqrt(a)
        z = mu / s
        moment = (mu * mu + s * s) * 0.5 * erfc(-z / math.sqrt(2)) + mu * s * math.exp(
            -z * z / 2
        ) / math.sqrt(2 * math.pi)
        return math.exp(b * b / (2 * a) - q / 2) * s * math.sqrt(2 * math.pi) * moment

    total = quad(along, 0.0, 2 * math.pi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    return total / (2 * math.pi * math.sqrt(np.linalg.det(cov)))


def _tail_pieces(d: int, x: float):
    # integration by parts: Q_d = x^{d-2} e^{-x^2/2} + (d-2) Q_{d-2}
    if d % 2 == 0:
        poly, coef, dim = 1.0, 0.0, 2
    else:
        poly, coef, dim = 0.0, 1.0, 1
    while dim < d:
        dim += 2
        poly = x ** (dim - 2) + (dim - 2) * poly
        coef = (dim - 2) * coef
    return poly, coef


def radial_tail(d: int, x: float) -> float:
    """Integral of rho^{d-1} e^{-rho^2/2} over [x, infinity), closed form.

    Even d reduces to a polynomial times e^{-x^2/2}; odd d adds a Gaussian
    tail term evaluated through erfc so nothing overflows at large x.
    """
    if d < 1:
        raise ConfigError("dimension must be >= 1")
    if x <= 0:
        raise ConfigError("x must be positive")
    poly, coef = _tail_pieces(d, x)
    val = math.exp(-0.5 * x * x) * poly
    if coef:
        val += coef * math.sqrt(math.pi / 2.0) * erfc(x / math.sqrt(2.0))
    return float(val)


def cone_constant(d: int, cone_measure: float) -> float:
    """Tail constant K(d, A) built from the cone's direction measure.

    Even d: |A| (d/2 - 1)! / 2.  Odd d: |A| prod_{j=1}^{(d-1)/2} (j - 1/2)
    divided by sqrt(pi).
    """
    if d < 1:
        raise ConfigError("dimension must be >= 1")
    if cone_measure <= 0:
        raise ConfigError("cone measure must be positive")
    if d % 2 == 0:
        try:
            return cone_measure * math.factorial(d // 2 - 1) / 2.0
        except OverflowError:
            raise NumericError(f"K(d, A) overflows at d = {d}: (d/2 - 1)! is too large") from None
    prod = 1.0
    for j in range(1, (d - 1) // 2 + 1):
        prod *= j - 0.5
    return cone_measure * prod / math.sqrt(math.pi)


def resolvent(t: float, t0: float, d_prime: int) -> np.ndarray:
    """Flow matrix of the drift: identity blocks, (t - t0) I in the lower left."""
    eye = np.eye(d_prime)
    top = np.hstack([eye, np.zeros((d_prime, d_prime))])
    bottom = np.hstack([(t - t0) * eye, eye])
    return np.vstack([top, bottom])


def gram(t: float, d_prime: int) -> np.ndarray:
    """Controllability Gram matrix: blocks (t, t^2/2; t^2/2, t^3/3) times I."""
    if t <= 0:
        raise ConfigError("horizon must be positive")
    eye = np.eye(d_prime)
    return np.block([[t * eye, t**2 / 2.0 * eye], [t**2 / 2.0 * eye, t**3 / 3.0 * eye]])


def gram_inverse(t: float, d_prime: int) -> np.ndarray:
    # closed-form 2x2 block inverse; determinant per pair is t^4/12
    eye = np.eye(d_prime)
    return np.block(
        [[4.0 / t * eye, -6.0 / t**2 * eye], [-6.0 / t**2 * eye, 12.0 / t**3 * eye]]
    )


def optimal_control_gram(problem: ControlProblem, s: float) -> np.ndarray:
    """Gram-matrix form of the optimal control (cross-check path)."""
    dp = problem.d_prime
    t = problem.t
    gap = problem.x_prime - resolvent(t, 0.0, dp) @ problem.x
    B = np.vstack([np.eye(dp), np.zeros((dp, dp))])
    return B.T @ resolvent(t, s, dp).T @ (gram_inverse(t, dp) @ gap)


# Philox4x64 multipliers and Weyl key increments (Salmon et al., SC'11)
_M0 = np.uint64(0xD2E7470EE14C6C93)
_M1 = np.uint64(0xCA5A826395121157)
_W0 = np.uint64(0x9E3779B97F4A7C15)
_W1 = np.uint64(0xBB67AE8584CAA73B)
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)


def _mulhilo(m: np.uint64, x: np.ndarray):
    """High and low words of the 128-bit product m * x, from 32-bit halves."""
    m0, m1 = m & _LO32, m >> _S32
    x0, x1 = x & _LO32, x >> _S32
    p00, p01, p10 = m0 * x0, m0 * x1, m1 * x0
    mid = (p00 >> _S32) + (p01 & _LO32) + (p10 & _LO32)
    hi = m1 * x1 + (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32)
    return hi, m * x


def _philox4x64(ctr, key):
    """Philox4x64-10 over broadcastable uint64 counter arrays.

    Counter words that vary along different axes stay unexpanded until a
    round mixes them, so the first rounds cost little.
    """
    c0, c1, c2, c3 = ctr
    k0, k1 = key
    with np.errstate(over="ignore"):
        for r in range(10):
            if r:
                k0, k1 = k0 + _W0, k1 + _W1
            hi0, lo0 = _mulhilo(_M0, c0)
            hi1, lo1 = _mulhilo(_M1, c2)
            c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return c0, c1, c2, c3


def chunk_words(master_seed: int, stream_id: int, c: int, w) -> np.ndarray:
    """Words w of chunk c's stream: lane w mod 4 of the block at counter
    (w // 4 + 1, 0, c, 0), keyed by (master_seed, stream_id) mod 2**64."""
    w = np.asarray(w, dtype=np.uint64)
    mask = 2**64 - 1
    key = (np.uint64(master_seed & mask), np.uint64(stream_id & mask))
    zero = np.uint64(0)
    lanes = _philox4x64((w // np.uint64(4) + np.uint64(1), zero, np.uint64(c), zero), key)
    return np.choose((w % np.uint64(4)).astype(np.intp), np.broadcast_arrays(*lanes))


def _bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def _float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# fdlibm e_log.c, by bit pattern
_LN2_HI, _LN2_LO = _float(0x3FE62E42FEE00000), _float(0x3DEA39EF35793C76)
_LG = [
    _float(b)
    for b in (
        0x3FE5555555555593, 0x3FD999999997FA04, 0x3FD2492494229359, 0x3FCC71C51D8E78AF,
        0x3FC7466496CB03DE, 0x3FC39A09D078C69F, 0x3FC2F112DF3E5244,
    )
]


def fdlibm_log(x: float) -> float:
    """fdlibm's __ieee754_log for a positive normal double, as written in C
    (Python floats round each + - * / as C doubles do without FMA)."""
    lg1, lg2, lg3, lg4, lg5, lg6, lg7 = _LG
    bits = _bits(x)
    hx = bits >> 32
    k = (hx >> 20) - 1023
    hx &= 0xFFFFF
    i = (hx + 0x95F64) & 0x100000
    x = _float(((hx | (i ^ 0x3FF00000)) << 32) | (bits & 0xFFFFFFFF))
    k += i >> 20
    f = x - 1.0
    dk = float(k)
    if (0xFFFFF & (2 + hx)) < 3:
        if f == 0.0:
            return 0.0 if k == 0 else dk * _LN2_HI + dk * _LN2_LO
        r = f * f * (0.5 - 0.33333333333333333 * f)
        return f - r if k == 0 else dk * _LN2_HI - ((r - dk * _LN2_LO) - f)
    s = f / (2.0 + f)
    z = s * s
    w = z * z
    t1 = w * (lg2 + w * (lg4 + w * lg6))
    t2 = z * (lg1 + w * (lg3 + w * (lg5 + w * lg7)))
    r = t2 + t1
    if ((hx - 0x6147A) | (0x6B851 - hx)) > 0:
        hfsq = 0.5 * f * f
        if k == 0:
            return f - (hfsq - s * (hfsq + r))
        return dk * _LN2_HI - ((hfsq - (s * (hfsq + r) + dk * _LN2_LO)) - f)
    if k == 0:
        return f - s * (f - r)
    return dk * _LN2_HI - ((s * (f - r) - dk * _LN2_LO) - f)


def _polevl(x: float, coef) -> float:
    acc = coef[0]
    for c in coef[1:]:
        acc = acc * x + c
    return acc


def _p1evl(x: float, coef) -> float:
    acc = x + coef[0]
    for c in coef[1:]:
        acc = acc * x + c
    return acc


def ndtri(y0: float, log=fdlibm_log) -> float:
    """Cephes ndtri (Moshier) for y0 in (0, 1), on the given log."""
    expm2 = 0.13533528323661269189
    y, code = y0, 1
    if y > 1.0 - expm2:
        y, code = 1.0 - y, 0
    if y > expm2:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))
        return x * 2.50662827463100050242
    x = math.sqrt(-2.0 * log(y))
    x0 = x - log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _p1evl(z, _Q2)
    x = x0 - x1
    return -x if code else x


def word_normals(words, log=fdlibm_log) -> np.ndarray:
    """Standard normals ndtri(((w >> 12) + 0.5) 2**-52), one per word."""
    return np.array([ndtri(((int(w) >> 12) + 0.5) * 2.0**-52, log) for w in np.ravel(words)])


def kinetic_lambda_min(c: float, T: float) -> float:
    """c/T + (3c/T^3) (1 - sqrt(1 + T^2/3 + T^4/9)), the smallest eigenvalue
    of the kinetic potential Hessian, in 60-digit decimal arithmetic: the
    cancellation costs at most 2 log10(T) + 1 of the 60 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        c, T = decimal.Decimal(c), decimal.Decimal(T)
        root = (1 + T * T / 3 + T**4 / 9).sqrt()
        return float(c / T + 3 * c / T**3 * (1 - root))


def diffusion_matrix(model: SdeModel, t: float, x) -> np.ndarray:
    """a(t, x) = sigma sigma^T, of shape x.shape[:-1] + (d', d'), with
    column j of sigma(t, x) the model's noise applied to the unit vector e_j."""
    x = np.asarray(x, dtype=float)
    dp = model.d_prime
    cols = np.broadcast_to(model.noise(t, x[..., None, :], np.eye(dp)), x.shape[:-1] + (dp, dp))
    # row j of cols is column j of sigma, so sigma sigma^T = cols^T cols
    return cols.swapaxes(-1, -2) @ cols


def trig_sigma(a_amp: float, x) -> np.ndarray:
    """The trig preset's sigma(x) = sqrt(1 + a_amp sin x) as a 1 x 1 matrix
    per point, shape x.shape + (1,) for x of shape (..., 1)."""
    return np.sqrt(1.0 + a_amp * np.sin(np.asarray(x, dtype=float)))[..., None]


def matrix_step(model: SdeModel, sig, t: float, x, delta: float, g) -> np.ndarray:
    """simulate.scheme_step with sigma given as the (..., d', d') matrix sig
    and applied to the normals by einsum, in the step's order of IEEE
    operations otherwise; a drift of None is 0.0."""
    x, g = np.asarray(x, dtype=float), np.asarray(g, dtype=float)
    dp = model.d_prime
    v, g1 = x[..., :dp], g[..., :dp]
    b = 0.0 if model.drift is None else np.asarray(model.drift(t, x), dtype=float)
    rt = math.sqrt(delta)
    res = np.empty(x.shape)
    out = res[..., :dp]
    np.multiply(b, delta, out=out)
    out += v
    noise = np.einsum("...ij,...j->...i", sig, g1)
    noise *= rt
    out += noise
    if model.case is not Case.KINETIC:
        return res
    mix = 0.5 * g1
    mix += g[..., dp:] / (2.0 * math.sqrt(3.0))
    noise = np.einsum("...ij,...j->...i", sig, mix)
    noise *= delta * rt
    z = res[..., dp:]
    np.multiply(v, delta, out=z)
    z += x[..., dp:]
    b = 0.5 * b
    b *= delta * delta
    z += b
    z += noise
    return res


def full_drift_model(name: str, **params) -> SdeModel:
    """model_preset(name, **params) with its drift and noise computed in
    full: const's b0 broadcast and the kinetic -damp tanh(v) at every b0 and
    damp, +0.0 included, and sigma0 * g at every sigma0, 1 included (trig's
    are unchanged)."""
    model = model_preset(name, **params)
    if name == "trig":
        return model
    dp, s0 = model.d_prime, float(params.get("sigma0", 1.0))
    if name == "kinetic":
        damp = float(params.get("damp", 0.0))

        def drift(t, x):
            return -damp * np.tanh(x[..., :dp])
    else:
        b = np.broadcast_to(np.asarray(params.get("b0", 0.0), dtype=float), (dp,))

        def drift(t, x):
            return np.broadcast_to(b, x.shape[:-1] + (dp,))

    return dataclasses.replace(model, drift=drift, noise=lambda t, x, g: s0 * g)


def row_major_terminal(model: SdeModel, grid: SchemeGrid, x0, rng, M: int, sample_offset: int = 0):
    """simulate.simulate_terminal as a row-major step loop: the chunks in
    turn, each with its state in its rows of the (M, d) output, stepped by
    scheme_step on the chunk's normals into a new array.  With a model of
    full_drift_model, every step takes the drift and noise passes that
    matrix_step checks.  The first chunk with a non-finite state raises
    NumericError, naming its first such step and that step's first such
    sample."""
    out = np.empty((M, model.d))
    ndraw = draw_dim(model)
    end = sample_offset + M
    edges = [sample_offset, *range((sample_offset // _CHUNK + 1) * _CHUNK, end, _CHUNK), end]
    for a, b in zip(edges[:-1], edges[1:]):
        words = np.empty(ndraw * (b - a), dtype=np.uint64)
        steps = _group_normals(rng, [a, b], ndraw, grid.N, words, np.empty(_map_work(words.size)))
        x = out[a - sample_offset : b - sample_offset]
        x[:] = x0
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for n, g in enumerate(steps):
                x[:] = scheme_step(model, grid.times[n], x, grid.delta, g)
                if not np.isfinite(x).all():
                    i = int(np.argmin(np.isfinite(x).all(axis=1)))
                    raise NumericError(f"non-finite state at step {n} in sample {a + i}")
    return out


def _pairwise_defect(V: np.ndarray, Q: np.ndarray, spectra: list) -> np.ndarray:
    """D[r, z, w] = (V Q)[r, w] - sum_u V[r, u] G[z, (w - u) + n - 1] as one
    full (rows, n, n) table, the frozen part by batched FFTs per block of z."""
    n = V.shape[1]
    L = _fast_len(2 * n - 1)
    fv = np.fft.rfft(V, L)[:, None, :]
    D = np.empty((V.shape[0], n, n))
    D[...] = (V @ Q)[:, None, :]
    for z0, spectrum in zip(range(0, n, _BLOCK), spectra):
        full = np.fft.irfft(fv * spectrum[None, :, :], L)
        D[:, z0 : z0 + _BLOCK] -= full[:, :, n - 1 : 2 * n - 1]
    return D


def pairwise_parametrix_series(
    model: SdeModel, tgrid: SchemeGrid, x: float, grid: Grid1D, r_max: int
):
    """The table values, term sup norms and terms of
    parametrix.parametrix_series by the pair-by-pair sweep: for each step l
    one full defect table D, and for each later m a full frozen tail psi
    built anew and contracted with D by einsum."""
    N, pts, tw, n = tgrid.N, grid.points, grid.weights(), grid.n_points
    moments = list(_step_moments(model, tgrid, range(N), pts))

    def step_kernels(bd, ad):
        return _one_step_matrix(pts, bd, ad), _shift_kernel_spectra(pts, bd, ad)

    kernels = _built_per_change(moments[1:], step_kernels)
    T = np.zeros((r_max + 1, N + 1, n))
    for m, (drift_sum, var_sum) in enumerate(_running_sums(moments, n), 1):
        T[0, m] = _gauss(pts, x + drift_sum, var_sum)
    for l in range(N if r_max else 0):
        rows = min(r_max, l + 1)
        if l == 0:
            bd, ad = moments[0]
            frozen = _gauss(pts[None, :], x + bd[:, None], ad[:, None])
            D = (one_step_density(model, tgrid, x, pts) - frozen)[None]
        else:
            D = _pairwise_defect(tw * T[:rows, l], *next(kernels))
        out = T[1 : rows + 1]
        out[:, l + 1] += np.diagonal(D, axis1=1, axis2=2)
        D *= tw
        tails = _running_sums(moments[l + 1 :], n)
        for m, (drift_sum, var_sum) in enumerate(tails, l + 2):
            psi = _gauss((pts - drift_sum)[:, None], pts[None, :], var_sum[:, None])
            out[:, m] += np.einsum("rzw,zw->rz", D, psi)
    terms = [T[r, N] for r in range(r_max + 1)]
    return np.sum(terms, axis=0), [float(np.max(np.abs(t))) for t in terms], terms

"""Discrete parametrix density engine for scalar non-degenerate schemes.

The multi-step transition density of the scheme is expanded as

    p(t_j, t_j', x, .) = sum_{r >= 0} (ptilde (x)_D H^{(r)})(t_j, t_j', x, .),

where ptilde is the Gaussian density of the scheme with coefficients frozen
at the terminal spatial argument, H is the one-step defect kernel between
the true and frozen schemes, H^{(r)} its r-fold time-space convolution, and
(x)_D the discrete convolution: a step-weighted time sum combined with a
spatial integral.  Conventions: the frozen density at zero elapsed time is
the point mass at the start (handled exactly, never discretized), singular
kernels vanish at coincident times, and H^{(r)} vanishes on spans shorter
than r steps.  The engine computes the span t_0 .. t_N of its SchemeGrid,
the law at T from x (j = 0, j' = N).  Under these conventions its series
truncated at r = N reproduces the Chapman-Kolmogorov composition exactly,
up to spatial quadrature.

Spatial integrals use trapezoid weights on a uniform truncated grid; for
Gaussian-type integrands that is spectrally accurate, so truncation
dominates the error budget.  Only the one-dimensional non-degenerate case
is treated; kinetic parametrix tables would need quadrature in 2 d'
dimensions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceWarning, NumericError
from .model import Case, SdeModel, SchemeGrid


@dataclass(frozen=True)
class Grid1D:
    """Uniform spatial grid on [lo, hi] with n_points nodes."""

    lo: float
    hi: float
    n_points: int

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ConfigError("grid needs lo < hi")
        if self.n_points < 3:
            raise ConfigError("grid needs at least three points")

    @property
    def h(self) -> float:
        return (self.hi - self.lo) / (self.n_points - 1)

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n_points)

    def weights(self) -> np.ndarray:
        """Trapezoid weights of the nodes."""
        w = np.full(self.n_points, self.h)
        w[0] = w[-1] = 0.5 * self.h
        return w


def default_grid(
    model: SdeModel, tgrid: SchemeGrid, x: float, n_points: int, radius: float
) -> Grid1D:
    """Grid wide enough for the terminal density: radius standard deviations
    of the most diffusive coefficient plus the drift-bound displacement."""
    half = radius * math.sqrt(model.lambda0 * tgrid.T) + model.L0 * tgrid.T
    # an odd node count, so that x is a node
    return Grid1D(float(x) - half, float(x) + half, int(n_points) | 1)


@dataclass
class DensityTable:
    """Tabulated values between two grid times: a fixed start, targets on
    the grid."""

    grid: Grid1D
    values: np.ndarray

    def mass(self) -> float:
        return float(self.grid.weights() @ self.values)

    def to_csv(self):
        """The (header, columns) table of `x_prime, value` rows."""
        return ["x_prime", "value"], [self.grid.points, self.values]


def _check_1d_case_a(model: SdeModel) -> None:
    if model.case is not Case.NONDEGENERATE or model.d != 1:
        raise ConfigError("parametrix tables cover the scalar non-degenerate case")


# from x = -708 down, where exp(x) turns subnormal and then zero, numpy's exp
# runs 10-100x slower than for a normal result (x86-64), so exponents are
# raised to this floor first
_EXP_FLOOR = -700.0
# results below this are then set to exactly 0: a value near e^_EXP_FLOOR
# times any factor below about 1e-4 is subnormal, and the products of the
# series and of CK (einsum, FFT and matrix products) slow down several times
# on subnormals (x86-64)
_FLUSH_TINY = 1e-290
# the largest density-weighted mass that one CK step may lose off the grid
_MASS_TOL = 1e-8


def _gauss(y, mean, var, out=None):
    """Normal density with the given mean and variance at y (broadcasting),
    computed in one buffer as exp(-(y - mean)^2 / (2 var)) / sqrt(2 pi var):
    out when given, shaped as y and mean broadcast, else a new array.

    Values below _FLUSH_TINY are 0, so that no product with them is
    subnormal; values at or above it are exact.  Exponents are raised to
    _EXP_FLOOR before the exp, so that the exp stays fast.
    """
    if out is None:
        out = np.empty(np.broadcast_shapes(np.shape(y), np.shape(mean)))
    np.subtract(y, mean, out=out)
    out *= out
    out /= -2.0 * np.asarray(var)
    np.maximum(out, _EXP_FLOOR, out=out)
    np.exp(out, out=out)
    out /= np.sqrt(2.0 * math.pi * np.asarray(var))
    np.copyto(out, 0.0, where=out < _FLUSH_TINY)
    return out


def _step_moments(model: SdeModel, tgrid: SchemeGrid, steps, pts):
    """Yield (b delta, a delta) at (t_k, pts) for each step k in steps: the
    mean shift and the variance of one scheme step from each scalar point.
    The model's drift and noise are called once per step: the noise applied
    to a unit draw is the scalar sigma, and a = sigma sigma."""
    xs = np.asarray(pts, dtype=float).reshape(-1, 1)
    ones = np.ones_like(xs)
    for k in steps:
        b = np.asarray(model.drift(tgrid.times[k], xs), dtype=float).reshape(-1)
        s = np.asarray(model.noise(tgrid.times[k], xs, ones), dtype=float).reshape(-1)
        yield b * tgrid.delta, s * s * tgrid.delta


def one_step_density(model: SdeModel, tgrid: SchemeGrid, x: float, xp):
    """Density of the scheme's first step from (t_0, x): Gaussian with mean
    x + b(t_0, x) delta and variance a(t_0, x) delta, at xp (vectorized).
    Values below 1e-290 read 0 (_gauss)."""
    _check_1d_case_a(model)
    ((bd, ad),) = _step_moments(model, tgrid, [0], [x])
    return _gauss(np.asarray(xp, dtype=float), x + bd[0], ad[0])


def _running_sums(moments, n: int):
    """Yield the frozen drift and variance sums over the first 1, 2, ...
    steps of moments, summed in step order, each pair in new arrays."""
    drift_sum, var_sum = np.zeros(n), np.zeros(n)
    for bd, ad in moments:
        drift_sum, var_sum = drift_sum + bd, var_sum + ad
        yield drift_sum, var_sum


def frozen_density(model: SdeModel, tgrid: SchemeGrid, x: float, xp):
    """Density at xp of the scheme with coefficients frozen at xp.

    Gaussian with mean x + sum_i b(t_i, xp) delta and variance
    sum_i a(t_i, xp) delta over the steps i = 0 .. N-1 of t_0 .. t_N
    (vectorized over xp).  Values below 1e-290 read 0 (_gauss).
    """
    _check_1d_case_a(model)
    xp = np.asarray(xp, dtype=float)
    flat = np.atleast_1d(xp)
    moments = _step_moments(model, tgrid, range(tgrid.N), flat)
    *_, (drift_sum, var_sum) = _running_sums(moments, flat.size)
    vals = _gauss(flat, x + drift_sum, var_sum)
    return float(vals[0]) if xp.ndim == 0 else vals


def _one_step_matrix(pts: np.ndarray, bd, ad):
    """Q[u, w] = one-step density from pts[u] evaluated at pts[w], given the
    step moments bd = b delta and ad = a delta at pts."""
    return _gauss(pts[None, :], (pts + bd)[:, None], ad[:, None])


def _moment_key(bd, ad):
    """The bytes of one step's moments: two steps have equal keys exactly when
    their vectors are equal bit for bit."""
    return bd.tobytes(), ad.tobytes()


def _built_per_change(moments, build):
    """Yield build(bd, ad) for each step's moments (_step_moments).  A step
    whose key (_moment_key) equals that of the last build gets that build
    again, so time-independent coefficients are built once and
    time-dependent ones at every step."""
    built_from = None
    for bd, ad in moments:
        key = _moment_key(bd, ad)
        if key != built_from:
            built = None  # frees the last build before the next is made
            built, built_from = build(bd, ad), key
        yield built


def _frozen_tail(pts, drift_sum, var_sum, zb=slice(None), out=None):
    """psi[z, w] = frozen-at-z density from pts[w] to pts[z] for the target
    rows z in zb (all of them by default), given the frozen drift and
    variance sums at pts (see _running_sums); into out when given."""
    return _gauss((pts[zb] - drift_sum[zb])[:, None], pts[None, :], var_sum[zb, None], out)


def _fast_len(m: int) -> int:
    """The smallest 2**a 3**b 5**c >= m, the FFT length that
    scipy.fft.next_fast_len(m, real=True) picks."""
    best = 1 << (m - 1).bit_length()
    p35 = 1
    while p35 < best:
        p3 = p35
        while p3 < best:
            # the smallest power of 2 times p3 that reaches m
            best = min(best, p3 << (-(-m // p3) - 1).bit_length())
            p3 *= 3
        p35 *= 5
    return best


_BLOCK = 64  # rows of z per FFT batch; 128 or more ran slower at n = 401 and 601 (2-core x86-64)


def _z_blocks(n: int) -> list:
    """The slices of _BLOCK target rows z that cover range(n), the last one
    shorter when _BLOCK does not divide n."""
    return [slice(z0, min(z0 + _BLOCK, n)) for z0 in range(0, n, _BLOCK)]


def _shift_kernel_spectra(pts: np.ndarray, bd, ad) -> list:
    """rfft(G[zb], L) for the blocks zb of _z_blocks of the shift kernels
    G[z, m + n - 1] = density of one step frozen at pts[z] at displacement
    h * m, m in [-(n-1), n-1], given the step moments bd = b delta and
    ad = a delta at pts.  G is built one block at a time and not kept."""
    n = pts.shape[0]
    L = _fast_len(2 * n - 1)
    disp = (pts[1] - pts[0]) * np.arange(-(n - 1), n)
    return [
        np.fft.rfft(_gauss(disp[None, :], bd[zb, None], ad[zb, None]), L) for zb in _z_blocks(n)
    ]


def _head(buf: np.ndarray, *shape: int) -> np.ndarray:
    """The first entries of the flat buffer buf as a C-contiguous array of
    the given shape."""
    return buf[: math.prod(shape)].reshape(shape)


class _BlockScratch:
    """Flat buffers for the arrays of one block of target rows (_z_blocks),
    allocated once per series call and reused by every block of every step,
    so that no block faults in fresh pages.  A block's arrays are the heads
    of the buffers (_head), so the short last block fits as well."""

    def __init__(self, rows: int, n: int):
        L = _fast_len(2 * n - 1)
        self.defect = np.empty(rows * _BLOCK * n)
        self.tail = np.empty(_BLOCK * n)
        self.spectrum = np.empty(rows * _BLOCK * (L // 2 + 1), dtype=complex)
        self.conv = np.empty(rows * _BLOCK * L)


def _defect_blocks(V: np.ndarray, Q: np.ndarray, spectra: list, scratch: _BlockScratch):
    """Yield (zb, D[:, zb]) for the blocks zb of _z_blocks, where

        D[r, z, w] = (V Q)[r, w] - sum_u V[r, u] G[z, (w - u) + n - 1]:

    row r of V pushed through one true step (Q) minus one step frozen at the
    target z (shift kernels G, given by their spectra from
    _shift_kernel_spectra).  The frozen part is a correlation, computed with
    batched FFTs of the block.  Only lags n-1 .. 2n-2 of the full convolution
    are kept, so a circular length of 2n - 1 already avoids wrap-around.
    Each block is formed in scratch and holds until the next is yielded.
    """
    rows, n = V.shape
    L = _fast_len(2 * n - 1)
    fv = np.fft.rfft(V, L)[:, None, :]
    VQ = (V @ Q)[:, None, :]
    for zb, spectrum in zip(_z_blocks(n), spectra):
        b = spectrum.shape[0]
        product = np.multiply(fv, spectrum, out=_head(scratch.spectrum, rows, b, L // 2 + 1))
        conv = np.fft.irfft(product, L, out=_head(scratch.conv, rows, b, L))
        D = _head(scratch.defect, rows, b, n)
        yield zb, np.subtract(VQ, conv[:, :, n - 1 : 2 * n - 1], out=D)


def _first_defect_blocks(first: np.ndarray, x: float, bd, ad, pts, scratch: _BlockScratch):
    """Yield (zb, D[:, zb]) as _defect_blocks does for the point mass at x:
    D[0, z, w] = first[w], the one-step density from x at w, minus the step
    from x frozen at the target z."""
    n = pts.shape[0]
    for zb in _z_blocks(n):
        b = zb.stop - zb.start
        frozen = _gauss(pts, (x + bd[zb])[:, None], ad[zb, None], _head(scratch.tail, b, n))
        yield zb, np.subtract(first, frozen, out=_head(scratch.defect, 1, b, n))


def term_decay(norms) -> tuple[list, list]:
    """Decay ratios norms[r] / norms[r - 1] for r >= 1 (None where norms[r - 1]
    is 0) and the terms r >= 2 whose sup norm exceeds that of term r - 1."""
    ratios = [b / a if a > 0.0 else None for a, b in zip(norms, norms[1:])]
    growing = [r for r in range(2, len(norms)) if norms[r] > norms[r - 1] > 0.0]
    return ratios, growing


def check_term_decay(norms) -> None:
    """Warn when sup norms stop decaying beyond the first correction term;
    term growth there means the grid or its truncation is unusable."""
    for r in term_decay(norms)[1]:
        warnings.warn(
            f"series term {r} ({norms[r]:.3e}) exceeds term {r - 1} "
            f"({norms[r - 1]:.3e})",
            DivergenceWarning,
        )


def check_r_max(r_max: int, tgrid: SchemeGrid) -> None:
    """Refuse a series truncation r_max outside [0, N]."""
    if not 0 <= r_max <= tgrid.N:
        raise ConfigError(f"r_max must lie in [0, N] = [0, {tgrid.N}], got {r_max}")


def parametrix_series(model: SdeModel, tgrid: SchemeGrid, x: float, grid: Grid1D, r_max: int):
    """Terms 0 .. r_max (at most N) of the parametrix series for p(t_0, t_N, x, .) on the grid.

    Returns (DensityTable, per-term sup norms, terms).  Terms beyond r = 1
    whose sup norm stops decaying trigger a DivergenceWarning: the grid or
    its truncation is then suspect.

    Terms are built from the left: with T_r[m] = (ptilde (x)_D H^{(r)})(t_0,
    t_m, x, .), T_0[m] is the frozen density and, for r >= 1,

        T_r[m] = delta [r = 1] H(t_0, t_m, x, .)
                 + sum_{l=1}^{m-1} delta (tw T_{r-1}[l]) H(t_l, t_m),

    and term r is T_r[N].  Sweeping l upwards, the rows V = tw T_{0..r_max-1}[l]
    are final when l is reached and are pushed into every later m, so no
    kernel table H(t_l, t_m) is stored.  With D the defect of step l
    (_defect_blocks) and psi the frozen tail over t_{l+1} .. t_m,

        delta (V H(t_l, t_m))[r, z] = sum_w D[r, z, w] tw[w] psi[z, w],

    and for m = l + 1 it is D[r, z, z].  The sweep starts at l = 0, whose one
    row is the point mass at x: there D[0, z, w] is the one-step density from
    x at w minus the step frozen at z, and the same contraction gives the
    delta H(t_0, t_m, x, .) part of T_1[m].  D is formed one block of target
    rows z at a time, and each block is contracted with the psi rows of every
    later m before the next is formed, all in buffers reused by every block.

    The model is read once per step, as b(t_k, .) delta and a(t_k, .) delta
    on the grid, and T_0 and each frozen tail psi are running sums of them.
    Q and the shift-kernel spectra are built again only when the vectors of
    step l change in some bit, so time-independent coefficients build them once.
    When the steps after the first all have one key (_moment_key), psi
    depends only on the gap m - l - 1, and the full tails of the smallest
    gaps are built once: at most r_max of them, the n x n planes that a full
    D table of a step would hold.  Every other tail is built by block rows.
    """
    _check_1d_case_a(model)
    check_r_max(r_max, tgrid)
    N = tgrid.N
    pts = grid.points
    tw = grid.weights()
    n = grid.n_points
    # moments[k] = (b delta, a delta) at (t_k, pts), k = 0 .. N-1
    moments = list(_step_moments(model, tgrid, range(N), pts))

    def step_kernels(bd, ad):
        return _one_step_matrix(pts, bd, ad), _shift_kernel_spectra(pts, bd, ad)

    kernels = _built_per_change(moments[1:], step_kernels)

    # T[r, m] = T_r[m]; T_r[m] vanishes for r > m
    T = np.zeros((r_max + 1, N + 1, n))
    for m, (drift_sum, var_sum) in enumerate(_running_sums(moments, n), 1):
        T[0, m] = _gauss(pts, x + drift_sum, var_sum)
    # gap_tails[g - 1] = psi over g steps, built once when the steps after the
    # first repeat bit for bit, so that psi depends on the gap alone
    repeat = len({_moment_key(bd, ad) for bd, ad in moments[1:]}) == 1
    gap_sums = _running_sums(moments[1 : r_max + 1], n) if repeat else ()
    gap_tails = [_frozen_tail(pts, drift_sum, var_sum) for drift_sum, var_sum in gap_sums]
    scratch = _BlockScratch(r_max, n)
    for l in range(N if r_max else 0):
        rows = min(r_max, l + 1)
        if l == 0:
            first = one_step_density(model, tgrid, x, pts)
            blocks = _first_defect_blocks(first, x, *moments[0], pts, scratch)
        else:
            blocks = _defect_blocks(tw * T[:rows, l], *next(kernels), scratch)
        out = T[1 : rows + 1]
        tails = list(_running_sums(moments[l + 1 :], n))
        for zb, D in blocks:
            out[:, l + 1, zb] += np.diagonal(D[:, :, zb], axis1=1, axis2=2)
            D *= tw
            for g, (drift_sum, var_sum) in enumerate(tails, 1):
                if g <= len(gap_tails):
                    psi = gap_tails[g - 1][zb]
                else:
                    psi_rows = _head(scratch.tail, *D.shape[1:])
                    psi = _frozen_tail(pts, drift_sum, var_sum, zb, psi_rows)
                out[:, l + 1 + g, zb] += np.einsum("rzw,zw->rz", D, psi)

    terms = [T[r, N] for r in range(r_max + 1)]
    norms = [float(np.max(np.abs(t))) for t in terms]
    check_term_decay(norms)
    table = DensityTable(grid, np.sum(terms, axis=0))
    return table, norms, terms


def chapman_kolmogorov_density(
    model: SdeModel, tgrid: SchemeGrid, x: float, grid: Grid1D
) -> DensityTable:
    """Iterated one-step composition of the scheme density from (t_0, x) to t_N.

    Matrix products with trapezoid weights; the density-weighted mass lost
    off the grid at each step must stay below _MASS_TOL.  The one-step matrix
    and its row masses are reused by the rule of parametrix_series.
    """
    _check_1d_case_a(model)
    pts = grid.points
    tw = grid.weights()
    dens = one_step_density(model, tgrid, x, pts)
    loss = abs(float(tw @ dens) - 1.0)
    if loss > _MASS_TOL:
        raise NumericError(f"initial step loses mass {loss:.2e} > {_MASS_TOL:.0e}")

    def step_matrix(bd, ad):
        Q = _one_step_matrix(pts, bd, ad)
        return Q, Q @ tw

    steps = range(1, tgrid.N)
    matrices = _built_per_change(_step_moments(model, tgrid, steps, pts), step_matrix)
    for k, (Q, row_mass) in zip(steps, matrices):
        step_loss = float(tw @ (dens * (1.0 - row_mass)))
        if step_loss > _MASS_TOL:
            raise NumericError(f"step {k} loses mass {step_loss:.2e} > {_MASS_TOL:.0e}")
        dens = (tw * dens) @ Q
    return DensityTable(grid, dens)

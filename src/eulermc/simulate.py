"""Scheme simulation and Monte Carlo estimators.

Every Monte Carlo sample owns a counter-based substream derived from
(master_seed, stream_id, sample index), so batches are bitwise reproducible
no matter how work is split across threads.  Reductions store per-sample
values and sum in index order.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, NumericError
from .model import Case, SdeModel, SchemeGrid

_MASK64 = (1 << 64) - 1
_CHUNK = 4096  # fixed so chunk boundaries never depend on the thread count


@dataclass(frozen=True)
class RngSpec:
    """Counter-based random stream family keyed by (master_seed, stream_id)."""

    master_seed: int
    stream_id: int = 0

    def substream(self, index: int) -> np.random.Generator:
        """Independent generator for one sample index."""
        key = np.array(
            [self.master_seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64
        )
        bitgen = np.random.Philox(key=key, counter=int(index) << 128)
        return np.random.Generator(bitgen)


class _SubstreamDrawer:
    """Per-sample substream draws through cheap counter resets.

    Produces exactly the output of RngSpec.substream(index) while reusing one
    bit generator; not thread safe, build one per worker.
    """

    def __init__(self, spec: RngSpec):
        self._key = np.array(
            [spec.master_seed & _MASK64, spec.stream_id & _MASK64], dtype=np.uint64
        )
        self._bitgen = np.random.Philox(key=self._key)
        self._gen = np.random.Generator(self._bitgen)
        self._outer = dict(self._bitgen.state)
        self._inner = dict(self._outer["state"])
        self._counter = np.zeros(4, dtype=np.uint64)

    def standard_normal(self, index: int, shape) -> np.ndarray:
        self._counter[2] = index & _MASK64
        self._counter[3] = (index >> 64) & _MASK64
        self._inner["counter"] = self._counter
        self._inner["key"] = self._key
        self._outer["state"] = self._inner
        self._outer["buffer_pos"] = 4
        self._outer["has_uint32"] = 0
        self._outer["uinteger"] = 0
        self._bitgen.state = self._outer
        return self._gen.standard_normal(shape)


@dataclass(frozen=True)
class TerminalBatch:
    model: SdeModel
    grid: SchemeGrid
    start_x: np.ndarray
    samples: np.ndarray  # (M, d)

    @property
    def M(self) -> int:
        return self.samples.shape[0]


def euler_step(model: SdeModel, t: float, x, delta: float, gaussian) -> np.ndarray:
    """One explicit step of the non-degenerate scheme.

    Returns x + b(t, x) delta + sigma(t, x) sqrt(delta) g.  The one-step law
    is Gaussian with mean x + b delta and covariance a delta.
    """
    if model.case is not Case.NONDEGENERATE:
        raise ArgumentError("euler_step applies to non-degenerate models")
    x = np.asarray(x, dtype=float)
    g = np.asarray(gaussian, dtype=float)
    sig = np.asarray(model.sigma(t, x), dtype=float)
    out = x + np.asarray(model.drift(t, x), dtype=float) * delta
    out = out + math.sqrt(delta) * np.einsum("...ij,...j->...i", sig, g)
    if not np.all(np.isfinite(out)):
        raise NumericError("non-finite state after Euler step")
    return out


def kinetic_step_factor(sigma_mat: np.ndarray, delta: float) -> np.ndarray:
    """Lower-triangular factor L of the kinetic one-step covariance.

    L L^T equals the block matrix [[a d, a d^2/2], [a d^2/2, a d^3/3]] with
    a = sigma sigma^T; the time block is factored once and combined with
    sigma, no dense factorization per step.
    """
    sigma_mat = np.asarray(sigma_mat, dtype=float)
    dp = sigma_mat.shape[-1]
    rt = math.sqrt(delta)
    L = np.zeros(sigma_mat.shape[:-2] + (2 * dp, 2 * dp))
    L[..., :dp, :dp] = rt * sigma_mat
    L[..., dp:, :dp] = 0.5 * delta * rt * sigma_mat
    L[..., dp:, dp:] = delta * rt / (2.0 * math.sqrt(3.0)) * sigma_mat
    return L


def kinetic_step(model: SdeModel, t: float, x, delta: float, gaussian) -> np.ndarray:
    """One exactly-sampled step of the kinetic scheme.

    gaussian holds 2 d' independent standard normals; the first d' drive the
    velocity block, the rest complete the integrated-position block.  The
    joint one-step law is Gaussian with mean
    (v + b1 delta, z + v delta + b1 delta^2/2) and covariance blocks
    (a d, a d^2/2; a d^2/2, a d^3/3).
    """
    if model.case is not Case.KINETIC:
        raise ArgumentError("kinetic_step applies to kinetic models")
    x = np.asarray(x, dtype=float)
    g = np.asarray(gaussian, dtype=float)
    dp = model.d_prime
    v, z = x[..., :dp], x[..., dp:]
    g1, g2 = g[..., :dp], g[..., dp:]
    b1 = np.asarray(model.drift(t, x), dtype=float)
    sig = np.asarray(model.sigma(t, x), dtype=float)
    rt = math.sqrt(delta)

    noise_v = rt * np.einsum("...ij,...j->...i", sig, g1)
    mix = 0.5 * g1 + g2 / (2.0 * math.sqrt(3.0))
    noise_z = delta * rt * np.einsum("...ij,...j->...i", sig, mix)
    out = np.concatenate(
        [
            v + b1 * delta + noise_v,
            z + v * delta + 0.5 * b1 * delta**2 + noise_z,
        ],
        axis=-1,
    )
    if not np.all(np.isfinite(out)):
        raise NumericError("non-finite state after kinetic step")
    return out


def scheme_step(model: SdeModel, t: float, x, delta: float, gaussian) -> np.ndarray:
    if model.case is Case.KINETIC:
        return kinetic_step(model, t, x, delta, gaussian)
    return euler_step(model, t, x, delta, gaussian)


def draw_dim(model: SdeModel) -> int:
    """Standard normals consumed per step."""
    return 2 * model.d_prime if model.case is Case.KINETIC else model.d_prime


def simulate_terminal(
    model: SdeModel,
    grid: SchemeGrid,
    x0,
    rng: RngSpec,
    M: int,
    threads: int = 1,
    sample_offset: int = 0,
) -> TerminalBatch:
    """M independent terminal points, N sequential steps each.

    Sample i draws from substream sample_offset + i, so results do not
    depend on the thread count or on execution order.
    """
    if M < 1:
        raise ArgumentError("need at least one sample")
    x0 = np.asarray(x0, dtype=float).reshape(model.d)
    ndraw = draw_dim(model)
    out = np.empty((M, model.d))

    def run_chunk(lo: int, hi: int) -> None:
        m = hi - lo
        drawer = _SubstreamDrawer(rng)
        draws = np.empty((m, grid.N, ndraw))
        for i in range(m):
            draws[i] = drawer.standard_normal(sample_offset + lo + i, (grid.N, ndraw))
        x = np.broadcast_to(x0, (m, model.d)).copy()
        for n in range(grid.N):
            try:
                x = scheme_step(model, grid.times[n], x, grid.delta, draws[:, n, :])
            except NumericError:
                # replay one sample at a time to attach the failing index
                for i in range(m):
                    try:
                        scheme_step(model, grid.times[n], x[i], grid.delta, draws[i, n, :])
                    except NumericError:
                        raise NumericError(
                            f"non-finite state at step {n} in sample "
                            f"{sample_offset + lo + i}"
                        ) from None
                raise
        out[lo:hi] = x

    ranges = [(lo, min(lo + _CHUNK, M)) for lo in range(0, M, _CHUNK)]
    if threads > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda r: run_chunk(*r), ranges))
    else:
        for r in ranges:
            run_chunk(*r)
    return TerminalBatch(model=model, grid=grid, start_x=x0, samples=out)


def mc_deviation(batch: TerminalBatch, f, reference_mean: float) -> float:
    """Empirical mean of f over the batch minus the reference mean."""
    if not math.isfinite(reference_mean):
        raise ArgumentError("reference mean must be finite")
    vals = np.asarray(f(batch.samples), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise NumericError("functional produced non-finite values")
    return float(vals.mean() - reference_mean)


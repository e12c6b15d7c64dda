"""Scheme simulation.

Every Monte Carlo sample owns a counter-based substream derived from
(master_seed, stream_id, sample index), so batches are bitwise reproducible
no matter how work is split across threads.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import ArgumentError, NumericError
from .model import Case, SdeModel, SchemeGrid

_MASK64 = (1 << 64) - 1
_CHUNK = 4096  # fixed so chunk boundaries never depend on the thread count
_SLAB = 1 << 14  # (sample, block) counters per slab; bounds the round temporaries

# Philox4x64 multipliers and Weyl key increments (Salmon et al., SC'11)
_M0 = np.uint64(0xD2E7470EE14C6C93)
_M1 = np.uint64(0xCA5A826395121157)
_W0 = np.uint64(0x9E3779B97F4A7C15)
_W1 = np.uint64(0xBB67AE8584CAA73B)
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_S12 = np.uint64(12)
_ZERO = np.uint64(0)


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


def _word_normals(words: np.ndarray, out=None) -> np.ndarray:
    """One standard normal per uint64 word, by inverse CDF.

    The uniform ((w >> 12) + 0.5) 2**-52 is exact in float64 and lies
    strictly inside (0, 1), so |z| <= 8.21 and ~w maps to -z.  (With 53
    bits, (w >> 11) + 0.5 rounds to 2**53 for the top word, giving inf.)
    """
    u = (words >> _S12).astype(np.float64)
    u += 0.5
    u *= 2.0**-52
    return ndtri(u, out=out)


@dataclass(frozen=True)
class RngSpec:
    """Counter-based random stream family keyed by (master_seed, stream_id).

    Sample i owns the Philox4x64-10 stream with key (master_seed, stream_id)
    mod 2**64 whose block j has counter (j + 1, 0, i, 0): its words are
    exactly those of np.random.Philox(key=key, counter=i << 128).
    """

    master_seed: int
    stream_id: int = 0

    def _slabs(self, indices, count: int):
        """Yield (lo, hi, words): words lo:hi of every sample, in slabs."""
        idx = np.asarray(indices, dtype=np.uint64).reshape(-1, 1)
        key = (np.uint64(self.master_seed & _MASK64), np.uint64(self.stream_id & _MASK64))
        nblocks = -(-count // 4)
        step = max(1, _SLAB // max(idx.shape[0], 1))
        for b in range(0, nblocks, step):
            e = min(b + step, nblocks)
            ctr0 = np.arange(b + 1, e + 1, dtype=np.uint64)
            lanes = _philox4x64((ctr0, _ZERO, idx, _ZERO), key)
            lo, hi = 4 * b, min(4 * e, count)
            words = np.stack(lanes, axis=-1).reshape(idx.shape[0], 4 * (e - b))
            yield lo, hi, words[:, : hi - lo]

    def words(self, indices, count: int) -> np.ndarray:
        """The first count raw uint64 words of each sample's stream."""
        out = np.empty((len(indices), count), dtype=np.uint64)
        for lo, hi, words in self._slabs(indices, count):
            out[:, lo:hi] = words
        return out

    def normals(self, indices, count: int) -> np.ndarray:
        """(len(indices), count) standard normals, one per raw word, with no
        rejection.  simulate_terminal reads word n * ndraw + k as the normal
        of step n, coordinate k.
        """
        out = np.empty((len(indices), count))
        for lo, hi, words in self._slabs(indices, count):
            _word_normals(words, out=out[:, lo:hi])
        return out


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

    Sample i draws the normals of stream index sample_offset + i, so
    results do not depend on the thread count or on execution order.
    """
    if M < 1:
        raise ArgumentError("need at least one sample")
    if sample_offset < 0 or sample_offset + M > 1 << 64:
        raise ArgumentError("sample indices must lie in [0, 2**64)")
    x0 = np.asarray(x0, dtype=float).reshape(model.d)
    ndraw = draw_dim(model)
    out = np.empty((M, model.d))

    def run_chunk(lo: int, hi: int) -> None:
        m = hi - lo
        indices = np.uint64(sample_offset + lo) + np.arange(m, dtype=np.uint64)
        draws = rng.normals(indices, grid.N * ndraw).reshape(m, grid.N, ndraw)
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

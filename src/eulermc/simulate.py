"""Scheme simulation.

The samples are split into chunks of 4096 consecutive absolute indices, and
each chunk reads one counter-based Philox stream derived from
(master_seed, stream_id, chunk index), drawn step by step.  The normals of
a sample depend on its index alone, so batches are bitwise reproducible no
matter how work is split across threads.  Every random draw of the package
goes through _chunk_normals: simulate_terminal reads it step by step, and
normals reads one step of it.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, NumericError
from .model import Case, SdeModel, SchemeGrid

_MASK64 = (1 << 64) - 1
# Part of the stream definition, not a tuning knob: chunk c holds absolute
# sample indices 4096c to 4096c + 4095 and reads one stream, so every output
# changes with it.  Chunk boundaries never depend on the thread count.
_CHUNK = 4096
_S12 = np.uint64(12)
# largest (M, d) float64 sample array simulate_terminal allocates
_SAMPLES_CAP_BYTES = 2**30


def _word_normals(words: np.ndarray, ndtri) -> np.ndarray:
    """One standard normal per uint64 word, by inverse CDF (ndtri is
    scipy.special.ndtri, which callers import on their first draw).

    The uniform ((w >> 12) + 0.5) 2**-52 is exact in float64 and lies
    strictly inside (0, 1), so |z| <= 8.21 and ~w maps to -z.  (With 53
    bits, (w >> 11) + 0.5 rounds to 2**53 for the top word, giving inf.)
    """
    u = (words >> _S12).astype(np.float64)
    u += 0.5
    u *= 2.0**-52
    return ndtri(u, out=u)


@dataclass(frozen=True)
class RngSpec:
    """Counter-based random streams keyed by (master_seed, stream_id).

    Chunk c, the samples with absolute indices 4096c to 4096c + 4095, reads
    the Philox4x64-10 stream with key (master_seed, stream_id) mod 2**64 and
    counter c << 128 (Salmon et al., SC'11).  Word
    (n * ndraw + k) * 4096 + (i mod 4096) of that stream, mapped by
    _word_normals, is the normal of step n, coordinate k, of sample i.
    """

    master_seed: int
    stream_id: int = 0

    def chunk(self, c: int) -> np.random.Philox:
        """The bit generator of chunk c, at the first word of its stream."""
        # a uint64 array: numpy routes a list key through float64
        key = np.array([self.master_seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64)
        return np.random.Philox(key=key, counter=c << 128)


def _chunk_normals(rng: RngSpec, c: int, lo: int, hi: int, ndraw: int, steps: int):
    """Yield, for steps 0 to steps - 1 in turn, the (hi - lo, ndraw) normals
    of the samples in columns [lo, hi) of chunk c.

    Coordinate k of step n spans words (n * ndraw + k) * 4096 + [lo, hi).
    Only the 4-word Philox blocks that cover them are generated; the blocks
    of the other columns are skipped with Philox.advance.
    """
    first, stop = lo // 4, -(-hi // 4)
    width = 4 * (stop - first)  # words read per coordinate
    skip = _CHUNK // 4 - (stop - first)  # blocks up to the next coordinate's
    cols = slice(lo - 4 * first, hi - 4 * first)
    # scipy.special loads here, so commands that draw nothing start without it
    from scipy.special import ndtri

    bitgen = rng.chunk(c)
    bitgen.advance(first)
    for _ in range(steps):
        words = np.empty((ndraw, width), dtype=np.uint64)
        for k in range(ndraw):
            words[k] = bitgen.random_raw(width)
            bitgen.advance(skip)
        yield _word_normals(words[:, cols], ndtri).T


def normals(rng: RngSpec, n: int, k: int) -> np.ndarray:
    """(n, k) standard normals: the step-0 normals of samples 0 to n - 1,
    read as a k-coordinate scheme step would read them."""
    starts = range(0, n, _CHUNK)
    chunks = [_chunk_normals(rng, i // _CHUNK, 0, min(_CHUNK, n - i), k, 1) for i in starts]
    return np.concatenate([next(chunk) for chunk in chunks])


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
) -> np.ndarray:
    """The (M, d) terminal points of M independent runs, N steps each.

    Sample i draws the normals of absolute index sample_offset + i, so
    results do not depend on the thread count or on execution order.  A
    chunk draws one step's words at a time, so memory does not grow with N.
    """
    if M < 1:
        raise ArgumentError("need at least one sample")
    if sample_offset < 0 or sample_offset + M > 1 << 64:
        raise ArgumentError("sample indices must lie in [0, 2**64)")
    if 8 * M * model.d > _SAMPLES_CAP_BYTES:
        raise ArgumentError(
            f"{M:,} samples of dimension {model.d} need "
            f"{8 * M * model.d / 2**30:,.0f} GiB, above the cap of "
            f"{_SAMPLES_CAP_BYTES // 2**30} GiB"
        )
    x0 = np.asarray(x0, dtype=float).reshape(model.d)
    ndraw = draw_dim(model)
    out = np.empty((M, model.d))

    def run_chunk(lo: int, hi: int) -> None:
        m = hi - lo
        c, col = divmod(sample_offset + lo, _CHUNK)
        x = np.broadcast_to(x0, (m, model.d)).copy()
        for n, draws in enumerate(_chunk_normals(rng, c, col, col + m, ndraw, grid.N)):
            try:
                x = scheme_step(model, grid.times[n], x, grid.delta, draws)
            except NumericError:
                # replay one sample at a time to attach the failing index
                for i in range(m):
                    try:
                        scheme_step(model, grid.times[n], x[i], grid.delta, draws[i])
                    except NumericError:
                        raise NumericError(
                            f"non-finite state at step {n} in sample "
                            f"{sample_offset + lo + i}"
                        ) from None
                raise
        out[lo:hi] = x

    # ranges never cross a multiple of _CHUNK in the absolute index
    edges = [0, *range(_CHUNK - sample_offset % _CHUNK, M, _CHUNK), M]
    ranges = list(zip(edges[:-1], edges[1:]))
    if threads > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda r: run_chunk(*r), ranges))
    else:
        for r in ranges:
            run_chunk(*r)
    return out

"""Scheme simulation.

The samples are split into chunks of 4096 consecutive absolute indices, and
each chunk reads one counter-based Philox stream derived from
(master_seed, stream_id, chunk index), drawn step by step.  The normals of
a sample depend on its index alone, so batches are bitwise reproducible no
matter how work is split across threads.  Every random draw of the package
goes through _group_normals, which simulate_terminal reads step by step for a
group of consecutive chunks.
Words become normals by the package's own inverse normal CDF, Cephes ndtri
on fdlibm's log in numpy integer and IEEE arithmetic, so the streams need
no scipy and do not depend on numpy's SIMD dispatch.
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
_ONE_BITS = np.uint64(0x3FF0000000000000)  # the bits of 1.0
# most words one step of a group reads and maps in one call (a chunk whose
# step reads more is a group of its own): fewer, larger numpy calls hold the
# GIL for less of the time; no output depends on it
_BLOCK_WORDS = 2**16
# most chunks stepped together in one (m, d) state; no output depends on it
_GROUP_CHUNKS = 8
# largest (M, d) float64 sample array simulate_terminal allocates
_SAMPLES_CAP_BYTES = 2**30


# Cephes ndtri (Moshier): y - 1/2 = x P0(x^2)/Q0(x^2) / sqrt(2 pi) for
# |y - 1/2| <= 1/2 - e^-2, else x = z - log(z)/z - P(1/z)/(z Q(1/z)) with
# z = sqrt(-2 log y) and (P1, Q1) below z = 8, (P2, Q2) above.  Highest
# degree first; each Q's leading 1 is implicit.
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)
_S2PI = 2.50662827463100050242e0
_EXPM2 = 0.13533528323661269189  # e^-2
# fdlibm __ieee754_log: ln 2 split so that k ln2_hi is exact, and the
# minimax coefficients of (log(1+f) - 2s)/s with s = f/(2+f)
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_LG1, _LG2, _LG3, _LG4, _LG5, _LG6, _LG7 = (
    6.666666666666735130e-01, 3.999999999940941908e-01, 2.857142874366239149e-01,
    2.222219843214978396e-01, 1.818357216161805012e-01, 1.531383769920937332e-01,
    1.479819860511658591e-01,
)


def _horner(x: np.ndarray, coef, monic: bool = False) -> np.ndarray:
    """Cephes polevl, or p1evl when monic (a leading 1 before coef)."""
    if monic:
        acc = x + coef[0]
    else:
        acc = x * coef[0]
        acc += coef[1]
    for c in coef[2 - monic :]:
        acc *= x
        acc += c
    return acc


def _rational(x: np.ndarray, p, q) -> np.ndarray:
    """x p(x) / q(x), q monic, in Cephes' order of operations (x p before
    the division; IEEE * commutes, so p(x) x is the same product)."""
    num = _horner(x, p)
    num *= x
    num /= _horner(x, q, True)
    return num


def _log(x: np.ndarray) -> np.ndarray:
    """Natural log of positive normal float64 values: fdlibm's
    __ieee754_log, all three branches, in integer ops and IEEE + - * /
    only, so its bits do not depend on numpy's SIMD dispatch.

    x = 2^k (1 + f), with 1 + f in about [sqrt(2)/2, sqrt(2)) as fdlibm
    splits on the high word.  log(1 + f) is f - R for |f| < 2^-20, else it
    comes from s = f/(2 + f) and a polynomial R in s^2, combined in one of
    two ways by the size of f.
    """
    bits = x.view(np.int64)
    hx = bits >> 32
    hx &= 0xFFFFF  # the high 20 bits of the mantissa
    big = (hx >= 0x6147A) & (hx <= 0x6B851)
    hx += 2
    hx &= 0xFFFFF
    tiny = np.flatnonzero(hx < 3)  # |f| < 2^-20
    del hx
    # each step below works in place where it can: fewer temporaries alive
    # at once leave fewer pages to fault in per call
    k = bits - 0x3FE6A09C00000000
    k >>= 52
    f = k << 52
    np.subtract(bits, f, out=f)
    f = f.view(np.float64)
    f -= 1.0
    dk = k.astype(np.float64)
    del k
    s = 2.0 + f
    np.divide(f, s, out=s)
    z = s * s
    w = z * z
    r = _horner(w, (_LG7, _LG5, _LG3, _LG1))
    r *= z
    del z
    t = _horner(w, (_LG6, _LG4, _LG2))
    t *= w
    del w
    r += t
    del t
    hfsq = 0.5 * f
    hfsq *= f
    lo = dk * _LN2_LO
    # hfsq - (s (hfsq + r) + lo) where big, else s (f - r) - lo
    inner = f - r
    np.add(hfsq, r, out=inner, where=big)
    del r
    inner *= s
    del s
    np.add(inner, lo, out=inner, where=big)
    np.subtract(inner, lo, out=inner, where=~big)
    np.subtract(hfsq, inner, out=inner, where=big)
    if tiny.size:
        ft = f[tiny]
        inner[tiny] = ft * ft * (0.5 - 0.33333333333333333 * ft) - lo[tiny]
    inner -= f
    dk *= _LN2_HI
    dk -= inner
    return dk


def _ndtri(y: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF of float64 y in [2^-53, 1 - 2^-53]:
    Cephes ndtri with its branches and order of operations, on _log.  The
    central rational overwrites all of y in place; the tail is scattered in."""
    upper = y > 1.0 - _EXPM2
    tail = np.flatnonzero(upper | (y <= _EXPM2))  # 1 - y <= e^-2 wherever upper
    yt, upper = y.take(tail), upper.take(tail)
    np.subtract(1.0, yt, out=yt, where=upper)
    y -= 0.5  # Q0 keeps clear of 0 for |y| <= 1/2: the tail words stay finite
    central = _rational(y * y, _P0, _Q0)
    central *= y
    y += central
    del central  # three arrays of y's size at most are alive at a time
    y *= _S2PI
    x = _log(yt)
    del yt
    x *= -2.0
    np.sqrt(x, out=x)
    z = 1.0 / x
    far = x >= 8.0
    if far.any():
        x1 = np.empty_like(x)
        x1[far] = _rational(z[far], _P2, _Q2)
        x1[~far] = _rational(z[~far], _P1, _Q1)
    else:
        x1 = _rational(z, _P1, _Q1)
    del z
    lx = _log(x)
    lx /= x
    x -= lx
    del lx
    x -= x1
    np.negative(x, out=x, where=~upper)
    y.put(tail, x)
    return y


def _word_normals(words: np.ndarray) -> np.ndarray:
    """One standard normal per uint64 word, by inverse CDF (_ndtri), written
    over the words: the result is a float64 view of the uint64 array.

    The uniform ((w >> 12) + 0.5) 2**-52 is exact in float64: w >> 12 as
    the mantissa of 1.0 gives 1 + (w >> 12) 2**-52, and less 1 - 2**-53 that
    is the uniform, a multiple of 2**-53 below 1.  It lies strictly inside
    (0, 1), so |z| <= 8.21.  ~w maps to -z, except for the one pair of words
    whose uniforms are e^-2 and 1 - e^-2: Cephes sends the first to its tail
    branch and the second to its central one, and the two values differ in
    the last bits.  (With 53 bits, (w >> 11) + 0.5 rounds to 2**53 for the
    top word, giving inf.)  Only integer and IEEE operations touch the words
    and floats, so the normals are the same on every numpy dispatch tier.
    """
    words >>= _S12
    words |= _ONE_BITS
    u = words.view(np.float64)
    u -= 1.0 - 2.0**-53
    return _ndtri(u)


@dataclass(frozen=True)
class RngSpec:
    """Counter-based random streams keyed by (master_seed, stream_id).

    Chunk c, the samples with absolute indices 4096c to 4096c + 4095, reads
    the Philox4x64-10 stream with key (master_seed, stream_id) mod 2**64 and
    counter c << 128 (Salmon et al., SC'11).  Word
    (n * ndraw + k) * 4096 + (i mod 4096) of that stream, mapped by
    _word_normals (the package's Cephes ndtri on fdlibm's log), is the
    normal of step n, coordinate k, of sample i.
    """

    master_seed: int
    stream_id: int = 0

    def chunk(self, c: int) -> np.random.Philox:
        """The bit generator of chunk c, at the first word of its stream."""
        # a uint64 array: numpy routes a list key through float64
        key = np.array([self.master_seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64)
        return np.random.Philox(key=key, counter=c << 128)


def _group_normals(rng: RngSpec, start: int, m: int, ndraw: int, steps: int):
    """Yield, for steps 0 to steps - 1 in turn, the (m, ndraw) normals of the
    samples with absolute indices start to start + m - 1.

    Each chunk the samples meet keeps its own stream.  Coordinate k of step n
    of columns [lo, hi) of a chunk spans its words (n * ndraw + k) * 4096 +
    [lo, hi); only the 4-word Philox blocks that cover them are generated,
    and the blocks of the other columns are skipped with Philox.advance.  The
    words of all chunks of a step are copied side by side into one buffer,
    allocated once, and mapped there in one call: each yielded array is a
    view of that buffer, overwritten by the next step.
    """
    parts = []  # (stream, words read per coordinate, blocks skipped, columns kept, rows filled)
    row = 0
    while row < m:
        c, lo = divmod(start + row, _CHUNK)
        hi = min(_CHUNK, lo + m - row)
        first, stop = lo // 4, -(-hi // 4)
        bitgen = rng.chunk(c)
        bitgen.advance(first)
        parts.append((bitgen, 4 * (stop - first), _CHUNK // 4 - (stop - first),
                      slice(lo - 4 * first, hi - 4 * first), slice(row, row + hi - lo)))
        row += hi - lo
    words = np.empty((ndraw, m), dtype=np.uint64)
    for _ in range(steps):
        for bitgen, width, skip, cols, rows in parts:
            for coord in words[:, rows]:
                coord[:] = bitgen.random_raw(width)[cols]
                bitgen.advance(skip)
        yield _word_normals(words).T


def scheme_step(model: SdeModel, t: float, x, delta: float, gaussian) -> np.ndarray:
    """One step of the scheme: explicit Euler, or the exactly-sampled kinetic step.

    The velocity block v (all of x when non-degenerate) moves to
    v + b(t, x) delta + sigma(t, x) sqrt(delta) g1, where g1 is the first d'
    normals and model.noise applies sigma(t, x); its one-step law is Gaussian
    with mean v + b delta and covariance a delta.  A kinetic model draws d'
    more normals g2 to complete the integrated-position block
    z + v delta + b delta^2/2 + noise, so the joint law has covariance blocks
    (a d, a d^2/2; a d^2/2, a d^3/3).  What noise returns is never written
    into, as it may be g1 itself.  The result is not checked for finiteness;
    simulate_terminal checks each step's batch.
    """
    x = np.asarray(x, dtype=float)
    g = np.asarray(gaussian, dtype=float)
    dp = model.d_prime
    v, g1 = x[..., :dp], g[..., :dp]
    b = np.asarray(model.drift(t, x), dtype=float)
    rt = math.sqrt(delta)
    # sums in place, in the order of v + b delta + rt E: IEEE + and * commute
    res = np.empty(x.shape)
    out = res[..., :dp]
    np.multiply(b, delta, out=out)
    out += v
    # *, not *=: numpy reuses the buffer of a temporary that nothing else holds
    out += model.noise(t, x, g1) * rt
    if model.case is not Case.KINETIC:
        return res
    mix = 0.5 * g1
    mix += g[..., dp:] / (2.0 * math.sqrt(3.0))
    noise = model.noise(t, x, mix) * (delta * rt)
    del mix
    # z + v delta + b delta^2 / 2 + noise, as above
    z = res[..., dp:]
    np.multiply(v, delta, out=z)
    z += x[..., dp:]
    b = 0.5 * b
    b *= delta * delta
    z += b
    z += noise
    return res


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
    results do not depend on the thread count, on execution order or on how
    chunks are grouped.  Runs of up to _GROUP_CHUNKS consecutive chunks are
    stepped together, one step's normals at a time, so memory does not grow
    with N or M.  Each step's batch is checked for finiteness: NumericError
    names the step and the first sample of the first chunk that fails.
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

    per_group = max(1, min(_GROUP_CHUNKS, _BLOCK_WORDS // (ndraw * _CHUNK)))

    def run(lo: int, hi: int) -> None:
        x = out[lo:hi]  # the state lives in its rows of the output
        x[:] = x0
        steps = enumerate(_group_normals(rng, sample_offset + lo, hi - lo, ndraw, grid.N))
        # a state that leaves the float range is refused below, without a warning
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for n, draws in steps:
                x[:] = scheme_step(model, grid.times[n], x, grid.delta, draws)
                if not np.isfinite(x).all():
                    i = int(np.argmin(np.isfinite(x).all(axis=1)))
                    raise NumericError(
                        f"non-finite state at step {n} in sample {sample_offset + lo + i}"
                    )

    def run_group(bounds: list[int]) -> None:
        try:
            run(bounds[0], bounds[-1])
        except NumericError:
            # a later chunk may fail at an earlier step: replay the chunks in
            # turn, so that the error names the first failing chunk's failure
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                run(lo, hi)
            raise

    # chunk edges never depend on the thread count, nor do the groups
    edges = [0, *range(_CHUNK - sample_offset % _CHUNK, M, _CHUNK), M]
    groups = [edges[k : k + per_group + 1] for k in range(0, len(edges) - 1, per_group)]
    if threads > 1 and len(groups) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_group, groups))
    else:
        for bounds in groups:
            run_group(bounds)
    return out

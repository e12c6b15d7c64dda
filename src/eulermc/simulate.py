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
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .model import Case, SdeModel, SchemeGrid

_MASK64 = (1 << 64) - 1
# Part of the stream definition, not a tuning knob: chunk c holds absolute
# sample indices 4096c to 4096c + 4095 and reads one stream, so every output
# changes with it.  Chunk boundaries never depend on the thread count.
_CHUNK = 4096
_S12 = np.uint64(12)
_ONE_BITS = np.uint64(0x3FF0000000000000)  # the bits of 1.0
# most words one step of a group reads (a chunk whose step reads more is a
# group of its own), one random_raw call reads and one map piece maps:
# fewer, larger numpy calls hold the GIL for less of the time, and a piece
# stays in cache; no output depends on it
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
_UPPER_BITS = np.float64(1.0 - _EXPM2).view(np.int64)  # the bits of 1 - e^-2
# fdlibm __ieee754_log: ln 2 split so that k ln2_hi is exact, and the
# minimax coefficients of (log(1+f) - 2s)/s with s = f/(2+f)
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_LG1, _LG2, _LG3, _LG4, _LG5, _LG6, _LG7 = (
    6.666666666666735130e-01, 3.999999999940941908e-01, 2.857142874366239149e-01,
    2.222219843214978396e-01, 1.818357216161805012e-01, 1.531383769920937332e-01,
    1.479819860511658591e-01,
)


def _horner(x: np.ndarray, coef, out: np.ndarray, monic: bool = False) -> np.ndarray:
    """Cephes polevl, or p1evl when monic (a leading 1 before coef), into out."""
    if monic:
        np.add(x, coef[0], out=out)
    else:
        np.multiply(x, coef[0], out=out)
        out += coef[1]
    for c in coef[2 - monic :]:
        out *= x
        out += c
    return out


def _rational(x: np.ndarray, p, q, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """x p(x) / q(x), q monic, into out, in Cephes' order of operations (x p
    before the division; IEEE * commutes, so p(x) x is the same product);
    work holds q(x)."""
    _horner(x, p, out)
    out *= x
    out /= _horner(x, q, work, True)
    return out


def _select(mask: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """b becomes a where the int64 mask is -1 and stays b where it is 0, as
    b ^ ((a ^ b) & mask) on the bits: exact for every value.  a is
    overwritten."""
    a, b = a.view(np.int64), b.view(np.int64)
    a ^= b
    a &= mask
    b ^= a


def _log(
    x: np.ndarray, out: np.ndarray | None = None, work: np.ndarray | None = None
) -> np.ndarray:
    """Natural log of positive normal float64 values: fdlibm's
    __ieee754_log, all three branches, in integer ops and IEEE + - * /
    only, so its bits do not depend on numpy's SIMD dispatch.

    x = 2^k (1 + f), with 1 + f in about [sqrt(2)/2, sqrt(2)) as fdlibm
    splits on the high word.  log(1 + f) is f - R for |f| < 2^-20, else it
    comes from s = f/(2 + f) and a polynomial R in s^2, combined in one of
    two ways by the size of f: both ways are computed and one is selected
    on the bits.  The log goes to out, which may be x; work is six arrays of
    x's shape.  Each is allocated when None.
    """
    if out is None:
        out = np.empty_like(x)
    if work is None:
        work = np.empty((6, *x.shape))
    bits = x.view(np.int64)
    hx, k = work[0].view(np.int64), work[1].view(np.int64)
    np.right_shift(bits, 32, out=hx)
    hx &= 0xFFFFF  # the high 20 bits of the mantissa
    np.add(hx, 2, out=k)
    k &= 0xFFFFF
    tiny = np.flatnonzero(k < 3) if k.min() < 3 else None  # |f| < 2^-20, rare
    # -1 where 0x6147A <= hx <= 0x6B851: there hx - 0x6147A and
    # hx - 0x6B852 differ in sign
    np.subtract(hx, 0x6147A, out=k)
    hx -= 0x6B852
    hx ^= k
    hx >>= 63
    big = hx
    np.subtract(bits, 0x3FE6A09C00000000, out=k)
    k >>= 52
    f = work[2]
    fbits = f.view(np.int64)
    np.left_shift(k, 52, out=fbits)
    np.subtract(bits, fbits, out=fbits)
    f -= 1.0
    dk = out  # x is not read below
    np.copyto(dk, k)
    s, z, w, r = work[1], work[3], work[4], work[5]
    np.add(f, 2.0, out=s)
    np.divide(f, s, out=s)
    np.multiply(s, s, out=z)
    np.multiply(z, z, out=w)
    _horner(w, (_LG7, _LG5, _LG3, _LG1), r)
    r *= z
    t = _horner(w, (_LG6, _LG4, _LG2), z)
    t *= w
    r += t
    hfsq = np.multiply(f, 0.5, out=z)
    hfsq *= f
    # hfsq - (s (hfsq + r) + lo) where big, else s (f - r) - lo
    a = np.add(hfsq, r, out=w)
    inner = np.subtract(f, r, out=r)
    _select(big, a, inner)
    inner *= s
    lo = np.multiply(dk, _LN2_LO, out=s)
    np.add(inner, lo, out=a)
    np.subtract(hfsq, a, out=a)
    inner -= lo
    _select(big, a, inner)
    if tiny is not None:
        ft = f[tiny]
        inner[tiny] = ft * ft * (0.5 - 0.33333333333333333 * ft) - lo[tiny]
    inner -= f
    dk *= _LN2_HI
    dk -= inner
    return dk


def _ndtri_tail(y: np.ndarray, work: np.ndarray) -> None:
    """Cephes ndtri's tail branch, written over y: y <= e^-2 gives
    -(z - log(z)/z - P(1/z)/(z Q(1/z))) with z = sqrt(-2 log y), and
    y > 1 - e^-2 the same of 1 - y with the sign kept.  work is eight
    arrays of y's size."""
    upper = work[0].view(np.int64)
    # -1 where y > 1 - e^-2: positive doubles order as their bits do
    np.subtract(_UPPER_BITS, y.view(np.int64), out=upper)
    upper >>= 63
    _select(upper, np.subtract(1.0, y, out=work[1]), y)
    x = _log(y, y, work[1:7])
    x *= -2.0
    np.sqrt(x, out=x)
    far = np.flatnonzero(x >= 8.0) if x.max() >= 8.0 else None  # y < e^-32, rare
    lx = _log(x, work[1], work[2:8])
    lx /= x
    z = np.divide(1.0, x, out=work[2])
    x -= lx
    x1 = _rational(z, _P1, _Q1, work[1], work[3])
    if far is not None:
        zf = z[far]
        x1[far] = _rational(zf, _P2, _Q2, np.empty_like(zf), np.empty_like(zf))
    x -= x1
    # the sign bit where y <= e^-2: -x exactly
    upper += 1
    upper <<= 63
    xbits = x.view(np.int64)
    xbits ^= upper


def _map_work(words: int) -> int:
    """Floats of scratch the normal map needs for `words` words: three arrays
    of a piece's size for the central rational, which also hold the tail's
    eight arrays (its share of the words is 2 e^-2 = 0.27, so one piece
    almost always)."""
    return 3 * min(words, _BLOCK_WORDS) + 8


def _ndtri(y: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF of float64 y in [2^-53, 1 - 2^-53], a
    1-d contiguous array: Cephes ndtri with its branches and order of
    operations, on _log.

    work is a float64 buffer of at least 3 y.size + 8 floats that the caller
    owns.  The tail words are gathered first; the central rational then
    overwrites all of y in place in one pass, in three thirds of work, and
    the tail runs in eight views carved from work, in pieces when it is
    longer than an eighth of it, and is scattered in."""
    n = y.size
    flags = work[:n].view(np.bool_)  # two masks of y's size
    in_tail = np.less_equal(y, _EXPM2, out=flags[:n])
    in_tail |= np.greater(y, 1.0 - _EXPM2, out=flags[n : 2 * n])
    tail = np.flatnonzero(in_tail)
    yt = y.take(tail)
    y -= 0.5  # Q0 keeps clear of 0 for |y| <= 1/2: the tail words stay finite
    a, b, c = work[:n], work[n : 2 * n], work[2 * n : 3 * n]
    central = _rational(np.multiply(y, y, out=a), _P0, _Q0, b, c)
    central *= y
    y += central
    y *= _S2PI
    cap = work.size // 8
    views = work[: 8 * cap].reshape(8, cap)
    for lo in range(0, yt.size, cap):
        piece = yt[lo : lo + cap]
        _ndtri_tail(piece, views[:, : piece.size])
    y.put(tail, yt)
    return y


def _word_normals(words: np.ndarray, work: np.ndarray) -> np.ndarray:
    """One standard normal per uint64 word, by inverse CDF (_ndtri), in the
    words' shape: written over the words when they are contiguous (a float64
    view of the uint64 array), else into a copy.  The words are mapped in
    pieces of _BLOCK_WORDS; work is the map's scratch, a float64 buffer of at
    least _map_work(words.size).

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
    flat = u.reshape(-1)
    for lo in range(0, flat.size, _BLOCK_WORDS):
        _ndtri(flat[lo : lo + _BLOCK_WORDS], work)
    return flat.reshape(u.shape)


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


def _group_normals(rng: RngSpec, edges: list[int], ndraw: int, steps: int, words, work):
    """Yield, for steps 0 to steps - 1 in turn, the (m, ndraw) normals of the
    m samples with absolute indices edges[0] to edges[-1] - 1, where each
    two consecutive edges bound samples of one chunk.

    Each chunk keeps its own stream.  Coordinate k of step n of columns
    [lo, hi) of a chunk spans its words (n * ndraw + k) * 4096 + [lo, hi);
    only the 4-word Philox blocks that cover them are generated, and the
    blocks of the other columns are skipped with Philox.advance.  A chunk
    that skips no block, a full one, has a step's coordinates consecutive in
    its stream and reads up to 16 of them (_BLOCK_WORDS words) per call.
    The words of all chunks of a step are copied side by side into the first
    ndraw * m words of the caller's uint64 buffer `words` and mapped there,
    with the caller's `work` as the map's scratch: each yielded array is a
    view of `words`, overwritten by the next step.
    """
    parts = []  # (stream, words read per coordinate, blocks skipped, columns kept, rows filled)
    for a, b in zip(edges[:-1], edges[1:]):
        c, lo = divmod(a, _CHUNK)
        hi = lo + b - a
        first, stop = lo // 4, -(-hi // 4)
        bitgen = rng.chunk(c)
        bitgen.advance(first)
        parts.append((bitgen, 4 * (stop - first), _CHUNK // 4 - (stop - first),
                      slice(lo - 4 * first, hi - 4 * first), slice(a - edges[0], b - edges[0])))
    words = words[: ndraw * (edges[-1] - edges[0])].reshape(ndraw, -1)
    batch = _BLOCK_WORDS // _CHUNK
    for _ in range(steps):
        for bitgen, width, skip, cols, rows in parts:
            if skip:
                for coord in words[:, rows]:
                    coord[:] = bitgen.random_raw(width)[cols]
                    bitgen.advance(skip)
            else:  # the step's coordinates follow each other in the stream
                for k in range(0, ndraw, batch):
                    coords = words[k : k + batch, rows]
                    coords[:] = bitgen.random_raw(len(coords) * width).reshape(-1, width)[:, cols]
        yield _word_normals(words, work).T


def scheme_step(model: SdeModel, t: float, x, delta: float, gaussian, out=None) -> np.ndarray:
    """One step of the scheme: explicit Euler, or the exactly-sampled kinetic step.

    The velocity block v (all of x when non-degenerate) moves to
    v + b(t, x) delta + sigma(t, x) sqrt(delta) g1, where g1 is the first d'
    normals and model.noise applies sigma(t, x); its one-step law is Gaussian
    with mean v + b delta and covariance a delta.  A kinetic model draws d'
    more normals g2 to complete the integrated-position block
    z + v delta + b delta^2/2 + noise, so the joint law has covariance blocks
    (a d, a d^2/2; a d^2/2, a d^3/3).  A model without drift (model.drift
    None) has v + 0.0 and (z + v delta) + 0.0 in place of the drift terms.
    What noise returns is never written into, as it may be g1 itself.

    x, gaussian and out may be strided views of any layout; the step is
    elementwise, so its bits do not depend on it, and each numpy pass runs
    fastest when the three share one.  simulate_terminal passes the (m, d)
    transposes of row-major (d, m) blocks, so that each coordinate's column
    is contiguous.  The result is written into out, an array of x's shape
    that shares no memory with x or the normals, or into a new array when
    out is None.  It is not checked for finiteness; simulate_terminal checks
    each step's batch.
    """
    x = np.asarray(x, dtype=float)
    g = np.asarray(gaussian, dtype=float)
    dp = model.d_prime
    v, g1 = x[..., :dp], g[..., :dp]
    rt = math.sqrt(delta)
    kinetic = model.case is Case.KINETIC
    # sums in place, in the order of v + b delta + rt E: IEEE + and * commute
    res = np.empty(x.shape) if out is None else out
    vel = res[..., :dp]
    if model.drift is None:  # the bits of a +0.0 drift (SdeModel)
        np.add(v, 0.0, out=vel)
        b = 0.0
    else:
        b = np.asarray(model.drift(t, x), dtype=float)
        np.multiply(b, delta, out=vel)
        vel += v
        if kinetic:  # b delta^2 / 2 at b's last use: fewer arrays alive at once
            b = 0.5 * b
            b *= delta * delta
    # *, not *=: numpy reuses the buffer of a temporary that nothing else holds
    vel += model.noise(t, x, g1) * rt
    if not kinetic:
        return res
    # the integrated block holds the mixed normals until its sum below
    z = res[..., dp:]
    mix = np.multiply(g1, 0.5, out=z)
    mix += g[..., dp:] / (2.0 * math.sqrt(3.0))
    noise = model.noise(t, x, mix) * (delta * rt)
    # z + v delta + b delta^2 / 2 + noise, as above
    np.multiply(v, delta, out=z)
    z += x[..., dp:]
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
    with N or M.  Each worker (the calling thread, and each thread it starts)
    allocates its scratch, the group's words and the map's work buffer, on
    its first group and reuses it for every later group and step; the call
    drops it on return, no module holds any, and no output depends on it.
    A group of m samples keeps its state in the normals' layout: its own
    m d floats of the output, read as a row-major (d, m) block, are stepped
    as their (m, d) transpose into the work buffer and copied back, and its
    m rows are written once, after the last step.
    Each step's batch is checked for finiteness: NumericError names the step
    and the first sample of the first chunk that fails.
    """
    if M < 1:
        raise ConfigError("need at least one sample")
    if sample_offset < 0 or sample_offset + M > 1 << 64:
        raise ConfigError("sample indices must lie in [0, 2**64)")
    if 8 * M * model.d > _SAMPLES_CAP_BYTES:
        raise ConfigError(
            f"{M:,} samples of dimension {model.d} need "
            f"{8 * M * model.d / 2**30:,.0f} GiB, above the cap of "
            f"{_SAMPLES_CAP_BYTES // 2**30} GiB"
        )
    x0 = np.asarray(x0, dtype=float).reshape(model.d)
    ndraw = draw_dim(model)
    out = np.empty((M, model.d))

    per_group = max(1, min(_GROUP_CHUNKS, _BLOCK_WORDS // (ndraw * _CHUNK)))
    group = min(M, per_group * _CHUNK)  # the most samples one group steps
    # each worker's scratch by its thread id, made on its first group (only a
    # worker sets its own key) and freed by this call on return: a
    # threading.local, freed by each started thread as it exits, raised the peak
    # RSS of a 2-thread kinetic `density-check` by about 0.15 MB
    scratch = {}

    def run(edges: list[int]) -> None:
        worker = threading.get_ident()
        if worker not in scratch:
            # the next state is written into the map's work buffer, idle while a step runs
            scratch[worker] = (
                np.empty(ndraw * group, dtype=np.uint64),
                np.empty(max(_map_work(ndraw * group), model.d * group)),
            )
        words, work = scratch[worker]
        rows = out[edges[0] - sample_offset : edges[-1] - sample_offset]
        state = rows.reshape(model.d, -1)  # the rows' floats, in the normals' layout
        state[:] = x0[:, None]
        nxt = work[: state.size].reshape(state.shape)
        steps = _group_normals(rng, edges, ndraw, grid.N, words, work)
        # a state that leaves the float range is refused below, without a warning
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for n, draws in enumerate(steps):
                scheme_step(model, grid.times[n], state.T, grid.delta, draws, nxt.T)
                if not np.isfinite(nxt).all():
                    i = int(np.argmin(np.isfinite(nxt).all(axis=0)))
                    raise NumericError(f"non-finite state at step {n} in sample {edges[0] + i}")
                if n + 1 < grid.N:  # the next step's map overwrites nxt
                    state[:] = nxt
        rows[:] = nxt.T  # the map ran no more after the last step

    def run_group(edges: list[int]) -> None:
        try:
            run(edges)
        except NumericError:
            # a later chunk may fail at an earlier step: replay the chunks in
            # turn, so that the error names the first failing chunk's failure
            for k in range(len(edges) - 1):
                run(edges[k : k + 2])
            raise

    # absolute chunk edges never depend on the thread count, nor do the groups
    end = sample_offset + M
    edges = [sample_offset, *range((sample_offset // _CHUNK + 1) * _CHUNK, end, _CHUNK), end]
    groups = [edges[k : k + per_group + 1] for k in range(0, len(edges) - 1, per_group)]
    # the calling thread and threads - 1 more pull groups in order, each up to its first error
    todo, errors = enumerate(groups), {}

    def work() -> None:
        for k, bounds in todo:
            try:
                run_group(bounds)
            except BaseException as exc:
                errors[k] = exc
                break

    helpers = [threading.Thread(target=work) for _ in range(min(threads, len(groups)) - 1)]
    for t in helpers:
        t.start()
    work()
    for t in helpers:
        t.join()
    if errors:
        raise errors[min(errors)]
    return out

"""The exact `%d` and `%.17g` text of a block of CSV rows, in numpy integer
arithmetic.

Every row of a block is one row of a uint8 matrix: each field has 24 byte
slots, the slots a field does not use hold 0, and one mask drops them.  A
float's 17 significant digits are D = round-half-even(|x| 10^s), computed
exactly from its bits as m 5^s 2^(e+s) with a 128-bit product of 32-bit
limbs (the integer route of Ryu printf, Adams, PLDI 2019), so no float
rounding and no SIMD dispatch tier reaches the text.  The fixed form of `%g`
covers [1e-4, 1e17); this path takes [1e-4, 1e15) and leaves every other
float (zeros, subnormals, inf, nan and larger or smaller magnitudes) to
`%.17g` itself, one value at a time.

A field is laid out in whole 64-bit words: its digits, placed once as they
are and once a slot to the left, are masked and merged with the sign, the
"0.000" lead and the decimal point.  The masks are one row of a table,
picked by the field's sign, decimal exponent and number of digits.
"""

from __future__ import annotations

import numpy as np

_WIDTH = 24  # slots of a field; a `%.17g` fallback takes at most 24 bytes
# the four ASCII digits of 0000 ... 9999 as one uint32 each
_GROUPS = (
    (np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0"))
    .astype(np.uint8)
    .view(np.uint32)
    .ravel()
)
# trailing zero digits of each 4-digit group, 4 for 0000
_TRAILING_ZEROS = sum((np.arange(10_000) % 10**k == 0).astype(np.intp) for k in range(1, 5))
# 10^j for j = -4 ... 15 as doubles, each at or just above 10^j, so that a
# double is at least 10^j exactly when it is at least _TENS[j + 4]
_TENS = np.array([float(f"1e{j}") for j in range(-4, 16)])
_POW5 = np.array([5**s for s in range(21)], dtype=np.uint64)
_POW10 = np.array([10**k for k in range(1, 20)], dtype=np.uint64)
_M32 = np.uint64(0xFFFFFFFF)


def _mask_table(shape, left, here, chars) -> tuple:
    """Three tables of rows of three uint64 words, from byte tables of
    `shape` (..., 24): the masks of the digits placed a slot to the left and
    as they are (0xFF where true), and the ASCII characters to merge in."""
    parts = [np.where(left, 0xFF, 0), np.where(here, 0xFF, 0), chars]
    return tuple(
        np.broadcast_to(part, shape).astype(np.uint8).reshape(-1, _WIDTH).view(np.uint64)
        for part in parts
    )


def _int_masks() -> tuple:
    """Rows (neg, length): 20 digits in slots 4-23, the last `length` of
    them shown, and a minus sign in the slot before the first shown."""
    neg, length, slot = np.ix_(range(2), range(21), range(_WIDTH))
    sign = np.where(neg & (slot == _WIDTH - 1 - length), ord("-"), 0)
    return _mask_table((2, 21, _WIDTH), False, slot >= _WIDTH - length, sign)


def _float_masks() -> tuple:
    """Rows (neg, exponent X + 4, significant digits sig): the 17 digits
    from slot 6, or from slot 7 past a decimal point after digit X, which
    shows when a digit follows it; for X < 0, "0." and -X - 1 zeros in
    slots 1-5; a sign in slot 0."""
    neg, X, sig, slot = np.ix_(range(2), range(-4, 15), range(18), range(_WIDTH))
    j = slot - 6  # the slot's place in the digit string
    point = (X >= 0) & (X + 1 < sig)
    left = (j >= 0) & np.where(X < 0, j < sig, j <= X)
    here = point & (j >= X + 2) & (j <= sig)
    lead = (slot >= 1) & (slot < 2 - X)
    chars = np.where(lead & (X < 0), np.where(slot == 2, ord("."), ord("0")), 0)
    chars = np.where(point & (j == X + 1), ord("."), chars)
    chars = np.where(neg & (slot == 0), ord("-"), chars)
    return _mask_table((2, 19, 18, _WIDTH), left, here, chars)


_INT_MASKS = _int_masks()
_FLOAT_MASKS = _float_masks()


def _divmod(u: np.ndarray, d: int):
    q = u // d  # and no np.divmod, which takes three times as long
    return q, u - q * d


def _groups(u: np.ndarray) -> np.ndarray:
    """The 20 decimal digits of each uint64 as five 4-digit groups, in
    columns 1-5 of an (n, 6) array whose column 0 is 0."""
    groups = np.zeros((len(u), 6), np.intp)
    groups[:, 1], rest = _divmod(u, 10**16)
    hi, lo = _divmod(rest.astype(np.intp), 10**8)
    groups[:, 2], groups[:, 3] = _divmod(hi, 10**4)
    groups[:, 4], groups[:, 5] = _divmod(lo, 10**4)
    return groups


def _text(groups: np.ndarray, codes: np.ndarray, tables: tuple) -> np.ndarray:
    """The (n, 24) uint8 slots of fields with digit `groups` and the mask
    rows `codes` of `tables`: the digits land in slots 4-23 as they are."""
    left_mask, here_mask, chars = (np.take(table, codes, axis=0) for table in tables)
    here = _GROUPS[groups].view(np.uint8)
    left = np.empty_like(here)
    left[:, :-1] = here[:, 1:]
    left[:, -1] = 0
    text = np.bitwise_and(left.view(np.uint64), left_mask)
    text |= here.view(np.uint64) & here_mask
    text |= chars
    return text.view(np.uint8)


def _int_text(v: np.ndarray) -> np.ndarray:
    """`%d` of an integer column, in as many slots as its longest entry needs."""
    mag = v.astype(np.uint64)
    neg = v < 0
    np.negative(mag, out=mag, where=neg)  # modulo 2^64, so int64 min gives 2^63
    length = np.searchsorted(_POW10, mag, side="right") + 1
    text = _text(_groups(mag), neg * 21 + length, _INT_MASKS)
    return text[:, _WIDTH - int((length + neg).max()) :]


def _float_text(x: np.ndarray) -> np.ndarray:
    """`%.17g` of a float64 column, in 24 slots a row."""
    fast = (np.abs(x) >= 1e-4) & (np.abs(x) < 1e15)
    # the other values are computed as 1.0, and % writes them at the end
    ax = np.where(fast, np.abs(x), 1.0)
    bits = np.where(fast, x, 1.0).view(np.uint64)
    E = (bits >> 52 & 0x7FF).view(np.int64) - 1023  # |x| = m 2^(E-52), E in [-14, 49]
    m = bits & np.uint64(2**52 - 1) | np.uint64(2**52)
    k = (E * 78913) >> 18  # floor(E log10 2): the decimal exponent or one less
    X = k + (ax >= _TENS[k + 5])  # the decimal exponent of |x|
    t = (36 + X - E).astype(np.uint64)  # -(E - 52 + s) for s = 16 - X, in [1, 46]
    # P = m 5^s = A 2^64 + B from 32-bit limbs; m < 2^53 and 5^s < 2^47
    p = _POW5[16 - X]
    ml, mh, pl, ph = m & _M32, m >> 32, p & _M32, p >> 32
    low = ml * pl
    mid = ml * ph + mh * pl
    B = low + (mid << 32)
    A = mh * ph + (mid >> 32) + (B < low)
    F = A << (64 - t) | B >> t  # floor(|x| 10^s), in [10^16, 10^17)
    R = B & ((np.uint64(1) << t) - 1)  # the bits below the point
    half = np.uint64(1) << (t - 1)
    # rounded half to even; below each power of ten in the range, the
    # nearest double is more than half a 17th digit away, so D < 10^17
    D = F + ((R > half) | (R == half) & (F & 1 == 1))
    groups = _groups(D)  # D's first digit alone in group 1, then four groups of 4
    # trailing zero digits, over the four groups from the first
    zeros = _TRAILING_ZEROS[groups[:, 2]]
    for c in (3, 4, 5):
        zeros = _TRAILING_ZEROS[groups[:, c]] + (groups[:, c] == 0) * zeros
    sig = 17 - zeros
    neg = (bits >> 63).astype(np.intp)
    text = _text(groups, (neg * 19 + X + 4) * 18 + sig, _FLOAT_MASKS)
    for i in np.flatnonzero(~fast):
        g = b"%.17g" % float(x[i])
        text[i] = 0
        text[i, : len(g)] = np.frombuffer(g, np.uint8)
    return text


def format_rows(columns, ints) -> np.ndarray:
    """The bytes of `%d`/`%.17g` CSV rows of equal-length columns, as a
    uint8 array; ints[j] says whether column j prints with `%d`."""
    n = len(columns[0])
    parts = []
    for col, is_int in zip(columns, ints):
        parts += [
            _int_text(col) if is_int else _float_text(np.ascontiguousarray(col, dtype=np.float64)),
            np.full((n, 1), ord(","), np.uint8),
        ]
    parts[-1] = np.full((n, 1), ord("\n"), np.uint8)
    rows = np.concatenate(parts, axis=1)
    return rows[rows != 0]

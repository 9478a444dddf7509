"""The `%.17g` text of a block of doubles, formatted in numpy.

Each value becomes a fixed-width row of uint64 words holding its text and
NUL bytes, and one `bytes.translate` removes the NULs.  The words are built
from byte strings, so the layout does not depend on the byte order:

    word 0       sign, "0.", "0.00" ... prefix, first digit
    words 1-2    the integer digits after the first, then the point
    words 3-4    the fraction digits
    word 5 ...   "e-XX" exponent, then the column's separator (from byte 4)

A value x = 0 or 1e-11 <= |x| < 1e17 takes its 17 significant digits from
one scaling `y = |x| 10^(16-E)` in `np.longdouble`, E its decimal exponent.
Each `10^k`, k <= 27, is exact there (5^k < 2^64), so `y < 2^57` carries one
rounding, at most half an ulp.  Where longdouble is an IEEE binary format
(x87's 64-bit significand, quad's 113) that ulp divides 1/2, so y and D =
rint(y) are multiples of it: `|y - D| < 1/2` leaves y at least an ulp from
the tie, and D is the correctly rounded 17-digit integer.  Double-double
has no fixed ulp and asks `|y - D| < 1/2 - 1/64`, against an error of at
most 2^-8.  Every other value (nan, inf, subnormals, values outside that
range or at a rounding tie, and every value where longdouble has fewer than
64 significand bits) is formatted by `"%.17g" % x` itself into its own row.
A fast path that knows when it is unsure, backed by an exact fallback, is
Grisu3's design (Loitsch, PLDI 2010).
"""

from __future__ import annotations

import numpy as np

#: the scaling needs a longdouble with 64 or more significand bits (x87's
#: 80-bit format, IEEE quad); where longdouble is double every value takes `%`.
_FAST = np.finfo(np.longdouble).nmant >= 63

_E_MIN, _E_MAX = -11, 16
_LO, _HI = 10 ** 16, 10 ** 17  # the 17-digit integers
_POW10 = np.array([np.ldexp(np.longdouble(np.uint64(5 ** k)), k)
                   for k in range(_E_MAX - _E_MIN + 1)])
#: |y - D| below this decides D: exact for the IEEE formats, a margin for double-double
_MARGIN = 0.5 if np.finfo(np.longdouble).nmant in (63, 112) else 0.5 - 1 / 64
_WORDS = 5  # before the tail
_PERCENT = b"%%-%d.17g" % (8 * _WORDS)  # "%.17g", padded with spaces to the five words


def _words(texts, width: int) -> np.ndarray:
    """Byte strings as rows of `width` uint64 words, NUL-padded."""
    return np.array(texts, dtype=f"S{8 * width}").view(np.uint64).reshape(len(texts), width)


# per exponent class c = E - _E_MIN; %.17g writes 0 <= E <= 16 as [-]ddd[.ddd],
# -4 <= E < 0 as [-]0.000ddd and E < -4 as [-]d[.ddd]e-XX
_X = np.arange(_E_MIN, _E_MAX + 1)
_FIXED_NEG = (_X < 0) & (_X >= -4)
_INT = np.where(_X > 0, _X, 0)  # digits after the first before the point
#: word 0 by class and first digit: sign slot, prefix, NUL padding, digit
_HEAD = _words([b"\0" + (b"0." + b"0" * (-x - 1) if neg else b"").ljust(6, b"\0") + b"%d" % d
                for x, neg in zip(_X, _FIXED_NEG) for d in range(10)], 1)[:, 0]
_EXPO = _words([b"e-%02d" % -x if x < -4 else b"" for x in _X], 1)[:, 0]
#: LOW[m] keeps the first m of the 16 digit bytes of words 1-2 (or 3-4)
_LOW0, _LOW1 = _words([b"\xff" * m for m in range(17)], 2).T.copy()
_INT0, _INT1 = _LOW0[_INT], _LOW1[_INT]
_FRAC0, _FRAC1 = ~_INT0, ~_INT1
#: a point follows the integer digits when more significant digits follow
_POINT_AFTER = np.where(_FIXED_NEG, 16, _INT)
_DOT = _words([b"\0" * 15 + b"."], 2)[0, 1]
_SIGN = _words([b"-"], 1)[0, 0]
# four-digit groups as bytes 0-3 (A) or 4-7 (B) of a word, and their trailing zeros
_G4 = np.zeros((2, 10000, 8), np.uint8)
_DIGITS = np.arange(48, 58, dtype=np.uint8)
_G4[0, :, :4] = _G4[1, :, 4:] = np.stack(np.meshgrid(*[_DIGITS] * 4, indexing="ij"),
                                         axis=-1).reshape(10000, 4)
_G4A, _G4B = _G4.view(np.uint64)[:, :, 0]
_TZ4 = sum((np.arange(10000) % 10 ** j == 0).astype(np.int64) for j in range(1, 5))


def tails(seps: list[str]) -> np.ndarray:
    """The tail words of each column: its separator from byte 4 of the first."""
    width = (len(max(seps, key=len)) + 11) // 8
    return _words([b"\0" * 4 + s.encode() for s in seps], width)


def _fast(v: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Write words 0-5 of each value of `v` the fast path decides; return
    where it did."""
    a = np.abs(v)
    ok = (a >= 1e-11) & (a < 1e17)
    a[~ok] = 1.0
    E = np.floor(np.log10(a)).astype(np.int64)
    np.maximum(E, _E_MIN, out=E)
    np.minimum(E, _E_MAX, out=E)
    a = a.astype(np.longdouble)
    y = a * _POW10[16 - E]
    D = np.rint(y)
    # log10 can be one off near a power of ten: the test is on the unrounded y
    fix = np.flatnonzero((y < _LO) | (D >= _HI))
    if len(fix):
        E[fix] = np.clip(E[fix] + np.where(y[fix] < _LO, -1, 1), _E_MIN, _E_MAX)
        y[fix] = a[fix] * _POW10[16 - E[fix]]
        D[fix] = np.rint(y[fix])
    y -= D
    D = D.astype(np.int64)
    ok &= (np.abs(y.astype(np.float64)) < _MARGIN) & (D >= _LO) & (D < _HI)
    D[~ok] = 0
    zero = v == 0
    E[zero] = 0
    ok |= zero
    # the digits: d0, then four groups of four
    d0 = D // _LO
    D -= d0 * _LO
    hi = D // 10 ** 8
    lo = D - hi * 10 ** 8
    g0 = hi // 10000
    g1 = hi - g0 * 10000
    g2 = lo // 10000
    g3 = lo - g2 * 10000
    tz = _TZ4[g3]
    tz[D == 0] = 16  # zeros and round values skip the loop
    m = np.flatnonzero(tz == 4)
    for g, all_zero in ((g2, 8), (g1, 12), (g0, 16)):
        tz[m] += _TZ4[g[m]]
        m = m[tz[m] == all_zero]
    sig = 16 - tz  # significant digits after d0
    c = E - _E_MIN
    r0 = _G4A[g0] | _G4B[g1]
    r1 = _G4A[g2] | _G4B[g3]
    c10 = c * 10
    c10 += d0
    np.take(_HEAD, c10, out=words[0])
    words[0] |= np.signbit(v) * _SIGN
    np.bitwise_and(r0, _INT0[c], out=words[1])
    np.bitwise_and(r1, _INT1[c], out=words[2])
    words[2] |= (sig > _POINT_AFTER[c]) * _DOT
    np.bitwise_and(r0, _LOW0[sig] & _FRAC0[c], out=words[3])
    np.bitwise_and(r1, _LOW1[sig] & _FRAC1[c], out=words[4])
    np.take(_EXPO, c, out=words[5])
    return ok


def rows_text(block: np.ndarray, tail: np.ndarray) -> bytes:
    """The rows of `block` (rows, columns) as `%.17g` text, each value
    followed by its column's separator (`tail`, from `tails`)."""
    rows, ncols = block.shape
    v = block.ravel()
    words = np.empty((_WORDS + tail.shape[1], len(v)), np.uint64)
    words[_WORDS + 1:] = 0
    ok = _fast(v, words) if _FAST else np.zeros(len(v), bool)
    slow = np.flatnonzero(~ok)
    if len(slow):  # one % call; the space padding goes with the NULs
        text = (_PERCENT * len(slow)) % tuple(v[slow].tolist())
        words[:_WORDS, slow] = np.frombuffer(text, np.uint64).reshape(-1, _WORDS).T
        words[_WORDS, slow] = 0
    words[_WORDS:].reshape(-1, rows, ncols)[...] |= tail.T[:, None, :]
    return words.T.tobytes().translate(None, b"\0 ")

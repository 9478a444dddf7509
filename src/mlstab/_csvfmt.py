"""The `%.17g` text of a block of doubles, formatted in numpy.

Each value becomes a fixed-width row of uint64 words holding its text and
NUL bytes, and one `bytes.translate` removes the NULs.  The words are built
from byte strings, so the layout does not depend on the byte order:

    word 0       sign, "0.", "0.00" ... prefix, first digit
    words 1-2    the integer digits after the first, then the point
    words 3-4    the fraction digits
    word 5 ...   "e-XX" exponent, then the column's separator (from byte 4)

A nonzero x with 1e-11 <= |x| < 1e17 takes its 17 significant digits from
the scaling y = |x| 10^k, k = 16 - E and E its decimal exponent, done
exactly in float64.  Each 10^k, k <= 27, splits exactly as PH[k] + PL[k]:
PH is 10^k rounded to a double and PL the rest, at most 10 bits, since
5^k < 2^63.  Dekker's product (Numer. Math. 18:224, 1971), a Veltkamp
split of |x| against PH's pre-split halves, gives |x| PH = h + e1 exactly;
numpy rounds each ufunc on its own, with no fused multiply-add, as the
product needs.  Then y = h + e1 + |x| PL, where h, above 2^53, is an even
integer and r = e1 + |x| PL is below 16 in size.  For k <= 22, 10^k is a
double (PL = 0) and r = e1 is exact, so D = h + rint(r) is the correctly
rounded 17-digit integer, ties to even as in `%`.  For larger k, r is
rounded twice, by less than 2^-48 (3.6e-15) in all, and D is taken unless
r's fraction lies within 2^-40 of 1/2: those values, below 1e-6 and at or
next to a decimal rounding tie, take the exact fallback.  Where log10 puts
E one off, h and the sign of r compare the unrounded y with 10^16, and the
scaling is redone with the next E.  The arithmetic is the same on every
platform, whatever its long double.

The fast path also writes a zero, as `0` or, for -0.0, `-0`.  Every other
value (nan, inf, subnormals, values outside that range, and values within
the margin of a tie) is formatted by `"%.17g" % x` itself into its own row.
A fast path that knows when it is unsure, backed by an exact fallback, is
Grisu3's design (Loitsch, PLDI 2010).
"""

from __future__ import annotations

import numpy as np

_E_MIN, _E_MAX = -11, 16
_LO, _HI = 10 ** 16, 10 ** 17  # the 17-digit integers
#: 10^k = _PH[k] + _PL[k] exactly for k <= 27: 5^k < 2^63 leaves _PL at most 10 bits
_PH = np.array([float(10 ** k) for k in range(_E_MAX - _E_MIN + 1)])
_PL = np.array([float(10 ** k - int(p)) for k, p in enumerate(_PH)])
assert all(int(p) + int(q) == 10 ** k for k, (p, q) in enumerate(zip(_PH, _PL)))
_SPLIT = 2.0 ** 27 + 1  # Veltkamp's split of a double into two 26-bit halves
_PHH = _PH * _SPLIT - (_PH * _SPLIT - _PH)
#: by k: 10^k's high part, its two halves, its low part
_P10 = np.array([_PH, _PHH, _PH - _PHH, _PL])
#: 10^(16-E) is a double (5^22 < 2^53) for E from this on: there r is exact
_E_EXACT = 16 - int(np.flatnonzero(_PL == 0)[-1])
#: elsewhere |r - rint(r)| below this decides D: r's rounding error is below 2^-48
_TIE = 0.5 - 2.0 ** -40
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


def _scaled(a: np.ndarray, k: np.ndarray):
    """`a 10^k` as `h + r`: h = fl(a PH), r = (a PH - h) + a PL, the first
    term exact by Dekker's product."""
    ph, phh, phl, pl = np.take(_P10, k, axis=1)
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    h = a * ph
    r = ah * phh - h
    r += ah * phl
    r += al * phh
    r += al * phl
    r += a * pl
    return h, r


def _fast(v: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Write words 0-5 of each value of `v` the fast path decides; return
    where it did."""
    a = np.abs(v)
    ok = (a >= 1e-11) & (a < 1e17)
    a[~ok] = 1.0
    E = np.floor(np.log10(a)).astype(np.int64)
    np.maximum(E, _E_MIN, out=E)
    np.minimum(E, _E_MAX, out=E)
    h, r = _scaled(a, 16 - E)
    rr = np.rint(r)
    D = h.astype(np.int64)
    D += rr.astype(np.int64)
    # log10 can be one off near a power of ten: the test is on the unrounded h + r
    low = (h < _LO) | ((h == _LO) & (r < 0))
    fix = np.flatnonzero(low | (D >= _HI))
    if len(fix):
        E[fix] = np.clip(E[fix] + np.where(low[fix], -1, 1), _E_MIN, _E_MAX)
        h[fix], r[fix] = _scaled(a[fix], 16 - E[fix])
        rr[fix] = np.rint(r[fix])
        D[fix] = h[fix].astype(np.int64) + rr[fix].astype(np.int64)
    r -= rr
    ok &= ((np.abs(r) < _TIE) | (E >= _E_EXACT)) & (D >= _LO) & (D < _HI)
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
    slow = np.flatnonzero(~_fast(v, words))
    if len(slow):  # one % call; the space padding goes with the NULs
        text = (_PERCENT * len(slow)) % tuple(v[slow].tolist())
        words[:_WORDS, slow] = np.frombuffer(text, np.uint64).reshape(-1, _WORDS).T
        words[_WORDS, slow] = 0
    words[_WORDS:].reshape(-1, rows, ncols)[...] |= tail.T[:, None, :]
    return words.T.tobytes().translate(None, b"\0 ")

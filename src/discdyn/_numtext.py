"""Decimal text of numeric columns, byte for byte as "%.17g" % x and "%d" % n.

`cells` makes a column a (rows, width) uint8 matrix whose 0 bytes mean "no
byte"; `join` lays matrices and separators side by side and drops the 0s.
Every finite double is formatted in arrays.  With 10^E <= |x| < 10^(E+1),
its 17 digits are N = round-half-even(|x| 10^p), p = 16 - E, taken as
b M: b = |x| 2^s is exact (a normal double below 10^17, also for subnormal
x) and M = 10^p 2^-s lies in [1, 2).  Dekker's two-product gives
hi + lo = b M_hi exactly; hi > 2^53 is even, so N = hi + rint(lo + b M_lo).
For 0 <= p <= 22, M = 5^p 2^(p-s) is a double, M_lo = 0 and N is exact.
For other p, M is no double: M_hi + M_lo is M to 2^-106 relative, and
with the two roundings in lo + b M_lo the fraction of N is within 2^-47 of
the true one.  A cell whose fraction lies within 2^-47 of 1/2 (a guard
cell) goes through % one by one, and so do NaN, the infinities, columns
shorter than SHORT rows and integers outside [0, 10^16).
"""

from __future__ import annotations

import math

import numpy as np

SHORT = 128  # rows below which one % pass beats the arrays: a column in `cells`, a table in `table`

_QUAD_DIGITS = np.indices((10,) * 4).reshape(4, -1).T  # row i: the 4 digits of i
_QUADS = np.ascontiguousarray(48 + _QUAD_DIGITS, np.uint8).view(np.uint32).ravel()  # "%04d" % i
# row i: where the last nonzero digit of "%04d" % q stands as digits 4i + 1..4i + 4; 0 for 0000
_QUAD_END = np.where(_QUAD_DIGITS > 0, np.arange(1, 5) + 4 * np.arange(4)[:, None, None], 0)
_QUAD_END = _QUAD_END.max(2).astype(np.int8)
_INT_KEEP = np.triu(np.full((16, 16), 255, np.uint8))[::-1]  # row n - 1: the last n digits
_INT_DECADES = 10 ** np.arange(1, 16)
_FORMAT = {False: "%.17g", True: "%d"}  # by whether the column holds integers or bools
_E = range(-324, 309)  # the decimal exponents of the finite doubles


def _decade(e):
    """The least double >= 10^e, and s, M_hi and M_lo for p = 16 - e: M = 10^p 2^-s is in
    [1, 2), M_hi is M rounded, M_lo is M - M_hi rounded; s is np.ldexp's exponent type."""
    x = float(10**e) if e >= 0 else 1 / 10**-e  # correctly rounded
    num, den = x.as_integer_ratio()
    if num * 10 ** max(-e, 0) < den * 10 ** max(e, 0):  # x < 10^e, exactly
        x = math.nextafter(x, math.inf)
    p = 16 - e
    s = (10**p).bit_length() - 1 if p >= 0 else -((10**-p).bit_length())
    num, den = (10**p, 1 << s) if p >= 0 else (1 << -s, 10**-p)
    hi_num, hi_den = (num / den).as_integer_ratio()  # int / int is correctly rounded
    return x, np.int32(s), num / den, (num * hi_den - hi_num * den) / (den * hi_den)


def _split(a):
    """Dekker's split a = hi + lo into halves of at most 26 bits."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


_DECADES, _SHIFT, _M_HI, _M_LO = map(np.array, zip(*map(_decade, _E)))  # entry E - _E.start
# entry x + 1073: the decade of 2^(x - 1), the least double of frexp exponent x
_BINADE_DECADE = np.searchsorted(_DECADES, np.ldexp(1.0, np.arange(-1074, 1024)), "right") - 1
_M_HI_HI, _M_HI_LO = _split(_M_HI)
_DIGITS = bytes(range(160, 177)).decode("latin-1")  # digit j of N stands as chr(160 + j)


def _layout(e, k):
    """%g's text for k significant digits on 32 columns, exponent e if
    -4 <= e < 17, else "d.ddd": the sign's place, "0.000" ending in column
    5, digit j in column 6 + j before the point and 7 + j after it; "\\0"
    is no byte.  The exponent's text comes from _EXPONENTS, in columns 24..."""
    q = max(e + 1, 0) if -4 <= e < 17 else 1  # digits before the point
    digits = _DIGITS[: max(k, q)]
    body = digits[:q] + ("." if k > q > 0 else "\0") + digits[q:]
    head = "0." + "0" * (-e - 1) if -4 <= e < 0 else ""
    return ("\0" + head.rjust(5, "\0") + body).encode("latin-1")


# row (E + 4) * 18 + k, and row (17 + 4) * 18 + k for every E < -4 or E >= 17
_LAYOUTS = np.array([_layout(e, k) for e in range(-4, 18) for k in range(18)], "S32")
_LAYOUTS = _LAYOUTS.view(np.uint8).reshape(-1, 32)
# where digit j (byte 160 + j) stands: column 6 + j before the point, 7 + j after it
_WHOLE = np.where(_LAYOUTS == np.arange(32) + 154, 255, 0).astype(np.uint8).view(np.uint64)
_FRACTION = np.where(_LAYOUTS == np.arange(32) + 153, 255, 0).astype(np.uint8).view(np.uint64)
_LITERALS = np.where(_LAYOUTS < 128, _LAYOUTS, 0).astype(np.uint8).view(np.uint64)
_EXPONENTS = np.array([b"" if -4 <= e < 17 else b"e%+03d" % e for e in _E], "S8").view(np.uint64)
_ROWS = np.array([18 * (e + 4 if -4 <= e < 17 else 21) for e in _E])  # of _LAYOUTS, for k = 0


def _digits(n, d, first):
    """Write the 16 digits of 0 <= n < 10^16 to columns first.. of the uint8
    matrix d, first a multiple of 4; returns the count up to the last nonzero one."""
    hi = n // 10**8
    lo = n - hi * 10**8
    q0, q2 = hi // 10**4, lo // 10**4
    quads = (q0, hi - q0 * 10**4, q2, lo - q2 * 10**4)
    for i, quad in enumerate(quads):
        d.view(np.uint32)[:, first // 4 + i] = _QUADS.take(quad)
    return np.max([_QUAD_END[i].take(quad) for i, quad in enumerate(quads)], axis=0)


def _float_cells(x):
    """(text matrix, where it is right)."""
    finite = np.isfinite(x)
    a = np.where(finite, np.abs(x), 1.0)
    i = _BINADE_DECADE.take(np.frexp(a)[1] + 1073)  # at most 631, as 2^1023 < 10^308
    i += a >= _DECADES[1:].take(i)  # 10^E <= a < 10^(E + 1), E = i + _E.start
    b = np.ldexp(a, _SHIFT.take(i))
    h = b * _M_HI.take(i)
    bh, bl = _split(b)
    mh, ml, lo = _M_HI_HI.take(i), _M_HI_LO.take(i), _M_LO.take(i)
    r = ((bh * mh - h) + bh * ml + bl * mh) + bl * ml
    inexact = lo.any()
    if inexact:
        r += b * lo
    rounded = np.rint(r)
    n = h.astype(np.int64) + rounded.astype(np.int64)
    carry = n == 10**17
    n[carry] = 10**16
    lead = n // 10**16
    d = np.empty((len(x), 32), np.uint8)  # digit j of n in column 7 + j; the masks drop the rest
    d[:, 7] = 48 + lead
    k = 1 + _digits(n - lead * 10**16, d, 8)  # significant digits
    i += carry  # the printed exponent is E + 1 where N rounded up to 10^17
    key = _ROWS.take(i) + k
    key[x == 0.0] = _ROWS[-_E.start] + 1  # "0": N = 0 with E = 0
    words = d.view(np.uint64)
    left = words.ravel() >> 8  # d one byte to the left, digit j in column 6 + j
    left[:-1] |= words.ravel()[1:] << 56  # (column 31 takes the next row's column 0)
    m = _WHOLE.take(key, axis=0) & left.reshape(words.shape)
    m |= _FRACTION.take(key, axis=0) & words
    m |= _LITERALS.take(key, axis=0)
    m[:, 3] |= _EXPONENTS.take(i)
    m.view(np.uint8)[:, 0] = 45 * np.signbit(x)
    if inexact:  # where M_lo != 0, the error of N's fraction is < 2^-47: b 2^-106 M < 1.3e-15
        # from M_hi + M_lo, |b M_lo| < 12 rounded to 2^-50, |lo + b M_lo| < 20 rounded to 2^-48
        finite &= (np.abs(np.abs(r - rounded) - 0.5) >= 2.0**-47) | (lo == 0.0)  # guard cells
    return m.view(np.uint8), finite


def _int_cells(v):
    fast = (v >= 0) & (v < 10**16)
    n = np.where(fast, v, 0).astype(np.int64)
    if n.max() < 10**4:  # one "%04d" text holds every entry
        d = _QUADS.take(n).view(np.uint8).reshape(-1, 4)
    else:
        d = np.zeros((len(v), 16), np.uint8)
        _digits(n, d, 0)
    d &= _INT_KEEP[:, -d.shape[1] :].take(np.searchsorted(_INT_DECADES, n, "right"), axis=0)
    return d, fast


def _texts(texts):
    t = np.array(texts, "S")
    return t.view(np.uint8).reshape(len(texts), t.itemsize)


def cells(column) -> np.ndarray:
    """Each entry's text, 0-padded: "%d" for integer and bool columns, else "%.17g"."""
    col = np.asarray(column)
    fmt = _FORMAT[col.dtype.kind in "biu"]
    if len(col) < SHORT:
        return _texts([fmt % c for c in col.tolist()])
    m, fast = _int_cells(col) if fmt == "%d" else _float_cells(col.astype(float))
    slow = ~fast
    if not slow.any():
        return m
    t = _texts([fmt % c for c in col[slow].tolist()])
    m = np.concatenate([m, np.zeros((len(m), max(0, t.shape[1] - m.shape[1])), np.uint8)], 1)
    m[slow] = 0
    m[slow, : t.shape[1]] = t
    return m


def join(parts) -> bytes:
    """Row by row, the `cells` matrices and byte-string literals in `parts`
    side by side, 0 bytes dropped; at least one part is a matrix."""
    rows = len(next(p for p in parts if isinstance(p, np.ndarray)))
    mats = [
        p if isinstance(p, np.ndarray) else np.frombuffer(p * rows, np.uint8).reshape(rows, len(p))
        for p in parts
    ]
    return np.concatenate(mats, axis=1).tobytes().translate(None, b"\0")


def table(columns) -> bytes:
    """CSV lines of the equal-length `columns`, each cell as in `cells`;
    below SHORT rows the whole table is one % pass."""
    cols = [np.asarray(c) for c in columns]
    if len(cols[0]) >= SHORT:
        return join([p for c in cols for p in (cells(c), b",")][:-1] + [b"\n"])
    line = ",".join(_FORMAT[c.dtype.kind in "biu"] for c in cols) + "\n"
    values = tuple(v for row in zip(*[c.tolist() for c in cols]) for v in row)
    return (line * len(cols[0]) % values).encode("ascii")

"""Decimal text of numeric columns, byte for byte as "%.17g" % x and "%d" % n.

`cells` makes a column a (rows, width) uint8 matrix whose 0 bytes mean "no
byte"; `join` lays matrices and separators side by side and drops the 0s.
A double with 10^E <= |x| < 10^(E+1), -6 <= E < 16, is formatted in arrays:
its 17 digits are N = round-half-even(|x| 10^(16-E)), exact because 10^p is
a double for p <= 22, Dekker's two-product gives hi + lo = |x| 10^p with no
error, and hi >= 1e16 > 2^53 is even, so N = hi + rint(lo).  So are the
integers in [0, 10^16).  Other cells (NaN, infinities, the tiny and the
huge), and columns shorter than SHORT rows, go through % one by one.
"""

from __future__ import annotations

import math

import numpy as np

SHORT = 128  # rows below which % per cell beats the arrays' fixed cost

_QUAD_DIGITS = np.indices((10,) * 4).reshape(4, -1).T  # row i: the 4 digits of i
_QUADS = np.ascontiguousarray(48 + _QUAD_DIGITS, np.uint8).view(np.uint32).ravel()  # "%04d" % i
# the position of the last nonzero digit of each "%04d" text, counted from 1; -99 for 0000
_QUAD_END = np.max(np.where(_QUAD_DIGITS > 0, np.arange(1, 5), -99), axis=1)
_INT_KEEP = np.triu(np.full((16, 16), 255, np.uint8))[::-1]  # row n - 1: the last n digits
_POW10 = np.array([float(10**p) for p in range(23)])  # each one exact


def _ceil_pow10(p):
    """The least double >= 10^p."""
    x = float(10**p) if p >= 0 else 1 / 10**-p  # correctly rounded
    num, den = x.as_integer_ratio()
    below = num * 10 ** max(-p, 0) < den * 10 ** max(p, 0)  # x < 10^p, exactly
    return math.nextafter(x, math.inf) if below else x


_DECADES = np.array([_ceil_pow10(p) for p in range(-6, 17)])  # entry E + 6
_DIGITS = bytes(range(160, 177)).decode("latin-1")  # digit j of N stands as chr(160 + j)


def _layout(e, k):
    """%g's text for exponent e and k significant digits on 28 columns: the
    sign's place, "0.000" ending in column 5, digit j in column 6 + j before
    the point and 7 + j after it, "e-0d"; "\\0" is no byte."""
    q = 1 if e < -4 else max(e + 1, 0)  # digits before the point
    digits = _DIGITS[: max(k, q)]
    body = digits[:q] + ("." if k > q > 0 else "\0") + digits[q:]
    head = "0." + "0" * (-e - 1) if -4 <= e < 0 else ""
    tail = "e-0%d" % -e if e < -4 else ""
    return "\0" + head.rjust(5, "\0") + body.ljust(18, "\0") + tail.ljust(4, "\0")


_LAYOUTS = np.array(  # row (E + 6) * 18 + k
    [_layout(e, k) for e in range(-6, 17) for k in range(18)], "U28"
).view(np.uint32).astype(np.uint8).reshape(-1, 28)
# where digit j (byte 160 + j) stands: column 6 + j before the point, 7 + j after it
_WHOLE = np.where(_LAYOUTS == np.arange(28) + 154, 255, 0).astype(np.uint8)
_FRACTION = np.where(_LAYOUTS == np.arange(28) + 153, 255, 0).astype(np.uint8)
_LITERALS = np.where(_LAYOUTS < 128, _LAYOUTS, 0).astype(np.uint8)


def _split(a):
    """Dekker's split a = hi + lo into halves of at most 26 bits."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _digits(n, d, first):
    """Write the 16 digits of 0 <= n < 10^16 to columns first.. of the uint8
    matrix d, first a multiple of 4; returns the count up to the last nonzero one."""
    hi = n // 10**8
    lo = n - hi * 10**8
    q0, q2 = hi // 10**4, lo // 10**4
    end = np.zeros(len(n), np.int64)
    for i, quad in enumerate((q0, hi - q0 * 10**4, q2, lo - q2 * 10**4)):
        d.view(np.uint32)[:, first // 4 + i] = _QUADS.take(quad)
        end = np.maximum(end, 4 * i + _QUAD_END.take(quad))
    return end


def _float_cells(x):
    """(text matrix, where it is right); zeros print as 1 with the 1 replaced."""
    a = np.abs(x)
    fast = (a >= _DECADES[0]) & (a < 1e16)
    a = np.where(fast, a, 1.0)
    e = np.searchsorted(_DECADES, a, "right") - 7  # 10^e <= a < 10^(e + 1)
    p = 16 - e
    h = a * _POW10.take(p)
    ah, al = _split(a)
    bh, bl = _POW10_HI.take(p), _POW10_LO.take(p)
    n = h.astype(np.int64) + np.rint(((ah * bh - h) + ah * bl + al * bh) + al * bl).astype(np.int64)
    carry = n == 10**17
    n[carry] = 10**16
    lead = n // 10**16
    d = np.zeros((len(x), 32), np.uint8)  # digit j of n in column 7 + j
    d[:, 7] = 48 + lead
    k = 1 + _digits(n - lead * 10**16, d, 8)  # significant digits
    zero = x == 0.0
    d[zero, 7] = 48
    key = (e + carry + 6) * 18 + k
    m = _WHOLE.take(key, axis=0) & d[:, 1:29]
    m |= _FRACTION.take(key, axis=0) & d[:, :28]
    m |= _LITERALS.take(key, axis=0)
    m[:, 0] = 45 * np.signbit(x)
    return m, fast | zero


def _int_cells(v):
    fast = (v >= 0) & (v < 10**16)
    n = np.where(fast, v, 0).astype(np.int64)
    d = np.zeros((len(v), 16), np.uint8)
    _digits(n, d, 0)
    d &= _INT_KEEP.take(np.searchsorted(_POW10[1:16], n, "right"), axis=0)
    return d, fast


def _texts(texts):
    t = np.array(texts, "S")
    return t.view(np.uint8).reshape(len(texts), t.itemsize)


def cells(column) -> np.ndarray:
    """Each entry's text, 0-padded: "%d" for integer and bool columns, else "%.17g"."""
    col = np.asarray(column)
    whole = col.dtype.kind in "biu"
    fmt = "%d" if whole else "%.17g"
    if len(col) < SHORT:
        return _texts([fmt % c for c in col.tolist()])
    m, fast = _int_cells(col) if whole else _float_cells(col.astype(float))
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

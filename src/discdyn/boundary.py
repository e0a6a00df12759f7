"""Piecewise-constant boundary data on the unit circle.

Functions are stored as sorted breakpoints in [0, 2pi) with one complex value
per piece, right-continuous on [s_i, s_{i+1}) and cyclic across 2pi.  Values
live in the closed unit disc for all public constructors; raw differences
(used by the metric code) may exceed that bound.

The circle doubles as the compactified real line through z = eta^{-1}(x),
eta(z) = i(1-z)/(1+z); in angle coordinates s(x) = 2*atan(x) mod 2pi.  The
point at infinity is math.inf (either sign accepted, +inf canonical) and maps
to z = -1, angle pi, exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _numtext, moebius
from .moebius import INF, MoebiusElement

TWO_PI = 2.0 * math.pi

# breakpoints closer than this collapse (below double-precision angle resolution)
DEDUP = 1e-14


class InvalidPartitionError(ValueError):
    pass


def _dedup_mask(br: np.ndarray) -> np.ndarray:
    """Keep-mask over sorted cuts in [0, 2pi): of two cuts closer than DEDUP,
    cyclically, the upper one survives.  The sliver piece between them goes
    with its value; the piece below keeps its value up to the surviving cut."""
    keep = np.ones(br.size, dtype=bool)
    keep[:-1] = np.diff(br) >= DEDUP
    if br.size > 1 and (br[0] + TWO_PI - br[-1]) < DEDUP and keep.sum() > 1:
        keep[-1] = False
    return keep


def wrap_angle(s):
    """Reduce angles to [0, 2pi)."""
    out = np.mod(s, TWO_PI)
    # mod can return 2pi itself for tiny negative inputs
    return np.where(out >= TWO_PI, out - TWO_PI, out) if np.ndim(out) else (
        out - TWO_PI if out >= TWO_PI else out
    )


@dataclass(frozen=True)
class Arc:
    """Circular arc: start point zeta on |z|=1, counterclockwise length theta.

    theta = 0 is a trivial arc, theta = 2pi the full circle with marked start.
    """

    zeta: complex
    theta: float

    def __post_init__(self):
        z = complex(self.zeta)
        r = abs(z)
        if not abs(r - 1.0) <= 1e-9:  # NaN fails
            raise ValueError(f"|zeta| = {r} not on the unit circle")
        t = float(self.theta)
        if not -1e-12 <= t <= TWO_PI + 1e-12:
            raise ValueError(f"theta = {t} outside [0, 2pi]")
        object.__setattr__(self, "zeta", z / r)
        object.__setattr__(self, "theta", min(max(t, 0.0), TWO_PI))

    @property
    def start_angle(self) -> float:
        return float(wrap_angle(math.atan2(self.zeta.imag, self.zeta.real)))


def check_arcs(zeta: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`Arc`'s checks and normalisation on arrays of starts and lengths."""
    r = np.hypot(zeta.real, zeta.imag)  # abs() of a Python complex, bit for bit
    ok = np.abs(r - 1.0) <= 1e-9  # NaN and infinities fail
    if not ok.all():
        raise ValueError(f"|zeta| = {r[~ok][0]} not on the unit circle")
    ok = (theta >= -1e-12) & (theta <= TWO_PI + 1e-12)
    if not ok.all():
        raise ValueError(f"theta = {theta[~ok][0]} outside [0, 2pi]")
    unit = np.empty_like(zeta)  # part by part, as complex / float divides
    unit.real, unit.imag = zeta.real / r, zeta.imag / r
    return unit, np.clip(theta, 0.0, TWO_PI)


class BoundaryFunction:
    """Piecewise-constant complex function on the circle.

    With no breakpoints the function is the constant values[0]; otherwise
    values[i] holds on [breakpoints[i], breakpoints[i+1]) cyclically.
    """

    __slots__ = ("breakpoints", "values")

    def __init__(self, breakpoints, values):
        br = np.atleast_1d(np.asarray(breakpoints, dtype=float))
        vals = np.atleast_1d(np.asarray(values, dtype=complex))
        if br.size == 0:
            if vals.size != 1:
                raise InvalidPartitionError("constant function needs exactly one value")
            self.breakpoints = br.reshape(0)
            self.values = vals
            return
        if vals.size != br.size:
            raise InvalidPartitionError(
                f"{br.size} breakpoints require {br.size} values, got {vals.size}"
            )
        br = np.asarray(wrap_angle(br), dtype=float)
        order = np.argsort(br, kind="stable")
        br = br[order]
        vals = vals[order]
        keep = _dedup_mask(br)
        self.breakpoints = br[keep]
        self.values = vals[keep]

    @classmethod
    def constant(cls, c: complex) -> "BoundaryFunction":
        return cls(np.empty(0), [c])

    @classmethod
    def _clean(cls, breakpoints: np.ndarray, values: np.ndarray) -> "BoundaryFunction":
        """Cuts in [0, 2pi), sorted and deduplicated, and complex values, unchecked."""
        out = cls.__new__(cls)
        out.breakpoints, out.values = breakpoints, values
        return out

    def evaluate(self, s):
        """Value at angle(s) s; scalar in, scalar out; arrays vectorized."""
        arr = np.asarray(s, dtype=float)
        scalar = arr.ndim == 0
        ang = np.mod(arr, TWO_PI)
        if self.breakpoints.size == 0:
            out = np.full(ang.shape, self.values[0])
        else:
            idx = np.searchsorted(self.breakpoints, ang, side="right") - 1
            out = self.values[idx]
        return complex(out) if scalar else out

    def piece_widths(self) -> np.ndarray:
        if self.breakpoints.size == 0:
            return np.array([TWO_PI])
        br = self.breakpoints  # np.diff(br, append=...) is the same, only slower
        return np.concatenate((br[1:], br[:1] + TWO_PI)) - br

    def jumps(self) -> np.ndarray:
        """values[i] - values[i-1], the jump at breakpoints[i] (cyclically)."""
        v = self.values
        return v - np.concatenate((v[-1:], v[:-1]))

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def mean(self) -> complex:
        return complex(np.dot(self.piece_widths(), self.values) / TWO_PI)

    def scaled(self, a: complex) -> "BoundaryFunction":
        return BoundaryFunction(self.breakpoints.copy(), a * self.values)

    def plus(self, other: "BoundaryFunction") -> "BoundaryFunction":
        br, fv, hv = merge_partition(self, other)
        return BoundaryFunction._clean(br, fv + hv)

    def minus(self, other: "BoundaryFunction") -> "BoundaryFunction":
        br, fv, hv = merge_partition(self, other)
        return BoundaryFunction._clean(br, fv - hv)

    def allclose(
        self, other: "BoundaryFunction", tol: float = 1e-12, sliver: float = 1e-11
    ) -> bool:
        """Equality as piecewise data: values agree on every merged piece wider
        than `sliver`.  Pieces below that width are breakpoint jitter (two
        representations of the same cut differing by float noise) and carry a
        stale value from one side, so they are ignored."""
        br, fv, hv = merge_partition(self, other)
        if br.size == 0:
            return bool(np.max(np.abs(fv - hv), initial=0.0) <= tol)
        widths = np.diff(br, append=br[0] + TWO_PI)
        wide = widths > sliver
        return bool(np.max(np.abs(fv[wide] - hv[wide]), initial=0.0) <= tol)

    # --- serialization: {"breakpoints":[...], "values":[[re,im],...]} ---

    def to_json(self) -> str:
        """Every number as "%.17g" % x, which reads back exactly."""
        bp = _numtext.join([_numtext.cells(self.breakpoints), b", "])[:-2]
        re, im = _numtext.cells(self.values.real), _numtext.cells(self.values.imag)
        vals = _numtext.join([b"[", re, b", ", im, b"], "])[:-2]
        return '{"breakpoints": [%s], "values": [%s]}' % (bp.decode(), vals.decode())

    @classmethod
    def from_json(cls, text: str) -> "BoundaryFunction":
        """Read the to_json() form; any other shape, or a number that is not
        finite, raises InvalidPartitionError."""
        import json

        obj = json.loads(text)
        try:
            br = np.asarray(obj["breakpoints"], dtype=float)
            pairs = np.asarray(obj["values"], dtype=float)
        except (KeyError, TypeError, ValueError) as e:
            raise InvalidPartitionError(f"not boundary data: {e!r}") from None
        if br.ndim != 1 or pairs.ndim != 2 or pairs.shape[1] != 2:
            raise InvalidPartitionError(
                "boundary data needs a list of breakpoints and a list of [re, im] pairs"
            )
        if not (np.isfinite(br).all() and np.isfinite(pairs).all()):
            raise InvalidPartitionError("boundary data holds a NaN or infinite number")
        f = cls(br, pairs.view(complex)[:, 0])  # each [re, im] as one complex, bit for bit
        _check_unit_ball(f.values)
        return f


def _check_unit_ball(values, tol: float = 1e-9):
    m = float(np.max(np.abs(values), initial=0.0))
    if m > 1.0 + tol:
        raise InvalidPartitionError(f"values leave the closed unit disc (sup {m})")


def merge_partition(f: BoundaryFunction, h: BoundaryFunction):
    """Common refinement: (breakpoints, f values, h values) per refined piece.

    Values are read at piece midpoints, so they do not depend on which of two
    near-equal cuts the dedup keeps."""
    br = np.union1d(f.breakpoints, h.breakpoints)
    br = br[_dedup_mask(br)]
    if br.size == 0:
        br = np.array([0.0])
    mids = br + 0.5 * np.diff(br, append=br[0] + TWO_PI)
    return br, f.evaluate(mids), h.evaluate(mids)


def indicator(arc: Arc) -> BoundaryFunction:
    """1 on the arc, 0 off it."""
    if arc.theta <= 0.0:
        return BoundaryFunction.constant(0.0)
    if arc.theta >= TWO_PI:
        return BoundaryFunction.constant(1.0)
    a = arc.start_angle
    b = float(wrap_angle(a + arc.theta))
    return BoundaryFunction([a, b], [1.0, 0.0])


def compose_with_moebius(f: BoundaryFunction, g: MoebiusElement) -> BoundaryFunction:
    """f o g on the circle: breakpoints move to g^{-1}(old), values follow."""
    if f.breakpoints.size == 0:
        return BoundaryFunction.constant(complex(f.values[0]))
    ginv = moebius.inverse(g)
    zs = np.exp(1j * f.breakpoints)
    a, b = ginv.alpha, ginv.beta
    imgs = (a * zs + b) / (np.conj(b) * zs + np.conj(a))
    return BoundaryFunction(np.mod(np.angle(imgs), TWO_PI), f.values)


def l1_norm(f: BoundaryFunction) -> float:
    return float(np.dot(f.piece_widths(), np.abs(f.values)))


def l1_distance(f: BoundaryFunction, h: BoundaryFunction) -> float:
    """Exact integral of |f - h| over [0, 2pi) from the merged partition."""
    br, fv, hv = merge_partition(f, h)
    widths = np.diff(br, append=br[0] + TWO_PI)
    return float(np.dot(widths, np.abs(fv - hv)))


def line_to_angle(x):
    """Angle of the boundary point at line coordinate x: 2*atan(x) mod 2pi.

    Scalars and arrays go through the same ufuncs, so they agree bit for bit;
    either infinity maps to pi."""
    s = wrap_angle(2.0 * np.arctan(x))
    return s if np.ndim(s) else float(s)


def angle_to_line(s):
    """Line coordinate at angle s: tan(s/2); angle pi maps to inf exactly."""
    s = wrap_angle(s)
    x = np.where(s == math.pi, INF, np.tan(0.5 * s))
    return x if np.ndim(x) else float(x)


def _line_arcs(lo, hi):
    """(start angle, end angle, width) of the line intervals from lo to hi,
    wrapping through infinity when lo > hi; (-inf, inf) is the whole line."""
    lo, hi = (np.atleast_1d(np.asarray(x, dtype=float)) for x in (lo, hi))
    a, b = line_to_angle(lo), line_to_angle(hi)
    return a, b, np.where((lo == -INF) & (hi == INF), TWO_PI, np.mod(b - a, TWO_PI))


def _disjoint_order(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Order of the arcs (start a, width w) by start, once they are checked
    disjoint: sorted by start, arcs are pairwise disjoint iff each ends
    before the next begins, cyclically; an arc swallowing a non-adjacent one
    must first cover the starts between them, so consecutive checks suffice."""
    order = np.argsort(a, kind="stable")
    if a.size > 1:
        if np.any(w >= TWO_PI):
            raise InvalidPartitionError("full-line segment overlaps everything")
        s = a[order]
        bad = np.flatnonzero(np.diff(s, append=s[0] + TWO_PI) < w[order] - 1e-12)
        if bad.size:
            i, j = order[bad[0]], order[(bad[0] + 1) % a.size]
            raise InvalidPartitionError(f"segments {i} and {j} overlap on the circle")
    return order


def from_line_segments(lo, hi, values) -> BoundaryFunction:
    """Boundary function from disjoint intervals of the compactified line.

    Interval j runs from lo[j] to hi[j] in the increasing direction, wrapping
    through infinity when lo[j] > hi[j], and carries values[j].  Unset
    regions get 0.  Intervals narrower than DEDUP on the circle vanish.
    """
    vals = np.atleast_1d(np.asarray(values, dtype=complex))
    _check_unit_ball(vals)
    a, b, w = _line_arcs(lo, hi)
    keep = w >= DEDUP
    a, b, w, vals = a[keep], b[keep], w[keep], vals[keep]
    order = _disjoint_order(a, w)
    if a.size == 0:
        return BoundaryFunction.constant(0.0)
    if w[0] >= TWO_PI:  # the only arc, or the check above raised
        return BoundaryFunction.constant(vals[0])
    br = np.unique(np.concatenate((a, b)))
    br = br[_dedup_mask(br)]
    mids = br + 0.5 * np.diff(br, append=br[0] + TWO_PI)
    a, w, vals = a[order], w[order], vals[order]
    # the arc starting last before each midpoint, cyclically, is the only
    # one that can hold it
    j = np.searchsorted(a, mids, side="right") - 1
    return BoundaryFunction._clean(br, np.where(np.mod(mids - a[j], TWO_PI) < w[j], vals[j], 0.0))

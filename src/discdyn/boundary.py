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
from typing import Iterable, Sequence

import numpy as np

from . import moebius
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
        if abs(r - 1.0) > 1e-9:
            raise ValueError(f"|zeta| = {r} not on the unit circle")
        t = float(self.theta)
        if t < -1e-12 or t > TWO_PI + 1e-12:
            raise ValueError(f"theta = {t} outside [0, 2pi]")
        object.__setattr__(self, "zeta", z / r)
        object.__setattr__(self, "theta", min(max(t, 0.0), TWO_PI))

    @property
    def start_angle(self) -> float:
        return float(wrap_angle(math.atan2(self.zeta.imag, self.zeta.real)))

    def contains_angle(self, s: float) -> bool:
        """Membership in the half-open arc [start, start+theta)."""
        if self.theta == TWO_PI:
            return True
        return float(wrap_angle(s - self.start_angle)) < self.theta


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
        return np.diff(self.breakpoints, append=self.breakpoints[0] + TWO_PI)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def mean(self) -> complex:
        return complex(np.dot(self.piece_widths(), self.values) / TWO_PI)

    def is_real(self, tol: float = 1e-12) -> bool:
        return bool(np.max(np.abs(self.values.imag), initial=0.0) <= tol)

    def scaled(self, a: complex) -> "BoundaryFunction":
        return BoundaryFunction(self.breakpoints.copy(), a * self.values)

    def plus(self, other: "BoundaryFunction") -> "BoundaryFunction":
        br, fv, hv = merge_partition(self, other)
        return BoundaryFunction(br, fv + hv)

    def minus(self, other: "BoundaryFunction") -> "BoundaryFunction":
        br, fv, hv = merge_partition(self, other)
        return BoundaryFunction(br, fv - hv)

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
        bp = ", ".join(f"{x:.17g}" for x in self.breakpoints)
        vals = ", ".join(f"[{v.real:.17g}, {v.imag:.17g}]" for v in self.values)
        return '{"breakpoints": [%s], "values": [%s]}' % (bp, vals)

    @classmethod
    def from_json(cls, text: str) -> "BoundaryFunction":
        import json

        obj = json.loads(text)
        br = np.asarray(obj["breakpoints"], dtype=float)
        pairs = obj["values"]
        vals = np.array([complex(p[0], p[1]) for p in pairs], dtype=complex)
        f = cls(br, vals)
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


# --- Cayley correspondence with the compactified real line ---


def cayley(z: complex) -> float:
    """Boundary point to line coordinate: i(1-z)/(1+z); -1 maps to inf."""
    z = complex(z)
    if abs(abs(z) - 1.0) > 1e-9:
        raise ValueError(f"cayley requires |z| = 1, got |z| = {abs(z)}")
    if z == -1.0:
        return INF
    w = 1j * (1.0 - z) / (1.0 + z)
    if abs(w.imag) > 1e-12 * max(1.0, abs(w)):
        raise ValueError("cayley image unexpectedly far from the real line")
    return w.real


def cayley_inv(x: float) -> complex:
    """Line coordinate to boundary point: (i-x)/(i+x); inf maps to -1 exactly."""
    if math.isinf(x):
        return complex(-1.0, 0.0)
    z = (1j - x) / (1j + x)
    return z / abs(z)


def line_to_angle(x: float) -> float:
    """Angle of the boundary point at line coordinate x: 2*atan(x) mod 2pi."""
    if math.isinf(x):
        return math.pi
    return float(wrap_angle(2.0 * math.atan(x)))


def angle_to_line(s: float) -> float:
    """Line coordinate at angle s: tan(s/2); angle pi maps to inf exactly."""
    s = float(wrap_angle(s))
    if s == math.pi:
        return INF
    return math.tan(0.5 * s)


def _segment_to_arc(lo: float, hi: float):
    """Interval of the compactified line -> (start_angle, width); lo > hi wraps
    through infinity.  (-inf, inf) is the whole line."""
    if math.isinf(lo) and math.isinf(hi):
        if lo < 0.0 < hi:
            return 0.0, TWO_PI
        return math.pi, 0.0
    a = line_to_angle(lo)
    b = line_to_angle(hi)
    w = (b - a) % TWO_PI
    return a, w


def _check_disjoint_arcs(arcs):
    # sorted by start angle, arcs are pairwise disjoint iff each ends before
    # the next begins, cyclically; an arc swallowing a non-adjacent one must
    # first cover the starts between them, so consecutive checks suffice
    n = len(arcs)
    if n <= 1:
        return
    order = sorted(range(n), key=lambda i: arcs[i][0])
    for pos in range(n):
        i = order[pos]
        j = order[(pos + 1) % n]
        ai, wi = arcs[i]
        if wi >= TWO_PI:
            raise InvalidPartitionError("full-line segment overlaps everything")
        gap = (arcs[j][0] - ai) % TWO_PI
        if pos == n - 1:
            gap = arcs[j][0] + TWO_PI - ai
        if gap < wi - 1e-12:
            raise InvalidPartitionError(f"segments {i} and {j} overlap on the circle")


def from_line_segments(
    segments: Sequence[tuple[float, float, complex]],
) -> BoundaryFunction:
    """Boundary function from disjoint intervals of the compactified line.

    Each entry is (lo, hi, value); the interval runs from lo to hi in the
    increasing direction, wrapping through infinity when lo > hi.  Unset
    regions get 0.  Degenerate (zero-length) intervals vanish.
    """
    arcs = []
    vals = []
    for lo, hi, v in segments:
        v = complex(v)
        _check_unit_ball([v])
        a, w = _segment_to_arc(float(lo), float(hi))
        if w < DEDUP:
            continue
        arcs.append((a, w))
        vals.append(v)
    _check_disjoint_arcs(arcs)
    if not arcs:
        return BoundaryFunction.constant(0.0)
    if len(arcs) == 1 and arcs[0][1] >= TWO_PI:
        return BoundaryFunction.constant(vals[0])
    cuts = []
    for a, w in arcs:
        cuts.append(a)
        cuts.append(float(wrap_angle(a + w)))
    br = np.array(sorted(set(cuts)))
    br = br[_dedup_mask(br)]
    widths = np.diff(br, append=br[0] + TWO_PI)
    mids = br + 0.5 * widths
    out = np.zeros(br.size, dtype=complex)
    for (a, w), v in zip(arcs, vals):
        inside = np.mod(mids - a, TWO_PI) < w
        out[inside] = v
    return BoundaryFunction(br, out)


def arc_length_of_region(segments: Iterable[tuple[float, float]]) -> float:
    """Total circle arclength of the image of disjoint line intervals."""
    arcs = [_segment_to_arc(float(lo), float(hi)) for lo, hi in segments]
    _check_disjoint_arcs(arcs)
    return float(sum(w for _, w in arcs))

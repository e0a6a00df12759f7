"""Disc isometries as SU(1,1) pairs (alpha, beta) modulo sign.

An element acts on the closed unit disc by z -> (alpha*z + beta)/(conj(beta)*z
+ conj(alpha)) with |alpha|^2 - |beta|^2 = 1.  The same group acts on the
compactified real line through the Cayley transform; `to_half_plane` /
`from_half_plane` convert to real 2x2 matrices (a, b, c, d) acting by
x -> (a*x + b)/(c*x + d).

The point at infinity of the compactified line is represented by math.inf
(+inf and -inf both name the single compactification point; a fixed point
there is returned as the canonical +inf).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

INF = math.inf

_DET_TOL = 1e-9
_CLASS_TOL = 1e-9


class InvalidMatrixError(ValueError):
    pass


class ResolutionError(ValueError):
    """A valid input beyond what double precision can resolve."""


class ElementClass(enum.Enum):
    IDENTITY = "identity"
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


def _canonical(alpha: complex, beta: complex) -> tuple[complex, complex]:
    # (alpha,beta) and (-alpha,-beta) are the same element; fix the sign by the
    # first nonzero entry of (Re a, Im a, Re b, Im b).
    for v in (alpha.real, alpha.imag, beta.real, beta.imag):
        if v > 0.0:
            return alpha, beta
        if v < 0.0:
            return -alpha, -beta
    return alpha, beta


@dataclass(frozen=True)
class MoebiusElement:
    alpha: complex
    beta: complex

    def __post_init__(self):
        a = complex(self.alpha)
        b = complex(self.beta)
        det = abs(a) ** 2 - abs(b) ** 2
        if not det > 0.0:
            raise InvalidMatrixError(f"|alpha|^2-|beta|^2 = {det} must be positive")
        s = 1.0 / math.sqrt(det)
        a, b = _canonical(a * s, b * s)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)

    @property
    def trace(self) -> float:
        # canonical sign makes this nonnegative
        return 2.0 * self.alpha.real

    def distance_to(self, other: "MoebiusElement") -> float:
        """Sign-insensitive max-entry distance in SU(1,1)."""
        d1 = max(abs(self.alpha - other.alpha), abs(self.beta - other.beta))
        d2 = max(abs(self.alpha + other.alpha), abs(self.beta + other.beta))
        return min(d1, d2)


@dataclass(frozen=True)
class HalfPlaneMatrix:
    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if abs(det - 1.0) > _DET_TOL:
            raise InvalidMatrixError(f"determinant {det} not within {_DET_TOL} of 1")
        s = 1.0 / math.sqrt(det)
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, getattr(self, name) * s)

    @classmethod
    def normalized(cls, a: float, b: float, c: float, d: float) -> "HalfPlaneMatrix":
        """Rescale any positive-determinant matrix to determinant 1."""
        det = a * d - b * c
        if not det > 0.0:
            raise InvalidMatrixError(f"determinant {det} must be positive")
        s = 1.0 / math.sqrt(det)
        return cls(a * s, b * s, c * s, d * s)


def identity() -> MoebiusElement:
    return MoebiusElement(1.0 + 0.0j, 0.0j)


def rotation(angle: float) -> MoebiusElement:
    """z -> e^{i*angle} z."""
    return MoebiusElement(np.exp(0.5j * angle), 0.0j)


def hyperbolic_multiplier(lam: float) -> MoebiusElement:
    """The element acting on the line as x -> lam*x (fixes z=1 and z=-1).

    lam > 1 expands at z=1 (line coordinate 0) and contracts at z=-1 (inf).
    """
    if not lam > 0.0:
        raise InvalidMatrixError("multiplier must be positive")
    u = 0.5 * math.log(lam)
    return _resolved(complex(math.cosh(u)), complex(-math.sinh(u)), f"multiplier {lam}")


def parabolic_shift(a: float) -> MoebiusElement:
    """The element acting on the line as x -> x + a (fixes z=-1 only)."""
    return _resolved(1.0 + 0.5j * a, 0.5j * a, f"shift {a}")


def _resolved(alpha: complex, beta: complex, rate: str) -> MoebiusElement:
    # a multiplier past about 1e16 or a shift past 1e8 cancels |alpha|^2 - |beta|^2 to 0
    try:
        return MoebiusElement(alpha, beta)
    except InvalidMatrixError:
        raise ResolutionError(f"{rate} is beyond double resolution as an element") from None


def compose(g: MoebiusElement, h: MoebiusElement) -> MoebiusElement:
    return MoebiusElement(
        g.alpha * h.alpha + g.beta * np.conj(h.beta),
        g.alpha * h.beta + g.beta * np.conj(h.alpha),
    )


def inverse(g: MoebiusElement) -> MoebiusElement:
    return MoebiusElement(np.conj(g.alpha), -g.beta)


def act_disc(g: MoebiusElement, z: complex) -> complex:
    z = complex(z)
    if abs(z) > 1.0 + 1e-12:
        raise ValueError(f"|z| = {abs(z)} outside the closed disc")
    return (g.alpha * z + g.beta) / (np.conj(g.beta) * z + np.conj(g.alpha))


def to_half_plane(g: MoebiusElement) -> HalfPlaneMatrix:
    ar, ai = g.alpha.real, g.alpha.imag
    br, bi = g.beta.real, g.beta.imag
    return HalfPlaneMatrix(a=ar - br, b=ai + bi, c=bi - ai, d=ar + br)


def from_half_plane(m: HalfPlaneMatrix) -> MoebiusElement:
    return MoebiusElement(
        complex(0.5 * (m.a + m.d), 0.5 * (m.b - m.c)),
        complex(0.5 * (-m.a + m.d), 0.5 * (m.b + m.c)),
    )


def classify(g: MoebiusElement, tol: float = _CLASS_TOL) -> ElementClass:
    if abs(g.beta) <= tol and abs(g.alpha - 1.0) <= tol:
        return ElementClass.IDENTITY
    t = abs(g.trace)
    if t > 2.0 + tol:
        return ElementClass.HYPERBOLIC
    if t < 2.0 - tol:
        return ElementClass.ELLIPTIC
    return ElementClass.PARABOLIC


def multiplier(g: MoebiusElement) -> float:
    """Expansion factor lam > 1 at the expanding fixed point of a hyperbolic g."""
    if classify(g) is not ElementClass.HYPERBOLIC:
        raise ValueError("multiplier is defined for hyperbolic elements only")
    t = abs(g.trace)
    half = 0.5 * (t + math.sqrt(t * t - 4.0))
    return half * half


def fixed_points_line(g: MoebiusElement) -> tuple[float, float]:
    """Fixed points on the compactified line: (expanding, contracting).

    Works in half-plane coordinates, solving c x^2 + (d - a) x - b = 0 with
    explicit handling of c = 0.
    """
    cls = classify(g)
    if cls not in (ElementClass.HYPERBOLIC, ElementClass.PARABOLIC):
        raise ValueError(f"{cls.value} element has no line fixed points of this kind")
    m = to_half_plane(g)
    if m.c == 0.0:
        # x -> (a x + b)/d fixes inf; the finite one solves (a/d - 1) x = -b/d
        if cls is ElementClass.PARABOLIC:
            return INF, INF
        other = m.b / (m.d - m.a)
        # derivative at the finite fixed point is a/d, at infinity d/a
        if abs(m.a / m.d) > 1.0:
            return other, INF
        return INF, other
    if cls is ElementClass.PARABOLIC:
        p = 0.5 * (m.a - m.d) / m.c
        return p, p
    disc = (m.d - m.a) ** 2 + 4.0 * m.c * m.b
    root = math.sqrt(max(disc, 0.0))
    x1 = 0.5 * ((m.a - m.d) + root) / m.c
    x2 = 0.5 * ((m.a - m.d) - root) / m.c
    # |derivative| = 1/(c x + d)^2
    if abs(m.c * x1 + m.d) < 1.0:
        return x1, x2
    return x2, x1

"""Disc isometries as SU(1,1) pairs (alpha, beta) modulo sign.

An element acts on the closed unit disc by z -> (alpha*z + beta)/(conj(beta)*z
+ conj(alpha)) with |alpha|^2 - |beta|^2 = 1, and so on the unit circle.  A
hyperbolic or parabolic element's fixed points on the circle and its
multiplier are read from (alpha, beta) directly; the normal forms x -> lam*x
and x -> x + a of the line coordinate x = tan(s/2) are `hyperbolic_multiplier`
and `parabolic_shift`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

INF = math.inf

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


def classify(g: MoebiusElement) -> ElementClass:
    if abs(g.beta) <= _CLASS_TOL and abs(g.alpha - 1.0) <= _CLASS_TOL:
        return ElementClass.IDENTITY
    t = abs(g.trace)
    if t > 2.0 + _CLASS_TOL:
        return ElementClass.HYPERBOLIC
    if t < 2.0 - _CLASS_TOL:
        return ElementClass.ELLIPTIC
    return ElementClass.PARABOLIC


def _root_square(g: MoebiusElement) -> Fraction:
    """r^2 = |beta|^2 - Im(alpha)^2 of a hyperbolic g, exactly, or 0 for a
    parabolic g: conj(beta) z + conj(alpha) is Re(alpha) -+ r at the fixed
    points (i Im(alpha) -+ r)/conj(beta), where |g'| = 1/(Re(alpha) -+ r)^2."""
    cls = classify(g)
    if cls not in (ElementClass.HYPERBOLIC, ElementClass.PARABOLIC):
        raise ValueError(f"{cls.value} element has no fixed points on the circle")
    if cls is ElementClass.PARABOLIC:
        return Fraction(0)
    b, a = g.beta, g.alpha
    return max(Fraction(b.real) ** 2 + Fraction(b.imag) ** 2 - Fraction(a.imag) ** 2, Fraction(0))


def multiplier(g: MoebiusElement) -> float:
    """Expansion factor lam > 1 at the expanding fixed point of a hyperbolic g:
    (Re(alpha) + r)/(Re(alpha) - r) = (Re(alpha) + r)^2/(|alpha|^2 - |beta|^2),
    the determinant taken exactly, so that it cancels the stored pair's scale."""
    if classify(g) is not ElementClass.HYPERBOLIC:
        raise ValueError("multiplier is defined for hyperbolic elements only")
    r2 = _root_square(g)
    return (g.alpha.real + math.sqrt(r2)) ** 2 / float(Fraction(g.alpha.real) ** 2 - r2)


def fixed_points(g: MoebiusElement) -> tuple[complex, complex]:
    """Fixed points on the unit circle, (expanding, contracting): the roots
    (i Im(alpha) -+ r)/conj(beta) of conj(beta) z^2 - 2i Im(alpha) z - beta.
    A parabolic g has one, returned twice."""
    r = math.sqrt(_root_square(g))
    return (1j * g.alpha.imag - r) / g.beta.conjugate(), (1j * g.alpha.imag + r) / g.beta.conjugate()

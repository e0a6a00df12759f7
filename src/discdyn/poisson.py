"""Harmonic extension of boundary data and the compact-open metric.

Everything rests on one closed form: for z = r*e^{it} inside the disc, the
Poisson kernel (1-r^2)/|e^{is}-z|^2 has the increasing antiderivative

    V(s) = 2*atan(((1+r)/(1-r)) * tan((s-t)/2)),

unwrapped across the tangent poles so that V is continuous and
V(s + 2pi) = V(s) + 2pi exactly.  Extensions of piecewise-constant data are
finite sums of V differences; no quadrature is involved (adaptive quadrature
is used only as an independent oracle in the test suite).

The metric is ||phi|| = sum_n sup_{|z|<=1-1/n} |phi| / (n^2 2^n), truncated at
n_max with a certified tail bound; every reported value carries an error bar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import moebius
from .boundary import (
    TWO_PI,
    Arc,
    BoundaryFunction,
    compose_with_moebius,
)
from .moebius import ElementClass, MoebiusElement

# sum_{n=1}^inf 1/(n^2 2^n), the metric norm of the constant 1 (dilogarithm at 1/2)
NORM_OF_ONE = 0.5822405264650125

_GRID_START = 256
_GRID_CAP = 16384
_GRID_TOL = 1e-8


class NearBoundaryError(ValueError):
    pass


class StencilError(ValueError):
    pass


class NonDivergentError(ValueError):
    pass


def poisson_kernel(z: complex, s) -> float:
    """(1-|z|^2)/|e^{is}-z|^2, positive, mean 1 over the circle."""
    z = complex(z)
    if abs(z) > 1.0 - 1e-12:
        raise NearBoundaryError(f"|z| = {abs(z)} too close to the boundary")
    s = np.asarray(s, dtype=float)
    out = (1.0 - abs(z) ** 2) / np.abs(np.exp(1j * s) - z) ** 2
    return float(out) if out.ndim == 0 else out


def angle_antiderivative(z, s):
    """Continuous increasing antiderivative of the kernel in the angle.

    Broadcasts over z (complex, |z|<1) and s.  V(s+2pi) = V(s) + 2pi holds
    exactly through the integer unwrap counter.
    """
    z = np.asarray(z, dtype=complex)
    s = np.asarray(s, dtype=float)
    r = np.abs(z)
    t = np.angle(z)
    c = (1.0 + r) / (1.0 - r)
    d = s - t
    k = np.ceil((d - np.pi) / TWO_PI)
    dh = d - TWO_PI * k
    hi = dh > np.pi
    if np.any(hi):
        k = k + hi
        dh = dh - TWO_PI * hi
    lo = dh <= -np.pi
    if np.any(lo):
        k = k - lo
        dh = dh + TWO_PI * lo
    return 2.0 * np.arctan(c * np.tan(0.5 * dh)) + TWO_PI * k


def extend_many(f: BoundaryFunction, zs) -> np.ndarray:
    """Harmonic extension of f at an array of interior points."""
    zs = np.asarray(zs, dtype=complex)
    flat = zs.ravel()
    if flat.size and np.max(np.abs(flat)) > 1.0 - 1e-9:
        raise NearBoundaryError("points must satisfy |z| <= 1 - 1e-9")
    if f.breakpoints.size == 0:
        return np.full(zs.shape, complex(f.values[0]), dtype=complex)
    out = np.empty(flat.shape, dtype=complex)
    npieces = f.breakpoints.size
    chunk = max(1, int(4_000_000) // max(1, npieces))
    for i in range(0, flat.size, chunk):
        z = flat[i : i + chunk, None]
        v = angle_antiderivative(z, f.breakpoints[None, :])
        dv = np.empty_like(v)
        dv[:, :-1] = v[:, 1:] - v[:, :-1]
        dv[:, -1] = v[:, 0] + TWO_PI - v[:, -1]
        out[i : i + chunk] = dv @ f.values / TWO_PI
    return out.reshape(zs.shape)


def extend(f: BoundaryFunction, z: complex) -> complex:
    """Harmonic extension at a single point; exact per constant piece."""
    return complex(extend_many(f, np.array([complex(z)]))[0])


@dataclass(frozen=True)
class HarmonicFunction:
    """Poisson extension of piecewise-constant boundary data.

    `unrepresented` arcs are regions where `boundary` holds a 0 placeholder;
    there the true boundary values differ from the placeholder by at most
    `tail_bound` in modulus.  Evaluation uses the materialized part only; the
    metric routines fold the unrepresented contribution into error bars.
    """

    boundary: BoundaryFunction
    unrepresented: tuple[Arc, ...] = ()
    tail_bound: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "unrepresented", tuple(self.unrepresented))

    def __call__(self, z: complex) -> complex:
        return extend(self.boundary, z)

    def at(self, zs) -> np.ndarray:
        return extend_many(self.boundary, zs)

    def sup_bound(self) -> float:
        return max(self.boundary.sup_norm(), self.tail_bound)

    def unrepresented_length(self) -> float:
        return float(sum(a.theta for a in self.unrepresented))


@dataclass(frozen=True)
class CompactExhaustion:
    """Closed discs K_n of radius 1 - 1/n, n = 1..n_max, with series weights."""

    n_max: int = 40

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")

    def weights(self) -> np.ndarray:
        n = np.arange(1, self.n_max + 1, dtype=float)
        return 1.0 / (n * n * np.exp2(n))

    def tail_coeff(self) -> float:
        # sum_{n > n_max} 1/(n^2 2^n) <= 2^-n_max
        return 2.0 ** (-self.n_max)

    def radius(self, n: int) -> float:
        return 1.0 - 1.0 / n


def _circle_sup(f: BoundaryFunction, radius: float) -> tuple[float, float]:
    """Sup of |extension| on |z| = radius via a doubling angular grid.

    Returns (sup estimate, last refinement change).  |phi| is subharmonic, so
    the circle carries the sup over the whole closed disc of that radius.
    """
    if f.breakpoints.size == 0:
        return abs(complex(f.values[0])), 0.0
    m = _GRID_START
    prev = None
    best = 0.0
    while True:
        ang = np.arange(m) * (TWO_PI / m)
        vals = extend_many(f, radius * np.exp(1j * ang))
        cur = float(np.max(np.abs(vals)))
        best = max(best, cur)
        if prev is not None:
            delta = abs(cur - prev)
            if delta <= _GRID_TOL * max(1.0, cur) or m >= _GRID_CAP:
                return best, delta
        prev = cur
        m *= 2


def metric_norm(phi: HarmonicFunction, ex: CompactExhaustion) -> tuple[float, float]:
    """Truncated metric norm with a certified error bar.

    value = sum_{n<=n_max} sup_{K_n}|phi_materialized| / (n^2 2^n)
    bar   = series tail + unrepresented-region bound + grid allowance.
    """
    f = phi.boundary
    w = ex.weights()
    sups = np.empty(ex.n_max)
    sups[0] = abs(extend(f, 0.0))
    grid_slack = 0.0
    for n in range(2, ex.n_max + 1):
        sup_n, delta = _circle_sup(f, ex.radius(n))
        sups[n - 1] = sup_n
        grid_slack += w[n - 1] * delta
    value = float(np.dot(w, sups))
    tail = ex.tail_coeff() * phi.sup_bound()
    unrep = 0.0
    l = phi.unrepresented_length()
    if l > 0.0 and phi.tail_bound > 0.0:
        kern = 2.0 * np.arange(1, ex.n_max + 1) - 1.0  # kernel sup on K_n
        unrep = phi.tail_bound * float(
            np.dot(w, np.minimum(1.0, kern * l / TWO_PI))
        )
        unrep += phi.tail_bound * ex.tail_coeff()  # same regions, truncated levels
    bar = tail + unrep + grid_slack + _GRID_TOL
    return value, float(bar)


def metric_distance(
    p1: HarmonicFunction, p2: HarmonicFunction, ex: CompactExhaustion
) -> tuple[float, float]:
    """Metric norm of the difference, bars combined conservatively."""
    diff = p1.boundary.minus(p2.boundary)
    unrep = tuple(p1.unrepresented) + tuple(p2.unrepresented)
    tail = (p1.sup_bound() + p2.sup_bound()) if unrep else 0.0
    return metric_norm(HarmonicFunction(diff, unrep, tail), ex)


# --- harmonic conjugate -----------------------------------------------------


def _conjugate_antiderivative(z: complex, s):
    # antiderivative of the conjugate kernel -2r sin(s-t)/|e^{is}-z|^2;
    # periodic in s, so piece sums telescope cyclically with no unwrap
    r = abs(z)
    t = math.atan2(z.imag, z.real)
    s = np.asarray(s, dtype=float)
    return -np.log(1.0 - 2.0 * r * np.cos(s - t) + r * r)


def harmonic_conjugate(f: BoundaryFunction, z: complex) -> float:
    """Conjugate function value pinned by conjugate(0) = 0.

    f must be real-valued; f + i*conjugate is holomorphic (the imaginary part
    of the Schwarz integral of f).
    """
    return float(harmonic_conjugate_many(f, np.array([complex(z)]))[0])


def harmonic_conjugate_many(f: BoundaryFunction, zs) -> np.ndarray:
    if not f.is_real():
        raise ValueError("harmonic conjugate requires real boundary data")
    zs = np.asarray(zs, dtype=complex)
    flat = zs.ravel()
    if flat.size and np.max(np.abs(flat)) > 1.0 - 1e-9:
        raise NearBoundaryError("points must satisfy |z| <= 1 - 1e-9")
    if f.breakpoints.size == 0:
        return np.zeros(zs.shape)
    vals = f.values.real
    out = np.empty(flat.shape)
    for i, z in enumerate(flat):
        u = _conjugate_antiderivative(complex(z), f.breakpoints)
        du = np.empty_like(u)
        du[:-1] = u[1:] - u[:-1]
        du[-1] = u[0] - u[-1]
        out[i] = np.dot(du, vals) / TWO_PI
    return out.reshape(zs.shape)


def harmonicity_residual(phi: HarmonicFunction, z: complex, h: float) -> float:
    """5-point finite-difference Laplacian magnitude; O(h^2) for true harmonics."""
    z = complex(z)
    if abs(z) + 2.0 * h > 1.0 - 1e-6:
        raise StencilError("stencil of radius 2h must stay inside |z| <= 1 - 1e-6")
    pts = np.array([z + h, z - h, z + 1j * h, z - 1j * h, z])
    v = phi.at(pts)
    return abs((v[0] + v[1] + v[2] + v[3] - 4.0 * v[4]) / (h * h))


# --- iterated-action diagnostics --------------------------------------------


def limit_diagnostic(
    f: BoundaryFunction, g: MoebiusElement, n_max: int
) -> list[tuple[int, float, complex]]:
    """Oscillation of the n-th translate's extension on K_3, per n.

    The n-th translate has boundary data f o g^{-n}.  Rows are
    (n, oscillation over |z| <= 2/3, value at 0).  For boundary data sampled
    from a continuous function the oscillation decays toward the sampling
    resolution; for genuinely discontinuous data it need not, and the table
    simply records that.
    """
    cls = moebius.classify(g)
    if cls not in (ElementClass.HYPERBOLIC, ElementClass.PARABOLIC):
        raise NonDivergentError(f"{cls.value} element does not push orbits to the boundary")
    ang = np.arange(256) * (TWO_PI / 256)
    circle = (2.0 / 3.0) * np.exp(1j * ang)
    # iterate one composition per row: forming g^n directly is hopeless for
    # large n (the alpha/beta entries grow like lambda^(n/2) and the unit
    # determinant cancels away), while each single step stays conditioned
    ginv = moebius.inverse(g)
    fn = f
    rows = []
    for n in range(n_max + 1):
        if n > 0:
            fn = compose_with_moebius(fn, ginv)
        vals = extend_many(fn, circle)
        center = extend(fn, 0.0)
        allv = np.append(vals, center)
        osc = float(np.max(np.abs(allv[:, None] - allv[None, :])))
        rows.append((n, osc, center))
    return rows

"""The group action on arcs (start point, angular length) and its invariant.

A disc isometry g maps the arc {zeta*e^{is}: 0 <= s <= theta} to another
circular arc; act_arcs returns the starts g(zeta) and arclengths of many
images at once, and act_arc is its size-1 call.  The length
integrand 1/|conj(alpha) + zeta*conj(beta)*e^{is}|^2 is itself a Poisson
kernel evaluated at z0 = -conj(beta)*zeta/alpha-bar and reflected angle, so
the same closed-form antiderivative that powers `poisson.extend` gives the
image length as an explicit angle difference.

big_F(z, x) is the harmonic measure of the arc x seen from z; it is invariant
under the simultaneous action on z and x, which the test suite certifies.
"""

from __future__ import annotations

import numpy as np

from . import moebius
from .boundary import TWO_PI, Arc
from .moebius import MoebiusElement
from .poisson import NearBoundaryError, angle_antiderivative


def act_arcs(alpha, beta, zeta, theta):
    """Images of the arcs (zeta, theta) under the elements (alpha, beta), all at once.

    The arguments broadcast to one common shape.  Returns the image starts,
    renormalised to |zeta| = 1, and the image lengths.  The length integrand
    equals the Poisson kernel at z0 = -conj(beta)*zeta/conj(alpha) and angle
    -s, so the length is V(0) - V(-theta) for the kernel antiderivative V at
    z0; both values come from one call on the stacked angles.  Lengths 0 and
    2pi are exact; every length is clipped to [0, 2pi].
    """
    alpha, beta, zeta, theta = np.broadcast_arrays(
        np.asarray(alpha, dtype=complex),
        np.asarray(beta, dtype=complex),
        np.asarray(zeta, dtype=complex),
        np.asarray(theta, dtype=float),
    )
    ca, cb = np.conj(alpha), np.conj(beta)
    start = (alpha * zeta + beta) / (cb * zeta + ca)
    start /= np.abs(start)
    length = np.array(np.clip(theta, 0.0, TWO_PI))
    inner = (length > 0.0) & (length < TWO_PI)
    if np.any(inner):
        z0 = -cb[inner] * zeta[inner] / ca[inner]
        th = theta[inner]
        v = angle_antiderivative(z0, np.stack((np.zeros_like(th), -th)))
        length[inner] = np.clip(v[0] - v[1], 0.0, TWO_PI)
    return start, length


def act_arc(g: MoebiusElement, x: Arc) -> Arc:
    zeta, theta = act_arcs(g.alpha, g.beta, x.zeta, x.theta)
    return Arc(complex(zeta), float(theta))


def big_F(z: complex, x: Arc) -> float:
    """Harmonic measure of the arc x at the point z.

    Computed by moving z to the origin with T_z = (1, -z)/sqrt(1-|z|^2) and
    measuring the image arc: F = (length of T_z(x))/2pi, which
    reduces to antiderivative differences at z0 = conj(z)*zeta.  This is a
    different evaluation point and interval than poisson.extend uses for the
    indicator, making the two routes independent cross-checks.
    """
    z = complex(z)
    if abs(z) > 1.0 - 1e-9:
        raise NearBoundaryError("big_F needs |z| <= 1 - 1e-9")
    if x.theta <= 0.0:
        return 0.0
    if x.theta >= TWO_PI:
        return 1.0
    z0 = np.conj(z) * x.zeta
    v0 = float(angle_antiderivative(z0, 0.0))
    v1 = float(angle_antiderivative(z0, -x.theta))
    return (v0 - v1) / TWO_PI


def check_equivariance(g: MoebiusElement, z: complex, x: Arc) -> float:
    """|F(g(z), g(x)) - F(z, x)|; zero in exact arithmetic."""
    gz = moebius.act_disc(g, z)
    return abs(big_F(gz, act_arc(g, x)) - big_F(z, x))

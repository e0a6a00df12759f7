"""The group action on arcs (start point, angular length) and its invariant.

In the line coordinate x = tan(s/2) of `boundary`, the disc isometry
(alpha, beta) is the real map x -> (a x + b)/(c x + d) with

    (a, b, c, d) = (Re alpha - Re beta, Im alpha + Im beta,
                    Im beta - Im alpha, Re alpha + Re beta),

whose determinant is |alpha|^2 - |beta|^2 = 1 (`line_matrix`).  An arc
(zeta, theta), zeta = e^{is}, is held as two half-angle vectors and one
number: v1 = (q1, p1) along (cos s/2, sin s/2), v2 = (q2, p2), v1 turned by
theta/2, and det = q1*p2 - p1*q2 = |v1| |v2| sin(theta/2) (`line_arcs`).  A
step maps both vectors by q' = c p + d q, p' = a p + b q (`line_step`).  A
unimodular step leaves det unchanged, so det is carried, never recomputed
from the vectors, and the length reads out as 2 atan2(det, v1 . v2) to
relative precision however short the arc (`read_arcs`).  Lengths 0 and 2pi
are det = +0 with v2 = v1 or -v1, and every step keeps them exact.  Vectors
that grow or shrink are rescaled by exact powers of two, det with them
(`rescaled`), so long words cannot overflow.

big_F(z, x) is the harmonic measure of the arc x seen from z; it is invariant
under the simultaneous action on z and x, which the test suite certifies.
It measures through the kernel antiderivative of `poisson`, a route
independent of the line-coordinate step.
"""

from __future__ import annotations

import numpy as np

from . import moebius
from .boundary import TWO_PI, Arc, check_arcs
from .moebius import MoebiusElement
from .poisson import NearBoundaryError, angle_antiderivative


def line_matrix(alpha, beta):
    """(a, b, c, d) of x -> (a x + b)/(c x + d), the elements (alpha, beta)
    acting in the line coordinate; arrays broadcast."""
    alpha = np.asarray(alpha, dtype=complex)
    beta = np.asarray(beta, dtype=complex)
    return (alpha.real - beta.real, alpha.imag + beta.imag,
            beta.imag - alpha.imag, alpha.real + beta.real)


def line_arcs(zeta, theta):
    """(q, p, det) of the arcs (zeta, theta): q and p stack the vectors v1
    and v2 along a new first axis.  v1 is (1 + Re zeta, Im zeta) or
    (Im zeta, 1 - Re zeta), whichever does not cancel, so |v1| lies in
    [sqrt 2, 2]; lengths are clipped to [0, 2pi]."""
    zeta = np.asarray(zeta, dtype=complex)
    theta = np.clip(np.asarray(theta, dtype=float), 0.0, TWO_PI)
    x, y = zeta.real, zeta.imag
    right = x >= 0.0
    q1 = np.where(right, 1.0 + x, y)
    p1 = np.where(right, y, 1.0 - x)
    half = 0.5 * theta
    cos = np.cos(half)
    sin = np.where((theta > 0.0) & (theta < TWO_PI), np.sin(half), 0.0)
    q = np.stack((q1, cos * q1 - sin * p1))
    p = np.stack((p1, sin * q1 + cos * p1))
    return q, p, sin * (q1 * q1 + p1 * p1)


def line_step(m, q, p):
    """q, p mapped by the line matrices m = (a, b, c, d), which broadcast
    against each of v1 and v2."""
    a, b, c, d = m
    return c * p + d * q, a * p + b * q


def rescaled(q, p, det):
    """(q, p, det) with each vector scaled by a power of two to largest
    component in [1/2, 1), det by the product of its two vectors' scales:
    every value and every later step is exactly what it was, up to scale."""
    e = np.frexp(np.maximum(np.abs(q), np.abs(p)))[1]
    return np.ldexp(q, -e), np.ldexp(p, -e), np.ldexp(det, -(e[0] + e[1]))


def read_arcs(q, p, det):
    """The starts zeta = (q1 + i p1)^2 / |v1|^2 and the lengths
    theta = 2 atan2(det, v1 . v2) of the arcs (q, p, det)."""
    (q1, q2), (p1, p2) = q, p
    n = q1 * q1 + p1 * p1
    zeta = np.empty(n.shape, dtype=complex)
    zeta.real = (q1 - p1) * (q1 + p1) / n
    zeta.imag = 2.0 * q1 * p1 / n
    return zeta, 2.0 * np.arctan2(det, q1 * q2 + p1 * p2)


def act_arcs(alpha, beta, zeta, theta):
    """Images of the arcs (zeta, theta) under the elements (alpha, beta), all at once.

    The arguments broadcast to one common shape, and (alpha, beta) has
    |alpha|^2 - |beta|^2 = 1, as `MoebiusElement` stores it.  One
    line-coordinate step: the arcs become (q, p, det), their vectors map by
    the line matrices, and the images read out with det carried.  Returns
    the image starts, |zeta| = 1 up to rounding, and the image lengths in
    [0, 2pi], relative to the length however short; lengths 0 and 2pi stay
    exact.
    """
    alpha, beta, zeta, theta = np.broadcast_arrays(alpha, beta, zeta, theta)
    q, p, det = line_arcs(zeta, theta)
    return read_arcs(*line_step(line_matrix(alpha, beta), q, p), det)


def act_arc(g: MoebiusElement, x: Arc) -> Arc:
    zeta, theta = act_arcs(g.alpha, g.beta, x.zeta, x.theta)
    return Arc(complex(zeta), float(theta))


def iterate_arc(m, x: Arc, steps: int):
    """The starts and lengths of x, m(x), ..., m^steps(x) for one line matrix
    m = (a, b, c, d) with ad - bc = 1: each step acts on the carried
    (q, p, det), rescaled after it, so no power of m is formed and the
    entries of m may be as large as a double holds.  Row 0 is x itself; the
    others are checked as `Arc` checks them."""
    q, p, det = rescaled(*line_arcs(x.zeta, x.theta))
    qs, ps, dets = np.empty((2, steps)), np.empty((2, steps)), np.empty(steps)
    for n in range(steps):
        q, p, det = rescaled(*line_step(m, q, p), det)
        qs[:, n], ps[:, n], dets[n] = q, p, det
    zeta, theta = np.full(steps + 1, x.zeta), np.full(steps + 1, x.theta)
    zeta[1:], theta[1:] = check_arcs(*read_arcs(qs, ps, dets))
    return zeta, theta


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

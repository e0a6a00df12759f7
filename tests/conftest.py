"""Shared fixtures: seeded generators, random group elements, quadrature and
line-image oracles."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from scipy.integrate import quad, quad_vec

from discdyn import BoundaryFunction, compose, hyperbolic_multiplier, rotation

settings.register_profile(
    "numeric",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("numeric")

TWO_PI = 2.0 * math.pi


@pytest.fixture
def rng():
    return np.random.default_rng(0xD15C)


def random_element(rng, spread=1.2):
    """Haar-ish draw through the rotation * boost * rotation factorization."""
    t = rng.uniform(0.0, TWO_PI)
    u = rng.uniform(-spread, spread)
    p = rng.uniform(0.0, TWO_PI)
    return compose(rotation(t), compose(hyperbolic_multiplier(math.exp(u)), rotation(p)))


def random_boundary(rng, n_pieces=None):
    n = int(n_pieces or rng.integers(2, 9))
    br = np.sort(rng.uniform(0.0, TWO_PI, n))
    while np.min(np.diff(br, append=br[0] + TWO_PI)) < 1e-6:
        br = np.sort(rng.uniform(0.0, TWO_PI, n))
    vals = rng.uniform(-0.7, 0.7, n) + 1j * rng.uniform(-0.7, 0.7, n)
    return BoundaryFunction(br, vals)


def seeded_cut_data(seed: int, n_pieces: int) -> BoundaryFunction:
    """n_pieces random cuts, two of them at 0 and at pi, with random values in
    the unit disc."""
    rng = np.random.default_rng(seed)
    br = np.concatenate(([0.0, math.pi], rng.uniform(0.0, TWO_PI, n_pieces - 2)))
    vals = np.sqrt(rng.uniform(0.0, 1.0, n_pieces)) * np.exp(1j * rng.uniform(0.0, TWO_PI, n_pieces))
    return BoundaryFunction(br, vals)


def line_images(br, kind: str, rate: float, n: int):
    """60-digit angles of gamma^n(s) for the cuts s, gamma^n acting on the line
    x = tan(s/2) as x -> rate^n x (hyperbolic) or x + n rate (parabolic), and
    per cut the conditioning (1 + x^2)/(1 + x'^2) of that map in angles.  The
    cut at the double pi is the point at infinity, as `angle_to_line` has it."""
    images, cond = [], []
    with mpmath.workdps(60):
        for s in br:
            if s == math.pi:
                images.append(+mpmath.pi)
                cond.append(1.0)
                continue
            x = mpmath.tan(mpmath.mpf(s) / 2)
            r = mpmath.mpf(rate)
            y = x * r**n if kind == "hyperbolic" else x + n * r
            images.append(mpmath.fmod(2 * mpmath.atan(y) + 2 * mpmath.pi, 2 * mpmath.pi))
            cond.append(float((1 + x * x) / (1 + y * y)))
    return images, np.array(cond)


def worst_cut_error(cuts, images, cond) -> float:
    """Largest cyclic distance from a cut to the nearest of the 60-digit images,
    each image's distance divided by max(1, its conditioning)."""
    near = np.array([float(v) for v in images])
    scale = np.maximum(1.0, cond)
    worst = 0.0
    with mpmath.workdps(60):
        for c in cuts:
            d = np.abs(np.mod(c - near + math.pi, TWO_PI) - math.pi)
            errs = []
            for j in np.flatnonzero(d <= d.min() + 1e-12):
                e = mpmath.fmod(mpmath.mpf(c) - images[j] + 3 * mpmath.pi, 2 * mpmath.pi) - mpmath.pi
                errs.append(float(abs(e)) / scale[j])
            worst = max(worst, min(errs))
    return worst


def line_image_mean(f: BoundaryFunction, images) -> complex:
    """Mean of f o gamma^-n from the 60-digit images of f's sorted cuts: value
    j holds on the arc from image j to image j + 1, cyclically."""
    with mpmath.workdps(60):
        total = mpmath.mpc(0)
        for j, v in enumerate(f.values):
            w = mpmath.fmod(images[(j + 1) % len(images)] - images[j] + 2 * mpmath.pi, 2 * mpmath.pi)
            total += w * mpmath.mpc(v.real, v.imag)
        return complex(total / (2 * mpmath.pi))


def poisson_quad(f: BoundaryFunction, z: complex) -> complex:
    """Adaptive-quadrature route to the same integral the closed form computes."""

    def kernel(s):
        return (1.0 - abs(z) ** 2) / abs(np.exp(1j * s) - z) ** 2

    pts = sorted(float(s) for s in f.breakpoints)
    re, _ = quad(lambda s: kernel(s) * f.evaluate(s).real, 0.0, TWO_PI,
                 points=pts, limit=200, epsabs=1e-13, epsrel=1e-13)
    im, _ = quad(lambda s: kernel(s) * f.evaluate(s).imag, 0.0, TWO_PI,
                 points=pts, limit=200, epsabs=1e-13, epsrel=1e-13)
    return complex(re, im) / TWO_PI


def poisson_quad_grid(f: BoundaryFunction, zs: np.ndarray) -> np.ndarray:
    """Vectorized oracle: one adaptive pass integrating all grid points at once."""
    zs = np.asarray(zs, dtype=complex)

    def integrand(s):
        k = (1.0 - np.abs(zs) ** 2) / np.abs(np.exp(1j * s) - zs) ** 2
        return k * f.evaluate(s)

    pts = sorted(float(s) for s in f.breakpoints)
    val, _ = quad_vec(integrand, 0.0, TWO_PI, points=pts, epsabs=1e-12, epsrel=1e-12)
    return val / TWO_PI


# collected one-line verdicts from the acceptance tests, echoed after the run
_criterion_lines: list[str] = []


def record_criterion(line: str) -> None:
    _criterion_lines.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in _criterion_lines:
            terminalreporter.write_line(line)

"""Shared fixtures: seeded generators, random group elements, quadrature oracle."""

import math

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

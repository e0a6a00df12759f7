"""Independent lower bound on the compact-convergence metric of a translate difference.

For piecewise-constant data d with jumps J_j at angles t_j, the Fourier
coefficients are c_0 = mean(d) and c_k = sum_j J_j e^{-ik t_j} / (2 pi i k),
and the harmonic extension on the circle of radius r is
sum_k c_k r^|k| e^{ikt}.  One inverse FFT per radius evaluates it on a
2^14-point grid.  This shares no code with `discdyn.poisson`, which sums
closed-form kernel antiderivatives instead.

Every grid maximum is a lower bound on the sup over the disc K_n of radius
1 - 1/n, and K_n grows with n, so the level-12 maximum also bounds every
level n > 12 from below.  Weighting by 1/(n^2 2^n) gives a lower bound on the
truncated norm sum_{n<=40} sup_{K_n}|u| / (n^2 2^n); `SLACK` covers
floating-point error in the series, the FFT and the phases.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi
GRID = 1 << 14
DIRECT_LEVELS = 12
N_MAX = 40
SLACK = 1e-10
_K_CHUNK = 1024


def moebius_angles(alpha: complex, beta: complex, s: np.ndarray) -> np.ndarray:
    z = np.exp(1j * s)
    return np.mod(np.angle((alpha * z + beta) / (np.conj(beta) * z + np.conj(alpha))), TWO_PI)


def _jumps(br: np.ndarray, vals: np.ndarray) -> np.ndarray:
    # value v_j holds on [t_j, t_{j+1}); the jump at t_j is v_j - v_{j-1}
    return vals - np.roll(vals, 1)


def mean_value(br: np.ndarray, vals: np.ndarray) -> complex:
    order = np.argsort(br)
    br, vals = br[order], vals[order]
    widths = np.diff(br, append=br[0] + TWO_PI)
    return complex(np.dot(widths, vals) / TWO_PI)


def translate_difference_coefficients(br, vals, alpha, beta):
    """Fourier coefficients (k = -GRID/2+1 .. GRID/2-1, FFT order) of f - f o g^{-1}.

    f holds vals[j] on [br[j], br[j+1]); f o g^{-1} has the same values on
    the arcs between the images g(br[j]), which keep their cyclic order.
    """
    br = np.asarray(br, dtype=float)
    vals = np.asarray(vals, dtype=complex)
    moved = moebius_angles(complex(alpha), complex(beta), br)
    jumps = _jumps(br, vals)
    coeffs = np.zeros(GRID, dtype=complex)
    coeffs[0] = mean_value(br, vals) - mean_value(moved, vals)
    half = GRID // 2
    for k0 in range(1, half, _K_CHUNK):
        k = np.arange(k0, min(k0 + _K_CHUNK, half), dtype=float)
        e_f = np.exp(-1j * np.outer(k, br))
        e_g = np.exp(-1j * np.outer(k, moved))
        pos = (e_f - e_g) @ jumps
        neg = (np.conj(e_f) - np.conj(e_g)) @ jumps
        coeffs[k0 : k0 + k.size] = pos / (TWO_PI * 1j * k)
        coeffs[GRID - k0 - k.size + 1 : GRID - k0 + 1] = (neg / (-TWO_PI * 1j * k))[::-1]
    return coeffs


def circle_max(coeffs: np.ndarray, radius: float) -> float:
    """max |u| over the GRID equally spaced points of the circle |z| = radius."""
    k = np.fft.fftfreq(GRID, d=1.0 / GRID)
    u = np.fft.ifft(coeffs * radius ** np.abs(k)) * GRID
    return float(np.max(np.abs(u)))


def norm_lower_bound(coeffs: np.ndarray) -> float:
    n = np.arange(1, N_MAX + 1, dtype=float)
    w = 1.0 / (n * n * np.exp2(n))
    sups = np.empty(N_MAX)
    sups[0] = abs(coeffs[0])
    for level in range(2, DIRECT_LEVELS + 1):
        sups[level - 1] = circle_max(coeffs, 1.0 - 1.0 / level)
    sups[DIRECT_LEVELS:] = sups[DIRECT_LEVELS - 1]
    return float(np.dot(w, np.maximum(sups - SLACK, 0.0)))


def tail_allowance(sup_bound: float) -> float:
    """Largest amount the levels n > 12 can add above the level-12 extension."""
    n = np.arange(DIRECT_LEVELS + 1, N_MAX + 1, dtype=float)
    return float(np.sum(1.0 / (n * n * np.exp2(n)))) * 2.0 * sup_bound

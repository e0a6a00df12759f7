"""Harmonic extension of boundary data and the compact-open metric.

Extensions of piecewise-constant data with jumps J_j = v_j - v_{j-1} at s_j
are one closed form, the Fourier series of the data summed:

    u(z) = mean(f) - (1/pi) sum_j J_j arg(1 - z e^{-is_j}),

a principal value each, as Re(1 - z e^{-is}) > 0 inside the disc.  No
quadrature is involved (adaptive quadrature is used only as an independent
oracle in the test suite).  The harmonic measure `arcspace.big_F` uses the
increasing antiderivative V(s) = 2*atan(((1+r)/(1-r)) * tan((s-t)/2)) of the
Poisson kernel (1-r^2)/|e^{is}-z|^2 at z = r*e^{it}, unwrapped across the
tangent poles so that V(s + 2pi) = V(s) + 2pi exactly.

The metric is ||phi|| = sum_n sup_{|z|<=1-1/n} |phi| / (n^2 2^n), truncated at
n_max, and is evaluated spectrally: with jumps J_j at s_j the data have
Fourier coefficients c_k = sum_j J_j e^{-iks_j} / (2pi ik), computed once per
call, and each circle |z| = r is one inverse FFT of c_k r^|k|.  Grid maxima
become true sups through a bound on |d^2u/dt^2| read off the coefficients
(at most J r / (pi (1-r)^2), J = sum |J_j|): each grid cell over budget is
quartered, its new points from the closed form (one evaluator per call).
Every reported value carries an error bar that is an upper bound by
construction: the series tail, the unrepresented arcs, and per level the cell
allowance, the truncation tail J r^{K+1} / (pi (K+1)(1-r)) of the damped
series and the rounding of the FFT and of the closed form, which grows like
n sum |J_j| on K_n.  Level n counts with weight w_n = 1/(n^2 2^n), so both its
cell allowance and its truncation tail are budgeted by weight (_SUP_BUDGET /
w_n, _TAIL_BUDGET / w_n): deep levels take few terms and coarse grids.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .boundary import TWO_PI, Arc, BoundaryFunction
# bound here for perfbench/test_perfbench.py::test_every_binding_is_wrapped_and_restored
from .boundary import compose_with_moebius  # noqa: F401

# sum_{n=1}^inf 1/(n^2 2^n), the metric norm of the constant 1 (dilogarithm at 1/2)
NORM_OF_ONE = 0.5822405264650125

# spectral circle sups (see metric_norm)
_TAIL_BUDGET = 1e-14  # weighted truncation tail of the damped series each level may leave
_TERM_CAP = 1 << 13  # series terms beyond which a level is not computed
_CHUNK_PAIRS = 1 << 18  # array entries formed at once: exponentials, circle points, pairs
_SUP_BUDGET = 1e-11  # weighted cell allowance each level may leave in the bar
_HALVINGS = 24  # halvings of a cell per level; a refinement round quarters, two at once
_CELL_CAP = 1 << 10  # cells one round may split on a circle; past it the excess is in the bar


class NearBoundaryError(ValueError):
    pass


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


def _closed_form(f: BoundaryFunction):
    """Evaluator of u(z) = mean(f) - (1/pi) sum_j J_j arg(1 - z e^{-is_j}) on flat arrays of
    |z| < 1, f non-constant: each arg a principal value as Re(1 - z e^{-is}) > 0.  Its
    constants are formed once; on K_n it rounds by `_closed_form_rounding`."""
    jumps = f.jumps().view(float).reshape(-1, 2) / -math.pi  # real and imaginary parts
    e = np.exp(-1j * f.breakpoints)
    mean = f.mean()
    chunk = max(1, _CHUNK_PAIRS // e.size)

    def evaluate(zs: np.ndarray) -> np.ndarray:
        out = np.empty((zs.size, 2))
        for i in range(0, zs.size, chunk):
            w = np.multiply.outer(zs[i : i + chunk], e)
            np.subtract(1.0, w, out=w)
            out[i : i + chunk] = np.arctan2(w.imag, w.real) @ jumps
        return out.view(complex)[:, 0] + mean

    return evaluate


def extend_many(f: BoundaryFunction, zs) -> np.ndarray:
    """Harmonic extension of f at an array of interior points (see `_closed_form`)."""
    zs = np.asarray(zs, dtype=complex)
    flat = zs.ravel()
    if flat.size and np.max(np.abs(flat)) > 1.0 - 1e-9:
        raise NearBoundaryError("points must satisfy |z| <= 1 - 1e-9")
    if f.breakpoints.size == 0:
        return np.full(zs.shape, complex(f.values[0]), dtype=complex)
    return _closed_form(f)(flat).reshape(zs.shape)


def _closed_form_rounding(f: BoundaryFunction, n, jump_sum: float):
    """Bound on the rounding of `_closed_form` at points of K_n (n may be an array).

    In units u = eps/2 of jump_sum / pi: z e^{-is} is off by at most 6 and
    1 - z e^{-is} by 8, so its arg, as |1 - z e^{-is}| >= 1/n on K_n, by
    8n + 4; the sum of N terms adds N pi/2 and the jumps J_j / (-pi) add pi.
    The mean adds N + 8 units of sup|f|.
    """
    eps = np.finfo(float).eps
    npieces = f.breakpoints.size
    return eps * ((4.0 * np.asarray(n) + 4.0 + npieces) * jump_sum / math.pi
                  + (npieces + 4.0) * f.sup_norm())


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
        n = np.arange(1, self.n_max + 1)
        return np.ldexp(1.0 / n**2.0, -n)  # underflows to 0 instead of overflowing 2^n

    def tail_coeff(self) -> float:
        # sum_{n > n_max} 1/(n^2 2^n) <= 2^-n_max
        return 2.0 ** (-self.n_max)

    def radius(self, n):
        """1 - 1/n; n may be an integer array."""
        return 1.0 - 1.0 / n


def _fourier_coefficients(f: BoundaryFunction, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Fourier coefficients (c_0..c_k, c_0 c_{-1}..c_{-k}) of non-constant data.

    With jumps J_j = v_j - v_{j-1} at s_j, c_k = sum_j J_j e^{-iks_j} / (2pi ik).
    The exponentials come in blocks of b ~ sqrt(k) terms as
    e^{-i(k0+j)s} = e^{-ik0 s} e^{-ijs}, at most _CHUNK_PAIRS of them at once.
    """
    br = f.breakpoints
    jumps = f.jumps()
    both = np.stack([jumps, jumps.conj()], axis=1)
    pos = np.empty(k + 1, dtype=complex)
    neg = np.empty(k + 1, dtype=complex)
    pos[0] = neg[0] = f.mean()
    b = max(1, min(math.isqrt(k), _CHUNK_PAIRS // br.size))
    table = np.exp(-1j * np.outer(np.arange(b, dtype=float), br))
    starts = np.arange(1, k + 1, b)
    per_chunk = max(1, _CHUNK_PAIRS // (b * br.size))
    for i in range(0, starts.size, per_chunk):
        k0 = int(starts[i])
        bases = np.exp(-1j * np.outer(starts[i : i + per_chunk].astype(float), br))
        e = (bases[:, None, :] * table).reshape(-1, br.size)[: k + 1 - k0]
        sums = e @ both
        ks = np.arange(k0, k0 + e.shape[0], dtype=float)
        pos[k0 : k0 + ks.size] = sums[:, 0] / (TWO_PI * 1j * ks)
        # sum_j J_j e^{+iks_j} = conj(sum_j conj(J_j) e^{-iks_j})
        neg[k0 : k0 + ks.size] = sums[:, 1].conj() / (-TWO_PI * 1j * ks)
    return pos, neg


def _truncation_tail(jump_sum: float, radii, k):
    """J r^{k+1} / (pi (k+1) (1-r)), a bound on sum_{|j|>k} |c_j| r^|j|."""
    return jump_sum * radii ** (k + 1.0) / (math.pi * (k + 1.0) * (1.0 - radii))


def _terms_needed(jump_sum: float, radii: np.ndarray, tol) -> np.ndarray:
    """Least k per radius whose truncation tail is at most tol (may be inf).

    With y = k + 1, L = -log r and v = log(y L) the tail is at most tol iff
    e^v + v >= c = log(L J / (tol pi (1-r))).  Newton on the convex e^v + v = c
    from log c (c when c <= 1), above the root, falls to it monotonically; two
    exact `_truncation_tail` tests then settle the rounding.  k never exceeds
    the least k with r^{k+1} <= tol pi (1-r) / J, which suffices since
    1/(k+1) <= 1; in logs, so a huge or infinite tol gives k = 0.
    """
    if jump_sum == 0.0:
        return np.zeros(radii.shape, dtype=int)
    log_arg = np.log(tol) + np.log(math.pi * (1.0 - radii) / jump_sum)
    rate = -np.log(radii)
    c = np.maximum(np.log(rate) - log_arg, -700.0)  # e^v underflows below
    v = np.where(c > 1.0, np.log(np.maximum(c, 1.0)), c)
    for _ in range(6):
        ev = np.exp(v)
        v -= (ev + v - c) / (ev + 1.0)
    k = np.maximum(np.ceil(np.exp(v) / rate) - 1.0, 0.0)
    k += _truncation_tail(jump_sum, radii, k) > tol
    k -= (k > 0.0) & (_truncation_tail(jump_sum, radii, np.maximum(k - 1.0, 0.0)) <= tol)
    hi = np.maximum(0.0, np.ceil(log_arg / -rate) - 1.0)
    return np.minimum(k, hi).astype(int)


def _grid_size(k):
    """Least power of 2 with m >= max(256, 2k + 2): room for the terms |j| <= k."""
    # frexp gives the bit length of the integer 2k + 1 exactly
    return np.maximum(256, np.ldexp(1.0, np.frexp(2 * np.asarray(k) + 1.0)[1])).astype(int)


def _circle_values(
    pos: np.ndarray, neg: np.ndarray, radii, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Damped series sum_j c_j r^|j| e^{ijt} at t = 2pi i / m, one row per radius.

    Uses every term that fits the grid, |j| <= min(k, m/2 - 1), and one
    unscaled inverse FFT per row.  Also returns sum_j j^2 |c_j| r^|j| over the
    same terms per radius, which bounds their second t-derivative.  e^{j log r}
    adds at most eps (J / pi)(1 + log n) on K_n, far inside that of `_level_sups`.
    """
    k = min(pos.size - 1, m // 2 - 1)
    damp = np.exp(np.multiply.outer(np.log(radii), np.arange(k + 1.0)))
    spec = np.zeros((damp.shape[0], m), dtype=complex)
    spec[:, : k + 1] = pos[: k + 1] * damp
    spec[:, m - k :] = (neg[1 : k + 1] * damp[:, 1:])[:, ::-1]
    d2 = damp @ (np.arange(k + 1.0) ** 2 * (np.abs(pos[: k + 1]) + np.abs(neg[: k + 1])))
    return np.fft.ifft(spec, axis=1, norm="forward"), d2


def _level_sups(
    f: BoundaryFunction, pos: np.ndarray, neg: np.ndarray, radii: np.ndarray,
    sizes: np.ndarray, tols: np.ndarray, jump_sum: float,
) -> tuple[np.ndarray, np.ndarray]:
    """(grid max, error) of sup |u| on each circle |z| = radii[i], u the extension of f.

    The true sup lies within error of the grid max.  |u| is subharmonic, so
    the circle carries the sup over the closed disc of that radius.  Circle i
    is sampled on sizes[i] points with the terms |j| <= k that fit.  With
    |d^2u/dt^2| <= C = sum_{|j|<=k} j^2 |c_j| r^|j| + (J/pi) sum_{j>k} j r^j
    (as |c_j| <= J/(2pi|j|); at most J r/(pi(1-r)^2)), a cell of width h has
    sup at most max(|u(a)|, |u(b)|) + h^2 C / 8.  Every grid cell's bound is
    formed on the sampled circles; those within tols[i] of their circle's best
    value are final, and the others are quartered, on all circles at once,
    their three interior points evaluated in one call per round of one
    `_closed_form`.  A circle stops after _HALVINGS / 2 rounds (cells of width
    h / 2^_HALVINGS), or when more than _CELL_CAP of its cells are over budget.
    error = the largest cell excess left, plus the truncation tail
    J r^{k+1} / (pi (k+1)(1-r)) and the rounding of the series, the FFT and
    the closed form.  The caller sizes k and the grid to a weighted truncation
    budget per level, so the tail may be large where the weight is small; C
    covers the terms past k either way.
    """
    levels = radii.size
    k = np.minimum(pos.size - 1, sizes // 2 - 1)
    # the terms past k, plus 1e-9 of the crude bound J r/(pi(1-r)^2) for the
    # rounding of the computed coefficients
    rest_d2 = jump_sum / math.pi * (
        radii ** (k + 1.0) * ((k + 1.0) - k * radii) + 1e-9 * radii
    ) / (1.0 - radii) ** 2
    curv = np.empty(levels)  # C / 8 per circle
    best = np.empty(levels)
    top = np.empty(levels)  # largest final cell bound per circle
    pool = []  # per chunk, the grid cells over budget
    for m in np.unique(sizes):
        rows = np.flatnonzero(sizes == m)
        step = max(1, _CHUNK_PAIRS // m)
        for i in range(0, rows.size, step):
            chunk = rows[i : i + step]
            u, d2 = _circle_values(pos, neg, radii[chunk], m)
            left = np.abs(u)
            # cell j runs from point j to point j + 1 (np.roll(left, -1, axis=1))
            right = np.concatenate((left[:, 1:], left[:, :1]), axis=1)
            curv[chunk] = (rest_d2[chunk] + d2) / 8.0
            best[chunk] = left.max(axis=1)
            allow = (TWO_PI / m) ** 2 * curv[chunk]
            # a cell's bound is its larger end + allow; over budget past best + tols
            ends = np.maximum(left, right)
            over = np.flatnonzero(ends > (best[chunk] + tols[chunk] - allow)[:, None])
            row, col = np.divmod(over, m)
            pool.append((chunk[row], col * (TWO_PI / m), left.ravel()[over], right.ravel()[over]))
            ends.ravel()[over] = -math.inf
            top[chunk] = ends.max(axis=1) + allow
    lev, start, left, right = (np.concatenate(part) for part in zip(*pool))
    evaluate = _closed_form(f)
    width = TWO_PI / sizes  # of every cell of a circle, quartered each round
    allow = width * width * curv
    quarters = np.arange(4.0)[:, None]
    final = []  # (circle, bound) of the cells closed in each round
    rounds = _HALVINGS // 2
    for rnd in range(rounds + 1):
        bound = np.maximum(left, right) + allow[lev]
        over = bound > (best + tols)[lev]
        if rnd == rounds:
            over[:] = False
        elif np.count_nonzero(over) > _CELL_CAP:  # else no circle can pass the cap
            over &= (np.bincount(lev[over], minlength=levels) <= _CELL_CAP)[lev]
        final.append((lev[~over], bound[~over]))
        if not over.any():
            break
        lev, start, left, right = lev[over], start[over], left[over], right[over]
        width *= 0.25
        allow *= 0.0625
        starts = start + width[lev] * quarters  # quarter q starts at starts[q]
        mid = np.abs(evaluate((radii[lev] * np.exp(1j * starts[1:])).ravel())).reshape(3, -1)
        np.maximum.at(best, lev, mid.max(axis=0))
        # quarter q runs from point q to q + 1 of (left, mid[0], mid[1], mid[2], right)
        ends = np.concatenate((left[None], mid, right[None]))
        lev = np.concatenate((lev,) * 4)
        start, left, right = starts.ravel(), ends[:4].ravel(), ends[1:].ravel()
    np.maximum.at(top, *(np.concatenate(part) for part in zip(*final)))
    tail = _truncation_tail(jump_sum, radii, k)
    rounding = 1e-14 * np.log2(sizes) * (
        abs(pos[0]) + jump_sum / math.pi * np.log(1.0 / (1.0 - radii)) + 1.0
    ) + _closed_form_rounding(f, 1.0 / (1.0 - radii), jump_sum)
    return best, (top - best) + tail + rounding


@functools.lru_cache(maxsize=16)
def _levels(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(weights w_n, radii of K_2..K_n_max) of `CompactExhaustion(n_max)`, read-only."""
    ex = CompactExhaustion(n_max)
    w, radii = ex.weights(), ex.radius(np.arange(2, n_max + 1))
    w.flags.writeable = radii.flags.writeable = False
    return w, radii


def metric_norm(phi: HarmonicFunction, ex: CompactExhaustion) -> tuple[float, float]:
    """Truncated metric norm with a certified error bar.

    value = sum_{n<=n_max} w_n sup_{K_n}|phi_materialized|, w_n = 1/(n^2 2^n).
    The Fourier coefficients of the boundary data are computed once; each
    circle |z| = 1 - 1/n is one inverse FFT of the damped series, refined
    cell by cell to a true sup (see `_level_sups`) with a weighted budget of
    _SUP_BUDGET per level.  Each level's series is truncated to a weighted
    budget of _TAIL_BUDGET the same way: the least k with w_n times the
    truncation tail at most _TAIL_BUDGET.  The bar is the sum of

    - the series tail sum_{n>n_max} w_n times sup|phi|;
    - the unrepresented arcs: their tail bound times the Poisson kernel mass
      they can carry on each K_n;
    - sum_n w_n (cell allowance + truncation tail + rounding), the rounding
      covering the series, the FFT and the closed-form points of refinement.

    From the first level needing more than _TERM_CAP series terms on, levels
    report the last computed level's sup (a lower bound, since K_n grows) and
    add w_n times the gap up to sup|f| to the bar.
    """
    f = phi.boundary
    moves = f.jumps() != 0.0  # a cut with no jump leaves the function as it is
    if f.breakpoints.size and not moves.all():
        f = BoundaryFunction._clean(f.breakpoints[moves], f.values[moves]) if moves.any() else (
            BoundaryFunction.constant(f.values[0]))
    w, radii = _levels(ex.n_max)
    sups = np.empty(ex.n_max)
    errs = np.zeros(ex.n_max)
    if f.breakpoints.size == 0:
        sups[:] = abs(complex(f.values[0]))
    else:
        jump_sum = float(np.sum(np.abs(f.jumps())))
        with np.errstate(divide="ignore", over="ignore"):  # weight 0: no limit
            tail_tols, sup_tols = _TAIL_BUDGET / w[1:], _SUP_BUDGET / w[1:]
        terms = _terms_needed(jump_sum, radii, tail_tols)
        capped = np.flatnonzero(terms > _TERM_CAP)
        done = 1 + (int(capped[0]) if capped.size else terms.size)
        pos, neg = _fourier_coefficients(f, int(terms[: done - 1].max(initial=0)))
        sups[0] = abs(pos[0])
        errs[0] = 1e-14 * (abs(pos[0]) + 1.0) + 1e-15 * float(np.sum(np.abs(f.values)))
        if done > 1:
            sups[1:done], errs[1:done] = _level_sups(
                f, pos, neg, radii[: done - 1], _grid_size(terms[: done - 1]),
                sup_tols[: done - 1], jump_sum,
            )
        sups[done:] = sups[done - 1]
        errs[done:] = max(f.sup_norm() - sups[done - 1], 0.0) + errs[done - 1]
    value = float(np.dot(w, sups))
    tail = ex.tail_coeff() * phi.sup_bound()
    unrep = 0.0
    l = phi.unrepresented_length()
    if l > 0.0 and phi.tail_bound > 0.0:
        kern = 2.0 * np.arange(1, ex.n_max + 1) - 1.0  # kernel sup on K_n
        unrep = phi.tail_bound * float(np.dot(w, np.minimum(1.0, kern * l / TWO_PI)))
        unrep += phi.tail_bound * ex.tail_coeff()  # same regions, truncated levels
    bar = tail + unrep + float(np.dot(w, errs))
    return value, float(bar)


def metric_distance(
    p1: HarmonicFunction, p2: HarmonicFunction, ex: CompactExhaustion
) -> tuple[float, float]:
    """Metric norm of the difference, bars combined conservatively."""
    diff = p1.boundary.minus(p2.boundary)
    unrep = tuple(p1.unrepresented) + tuple(p2.unrepresented)
    tail = (p1.sup_bound() + p2.sup_bound()) if unrep else 0.0
    return metric_norm(HarmonicFunction(diff, unrep, tail), ex)


# --- iterated-action diagnostics --------------------------------------------


def limit_diagnostic(translates) -> list[tuple[int, float, complex]]:
    """Oscillation of the n-th translate's extension on K_3, per n.

    `translates` yields the boundary data f o g^{-n} for n = 0, 1, ...
    (`chaos.translates`), g hyperbolic or parabolic.  Rows are (n,
    oscillation over |z| <= 2/3, value at 0).  For boundary data sampled from
    a continuous function the oscillation decays toward the sampling
    resolution; for genuinely discontinuous data it need not, and the table
    simply records that.
    """
    ang = np.arange(256) * (TWO_PI / 256)
    circle = (2.0 / 3.0) * np.exp(1j * ang)
    i, j = np.triu_indices(circle.size + 1, 1)  # each pair of points once
    rows = []
    for n, fn in enumerate(translates):
        vals = extend_many(fn, circle)
        center = extend(fn, 0.0)
        allv = np.append(vals, center)
        osc = float(np.max(np.abs(allv[i] - allv[j])))
        rows.append((n, osc, center))
    return rows

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
n_max, and is evaluated spectrally, a table of functions at a time
(`metric_norms`; `metric_norm` is its one-row table): with jumps J_j at s_j
the data have Fourier coefficients c_k = sum_j J_j e^{-iks_j} / (2pi ik),
computed once per row, and each circle |z| = r is one inverse FFT of
c_k r^|k|.  Grid maxima become true sups through a bound on |d^2u/dt^2| read
off the coefficients (at most J r / (pi (1-r)^2), J = sum |J_j|): each grid
cell over budget is quartered, its new points from the closed form (one
evaluator per row), in one refinement loop for all circles of the table.
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
_TABLE_ROWS = 32  # rows of a table that share one refinement loop (see metric_norms)


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
    both = np.empty((br.size, 2), dtype=complex)  # (J_j, conj(J_j)) per cut
    both[:, 0] = f.jumps()
    np.conjugate(both[:, 0], out=both[:, 1])
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


def _terms_needed(jump_sum, radii: np.ndarray, tol) -> np.ndarray:
    """Least k per radius whose truncation tail is at most tol (may be inf).

    jump_sum > 0, radii and tol broadcast together, so a column of jump sums
    against the radii of the levels gives a table's term counts in one call,
    each entry the one its own row's call gives.

    With y = k + 1, L = -log r and v = log(y L) the tail is at most tol iff
    e^v + v >= c = log(L J / (tol pi (1-r))).  Newton on the convex e^v + v = c
    from log c (c when c <= 1), above the root, falls to it monotonically; two
    exact `_truncation_tail` tests then settle the rounding.  k never exceeds
    the least k with r^{k+1} <= tol pi (1-r) / J, which suffices since
    1/(k+1) <= 1; in logs, so a huge or infinite tol gives k = 0.
    """
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
    fs: list[BoundaryFunction], pos: np.ndarray, neg: np.ndarray, radii: np.ndarray,
    sizes: np.ndarray, tols: np.ndarray, jump_sums: np.ndarray, coef_at: list[int],
    circle_at: list[int],
) -> tuple[np.ndarray, np.ndarray]:
    """(grid max, error) of sup |u| on each circle |z| = radii[i] of a table of rows.

    Row r is u, the extension of fs[r]: its Fourier coefficients are
    pos[coef_at[r]:coef_at[r+1]] (and neg), J = jump_sums[r] is the sum of
    its |J_j|, and its circles are circle_at[r]:circle_at[r+1] of the flat
    arrays radii, sizes and tols.  The true sup lies within error of the grid
    max.  |u| is subharmonic, so the circle carries the sup over the closed
    disc of that radius.  Circle i is sampled on sizes[i] points with the
    terms |j| <= k that fit.  With
    |d^2u/dt^2| <= C = sum_{|j|<=k} j^2 |c_j| r^|j| + (J/pi) sum_{j>k} j r^j
    (as |c_j| <= J/(2pi|j|); at most J r/(pi(1-r)^2)), a cell of width h has
    sup at most max(|u(a)|, |u(b)|) + h^2 C / 8.  Every grid cell's bound is
    formed on the sampled circles; those within tols[i] of their circle's best
    value are final, and the others are quartered, on all circles of all rows
    at once, in one refinement loop whose cells carry their circle.  A round's
    new points go to each row's own `_closed_form`, one call per row with
    points, in the order a one-row table would give them, so a row's values
    do not depend on the rest of its table.  A circle stops after _HALVINGS /
    2 rounds (cells of width h / 2^_HALVINGS), or when more than _CELL_CAP of
    its cells are over budget.  error = the largest cell excess left, plus the
    truncation tail J r^{k+1} / (pi (k+1)(1-r)) and the rounding of the
    series, the FFT and the closed form.  The caller sizes k and the grid to a
    weighted truncation budget per level, so the tail may be large where the
    weight is small; C covers the terms past k either way.
    """
    circles = radii.size
    curv = np.empty(circles)
    best = np.empty(circles)
    top = np.empty(circles)  # largest final cell bound per circle
    tail = np.empty(circles)
    rounding = np.empty(circles)
    pool = []  # per chunk, the grid cells over budget
    for r, f in enumerate(fs):
        lo, hi = circle_at[r], circle_at[r + 1]
        pos_r, neg_r = pos[coef_at[r] : coef_at[r + 1]], neg[coef_at[r] : coef_at[r + 1]]
        radii_r, sizes_r, jump_sum = radii[lo:hi], sizes[lo:hi], float(jump_sums[r])
        k = np.minimum(pos_r.size - 1, sizes_r // 2 - 1)
        # C / 8 per circle: first the terms past k, plus 1e-9 of the crude bound
        # J r/(pi(1-r)^2) for the rounding of the computed coefficients
        curv[lo:hi] = jump_sum / math.pi * (
            radii_r ** (k + 1.0) * ((k + 1.0) - k * radii_r) + 1e-9 * radii_r
        ) / (1.0 - radii_r) ** 2
        for m in sorted(set(sizes_r.tolist())):
            mine = lo + np.flatnonzero(sizes_r == m)
            step = max(1, _CHUNK_PAIRS // m)
            for i in range(0, mine.size, step):
                chunk = mine[i : i + step]
                u, d2 = _circle_values(pos_r, neg_r, radii[chunk], m)
                left = np.abs(u)
                # cell j runs from point j to point j + 1 (np.roll(left, -1, axis=1))
                right = np.concatenate((left[:, 1:], left[:, :1]), axis=1)
                curv[chunk] = (curv[chunk] + d2) / 8.0
                best[chunk] = left.max(axis=1)
                allow = (TWO_PI / m) ** 2 * curv[chunk]
                # a cell's bound is its larger end + allow; over budget past best + tols
                ends = np.maximum(left, right)
                over = np.flatnonzero(ends > (best[chunk] + tols[chunk] - allow)[:, None])
                cell, col = np.divmod(over, m)
                pool.append((chunk[cell], col * (TWO_PI / m), left.ravel()[over],
                             right.ravel()[over]))
                ends.ravel()[over] = -math.inf
                top[chunk] = ends.max(axis=1) + allow
        tail[lo:hi] = _truncation_tail(jump_sum, radii_r, k)
        rounding[lo:hi] = 1e-14 * np.log2(sizes_r) * (
            abs(pos_r[0]) + jump_sum / math.pi * np.log(1.0 / (1.0 - radii_r)) + 1.0
        ) + _closed_form_rounding(f, 1.0 / (1.0 - radii_r), jump_sum)
    lev, start, left, right = (np.concatenate(part) for part in zip(*pool))
    evaluators = [None] * len(fs)

    def evaluate(r, zs):
        if evaluators[r] is None:
            evaluators[r] = _closed_form(fs[r])
        return evaluators[r](zs)

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
            over &= (np.bincount(lev[over], minlength=circles) <= _CELL_CAP)[lev]
        final.append((lev[~over], bound[~over]))
        if not over.any():
            break
        lev, start, left, right = lev[over], start[over], left[over], right[over]
        width *= 0.25
        allow *= 0.0625
        starts = start + width[lev] * quarters  # quarter q starts at starts[q]
        zs = (radii[lev] * np.exp(1j * starts[1:])).ravel()
        if len(fs) == 1:
            u = evaluate(0, zs)
        else:  # each row's points, in their order, to its own evaluator
            owner = np.tile(np.searchsorted(circle_at, lev, side="right") - 1, 3)
            order = np.argsort(owner, kind="stable")
            parts = np.split(zs[order], np.cumsum(np.bincount(owner, minlength=len(fs)))[:-1])
            u = np.empty_like(zs)
            u[order] = np.concatenate([evaluate(r, p) for r, p in enumerate(parts) if p.size])
        mid = np.abs(u).reshape(3, -1)
        np.maximum.at(best, lev, mid.max(axis=0))
        # quarter q runs from point q to q + 1 of (left, mid[0], mid[1], mid[2], right)
        ends = np.concatenate((left[None], mid, right[None]))
        lev = np.concatenate((lev,) * 4)
        start, left, right = starts.ravel(), ends[:4].ravel(), ends[1:].ravel()
    np.maximum.at(top, *(np.concatenate(part) for part in zip(*final)))
    return best, (top - best) + tail + rounding


@functools.lru_cache(maxsize=16)
def _levels(n_max: int, tail_budget: float, sup_budget: float) -> tuple[np.ndarray, ...]:
    """(weights w_n, radii of K_2..K_n_max, and the truncation and sup
    tolerances tail_budget / w_n and sup_budget / w_n of those levels) of
    `CompactExhaustion(n_max)`, read-only."""
    ex = CompactExhaustion(n_max)
    w, radii = ex.weights(), ex.radius(np.arange(2, n_max + 1))
    with np.errstate(divide="ignore", over="ignore"):  # weight 0: no limit
        out = w, radii, tail_budget / w[1:], sup_budget / w[1:]
    for a in out:
        a.flags.writeable = False
    return out


def _moving_cuts(f: BoundaryFunction) -> tuple[BoundaryFunction, np.ndarray]:
    """f without its cuts that have no jump, which leave the function as it
    is, and the jumps of what is left."""
    jumps = f.jumps()
    moves = jumps != 0.0
    if moves.all():
        return f, jumps
    if moves.any():
        return BoundaryFunction._clean(f.breakpoints[moves], f.values[moves]), jumps[moves]
    return BoundaryFunction.constant(f.values[0]), jumps[moves]


def metric_norms(phis, ex: CompactExhaustion) -> list[tuple[float, float]]:
    """`metric_norm` of every row of a table, in one pass.

    Each non-constant row has its own Fourier coefficients and its own closed
    form; its term counts come from one `_terms_needed` over the table, and
    the circles of all rows share one refinement loop (`_level_sups`).  Every
    (value, bar) is the one a table of that row alone gives, bit for bit.
    The rows are read from the iterable phis in blocks of _TABLE_ROWS, so
    memory stays that of so many one-row tables however long the table.
    """
    out, block = [], []
    for phi in phis:
        block.append(phi)
        if len(block) == _TABLE_ROWS:
            out += _block_norms(block, ex)
            block = []
    return out + _block_norms(block, ex)


def _block_norms(phis: list, ex: CompactExhaustion) -> list[tuple[float, float]]:
    """`metric_norms` of at most _TABLE_ROWS rows."""
    w, radii, tail_tols, sup_tols = _levels(ex.n_max, _TAIL_BUDGET, _SUP_BUDGET)
    sups = [np.empty(ex.n_max) for _ in phis]
    errs = [np.zeros(ex.n_max) for _ in phis]
    rows, fs, jump_sums = [], [], []  # of the rows that are not constant
    for r, phi in enumerate(phis):
        f, jumps = _moving_cuts(phi.boundary)
        if f.breakpoints.size == 0:
            sups[r][:] = abs(complex(f.values[0]))
        else:
            rows.append(r)
            fs.append(f)
            jump_sums.append(float(np.sum(np.abs(jumps))))
    if rows:
        jump_sums = np.array(jump_sums)
        terms = _terms_needed(jump_sums[:, None], radii, tail_tols)  # (row, level)
        computed, pos, neg = [], [], []  # circles (levels 2, 3, ...) computed per row
        coef_at, circle_at = [0], [0]  # row i's coefficients and circles start at entry i
        for t, f in zip(terms, fs):
            # levels from the first one needing more than _TERM_CAP terms on are not computed
            capped = np.flatnonzero(t > _TERM_CAP)
            computed.append(int(capped[0]) if capped.size else t.size)
            p, q = _fourier_coefficients(f, int(t[: computed[-1]].max(initial=0)))
            pos.append(p)
            neg.append(q)
            coef_at.append(coef_at[-1] + p.size)
            circle_at.append(circle_at[-1] + computed[-1])
        best = err = np.empty(0)
        if circle_at[-1]:
            best, err = _level_sups(
                fs, np.concatenate(pos), np.concatenate(neg),
                np.concatenate([radii[:c] for c in computed]),
                _grid_size(np.concatenate([t[:c] for t, c in zip(terms, computed)])),
                np.concatenate([sup_tols[:c] for c in computed]), jump_sums, coef_at, circle_at,
            )
        for i, (r, f) in enumerate(zip(rows, fs)):
            s, e, d = sups[r], errs[r], 1 + computed[i]
            s[0] = abs(pos[i][0])
            e[0] = 1e-14 * (abs(pos[i][0]) + 1.0) + 1e-15 * float(np.sum(np.abs(f.values)))
            s[1:d] = best[circle_at[i] : circle_at[i + 1]]
            e[1:d] = err[circle_at[i] : circle_at[i + 1]]
            s[d:] = s[d - 1]
            e[d:] = max(f.sup_norm() - s[d - 1], 0.0) + e[d - 1]
    out = []
    for phi, s, e in zip(phis, sups, errs):
        value = float(np.dot(w, s))
        tail = ex.tail_coeff() * phi.sup_bound()
        unrep = 0.0
        l = phi.unrepresented_length()
        if l > 0.0 and phi.tail_bound > 0.0:
            kern = 2.0 * np.arange(1, ex.n_max + 1) - 1.0  # kernel sup on K_n
            unrep = phi.tail_bound * float(np.dot(w, np.minimum(1.0, kern * l / TWO_PI)))
            unrep += phi.tail_bound * ex.tail_coeff()  # same regions, truncated levels
        bar = tail + unrep + float(np.dot(w, e))
        out.append((value, float(bar)))
    return out


def metric_norm(phi: HarmonicFunction, ex: CompactExhaustion) -> tuple[float, float]:
    """Truncated metric norm with a certified error bar: `metric_norms` of
    the one-row table (phi,).

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
    return metric_norms([phi], ex)[0]


def _difference(p1: HarmonicFunction, p2: HarmonicFunction) -> HarmonicFunction:
    """p1 - p2, its unrepresented arcs both sides' and its tail bound their sum."""
    unrep = tuple(p1.unrepresented) + tuple(p2.unrepresented)
    tail = (p1.sup_bound() + p2.sup_bound()) if unrep else 0.0
    return HarmonicFunction(p1.boundary.minus(p2.boundary), unrep, tail)


def metric_distances(pairs, ex: CompactExhaustion) -> list[tuple[float, float]]:
    """`metric_distance` of every pair (p1, p2) of a table, as one `metric_norms`."""
    return metric_norms((_difference(p1, p2) for p1, p2 in pairs), ex)


def metric_distance(
    p1: HarmonicFunction, p2: HarmonicFunction, ex: CompactExhaustion
) -> tuple[float, float]:
    """Metric norm of the difference, bars combined conservatively."""
    return metric_norm(_difference(p1, p2), ex)


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

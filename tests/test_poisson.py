import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.special import spence

from discdyn import (
    NORM_OF_ONE,
    Arc,
    BoundaryFunction,
    CompactExhaustion,
    HarmonicFunction,
    NearBoundaryError,
    NonDivergentError,
    extend,
    extend_many,
    hyperbolic_multiplier,
    indicator,
    l1_distance,
    limit_diagnostic,
    metric_distance,
    metric_norm,
    rotation,
    translate_boundary,
)
from discdyn import poisson

from conftest import poisson_quad, random_boundary, random_element

TWO_PI = 2.0 * math.pi


class TestExtend:
    def test_value_at_origin_is_mean(self, rng):
        for _ in range(10):
            f = random_boundary(rng)
            assert abs(extend(f, 0.0) - f.mean()) < 1e-14

    def test_constant_extends_to_constant(self, rng):
        f = BoundaryFunction.constant(0.2 - 0.6j)
        for z in (0.0, 0.5, -0.3 + 0.4j, 0.89j):
            assert abs(extend(f, z) - (0.2 - 0.6j)) < 1e-12

    def test_half_circle_indicator_on_real_axis(self):
        # the half circle above the real axis has harmonic measure 1/2 there
        f = indicator(Arc(1.0 + 0.0j, math.pi))
        for x in (-0.7, -0.2, 0.0, 0.4, 0.8):
            assert abs(extend(f, x) - 0.5) < 1e-13

    def test_matches_quadrature(self, rng):
        for _ in range(5):
            f = random_boundary(rng)
            z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
            assert abs(extend(f, z) - poisson_quad(f, z)) < 1e-10

    def test_kernel_normalization(self):
        z = 0.3 + 0.5j
        val, _ = quad(
            lambda s: (1 - abs(z) ** 2) / abs(np.exp(1j * s) - z) ** 2, 0, TWO_PI
        )
        assert abs(val / TWO_PI - 1.0) < 1e-10

    def test_extend_many_matches_scalar(self, rng):
        f = random_boundary(rng)
        zs = 0.7 * (rng.uniform(-1, 1, 20) + 1j * rng.uniform(-1, 1, 20))
        out = extend_many(f, zs)
        assert max(abs(out[i] - extend(f, complex(zs[i]))) for i in range(20)) < 1e-14

    def test_near_boundary_rejected(self, rng):
        f = random_boundary(rng)
        with pytest.raises(NearBoundaryError):
            extend(f, 1.0 - 1e-12)

    def test_range_in_unit_ball(self, rng):
        # values of the extension stay in the closed unit disc
        for _ in range(5):
            f = random_boundary(rng)
            zs = 0.95 * np.exp(1j * rng.uniform(0, TWO_PI, 50)) * rng.uniform(0, 1, 50)
            assert np.max(np.abs(extend_many(f, zs))) <= 1.0 + 1e-12

    def test_maximum_principle_for_indicator(self, rng):
        f = indicator(Arc(np.exp(1j * 1.3), 2.1))
        zs = 0.9 * np.exp(1j * rng.uniform(0, TWO_PI, 100)) * rng.uniform(0, 1, 100)
        vals = extend_many(f, zs).real
        assert np.all(vals > 0.0) and np.all(vals < 1.0)


class TestMetric:
    def test_norm_of_one_matches_dilogarithm(self):
        # sum of the compact weights is Li_2(1/2); spence is the scipy route
        val, bar = metric_norm(HarmonicFunction(BoundaryFunction.constant(1.0)), CompactExhaustion())
        assert abs(val - float(spence(0.5))) < 1e-6

    def test_norm_bound_by_l1(self, rng):
        ex = CompactExhaustion()
        for _ in range(20):
            f = random_boundary(rng)
            val, bar = metric_norm(HarmonicFunction(f), ex)
            from discdyn import l1_norm

            assert val <= l1_norm(f) / TWO_PI + bar

    def test_distance_bound_by_l1(self, rng):
        ex = CompactExhaustion()
        for _ in range(10):
            f, g = random_boundary(rng), random_boundary(rng)
            d, bar = metric_distance(HarmonicFunction(f), HarmonicFunction(g), ex)
            assert d <= l1_distance(f, g) / TWO_PI + bar

    def test_metric_axioms(self, rng):
        ex = CompactExhaustion(n_max=12)
        f, g, h = (HarmonicFunction(random_boundary(rng)) for _ in range(3))
        dfg, b1 = metric_distance(f, g, ex)
        dgf, _ = metric_distance(g, f, ex)
        assert abs(dfg - dgf) < 1e-12
        dff, _ = metric_distance(f, f, ex)
        assert dff < 1e-12
        dfh, b2 = metric_distance(f, h, ex)
        dgh, b3 = metric_distance(g, h, ex)
        assert dfh <= dfg + dgh + b1 + b2 + b3 + 1e-12

    def test_metric_bounded_by_weight_sum(self, rng):
        # every distance is at most the full weight series
        ex = CompactExhaustion()
        f, g = random_boundary(rng), random_boundary(rng)
        d, _ = metric_distance(HarmonicFunction(f), HarmonicFunction(g), ex)
        assert d <= float(spence(0.5)) + 1e-12

    def test_exhaustion_tail_is_certified_bound(self):
        ex = CompactExhaustion(n_max=40)
        assert ex.tail_coeff() <= 2.0 ** -40
        remainder = float(spence(0.5)) - ex.weights().sum()
        assert -1e-15 <= remainder <= ex.tail_coeff()
        assert ex.radius(3) == pytest.approx(2.0 / 3.0)

    def test_unrepresented_region_inflates_bar(self, rng):
        f = random_boundary(rng)
        bare = HarmonicFunction(f)
        arcs = (Arc(1.0 + 0j, 0.02),)
        fuzzed = HarmonicFunction(f, unrepresented=arcs, tail_bound=1.0)
        ex = CompactExhaustion(n_max=12)
        _, bar0 = metric_norm(bare, ex)
        _, bar1 = metric_norm(fuzzed, ex)
        assert bar1 > bar0
        assert fuzzed.unrepresented_length() == pytest.approx(0.02)


    def test_cuts_without_a_jump_change_nothing(self, rng):
        # splitting pieces in two, both halves keeping the value, is the same
        # function: the same value, and no larger a bar
        ex = CompactExhaustion()
        for pieces in (1, 2, 7, 40):
            f = random_boundary(rng, pieces) if pieces > 1 else BoundaryFunction.constant(0.3j)
            extra = rng.uniform(0.0, TWO_PI, 3 * pieces)
            split = BoundaryFunction(np.append(f.breakpoints, extra),
                                     np.append(f.values[: f.breakpoints.size], f.evaluate(extra)))
            assert split.breakpoints.size > f.breakpoints.size
            assert metric_norm(HarmonicFunction(split), ex) == metric_norm(HarmonicFunction(f), ex)


def _bisected_terms(jump_sum, radii, tol):
    """Least k with _truncation_tail <= tol, by bisection below the log bound."""
    log_arg = np.log(tol) + np.log(math.pi * (1.0 - radii) / jump_sum)
    hi = np.maximum(0.0, np.ceil(log_arg / np.log(radii)) - 1.0)
    lo = np.zeros_like(hi)
    while np.any(lo < hi):
        mid = np.floor(0.5 * (lo + hi))
        ok = poisson._truncation_tail(jump_sum, radii, mid) <= tol
        hi, lo = np.where(ok, mid, hi), np.where(ok, lo, mid + 1.0)
    return hi.astype(int)


def test_terms_needed_matches_bisection():
    # 500k (J, r, tol) draws: radii of the exhaustion, radii near 1 and
    # anywhere in (0, 1), tolerances from 1e-300 to 1e300 and infinite
    rng = np.random.default_rng(0x7E57)
    mismatches = cases = 0
    for trial in range(100):
        n = 5000
        radii = (1.0 - 1.0 / rng.integers(2, 100_000, n), 1.0 - 10.0 ** rng.uniform(-7, -1e-3, n),
                 rng.uniform(1e-3, 1.0, n))[trial % 3]
        tol = 10.0 ** rng.uniform(-300, 300, n)
        tol[rng.uniform(size=n) < 0.02] = np.inf
        jump_sum = 10.0 ** rng.uniform(-3, 4)
        with np.errstate(divide="ignore"):
            expect = _bisected_terms(jump_sum, radii, tol)
        mismatches += np.count_nonzero(poisson._terms_needed(jump_sum, radii, tol) != expect)
        cases += n
    assert cases >= 500_000 and mismatches == 0


def _by_antiderivative(f, zs):
    """u(z) = sum_j v_j (V(s_{j+1}) - V(s_j)) / 2pi: shares no kernel with extend_many."""
    v = poisson.angle_antiderivative(np.asarray(zs, dtype=complex)[..., None], f.breakpoints)
    return np.diff(v, append=v[..., :1] + TWO_PI, axis=-1) @ f.values / TWO_PI


def _oracle_lower(f, levels=12, grid=1024):
    """Weighted lower bound on the 40-level norm from the antiderivative alone.

    Levels 2..levels: max |extension| on a uniform grid of the circle, polished
    by a bounded scalar search around the top 4 grid cells.  Every value is |u|
    at a point of the disc, so no level is over-counted.  Deeper levels take
    the last level's value, since the discs K_n grow with n.
    """
    w = CompactExhaustion().weights()
    sups = np.empty(w.size)
    sups[0] = abs(_by_antiderivative(f, 0.0))
    ang = np.arange(grid) * (TWO_PI / grid)
    for n in range(2, levels + 1):
        r = 1.0 - 1.0 / n
        vals = np.abs(_by_antiderivative(f, r * np.exp(1j * ang)))
        best = float(vals.max())
        for i in np.argsort(vals)[-4:]:
            res = minimize_scalar(
                lambda t: -abs(_by_antiderivative(f, r * np.exp(1j * t))),
                bounds=(ang[i] - TWO_PI / grid, ang[i] + TWO_PI / grid),
                method="bounded", options={"xatol": 1e-10},
            )
            best = max(best, -float(res.fun))
        sups[n - 1] = best
    sups[levels:] = sups[levels - 1]
    return float(np.dot(w, sups))


def _spy_closed_form(monkeypatch) -> list:
    """The point arrays of every call of a `poisson._closed_form` evaluator,
    which in `metric_norm` are its refinement rounds."""
    seen = []
    closed_form = poisson._closed_form

    def spy(f):
        evaluate = closed_form(f)
        return lambda zs: seen.append(zs) or evaluate(zs)

    monkeypatch.setattr(poisson, "_closed_form", spy)
    return seen


class TestSpectralSups:
    def test_bar_covers_independent_oracle(self):
        # the oracle shares no code with the spectral path; a grid estimate
        # with a flat tolerance in place of a sup bound falls short of it
        rng = np.random.default_rng(0x5B0)
        ex = CompactExhaustion()
        deep = 2.0 * float(np.sum(ex.weights()[12:]))
        for pieces in np.geomspace(4, 720, 20).astype(int):
            f = random_boundary(rng, int(pieces))
            value, bar = metric_norm(HarmonicFunction(f), ex)
            lower = _oracle_lower(f)
            assert lower <= value + bar, (pieces, lower - value, bar)
            assert value <= lower + deep * f.sup_norm()

    def test_flat_modulus_is_bounded_in_time_and_memory(self):
        # |u| of sampled e^{is} is nearly constant on every circle, so every
        # cell stays a candidate; past the cell cap the excess goes into the bar
        br = np.arange(360) * (TWO_PI / 360)
        f = BoundaryFunction(br, 0.9 * np.exp(1j * (br + TWO_PI / 720)))
        tracemalloc.start()
        try:
            value, bar = metric_norm(HarmonicFunction(f), CompactExhaustion())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000 * 8
        assert 0.0 <= bar <= 1e-6
        assert _oracle_lower(f) <= value + bar

    @pytest.mark.parametrize("pieces", [4, 128, 720])
    def test_series_matches_closed_form(self, pieces):
        rng = np.random.default_rng(pieces)
        f = random_boundary(rng, pieces)
        jump_sum = float(np.sum(np.abs(f.values - np.roll(f.values, 1))))
        radii = 1.0 - 1.0 / np.array([2.0, 12.0, 40.0])
        terms = poisson._terms_needed(jump_sum, radii, 1e-15)
        pos, neg = poisson._fourier_coefficients(f, int(terms[-1]))
        for r, k in zip(radii, terms):
            m = poisson._grid_size(int(k))
            series, _ = poisson._circle_values(pos, neg, [r], m)
            closed = extend_many(f, r * np.exp(1j * np.arange(m) * (TWO_PI / m)))
            assert np.max(np.abs(series[0] - closed)) <= 1e-13

    def test_constants_are_exact(self):
        ex = CompactExhaustion()
        one, bar1 = metric_norm(HarmonicFunction(BoundaryFunction.constant(1.0)), ex)
        zero, bar0 = metric_norm(HarmonicFunction(BoundaryFunction.constant(0.0)), ex)
        assert abs(one - NORM_OF_ONE) <= 1e-15
        assert zero == 0.0
        assert 0.0 <= bar1 <= 1e-12 and 0.0 <= bar0 <= 1e-12

    @pytest.mark.parametrize("pieces", [64, 720])
    def test_deep_exhaustion_is_consistent_and_bounded(self, pieces):
        # 4M float pairs is the chunk of extend_many; the spectral path stays under it
        f = HarmonicFunction(random_boundary(np.random.default_rng(pieces), pieces))
        v40, b40 = metric_norm(f, CompactExhaustion(n_max=40))
        tracemalloc.start()
        try:
            v200, b200 = metric_norm(f, CompactExhaustion(n_max=200))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000 * 8
        assert v200 + b200 >= v40
        assert v200 <= v40 + b40

    def test_levels_past_the_term_cap_are_bounded_not_dropped(self, monkeypatch):
        # levels past the cap repeat the last computed sup (a lower bound) and
        # carry the gap up to sup|f| in the bar
        f = HarmonicFunction(random_boundary(np.random.default_rng(11), 16))
        ex = CompactExhaustion()
        full, full_bar = metric_norm(f, ex)
        deep, deep_bar = metric_norm(f, CompactExhaustion(n_max=1000))
        assert deep + deep_bar >= full and deep <= full + full_bar
        jump_sum = float(np.sum(np.abs(f.boundary.values - np.roll(f.boundary.values, 1))))
        radii = ex.radius(np.arange(2, 41))
        terms = poisson._terms_needed(jump_sum, radii, poisson._TAIL_BUDGET / ex.weights()[1:])
        # levels n = 8..28 need more than 150 terms, the last ones fewer
        over = np.flatnonzero(terms > 150) + 2
        assert over[0] == 8 and terms[-1] <= 150
        computed = []
        level_sups = poisson._level_sups
        monkeypatch.setattr(poisson, "_level_sups",
                            lambda f, pos, neg, radii, *a: computed.append(radii.size)
                            or level_sups(f, pos, neg, radii, *a))
        monkeypatch.setattr(poisson, "_TERM_CAP", 150)
        capped, capped_bar = metric_norm(f, ex)
        assert computed == [over[0] - 2]  # n = 2..7: a prefix, not every level under the cap
        assert capped < full <= capped + capped_bar
        assert capped_bar > 1e3 * full_bar

    @pytest.mark.parametrize("n_max", [40, 200, 1000])
    @pytest.mark.parametrize("pieces", [4, 128, 720])
    def test_truncation_tail_is_within_weighted_budget(self, monkeypatch, pieces, n_max):
        spy = []
        level_sups = poisson._level_sups
        monkeypatch.setattr(poisson, "_level_sups",
                            lambda f, pos, neg, radii, sizes, *a: spy.append((pos.size, radii, sizes))
                            or level_sups(f, pos, neg, radii, sizes, *a))
        ex = CompactExhaustion(n_max)
        f = random_boundary(np.random.default_rng(pieces), pieces)
        jump_sum = float(np.sum(np.abs(f.values - np.roll(f.values, 1))))
        for scale in (1.0, 1e6 / jump_sum):
            spy.clear()
            metric_norm(HarmonicFunction(f.scaled(scale)), ex)
            (size, radii, sizes), = spy
            assert radii.size == n_max - 1  # no level reaches the term cap
            assert size - 1 <= 500
            k = np.minimum(size - 1, sizes // 2 - 1)
            tail = poisson._truncation_tail(scale * jump_sum, radii, k)
            assert np.all(ex.weights()[1:] * tail <= poisson._TAIL_BUDGET)

    @pytest.mark.parametrize("budget", [1e-4, 1e-2])
    @pytest.mark.parametrize("pieces", [4, 128])
    def test_coarse_tail_budget_moves_value_within_bar(self, monkeypatch, pieces, budget):
        # a coarse truncation moves the value far past the cell allowances;
        # only the truncation tail in the bar can cover the move
        f = HarmonicFunction(random_boundary(np.random.default_rng(pieces), pieces))
        ex = CompactExhaustion()
        fine, fine_bar = metric_norm(f, ex)
        monkeypatch.setattr(poisson, "_TAIL_BUDGET", budget)
        coarse, coarse_bar = metric_norm(f, ex)
        assert abs(coarse - fine) > 1e3 * fine_bar
        assert abs(coarse - fine) <= coarse_bar + fine_bar

    def test_weights_underflow_to_zero_without_warnings(self, monkeypatch):
        # w_n = 1/(n^2 2^n) is 0 in double precision from n = 1055 on: such a
        # level needs no terms and no refinement, and nothing overflows
        f = HarmonicFunction(random_boundary(np.random.default_rng(5), 16))
        ex = CompactExhaustion(1100)
        w = ex.weights()
        zero = ex.radius(np.flatnonzero(w == 0.0)[0] + 1.0)
        assert np.all(np.isfinite(w)) and w[-1] == 0.0
        rounds = _spy_closed_form(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(poisson._terms_needed(10.0, np.array([0.5, 0.999]), np.inf) == 0)
            deep, deep_bar = metric_norm(f, ex)
        assert rounds and max(np.max(np.abs(zs)) for zs in rounds) < zero
        v40, b40 = metric_norm(f, CompactExhaustion())
        assert v40 <= deep + deep_bar and deep <= v40 + b40

    def test_work_per_call_is_bounded(self, monkeypatch):
        # counters, not timers: coefficient terms, FFT points, closed-form calls
        # and midpoints per metric call on 16-piece translate differences
        terms, points = [], []
        coefficients, circle_values = poisson._fourier_coefficients, poisson._circle_values
        rounds = _spy_closed_form(monkeypatch)
        monkeypatch.setattr(poisson, "_fourier_coefficients",
                            lambda f, k: terms.append(k) or coefficients(f, k))
        monkeypatch.setattr(poisson, "_circle_values",
                            lambda pos, neg, radii, m: points.append(len(radii) * m)
                            or circle_values(pos, neg, radii, m))
        rng = np.random.default_rng(0x16)
        ex = CompactExhaustion()
        seen = 0
        for _ in range(24):
            f = HarmonicFunction(random_boundary(rng, 8))
            g = random_element(rng)
            calls = len(terms)
            points.clear()
            rounds.clear()
            metric_distance(f, translate_boundary(f, g), ex)
            assert len(terms) == calls + 1
            assert terms[-1] <= 300 and sum(points) <= 20_000
            # refinement rounds and the points they add (at most 5 and 1992 here)
            assert len(rounds) <= 7 and sum(zs.size for zs in rounds) <= 2_500
            seen += len(rounds)
        assert seen > 0  # the spy sees the rounds, so the bounds above bind

    def test_closed_form_rounding_is_bounded(self):
        # 40-digit harmonic measures of the arcs at points 1e-2 and 1e-4 from
        # each breakpoint, where |1 - z e^{-is}| is about 1/n on K_n
        def exact(f, z):
            z = mpmath.mpc(complex(z))
            br = [mpmath.mpf(float(s)) for s in f.breakpoints]
            br.append(br[0] + 2 * mpmath.pi)
            out = mpmath.mpc(0)
            for a, b, v in zip(br, br[1:], f.values):
                seen = mpmath.arg((mpmath.expj(b) - z) / (mpmath.expj(a) - z)) % (2 * mpmath.pi)
                out += (seen / mpmath.pi - (b - a) / (2 * mpmath.pi)) * mpmath.mpc(complex(v))
            return complex(out)

        for seed, pieces in [(21, 4), (22, 4), (23, 4), (24, 4), (25, 16)]:
            f = random_boundary(np.random.default_rng(seed), pieces)
            for n in (2, 12, 40):
                offsets = np.array([1e-2, -1e-2, 1e-4, -1e-4])[:, None]
                zs = ((1.0 - 1.0 / n) * np.exp(1j * (f.breakpoints + offsets))).ravel()
                with mpmath.workdps(40):
                    exact_u = np.array([exact(f, z) for z in zs])
                err = np.abs(extend_many(f, zs) - exact_u)
                jump_sum = float(np.sum(np.abs(f.jumps())))
                assert np.max(err) <= poisson._closed_form_rounding(f, n, jump_sum), (seed, n)

    def test_each_cell_is_closed_by_its_own_right_end(self, monkeypatch):
        # a 1e-3-wide arc of value 1 peaks sharply at its middle direction, where
        # the harmonic measure is largest on every circle; a cell bounded with
        # another cell's end, on the grid or after quartering, loses the peak
        found = []
        level_sups = poisson._level_sups
        monkeypatch.setattr(poisson, "_level_sups",
                            lambda *a: found.append(level_sups(*a)) or found[-1])
        width = 1e-3
        r = CompactExhaustion().radius(np.arange(2, 41))
        for start in np.linspace(0.1, 6.0, 30):
            f = BoundaryFunction([start, start + width], [1.0, 0.0])
            metric_norm(HarmonicFunction(f), CompactExhaustion())
            best, err = found.pop()
            z = r * np.exp(1j * (start + width / 2))
            seen = np.angle((np.exp(1j * (start + width)) - z) / (np.exp(1j * start) - z))
            sup = (seen % TWO_PI - width / 2) / math.pi
            assert np.all(best <= sup + 1e-12), start
            assert np.all(sup <= best + err), (start, np.flatnonzero(sup > best + err) + 2)

    def test_level_sups_match_the_round_by_round_loop(self, monkeypatch):
        # the flat loop (one evaluator, widths quartered in place, final cells
        # folded once) gives the grid maxima and errors of the loop it replaced,
        # bit for bit, on translate differences, a narrow arc and data whose
        # near-constant |u| drives circles past _CELL_CAP
        calls = []
        level_sups = poisson._level_sups
        monkeypatch.setattr(poisson, "_level_sups",
                            lambda *a: calls.append((a, level_sups(*a))) or calls[-1][1])
        rng = np.random.default_rng(0x1E)
        ex = CompactExhaustion()
        for pieces in (4, 8, 8, 16, 64):
            f = HarmonicFunction(random_boundary(rng, pieces))
            metric_distance(f, translate_boundary(f, random_element(rng)), ex)
        metric_norm(HarmonicFunction(BoundaryFunction([1.0, 1.001], [1.0, 0.0])), ex)
        s = np.arange(90) * (TWO_PI / 90)
        metric_norm(HarmonicFunction(BoundaryFunction(s, 0.9 * np.exp(1j * s))), ex)
        capped = 0
        for args, (best, err) in calls:
            want_best, want_err, cells = _round_by_round_level_sups(*args)
            assert np.array_equal(best, want_best) and np.array_equal(err, want_err)
            capped += cells > poisson._CELL_CAP
        assert capped  # the cap path ran


def _round_by_round_level_sups(f, pos, neg, radii, sizes, tols, jump_sum):
    """`poisson._level_sups` as it was before the flat loop: each round forms
    its widths from scratch, evaluates through `extend_many` and folds its
    final cells into `top` at once.  Also returns the most cells over budget
    in one round."""
    levels = radii.size
    k = np.minimum(pos.size - 1, sizes // 2 - 1)
    rest_d2 = jump_sum / math.pi * (
        radii ** (k + 1.0) * ((k + 1.0) - k * radii) + 1e-9 * radii
    ) / (1.0 - radii) ** 2
    curv, best, top = np.empty(levels), np.empty(levels), np.empty(levels)
    pool = []
    for m in np.unique(sizes):
        rows = np.flatnonzero(sizes == m)
        step = max(1, poisson._CHUNK_PAIRS // m)
        for i in range(0, rows.size, step):
            chunk = rows[i : i + step]
            u, d2 = poisson._circle_values(pos, neg, radii[chunk], m)
            left = np.abs(u)
            right = np.roll(left, -1, axis=1)
            curv[chunk] = (rest_d2[chunk] + d2) / 8.0
            best[chunk] = left.max(axis=1)
            allow = (TWO_PI / m) ** 2 * curv[chunk]
            ends = np.maximum(left, right)
            over = ends > (best[chunk] + tols[chunk] - allow)[:, None]
            row, col = np.divmod(np.flatnonzero(over), m)
            pool.append((chunk[row], col * (TWO_PI / m), left[row, col], right[row, col]))
            ends[over] = -math.inf
            top[chunk] = ends.max(axis=1) + allow
    lev, start, left, right = (np.concatenate(part) for part in zip(*pool))
    quarters = np.arange(4.0)[:, None]
    rounds = poisson._HALVINGS // 2
    most = 0
    for rnd in range(rounds + 1):
        h = TWO_PI / sizes * 0.25**rnd
        bound = np.maximum(left, right) + (h * h * curv)[lev]
        over = bound > (best + tols)[lev]
        if rnd == rounds:
            over[:] = False
        most = max(most, int(np.bincount(lev[over], minlength=levels).max()))
        over &= (np.bincount(lev[over], minlength=levels) <= poisson._CELL_CAP)[lev]
        np.maximum.at(top, lev[~over], bound[~over])
        if not over.any():
            break
        lev, start, left, right = lev[over], start[over], left[over], right[over]
        step = 0.25 * h[lev]
        mid = np.abs(extend_many(f, radii[lev] * np.exp(1j * (start + step * quarters[1:]))))
        np.maximum.at(best, lev, mid.max(axis=0))
        start = (start + step * quarters).ravel()
        lev = np.concatenate((lev,) * 4)
        left, right = np.concatenate((left, mid.ravel())), np.concatenate((mid.ravel(), right))
    tail = poisson._truncation_tail(jump_sum, radii, k)
    rounding = 1e-14 * np.log2(sizes) * (
        abs(pos[0]) + jump_sum / math.pi * np.log(1.0 / (1.0 - radii)) + 1.0
    ) + poisson._closed_form_rounding(f, 1.0 / (1.0 - radii), jump_sum)
    return best, (top - best) + tail + rounding, most


class TestLimitDiagnostic:
    def test_oscillation_decays_for_smooth_data(self):
        br = np.arange(360) * (TWO_PI / 360)
        vals = 0.5 * np.cos(br + TWO_PI / 720)
        f = BoundaryFunction(br, vals.astype(complex))
        rows = limit_diagnostic(f, hyperbolic_multiplier(2.0), 30)
        osc = [o for (_, o, _) in rows]
        assert osc[-1] < 1e-2 < osc[0]

    def test_rows_shape_and_center_tracking(self, rng):
        f = random_boundary(rng)
        rows = limit_diagnostic(f, hyperbolic_multiplier(3.0), 5)
        assert [r[0] for r in rows] == list(range(6))
        assert abs(rows[0][2] - f.mean()) < 1e-13

    def test_elliptic_rejected(self, rng):
        with pytest.raises(NonDivergentError):
            limit_diagnostic(random_boundary(rng), rotation(0.4), 5)

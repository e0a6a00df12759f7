import math

import mpmath
import numpy as np
import pytest

from discdyn import (
    BoundaryFunction,
    CompactExhaustion,
    HarmonicFunction,
    MoebiusElement,
    NotConjugateError,
    NotHyperbolicError,
    NotParabolicError,
    ResolutionError,
    TargetFamily,
    angle_to_line,
    build_dense_seed,
    build_periodic_approximant,
    compose,
    compose_with_moebius,
    conjugating_map,
    dense_orbit_report,
    hyperbolic_multiplier,
    inverse,
    line_to_angle,
    metric_distance,
    parabolic_shift,
    rotation,
    schedule,
    translate_boundary,
)
from discdyn import chaos
from discdyn.chaos import DenseOrbitSchedule

from conftest import (
    line_image_mean,
    line_images,
    random_boundary,
    random_element,
    seeded_cut_data,
    worst_cut_error,
)

TWO_PI = 2.0 * math.pi


def _window(sched, n):
    """Window n of a schedule, (lo, hi) on the line: the positive half
    [lam^-k_n / n, n lam^-k_n] (hyperbolic) or [a k_n - n, a k_n + n] (parabolic)."""
    k = sched.ks[n - 1]
    if sched.kind == "hyperbolic":
        return sched.rate ** (-k) / n, n * sched.rate ** (-k)
    return sched.rate * k - n, sched.rate * k + n


class TestSchedules:
    def test_frozen_exponents(self):
        assert schedule("hyperbolic", 2.0, 4).ks == (1, 3, 6, 10)
        assert schedule("hyperbolic", 10.0, 3).ks == (1, 2, 3)
        assert schedule("parabolic", 1.0, 4).ks == (1, 5, 11, 19)

    def test_gaps_are_minimal(self):
        # shrinking any gap by one violates the separation inequality, for
        # multipliers and for shifts that do not divide 2n + 1
        for sched in (schedule("hyperbolic", 2.0, 4), schedule("hyperbolic", 1.01, 5),
                      schedule("parabolic", 1.0, 5), schedule("parabolic", 0.3, 5),
                      schedule("parabolic", 3.5, 5)):
            for i in range(1, len(sched.ks)):
                ks = list(sched.ks)
                ks[i] -= 1
                if ks[i] <= ks[i - 1]:
                    continue
                with pytest.raises(ValueError):
                    DenseOrbitSchedule(sched.kind, sched.rate, tuple(ks)).check()

    def test_check_passes_for_built_schedules(self):
        schedule("hyperbolic", 2.0, 6).check()
        schedule("hyperbolic", 3.5, 5).check()
        schedule("parabolic", 1.0, 5).check()
        schedule("parabolic", 0.3, 4).check()

    def test_windows_nested_decreasing(self):
        sched = schedule("hyperbolic", 2.0, 5)
        for n in range(1, 5):
            assert _window(sched, n + 1)[1] < _window(sched, n)[0]

    def test_parabolic_windows_disjoint(self):
        sched = schedule("parabolic", 1.0, 5)
        for n in range(1, 5):
            lo_next, _ = _window(sched, n + 1)
            _, hi = _window(sched, n)
            assert hi < lo_next

    def test_rejects_bad_rates(self):
        with pytest.raises(NotHyperbolicError):
            schedule("hyperbolic", 1.0, 3)
        with pytest.raises(NotHyperbolicError):
            schedule("hyperbolic", 0.5, 3)
        with pytest.raises(NotParabolicError):
            schedule("parabolic", 0.0, 3)
        with pytest.raises(NotParabolicError):
            schedule("parabolic", -1.0, 3)
        # a one-level schedule has no gap to search, but its rate is checked
        with pytest.raises(NotHyperbolicError):
            schedule("hyperbolic", 0.5, 1)
        with pytest.raises(NotParabolicError):
            schedule("parabolic", 0.0, 1)
        # gaps past 2^52 cannot be stepped exactly as doubles
        with pytest.raises(ResolutionError):
            schedule("parabolic", 1e-17, 3)


class TestTargetFamily:
    def test_deterministic_per_seed(self):
        a = TargetFamily.generate(8, 3)
        b = TargetFamily.generate(8, 3)
        assert all(x.allclose(y) for x, y in zip(a.functions, b.functions))
        c = TargetFamily.generate(8, 4)
        assert any(not x.allclose(y) for x, y in zip(a.functions, c.functions))

    def test_members_live_on_dyadic_partitions(self):
        fam = TargetFamily.generate(12, 1)
        step = TWO_PI / 16
        for f in fam.functions:
            if f.breakpoints.size == 0:
                continue
            ratios = f.breakpoints / step
            assert np.allclose(ratios, np.round(ratios), atol=1e-9)
            assert np.max(np.abs(f.values)) <= 1.0 + 1e-12

    def test_values_on_half_integer_grid(self):
        fam = TargetFamily.generate(20, 5)
        for f in fam.functions:
            doubled = 2.0 * f.values
            assert np.allclose(doubled.real, np.round(doubled.real), atol=1e-12)
            assert np.allclose(doubled.imag, np.round(doubled.imag), atol=1e-12)


class TestDenseSeed:
    def test_level_one_window_is_degenerate(self):
        # [1/n, n] collapses to a point for n = 1; that level carries nothing
        sched = schedule("hyperbolic", 2.0, 3)
        lo, hi = _window(sched, 1)
        assert lo == hi

    def test_agrees_with_rescaled_targets_on_windows(self):
        fam = TargetFamily.generate(4, 7)
        sched = schedule("hyperbolic", 2.0, 4)
        seed = build_dense_seed(fam, sched).boundary
        for n in range(2, 5):
            k = sched.ks[n - 1]
            f_n = fam.functions[n - 1]
            lo, hi = _window(sched, n)
            for x in np.linspace(lo * 1.01, hi * 0.99, 7):
                s = line_to_angle(float(x))
                expect = f_n.evaluate(line_to_angle(float(2.0**k * x)))
                assert abs(seed.evaluate(s) - expect) < 1e-12

    def test_zero_between_windows(self):
        fam = TargetFamily.generate(3, 7)
        sched = schedule("hyperbolic", 2.0, 3)
        seed = build_dense_seed(fam, sched).boundary
        (_, hi2), (lo1, _) = _window(sched, 2), _window(sched, 1)
        gap = 0.5 * (hi2 + lo1)  # strictly between windows 2 and 1
        assert seed.evaluate(line_to_angle(gap)) == 0.0
        assert seed.evaluate(line_to_angle(1e9)) == 0.0

    def test_unrepresented_shrinks_with_level(self):
        fam = TargetFamily.generate(6, 7)
        sched = schedule("hyperbolic", 2.0, 6)
        lens = [
            build_dense_seed(fam, sched, level).unrepresented_length()
            for level in (2, 4, 6)
        ]
        assert lens[0] > lens[1] > lens[2] >= 0.0


class TestDenseCertificate:
    def test_hyperbolic_rows_certified(self):
        fam = TargetFamily.generate(4, 1)
        rows = dense_orbit_report(fam, schedule("hyperbolic", 2.0, 4))
        assert all(r.ok for r in rows)
        bounds = [r.bound for r in rows]
        assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))

    def test_parabolic_rows_certified(self):
        fam = TargetFamily.generate(3, 2)
        rows = dense_orbit_report(fam, schedule("parabolic", 1.0, 3))
        assert all(r.ok for r in rows)

    def test_swapping_in_a_fresh_target_still_certifies(self):
        # the certificate is about window coverage, not the specific target
        f1, _, f3 = TargetFamily.generate(3, 1).functions
        fam = TargetFamily((f1, BoundaryFunction.constant(0.5), f3))
        rows = dense_orbit_report(fam, schedule("hyperbolic", 2.0, 3))
        assert all(r.ok for r in rows)


def _reference_cuts(fam, sched, n, levels):
    """Cuts of the k_n-indexed translate, to 50 digits: window m's ends and
    the cuts of f_m inside it, scaled by lam^(k_n - k_m), as angles."""
    two_pi = 2 * mpmath.pi
    cuts = []
    for m in range(2, levels + 1):  # window 1, [1, 1], is empty
        scale = mpmath.mpf(sched.rate) ** (sched.ks[n - 1] - sched.ks[m - 1])
        xs = [mpmath.tan(mpmath.mpf(float(s)) / 2) for s in fam.functions[m - 1].breakpoints]
        xs = [x for x in xs if mpmath.mpf(1) / m < abs(x) < m]
        for x in xs + [mpmath.mpf(1) / m, mpmath.mpf(m), -mpmath.mpf(1) / m, -mpmath.mpf(m)]:
            cuts.append((2 * mpmath.atan(x * scale)) % two_pi)
    return sorted(cuts)


def _reference_value(fam, sched, n, levels, angle):
    """Value of the k_n-indexed translate at an angle, from 50-digit line coordinates."""
    x = mpmath.tan(mpmath.mpf(angle) / 2)
    for m in range(2, levels + 1):
        y = x * mpmath.mpf(sched.rate) ** (sched.ks[m - 1] - sched.ks[n - 1])
        if mpmath.mpf(1) / m < abs(y) < m:
            return fam.functions[m - 1].evaluate(float((2 * mpmath.atan(y)) % (2 * mpmath.pi)))
    return 0.0


class TestDeepDenseOrbits:
    """Each level's translate against 50-digit line coordinates, at depths
    where lam^k_n reaches 1e13 and more: moving angles there would magnify
    their rounding by lam^k_n."""

    @pytest.mark.parametrize("lam, levels", [(10.0, 8), (2.0, 12), (3.0, 14)])
    def test_translates_match_the_reference(self, lam, levels):
        with mpmath.workdps(50):
            fam = TargetFamily.generate(levels, 7)
            sched = schedule("hyperbolic", lam, levels)
            windows = chaos._dense_windows(fam, sched, levels)
            rows = dense_orbit_report(fam, sched)
            ex = CompactExhaustion()
            for n, row in enumerate(rows, 1):
                phi = chaos._dense_translate(windows, sched, levels, levels, sched.ks[n - 1])
                br = phi.boundary.breakpoints
                ref = _reference_cuts(fam, sched, n, levels)
                near = np.array([float(c) for c in ref])
                gap = np.abs((br[:, None] - near[None, :] + math.pi) % TWO_PI - math.pi)
                assert gap.min(axis=1).max() <= 4e-15  # every cut is a true cut
                spacing = np.diff(near, prepend=near[-1] - TWO_PI, append=near[0] + TWO_PI)
                alone = np.minimum(spacing[:-1], spacing[1:]) > 1e-13
                assert gap.min(axis=0)[alone].max() <= 4e-15  # and no true cut is lost
                widths = np.diff(br, append=br[0] + TWO_PI)
                mids = (br + 0.5 * widths)[widths > 1e-9]
                assert [_reference_value(fam, sched, n, levels, t) for t in mids] == list(
                    phi.boundary.evaluate(mids))
                # the row's distance against the reference function's
                vals = [_reference_value(fam, sched, n, levels, (a + b) / 2)
                        for a, b in zip(ref, ref[1:] + [ref[0] + 2 * mpmath.pi])]
                reference = HarmonicFunction(BoundaryFunction(near, vals))
                dist, bar = metric_distance(reference, HarmonicFunction(fam.functions[n - 1]), ex)
                assert abs(row.dist - dist) <= row.error_bar + bar
                assert row.ok


class TestTranslate:
    def test_rotation_translate_is_rotation(self, rng):
        f = random_boundary(rng)
        t = rng.uniform(0, TWO_PI)
        phi = translate_boundary(HarmonicFunction(f), rotation(t))
        s = rng.uniform(0, TWO_PI, 16)
        assert np.allclose(phi.boundary.evaluate(s), f.evaluate((s - t) % TWO_PI))

    def test_translate_distance_zero_to_itself(self, rng):
        f = HarmonicFunction(random_boundary(rng))
        g = random_element(rng)
        a = translate_boundary(f, g)
        b = translate_boundary(f, g)
        d, _ = metric_distance(a, b, CompactExhaustion(n_max=10))
        assert d == 0.0


class TestLineTranslate:
    """Row n of a normal form's orbit, f o gamma^-n, is one pull-back whose cut
    map is gamma^n on the line."""

    @pytest.mark.parametrize(
        "kind, rate, n",
        [("hyperbolic", 1.0001, 20000), ("hyperbolic", 1.001, 2000), ("hyperbolic", 1e-14, 1),
         ("hyperbolic", 1e-14, 2), ("hyperbolic", 1e17, 1), ("hyperbolic", 1e17, 2),
         ("hyperbolic", 1e-300, 1), ("parabolic", 1e-3, 1), ("parabolic", 1e-3, 2000),
         ("parabolic", 1e-3, 20000),
         # rate^n overflows to inf and underflows to 0, in extended precision
         # too: 0 and pi stay put
         ("hyperbolic", 1e300, 20), ("hyperbolic", 1e-300, 20)],
    )
    def test_cuts_match_mpmath(self, kind, rate, n):
        # each cut within 1e-15 of its 60-digit image, scaled by the map's own
        # conditioning: with shift 1e-3 at n = 20000 one ulp of tan(s/2)
        # already moves a cut by 2e-15
        for seed, pieces in enumerate((2, 3, 5, 8, 16, 32, 64)):
            f = seeded_cut_data(seed, pieces)
            images, cond = line_images(f.breakpoints, kind, rate, n)
            g = chaos._line_translate(f, kind, rate, n)
            assert worst_cut_error(g.breakpoints, images, cond) <= 1e-15
            assert abs(g.mean() - line_image_mean(f, images)) <= 1e-13

    @pytest.mark.parametrize(
        "kind, rate",
        [("hyperbolic", 0.5), ("hyperbolic", 2.0), ("hyperbolic", 3.0), ("parabolic", 1.0),
         ("parabolic", -1.0)],
    )
    def test_matches_composing_the_element(self, kind, rate):
        # catches gamma^n taken for gamma^-n, and the parabolic sign `_moved` flips
        g = hyperbolic_multiplier(rate) if kind == "hyperbolic" else parabolic_shift(rate)
        for seed, pieces in enumerate((2, 3, 7, 16, 64)):
            f = seeded_cut_data(100 + seed, pieces)
            rows = zip(chaos.translates(f, (kind, rate), 12), chaos.translates(f, g, 12))
            for n, (line, element) in enumerate(rows):
                assert line.allclose(element, tol=1e-12), (seed, n)

    def test_overflow_stays_silent_and_local(self):
        f = seeded_cut_data(3, 8)
        chaos._line_translate(f, "hyperbolic", 1e300, 20)
        pieces = (np.array([1.0]), np.array([2.0]), np.array([0.5 + 0j]))
        with pytest.warns(RuntimeWarning, match="overflow"):
            chaos._moved(pieces, "hyperbolic", 1e200, np.array([2.0]))

    @pytest.mark.parametrize("rate", [0.0, -2.0])
    def test_multiplier_must_be_positive(self, rate):
        with pytest.raises(NotHyperbolicError):
            next(chaos.translates(BoundaryFunction([0.0], [0.5]), ("hyperbolic", rate), 1))


class TestPeriodicApproximant:
    def test_frozen_small_case(self):
        f = BoundaryFunction([0.0, math.pi], [0.5, -0.5])
        approx = build_periodic_approximant(f, 0.63, "hyperbolic", 2.0)
        assert approx.n == 4
        assert approx.k == 5

    @pytest.mark.parametrize("lam", [2.0, 1.01, 1.001, 1.0003])
    def test_exact_periodicity_at_representation_level(self, lam):
        # composing with gamma^k slides the translate ladder one rung; the
        # composed function equals the approximant re-materialized on the
        # slid index range, exactly as piecewise data.  Near lam = 1 this
        # holds only if the period comes from lam itself, not from a
        # multiplier read back from a group element's trace
        from discdyn import compose_with_moebius

        f = BoundaryFunction([0.2, 1.5, 4.0], [0.5, -0.25, 0.75])
        approx = build_periodic_approximant(f, 0.3, "hyperbolic", lam)
        M = approx.m_materialized
        gk = hyperbolic_multiplier(lam**approx.k)
        down = compose_with_moebius(approx.function.boundary, gk)
        assert down.allclose(approx.materialize_range(-M - 1, M - 1), tol=1e-9)
        up = compose_with_moebius(approx.function.boundary, inverse(gk))
        assert up.allclose(approx.materialize_range(-M + 1, M + 1), tol=1e-9)

    def test_parabolic_periodicity_slides_up(self):
        from discdyn import compose_with_moebius

        f = BoundaryFunction([0.2, 1.5, 4.0], [0.5, -0.25, 0.75])
        approx = build_periodic_approximant(f, 0.3, "parabolic", 1.0)
        M = approx.m_materialized
        pk = parabolic_shift(float(approx.k))
        slid = compose_with_moebius(approx.function.boundary, pk)
        assert slid.allclose(approx.materialize_range(-M + 1, M + 1), tol=1e-9)

    @pytest.mark.parametrize("eps", [0.3, 0.1])
    def test_certified_defects_hyperbolic(self, eps, rng):
        f = random_boundary(rng, n_pieces=4)
        approx = build_periodic_approximant(f, eps, "hyperbolic", 2.0)
        dist, bar = approx.metric_defect()
        assert dist + bar <= eps
        l1, l1_bar = approx.l1_defect()
        assert l1 >= 0.0 and l1_bar >= 0.0

    def test_certified_defects_parabolic(self, rng):
        f = random_boundary(rng, n_pieces=4)
        approx = build_periodic_approximant(f, 0.2, "parabolic", 1.0)
        dist, bar = approx.metric_defect()
        assert dist + bar <= 0.2

    def test_class_mismatch_rejected(self):
        # a multiplier must exceed 1 and a shift must be positive
        f = BoundaryFunction([0.0, math.pi], [0.5, 0.0])
        with pytest.raises(NotHyperbolicError):
            build_periodic_approximant(f, 0.3, "hyperbolic", 0.5)
        with pytest.raises(NotParabolicError):
            build_periodic_approximant(f, 0.3, "parabolic", -1.0)

    def test_absurd_epsilon_raises(self):
        f = BoundaryFunction([0.0, math.pi], [0.5, 0.0])
        with pytest.raises(ResolutionError):
            build_periodic_approximant(f, 1e-13, "hyperbolic", 2.0)

    @pytest.mark.parametrize(
        "kind, rate",
        [("hyperbolic", 1.001), ("hyperbolic", 2.0), ("hyperbolic", 1e7),
         ("parabolic", 1e-3), ("parabolic", 1.0), ("parabolic", 7.0)],
    )
    @pytest.mark.parametrize("eps", [2.0, 0.3, 0.05, 0.01])
    def test_materialized_range_is_minimal(self, kind, rate, eps):
        # the far arcs past m_materialized fit in the floor, and those past
        # one translate fewer do not: the range is the least that suffices,
        # except where the 960-bit guard m_top cuts it short
        f = BoundaryFunction([0.2, 1.5, 4.0], [0.5, -0.25, 0.75])
        a = build_periodic_approximant(f, eps, kind, rate)
        floor = 1e-9 if kind == "hyperbolic" else min(0.02, eps / 12.0)
        m_top = 4000 if kind == "parabolic" else min(4000, int(960 / (a.k * math.log2(rate))) - 1)

        def far(m):
            return sum(arc.theta for arc in chaos._unrep_arcs_periodic(kind, rate, a.n, a.k, m))

        m = a.m_materialized
        assert far(m) <= floor * (1 + 1e-6) or m == m_top
        assert m == 1 or far(m - 1) > floor * (1 - 1e-6)

    def test_k_strictly_beats_n_squared(self):
        # lambda^k > n^2 with the n^2 = lambda^k draw resolved upward
        f = BoundaryFunction([0.0, math.pi], [0.5, 0.0])
        for eps in (0.63, 0.3, 0.1):
            a = build_periodic_approximant(f, eps, "hyperbolic", 2.0)
            assert 2.0**a.k > a.n * a.n
            assert 2.0 ** (a.k - 1) <= a.n * a.n * (1 + 1e-9)


# a valid parabolic element of norm about 3281, fixing one point of the circle
FAR_PARABOLIC = MoebiusElement(0.9999999998690328 + 3281.428150044824j, -51.109215683388584 - 3281.030105314309j)


def _cuts_at(xs):
    """Boundary data with a cut at each line coordinate in xs, each piece its own value."""
    return BoundaryFunction(line_to_angle(xs), np.exp(1j * np.arange(len(xs))))


def _intertwining_gap(cj, f):
    """Largest distance between the cuts of (f o gamma1^-1) o h and of
    (f o h) o gamma2^-1, which agree when h o gamma2 = gamma1 o h; the two
    must also agree as data."""
    lhs = cj.transport(compose_with_moebius(f, inverse(cj.gamma1)))
    rhs = compose_with_moebius(cj.transport(f), inverse(cj.gamma2))
    assert lhs.breakpoints.size == rhs.breakpoints.size and lhs.allclose(rhs)
    d = np.abs(lhs.breakpoints[:, None] - rhs.breakpoints[None, :])
    return float(np.minimum(d, TWO_PI - d).min(axis=1).max())


class TestConjugacy:
    def test_normal_form_exponent(self):
        cj = conjugating_map(hyperbolic_multiplier(2.0), hyperbolic_multiplier(4.0))
        assert cj.kind == "hyperbolic"
        assert cj.exponent == pytest.approx(0.5)

    def test_pointwise_intertwining_random_pairs(self, rng):
        # random multipliers, then 1.001 and 1e7 on both sides, each side
        # under its own random conjugator; then the norm-3281 parabolic
        # element and its normal form, either way round
        rates = [lambda: math.exp(rng.uniform(0.2, 1.2))] * 25 + [lambda: 1.001] * 10 + [lambda: 1e7] * 10
        worst = 0.0
        for rate in rates:
            c1, c2 = random_element(rng), random_element(rng)
            g1 = compose(compose(c1, hyperbolic_multiplier(rate())), inverse(c1))
            g2 = compose(compose(c2, hyperbolic_multiplier(rate())), inverse(c2))
            cj = conjugating_map(g1, g2)
            f = _cuts_at(np.tan(rng.uniform(-1.5, 1.5, 8)))
            worst = max(worst, _intertwining_gap(cj, f))
        shift = parabolic_shift(2.0 * FAR_PARABOLIC.alpha.imag / FAR_PARABOLIC.alpha.real)
        for g1, g2 in ((FAR_PARABOLIC, shift), (shift, FAR_PARABOLIC)):
            f = _cuts_at(np.tan(rng.uniform(-1.5, 1.5, 8)))
            worst = max(worst, _intertwining_gap(conjugating_map(g1, g2), f))
        assert worst < 1e-9

    @pytest.mark.parametrize("defect", ["swapped fixed points", "rate off by 1e-6"])
    @pytest.mark.parametrize("kind", ["hyperbolic", "parabolic"])
    def test_planted_normalizer_defect_is_rejected(self, rng, monkeypatch, defect, kind):
        # the second element is a normal form, which takes no normalizer
        c = random_element(rng)
        g1 = compose(compose(c, chaos.as_element((kind, 3.0))), inverse(c))
        g2 = (kind, 2.0)
        conjugating_map(g1, g2)
        normalizer = chaos._normalizer

        def planted(g):
            c, rate = normalizer(g)
            if defect == "swapped fixed points":  # c o (z -> -z) takes 1 and -1 to c(-1) and c(1)
                return compose(c, rotation(math.pi)), rate
            return c, rate * (1.0 + 1e-6)

        monkeypatch.setattr(chaos, "_normalizer", planted)
        with pytest.raises(ResolutionError):
            conjugating_map(g1, g2)

    def test_parabolic_pair_intertwines(self, rng):
        cj = conjugating_map(parabolic_shift(1.0), parabolic_shift(2.5))
        assert cj.kind == "parabolic"
        assert _intertwining_gap(cj, _cuts_at(np.tan(rng.uniform(-1.5, 1.5, 50)))) < 1e-9

    def test_h_inverts(self, rng):
        g1, g2 = hyperbolic_multiplier(2.0), hyperbolic_multiplier(4.0)
        f = _cuts_at(np.tan(rng.uniform(-1.5, 1.5, 30)))
        assert conjugating_map(g2, g1).transport(conjugating_map(g1, g2).transport(f)).allclose(f)

    @pytest.mark.parametrize("a1, a2", [(1.0, -2.0), (-1.0, 2.5)])
    def test_orientation_reversing_pairs(self, rng, a1, a2):
        # shifts of opposite signs: h reverses orientation
        cj = conjugating_map(parabolic_shift(a1), parabolic_shift(a2))
        assert cj.exponent < 0.0
        for _ in range(3):
            f = random_boundary(rng, n_pieces=16)
            res, bar = cj.intertwine_residual(f)
            assert res <= 1e-9 + bar
            assert _intertwining_gap(cj, f) < 1e-9
            # both are normal forms, so h is x -> (a1/a2) x on the line: f o h
            # read at every piece's midpoint
            t = cj.transport(f)
            mids = t.breakpoints + 0.5 * t.piece_widths()
            assert np.array_equal(t.evaluate(mids), f.evaluate(line_to_angle(cj.exponent * angle_to_line(mids))))

    @pytest.mark.parametrize(
        "lam1, lam2, expected",
        [
            # 1/exponent is about 7e4: h^-1 takes the cuts at x = 0 and
            # x = tan 3 both to 0 and the piece between them vanishes; f o h
            # takes f's value near H(+-1) = +-1 everywhere
            (1.0001, 1e3, [0.3, 0.3, 0.3, 0.3]),
            # the reverse pair: h^-1 takes x = tan 3 to about -0.99997, and H
            # takes the arc from there to 0 onto [tan 3, 0), where f is -0.7j,
            # though H of any point well inside it underflows to -0
            (1e3, 1.0001, [0.3, 0.3, -0.7j, -0.7j]),
        ],
    )
    def test_power_map_underflow_keeps_piece_values(self, lam1, lam2, expected):
        cj = conjugating_map(hyperbolic_multiplier(lam1), hyperbolic_multiplier(lam2))
        t = cj.transport(BoundaryFunction([0.0, 6.0], [0.3, -0.7j]))
        assert np.array_equal(t.evaluate([1.0, 3.0, 5.5, 6.2]), expected)

    def test_transport_intertwining_residual(self, rng):
        cj = conjugating_map(hyperbolic_multiplier(2.0), hyperbolic_multiplier(4.0))
        for _ in range(3):
            f = random_boundary(rng, n_pieces=4)
            res, bar = cj.intertwine_residual(f)
            assert res < 1e-9 + bar

    def test_mixed_classes_rejected(self):
        with pytest.raises(NotConjugateError):
            conjugating_map(hyperbolic_multiplier(2.0), parabolic_shift(1.0))
        with pytest.raises(NotConjugateError):
            conjugating_map(rotation(0.5), rotation(0.7))

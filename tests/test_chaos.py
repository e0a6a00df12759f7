import math

import numpy as np
import pytest

from discdyn import (
    BoundaryFunction,
    CompactExhaustion,
    HarmonicFunction,
    NotConjugateError,
    NotHyperbolicError,
    NotParabolicError,
    ResolutionError,
    TargetFamily,
    act_line,
    build_dense_seed,
    build_parabolic_periodic,
    build_periodic_approximant,
    compose,
    conjugating_map,
    dense_orbit_report,
    hyperbolic_multiplier,
    inverse,
    line_to_angle,
    make_parabolic_schedule,
    make_schedule,
    metric_distance,
    parabolic_shift,
    rotation,
    sensitivity_probe,
    translate_boundary,
)
from discdyn.chaos import DenseOrbitSchedule

from conftest import random_boundary, random_element

TWO_PI = 2.0 * math.pi


class TestSchedules:
    def test_frozen_exponents(self):
        assert make_schedule(2.0, 4).ks == (1, 3, 6, 10)
        assert make_schedule(10.0, 3).ks == (1, 2, 3)
        assert make_parabolic_schedule(1.0, 4).ks == (1, 5, 11, 19)

    def test_gaps_are_minimal(self):
        # shrinking any gap by one violates the separation inequality
        sched = make_schedule(2.0, 4)
        for i in range(1, len(sched.ks)):
            ks = list(sched.ks)
            ks[i] -= 1
            if ks[i] <= ks[i - 1]:
                continue
            with pytest.raises(ValueError):
                DenseOrbitSchedule("hyperbolic", 2.0, tuple(ks)).check()

    def test_check_passes_for_built_schedules(self):
        make_schedule(2.0, 6).check()
        make_schedule(3.5, 5).check()
        make_parabolic_schedule(1.0, 5).check()
        make_parabolic_schedule(0.3, 4).check()

    def test_windows_nested_decreasing(self):
        sched = make_schedule(2.0, 5)
        for n in range(1, 5):
            assert sched.b(n + 1) < sched.a(n)

    def test_parabolic_windows_disjoint(self):
        sched = make_parabolic_schedule(1.0, 5)
        for n in range(1, 5):
            lo_next, _ = sched.window(n + 1)
            _, hi = sched.window(n)
            assert hi < lo_next

    def test_rejects_bad_rates(self):
        with pytest.raises(NotHyperbolicError):
            make_schedule(1.0, 3)
        with pytest.raises(NotHyperbolicError):
            make_schedule(0.5, 3)
        with pytest.raises(NotParabolicError):
            make_parabolic_schedule(0.0, 3)
        with pytest.raises(NotParabolicError):
            make_parabolic_schedule(-1.0, 3)


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

    def test_replaced(self):
        fam = TargetFamily.generate(4, 1)
        g = BoundaryFunction.constant(0.25j)
        fam2 = fam.replaced(2, g)
        assert fam2.functions[2].allclose(g)
        assert fam2.functions[0].allclose(fam.functions[0])
        assert len(fam2) == len(fam)


class TestDenseSeed:
    def test_level_one_window_is_degenerate(self):
        # [1/n, n] collapses to a point for n = 1; that level carries nothing
        sched = make_schedule(2.0, 3)
        assert sched.a(1) == sched.b(1)

    def test_agrees_with_rescaled_targets_on_windows(self):
        fam = TargetFamily.generate(4, 7)
        sched = make_schedule(2.0, 4)
        seed = build_dense_seed(fam, sched).boundary
        for n in range(2, 5):
            k = sched.ks[n - 1]
            f_n = fam.functions[n - 1]
            for x in np.linspace(sched.a(n) * 1.01, sched.b(n) * 0.99, 7):
                s = line_to_angle(float(x))
                expect = f_n.evaluate(line_to_angle(float(2.0**k * x)))
                assert abs(seed.evaluate(s) - expect) < 1e-12

    def test_zero_between_windows(self):
        fam = TargetFamily.generate(3, 7)
        sched = make_schedule(2.0, 3)
        seed = build_dense_seed(fam, sched).boundary
        gap = 0.5 * (sched.b(2) + sched.a(1))  # strictly between windows 2 and 1
        assert seed.evaluate(line_to_angle(gap)) == 0.0
        assert seed.evaluate(line_to_angle(1e9)) == 0.0

    def test_unrepresented_shrinks_with_level(self):
        fam = TargetFamily.generate(6, 7)
        sched = make_schedule(2.0, 6)
        lens = [
            build_dense_seed(fam, sched, level).unrepresented_length()
            for level in (2, 4, 6)
        ]
        assert lens[0] > lens[1] > lens[2] >= 0.0


class TestDenseCertificate:
    def test_hyperbolic_rows_certified(self):
        fam = TargetFamily.generate(4, 1)
        rows = dense_orbit_report(fam, make_schedule(2.0, 4))
        assert all(r.ok for r in rows)
        bounds = [r.bound for r in rows]
        assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))

    def test_parabolic_rows_certified(self):
        fam = TargetFamily.generate(3, 2)
        rows = dense_orbit_report(fam, make_parabolic_schedule(1.0, 3))
        assert all(r.ok for r in rows)

    def test_swapping_in_a_fresh_target_still_certifies(self):
        # the certificate is about window coverage, not the specific target
        fam = TargetFamily.generate(3, 1).replaced(1, BoundaryFunction.constant(0.5))
        rows = dense_orbit_report(fam, make_schedule(2.0, 3))
        assert all(r.ok for r in rows)


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


class TestPeriodicApproximant:
    def test_frozen_small_case(self):
        f = BoundaryFunction([0.0, math.pi], [0.5, -0.5])
        approx = build_periodic_approximant(f, 0.63, hyperbolic_multiplier(2.0))
        assert approx.n == 4
        assert approx.k == 5

    def test_exact_periodicity_at_representation_level(self):
        # composing with gamma^k slides the translate ladder one rung; the
        # composed function equals the approximant re-materialized on the
        # slid index range, exactly as piecewise data
        from discdyn import compose_with_moebius

        f = BoundaryFunction([0.2, 1.5, 4.0], [0.5, -0.25, 0.75])
        approx = build_periodic_approximant(f, 0.3, hyperbolic_multiplier(2.0))
        M = approx.m_materialized
        gk = hyperbolic_multiplier(2.0**approx.k)
        down = compose_with_moebius(approx.function.boundary, gk)
        assert down.allclose(approx.materialize_range(-M - 1, M - 1), tol=1e-9)
        up = compose_with_moebius(approx.function.boundary, inverse(gk))
        assert up.allclose(approx.materialize_range(-M + 1, M + 1), tol=1e-9)

    def test_parabolic_periodicity_slides_up(self):
        from discdyn import compose_with_moebius

        f = BoundaryFunction([0.2, 1.5, 4.0], [0.5, -0.25, 0.75])
        approx = build_parabolic_periodic(f, 0.3, parabolic_shift(1.0))
        M = approx.m_materialized
        pk = parabolic_shift(float(approx.k))
        slid = compose_with_moebius(approx.function.boundary, pk)
        assert slid.allclose(approx.materialize_range(-M + 1, M + 1), tol=1e-9)

    @pytest.mark.parametrize("eps", [0.3, 0.1])
    def test_certified_defects_hyperbolic(self, eps, rng):
        f = random_boundary(rng, n_pieces=4)
        approx = build_periodic_approximant(f, eps, hyperbolic_multiplier(2.0))
        dist, bar = approx.metric_defect()
        assert dist + bar <= eps
        l1, l1_bar = approx.l1_defect()
        assert l1 >= 0.0 and l1_bar >= 0.0

    def test_certified_defects_parabolic(self, rng):
        f = random_boundary(rng, n_pieces=4)
        approx = build_parabolic_periodic(f, 0.2, parabolic_shift(1.0))
        dist, bar = approx.metric_defect()
        assert dist + bar <= 0.2

    def test_class_mismatch_rejected(self):
        f = BoundaryFunction([0.0, math.pi], [0.5, 0.0])
        with pytest.raises(NotHyperbolicError):
            build_periodic_approximant(f, 0.3, parabolic_shift(1.0))
        with pytest.raises(NotParabolicError):
            build_parabolic_periodic(f, 0.3, hyperbolic_multiplier(2.0))

    def test_absurd_epsilon_raises(self):
        f = BoundaryFunction([0.0, math.pi], [0.5, 0.0])
        with pytest.raises(ResolutionError):
            build_periodic_approximant(f, 1e-13, hyperbolic_multiplier(2.0))

    def test_k_strictly_beats_n_squared(self):
        # lambda^k > n^2 with the n^2 = lambda^k draw resolved upward
        f = BoundaryFunction([0.0, math.pi], [0.5, 0.0])
        for eps in (0.63, 0.3, 0.1):
            a = build_periodic_approximant(f, eps, hyperbolic_multiplier(2.0))
            assert 2.0**a.k > a.n * a.n
            assert 2.0 ** (a.k - 1) <= a.n * a.n * (1 + 1e-9)


class TestConjugacy:
    def test_normal_form_exponent(self):
        cj = conjugating_map(hyperbolic_multiplier(2.0), hyperbolic_multiplier(4.0))
        assert cj.kind == "hyperbolic"
        assert cj.exponent == pytest.approx(0.5)

    def test_pointwise_intertwining_random_pairs(self, rng):
        worst = 0.0
        for _ in range(25):
            c1, c2 = random_element(rng), random_element(rng)
            g1 = compose(compose(c1, hyperbolic_multiplier(math.exp(rng.uniform(0.2, 1.2)))), inverse(c1))
            g2 = compose(compose(c2, hyperbolic_multiplier(math.exp(rng.uniform(0.2, 1.2)))), inverse(c2))
            cj = conjugating_map(g1, g2)
            for _ in range(8):
                x = math.tan(rng.uniform(-1.5, 1.5))
                lhs = cj.h_line(act_line(g2, x))
                rhs = act_line(g1, cj.h_line(x))
                worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
        assert worst < 1e-9

    def test_parabolic_pair_intertwines(self, rng):
        cj = conjugating_map(parabolic_shift(1.0), parabolic_shift(2.5))
        assert cj.kind == "parabolic"
        for _ in range(50):
            x = math.tan(rng.uniform(-1.5, 1.5))
            assert abs(cj.h_line(act_line(parabolic_shift(2.5), x)) - act_line(parabolic_shift(1.0), cj.h_line(x))) < 1e-9

    def test_h_inverts(self, rng):
        cj = conjugating_map(hyperbolic_multiplier(2.0), hyperbolic_multiplier(4.0))
        for _ in range(30):
            x = math.tan(rng.uniform(-1.5, 1.5))
            assert abs(cj.h_inv_line(cj.h_line(x)) - x) < 1e-9 * (1 + abs(x))

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


class TestSensitivity:
    def test_separation_amplified(self):
        phi = HarmonicFunction(BoundaryFunction([0.0, math.pi], [1.0, 0.0]))
        pert = HarmonicFunction(BoundaryFunction([0.02, math.pi], [1.0, 0.0]))
        worst, rows = sensitivity_probe(phi, hyperbolic_multiplier(2.0), [pert], n_max=8)
        d0 = [d for (_, n, d) in rows if n == 0][0]
        assert worst > 20 * d0
        assert len(rows) == 9

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from discdyn.boundary import check_arcs
from discdyn import (
    Arc,
    BoundaryFunction,
    InvalidPartitionError,
    angle_to_line,
    compose,
    compose_with_moebius,
    from_line_segments,
    hyperbolic_multiplier,
    identity,
    indicator,
    l1_distance,
    l1_norm,
    line_to_angle,
    merge_partition,
    rotation,
)

from conftest import random_boundary, random_element

TWO_PI = 2.0 * math.pi


class TestConstruction:
    def test_breakpoints_sorted_with_values(self):
        f = BoundaryFunction([2.0, 0.5], [0.1, 0.2])
        assert np.array_equal(f.breakpoints, [0.5, 2.0])
        assert f.evaluate(1.0) == 0.2
        assert f.evaluate(3.0) == 0.1

    def test_twin_breakpoints_deduped(self):
        f = BoundaryFunction([0.5, 0.5 + 1e-16, 2.0], [0.1, 0.2, 0.3])
        assert f.breakpoints.size == 2

    def test_out_of_range_breakpoint_wrapped(self):
        f = BoundaryFunction([0.5, 7.0], [0.1, 0.2])
        assert np.all(f.breakpoints < TWO_PI)
        assert abs(f.breakpoints[1] - (7.0 - TWO_PI)) < 1e-15

    def test_difference_values_allowed(self):
        # sup can reach 2 for differences of unit-ball functions; the type
        # admits them, the serialization boundary is where the ball is checked
        f = BoundaryFunction([0.0, 1.0], [1.8, 0.0])
        assert f.sup_norm() == 1.8

    def test_length_mismatch_rejected(self):
        with pytest.raises((InvalidPartitionError, ValueError)):
            BoundaryFunction([0.0, 1.0, 2.0], [0.1, 0.2])

    def test_constant(self):
        f = BoundaryFunction.constant(0.3 + 0.1j)
        assert f.evaluate(2.7) == 0.3 + 0.1j
        assert f.mean() == 0.3 + 0.1j


class TestEvaluate:
    def test_right_continuity_at_breakpoints(self):
        f = BoundaryFunction([0.5, 2.0, 4.0], [1.0, -1.0, 0.5j])
        assert f.evaluate(0.5) == 1.0
        assert f.evaluate(2.0) == -1.0
        assert f.evaluate(2.0 - 1e-12) == 1.0

    def test_wraparound_piece(self):
        # the last piece [4.0, 0.5 + 2pi) owns angles below the first breakpoint
        f = BoundaryFunction([0.5, 2.0, 4.0], [1.0, -1.0, 0.5j])
        assert f.evaluate(0.1) == 0.5j
        assert f.evaluate(6.2) == 0.5j

    def test_vectorized_matches_scalar(self, rng):
        f = random_boundary(rng)
        ss = rng.uniform(0.0, TWO_PI, 64)
        v = f.evaluate(ss)
        assert all(v[i] == f.evaluate(float(ss[i])) for i in range(len(ss)))


class TestIntegrals:
    def test_mean_matches_riemann_sum(self, rng):
        for _ in range(10):
            f = random_boundary(rng)
            s = np.linspace(0.0, TWO_PI, 200_001)[:-1]
            riemann = np.mean(f.evaluate(s))
            assert abs(f.mean() - riemann) < 1e-4

    def test_l1_norm_is_plain_integral(self):
        # unnormalized: consumers divide by 2pi where a mean is wanted
        arc = Arc(np.exp(0.7j), 1.2)
        assert abs(l1_norm(indicator(arc)) - 1.2) < 1e-15

    def test_indicator_mean_is_harmonic_measure_of_center(self):
        arc = Arc(np.exp(2.2j), 2.0)
        assert abs(indicator(arc).mean() - 2.0 / TWO_PI) < 1e-15

    @given(st.integers(0, 2**31))
    def test_l1_distance_symmetric_triangle(self, seed):
        rng = np.random.default_rng(seed)
        f, g, h = (random_boundary(rng) for _ in range(3))
        assert abs(l1_distance(f, g) - l1_distance(g, f)) < 1e-14
        assert l1_distance(f, h) <= l1_distance(f, g) + l1_distance(g, h) + 1e-12

    def test_l1_distance_frozen_example(self):
        f = BoundaryFunction([0.0, math.pi], [1.0, 0.0])
        g = BoundaryFunction([0.0, math.pi], [0.0, 0.0])
        assert abs(l1_distance(f, g) - math.pi) < 1e-15


class TestAlgebra:
    def test_plus_minus_scaled(self, rng):
        f = random_boundary(rng)
        g = random_boundary(rng)
        s = rng.uniform(0.0, TWO_PI, 32)
        h = f.scaled(0.5).plus(g.scaled(0.5))
        assert np.allclose(h.evaluate(s), 0.5 * f.evaluate(s) + 0.5 * g.evaluate(s))
        d = f.minus(g)
        assert np.allclose(d.evaluate(s), f.evaluate(s) - g.evaluate(s))

    def test_from_json_rejects_ball_escape(self):
        bad = '{"breakpoints": [0.0, 1.0], "values": [[1.5, 0.0], [0.0, 0.0]]}'
        with pytest.raises(InvalidPartitionError):
            BoundaryFunction.from_json(bad)

    def test_merge_partition_preserves_values(self, rng):
        f = random_boundary(rng)
        g = random_boundary(rng)
        br, fv, gv = merge_partition(f, g)
        mids = br + 0.5 * np.diff(br, append=br[0] + TWO_PI)
        assert np.allclose(fv, f.evaluate(mids))
        assert np.allclose(gv, g.evaluate(mids))

    def test_one_dedup_rule(self):
        # cuts 5e-15 apart, and a pair 4.4e-15 apart across 2pi: every
        # constructor keeps the upper cut of each pair and drops the sliver
        bottom, lo, hi, top = 2e-15, 1.0, 1.0 + 5e-15, TWO_PI - 3e-15
        cuts = [bottom, lo, hi, 3.0, top]
        survivors = [bottom, hi, 3.0]
        f = BoundaryFunction(cuts, [0.5, 0.25j, -1.0, 0.75, 1j])
        assert f.breakpoints.tolist() == survivors
        assert f.values.tolist() == [0.5, -1.0, 0.75]
        br, gv, hv = merge_partition(
            BoundaryFunction([bottom, lo, 3.0], [0.5, 0.25j, 0.75]),
            BoundaryFunction([hi, top], [-1.0, 1j]),
        )
        assert br.tolist() == survivors
        assert gv.tolist() == [0.5, 0.25j, 0.75]
        assert hv.tolist() == [1j, -1.0, -1.0]
        xs = [angle_to_line(s) for s in cuts]
        vals = [0.5, 0.25j, -1.0, 0.75, 1j]
        line = from_line_segments(xs, np.roll(xs, -1), vals)
        assert line.breakpoints.tolist() == survivors
        assert line.values.tolist() == [0.5, -1.0, 0.75]

    @given(st.lists(st.tuples(st.integers(0, 63), st.integers(-3, 3), st.booleans()),
                    min_size=1, max_size=24),
           st.integers(0, 2**31))
    def test_clean_cuts_skip_the_checks_bit_for_bit(self, cuts, seed):
        # cuts on a coarse grid, some 5e-15 apart or 3e-15 from 2pi, so that
        # merged cuts need the dedup; every clean input, the merged cuts and
        # any subset of a function's cuts, gives the constructor's own arrays
        rng = np.random.default_rng(seed)
        br = np.array([math.fmod(c * TWO_PI / 64 + d * 5e-15 + TWO_PI, TWO_PI) for c, d, _ in cuts])
        side = np.array([b for _, _, b in cuts])
        vals = rng.uniform(-1.0, 1.0, (br.size, 2)) @ [1.0, 1j]
        f = BoundaryFunction(br[side], vals[side]) if side.any() else BoundaryFunction.constant(0.5)
        g = BoundaryFunction(br[~side], vals[~side]) if (~side).any() else BoundaryFunction([1e-15], [1.0])
        mb, fv, gv = merge_partition(f, g)  # the cuts of f.plus(g) and f.minus(g)
        clean = [(mb, fv - gv), (mb, fv + gv)]
        for h in (f, g):
            if h.breakpoints.size:
                keep = rng.random(h.breakpoints.size) < 0.5
                keep[rng.integers(h.breakpoints.size)] = True
                clean.append((h.breakpoints[keep], h.values[keep]))
        for b, v in clean:
            want, got = BoundaryFunction(b, v), BoundaryFunction._clean(b, v)
            for x, y in ((want.breakpoints, got.breakpoints), (want.values, got.values)):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()

    def test_allclose_ignores_slivers(self):
        f = BoundaryFunction([0.0, 1.0, 2.0], [0.3, 0.7, 0.1])
        g = BoundaryFunction([0.0, 1.0 + 1e-13, 2.0], [0.3, 0.7, 0.1])
        assert f.allclose(g)

    def test_allclose_detects_real_difference(self):
        f = BoundaryFunction([0.0, 1.0], [0.3, 0.7])
        g = BoundaryFunction([0.0, 1.0], [0.3, 0.7 + 1e-6])
        assert not f.allclose(g)


class TestComposition:
    def test_rotation_shifts_breakpoints(self):
        f = BoundaryFunction([0.5, 2.0], [1.0, 0.0])
        g = compose_with_moebius(f, rotation(-1.0))
        # f o r_{-1} jumps where the original jumped, shifted by +1
        assert g.evaluate(1.6) == 1.0
        assert g.evaluate(3.1) == 0.0

    def test_identity_fixes(self, rng):
        f = random_boundary(rng)
        assert f.allclose(compose_with_moebius(f, identity()))

    def test_composition_is_contravariant_functor(self, rng):
        for _ in range(10):
            f = random_boundary(rng)
            g, h = random_element(rng), random_element(rng)
            lhs = compose_with_moebius(compose_with_moebius(f, g), h)
            rhs = compose_with_moebius(f, compose(g, h))
            assert lhs.allclose(rhs)

    def test_values_are_permuted_not_changed(self, rng):
        f = random_boundary(rng, n_pieces=5)
        g = compose_with_moebius(f, random_element(rng))
        assert sorted(np.round(np.real(g.values), 12)) == sorted(np.round(np.real(f.values), 12))

    def test_rotation_preserves_mean(self, rng):
        f = random_boundary(rng)
        g = compose_with_moebius(f, rotation(rng.uniform(0, TWO_PI)))
        assert abs(f.mean() - g.mean()) < 1e-12

    def test_pointwise_composition_identity(self, rng):
        from discdyn import act_disc

        for _ in range(10):
            f = random_boundary(rng)
            g = random_element(rng)
            s = rng.uniform(0.0, TWO_PI)
            z = act_disc(g, np.exp(1j * s))
            s_img = math.atan2(z.imag, z.real) % TWO_PI
            # (f o g)(s) = f(g(s)); stay away from breakpoints of the image
            comp = compose_with_moebius(f, g)
            if min(abs(comp.breakpoints - s)) > 1e-9 and min(abs(f.breakpoints - s_img)) > 1e-9:
                assert abs(comp.evaluate(s) - f.evaluate(s_img)) < 1e-12


class TestCayley:
    def test_frozen_anchor_points(self):
        # z = 1 (angle 0) is the line's 0, and z = -1 (angle pi) its infinity
        assert angle_to_line(0.0) == 0.0 and line_to_angle(0.0) == 0.0
        assert math.isinf(angle_to_line(math.pi))
        assert line_to_angle(math.inf) == math.pi

    def test_round_trip(self, rng):
        for s in rng.uniform(0.0, TWO_PI, 100):
            if abs(s - math.pi) < 1e-3:
                continue
            x = angle_to_line(float(s))
            assert abs(line_to_angle(x) - s) < 1e-9

    def test_monotone_on_each_branch(self):
        # increasing on (0, pi) and on (pi, 2pi); the pole at pi separates them
        lo = [angle_to_line(float(s)) for s in np.linspace(1e-3, math.pi - 1e-3, 200)]
        hi = [angle_to_line(float(s)) for s in np.linspace(math.pi + 1e-3, TWO_PI - 1e-3, 200)]
        assert all(b > a for a, b in zip(lo, lo[1:]))
        assert all(b > a for a, b in zip(hi, hi[1:]))
        assert min(lo) > 0.0 and max(hi) < 0.0

    def test_from_line_segments_round_trip(self):
        segs = [(-2.0, -1.0, 0.5 + 0.0j), (1.0, 3.0, -0.25j)]
        f = from_line_segments(*zip(*segs))
        for u, v, val in segs:
            mid_angle = line_to_angle(0.5 * (u + v))
            assert f.evaluate(mid_angle) == val
        assert f.evaluate(line_to_angle(0.0)) == 0.0


class TestLineSegments:
    def test_scalar_and_array_conversions_agree_bit_for_bit(self, rng):
        xs = np.concatenate((
            rng.standard_normal(2000) * 10.0 ** rng.uniform(-20, 20, 2000),
            [0.0, -0.0, math.inf, -math.inf, 1.0, -1.0],
        ))
        angles = line_to_angle(xs)
        assert angles.tolist() == [line_to_angle(float(x)) for x in xs]
        assert line_to_angle(math.inf) == line_to_angle(-math.inf) == math.pi
        back = angle_to_line(angles)
        assert back.tolist() == [angle_to_line(float(s)) for s in angles]
        assert angle_to_line(math.pi) == math.inf

    def test_wraps_through_infinity(self):
        f = from_line_segments([2.0], [-2.0], [0.5])
        for x in (2.5, 1e6, math.inf, -1e6, -2.5):
            assert f.evaluate(line_to_angle(x)) == 0.5
        for x in (1.5, 0.0, -1.5):
            assert f.evaluate(line_to_angle(x)) == 0.0
        assert abs(f.mean() * TWO_PI - 0.5 * 4.0 * math.atan(0.5)) < 1e-14

    def test_full_line(self):
        f = from_line_segments([-math.inf], [math.inf], [0.25j])
        assert f.breakpoints.size == 0 and f.values.tolist() == [0.25j]
        with pytest.raises(InvalidPartitionError, match="full-line"):
            from_line_segments([-math.inf, 0.0], [math.inf, 1.0], [0.25j, 0.5])

    def test_degenerate_segments_are_dropped(self):
        lo = [1.0, 3.0, math.inf, 0.0, 1.5]
        hi = [1.0, 3.0 + 1e-16, -math.inf, 2.0, 1.5]
        f = from_line_segments(lo, hi, [1.0, -1.0, 1j, 0.5, -0.5])
        assert f.breakpoints.tolist() == line_to_angle(np.array([0.0, 2.0])).tolist()
        assert f.values.tolist() == [0.5, 0.0]
        assert from_line_segments([1.0], [1.0], [1.0]).values.tolist() == [0.0]
        assert from_line_segments([], [], []).values.tolist() == [0.0]

    @pytest.mark.parametrize("lo, hi", [
        ([0.0, 1.0], [2.0, 3.0]),        # plain overlap
        ([0.0, 0.5], [2.0, 1.0]),        # one inside the other
        ([2.0, 3.0], [-2.0, 4.0]),       # through infinity
        ([-4.0, 2.0], [1.0, -3.0]),      # wrapped one reaching round to the other
    ])
    def test_overlapping_segments_raise(self, lo, hi):
        with pytest.raises(InvalidPartitionError, match="overlap"):
            from_line_segments(lo, hi, [0.5, -0.5])

    def test_agrees_with_membership_on_the_line(self, rng):
        for _ in range(20):
            pts = np.sort(rng.standard_normal(2 * int(rng.integers(1, 12))) * 10.0)
            lo, hi = pts[0::2], pts[1::2]
            if rng.uniform() < 0.5:  # the last interval runs through infinity
                lo, hi = hi, np.roll(lo, -1)
            vals = rng.uniform(-0.7, 0.7, lo.size) + 1j * rng.uniform(-0.7, 0.7, lo.size)
            f = from_line_segments(lo, hi, vals)
            for x in rng.standard_normal(50) * 20.0:
                inside = np.flatnonzero(np.where(lo < hi, (lo < x) & (x < hi), (x > lo) | (x < hi)))
                expect = vals[inside[0]] if inside.size else 0.0
                if np.min(np.abs(np.concatenate((lo, hi)) - x)) > 1e-9:
                    assert f.evaluate(line_to_angle(x)) == expect


class TestSerialization:
    def test_json_round_trip(self, rng):
        f = random_boundary(rng)
        g = BoundaryFunction.from_json(f.to_json())
        assert np.array_equal(f.breakpoints, g.breakpoints)
        assert np.array_equal(f.values, g.values)

    @pytest.mark.parametrize("pieces", [1, 5, 127, 128, 400])
    def test_json_text_matches_the_format_operator(self, rng, pieces):
        # the previous serializer, kept as the oracle
        f = random_boundary(rng, pieces)
        f = BoundaryFunction(f.breakpoints, np.where(np.arange(pieces) % 5 == 0, -0.0, f.values))
        bp = ", ".join(f"{x:.17g}" for x in f.breakpoints)
        vals = ", ".join(f"[{v.real:.17g}, {v.imag:.17g}]" for v in f.values)
        assert f.to_json() == '{"breakpoints": [%s], "values": [%s]}' % (bp, vals)
        constant = BoundaryFunction([], [f.values[-1]])
        assert constant.to_json() == '{"breakpoints": [], "values": [[%.17g, %.17g]]}' % (
            constant.values[0].real, constant.values[0].imag)

    def test_from_json_tolerates_extra_keys(self, rng):
        f = random_boundary(rng)
        data = json.loads(f.to_json())
        data["config"] = {"anything": 1}
        g = BoundaryFunction.from_json(json.dumps(data))
        assert f.allclose(g)

    def test_sup_norm(self):
        f = BoundaryFunction([0.0, 1.0], [0.5, -0.25])
        assert abs(f.sup_norm() - 0.5) < 1e-15


class TestArcs:
    def test_contains_angle(self):
        wrapped = indicator(Arc(np.exp(1j * 6.0), 1.0))  # wraps through 0
        assert wrapped.evaluate(6.2) == 1.0
        assert wrapped.evaluate(0.5) == 1.0
        assert wrapped.evaluate(3.0) == 0.0

    def test_indicator_breakpoints(self):
        a = Arc(np.exp(1j * 1.0), 2.0)
        f = indicator(a)
        assert f.evaluate(1.5) == 1.0
        assert f.evaluate(3.5) == 0.0

    def test_trivial_and_full_arcs(self):
        assert indicator(Arc(1.0, 0.0)).sup_norm() == 0.0
        assert indicator(Arc(1.0, TWO_PI)).sup_norm() == 1.0

    def test_nonunit_center_rejected(self):
        with pytest.raises(ValueError):
            Arc(0.5 + 0.0j, 1.0)

    @pytest.mark.parametrize(
        "zeta, theta",
        [(1.0, math.nan), (math.nan, 1.0), (complex(1.0, math.nan), 1.0),
         (1.0, math.inf), (math.inf, 1.0), (1.0, -math.inf), (1.0, 7.0), (1.0, -1e-9)],
    )
    def test_arc_and_array_checks_reject_the_same(self, zeta, theta):
        with pytest.raises(ValueError):
            Arc(zeta, theta)
        with pytest.raises(ValueError):
            check_arcs(np.array([1.0, zeta], dtype=complex), np.array([1.0, theta]))

    def test_array_check_normalises_like_arc(self):
        zeta = np.exp(1j * np.array([0.3, 2.0, 5.0])) * np.array([1.0, 1.0 + 5e-10, 1.0 - 5e-10])
        theta = np.array([-5e-13, 1.0, TWO_PI + 5e-13])
        z, t = check_arcs(zeta, theta)
        for zi, ti, a, b in zip(z, t, zeta, theta):
            arc = Arc(a, b)
            assert zi == arc.zeta and ti == arc.theta

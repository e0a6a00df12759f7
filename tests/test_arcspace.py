import math

import numpy as np
import pytest

from discdyn import (
    Arc,
    act_arc,
    act_arcs,
    act_disc,
    big_F,
    check_equivariance,
    compose,
    extend,
    hyperbolic_multiplier,
    identity,
    indicator,
    rotation,
)

from conftest import random_element

TWO_PI = 2.0 * math.pi


def random_arc(rng, interior=True):
    lo, hi = (0.15, TWO_PI - 0.15) if interior else (0.0, TWO_PI)
    return Arc(np.exp(1j * rng.uniform(0, TWO_PI)), rng.uniform(lo, hi))


class TestThetaTransform:
    def test_identity_and_rotations_preserve_length(self, rng):
        for _ in range(20):
            zeta = np.exp(1j * rng.uniform(0, TWO_PI))
            th = rng.uniform(0, TWO_PI)
            for g in (identity(), rotation(rng.uniform(0, TWO_PI))):
                assert act_arcs(g.alpha, g.beta, zeta, th)[1] == pytest.approx(th)

    def test_matches_image_endpoint_angle(self, rng):
        # the transformed length is the ccw angle between the image endpoints
        for _ in range(50):
            g = random_element(rng)
            zeta = np.exp(1j * rng.uniform(0, TWO_PI))
            th = rng.uniform(0.1, TWO_PI - 0.1)
            w0 = act_disc(g, zeta)
            w1 = act_disc(g, zeta * np.exp(1j * th))
            expect = (np.angle(w1) - np.angle(w0)) % TWO_PI
            assert act_arcs(g.alpha, g.beta, zeta, th)[1] == pytest.approx(expect, abs=1e-9)

    def test_endpoints_fixed(self, rng):
        g = random_element(rng)
        zeta = np.exp(1j * rng.uniform(0, TWO_PI))
        assert act_arcs(g.alpha, g.beta, zeta, 0.0)[1] == 0.0
        assert act_arcs(g.alpha, g.beta, zeta, TWO_PI)[1] == pytest.approx(TWO_PI)

    def test_cocycle_under_composition(self, rng):
        for _ in range(20):
            g, h = random_element(rng), random_element(rng)
            gh = compose(g, h)
            zeta = np.exp(1j * rng.uniform(0, TWO_PI))
            th = rng.uniform(0.1, TWO_PI - 0.1)
            via_h = act_arcs(h.alpha, h.beta, zeta, th)[1]
            zh = act_disc(h, zeta)
            zh /= abs(zh)
            assert act_arcs(gh.alpha, gh.beta, zeta, th)[1] == pytest.approx(
                act_arcs(g.alpha, g.beta, zh, via_h)[1], abs=1e-9
            )


class TestActArc:
    def test_batch_matches_scalar_calls(self, rng):
        gs = [random_element(rng) for _ in range(40)]
        arcs = [random_arc(rng, interior=False) for _ in range(38)]
        arcs += [Arc(1j, 0.0), Arc(-1.0, TWO_PI)]
        zeta, theta = act_arcs(
            [g.alpha for g in gs], [g.beta for g in gs],
            [a.zeta for a in arcs], [a.theta for a in arcs],
        )
        for g, a, z, t in zip(gs, arcs, zeta, theta):
            y = act_arc(g, a)
            assert abs(y.zeta - z) <= 1e-15 and abs(y.theta - t) <= 1e-15
        assert theta[-2] == 0.0 and theta[-1] == TWO_PI

    def test_width_complementarity(self, rng):
        for _ in range(30):
            g = random_element(rng)
            a = random_arc(rng)
            b = Arc(a.zeta * np.exp(1j * a.theta), TWO_PI - a.theta)
            wa = act_arc(g, a).theta
            wb = act_arc(g, b).theta
            assert wa + wb == pytest.approx(TWO_PI, abs=1e-9)

    def test_trivial_and_full_fixed(self, rng):
        g = random_element(rng)
        assert act_arc(g, Arc(1.0, 0.0)).theta == 0.0
        assert act_arc(g, Arc(1.0, TWO_PI)).theta == pytest.approx(TWO_PI)

    def test_action_composes(self, rng):
        for _ in range(20):
            g, h = random_element(rng), random_element(rng)
            a = random_arc(rng)
            lhs = act_arc(compose(g, h), a)
            rhs = act_arc(g, act_arc(h, a))
            assert abs(lhs.zeta - rhs.zeta) < 1e-9
            assert lhs.theta == pytest.approx(rhs.theta, abs=1e-9)


class TestHarmonicMeasure:
    def test_two_routes_agree(self, rng):
        # closed form against the extension of the indicator
        for _ in range(25):
            a = random_arc(rng)
            z = rng.uniform(0, 0.85) * complex(np.exp(1j * rng.uniform(0, TWO_PI)))
            direct = big_F(z, a)
            via_indicator = extend(indicator(a), z).real
            assert direct == pytest.approx(via_indicator, abs=1e-11)

    def test_boundary_leaves(self, rng):
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        assert big_F(z, Arc(1j, 0.0)) == 0.0
        assert big_F(z, Arc(1j, TWO_PI)) == pytest.approx(1.0)

    def test_center_value_is_normalized_length(self, rng):
        a = random_arc(rng)
        assert big_F(0.0, a) == pytest.approx(a.theta / TWO_PI)

    def test_range(self, rng):
        for _ in range(40):
            a = random_arc(rng)
            z = 0.93 * np.exp(1j * rng.uniform(0, TWO_PI)) * rng.uniform(0, 1)
            assert 0.0 < big_F(complex(z), a) < 1.0

    def test_equivariance_residual(self, rng):
        worst = 0.0
        for _ in range(200):
            g = random_element(rng)
            a = random_arc(rng)
            z = 0.7 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            worst = max(worst, check_equivariance(g, z, a))
        assert worst < 1e-9

    def test_isotropy_detects_diagonal_subgroup(self):
        # the elements with real alpha and beta fix the boundary points 1 and
        # -1, so they map Arc(1, pi) to itself; a rotation moves it
        half = Arc(1.0 + 0.0j, math.pi)
        fixed = act_arc(hyperbolic_multiplier(3.0), half)
        assert abs(fixed.zeta - 1.0) + abs(fixed.theta - math.pi) < 1e-12
        moved = act_arc(rotation(0.5), half)
        assert abs(moved.zeta - 1.0) + abs(moved.theta - math.pi) > 1e-3

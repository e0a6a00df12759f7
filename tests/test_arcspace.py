import math

import numpy as np
import pytest

from discdyn import (
    Arc,
    SpherePoint,
    act_arc,
    act_arcs,
    act_disc,
    act_sphere,
    big_F,
    check_equivariance,
    compose,
    extend,
    hyperbolic_multiplier,
    identity,
    indicator,
    isotropy_residual,
    quotient_to_sphere,
    rotation,
    theta_transform,
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
            assert theta_transform(identity(), zeta, th) == pytest.approx(th)
            assert theta_transform(rotation(rng.uniform(0, TWO_PI)), zeta, th) == pytest.approx(th)

    def test_matches_image_endpoint_angle(self, rng):
        # the transformed length is the ccw angle between the image endpoints
        for _ in range(50):
            g = random_element(rng)
            zeta = np.exp(1j * rng.uniform(0, TWO_PI))
            th = rng.uniform(0.1, TWO_PI - 0.1)
            w0 = act_disc(g, zeta)
            w1 = act_disc(g, zeta * np.exp(1j * th))
            expect = (np.angle(w1) - np.angle(w0)) % TWO_PI
            assert theta_transform(g, zeta, th) == pytest.approx(expect, abs=1e-9)

    def test_endpoints_fixed(self, rng):
        g = random_element(rng)
        zeta = np.exp(1j * rng.uniform(0, TWO_PI))
        assert theta_transform(g, zeta, 0.0) == 0.0
        assert theta_transform(g, zeta, TWO_PI) == pytest.approx(TWO_PI)

    def test_cocycle_under_composition(self, rng):
        for _ in range(20):
            g, h = random_element(rng), random_element(rng)
            zeta = np.exp(1j * rng.uniform(0, TWO_PI))
            th = rng.uniform(0.1, TWO_PI - 0.1)
            via_h = theta_transform(h, zeta, th)
            zh = act_disc(h, zeta)
            zh /= abs(zh)
            assert theta_transform(compose(g, h), zeta, th) == pytest.approx(
                theta_transform(g, zh, via_h), abs=1e-9
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
        assert isotropy_residual(hyperbolic_multiplier(3.0)) < 1e-12
        assert isotropy_residual(rotation(0.5)) > 1e-3


class TestSphereQuotient:
    def test_poles_absorb_boundary_circles(self):
        assert quotient_to_sphere(Arc(1j, 0.0)) == SpherePoint.south()
        assert quotient_to_sphere(Arc(-1.0 + 0j, TWO_PI)) == SpherePoint.north()

    def test_interior_keeps_coordinates(self):
        p = quotient_to_sphere(Arc(1j, 1.0))
        assert p.kind == "interior"
        assert p.zeta == 1j and p.theta == 1.0

    def test_poles_are_fixed_points(self, rng):
        g = random_element(rng)
        assert act_sphere(g, SpherePoint.south()) == SpherePoint.south()
        assert act_sphere(g, SpherePoint.north()) == SpherePoint.north()

    def test_action_descends_from_arcs(self, rng):
        for _ in range(20):
            g = random_element(rng)
            a = random_arc(rng)
            top = quotient_to_sphere(act_arc(g, a))
            bottom = act_sphere(g, quotient_to_sphere(a))
            assert top.kind == bottom.kind
            assert abs(top.zeta - bottom.zeta) < 1e-9
            assert top.theta == pytest.approx(bottom.theta, abs=1e-9)

    def test_interior_kind_validation(self):
        with pytest.raises(ValueError):
            SpherePoint("interior", 1.0 + 0j, 0.0)
        with pytest.raises(ValueError):
            SpherePoint("equator", 1.0 + 0j, 1.0)

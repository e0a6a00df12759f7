import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from discdyn import (
    ElementClass,
    InvalidMatrixError,
    MoebiusElement,
    act_disc,
    classify,
    compose,
    fixed_points,
    hyperbolic_multiplier,
    identity,
    inverse,
    multiplier,
    parabolic_shift,
    rotation,
)

from conftest import random_element

angles = st.floats(min_value=0.0, max_value=2.0 * math.pi, allow_nan=False)
boosts = st.floats(min_value=-1.5, max_value=1.5, allow_nan=False)


def element_strategy():
    return st.builds(
        lambda t, u, p: compose(rotation(t), compose(hyperbolic_multiplier(math.exp(u)), rotation(p))),
        angles, boosts, angles,
    )


def dist(g, h):
    return max(abs(g.alpha - h.alpha), abs(g.beta - h.beta))


class TestGroupAxioms:
    @given(element_strategy(), element_strategy(), element_strategy())
    def test_associativity(self, g, h, k):
        assert dist(compose(compose(g, h), k), compose(g, compose(h, k))) < 1e-12

    @given(element_strategy())
    def test_inverse_left_right(self, g):
        assert dist(compose(g, inverse(g)), identity()) < 1e-12
        assert dist(compose(inverse(g), g), identity()) < 1e-12

    @given(element_strategy())
    def test_identity_neutral(self, g):
        assert dist(compose(g, identity()), g) < 1e-15
        assert dist(compose(identity(), g), g) < 1e-15

    @given(element_strategy())
    def test_unit_determinant_after_compose(self, g):
        det = abs(g.alpha) ** 2 - abs(g.beta) ** 2
        assert abs(det - 1.0) < 1e-12


class TestNormalization:
    def test_rejects_non_isometry(self):
        with pytest.raises(InvalidMatrixError):
            MoebiusElement(0.5, 0.7)

    def test_sign_canonical(self):
        g = MoebiusElement(-2.0, cmath.sqrt(3))
        h = MoebiusElement(2.0, -cmath.sqrt(3))
        assert dist(g, h) == 0.0

    def test_scaling_absorbed(self):
        g = MoebiusElement(3 * (1 + 1j), 3 * 1j)
        assert abs(abs(g.alpha) ** 2 - abs(g.beta) ** 2 - 1.0) < 1e-14


class TestAction:
    @given(element_strategy(), st.complex_numbers(max_magnitude=0.97, allow_nan=False, allow_infinity=False))
    def test_disc_preserved(self, g, z):
        assert abs(act_disc(g, z)) < 1.0

    @given(element_strategy(), angles)
    def test_circle_preserved(self, g, s):
        assert abs(abs(act_disc(g, cmath.exp(1j * s))) - 1.0) < 1e-12

    @given(element_strategy(), element_strategy(), st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False))
    def test_action_is_homomorphism(self, g, h, z):
        assert abs(act_disc(compose(g, h), z) - act_disc(g, act_disc(h, z))) < 1e-10

    def test_rotation_is_multiplication(self):
        z = 0.3 - 0.4j
        assert abs(act_disc(rotation(1.1), z) - z * cmath.exp(1.1j)) < 1e-15


class TestClassification:
    def test_normal_forms(self):
        assert classify(hyperbolic_multiplier(2.0)) is ElementClass.HYPERBOLIC
        assert classify(parabolic_shift(1.0)) is ElementClass.PARABOLIC
        assert classify(rotation(0.7)) is ElementClass.ELLIPTIC
        assert classify(identity()) is ElementClass.IDENTITY

    @given(element_strategy(), boosts.filter(lambda u: abs(u) > 1e-3))
    def test_class_is_conjugation_invariant(self, c, u):
        g = hyperbolic_multiplier(math.exp(abs(u)))
        assert classify(compose(compose(c, g), inverse(c))) is ElementClass.HYPERBOLIC

    def test_multiplier_round_trip(self):
        for lam in (1.5, 2.0, 4.0, 9.0):
            assert abs(multiplier(hyperbolic_multiplier(lam)) - lam) < 1e-12 * lam

    def test_multiplier_rejects_parabolic(self):
        with pytest.raises(ValueError):
            multiplier(parabolic_shift(1.0))


def line_image(g, x):
    """g acting on the line coordinate x = tan(s/2) of the circle point e^{is}."""
    return math.tan(cmath.phase(act_disc(g, cmath.exp(2j * math.atan(x)))) / 2)


class TestHalfPlane:
    def test_multiplier_acts_by_scaling(self):
        assert abs(line_image(hyperbolic_multiplier(3.0), 0.8) - 3.0 * 0.8) < 1e-12

    def test_shift_acts_by_translation(self):
        assert abs(line_image(parabolic_shift(0.75), -1.3) - (-1.3 + 0.75)) < 1e-12


class TestFixedPoints:
    def test_multiplier_fixed_points(self):
        e, c = fixed_points(hyperbolic_multiplier(3.0))
        assert abs(e - 1.0) < 1e-15 and abs(c + 1.0) < 1e-15
        e, c = fixed_points(hyperbolic_multiplier(1 / 3.0))
        assert abs(e + 1.0) < 1e-15 and abs(c - 1.0) < 1e-15

    def test_expanding_contracting_by_derivative(self, rng):
        # |g'| > 1 at the expanding fixed point, < 1 at the contracting one
        h = 1e-6
        for _ in range(50):
            c = random_element(rng)
            g = compose(compose(c, hyperbolic_multiplier(math.exp(rng.uniform(0.1, 1.0)))), inverse(c))
            e, con = fixed_points(g)
            for fp, expanding in ((e, True), (con, False)):
                s = cmath.phase(fp)
                assert abs(abs(fp) - 1.0) < 1e-12
                assert abs(act_disc(g, fp) - fp) < 1e-12
                ratio = act_disc(g, cmath.exp(1j * (s + h))) / act_disc(g, cmath.exp(1j * (s - h)))
                d = abs(cmath.phase(ratio)) / (2 * h)
                assert (d > 1.0) == expanding

    def test_parabolic_single_point(self):
        e, c = fixed_points(parabolic_shift(2.0))
        assert e == c and abs(e + 1.0) < 1e-15

    def test_elliptic_has_no_boundary_fixed_points(self):
        with pytest.raises(ValueError):
            fixed_points(rotation(0.3))

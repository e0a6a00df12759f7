import math

import mpmath
import numpy as np
import pytest

from discdyn import (
    Arc,
    BoundaryFunction,
    ElementClass,
    InvalidPointError,
    ProjectivePoint,
    SingularPointError,
    act_arc,
    act_disc,
    big_F,
    classify,
    compose_with_moebius,
    coverage_statistic,
    coverage_sweep,
    extend,
    compose,
    genus2_group,
    hyperbolic_multiplier,
    inverse,
    orbit_sample,
    projective_act,
    projective_f,
    random_projective_point,
    relation_residual,
    rotation,
    short_word_scan,
)

from discdyn import foliation
from discdyn.arcspace import line_arcs, line_matrix, line_step, read_arcs
from discdyn.boundary import check_arcs
from discdyn.foliation import _apply_words, _word_table

from conftest import random_boundary, random_element

TWO_PI = 2.0 * math.pi


class TestGroup:
    def test_relation_closes(self):
        assert relation_residual(genus2_group()) < 1e-9

    def test_generators_hyperbolic(self):
        for g in genus2_group().generators:
            assert classify(g) is ElementClass.HYPERBOLIC

    def test_no_short_relation(self):
        # discreteness witness: nothing within word length 4 approaches the identity
        best, word = short_word_scan(genus2_group(), max_len=4)
        assert best > 0.5
        assert len(word) >= 1

    def test_letters_include_inverses(self):
        G = genus2_group()
        letters = G.letters()
        assert len(letters) == 8
        from discdyn import compose, identity

        ident = identity()
        for i in range(4):
            prod = compose(letters[i], letters[i + 4])
            assert abs(prod.alpha - ident.alpha) < 1e-12
            assert abs(prod.beta - ident.beta) < 1e-12


class TestOrbitSampling:
    def test_deterministic_per_seed(self):
        G = genus2_group()
        base = Arc(1.0 + 0j, math.pi / 2)
        s1 = orbit_sample(G, base, 100, 6, seed=5)
        s2 = orbit_sample(G, base, 100, 6, seed=5)
        for name in ("zeta", "theta", "word_lengths"):
            assert np.array_equal(getattr(s1, name), getattr(s2, name))
        s3 = orbit_sample(G, base, 100, 6, seed=6)
        assert not np.array_equal(s1.zeta, s3.zeta)

    def test_word_lengths_within_budget(self):
        s = orbit_sample(genus2_group(), Arc(1.0 + 0j, 1.0), 200, 5, seed=1)
        assert max(s.word_lengths) <= 5
        assert min(s.word_lengths) >= 0

    def test_boundary_base_flagged(self):
        s = orbit_sample(genus2_group(), Arc(1.0 + 0j, 0.0), 10, 3, seed=1)
        assert s.on_boundary
        assert np.all(s.theta == 0.0)

    def test_coverage_statistic_range(self):
        s = orbit_sample(genus2_group(), Arc(1.0 + 0j, math.pi / 2), 500, 8, seed=2)
        c = coverage_statistic(s)
        assert 0.0 < c < 1.0

    @staticmethod
    def _assert_uniform(counts, total, p):
        # each count within 5 sigma of its binomial mean
        counts = np.asarray(counts, dtype=float)
        sigma = math.sqrt(total * p * (1.0 - p))
        assert np.all(np.abs(counts - total * p) <= 5.0 * sigma), (counts, total * p)

    def test_word_table_is_reduced_and_uniform(self):
        n, width = 10**5, 6
        table = _word_table(np.random.default_rng(11), 8, n, width)
        assert table.shape == (n, width)
        assert table.min() >= 0 and table.max() <= 7
        prev, nxt = table[:, :-1].ravel(), table[:, 1:].ravel()
        assert not np.any(nxt == prev ^ 4)
        self._assert_uniform(np.bincount(table[:, 0], minlength=8), n, 1 / 8)
        for i in range(8):
            follow = np.bincount(nxt[prev == i], minlength=8)
            assert follow[i ^ 4] == 0
            self._assert_uniform(np.delete(follow, i ^ 4), int(np.sum(prev == i)), 1 / 7)

    def test_word_lengths_are_uniform(self):
        n, width = 10**5, 6
        s = orbit_sample(genus2_group(), Arc(1.0 + 0j, 1.0), n, width, seed=12)
        assert s.word_lengths.min() >= 0 and s.word_lengths.max() <= width
        self._assert_uniform(np.bincount(s.word_lengths, minlength=width + 1), n, 1 / (width + 1))

    def test_word_table_deterministic_per_seed(self):
        def draw(seed):
            return _word_table(np.random.default_rng(seed), 8, 500, 9)

        assert np.array_equal(draw(4), draw(4))
        assert not np.array_equal(draw(4), draw(5))
        assert _word_table(np.random.default_rng(4), 8, 500, 0).shape == (500, 0)

    @pytest.mark.parametrize("grid", [7, 32, 33])
    def test_occupied_cells_match_the_point_loop(self, grid):
        def point_loop(zeta, theta, grid):  # the per-point loop the arrays replace
            lo, hi = 0.2, TWO_PI - 0.2
            cells = set()
            for re, im, t in zip(zeta.real.tolist(), zeta.imag.tolist(), theta.tolist()):
                if not lo <= t <= hi:
                    continue
                ang = math.atan2(im, re) % TWO_PI
                i = min(grid - 1, int(ang / (TWO_PI / grid)))
                j = min(grid - 1, int((t - lo) / ((hi - lo) / grid)))
                cells.add((i, j))
            return cells

        rng = np.random.default_rng(grid)
        lo, hi = 0.2, TWO_PI - 0.2
        # points within 40 steps of 2^-50 of every cell edge, in both
        # coordinates, one at a time: a point set off by one bit is seen alone
        near = np.arange(-40, 41) * 2.0**-50
        angles = (np.arange(grid + 1)[:, None] * (TWO_PI / grid) + near).ravel()
        thetas = (lo + np.arange(grid + 1)[:, None] * ((hi - lo) / grid) + near).ravel()
        zeta = np.concatenate([np.exp(1j * angles), [1.0, -1.0, 1j, -1j, complex(1.0, -0.0)]])
        theta = rng.permutation(np.resize(thetas, zeta.size))
        for z, t in zip(zeta, theta):
            for point in (([z], [t]), ([z], [math.pi])):
                point = tuple(map(np.array, point))
                assert foliation._occupied_cells(*point, grid) == point_loop(*point, grid), point
        zeta = np.exp(1j * rng.uniform(0.0, TWO_PI, 2000))
        theta = rng.uniform(0.0, TWO_PI, 2000)
        assert foliation._occupied_cells(zeta, theta, grid) == point_loop(zeta, theta, grid)
        s = orbit_sample(genus2_group(), Arc(1.0 + 0j, 2.0), 3000, 3, seed=grid)
        assert foliation._occupied_cells(s.zeta, s.theta, grid) == point_loop(s.zeta, s.theta, grid)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sweep_monotone(self, seed):
        rows = coverage_sweep(genus2_group(), Arc(1.0 + 0j, math.pi / 2), 150, 8, seed)
        fr = [r[1] for r in rows]
        assert all(b >= a for a, b in zip(fr, fr[1:]))
        assert fr[-1] > 0.0


def _oracle_image(letters, word, zeta, theta, dps=60):
    """The word's product matrix at dps digits, applied to both ends of the arc.

    Returns the image start and the angle from the image start to the image
    end, in [0, 2pi).
    """
    with mpmath.workdps(dps):
        a, b = mpmath.mpc(1), mpmath.mpc(0)
        for i in word:
            la, lb = mpmath.mpc(letters[i].alpha), mpmath.mpc(letters[i].beta)
            a, b = a * la + b * mpmath.conj(lb), a * lb + b * mpmath.conj(la)

        def act(z):
            return (a * z + b) / (mpmath.conj(b) * z + mpmath.conj(a))

        z0 = mpmath.mpc(zeta)
        w0 = act(z0)
        w1 = act(z0 * mpmath.expj(mpmath.mpf(theta)))
        return complex(w0 / abs(w0)), float(mpmath.arg(w1 / w0) % (2 * mpmath.pi))


class TestLetterByLetterAction:
    @pytest.mark.parametrize("length", [8, 12, 16, 20])
    def test_matches_60_digit_product(self, length):
        letters = genus2_group().letters()
        table = _word_table(np.random.default_rng(length), len(letters), 300, length)
        base = Arc(np.exp(0.7j), 2.1)
        zetas, thetas = _apply_words(letters, table, np.full(300, length), base)
        worst_zeta = worst_theta = 0.0
        for word, z, t in zip(table.tolist(), zetas, thetas):
            zeta, theta = _oracle_image(letters, word, base.zeta, base.theta)
            worst_zeta = max(worst_zeta, abs(z - zeta))
            worst_theta = max(worst_theta, abs(t - theta))
        assert worst_zeta <= 1e-13 and worst_theta <= 1e-13, (worst_zeta, worst_theta)

    def test_length_40_short_arcs_stay_relative(self):
        # images from base length 1e-3 reach 1e-49: each length is read out
        # from the carried determinant, never as a difference of O(1) values,
        # so none collapses to 0.  100 digits: at 60, the oracle's own product
        # leaves 3e-13 relative on the shortest images.
        letters = genus2_group().letters()
        table = _word_table(np.random.default_rng(40), len(letters), 100, 40)
        base = Arc(np.exp(0.7j), 1e-3)
        _, thetas = _apply_words(letters, table, np.full(100, 40), base)
        assert np.all(thetas > 0.0)
        for word, t in zip(table.tolist(), thetas):
            expect = _oracle_image(letters, word, base.zeta, base.theta, dps=100)[1]
            assert abs(t - expect) <= 1e-12 * expect, (word, t, expect)

    def test_length_40_near_full_arcs(self):
        letters = genus2_group().letters()
        table = _word_table(np.random.default_rng(41), len(letters), 100, 40)
        base = Arc(np.exp(2.2j), TWO_PI - 1e-3)
        _, thetas = _apply_words(letters, table, np.full(100, 40), base)
        for word, t in zip(table.tolist(), thetas):
            expect = _oracle_image(letters, word, base.zeta, base.theta, dps=100)[1]
            assert abs(t - expect) <= 1e-13, (word, t, expect)

    @pytest.mark.parametrize("theta", [0.0, TWO_PI])
    def test_boundary_circles_stay_exact(self, theta):
        letters = genus2_group().letters()
        table = _word_table(np.random.default_rng(3), len(letters), 300, 12)
        base = Arc(np.exp(2.0j), theta)
        zetas, thetas = _apply_words(letters, table, np.full(300, 12), base)
        assert np.all(thetas == theta)
        for word, z in zip(table.tolist(), zetas):
            assert abs(z - _oracle_image(letters, word, base.zeta, 1.0)[0]) <= 1e-13

    @pytest.mark.parametrize("seed, width", [(0, 12), (1, 12), (2, 4), (3, 0)])
    def test_prefix_loop_matches_the_mask_loop(self, seed, width):
        # the previous loop, kept as the oracle: each column steps the rows a
        # boolean mask picks, in table order, by the per-letter line step
        letters = genus2_group().letters()
        rng = np.random.default_rng(seed)
        lengths = rng.integers(0, width + 1, 400)
        table = _word_table(rng, len(letters), 400, width)
        base = Arc(np.exp(1j * seed), 0.4 + seed)
        m = line_matrix([g.alpha for g in letters], [g.beta for g in letters])
        q, p, det = line_arcs(np.full(400, base.zeta), np.full(400, base.theta))
        for j in range(width - 1, -1, -1):
            on = lengths > j
            step = tuple(e[table[on, j]] for e in m)
            q[:, on], p[:, on] = line_step(step, q[:, on], p[:, on])
        zeta, theta = check_arcs(*read_arcs(q, p, det))
        zeta[lengths == 0], theta[lengths == 0] = base.zeta, base.theta
        got = _apply_words(letters, table, lengths, base)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in (zeta, theta)]
        if width == 0:  # no letter: the base arc itself, bit for bit
            assert [a.tobytes() for a in got] == [
                np.full(400, base.zeta).tobytes(), np.full(400, base.theta).tobytes()
            ]

    def test_rescaling_keeps_every_value(self):
        # letters of norm about 1e6 rescale the vectors every 25 columns; the
        # rescaled determinant must read out as the unscaled one does.  g has
        # order 5, so no power of it leaves double range unscaled.
        boost = hyperbolic_multiplier(1e6)
        g = compose(compose(boost, rotation(TWO_PI / 5)), inverse(boost))
        letters = (g, inverse(g))
        table = _word_table(np.random.default_rng(5), 2, 50, 60)
        lengths = np.random.default_rng(6).integers(1, 61, 50)
        base = Arc(np.exp(0.3j), 1e-3)
        m = line_matrix([h.alpha for h in letters], [h.beta for h in letters])
        q, p, det = line_arcs(np.full(50, base.zeta), np.full(50, base.theta))
        for j in range(59, -1, -1):
            on = lengths > j
            step = tuple(e[table[on, j]] for e in m)
            q[:, on], p[:, on] = line_step(step, q[:, on], p[:, on])
        zeta, theta = _apply_words(letters, table, lengths, base)
        expect_zeta, expect_theta = read_arcs(q, p, det)
        assert np.all(np.abs(zeta - expect_zeta) <= 1e-15)
        assert np.all(np.abs(theta - expect_theta) <= 1e-15 * expect_theta)

    def test_words_past_double_range_rescale(self):
        # 400 letters grow the vectors to about 2^640, and their squares past
        # what a double holds; rescaling keeps every start and every
        # near-full length (the oracle may read 2pi - 1e-300 as 0)
        letters = genus2_group().letters()
        table = _word_table(np.random.default_rng(400), len(letters), 20, 400)
        base = Arc(np.exp(1.1j), TWO_PI - 1e-3)
        zetas, thetas = _apply_words(letters, table, np.full(20, 400), base)
        for word, z, t in zip(table.tolist(), zetas, thetas):
            zeta, theta = _oracle_image(letters, word, base.zeta, base.theta, dps=100)
            gap = abs(t - theta)
            assert abs(z - zeta) <= 1e-13 and min(gap, TWO_PI - gap) <= 1e-13, (z, zeta, t, theta)

    def test_mixed_lengths_act_right_to_left(self):
        # g = l0 l1 ... lk acts as l0(l1(...lk(x))), whatever the other words'
        # lengths; the letters past a row's length are never applied
        letters = genus2_group().letters()
        base = Arc(np.exp(0.3j), 1.9)
        words = [[], [2], [0, 1], [5, 6, 4, 3]]
        table = np.array([w + [7] * (4 - len(w)) for w in words])
        zetas, thetas = _apply_words(letters, table, np.array([0, 1, 2, 4]), base)
        for word, z, t in zip(words, zetas, thetas):
            expect = base
            for i in reversed(word):
                expect = act_arc(letters[i], expect)
            assert abs(z - expect.zeta) <= 1e-14
            assert abs(t - expect.theta) <= 1e-14


class TestLeafwise:
    def test_F0_constant_on_boundary_leaves(self, rng):
        for _ in range(10):
            z = rng.uniform(0, 0.8) * np.exp(1j * rng.uniform(0, TWO_PI))
            zeta = np.exp(1j * rng.uniform(0, TWO_PI))
            assert big_F(complex(z), Arc(zeta, 0.0)) == 0.0
            assert big_F(complex(z), Arc(zeta, TWO_PI)) == pytest.approx(1.0)

    def test_F0_generator_invariance(self, rng):
        G = genus2_group()
        worst = 0.0
        for _ in range(100):
            g = G.generators[rng.integers(0, 4)]
            if rng.integers(0, 2):
                g = inverse(g)
            z = rng.uniform(0, 0.7) * np.exp(1j * rng.uniform(0, TWO_PI))
            x = Arc(np.exp(1j * rng.uniform(0, TWO_PI)), rng.uniform(0.3, TWO_PI - 0.3))
            worst = max(worst, abs(big_F(act_disc(g, complex(z)), act_arc(g, x)) - big_F(complex(z), x)))
        assert worst < 1e-9

    def test_tautological_equivariance(self, rng):
        worst = 0.0
        for _ in range(60):
            g = random_element(rng)
            z = rng.uniform(0, 0.6) * np.exp(1j * rng.uniform(0, TWO_PI))
            f = random_boundary(rng)
            lhs = extend(f, act_disc(inverse(g), complex(z)))
            rhs = extend(compose_with_moebius(f, inverse(g)), complex(z))
            worst = max(worst, abs(lhs - rhs))
        assert worst < 1e-10

    def test_constant_fiber(self):
        assert extend(BoundaryFunction.constant(0.7), 0.2 + 0.4j) == pytest.approx(0.7)


class TestProjectiveModel:
    def test_cone_membership_enforced(self):
        with pytest.raises(InvalidPointError):
            ProjectivePoint(1.0, 0.5, 1.0)

    def test_normalization_collapses_scale(self, rng):
        p = random_projective_point(rng)
        q = ProjectivePoint(3 * p.z1, 3 * p.z2, 3 * p.t)
        assert np.allclose((p.z1, p.z2, p.t), (q.z1, q.z2, q.t))

    def test_sign_canonicalization(self, rng):
        p = random_projective_point(rng)
        q = ProjectivePoint(-p.z1, -p.z2, -p.t)
        assert np.allclose((p.z1, p.z2, p.t), (q.z1, q.z2, q.t))

    def test_action_preserves_cone(self, rng):
        p = random_projective_point(rng)
        for _ in range(300):
            p = projective_act(random_element(rng), p)
            assert p.cone_residual() < 1e-9

    def test_identity_action(self, rng):
        from discdyn import identity

        p = random_projective_point(rng)
        q = projective_act(identity(), p)
        assert np.allclose((p.z1, p.z2, p.t), (q.z1, q.z2, q.t))

    def test_random_points_on_cone(self, rng):
        for _ in range(50):
            assert random_projective_point(rng).cone_residual() < 1e-10


class TestProjectiveFunction:
    def test_reference_point_gives_identity_map(self):
        p = ProjectivePoint(1.0, 0.0, 1.0)
        for z in (0.0, 0.3 - 0.4j, 0.7j):
            assert projective_f(z, p) == pytest.approx(z)

    def test_scale_independent(self, rng):
        p = random_projective_point(rng)
        q = ProjectivePoint(2.5 * p.z1, 2.5 * p.z2, 2.5 * p.t)
        z = 0.4 + 0.1j
        assert projective_f(z, p) == pytest.approx(projective_f(z, q), abs=1e-12)

    def test_invariance_under_action(self, rng):
        worst = 0.0
        for _ in range(150):
            g = random_element(rng)
            p = random_projective_point(rng)
            z = rng.uniform(0, 0.7) * complex(np.exp(1j * rng.uniform(0, TWO_PI)))
            try:
                lhs = projective_f(act_disc(g, z), projective_act(g, p))
            except SingularPointError:
                continue
            worst = max(worst, abs(lhs - projective_f(z, p)))
        assert worst < 1e-9

    def test_holomorphic_in_z(self):
        p = random_projective_point(np.random.default_rng(5))
        z = 0.1 + 0.2j
        res = []
        for h in (0.02, 0.01, 0.005):
            fx = (projective_f(z + h, p) - projective_f(z - h, p)) / (2 * h)
            fy = (projective_f(z + 1j * h, p) - projective_f(z - 1j * h, p)) / (2 * h)
            res.append(abs(fx + 1j * fy))
        assert 3.0 < res[0] / res[1] < 5.0
        assert 3.0 < res[1] / res[2] < 5.0

    def test_degenerate_locus_raises(self):
        p = ProjectivePoint(1.0, 1.0, 0.0)   # t = 0: pole sits on the circle
        with pytest.raises(SingularPointError):
            projective_f(1.0 - 1e-14, p)

    def test_outside_disc_rejected(self, rng):
        p = random_projective_point(rng)
        with pytest.raises(ValueError):
            projective_f(1.2, p)


class TestQuotientConsistency:
    def test_orbit_points_project_to_sphere(self):
        # collapsing the boundary circles theta = 0 and 2pi to poles leaves
        # the orbit of an interior arc with interior points
        s = orbit_sample(genus2_group(), Arc(1.0 + 0j, math.pi / 2), 100, 6, seed=3)
        assert np.any((0.0 < s.theta) & (s.theta < TWO_PI))

"""End-to-end acceptance battery.

Each test checks one headline guarantee of the package at its stated
tolerance and records a one-line verdict that pytest echoes after the run.
Everything here is seeded and deterministic.
"""

import math
import time

import numpy as np
import pytest

from discdyn import (
    Arc,
    BoundaryFunction,
    CompactExhaustion,
    ElementClass,
    HarmonicFunction,
    NORM_OF_ONE,
    NotConjugateError,
    ProjectivePoint,
    SingularPointError,
    TargetFamily,
    act_arc,
    act_disc,
    big_F,
    build_parabolic_periodic,
    build_periodic_approximant,
    check_equivariance,
    classify,
    compose,
    compose_with_moebius,
    conjugating_map,
    coverage_sweep,
    dense_orbit_report,
    extend_many,
    from_half_plane,
    genus2_group,
    hyperbolic_multiplier,
    identity,
    inverse,
    l1_norm,
    limit_diagnostic,
    make_schedule,
    metric_norm,
    parabolic_shift,
    projective_act,
    projective_f,
    random_projective_point,
    relation_residual,
    to_half_plane,
)

from conftest import poisson_quad_grid, random_boundary, random_element, record_criterion

TWO_PI = 2.0 * math.pi


def _verdict(name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    record_criterion(line)
    print(line)
    assert ok, line


def _random_grid(rng, count, radius):
    return radius * np.sqrt(rng.uniform(0, 1, count)) * np.exp(1j * rng.uniform(0, TWO_PI, count))


def test_extension_matches_quadrature():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        f = random_boundary(rng)
        zs = _random_grid(rng, 50, 0.9)
        ours = extend_many(f, zs)
        ref = poisson_quad_grid(f, zs)
        worst = max(worst, float(np.max(np.abs(ours - ref))))
    _verdict(
        "harmonic extension vs adaptive quadrature",
        worst <= 1e-10,
        f"worst |closed-form - quad| = {worst:.3e} over 200 functions x 50 points (tol 1e-10)",
    )


def test_arc_measure_equivariance():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(500):
        g = random_element(rng)
        z = complex(_random_grid(rng, 1, 0.8)[0])
        x = Arc(complex(np.exp(1j * rng.uniform(0, TWO_PI))), rng.uniform(0.05, TWO_PI - 0.05))
        worst = max(worst, check_equivariance(g, z, x))
    g = hyperbolic_multiplier(1.5)
    worst_iter = 0.0
    for _ in range(10):
        z = complex(_random_grid(rng, 1, 0.5)[0])
        x = Arc(complex(np.exp(1j * rng.uniform(0, TWO_PI))), rng.uniform(0.4, TWO_PI - 0.4))
        base = big_F(z, x)
        zn, xn = z, x
        for _ in range(20):
            zn = act_disc(g, zn)
            xn = act_arc(g, xn)
            worst_iter = max(worst_iter, abs(big_F(zn, xn) - base))
    _verdict(
        "arc measure is equivariant",
        worst < 1e-9 and worst_iter < 1e-8,
        f"single-step worst {worst:.3e} over 500 draws (tol 1e-9); "
        f"20-fold iteration worst {worst_iter:.3e} (tol 1e-8)",
    )


def test_metric_dominated_by_boundary_l1():
    rng = np.random.default_rng(103)
    ex = CompactExhaustion()
    violations = 0
    for _ in range(200):
        f = random_boundary(rng)
        val, bar = metric_norm(HarmonicFunction(f), ex)
        if val > l1_norm(f) / TWO_PI + bar:
            violations += 1
    one, _ = metric_norm(HarmonicFunction(BoundaryFunction.constant(1.0)), ex)
    err_one = abs(one - NORM_OF_ONE)
    _verdict(
        "metric norm bounded by mean boundary size",
        violations == 0 and err_one <= 1e-6,
        f"0 bound violations in 200 (with certified bars); "
        f"|norm(1) - {NORM_OF_ONE:.10f}| = {err_one:.3e} (tol 1e-6)",
    )


def test_dense_orbit_certificate():
    t0 = time.perf_counter()
    fam = TargetFamily.generate(8, seed=5)
    rows = dense_orbit_report(fam, make_schedule(2.0, 8), n_levels=6)
    elapsed = time.perf_counter() - t0
    certified = all(r.dist <= r.bound + r.error_bar for r in rows if 2 <= r.n <= 6)
    bounds = [r.bound for r in rows if 2 <= r.n <= 6]
    decreasing = all(b < a for a, b in zip(bounds, bounds[1:]))
    _verdict(
        "dense-orbit certificate",
        certified and decreasing and elapsed < 60.0,
        f"levels 2..6 certified (measured <= bound + bar), bounds {bounds[0]:.3f}.."
        f"{bounds[-1]:.3f} strictly decreasing, {elapsed:.1f} s (< 60 s)",
    )


def test_periodic_point_certificate():
    g = hyperbolic_multiplier(2.0)
    fam = TargetFamily.generate(10, seed=9)
    worst_slack = -math.inf
    exact = True
    for eps in (0.3, 0.1, 0.03):
        for f in fam.functions:
            ap = build_periodic_approximant(f, eps, g)
            m = ap.m_materialized
            gk = hyperbolic_multiplier(2.0**ap.k)
            slid = compose_with_moebius(ap.function.boundary, gk)
            exact = exact and slid.allclose(ap.materialize_range(-m - 1, m - 1), tol=1e-9)
            dist, bar = ap.metric_defect()
            worst_slack = max(worst_slack, (dist + bar) - eps)
    pin = build_periodic_approximant(fam.functions[0], 0.63, g)
    _verdict(
        "periodic approximant certificate",
        exact and worst_slack <= 0.0 and pin.n == 4 and pin.k == 5,
        f"exact periodicity at representation level for eps in (0.3, 0.1, 0.03) x 10 targets; "
        f"worst (dist+bar)-eps = {worst_slack:.3e} (<= 0); eps=0.63 pins (n, k) = ({pin.n}, {pin.k})",
    )


def test_iterates_flatten_smooth_data():
    g = hyperbolic_multiplier(2.0)
    s = np.linspace(0, TWO_PI, 720, endpoint=False)
    first_hits = []
    for trial in range(5):
        rng = np.random.default_rng(200 + trial)
        vals = (
            rng.normal(0, 0.2)
            + 0.3 * np.cos(s + rng.uniform(0, 6))
            + 0.2 * np.sin(2 * s + rng.uniform(0, 6))
            + 0.25j * np.cos(s + rng.uniform(0, 6))
        )
        vals = vals / max(1.0, float(np.max(np.abs(vals))))
        rows = limit_diagnostic(BoundaryFunction(s, vals), g, 60)
        first_hits.append(next((n for n, osc, _ in rows if osc < 1e-2), None))
    ok = all(h is not None and h <= 60 for h in first_hits)
    _verdict(
        "iterates flatten smooth boundary data",
        ok,
        f"oscillation on the 2/3-disc drops below 1e-2 by n = {first_hits} (budget 60) "
        "for 5 smooth 720-piece samples",
    )


def test_group_algebra_suite():
    rng = np.random.default_rng(107)
    worst = 0.0
    ident = identity()
    for _ in range(1000):
        a, b, c = (random_element(rng) for _ in range(3))
        ab_c = compose(compose(a, b), c)
        a_bc = compose(a, compose(b, c))
        worst = max(worst, abs(ab_c.alpha - a_bc.alpha), abs(ab_c.beta - a_bc.beta))
        inv = compose(a, inverse(a))
        worst = max(worst, abs(inv.alpha - ident.alpha), abs(inv.beta - ident.beta))
        rt = from_half_plane(to_half_plane(a))
        worst = max(worst, abs(rt.alpha - a.alpha), abs(rt.beta - a.beta))
    _verdict(
        "group algebra",
        worst <= 1e-12,
        f"associativity, inverses, half-plane round-trip: worst residual {worst:.3e} "
        "over 1000 elements (tol 1e-12)",
    )


def test_projective_model_invariants():
    rng = np.random.default_rng(108)
    worst_inv = 0.0
    evaluated = 0
    for _ in range(500):
        g = random_element(rng)
        p = random_projective_point(rng)
        z = complex(_random_grid(rng, 1, 0.7)[0])
        try:
            lhs = projective_f(act_disc(g, z), projective_act(g, p))
        except SingularPointError:
            continue
        evaluated += 1
        worst_inv = max(worst_inv, abs(lhs - projective_f(z, p)))
    p = random_projective_point(rng)
    worst_cone = 0.0
    for _ in range(10_000):
        p = projective_act(random_element(rng), p)
        worst_cone = max(worst_cone, p.cone_residual())
    q = random_projective_point(np.random.default_rng(5))
    z0 = 0.1 + 0.2j
    res = []
    for h in (0.02, 0.01, 0.005):
        fx = (projective_f(z0 + h, q) - projective_f(z0 - h, q)) / (2 * h)
        fy = (projective_f(z0 + 1j * h, q) - projective_f(z0 - 1j * h, q)) / (2 * h)
        res.append(abs(fx + 1j * fy))
    quadratic = 3.0 < res[0] / res[1] < 5.0 and 3.0 < res[1] / res[2] < 5.0
    _verdict(
        "projective cone model",
        worst_inv < 1e-9 and evaluated >= 450 and worst_cone < 1e-9 and quadratic,
        f"invariance worst {worst_inv:.3e} over {evaluated}/500 draws (tol 1e-9); "
        f"cone residual {worst_cone:.3e} over 1e4 compositions (tol 1e-9); "
        f"anti-holomorphic defect shrinks x{res[0] / res[1]:.2f}, x{res[1] / res[2]:.2f} per halving",
    )


def test_surface_group_checks():
    G = genus2_group()
    rel = relation_residual(G)
    hyp = all(classify(g) is ElementClass.HYPERBOLIC for g in G.generators)
    base = Arc(1.0 + 0j, math.pi / 2)
    monotone = True
    finals = []
    for seed in (1, 2, 3):
        fr = [row[1] for row in coverage_sweep(G, base, 150, 8, seed)]
        monotone = monotone and all(b >= a for a, b in zip(fr, fr[1:]))
        finals.append(fr[-1])
    _verdict(
        "genus-2 surface group",
        rel < 1e-9 and hyp and monotone,
        f"relation residual {rel:.3e} (tol 1e-9); all generators hyperbolic; "
        f"32x32 coverage non-decreasing in word budget for seeds 1..3 "
        f"(final fractions {[f'{c:.3f}' for c in finals]})",
    )


def test_conjugacy_intertwines():
    rng = np.random.default_rng(110)
    pairs = [
        (hyperbolic_multiplier(2.0), hyperbolic_multiplier(4.0)),
        (parabolic_shift(1.0), parabolic_shift(2.5)),
    ]
    worst = 0.0
    for g1, g2 in pairs:
        conj = conjugating_map(g1, g2)
        for _ in range(20):
            f = random_boundary(rng)
            residual, bar = conj.intertwine_residual(f)
            worst = max(worst, residual - bar)
    with pytest.raises(NotConjugateError):
        conjugating_map(hyperbolic_multiplier(2.0), parabolic_shift(1.0))
    _verdict(
        "conjugacy transport",
        worst < 1e-9,
        f"intertwining residual (minus bar) worst {worst:.3e} for (2,4)-multipliers and "
        "two parabolic shifts on 20 random targets each (tol 1e-9); "
        "mixed-class request raises NotConjugateError",
    )

"""Orbit constructions for a single hyperbolic or parabolic element.

Dense seed: given a target family f_1, f_2, ... and an integer schedule
k_1 < k_2 < ..., the boundary function f_inf places a shrunken copy of each
f_n in a window on the line so that the k_n-th translate recovers f_n on a
set A_n whose complement has small arclength.  The report certifies per level

    metric_distance(translate_n, f_n) <= arclength(A_n complement)/pi + bar.

Periodic seed: f_eps sums translates of a window restriction of f along the
cyclic group generated by gamma^k, giving a boundary function fixed by
gamma^k at the representation level and metric-close to f.  One builder
serves both kinds and takes the normal form's rate, the multiplier lam of
x -> lam x or the shift a of x -> x + a, as given: the period k, every
translate and the materialized range come from that number, never from an
element read back.

Conjugacy transport: for two elements of the same class, an explicit circle
homeomorphism h with h o gamma2 = gamma1 o h transports boundary data by
f -> f o h and intertwines the two translation actions.  Each gamma is an
element, whose normalizer c is read from its fixed points on the circle, or
a normal form (kind, rate), whose c is the identity and whose rate is used
as given.  h is the normal-form map between the two normalizers, and the
transport is one pull-back of the breakpoint array through h^-1, by the rule
`compose_with_moebius` follows.

Windows are arrays (lo, hi, value) in the line coordinate x = tan(s/2), each
target's pieces computed once; a translate term moves them by an exact scale
lam^e or shift -e*a, and `from_line_segments` turns them into angles
s(x) = 2*atan(x) in one pass.  Level n's translate of the dense seed is built
the same way, window m scaled by lam^(k_n - k_m), so window n lands on
[1/n, n] at full resolution and no group element gamma^{k_n} is formed.  Far
periodic translates beyond a resolution floor are certified into error bars
instead of being materialized.  `translates` moves boundary data along a
normal form's orbit the same way, row n by one exact scale or shift.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import moebius
from .arcspace import act_arc, line_matrix
from .boundary import (
    TWO_PI,
    Arc,
    BoundaryFunction,
    _line_arcs,
    _moebius_angles,
    _pull_back,
    angle_to_line,
    compose_with_moebius,
    from_line_segments,
    l1_distance,
    line_to_angle,
    wrap_angle,
)
from .moebius import MoebiusElement, ResolutionError
from .poisson import CompactExhaustion, HarmonicFunction, metric_distance, metric_distances


class NotHyperbolicError(ValueError):
    pass


class NotParabolicError(ValueError):
    pass


class NotConjugateError(ValueError):
    pass


# --- schedules ---------------------------------------------------------------


@dataclass(frozen=True)
class DenseOrbitSchedule:
    """Window schedule: k_n exponents plus the window geometry they induce.

    Hyperbolic (rate = multiplier lam > 1): windows +-[a_n, b_n] with
    a_n = lam^-k_n / n, b_n = n lam^-k_n; the defining inequality
    n(n+1) < lam^(k_{n+1}-k_n) makes consecutive windows disjoint.

    Parabolic (rate = shift a > 0): windows [a k_n - n, a k_n + n], disjoint
    when a(k_{n+1}-k_n) > 2n+1.
    """

    kind: str
    rate: float
    ks: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in ("hyperbolic", "parabolic"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        object.__setattr__(self, "ks", tuple(int(k) for k in self.ks))

    def check(self):
        ks = self.ks
        if list(ks) != sorted(set(ks)) or ks[0] < 1:
            raise ValueError("exponents must be strictly increasing positive integers")
        for i in range(len(ks) - 1):
            n = i + 1
            gap = ks[i + 1] - ks[i]
            if self.kind == "hyperbolic":
                if not n * (n + 1) < self.rate**gap:
                    raise ValueError(f"n(n+1) < rate^gap fails at n = {n}")
            else:
                if not self.rate * gap > 2 * n + 1:
                    raise ValueError(f"rate*gap > 2n+1 fails at n = {n}")


def _least_exponent(kind: str, rate: float, target: float) -> int:
    """Least integer e >= 1 with rate^e > target (hyperbolic, multiplier rate)
    or rate*e > target (parabolic, shift rate): the closed-form start, then
    exact correction steps.  The rate is checked here, for every caller."""
    if kind == "hyperbolic":
        if not rate > 1.0 + 1e-9:
            raise NotHyperbolicError(f"multiplier {rate} must exceed 1 + 1e-9")
        start, power = math.log(target) / math.log(rate), lambda e: rate**e
    else:
        if not rate > 0.0:
            raise NotParabolicError(f"shift {rate} must be positive")
        start, power = target / rate, lambda e: rate * e
    # past 2^52 a unit step no longer changes the exponent as a double
    if not start < 2.0**52:
        raise ResolutionError(f"rate {rate} needs exponents beyond double resolution")
    e = int(start) + 1
    while power(e) <= target:
        e += 1
    while e > 1 and power(e - 1) > target:
        e -= 1
    return e


def schedule(kind: str, rate: float, n_levels: int) -> DenseOrbitSchedule:
    """Minimal schedule: k_1 = 1 and each gap least with n(n+1) < rate^gap
    (hyperbolic) or rate*gap > 2n+1 (parabolic).  The gap past the last level
    is found too, so a one-level schedule still has its rate checked."""
    targets = [n * (n + 1) if kind == "hyperbolic" else 2 * n + 1 for n in range(1, n_levels + 1)]
    gaps = [_least_exponent(kind, rate, t) for t in targets]
    ks = tuple(itertools.accumulate(gaps[:-1], initial=1))
    sched = DenseOrbitSchedule(kind, float(rate), ks)
    sched.check()
    return sched


# --- target family -----------------------------------------------------------

# half-integer Gaussian-integer grid intersected with the closed unit disc
_VALUE_GRID = np.array(
    [
        0.0,
        0.5,
        -0.5,
        0.5j,
        -0.5j,
        0.5 + 0.5j,
        0.5 - 0.5j,
        -0.5 + 0.5j,
        -0.5 - 0.5j,
        1.0,
        -1.0,
        1j,
        -1j,
    ],
    dtype=complex,
)


@dataclass(frozen=True)
class TargetFamily:
    """Deterministic finite prefix of a countable dense family of unit-ball data."""

    functions: tuple[BoundaryFunction, ...]

    def __len__(self) -> int:
        return len(self.functions)

    @classmethod
    def generate(cls, count: int, seed: int) -> "TargetFamily":
        funcs = []
        for i in range(count):
            rng = np.random.default_rng([int(seed), i])
            level = int(rng.integers(0, 5))
            m = 2**level
            br = np.arange(m) * (TWO_PI / m)
            vals = _VALUE_GRID[rng.integers(0, len(_VALUE_GRID), size=m)]
            funcs.append(BoundaryFunction(br, vals))
        return cls(tuple(funcs))


# --- line windows ------------------------------------------------------------

_TWO_PI_LONG = 8 * np.arctan(np.longdouble(1))  # 2pi to the precision of np.longdouble


def _window_pieces(f: BoundaryFunction, kind: str, n: int):
    """Pieces (lo, hi, value) of f, as a function of the line coordinate, on
    window n: +-[1/n, n] (hyperbolic) or [-n, n] (parabolic)."""
    xs = np.sort(angle_to_line(f.breakpoints))
    ends = [(1.0 / n, n), (-n, -1.0 / n)] if kind == "hyperbolic" else [(-n, n)]
    pts = [np.concatenate(([u], xs[(u < xs) & (xs < v)], [v])) for u, v in ends]
    lo, hi = np.concatenate([p[:-1] for p in pts]), np.concatenate([p[1:] for p in pts])
    lo, hi = lo[hi > lo], hi[hi > lo]
    return lo, hi, f.evaluate(line_to_angle(0.5 * (lo + hi)))


def _moved(pieces, kind: str, rate: float, e):
    """The pieces moved by gamma^e, e broadcasting against them, as one set
    of arrays: an exact scale by rate^e (hyperbolic) or shift by -e*rate
    (parabolic)."""
    lo, hi, val = pieces
    if kind == "hyperbolic":
        lo, hi = lo * rate**e, hi * rate**e
    else:
        lo, hi = lo - e * rate, hi - e * rate
    return lo.ravel(), hi.ravel(), np.broadcast_to(val, lo.shape).ravel()


def _line_translate(f: BoundaryFunction, kind: str, rate: float, n: int) -> BoundaryFunction:
    """f o gamma^-n as one `_pull_back`, its cut map gamma^n in the line
    coordinate: x -> rate^n x (hyperbolic) or x + n rate (parabolic).  Each
    cut moves in extended precision (`np.longdouble`, where the platform has
    more than a double) and rounds to a double once.  The fixed points (angle
    0 and pi, or pi) stay put when rate^n overflows or underflows, and a cut
    carried past the range lands on angle pi."""
    r = np.longdouble(rate)

    def move(s, m):
        s = wrap_angle(s)
        x = np.tan(np.asarray(s, np.longdouble) / 2)
        with np.errstate(over="ignore", invalid="ignore"):
            y = x * r**m if kind == "hyperbolic" else x + r * m
        t = np.mod(2 * np.arctan(y), _TWO_PI_LONG).astype(float)
        fixed = (s == math.pi) | ((s == 0.0) & (kind == "hyperbolic"))
        return np.where(fixed, s, np.where(t < TWO_PI, t, 0.0))

    return _pull_back(f, lambda s: move(s, -n), lambda s: move(s, n))


def class_of(gamma) -> str:
    """The `ElementClass` value of an element, or of a normal form (kind,
    rate): its kind, or "identity" for multiplier 1 or shift 0.  A multiplier
    must be positive."""
    if isinstance(gamma, MoebiusElement):
        return moebius.classify(gamma).value
    kind, rate = gamma
    if kind == "hyperbolic" and not rate > 0.0:
        raise NotHyperbolicError(f"multiplier {rate} must be positive")
    return "identity" if rate == (1.0 if kind == "hyperbolic" else 0.0) else kind


def translates(f: BoundaryFunction, gamma, n_max: int):
    """The rows f o gamma^-n for n = 0, 1, ..., n_max, f itself first, as an
    iterator.  A normal form gamma = (kind, rate) gives row n as one
    `_line_translate`, exact in the line coordinate.  An element gamma gives
    it as one `compose_with_moebius` of row n - 1 by gamma^-1: gamma^n itself
    is hopeless for large n, its entries growing like lam^(n/2) while the unit
    determinant cancels away."""
    if isinstance(gamma, MoebiusElement):
        inverses = itertools.repeat(moebius.inverse(gamma), n_max)
        return itertools.accumulate(inverses, compose_with_moebius, initial=f)
    class_of(gamma)  # rejects a multiplier that is not positive
    kind, rate = gamma
    return itertools.chain([f], (_line_translate(f, kind, rate, n) for n in range(1, n_max + 1)))


def _arc_of_line_interval(lo: float, hi: float) -> Arc:
    (a,), _, (width,) = _line_arcs(lo, hi)
    return Arc(complex(math.cos(a), math.sin(a)), float(width))


# --- dense seed --------------------------------------------------------------


def _dense_windows(family: TargetFamily, sched: DenseOrbitSchedule, lvl: int):
    """Window m's pieces of f_m in the line coordinate, for m = 1..lvl, as
    one set of arrays (lo, hi, value, k_m)."""
    pieces = [_window_pieces(f, sched.kind, m) for m, f in enumerate(family.functions[:lvl], 1)]
    ks = np.repeat(np.array(sched.ks[:lvl], dtype=float), [p[0].size for p in pieces])
    return tuple(np.concatenate(p) for p in zip(*pieces)) + (ks,)


def _dense_translate(windows, sched: DenseOrbitSchedule, lvl: int, n_family: int, k0: int):
    """The k0-indexed translate of the seed with windows 1..lvl (k0 = 0: the
    seed itself), built in the line coordinate: window m moves by the
    exponent k0 - k_m, an exact scale lam^(k0 - k_m) or shift a (k_m - k0),
    so window m lands on [1/m, m] (or [-m, m]) at k0 = k_m."""
    *pieces, ks = windows
    mat = from_line_segments(*_moved(pieces, sched.kind, sched.rate, k0 - ks))
    if lvl == n_family:
        return HarmonicFunction(mat)
    k = sched.ks[lvl]  # the first level left out
    if sched.kind == "hyperbolic":
        cutoff = (lvl + 1) * sched.rate ** (k0 - k)
        unrep = _arc_of_line_interval(-cutoff, cutoff)
    else:
        unrep = _arc_of_line_interval(sched.rate * (k - k0) - (lvl + 1), math.inf)
    return HarmonicFunction(mat, (unrep,), 1.0)


def build_dense_seed(
    family: TargetFamily, sched: DenseOrbitSchedule, level: int | None = None
) -> HarmonicFunction:
    """The seed boundary function whose translates sweep past every family member.

    Hyperbolic: value f_n(lam^{k_n} x) on +-[a_n, b_n], 0 on the gaps, 0 above
    b_1, and 0 below the innermost window of the finite family.  Materializes
    levels 1..level exactly; deeper levels (when level < family size) stay
    unrepresented with tail bound 1 on the accumulation arc around angle 0.

    Parabolic: value f_n(x - a k_n) on [a k_n - n, a k_n + n]; windows march
    to +infinity, so the unrepresented region is a single arc ending at the
    angle of infinity.
    """
    n_family = len(family)
    if n_family == 0:
        raise ValueError("family is empty")
    if len(sched.ks) < n_family:
        raise ValueError("schedule shorter than the family")
    lvl = n_family if level is None else int(level)
    if not 1 <= lvl <= n_family:
        raise ValueError(f"level {lvl} outside 1..{n_family}")
    return _dense_translate(_dense_windows(family, sched, lvl), sched, lvl, n_family, 0)


def translate_boundary(phi: HarmonicFunction, g: MoebiusElement) -> HarmonicFunction:
    """The translate with boundary data f o g^{-1}; unrepresented arcs move by g."""
    f2 = compose_with_moebius(phi.boundary, moebius.inverse(g))
    arcs = tuple(act_arc(g, a) for a in phi.unrepresented)
    return HarmonicFunction(f2, arcs, phi.tail_bound)


@dataclass(frozen=True)
class CertificateRow:
    n: int
    k: int
    dist: float
    bound: float
    error_bar: float

    @property
    def ok(self) -> bool:
        return self.dist <= self.bound + self.error_bar


def dense_orbit_report(
    family: TargetFamily, sched: DenseOrbitSchedule, n_levels: int | None = None
) -> list[CertificateRow]:
    """Per-level certificate rows (n, k_n, dist, bound, bar).

    dist is the metric distance between the k_n-indexed translate of the seed
    extension, built in the line coordinate, and the n-th family extension;
    bound = arclength(A_n^c)/pi.
    For the parabolic window placement the matching group power is the
    Z-action index -k_n (the translate is f_inf o gamma^{+k_n}); the certified
    inequality is the same.
    """
    ex = CompactExhaustion()
    n_levels = len(family) if n_levels is None else int(n_levels)
    if n_levels > len(family):
        raise ValueError("more levels requested than family members")
    lvl = min(len(family), n_levels + 2)
    windows = _dense_windows(family, sched, lvl)
    ns = range(1, n_levels + 1)
    pairs = [(_dense_translate(windows, sched, lvl, len(family), sched.ks[n - 1]),
              HarmonicFunction(family.functions[n - 1])) for n in ns]
    return [CertificateRow(n, sched.ks[n - 1], dist, _off_window(n, sched.kind) / math.pi, bar)
            for n, (dist, bar) in zip(ns, metric_distances(pairs, ex))]


# --- periodic approximant ----------------------------------------------------


@dataclass
class PeriodicApproximant:
    """Boundary function with f o gamma^k = f at the representation level, for
    gamma the normal form of `kind` with multiplier or shift `rate`."""

    function: HarmonicFunction
    kind: str
    rate: float
    n: int
    k: int
    m_materialized: int
    source: BoundaryFunction

    def materialize_range(self, m_lo: int, m_hi: int) -> BoundaryFunction:
        """Sum of the translate terms for m in [m_lo, m_hi], materialized exactly."""
        return _translate_terms(self.source, self.kind, self.rate, self.n, self.k, m_lo, m_hi)

    def l1_defect(self) -> tuple[float, float]:
        """(integral of |f - f_eps| over the circle, error bar)."""
        defect = l1_distance(self.source, self.function.boundary)
        bar = self.function.unrepresented_length() * (
            self.function.tail_bound + self.source.sup_norm()
        )
        return defect, bar

    def metric_defect(self) -> tuple[float, float]:
        return metric_distance(HarmonicFunction(self.source), self.function, CompactExhaustion())


def _off_window(n: int, kind: str) -> float:
    """arclength(B_n^c), the circle off window n: 8 atan(1/n) off the hyperbolic
    windows [-n, -1/n] and [1/n, n], 4 atan(1/n) off the parabolic [-n, n]."""
    return (8.0 if kind == "hyperbolic" else 4.0) * math.atan(1.0 / n)


def _pick_n(epsilon: float, kind: str) -> int:
    """Minimal n with arclength(B_n^c) <= epsilon*pi."""
    coeff = _off_window(1, kind) / math.atan(1.0)  # 8 or 4, exactly
    if coeff / (epsilon * math.pi) > 1e12:
        raise ResolutionError("epsilon too small for double-precision windows")
    # atan(1/n) ~ 1/n, so start a few steps below the asymptotic answer and
    # walk up; keeps the minimality exact without a unit-step search from 1
    n = max(1, int(coeff / (epsilon * math.pi)) - 2)
    while n > 1 and _off_window(n - 1, kind) <= epsilon * math.pi:
        n -= 1
    while _off_window(n, kind) > epsilon * math.pi:
        n += 1
    return n


def _unrep_arcs_periodic(kind, rate, n, k, m_cap):
    """Arcs holding every translate with |m| > m_cap: 8 atan(n rate^-(m_cap+1)k)
    of circle in all (hyperbolic), or 4 atan(1/((m_cap+1) k rate - n))
    (parabolic)."""
    if kind == "hyperbolic":
        step = rate**k
        inner = n * step ** (-(m_cap + 1))
        outer = step ** (m_cap + 1) / n
        return _arc_of_line_interval(-inner, inner), _arc_of_line_interval(outer, -outer)
    reach = (m_cap + 1) * k * rate - n
    return (_arc_of_line_interval(reach, -reach),)


def _translate_terms(f, kind, rate, n, k, m_lo, m_hi) -> BoundaryFunction:
    """Window n of f moved by gamma^{mk} for each m in [m_lo, m_hi], materialized."""
    exps = np.arange(m_lo, m_hi + 1.0)[:, None] * k
    return from_line_segments(*_moved(_window_pieces(f, kind, n), kind, rate, exps))


def build_periodic_approximant(
    f: BoundaryFunction, epsilon: float, kind: str, rate: float
) -> PeriodicApproximant:
    """Periodic boundary function within metric epsilon of f, fixed by gamma^k
    for the normal form gamma of `kind`: x -> rate*x on the line (fixing z = 1
    and z = -1), or x -> x + rate (fixing z = -1); transport other elements
    with conjugating_map.

    The rate is used as given; no group element is formed.  Window level n is
    minimal with arclength(B_n^c) <= epsilon*pi: window +-[1/n, n] or [-n, n].
    The period exponent k is minimal with rate^k > n^2 or k*rate > 2n, which
    keeps all translates of the window disjoint.  The translates with |m| up
    to m_materialized are materialized, the least count from 1 whose far arcs
    total at most a floor: 1e-9 (hyperbolic), or min(0.02, epsilon/12)
    (parabolic, where the far translates pile up near the angle of infinity
    with length decaying like 1/m).  The count stops at 4000 and, for a
    multiplier, where rate^((m + 1) k) would pass 2^960.  The far arcs stay
    unrepresented, in the bar.
    """
    if not 0.0 < epsilon <= 2.0:
        raise ValueError(f"epsilon = {epsilon} outside (0, 2]")
    n = _pick_n(epsilon, kind)
    k = _least_exponent(kind, rate, n * n if kind == "hyperbolic" else 2 * n)
    len_floor = 1e-9 if kind == "hyperbolic" else min(0.02, epsilon / 12.0)
    # the arcs take rate^((m_cap + 1) k), kept below 2^960 and so a double
    m_top = 4000 if kind == "parabolic" else min(4000, int(960 / (k * math.log2(rate))) - 1)
    if m_top < 1:
        raise ResolutionError(f"multiplier {rate} too large for double-precision translates")
    # the far arcs (`_unrep_arcs_periodic`) fit in len_floor once m_cap + 1 = e,
    # e least with rate^(k e) > n / tan(floor/8) or k rate e > n + 1/tan(floor/4)
    if kind == "hyperbolic":
        e = _least_exponent(kind, rate**k, n / math.tan(len_floor / 8.0))
    else:
        e = _least_exponent(kind, k * rate, n + 1.0 / math.tan(len_floor / 4.0))
    m_cap = min(max(e - 1, 1), m_top)
    mat = _translate_terms(f, kind, rate, n, k, -m_cap, m_cap)
    function = HarmonicFunction(mat, _unrep_arcs_periodic(kind, rate, n, k, m_cap), f.sup_norm())
    return PeriodicApproximant(function, kind, rate, n, k, m_cap, f)


# --- conjugacy ---------------------------------------------------------------


def as_element(gamma) -> MoebiusElement:
    """gamma itself, or the element of the normal form (kind, rate)."""
    if isinstance(gamma, MoebiusElement):
        return gamma
    kind, rate = gamma
    return moebius.hyperbolic_multiplier(rate) if kind == "hyperbolic" else moebius.parabolic_shift(rate)


def line_map(gamma):
    """(a, b, c, d), ad - bc = 1, of gamma acting on the line as
    x -> (a x + b)/(c x + d): a normal form's own matrix, diag(sqrt(rate),
    1/sqrt(rate)) or [[1, rate], [0, 1]], so that no element is formed and
    any multiplier or shift a double holds acts, or an element's
    `arcspace.line_matrix`."""
    if isinstance(gamma, MoebiusElement):
        return line_matrix(gamma.alpha, gamma.beta)
    class_of(gamma)  # rejects a multiplier that is not positive
    kind, rate = gamma
    if kind == "parabolic":
        return 1.0, rate, 0.0, 1.0
    r = math.sqrt(rate)
    return r, 0.0, 0.0, 1.0 / r


def _normalizer(g: MoebiusElement) -> tuple[MoebiusElement, float]:
    """(c, rate) with c^-1 g c the normal form: x -> rate*x, c the disc map
    taking 1 and -1 to the expanding and contracting fixed points, or
    x -> x + rate, c the rotation taking -1 to the fixed point.  Each rate is
    scale-free, so the stored pair's rounded determinant cancels: it is
    `moebius.multiplier`, or 2 Im(alpha)/Re(alpha), as c^-1 g c keeps alpha,
    a multiple of 1 + i*rate/2."""
    e, f = moebius.fixed_points(g)
    if e == f:
        return moebius.rotation(cmath.phase(-e)), 2.0 * g.alpha.imag / g.alpha.real
    # c = (a z + b)/(conj(b) z + conj(a)) has c(1) = (a + b)^2/|a + b|^2 and
    # c(-1) = -(a - b)^2/|a - b|^2, and |a|^2 - |b|^2 = Re((a + b) conj(a - b))
    se, sf = cmath.sqrt(e), cmath.sqrt(-f)
    if (se * sf.conjugate()).real < 0.0:
        sf = -sf
    return MoebiusElement(se + sf, se - sf), moebius.multiplier(g)


def _normalized(gamma, kind: str) -> tuple[MoebiusElement, float]:
    """(c, rate) with gamma = c o N o c^-1 for N the normal form (kind, rate).
    A normal form is its own, with c the identity and the rate as given.  For
    an element, c o N o c^-1 must be gamma within 1e-9 |alpha|, as maps: each
    pair is stored up to the scale its rounded determinant left."""
    if not isinstance(gamma, MoebiusElement):
        return moebius.identity(), gamma[1]
    c, rate = _normalizer(gamma)
    check = moebius.compose(moebius.compose(c, as_element((kind, rate))), moebius.inverse(c))
    k = abs(gamma.alpha) / abs(check.alpha)
    gap = max(abs(k * check.alpha - gamma.alpha), abs(k * check.beta - gamma.beta))
    if not gap <= 1e-9 * abs(gamma.alpha):
        raise ResolutionError("normalizer construction failed to reproduce the element")
    return c, rate


@dataclass(frozen=True)
class Conjugacy:
    """Circle homeomorphism h with h o gamma2 = gamma1 o h, and its transport;
    each gamma is an element or a normal form (kind, rate)."""

    gamma1: MoebiusElement | tuple[str, float]
    gamma2: MoebiusElement | tuple[str, float]
    kind: str
    c1: MoebiusElement
    c2: MoebiusElement
    exponent: float  # log lam1 / log lam2, or shift ratio a1/a2

    def transport(self, f: BoundaryFunction) -> BoundaryFunction:
        """f o h for h = c1 o H o c2^-1, one `_pull_back` through h^-1 = c2 o H^-1 o c1^-1;
        H(x) = sign(x)|x|^exponent or exponent*x on the line, where +-inf is angle pi."""
        rho, inv = self.exponent, moebius.inverse
        if self.kind == "hyperbolic":
            H = lambda x: np.copysign(np.abs(x) ** rho, x)
            H_inv = lambda x: np.copysign(np.abs(x) ** (1.0 / rho), x)
        else:
            H, H_inv = (lambda x: rho * x), (lambda x: x / rho)
        c1i, c2i = inv(self.c1), inv(self.c2)
        c1, c2 = inv(c1i), inv(c2i)  # renormalized, as compose_with_moebius(., c^-1) pulls by them
        line = lambda g, s: angle_to_line(_moebius_angles(g, s))
        h = lambda s: _moebius_angles(c1, line_to_angle(H(line(c2i, s))))
        h_inv = lambda s: _moebius_angles(c2, line_to_angle(H_inv(line(c1i, s))))
        with np.errstate(over="ignore", divide="ignore"):
            return _pull_back(f, h, h_inv, reverses=rho < 0.0)

    def intertwine_residual(self, f: BoundaryFunction) -> tuple[float, float]:
        """Metric distance between (f o gamma1^-1) o h and (f o h) o gamma2^-1,
        each translate the first row of `translates`."""
        *_, lhs = translates(f, self.gamma1, 1)
        *_, rhs = translates(self.transport(f), self.gamma2, 1)
        lhs, rhs = HarmonicFunction(self.transport(lhs)), HarmonicFunction(rhs)
        return metric_distance(lhs, rhs, CompactExhaustion())


def conjugating_map(gamma1, gamma2) -> Conjugacy:
    """Explicit conjugating circle map for two elements of the same class, each
    an element or a normal form (kind, rate); `class_of` is the class rule.

    Hyperbolic pair: after moving both to x -> lam_i x, h is the power map
    sign(x) |x|^(log lam1 / log lam2).  Parabolic pair: h is linear.  Any other
    combination (including hyperbolic with parabolic, where no answer is
    known) raises NotConjugateError, and an element whose normalizer fails
    its check raises ResolutionError.
    """
    kind, kind2 = class_of(gamma1), class_of(gamma2)
    if kind != kind2 or kind not in ("hyperbolic", "parabolic"):
        raise NotConjugateError(
            f"no conjugating map constructed for classes {kind} and {kind2}: only "
            f"matching hyperbolic or matching parabolic pairs are supported"
        )
    (c1, r1), (c2, r2) = _normalized(gamma1, kind), _normalized(gamma2, kind)
    rho = math.log(r1) / math.log(r2) if kind == "hyperbolic" else r1 / r2
    return Conjugacy(gamma1, gamma2, kind, c1, c2, rho)

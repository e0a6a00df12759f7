"""Surface-group machinery: a concrete genus-2 group acting on the disc, orbit
sampling on the arc cylinder, and the projective-cone model with its invariant
fiberwise-holomorphic function.

The group is certified numerically, not assumed: the eight-term side-pairing
relation must collapse to the identity and no short reduced word may come
near the identity.  Every dynamical statement exposed here is a finite-sample
diagnostic (coverage fractions, invariance residuals), never a theorem claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import moebius
from .arcspace import Arc, act_arc, act_arcs  # noqa: F401  (act_arc is re-exported)
from .boundary import TWO_PI, check_arcs
from .moebius import MoebiusElement


class SingularPointError(ValueError):
    pass


class InvalidPointError(ValueError):
    pass


# --- the group ----------------------------------------------------------------


@dataclass(frozen=True)
class FuchsianGroup:
    generators: tuple[MoebiusElement, ...]
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))

    def __len__(self) -> int:
        return len(self.generators)

    def letters(self) -> tuple[MoebiusElement, ...]:
        """Generators followed by their inverses; letter i has inverse i XOR n."""
        return self.generators + tuple(moebius.inverse(g) for g in self.generators)


def genus2_group() -> FuchsianGroup:
    """Regular-octagon side pairings: alpha = 1 + sqrt(2), |beta| = sqrt(2 alpha),
    beta phases at multiples of pi/4.  All four generators are hyperbolic with
    the same translation length; certified by relation_residual and
    short_word_scan rather than taken on faith."""
    alpha = 1.0 + math.sqrt(2.0)
    r = math.sqrt(2.0 + 2.0 * math.sqrt(2.0))
    gens = tuple(
        MoebiusElement(alpha, r * complex(math.cos(k * math.pi / 4), math.sin(k * math.pi / 4)))
        for k in range(4)
    )
    return FuchsianGroup(gens, "genus-2 regular octagon")


_RELATION = (0, 5, 2, 7, 4, 1, 6, 3)  # g0 g1^-1 g2 g3^-1 g0^-1 g1 g2^-1 g3


def relation_residual(group: FuchsianGroup) -> float:
    """Distance from the octagon relation word to the identity."""
    letters = group.letters()
    word = reduce(moebius.compose, (letters[i] for i in _RELATION))
    return word.distance_to(moebius.identity())


def short_word_scan(
    group: FuchsianGroup, max_len: int = 4
) -> tuple[float, tuple[int, ...]]:
    """Minimum distance to the identity over nonempty reduced words.

    A healthy discrete group keeps this bounded well away from 0 for word
    lengths below the defining relation (length 8 here).
    """
    letters = group.letters()
    half = len(letters) // 2
    ident = moebius.identity()
    best, best_word = math.inf, ()
    frontier = [((), ident)]
    for _ in range(max_len):
        frontier = [
            (w + (i,), moebius.compose(g, h))
            for w, g in frontier
            for i, h in enumerate(letters)
            if not w or i != w[-1] ^ half
        ]
        for w, g in frontier:
            d = g.distance_to(ident)
            if d < best:
                best, best_word = d, w
    return best, best_word


# --- orbit sampling on the arc cylinder ----------------------------------------


@dataclass(frozen=True, eq=False)  # array fields have no truth value to compare by
class OrbitSample:
    """The images g(base) as arrays: starts zeta, lengths theta, and word lengths."""

    zeta: np.ndarray
    theta: np.ndarray
    word_lengths: np.ndarray
    rng_seed: int
    base: Arc
    on_boundary: bool = False


def _word_table(rng, n_letters: int, n_words: int, width: int) -> np.ndarray:
    """An (n_words, width) table of uniform reduced words from one draw: each
    letter after column 0 picks among the n_letters - 1 that do not cancel its
    left neighbour (inverse = neighbour XOR n_letters // 2).  Every prefix of
    a row is again a uniform reduced word."""
    highs = np.full(width, n_letters - 1)
    highs[:1] = n_letters
    table = rng.integers(0, highs, size=(n_words, width))
    for j in range(1, width):
        table[:, j] += table[:, j] >= table[:, j - 1] ^ (n_letters // 2)
    return table


def _apply_words(letters, table: np.ndarray, lengths: np.ndarray, base: Arc):
    """The images g(base) for the words g = l0 l1 ... lk, all at once.

    Row r of the table holds its word in its first lengths[r] columns.  The
    columns act right to left, each on the rows whose word reaches it, so g
    acts as l0(l1(...lk(base))); with the rows sorted by length, longest
    first, those rows are a prefix.  No product matrix is formed: its entries
    grow exponentially with the word length, and once |alpha| nears 1e8,
    |alpha|^2 - |beta|^2 cancels to nothing in double precision.  Returns
    the image starts and lengths as arrays, checked as `Arc` checks them.
    """
    alpha = np.array([g.alpha for g in letters])
    beta = np.array([g.beta for g in letters])
    order = np.argsort(-lengths, kind="stable")
    table = table[order]
    reach = np.searchsorted(-lengths[order], -np.arange(table.shape[1]), "left")
    zeta = np.full(len(table), base.zeta)
    theta = np.full(len(table), base.theta)
    for j in range(table.shape[1] - 1, -1, -1):
        on = slice(0, reach[j])
        idx = table[on, j]
        zeta[on], theta[on] = act_arcs(alpha[idx], beta[idx], zeta[on], theta[on])
    zeta[order], theta[order] = zeta.copy(), theta.copy()  # back to table order
    return check_arcs(zeta, theta)


def orbit_sample(
    group: FuchsianGroup,
    base: Arc,
    n_points: int,
    max_word_len: int,
    seed: int,
) -> OrbitSample:
    """Reduced words of uniform random length <= max_word_len applied to the base arc.

    Deterministic per seed.  Boundary bases (theta 0 or 2pi) stay on their
    boundary circle; that is flagged, not rejected.
    """
    rng = np.random.default_rng(int(seed))
    letters = group.letters()
    lengths = rng.integers(0, max_word_len + 1, size=n_points)
    table = _word_table(rng, len(letters), n_points, max_word_len)
    zeta, theta = _apply_words(letters, table, lengths, base)
    on_b = base.theta <= 0.0 or base.theta >= TWO_PI
    return OrbitSample(zeta, theta, lengths, int(seed), base, on_b)


def _occupied_cells(zeta: np.ndarray, theta: np.ndarray, grid: int) -> set[tuple[int, int]]:
    """(angle cell, theta cell) of each point with theta in [0.2, 2pi - 0.2]."""
    lo, hi = 0.2, TWO_PI - 0.2
    band = (theta >= lo) & (theta <= hi)
    z, t = zeta[band], theta[band]
    # math.atan2, not np.arctan2: the two differ in the last bit on some points
    ang = np.fromiter(map(math.atan2, z.imag.tolist(), z.real.tolist()), float, z.size)
    i = np.minimum(grid - 1, (np.mod(ang, TWO_PI) / (TWO_PI / grid)).astype(int))
    j = np.minimum(grid - 1, ((t - lo) / ((hi - lo) / grid)).astype(int))
    return set(zip(i.tolist(), j.tolist()))


def coverage_statistic(sample: OrbitSample, grid: int = 32) -> float:
    """Fraction of occupied cells on the interior band of the arc cylinder."""
    return len(_occupied_cells(sample.zeta, sample.theta, grid)) / (grid * grid)


def coverage_sweep(
    group: FuchsianGroup,
    base: Arc,
    n_per_length: int,
    max_word_len: int,
    seed: int,
    grid: int = 32,
) -> list[tuple[int, float]]:
    """Cumulative coverage rows (budget, fraction), non-decreasing by design.

    The budget-L row pools words of every exact length <= L, each batch drawn
    from its own (seed, length) stream, so raising the budget only adds points.
    """
    letters = group.letters()
    cells: set[tuple[int, int]] = set()
    rows = []
    for length in range(max_word_len + 1):
        rng = np.random.default_rng([int(seed), length])
        table = _word_table(rng, len(letters), n_per_length, length)
        lengths = np.full(n_per_length, length)
        cells |= _occupied_cells(*_apply_words(letters, table, lengths, base), grid)
        rows.append((length, len(cells) / (grid * grid)))
    return rows


# --- projective cone model ------------------------------------------------------


@dataclass(frozen=True)
class ProjectivePoint:
    """Point [z1, z2, t] on the cone |z1|^2 - |z2|^2 = t^2, stored normalized.

    Real projective scale is fixed by making the largest coordinate magnitude 1
    and the first nonzero component of (Re z1, Im z1, Re z2, Im z2, t) positive.
    """

    z1: complex
    z2: complex
    t: float

    def __post_init__(self):
        z1, z2, t = complex(self.z1), complex(self.z2), float(self.t)
        scale = max(abs(z1), abs(z2), abs(t))
        if not scale > 1e-300 or not math.isfinite(scale):
            raise InvalidPointError("projective point has no nonzero coordinate")
        z1, z2, t = z1 / scale, z2 / scale, t / scale
        for c in (z1.real, z1.imag, z2.real, z2.imag, t):
            if abs(c) > 1e-13:
                if c < 0.0:
                    z1, z2, t = -z1, -z2, -t
                break
        if abs(abs(z1) ** 2 - abs(z2) ** 2 - t * t) > 1e-10:
            raise InvalidPointError(
                f"coordinates violate |z1|^2 - |z2|^2 = t^2 "
                f"(residual {abs(abs(z1)**2 - abs(z2)**2 - t*t):.3e})"
            )
        object.__setattr__(self, "z1", z1)
        object.__setattr__(self, "z2", z2)
        object.__setattr__(self, "t", t)

    def cone_residual(self) -> float:
        return abs(abs(self.z1) ** 2 - abs(self.z2) ** 2 - self.t**2)

    def coords(self) -> tuple[complex, complex, float]:
        return self.z1, self.z2, self.t


def random_projective_point(rng) -> ProjectivePoint:
    """Uniform-ish sample of the cone: pick z2 and t, set |z1| accordingly."""
    z2 = complex(rng.normal(), rng.normal())
    t = float(rng.normal())
    psi = rng.uniform(0.0, TWO_PI)
    z1 = math.sqrt(abs(z2) ** 2 + t * t) * complex(math.cos(psi), math.sin(psi))
    return ProjectivePoint(z1, z2, t)


def projective_act(g: MoebiusElement, p: ProjectivePoint) -> ProjectivePoint:
    """[z1, z2, t] -> [alpha z1 + beta conj(z2), alpha z2 + beta conj(z1), t].

    The cone quantity |z1|^2 - |z2|^2 is multiplied by |alpha|^2 - |beta|^2 = 1,
    so membership is preserved exactly up to roundoff."""
    a, b = g.alpha, g.beta
    return ProjectivePoint(
        a * p.z1 + b * p.z2.conjugate(),
        a * p.z2 + b * p.z1.conjugate(),
        p.t,
    )


def projective_f(z: complex, p: ProjectivePoint) -> complex:
    """The invariant fiberwise function (conj(u1) z - u2) / (-conj(u2) z + u1).

    Well defined on the projective class (ratio of linear forms), holomorphic
    in z on the open disc, and invariant under the simultaneous action on z
    and p.  The denominator can only vanish on the t = 0 degenerate locus."""
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError(f"|z| = {abs(z)} not inside the open disc")
    u1, u2 = p.z1, p.z2
    den = -u2.conjugate() * z + u1
    if abs(den) <= 1e-12:
        raise SingularPointError(
            "denominator vanishes (degenerate t = 0 locus of the cone)"
        )
    return (u1.conjugate() * z - u2) / den

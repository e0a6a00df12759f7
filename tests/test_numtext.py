"""The column formatter against the % operator, cell by cell."""

import math

import numpy as np
import pytest

from discdyn import _numtext
from discdyn._numtext import SHORT, cells, join


def _lines(column):
    return join([cells(column), b"\n"]).decode("ascii").split("\n")[:-1]


def _float_classes(rng, n):
    bits = rng.integers(0, 2**63, n, dtype=np.int64).view(float)
    pows = np.array([float("1e%d" % p) for p in range(-12, 24)] + [float(10**p) for p in range(24)])
    near = np.concatenate([pows, np.nextafter(pows, 0.0), np.nextafter(pows, np.inf)])
    dyadic = rng.integers(1, 2**53, n) / 2.0 ** rng.integers(0, 80, n)
    return {
        "bit patterns": np.concatenate([bits, -bits]),
        "uniform [-1, 1]": rng.uniform(-1.0, 1.0, n),
        "uniform [0, 7]": rng.uniform(0.0, 7.0, n),
        "log-uniform 1e-8..1e18": rng.choice([-1.0, 1.0], n) * 10 ** rng.uniform(-8, 18, n),
        "powers of ten and neighbours": np.concatenate([near, -near]),
        "specials": np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-6,
                              1e16, 9999999999999998.0, 1e-4, 0.0001, 99999.999999999985]),
        # every dyadic rational is exact in decimal, so many sit on a tie at digit 17
        "dyadic": np.concatenate([dyadic, -dyadic]),
        "half-way ties": _ties(rng, n),
    }


def _ties(rng, n):
    """Doubles k / 2^j, k odd, with 18 - j digits before the point: each has
    exactly 18 significant digits, the last a 5, half-way between two
    17-digit decimals."""
    out = []
    for j in range(2, 19):  # j = 1 would need k above 2^53
        lo, hi = 2**j * 10**17 // 10**j, min(2**j * 10**18 // 10**j, 2**53)
        out.append((2 * rng.integers(lo // 2, hi // 2, n) + 1) / 2.0**j)
    return np.concatenate(out)


@pytest.mark.parametrize("rows", [0, 1, SHORT - 1, SHORT, 20_000])
def test_floats_match_percent(rows):
    rng = np.random.default_rng(rows)
    for name, values in _float_classes(rng, max(rows, 1)).items():
        x = np.resize(values, rows)
        expect = ["%.17g" % v for v in x.tolist()]
        got = _lines(x)
        bad = [(w, g) for w, g in zip(expect, got) if w != g]
        assert len(got) == len(expect) and not bad, (name, bad[:5])


@pytest.mark.parametrize("rows", [0, 1, SHORT - 1, SHORT, 20_000])
def test_integers_match_percent(rows):
    rng = np.random.default_rng(rows)
    pool = np.concatenate([
        rng.integers(-10**18, 10**18, rows), rng.integers(0, 13, rows),
        [0, 9, 10, 10**15, 10**16 - 1, 10**16, 2**63 - 1, -2**63, -1],
    ])
    for values in (pool[:rows], np.resize(pool[-9:], rows), rng.integers(0, 2, rows).astype(bool),
                   rng.integers(0, 2**64, rows, dtype=np.uint64)):
        assert _lines(values) == ["%d" % v for v in values.tolist()]


def test_python_sequences_take_the_type_of_the_column():
    # row tuples zipped into columns: ints print as %d, floats as %.17g
    columns = list(zip(*[(n, 0.1 * n, -n * 1e-7) for n in range(3 * SHORT)]))
    line = join([cells(columns[0]), b",", cells(columns[1]), b",", cells(columns[2]), b"\n"])
    assert line.decode().splitlines() == ["%d,%.17g,%.17g" % row for row in zip(*columns)]


def test_decades_are_the_least_doubles_at_or_above_each_power():
    from fractions import Fraction
    for p, x in zip(range(-6, 17), _numtext._DECADES.tolist()):
        assert Fraction(x) >= Fraction(10) ** p > Fraction(math.nextafter(x, 0.0))

"""The three benchmark workloads: inputs from the seed, one op at a time, output checks.

Every workload is a closed loop driven by one client thread: the next op
starts when the previous one has returned and been checked.  Inputs come in
rounds of fixed composition; round r is generated from (seed, r) alone, so a
given seed always yields the same op sequence and a traced run replays the
first rounds of an untraced one.

- metric: one op is metric_distance(HarmonicFunction(f),
  translate_boundary(HarmonicFunction(f), g), CompactExhaustion()) for random
  f with 8 pieces (a merged difference of about 16) and g hyperbolic,
  parabolic or elliptic; the traced run adds f with 64 and 360 pieces (about
  128 and 720 merged).
- certify: in-process `discdyn.cli.main` runs of `dense`, `periodic` and
  `conjugate` on generated boundary files, every output re-checked.
- foliate: in-process `discdyn foliate --points 5000` with the word-length
  cap cycling through 4, 8, 12, a random base arc and a fresh seed per op.

`known_defect_ops` lists inputs that fail today.  They run once per run,
outside the timed loop, and are reported on their own, so the timed ops
succeed while the defect stays visible.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os

import numpy as np

import discdyn
import discdyn.cli
from discdyn import boundary, chaos, foliation, moebius, poisson

import oracle

TWO_PI = 2.0 * math.pi
# independent random streams: rounds of ops, warm-up op (the same for every
# seed, so set-up time does not depend on the seed), traced-run extras,
# known-defect inputs and the peak op (the same for every seed)
ROUND_STREAM, WARMUP_STREAM, PROBE_STREAM, DEFECT_STREAM, PEAK_STREAM = 0, 1, 2, 3, 4
PROBE_INDEX = 1_000_000


class Op:
    """One unit of work: `label` names its class, `run` is the timed call."""

    __slots__ = ("index", "label", "spec", "result")

    def __init__(self, index, label, spec):
        self.index = index
        self.label = label
        self.spec = spec
        self.result = None


def _unit_disc_values(rng, n):
    r = np.sqrt(rng.uniform(0.0, 1.0, n))
    return r * np.exp(1j * rng.uniform(0.0, TWO_PI, n))


def _random_boundary(rng, n):
    return np.sort(rng.uniform(0.0, TWO_PI, n)), _unit_disc_values(rng, n)


def _su11_compose(g, h):
    (a1, b1), (a2, b2) = g, h
    return a1 * a2 + b1 * np.conj(b2), a1 * b2 + b1 * np.conj(a2)


def _random_element(rng, kind):
    """(alpha, beta) of a random element of the given class."""
    t = rng.uniform(0.0, TWO_PI)
    spin = complex(math.cos(t), math.sin(t))
    if kind == "hyperbolic":
        # x -> lam x on the line, conjugated by the rotation through t
        u = 0.5 * math.log(rng.uniform(1.5, 4.0))
        return complex(math.cosh(u)), -math.sinh(u) * spin
    if kind == "parabolic":
        a = rng.uniform(0.5, 3.0)
        return complex(1.0, 0.5 * a), 0.5j * a * spin
    # elliptic: rotation by theta about the interior point w
    theta = rng.uniform(0.3, TWO_PI - 0.3)
    w = rng.uniform(0.0, 0.6) * spin
    s = 1.0 / math.sqrt(1.0 - abs(w) ** 2)
    tw = (complex(s), w * s)
    tw_inv = (complex(s), -w * s)
    rot = (complex(math.cos(theta / 2), math.sin(theta / 2)), 0j)
    return _su11_compose(_su11_compose(tw, rot), tw_inv)


def _run_cli(argv):
    """discdyn.cli.main(argv) with its stderr captured; returns (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = discdyn.cli.main(argv)
    return rc, err.getvalue()


def _data_rows(path):
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _read_bytes(paths):
    out = []
    for p in paths:
        with open(p, "rb") as fh:
            out.append(fh.read())
    return out


class Workload:
    """Base: rounds of ops, a warm-up op, per-op checks, post-run checks."""

    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = int(seed)
        self.workdir = workdir
        self._first = None
        self.round(0)  # input generation belongs to set-up

    @property
    def round_size(self) -> int:
        return len(self.ROUND)

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def ops(self):
        """Ops in order, round after round, without end."""
        for r in itertools.count():
            yield from self.round(r)

    def trace_ops(self) -> list[Op]:
        """The fixed op list of a traced run."""
        return self.round(0) + self.round(1)

    def warmup(self) -> None:
        raise NotImplementedError

    def run(self, op: Op):
        """The timed call; returns (succeeded, detail)."""
        raise NotImplementedError

    def check(self, op: Op, ok: bool, detail) -> str | None:
        """Reason the op's output is wrong, or None."""
        return None

    def output_files(self, op: Op) -> list[str]:
        return []

    def prepare(self, op: Op) -> None:
        """Untimed preparation of the op's input files."""

    def remember_first(self, op: Op, detail) -> None:
        self._first = (op, self.fingerprint(op, detail))

    def fingerprint(self, op: Op, detail):
        return _read_bytes(self.output_files(op))

    def repeat_first(self) -> bool:
        """Run the first op again; its outputs must be byte-identical."""
        if self._first is None:
            return False
        op, before = self._first
        self.prepare(op)
        ok, detail = self.run(op)
        return self.fingerprint(op, detail) == before

    def finish(self, done: list[Op]) -> dict:
        return {}

    def known_defect_ops(self) -> list[Op]:
        return []

    def peak_ops(self) -> list[Op]:
        """Ops run once, untimed, after the timed loop and before peak RSS is read."""
        return []

    def path(self, *parts) -> str:
        return os.path.join(self.workdir, *parts)


# --- metric ------------------------------------------------------------------


class MetricWorkload(Workload):
    name = "metric"
    # The timed stream is 8-piece data only.  Op cost spreads widely with the
    # data (cv about 1, slowest 1% of ops over 10x the median), and 64- and
    # 360-piece ops (0.1 to 10 s each) are too few per run to time steadily,
    # so the traced run adds them through SIZE_PROBES and the per-layer
    # metrics report all three classes; certify times large metric_norm
    # calls end to end.
    ROUND = (8,) * 32
    SIZE_PROBES = (64, 64, 64, 64, 64, 360)
    KINDS = ("hyperbolic", "hyperbolic", "parabolic", "elliptic")
    LABELS = {8: "p16", 64: "p128", 360: "p720"}

    def __init__(self, seed, workdir):
        self.ex = poisson.CompactExhaustion()
        self.s40 = float(np.sum(self.ex.weights()))
        super().__init__(seed, workdir)

    def _make_ops(self, rng, sizes, first, oracle_checked):
        ops = []
        for i, n in enumerate(sizes):
            br, vals = _random_boundary(rng, int(n))
            kind = self.KINDS[i % len(self.KINDS)]
            alpha, beta = _random_element(rng, kind)
            spec = {"br": br, "vals": vals, "alpha": alpha, "beta": beta, "oracle": oracle_checked}
            ops.append(Op(first + i, self.LABELS[int(n)], spec))
        return ops

    def round(self, r):
        rng = np.random.default_rng([self.seed, ROUND_STREAM, r])
        return self._make_ops(rng, rng.permutation(self.ROUND), r * len(self.ROUND), r == 0)

    def trace_ops(self):
        rng = np.random.default_rng([self.seed, PROBE_STREAM])
        return self.round(0) + self._make_ops(rng, self.SIZE_PROBES, PROBE_INDEX, True)

    def warmup(self):
        rng = np.random.default_rng([WARMUP_STREAM])
        self.run(self._make_ops(rng, (8,), -1, False)[0])

    def run(self, op):
        spec = op.spec
        h = poisson.HarmonicFunction(boundary.BoundaryFunction(spec["br"], spec["vals"]))
        g = moebius.MoebiusElement(spec["alpha"], spec["beta"])
        value, bar = poisson.metric_distance(h, chaos.translate_boundary(h, g), self.ex)
        return True, (value, bar)

    def check(self, op, ok, detail):
        value, bar = detail
        br, vals = op.spec["br"], op.spec["vals"]
        if not (math.isfinite(value) and math.isfinite(bar) and value >= 0.0 and bar >= 0.0):
            return f"non-finite or negative result {detail}"
        # |u| >= |u(0)| = |mean| on every circle, and |u| <= sup|data| <= 2 max|v|
        g = moebius.MoebiusElement(op.spec["alpha"], op.spec["beta"])
        moved = oracle.moebius_angles(g.alpha, g.beta, br)
        mean = abs(oracle.mean_value(br, vals) - oracle.mean_value(moved, vals))
        lo = self.s40 * mean - 1e-12
        hi = self.s40 * 2.0 * float(np.max(np.abs(vals))) + 1e-12
        if not lo <= value <= hi + bar:
            return f"value {value} outside [{lo}, {hi}] + bar {bar}"
        return None

    def fingerprint(self, op, detail):
        return detail

    def finish(self, done):
        """Oracle lower bound on round 0 and the size probes (outside the timed loop)."""
        shortfall = 0.0
        wrong = []
        checked = [op for op in done if op.spec["oracle"] and op.result is not None]
        for op in checked:
            value, bar = op.result
            br, vals = op.spec["br"], op.spec["vals"]
            g = moebius.MoebiusElement(op.spec["alpha"], op.spec["beta"])
            coeffs = oracle.translate_difference_coefficients(br, vals, g.alpha, g.beta)
            lower = oracle.norm_lower_bound(coeffs)
            shortfall = max(shortfall, lower - (value + bar))
            # gross disagreement means a wrong value, not a loose bar
            allowance = oracle.tail_allowance(2.0 * float(np.max(np.abs(vals))))
            if lower > value + bar + 1e-4 or value > lower + allowance + 1e-9:
                wrong.append(op.index)
        return {
            "bar_shortfall": max(shortfall, 0.0),
            "oracle_cases": len(checked),
            "oracle_wrong": wrong,
        }


# --- certify -----------------------------------------------------------------


class CliWorkload(Workload):
    """Ops that are in-process `discdyn.cli.main` runs writing output files."""

    def run(self, op):
        rc, err = _run_cli(op.spec["argv"])
        return rc == 0, (rc, err)

    def output_files(self, op):
        return op.spec["outs"]


class CertifyWorkload(CliWorkload):
    name = "certify"
    # (subcommand, element flags, options).  A round is two halves of the
    # same shape: two cheap runs (0.02 to 0.1 s), dense orbits at 4 levels
    # for all five elements (0.2 to 0.4 s), two costlier periodic runs (0.15
    # to 0.7 s) and one deeper dense orbit (0.7 to 2.6 s).  A timed run ends
    # on a round boundary, so every run executes both halves equally often.
    # Op cost varies with the data by a cv of 0.3 to 0.6 around each
    # configuration's typical cost, so the median is kept inside the largest
    # group of similar ops, the dense orbits at 4 levels, instead of in a gap
    # between groups.
    DENSE_L4 = tuple(
        ("dense", element, {"levels": 4})
        for element in (("--lambda", "2"), ("--lambda", "3"), ("--lambda", "10"),
                        ("--shift", "1"), ("--shift", "2"))
    )
    ROUND = (
        ("conjugate", "hyperbolic", {"pieces": 16}),
        ("periodic", ("--lambda", "2"), {"pieces": 4, "epsilon": "0.1"}),
        *DENSE_L4,
        ("periodic", ("--shift", "2"), {"pieces": 4, "epsilon": "0.05"}),
        ("periodic", ("--lambda", "3"), {"pieces": 16, "epsilon": "0.2"}),
        ("dense", ("--lambda", "10"), {"levels": 8}),
        ("conjugate", "parabolic", {"pieces": 4}),
        ("periodic", ("--lambda", "2"), {"pieces": 16, "epsilon": "0.05"}),
        *DENSE_L4,
        ("periodic", ("--shift", "1"), {"pieces": 4, "epsilon": "0.2"}),
        ("periodic", ("--shift", "1"), {"pieces": 4, "epsilon": "0.1"}),
        ("dense", ("--shift", "2"), {"levels": 6}),
    )
    # Run once after the timed loop on fixed data, the same in every run (1.5
    # to 2 s, untimed).  Its metric_defect makes extend_many calls of over 4M
    # (point, breakpoint) pairs, the kernel's chunk size, so every run reaches
    # the kernel's largest working set before peak_rss_mb is read; with
    # seeded data alone a run did so or not by chance, and peak_rss_mb spread
    # between 160 and 212 MB.
    PEAK_OP = ("periodic", ("--shift", "1"), {"pieces": 16, "epsilon": "0.05"})
    # `dense` takes no data file: its target family comes from the CLI's own
    # --seed.  That seed stays at the CLI default, so a dense op costs the
    # same in every run; family-to-family cost differences (a cv of about
    # 0.4) would otherwise dominate the run-to-run spread of the median.
    # Periodic and conjugacy inputs come from the benchmark seed.
    DENSE_FAMILY_SEED = 7
    # deep orbits only in the traced run
    TRACE_EXTRA = (
        ("dense", ("--shift", "1"), {"levels": 8}),
        ("dense", ("--lambda", "2"), {"levels": 6}),
    )
    # lambda^k_n passes 1e16 at level 10 and the element build cancels: exit 1
    KNOWN_DEFECTS = (("dense", ("--lambda", "10"), {"levels": 10}),)

    def round(self, r):
        rng = np.random.default_rng([self.seed, ROUND_STREAM, r])
        return [self._make_op(rng, r * len(self.ROUND) + i, conf)
                for i, conf in enumerate(self.ROUND)]

    def trace_ops(self):
        """Round 0 plus TRACE_EXTRA."""
        rng = np.random.default_rng([self.seed, PROBE_STREAM])
        return self.round(0) + [
            self._make_op(rng, PROBE_INDEX + i, conf) for i, conf in enumerate(self.TRACE_EXTRA)
        ]

    def _make_op(self, rng, idx, conf):
        cmd, element, opts = conf
        if cmd == "dense":
            out = self.path("dense.csv")
            argv = ["dense", *element, "--levels", str(opts["levels"]),
                    "--seed", str(self.DENSE_FAMILY_SEED), "--out", out]
            label = f"dense{''.join(element)}-L{opts['levels']}"
            return Op(idx, label, {"argv": argv, "outs": [out], "levels": opts["levels"]})
        bpath = self.path(f"f{idx % len(self.ROUND)}.json")
        br, vals = _random_boundary(rng, opts["pieces"])
        data = json.dumps(
            {"breakpoints": br.tolist(), "values": [[v.real, v.imag] for v in vals]}
        )
        if cmd == "periodic":
            out = self.path("periodic")
            argv = ["periodic", "--boundary", bpath, "--epsilon", opts["epsilon"], *element, "--out", out]
            label = f"periodic{''.join(element)}-p{opts['pieces']}-e{opts['epsilon']}"
            spec = {"argv": argv, "outs": [out + ".csv", out + ".json"], "epsilon": float(opts["epsilon"])}
        else:
            alpha1, beta1 = _random_element(rng, element)
            if element == "hyperbolic":
                second = ["--lambda2", repr(rng.uniform(1.5, 4.0))]
            else:
                second = ["--shift2", repr(rng.uniform(0.5, 3.0))]
            out = self.path("conjugate.json")
            argv = [
                "conjugate", "--alpha1", repr(alpha1), "--beta1", repr(beta1), *second,
                "--boundary", bpath, "--out", out,
            ]
            label = f"conjugate-{element}-p{opts['pieces']}"
            spec = {"argv": argv, "outs": [out], "kind": element}
        spec["boundary"] = (bpath, data)
        return Op(idx, label, spec)

    def prepare(self, op):
        """Write the op's boundary file (outside the timed call)."""
        if "boundary" in op.spec:
            path, data = op.spec["boundary"]
            with open(path, "w") as fh:
                fh.write(data)

    def warmup(self):
        rng = np.random.default_rng([WARMUP_STREAM])
        op = self._make_op(rng, -1, ("dense", ("--lambda", "2"), {"levels": 4}))
        self.run(op)

    def check(self, op, ok, detail):
        rc, err = detail
        if rc == 1:
            return None  # usage or input error: no output to check
        spec = op.spec
        try:
            cmd = spec["argv"][0]
            if cmd == "dense":
                rows = _data_rows(spec["outs"][0])
                if len(rows) != spec["levels"]:
                    return f"{len(rows)} rows for {spec['levels']} levels"
                holds = all(
                    float(r["dist"]) <= float(r["bound"]) + float(r["error_bar"]) for r in rows
                )
            elif cmd == "periodic":
                (row,) = _data_rows(spec["outs"][0])
                holds = float(row["metric_defect"]) + float(row["metric_bar"]) <= spec["epsilon"]
                with open(spec["outs"][1]) as fh:
                    f = boundary.BoundaryFunction.from_json(fh.read())
                if f.breakpoints.size and not np.all(np.diff(f.breakpoints) > 0):
                    return "periodic boundary output not sorted"
            else:
                with open(spec["outs"][0]) as fh:
                    doc = json.load(fh)
                if doc["kind"] != spec["kind"]:
                    return f"conjugacy kind {doc['kind']} for a {spec['kind']} pair"
                holds = doc["intertwine_residual"] <= 1e-9 + doc["residual_bar"]
        except (OSError, ValueError, KeyError) as e:
            return f"unreadable output: {e!r}"
        if holds != (rc == 0):
            return f"exit code {rc} disagrees with the re-checked inequality ({holds})"
        return None

    def known_defect_ops(self):
        rng = np.random.default_rng([self.seed, DEFECT_STREAM])
        return [self._make_op(rng, -2, conf) for conf in self.KNOWN_DEFECTS]

    def peak_ops(self):
        return [self._make_op(np.random.default_rng([PEAK_STREAM]), -3, self.PEAK_OP)]


# --- foliate -----------------------------------------------------------------


class FoliateWorkload(CliWorkload):
    name = "foliate"
    POINTS = 5000
    GRID = 32
    ROUND = (4, 8, 12) * 2

    def __init__(self, seed, workdir):
        foliation.genus2_group()  # group construction belongs to set-up
        super().__init__(seed, workdir)

    def round(self, r):
        rng = np.random.default_rng([self.seed, ROUND_STREAM, r])
        return [
            self._make_op(r * len(self.ROUND) + i, length, rng)
            for i, length in enumerate(self.ROUND)
        ]

    def _make_op(self, idx, length, rng):
        out = self.path("foliate")
        argv = [
            "foliate", "--points", str(self.POINTS), "--max-word-len", str(length),
            "--base-theta", repr(rng.uniform(0.3, TWO_PI - 0.3)),
            "--seed", str(int(rng.integers(0, 2**31))),
            "--grid", str(self.GRID), "--out", out,
        ]
        return Op(idx, f"L{length}", {"argv": argv, "outs": [out + ".csv", out + ".json"],
                                      "length": length, "points": self.POINTS})

    def warmup(self):
        self.run(self._make_op(-1, 4, np.random.default_rng([WARMUP_STREAM])))

    def check(self, op, ok, detail):
        rc, err = detail
        if rc != 0:
            return None
        spec = op.spec
        try:
            rows = _data_rows(spec["outs"][0])
            with open(spec["outs"][1]) as fh:
                doc = json.load(fh)
            cov, cells = float(doc["coverage"]), int(doc["cells"])
            lo, hi = 0.2, TWO_PI - 0.2
            occupied = set()
            for r in rows:
                length = int(r["word_length"])
                z = complex(float(r["zeta_re"]), float(r["zeta_im"]))
                theta = float(r["theta"])
                if not (0 <= length <= spec["length"] and abs(abs(z) - 1.0) <= 1e-9
                        and 0.0 <= theta <= TWO_PI):
                    return f"bad orbit row {r}"
                if lo <= theta <= hi:
                    ang = math.atan2(z.imag, z.real) % TWO_PI
                    i = min(self.GRID - 1, int(ang / (TWO_PI / self.GRID)))
                    j = min(self.GRID - 1, int((theta - lo) / ((hi - lo) / self.GRID)))
                    occupied.add((i, j))
        except (OSError, ValueError, KeyError, IndexError) as e:
            return f"unreadable output: {e!r}"
        if len(rows) != spec["points"] or int(doc["points"]) != spec["points"]:
            return f"{len(rows)} rows for {spec['points']} points"
        if not 0.0 <= cov <= 1.0 or cells != round(cov * self.GRID**2):
            return f"coverage {cov} and cells {cells} disagree"
        if cells != len(occupied):
            return f"{cells} cells reported, {len(occupied)} occupied in the CSV"
        return None


WORKLOADS = {w.name: w for w in (MetricWorkload, CertifyWorkload, FoliateWorkload)}

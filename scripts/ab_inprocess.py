#!/usr/bin/env python3
"""In-process A/B timing of one op kind between two source trees.

Both trees' `src/discdyn` are imported into one process, and their runs of
one fixed list of ops alternate.  `--op metric` runs
`metric_distance(HarmonicFunction(f), translate_boundary(HarmonicFunction(f), g),
CompactExhaustion())` (random f with 8 pieces; g hyperbolic, hyperbolic,
parabolic, elliptic in turn) and compares the (value, bar) pairs.
`--op foliate` runs `cli.main(["foliate", "--points", "5000", ...])` (word
lengths 4, 8, 12 in turn, random base arc and seed) and compares the bytes
of the CSV and JSON each op writes, its --out path replaced.  Each
alternation times every op on both sides, in an order that swaps from one
alternation to the next.  Both sides see the same machine state, so this
separates small per-op changes that separate-process pairs lose in the
machine's own drift; it supplements those pairs and does not replace them.

Example:
    python3 scripts/ab_inprocess.py ../parent . --ops 200 --alternations 20 --seed 4321
    python3 scripts/ab_inprocess.py ../parent . --op foliate --ops 60 --alternations 10
"""

import argparse
import importlib
import math
import os
import statistics
import sys
import tempfile
import time

import numpy as np

TWO_PI = 2.0 * math.pi


def _pop_package() -> dict:
    return {m: sys.modules.pop(m) for m in list(sys.modules)
            if m == "discdyn" or m.startswith("discdyn.")}


def load(tree: str):
    """The `discdyn` package of tree/src, imported apart from any other copy;
    a copy imported before is left in place."""
    before = _pop_package()
    sys.path.insert(0, os.path.join(os.path.abspath(tree), "src"))
    try:
        importlib.import_module("discdyn.cli")
        return importlib.import_module("discdyn")
    finally:
        del sys.path[0]
        _pop_package()  # the package keeps its own submodules
        sys.modules.update(before)


def _compose(g, h):
    """(alpha, beta) of g o h in SU(1,1)."""
    (a1, b1), (a2, b2) = g, h
    return a1 * a2 + b1 * b2.conjugate(), a1 * b2 + b1 * a2.conjugate()


def make_metric_ops(n_ops: int, seed: int) -> list:
    """(breakpoints, values, alpha, beta) of the `metric` op, n_ops of them."""
    rng = np.random.default_rng(seed)
    ops = []
    for i in range(n_ops):
        br = np.sort(rng.uniform(0.0, TWO_PI, 8))
        vals = np.sqrt(rng.uniform(0.0, 1.0, 8)) * np.exp(1j * rng.uniform(0.0, TWO_PI, 8))
        spin = complex(np.exp(1j * rng.uniform(0.0, TWO_PI)))
        kind = ("hyperbolic", "hyperbolic", "parabolic", "elliptic")[i % 4]
        if kind == "hyperbolic":
            u = 0.5 * math.log(rng.uniform(1.5, 4.0))
            alpha, beta = complex(math.cosh(u)), -math.sinh(u) * spin
        elif kind == "parabolic":
            a = rng.uniform(0.5, 3.0)
            alpha, beta = complex(1.0, 0.5 * a), 0.5j * a * spin
        else:  # rotation by theta about the interior point w
            theta = rng.uniform(0.3, TWO_PI - 0.3)
            w = rng.uniform(0.0, 0.6) * spin
            s = 1.0 / math.sqrt(1.0 - abs(w) ** 2)
            rot = (complex(math.cos(theta / 2), math.sin(theta / 2)), 0j)
            alpha, beta = _compose(_compose((complex(s), w * s), rot), (complex(s), -w * s))
        ops.append((br, vals, alpha, beta))
    return ops


def run_metric_ops(pkg, ops, outdir) -> tuple[float, list]:
    """Seconds for all ops, and their (value, bar); outdir is unused."""
    ex = pkg.CompactExhaustion()
    out = []
    t0 = time.perf_counter()
    for br, vals, alpha, beta in ops:
        h = pkg.HarmonicFunction(pkg.BoundaryFunction(br, vals))
        g = pkg.MoebiusElement(alpha, beta)
        out.append(pkg.metric_distance(h, pkg.translate_boundary(h, g), ex))
    return time.perf_counter() - t0, out


def make_foliate_ops(n_ops: int, seed: int) -> list:
    """Argument lists of the `foliate` op, without --out, n_ops of them."""
    rng = np.random.default_rng(seed)
    return [
        ["foliate", "--points", "5000", "--max-word-len", str((4, 8, 12)[i % 3]),
         "--base-theta", repr(rng.uniform(0.3, TWO_PI - 0.3)),
         "--seed", str(int(rng.integers(0, 2**31))), "--grid", "32"]
        for i in range(n_ops)
    ]


def run_foliate_ops(pkg, ops, outdir) -> tuple[float, list]:
    """Seconds for all ops, and each op's exit code and output bytes with
    its --out path replaced by "OUT"."""
    seconds, out = 0.0, []
    for i, argv in enumerate(ops):
        stem = os.path.join(outdir, f"op{i}")
        t0 = time.perf_counter()
        rc = pkg.cli.main(argv + ["--out", stem])
        seconds += time.perf_counter() - t0
        texts = []
        for ext in (".csv", ".json"):
            with open(stem + ext, "rb") as fh:
                texts.append(fh.read().replace(stem.encode(), b"OUT"))
        out.append((rc, texts))
    return seconds, out


OPS = {"metric": (make_metric_ops, run_metric_ops), "foliate": (make_foliate_ops, run_foliate_ops)}


def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], statistics.median(xs), q[2]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", help="source tree A (holds src/discdyn)")
    ap.add_argument("change", help="source tree B (holds src/discdyn)")
    ap.add_argument("--op", choices=sorted(OPS), default="metric")
    ap.add_argument("--ops", type=int, default=200)
    ap.add_argument("--alternations", type=int, default=20)
    ap.add_argument("--seed", type=int, default=4321)
    args = ap.parse_args(argv)

    make, run = OPS[args.op]
    sides = {"parent": load(args.parent), "change": load(args.change)}
    ops = make(args.ops, args.seed)
    per_op = {name: [] for name in sides}
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        outdirs = {name: os.path.join(tmp, name) for name in sides}
        for name, pkg in sides.items():  # warm-up, untimed
            os.mkdir(outdirs[name])
            run(pkg, ops[:4], outdirs[name])
        for i in range(args.alternations):
            order = list(sides) if i % 2 == 0 else list(sides)[::-1]
            for name in order:
                seconds, results[name] = run(sides[name], ops, outdirs[name])
                per_op[name].append(seconds / len(ops))
    wins = sum(c < p for p, c in zip(per_op["parent"], per_op["change"]))
    for name, times in per_op.items():
        q1, med, q3 = quartiles(times)
        print(f"{name}: per op median {med * 1e3:.4f} ms, quartiles {q1 * 1e3:.4f}-{q3 * 1e3:.4f} ms")
    speedup = statistics.median(per_op["parent"]) / statistics.median(per_op["change"])
    print(f"change wins {wins}/{args.alternations}, speed-up x{speedup:.3f}")
    same = sum(a == b for a, b in zip(results["parent"], results["change"]))
    if args.op == "foliate":
        print(f"identical (exit code, CSV, JSON): {same}/{len(ops)}")
        return 0 if same == len(ops) else 1
    apart = max(abs(a[0] - b[0]) / (a[1] + b[1]) if a != b else 0.0
                for a, b in zip(results["parent"], results["change"]))
    print(f"identical (value, bar): {same}/{len(ops)}; largest |value gap| / (sum of bars): {apart:.3g}")
    return 0 if apart <= 1.0 else 1


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""In-process A/B timing of one op kind between two source trees.

Both trees' `src/discdyn` are imported into one process, and their runs of
one fixed list of ops alternate.  `--op metric` runs
`metric_distance(HarmonicFunction(f), translate_boundary(HarmonicFunction(f), g),
CompactExhaustion())` (random f with 8 pieces; g hyperbolic, hyperbolic,
parabolic, elliptic in turn) and compares the (value, bar) pairs.
`--op foliate` runs `cli.main(["foliate", "--points", "5000", ...])` (word
lengths 4, 8, 12 in turn, random base arc and seed) and compares the exit
code and the bytes each op writes, its --out path replaced (`run_cli_ops`,
which `cli_battery.py` shares).  `--op orbit` (20 steps) and `--op limit`
(40 rows) run those commands on random boundary files of 2 to 64 pieces
under --lambda in [1.5, 4] or --shift in [0.5, 3], so their time per op is
a fixed number of rows; they count identical outputs but do not require
them.  Each
alternation times every op on both sides, in an order that swaps from one
alternation to the next.  Both sides see the same machine state, so this
separates small per-op changes that separate-process pairs lose in the
machine's own drift; it supplements those pairs and does not replace them.
The tree imported first can run faster or slower for that alone, so half
the alternations run in a child interpreter that imports the parent first
and half in one that imports the change first, one child after the other;
the script prints each order's speed-up and wins next to the pooled figures.

Example:
    python3 scripts/ab_inprocess.py ../parent . --ops 200 --alternations 20 --seed 4321
    python3 scripts/ab_inprocess.py ../parent . --op foliate --ops 60 --alternations 10
    python3 scripts/ab_inprocess.py ../parent . --op orbit --ops 20 --alternations 10
"""

import argparse
import contextlib
import functools
import glob
import importlib
import io
import json
import math
import os
import statistics
import subprocess
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


def make_metric_ops(n_ops: int, seed: int, workdir: str) -> list:
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


def make_foliate_ops(n_ops: int, seed: int, workdir: str) -> list:
    """Argument lists of the `foliate` op, without --out, n_ops of them."""
    rng = np.random.default_rng(seed)
    return [
        ["foliate", "--points", "5000", "--max-word-len", str((4, 8, 12)[i % 3]),
         "--base-theta", repr(rng.uniform(0.3, TWO_PI - 0.3)),
         "--seed", str(int(rng.integers(0, 2**31))), "--grid", "32"]
        for i in range(n_ops)
    ]


def run_cli_ops(pkg, ops, outdir) -> tuple[float, list]:
    """Seconds for all ops, and per op its exit code (or the exception it
    raised) and the bytes it writes by name: "stderr" for its standard error
    text when there is any, "" for the file --out OUT itself and ".ext" for
    OUT.ext.  The --out path reads "OUT" in all of them."""
    seconds, out = 0.0, []
    for i, argv in enumerate(ops):
        stem, err = os.path.join(outdir, f"op{i}"), io.StringIO()
        with contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = pkg.cli.main(argv + ["--out", stem])
            except Exception as e:
                rc = f"raised {type(e).__name__}: {e}"
            seconds += time.perf_counter() - t0
        texts = {"stderr": err.getvalue().encode()} if err.getvalue() else {}
        for path in [stem] * os.path.exists(stem) + glob.glob(glob.escape(stem) + ".*"):
            with open(path, "rb") as fh:
                texts[path[len(stem):]] = fh.read()
        out.append((rc, {k: v.replace(stem.encode(), b"OUT") for k, v in texts.items()}))
    return seconds, out


def make_orbit_ops(n_ops: int, seed: int, workdir: str, command="orbit") -> list:
    """Argument lists of the `orbit` (or `limit`) op, without --out; their
    boundary files are written to workdir."""
    rng = np.random.default_rng(seed)
    ops = []
    for i in range(n_ops):
        n = int(rng.integers(2, 65))
        br = np.sort(rng.uniform(0.0, TWO_PI, n))
        vals = np.sqrt(rng.uniform(0.0, 1.0, n)) * np.exp(1j * rng.uniform(0.0, TWO_PI, n))
        path = os.path.join(workdir, f"{command}{i}.json")
        pairs = vals.view(float).reshape(-1, 2).tolist()
        with open(path, "w") as fh:
            json.dump({"breakpoints": br.tolist(), "values": pairs}, fh)
        if i % 2 == 0:
            rate = ["--lambda", repr(rng.uniform(1.5, 4.0))]
        else:
            rate = ["--shift", repr(rng.uniform(0.5, 3.0))]
        rows = ["--steps", "20"] if command == "orbit" else ["--nmax", "40"]
        ops.append([command, "--boundary", path, *rate, *rows])
    return ops


OPS = {
    "metric": (make_metric_ops, run_metric_ops),
    "foliate": (make_foliate_ops, run_cli_ops),
    "orbit": (make_orbit_ops, run_cli_ops),
    "limit": (functools.partial(make_orbit_ops, command="limit"), run_cli_ops),
}


def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], statistics.median(xs), q[2]


def _alternate(args, first: str, alternations: int) -> tuple[dict, list, list]:
    """With the tree of side `first` imported first: each side's seconds per
    op in each alternation; per op, whether both sides' outputs are
    identical; and for `metric`, per op |value gap| / (sum of bars)."""
    make, run = OPS[args.op]
    order = [first, ({"parent", "change"} - {first}).pop()]
    sides = {name: load(getattr(args, name)) for name in order}
    per_op = {name: [] for name in ("parent", "change")}
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        ops = make(args.ops, args.seed, tmp)
        outdirs = {name: os.path.join(tmp, name) for name in sides}
        for name, pkg in sides.items():  # warm-up, untimed
            os.mkdir(outdirs[name])
            run(pkg, ops[:4], outdirs[name])
        for i in range(alternations):
            for name in per_op if i % 2 == 0 else list(per_op)[::-1]:
                seconds, results[name] = run(sides[name], ops, outdirs[name])
                per_op[name].append(seconds / len(ops))
    pairs = list(zip(results["parent"], results["change"]))
    gaps = [abs(a[0] - b[0]) / (a[1] + b[1]) if a != b else 0.0
            for a, b in pairs] if args.op == "metric" else []
    return per_op, [a == b for a, b in pairs], gaps


def _in_child(args, first: str, alternations: int) -> tuple[dict, list, list]:
    """`_alternate` in a new interpreter, so that nothing it imports stays in this one."""
    code = ("import argparse, json, sys; sys.path.insert(0, sys.argv[1]); import ab_inprocess as ab; "
            "print(json.dumps(ab._alternate(argparse.Namespace(**json.loads(sys.argv[2])), "
            "sys.argv[3], int(sys.argv[4]))))")
    argv = [sys.executable, "-c", code, os.path.dirname(os.path.abspath(__file__)),
            json.dumps(vars(args)), first, str(alternations)]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _speedup(per_op) -> tuple[int, float]:
    wins = sum(c < p for p, c in zip(per_op["parent"], per_op["change"]))
    return wins, statistics.median(per_op["parent"]) / statistics.median(per_op["change"])


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

    half = (args.alternations + 1) // 2
    orders = {"parent": half, "change": args.alternations - half}
    runs = {first: _in_child(args, first, n) for first, n in orders.items() if n}
    per_op = {name: [t for r in runs.values() for t in r[0][name]] for name in ("parent", "change")}
    for name, times in per_op.items():
        q1, med, q3 = quartiles(times)
        print(f"{name}: per op median {med * 1e3:.4f} ms, quartiles {q1 * 1e3:.4f}-{q3 * 1e3:.4f} ms")
    wins, speedup = _speedup(per_op)
    print(f"change wins {wins}/{args.alternations}, speed-up x{speedup:.3f}")
    for first, (times, _, _) in runs.items():
        w, s = _speedup(times)
        print(f"  {first} imported first: change wins {w}/{orders[first]}, speed-up x{s:.3f}")
    same = sum(all(t) for t in zip(*[r[1] for r in runs.values()]))  # identical in both orders
    if args.op != "metric":
        print(f"identical (exit code, CSV, JSON): {same}/{args.ops}")
        return 0 if same == args.ops or args.op != "foliate" else 1
    apart = max(g for r in runs.values() for g in r[2])
    print(f"identical (value, bar): {same}/{args.ops}; largest |value gap| / (sum of bars): {apart:.3g}")
    return 0 if apart <= 1.0 else 1


if __name__ == "__main__":
    raise SystemExit(main())

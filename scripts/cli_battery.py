#!/usr/bin/env python3
"""Byte-for-byte comparison of two source trees over a fixed CLI battery.

One seeded list of runs of `act`, `orbit`, `limit`, `conjugate`, `periodic`
and `dense` covers the rates --lambda 0.5, 2, 1e-7, 1e7, 1e-14, 1e17, 1e-300
and --shift -3, 1e9, random elements given as --alpha/--beta, and boundary
files of 2 to 64 pieces, a third of them with a cut at angle 0, plus the
two-piece file with cuts 0 and 6.28; one `limit --lambda 1.001 --nmax 500`
run follows a long orbit.  Every other command that writes numbers runs
too: `foliate --points 500` at word lengths 4, 12 and 40 from base arcs of
length 1e-3, pi and 2pi - 1e-3, whose short and near-full arcs print with
2- and 3-digit exponents, one `extend`, one `arcflow --base-theta 1e-07`,
`arcflow` at --lambda 1e17 and 1e-17 and --shift 1e9, rates whose group
element double precision cannot hold, and one `projective`.  Last come
`conjugate` runs of valid pairs that once exited 1 (`CONJUGATE_PAIRS`), on
the default data and on one file, then `periodic` runs at epsilon 2, 0.63,
0.1, 0.05 and 0.01 for each of `PERIODIC_RATES`, the boundary files taken in
turn; being last, they move no seeded draw.  Both trees are imported into this process
(`ab_inprocess.load`) and run the whole list on the same input files through
`ab_inprocess.run_cli_ops`.  The script prints how many runs end with equal
exit codes and how many outputs are byte-identical, and names each output
that differs.  An output is a file a run writes, or its standard error text
when there is any.  A differing output is measured too:
- `act` under --lambda/--shift: each side's worst cut, its distance to the
  nearest 60-digit `mpmath` image of an input cut;
- `orbit`: the largest |norm gap| over the sum of both sides' bars;
- `limit`: the largest gap of an oscillation or value;
- `conjugate`: each side's exit code, exponent, residual and bar, and
  whether residual <= tol + bar holds;
- `periodic`: each side's CSV row and its count of JSON breakpoints;
- `foliate` and `arcflow`: the largest relative change of theta over the
  rows where the parent's theta exceeds 1e-12, and how many rows it left at
  or below 1e-12.
The exit status is 0 when everything agrees and 1 otherwise.

Example:
    python3 scripts/cli_battery.py ../parent .
"""

import json
import math
import os
import sys
import tempfile

import mpmath
import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from ab_inprocess import load, run_cli_ops  # noqa: E402

TWO_PI = 2.0 * math.pi
RATES = ([["--lambda", x] for x in ("0.5", "2", "1e-07", "10000000", "1e-14", "1e17", "1e-300")]
         + [["--shift", "-3"], ["--shift", "1e9"]])
PIECES = [2, 3, 4, 5, 6, 8, 12, 16, 24, 32, 48, 64]
CONJUGATE_PAIRS = [
    ["--alpha1", "(1+0.014736396890952236j)",
     "--beta1", "(-2.3905587909210686e-05+0.014736377500944415j)", "--shift2", "1"],
    ["--alpha1", "(1.0000000006517336+0.009100889922343883j)",
     "--beta1", "(-0.009074674443915812-0.0006912196338078015j)", "--lambda2", "2"],
    ["--alpha1", "(0.9999999998690328+3281.428150044824j)",
     "--beta1", "(-51.109215683388584-3281.030105314309j)", "--shift2", "1"],
    ["--lambda1", "1e7", "--lambda2", "2"],
    ["--lambda1", "1e10", "--lambda2", "2"],
]
PERIODIC_RATES = [["--lambda", "1.001"], ["--lambda", "3"], ["--lambda", "1e100"],
                  ["--shift", "1e-6"], ["--shift", "0.3"], ["--shift", "2"]]


def _element(rng, suffix="") -> list[str]:
    """--alpha/--beta (with the suffix) of rotation * boost * rotation, boosts up to e^12."""
    t, p = rng.uniform(0.0, TWO_PI, 2)
    u = 0.5 * rng.uniform(-12.0, 12.0)
    alpha = math.cosh(u) * complex(math.cos(0.5 * (t + p)), math.sin(0.5 * (t + p)))
    beta = math.sinh(u) * complex(math.cos(0.5 * (t - p)), math.sin(0.5 * (t - p)))
    return ["--alpha" + suffix, f"({alpha.real!r}{alpha.imag:+.17g}j)",
            "--beta" + suffix, f"({beta.real!r}{beta.imag:+.17g}j)"]


def make_inputs(rng) -> dict[str, str]:
    """Boundary files by name: one per entry of PIECES, every third with a cut
    at 0, and "edge" with cuts 0 and 6.28."""
    files = {"edge": '{"breakpoints": [0.0, 6.28], "values": [[0.3, 0.0], [0.0, -0.7]]}'}
    for i, n in enumerate(PIECES):
        br = np.sort(rng.uniform(0.0, TWO_PI, n))
        if i % 3 == 0:
            br[0] = 0.0
        r, a = np.sqrt(rng.uniform(0.0, 1.0, n)), rng.uniform(0.0, TWO_PI, n)
        pairs = [[x * math.cos(y), x * math.sin(y)] for x, y in zip(r, a)]
        files[f"p{n:02d}"] = json.dumps({"breakpoints": br.tolist(), "values": pairs})
    return files


def make_runs(rng, names: list[str], inputs: str) -> list[list[str]]:
    """The argv list, without --out; boundary files are read from inputs/NAME.json."""
    runs = []

    def bdry(name):
        return ["--boundary", os.path.join(inputs, f"{name}.json")]

    for name in names:  # 13 files x (6 rates + 1 random element)
        runs += [["act", *bdry(name), *r] for r in RATES + [_element(rng)]]
    for i, r in enumerate(RATES + [_element(rng), _element(rng)]):
        for name in ("edge", names[1 + i % 6], names[7 + i % 6]):
            runs.append(["orbit", *bdry(name), *r, "--steps", "3"])
        for name in ("edge", names[1 + i]):
            runs.append(["limit", *bdry(name), *r, "--nmax", "3"])
    pairs = [["--lambda1", "2", "--lambda2", "10000000"], ["--lambda1", "1e-07", "--lambda2", "2"],
             ["--lambda1", "0.5", "--lambda2", "1e-14"], ["--shift1", "-3", "--shift2", "1"],
             ["--lambda1", "2", "--shift2", "-3"]]
    for i in range(12):
        pair = pairs[i] if i < len(pairs) else _element(rng, "1") + _element(rng, "2")
        runs.append(["conjugate", *bdry(names[i % len(names)]), *pair])
    for i, r in enumerate(RATES):
        runs.append(["periodic", *bdry(("edge", "p02", "p03")[i % 3]), *r, "--epsilon", "0.3"])
        runs.append(["dense", *r, "--levels", "3"])
    runs.append(["limit", *bdry(names[5]), "--lambda", "1.001", "--nmax", "500"])
    for length in ("4", "12", "40"):
        for theta in ("0.001", repr(math.pi), repr(TWO_PI - 1e-3)):
            runs.append(["foliate", "--points", "500", "--max-word-len", length, "--base-theta", theta])
    runs.append(["extend", *bdry(names[4]), "--grid", "32"])
    runs.append(["arcflow", "--lambda", "2", "--base-theta", "1e-07", "--steps", "200"])
    runs += [["arcflow", *r] for r in (["--lambda", "1e17"], ["--lambda", "1e-17"], ["--shift", "1e9"])]
    runs.append(["projective"])
    for pair in CONJUGATE_PAIRS:
        runs += [["conjugate", *pair], ["conjugate", *bdry(names[3]), *pair]]
    periodic = [(eps, r) for eps in ("2", "0.63", "0.1", "0.05", "0.01") for r in PERIODIC_RATES]
    for i, (eps, r) in enumerate(periodic):
        runs.append(["periodic", *bdry(names[i % len(names)]), *r, "--epsilon", eps])
    return runs


def _flag(argv, name):
    return argv[argv.index(name) + 1] if name in argv else None


def worst_cut_error(cuts, argv, out) -> str:
    """Largest distance from a cut of the `act` output `out` to the nearest
    60-digit image of an input cut under the run's x -> lambda x or x + shift.
    The cut at the double pi is the point at infinity, as the package has it."""
    if out is None:
        return "no output"
    lam, shift = _flag(argv, "--lambda"), _flag(argv, "--shift")
    with mpmath.workdps(60):
        two_pi, images = 2 * mpmath.pi, []
        for s in cuts:
            x = mpmath.inf if s == math.pi else mpmath.tan(mpmath.mpf(s) / 2)
            y = x * mpmath.mpf(lam) if shift is None else x + mpmath.mpf(shift)
            images.append(mpmath.fmod(2 * mpmath.atan(y) + two_pi, two_pi))
        near, worst = np.array([float(v) for v in images]), 0.0
        for c in json.loads(out)["breakpoints"]:
            # the exact distance to every image within 1e-12 of the nearest
            d = np.abs(np.mod(c - near + math.pi, TWO_PI) - math.pi)
            gaps = [mpmath.fmod(mpmath.mpf(c) - images[j] + 3 * mpmath.pi, two_pi) - mpmath.pi
                    for j in np.flatnonzero(d <= d.min() + 1e-12)]
            worst = max(worst, min(float(abs(g)) for g in gaps))
    return f"{worst:.3g}"


def _csv_rows(out) -> np.ndarray:
    """The data rows of a CSV output as one float array, a column per name."""
    lines = [ln for ln in out.decode().splitlines() if not ln.startswith("#")]
    rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    return np.array(rows).reshape(len(rows), len(lines[0].split(",")))


def conjugate_verdict(argv, rc, out) -> str:
    """A `conjugate` run's exit code, exponent, residual and bar, and its gate."""
    if out is None:
        return f"exit {rc}"
    doc, tol = json.loads(out), float(_flag(argv, "--tol") or 1e-9)
    res, bar = doc["intertwine_residual"], doc["residual_bar"]
    return (f"exit {rc}, exponent {doc['exponent']!r}, residual {res:.3g}, bar {bar:.3g}, "
            f"residual <= tol + bar: {res <= tol + bar}")


def periodic_summary(outs) -> str:
    """A `periodic` run's CSV data row and its count of JSON breakpoints."""
    if ".csv" not in outs or ".json" not in outs:
        return "no output"
    *_, row = outs[".csv"].decode().splitlines()
    cuts = json.loads(outs[".json"])["breakpoints"]
    return f"CSV row {row} with {len(cuts)} JSON breakpoints"


def theta_change(out_a, out_b) -> str:
    """The largest relative change of the theta column (the last) over the
    rows where the parent's theta exceeds 1e-12, and the count of the others."""
    if out_a is None or out_b is None:
        return "; one side wrote no CSV"
    a, b = _csv_rows(out_a)[:, -1], _csv_rows(out_b)[:, -1]
    if a.shape != b.shape:
        return "; row counts differ"
    resolved = a > 1e-12
    rel = np.abs(b[resolved] - a[resolved]) / a[resolved]
    return (f"; theta moves <= {np.max(rel, initial=0.0):.3g} relative on the {resolved.sum()} "
            f"rows the parent resolved; parent rows at or below 1e-12: {(~resolved).sum()}")


def measure(cuts, argv, key, rcs, outs_a, outs_b) -> str:
    """What a differing output of `periodic`, a differing CSV of `foliate` or
    `arcflow`, or a differing --out file of `act`, `orbit`, `limit` or
    `conjugate`, moved by; rcs are the two exit codes and outs_a, outs_b each
    side's outputs by name."""
    if argv[0] == "periodic" and key != "stderr":
        return f"; parent {periodic_summary(outs_a)}; change {periodic_summary(outs_b)}"
    if (argv[0], key) in (("foliate", ".csv"), ("arcflow", "")):
        return theta_change(outs_a.get(key), outs_b.get(key))
    if key != "":
        return ""
    out_a, out_b = outs_a.get(key), outs_b.get(key)
    if argv[0] == "conjugate":
        return (f"; parent {conjugate_verdict(argv, rcs[0], out_a)}; "
                f"change {conjugate_verdict(argv, rcs[1], out_b)}")
    if argv[0] == "act" and "--alpha" not in argv:
        return (f"; worst cut vs mpmath: parent {worst_cut_error(cuts, argv, out_a)}, "
                f"change {worst_cut_error(cuts, argv, out_b)}")
    if argv[0] not in ("orbit", "limit") or out_a is None or out_b is None:
        return ""
    a, b = _csv_rows(out_a), _csv_rows(out_b)
    if a.shape != b.shape:
        return "; row counts differ"
    if argv[0] == "orbit":  # columns n, norm, norm_bar, mean_re, mean_im
        ratio = np.abs(a[:, 1] - b[:, 1]) / (a[:, 2] + b[:, 2])
        return f"; |norm gap| / (sum of bars) <= {np.max(ratio):.3g}"
    return f"; largest gap <= {np.max(np.abs(a[:, 1:] - b[:, 1:])):.3g}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sides = {"parent": load(argv[0]), "change": load(argv[1])}
    rng = np.random.default_rng(20260)
    files = make_inputs(rng)
    with tempfile.TemporaryDirectory() as work:
        inputs = os.path.join(work, "inputs")
        os.mkdir(inputs)
        for name, text in files.items():
            with open(os.path.join(inputs, f"{name}.json"), "w") as fh:
                fh.write(text)
        runs = make_runs(rng, list(files), inputs)
        results = {}
        for side, pkg in sides.items():
            os.mkdir(os.path.join(work, side))
            results[side] = run_cli_ops(pkg, runs, os.path.join(work, side))[1]
    cuts = {os.path.join(inputs, f"{name}.json"): json.loads(text)["breakpoints"]
            for name, text in files.items()}
    shown = [" ".join(argv_i).replace(inputs, "inputs") for argv_i in runs]
    n_outputs, lines = 0, []
    for i, ((a, out_a), (b, out_b)) in enumerate(zip(results["parent"], results["change"])):
        if a != b:
            lines.append(f"exit codes differ: r{i:03d} {a} -> {b}: {shown[i]}")
        n_outputs += len(out_a.keys() | out_b.keys())
        for key in sorted(out_a.keys() | out_b.keys()):
            if out_a.get(key) != out_b.get(key):
                gap = measure(cuts.get(_flag(runs[i], "--boundary")), runs[i], key, (a, b),
                              out_a, out_b)
                lines.append(f"output differs: r{i:03d}{key or ' (--out)'}: {shown[i]}{gap}")
    n_equal = sum(a[0] == b[0] for a, b in zip(results["parent"], results["change"]))
    n_differ = sum(line.startswith("output") for line in lines)
    print(f"runs: {len(runs)}; equal exit codes: {n_equal}/{len(runs)}; "
          f"identical outputs: {n_outputs - n_differ}/{n_outputs}")
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Benchmark of discdyn: python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/`.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end set (tracing off); with `--trace 1` they are the per-layer set of
a traced replay of a fixed op list.  Details (environment, per-op samples,
spans) go to `.perfbench/results/`.  See perfbench/README.md.
"""

import os

# one thread everywhere: the grid evaluator, OpenBLAS and OpenMP
for _var in ("DISCDYN_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib.metadata
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_SAMPLES = 5

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "poisson.extend_many.calls": "count",
    "poisson.extend_many.pairs": "count",
    "poisson.extend_many.self_s": "s",
    "poisson.extend_many.ns_per_pair": "ns",
    "poisson.metric_norm.calls": "count",
    "poisson.metric_norm.s": "s",
    "poisson.metric_norm.self_s": "s",
    "poisson.metric_norm.grid_points": "count",
    "poisson.metric_norm.pairs.p16": "count",
    "poisson.metric_norm.pairs.p128": "count",
    "poisson.metric_norm.pairs.p720": "count",
    "poisson.metric_norm.s.p16": "s",
    "poisson.metric_norm.s.p128": "s",
    "poisson.metric_norm.s.p720": "s",
    "poisson.angle_antiderivative.calls": "count",
    "poisson.angle_antiderivative.s": "s",
    "moebius.compose.calls": "count",
    "moebius.compose.us_per_call": "us",
    "moebius.inverse.calls": "count",
    "arcspace.act_arc.calls": "count",
    "arcspace.act_arc.us_per_call": "us",
    "boundary.compose_with_moebius.calls": "count",
    "boundary.compose_with_moebius.s": "s",
    "boundary.merge_partition.calls": "count",
    "boundary.merge_partition.s": "s",
    "boundary.from_line_segments.calls": "count",
    "boundary.from_line_segments.segments": "count",
    "boundary.from_line_segments.s": "s",
    "chaos.translate_boundary.calls": "count",
    "chaos.translate_boundary.s": "s",
    "chaos.build_dense_seed.s": "s",
    "chaos.build_periodic_approximant.s": "s",
    "chaos.build_parabolic_periodic.s": "s",
    "chaos.dense_orbit_report.s": "s",
    "chaos.PeriodicApproximant.metric_defect.s": "s",
    "chaos.periodic.m_materialized": "count",
    "chaos.dense.rows": "count",
    "chaos.dense.rows_ok": "count",
    "foliation.coverage_statistic.s": "s",
    "cli.main.s": "s",
    "cli.self_s": "s",
    "cli.bytes_out": "B",
    "cli.exit1": "count",
    "cli.exit2": "count",
    "bench.check_fail": "count",
    "fail_frac": "frac",
    "known_defect_fails": "count",
    "bar_shortfall": "norm",
    "trace_overhead_frac": "frac",
    "trace.absent": "count",
}

# merged-difference piece count -> size class of a metric_norm call
SIZE_CLASSES = (("p16", 40), ("p128", 300), ("p720", None))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("metric", "certify", "foliate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(name, seed, workdir):
    """Import, input generation, group construction and one warm-up op."""
    t0 = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[name](seed, workdir)
    wl.warmup()
    return time.perf_counter() - t0, wl


def setup_in_fresh_process(name, seed):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--seconds", "0", "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


class Outcome:
    """Timing and verdict of one executed op."""

    __slots__ = ("label", "seconds", "ok", "problem")

    def __init__(self, label, seconds, ok, problem):
        self.label = label
        self.seconds = seconds
        self.ok = ok
        self.problem = problem

    @property
    def failed(self):
        return not self.ok or self.problem is not None


def execute(wl, op, tracer=None):
    """Run one op (timed), then check its outputs (untimed)."""
    wl.prepare(op)
    frame = tracer.begin_op(op.index) if tracer else None
    t0 = time.perf_counter()
    try:
        ok, detail = wl.run(op)
        error = None
    except Exception as e:  # an op that raises is a failed op; the loop goes on
        ok, detail, error = False, None, f"{type(e).__name__}: {e}"
    seconds = time.perf_counter() - t0
    if frame is not None:
        tracer.end_op(frame)
    problem = None
    if error is not None:
        print(f"op {op.index} {op.label} raised {error}", file=sys.stderr)
    else:
        op.result = detail
        problem = wl.check(op, ok, detail)
        if problem is not None:
            print(f"op {op.index} {op.label} check failed: {problem}", file=sys.stderr)
    return Outcome(op.label, seconds, ok, problem), detail


def run_ops(wl, ops, seconds=None, tracer=None):
    """Closed loop over `ops`.

    With `seconds`, stop at the first round boundary after that much wall
    time, so every run executes whole rounds and its op mix is exact.
    """
    outcomes, done = [], []
    start = time.perf_counter()
    for op in ops:
        outcome, detail = execute(wl, op, tracer)
        if not outcomes and not outcome.failed:
            wl.remember_first(op, detail)
        outcomes.append(outcome)
        done.append(op)
        if (seconds is not None and (op.index + 1) % wl.round_size == 0
                and time.perf_counter() - start >= seconds):
            break
    return outcomes, done


def post_checks(wl, done, tracer=None):
    """Determinism repeat, workload-specific checks and known-defect probes."""
    extras = wl.finish(done)
    extras["repeat_identical"] = wl.repeat_first()
    probes = [execute(wl, op, tracer)[0] for op in wl.known_defect_ops()]
    extras["known_defects"] = [
        {"label": o.label, "ok": o.ok, "problem": o.problem} for o in probes
    ]
    extras["known_defect_fails"] = sum(1 for o in probes if not o.ok)
    extras["probe_check_fail"] = sum(1 for o in probes if o.problem is not None)
    return extras


def is_correct(outcomes, extras):
    return (
        all(o.problem is None for o in outcomes)
        and extras["repeat_identical"]
        and extras["probe_check_fail"] == 0
        and not any(p["problem"] or not p["ok"] for p in extras.get("peak_ops", ()))
        and not extras.get("oracle_wrong")
    )


def environment(seed):
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in ("DISCDYN_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_commit": git_commit(),
    }


def git_commit():
    # the ceiling stops git from reporting the commit of a repository above ROOT
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def end_to_end(args, wl, setup_times):
    outcomes, done = run_ops(wl, wl.ops(), seconds=args.seconds)
    peak = [execute(wl, op)[0] for op in wl.peak_ops()]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    extras = post_checks(wl, done)
    extras["peak_ops"] = [{"label": o.label, "ok": o.ok, "problem": o.problem} for o in peak]
    times = [o.seconds for o in outcomes]
    failed = sum(1 for o in outcomes if o.failed)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(times) / sum(times),
        "op_p50_s": statistics.median(times),
        "ok_frac": 1.0 - failed / len(outcomes),
        "peak_rss_mb": peak_rss_mb,
    }
    samples = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "ops_per_s": f"{len(times)} ops in {sum(times):.2f} s of op time",
        "op_p50_s": f"{len(times)} op samples",
        "ok_frac": f"{len(outcomes) - failed} of {len(outcomes)} ops",
        "peak_rss_mb": "max RSS of the run's process, after the loop and any peak op",
    }
    detail = {
        "op_p90_s": statistics.quantiles(times, n=10, method="inclusive")[-1],
        "setup_times": setup_times,
        "ops": [[o.label, o.seconds, o.ok, o.problem] for o in outcomes],
        "samples": samples,
    }
    return outcomes, metrics, extras, detail


def per_layer(wl):
    """Each op of the fixed list runs once untraced and once traced.

    The order of the two alternates from op to op, so warm caches and drift
    in machine speed do not bias `trace_overhead_frac`.
    """
    from tracer import Tracer

    import discdyn

    tracer = Tracer()

    def traced(op):
        tracer.install(discdyn)
        try:
            return execute(wl, op, tracer)
        finally:
            tracer.uninstall()

    plain, outcomes, done = [], [], []
    bytes_out = 0
    for i, op in enumerate(wl.trace_ops()):
        if i % 2:
            outcome, detail = traced(op)
            plain.append(execute(wl, op)[0])
        else:
            plain.append(execute(wl, op)[0])
            outcome, detail = traced(op)
        if not outcomes and not outcome.failed:
            wl.remember_first(op, detail)
        bytes_out += sum(os.path.getsize(p) for p in wl.output_files(op) if os.path.exists(p))
        outcomes.append(outcome)
        done.append(op)
    tracer.install(discdyn)
    try:
        extras = post_checks(wl, done, tracer)
    finally:
        tracer.uninstall()
    failed = sum(1 for o in outcomes if o.failed)
    metrics = layer_metrics(tracer)
    metrics.update({
        "cli.bytes_out": bytes_out,
        "bench.check_fail": sum(1 for o in outcomes if o.problem is not None),
        "fail_frac": failed / len(outcomes),
        "known_defect_fails": extras["known_defect_fails"],
        "bar_shortfall": extras.get("bar_shortfall", 0.0),
        "trace_overhead_frac": sum(o.seconds for o in outcomes) / sum(o.seconds for o in plain) - 1.0,
        "trace.absent": len(tracer.absent),
    })
    detail = {
        "ops": [[o.label, o.seconds, o.ok, o.problem] for o in outcomes],
        "untraced_ops": [[o.label, o.seconds] for o in plain],
        "absent": tracer.absent,
        "hook_errors": tracer.hook_errors,
        "wrapped": tracer.wrapped,
        "totals": tracer.totals(),
    }
    return outcomes, metrics, extras, detail, tracer


def layer_metrics(tracer):
    tot = tracer.totals()

    def get(name, key):
        return tot.get(name, {}).get(key, 0)

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m = {}
    for name in ("poisson.extend_many", "poisson.metric_norm", "poisson.angle_antiderivative",
                 "moebius.compose", "moebius.inverse", "arcspace.act_arc",
                 "boundary.compose_with_moebius", "boundary.merge_partition",
                 "boundary.from_line_segments", "chaos.translate_boundary"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.s"] = get(name, "s")
    m["poisson.extend_many.pairs"] = get("poisson.extend_many", "pairs")
    m["poisson.extend_many.self_s"] = get("poisson.extend_many", "self_s")
    m["poisson.extend_many.ns_per_pair"] = per(
        get("poisson.extend_many", "s"), get("poisson.extend_many", "pairs"), 1e9)
    m["poisson.metric_norm.self_s"] = get("poisson.metric_norm", "self_s")
    m["moebius.compose.us_per_call"] = per(get("moebius.compose", "s"), get("moebius.compose", "calls"), 1e6)
    m["arcspace.act_arc.us_per_call"] = per(get("arcspace.act_arc", "s"), get("arcspace.act_arc", "calls"), 1e6)
    m["boundary.from_line_segments.segments"] = get("boundary.from_line_segments", "segments")
    for name in ("chaos.build_dense_seed", "chaos.build_periodic_approximant",
                 "chaos.build_parabolic_periodic", "chaos.dense_orbit_report",
                 "chaos.PeriodicApproximant.metric_defect", "foliation.coverage_statistic",
                 "cli.main"):
        m[f"{name}.s"] = get(name, "s")
    m["chaos.periodic.m_materialized"] = (
        get("chaos.build_periodic_approximant", "m_materialized")
        + get("chaos.build_parabolic_periodic", "m_materialized"))
    m["chaos.dense.rows"] = get("chaos.dense_orbit_report", "rows")
    m["chaos.dense.rows_ok"] = get("chaos.dense_orbit_report", "rows_ok")
    m["cli.self_s"] = get("cli.main", "self_s")
    m["cli.exit1"] = get("cli.main", "exit1")
    m["cli.exit2"] = get("cli.main", "exit2")

    # kernel work below each metric_norm call, by size class of its input
    norms = {}
    grid_points = 0
    for fr in tracer.frames:
        if fr.name == "poisson.metric_norm" and fr.t1 is not None:
            norms.setdefault(id(fr), [fr, 0])
        elif fr.name == "poisson.extend_many" and fr.attrs:
            owner = tracer.enclosing(fr, "poisson.metric_norm")
            if owner is not None:
                norms.setdefault(id(owner), [owner, 0])[1] += fr.attrs["pairs"]
                grid_points += fr.attrs["points"]
    m["poisson.metric_norm.grid_points"] = grid_points
    by_class = {label: [0, 0, 0.0] for label, _ in SIZE_CLASSES}
    for fr, pairs in norms.values():
        pieces = fr.attrs.get("pieces", 0)
        label = next(lab for lab, cap in SIZE_CLASSES if cap is None or pieces <= cap)
        acc = by_class[label]
        acc[0] += 1
        acc[1] += pairs
        acc[2] += fr.t1 - fr.t0
    for label, (calls, pairs, secs) in by_class.items():
        m[f"poisson.metric_norm.pairs.{label}"] = per(pairs, calls)
        m[f"poisson.metric_norm.s.{label}"] = per(secs, calls)
    return m


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "discdyn", "__init__.py")):
        print(f"error: no discdyn package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.setup_probe:
            seconds, _ = setup(args.workload, args.seed, workdir)
            print(json.dumps({"setup_s": seconds}))
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir):
    setup_s, wl = setup(args.workload, args.seed, workdir)
    tracer = None
    if args.trace:
        outcomes, metrics, extras, detail, tracer = per_layer(wl)
        units = PER_LAYER
    else:
        setup_times = [setup_s] + [
            setup_in_fresh_process(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)
        ]
        outcomes, metrics, extras, detail = end_to_end(args, wl, setup_times)
        units = END_TO_END
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    result = {
        "correct": is_correct(outcomes, extras),
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o.failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    report = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "environment": environment(args.seed), "extras": extras, **detail, "result": result}
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    stem = os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    if tracer is not None:
        with open(stem + "-spans.json", "w") as fh:
            json.dump(tracer.spans_json(), fh, default=str)
    print_summary(report, units)
    print(json.dumps(result))
    return 0


def print_summary(report, units):
    env = report["environment"]
    print(f"# {report['workload']} seed={env['seed']} trace={report['trace']} "
          f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} blas={env['blas']} commit={env['git_commit']}")
    samples = report.get("samples", {})
    for k, unit in units.items():
        value = report["result"]["metrics"][k]["value"]
        note = f"  ({samples[k]})" if k in samples else ""
        print(f"{k:45s} {value:.6g} {unit}{note}")
    if "op_p90_s" in report:
        print(f"{'op_p90_s (no bound)':45s} {report['op_p90_s']:.6g} s  ({samples['op_p50_s']})")
    extras = report["extras"]
    for d in extras["known_defects"]:
        state = "still fails" if not d["ok"] else "now passes"
        print(f"known defect {d['label']}: {state}")
    for d in extras.get("peak_ops", ()):
        state = "ok" if d["ok"] and d["problem"] is None else "failed"
        print(f"peak op {d['label']}: {state}")
    if "bar_shortfall" in extras:
        print(f"bar_shortfall {extras['bar_shortfall']:.3g} over {extras['oracle_cases']} oracle cases")


if __name__ == "__main__":
    sys.exit(main())

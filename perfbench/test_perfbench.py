"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import itertools
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import discdyn  # noqa: E402
import discdyn.cli  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import tracer as tracer_module  # noqa: E402
from tracer import Tracer  # noqa: E402

# a few cheap ops from round 0 of each workload
CHEAP_OPS = {
    "metric": lambda op: op.label == "p16",
    "certify": lambda op: op.label in ("dense--lambda3-L4", "periodic--lambda2-p4-e0.1",
                                       "conjugate-parabolic-p4"),
    "foliate": lambda op: op.label == "L4",
}


def traced_counts(name, seed, workdir):
    workdir.mkdir()
    wl = workloads.WORKLOADS[name](seed, str(workdir))
    ops = list(itertools.islice(filter(CHEAP_OPS[name], wl.trace_ops()), 3))
    tracer = Tracer()
    tracer.install(discdyn)
    try:
        outcomes, _ = run.run_ops(wl, ops, tracer=tracer)
    finally:
        tracer.uninstall()
    assert outcomes and not any(o.failed for o in outcomes)
    metrics = run.layer_metrics(tracer)
    return {k: v for k, v in metrics.items() if run.PER_LAYER.get(k) == "count"}


@pytest.mark.parametrize("name", sorted(CHEAP_OPS))
def test_traced_counts_repeat(name, tmp_path):
    first = traced_counts(name, 5, tmp_path / "a")
    second = traced_counts(name, 5, tmp_path / "b")
    assert first == second
    assert any(first.values())


def test_every_binding_is_wrapped_and_restored():
    originals = {
        "act_arc": discdyn.arcspace.act_arc,
        "compose_with_moebius": discdyn.boundary.compose_with_moebius,
        "angle_antiderivative": discdyn.poisson.angle_antiderivative,
    }
    bindings = [
        (discdyn.cli, "act_arc"), (discdyn.chaos, "act_arc"), (discdyn.foliation, "act_arc"),
        (discdyn, "act_arc"),
        (discdyn.poisson, "compose_with_moebius"), (discdyn.chaos, "compose_with_moebius"),
        (discdyn.cli, "compose_with_moebius"),
        (discdyn.arcspace, "angle_antiderivative"),
    ]
    tracer = Tracer()
    tracer.install(discdyn)
    try:
        for owner, name in bindings:
            wrapped = getattr(owner, name)
            assert wrapped is not originals[name]
            assert wrapped.__wrapped__ is originals[name]
    finally:
        tracer.uninstall()
    for owner, name in bindings:
        assert getattr(owner, name) is originals[name]


def test_absent_names_are_reported_not_raised(monkeypatch):
    targets = tracer_module.SPAN_TARGETS + ("poisson.no_such_function", "chaos.NoSuchClass.method")
    monkeypatch.setattr(tracer_module, "SPAN_TARGETS", targets)
    tracer = Tracer()
    tracer.install(discdyn)
    tracer.uninstall()
    assert "poisson.no_such_function" in tracer.absent
    assert "chaos.NoSuchClass.method" in tracer.absent
    assert "poisson.metric_norm" in tracer.wrapped


def test_benchmark_json_matches_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_oracle_brackets_metric_value():
    rng = np.random.default_rng(3)
    br = np.sort(rng.uniform(0.0, 2 * np.pi, 6))
    vals = rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6)
    g = discdyn.hyperbolic_multiplier(2.5)
    h = discdyn.HarmonicFunction(discdyn.BoundaryFunction(br, vals))
    value, bar = discdyn.metric_distance(
        h, discdyn.translate_boundary(h, g), discdyn.CompactExhaustion()
    )
    coeffs = oracle.translate_difference_coefficients(br, vals, g.alpha, g.beta)
    lower = oracle.norm_lower_bound(coeffs)
    assert lower <= value + bar + 1e-5
    assert value <= lower + oracle.tail_allowance(2.0 * np.max(np.abs(vals))) + 1e-9


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "metric", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

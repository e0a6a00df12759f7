"""The sweep scripts run end to end at small sizes."""

import argparse
import csv
import importlib.util
import pathlib
import sys

import discdyn

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def _module(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _main(name):
    return _module(name).main


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_dense_certificate(tmp_path):
    out = tmp_path / "dense.csv"
    assert _main("dense_certificate")(["--levels", "3", "--targets", "5", "--out", str(out)]) == 0
    header, *rows = _rows(out)
    assert header == ["rate", "seed", "n", "k", "dist", "bound", "error_bar", "certified", "seconds"]
    assert [r[2] for r in rows] == ["1", "2", "3"]
    assert all(r[7] == "1" for r in rows)


def test_coverage_sweep(tmp_path):
    out = tmp_path / "coverage.csv"
    argv = ["--seeds", "1", "--per-length", "20", "--max-word-len", "3", "--out", str(out)]
    assert _main("coverage_sweep")(argv) == 0
    header, *rows = _rows(out)
    assert header == ["seed", "max_word_len", "coverage"]
    assert [r[1] for r in rows] == ["0", "1", "2", "3"]
    cov = [float(r[2]) for r in rows]
    assert all(b >= a for a, b in zip(cov, cov[1:]))


def test_ab_inprocess(capsys):
    repo = str(SCRIPTS.parent)
    assert _main("ab_inprocess")([repo, repo, "--ops", "4", "--alternations", "2", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("per op median") == 2
    assert "change wins" in out and "identical (value, bar): 4/4" in out
    assert sys.modules["discdyn"] is discdyn  # the copy the tests use stays in place


def test_ab_inprocess_foliate(capsys):
    repo = str(SCRIPTS.parent)
    argv = [repo, repo, "--op", "foliate", "--ops", "3", "--alternations", "2", "--seed", "1"]
    assert _main("ab_inprocess")(argv) == 0
    out = capsys.readouterr().out
    assert out.count("per op median") == 2
    assert "change wins" in out and "identical (exit code, CSV, JSON): 3/3" in out
    assert sys.modules["discdyn"] is discdyn


def test_ab_inprocess_dense():
    # in this process: the child interpreters of `main` are covered above
    repo = str(SCRIPTS.parent)
    args = argparse.Namespace(op="dense", ops=2, seed=1, parent=repo, change=repo)
    per_op, same, _ = _module("ab_inprocess")._alternate(args, "parent", 2)
    assert [len(t) for t in per_op.values()] == [2, 2] and same == [True, True]
    assert sys.modules["discdyn"] is discdyn


def test_cli_battery(capsys):
    repo = str(SCRIPTS.parent)
    assert _main("cli_battery")([repo, repo]) == 0
    out = capsys.readouterr().out
    runs = int(out.split("runs: ")[1].split(";")[0])
    assert runs >= 150 and f"equal exit codes: {runs}/{runs}" in out
    assert "differs" not in out

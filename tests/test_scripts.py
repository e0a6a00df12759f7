"""The sweep scripts run end to end at small sizes."""

import csv
import importlib.util
import pathlib

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def _main(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


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

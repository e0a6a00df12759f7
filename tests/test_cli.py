import json
import math

import pytest

from discdyn import BoundaryFunction
from discdyn.cli import main


@pytest.fixture
def bdry(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "f.json"
    path.write_text(
        json.dumps(
            {
                "breakpoints": [0.0, 1.0, 2.5, 4.0],
                "values": [[0.5, 0.0], [-0.5, 0.0], [0.0, 0.25], [0.9, 0.0]],
            }
        )
    )
    return path


def _data_rows(path):
    # drop comment header and the column-name row
    body = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return body[1:]


class TestCommands:
    def test_extend_writes_pgm_and_csv(self, bdry, tmp_path):
        rc = main(["extend", "--boundary", "f.json", "--grid", "16", "--out", "hm"])
        assert rc == 0
        pgm = (tmp_path / "hm.pgm").read_bytes()
        assert pgm.startswith(b"P5\n# discdyn extend")
        csv = tmp_path / "hm.csv"
        assert csv.read_text().startswith("# discdyn extend")
        assert len(_data_rows(csv)) > 0

    def test_act_round_trips_boundary(self, bdry, tmp_path):
        rc = main(["act", "--boundary", "f.json", "--lambda", "3.0", "--out", "g.json"])
        assert rc == 0
        doc = json.loads((tmp_path / "g.json").read_text())
        assert doc["config"]["command"] == "act"
        f = BoundaryFunction.from_json((tmp_path / "g.json").read_text())
        assert len(f.breakpoints) == 4

    def test_orbit_row_count(self, bdry, tmp_path):
        rc = main(["orbit", "--boundary", "f.json", "--lambda", "2", "--steps", "7"])
        assert rc == 0
        assert len(_data_rows(tmp_path / "orbit.csv")) == 8

    def test_dense_certificate(self, bdry, tmp_path):
        rc = main(["dense", "--lambda", "2", "--levels", "3", "--seed", "7"])
        assert rc == 0
        rows = _data_rows(tmp_path / "dense.csv")
        assert len(rows) >= 3

    def test_periodic_report(self, bdry, tmp_path):
        rc = main(["periodic", "--boundary", "f.json", "--epsilon", "0.63", "--lambda", "2", "--out", "per"])
        assert rc == 0
        doc = json.loads((tmp_path / "per.json").read_text())
        assert "breakpoints" in doc
        row = _data_rows(tmp_path / "per.csv")[0].split(",")
        assert int(row[1]) == 4 and int(row[2]) == 5

    def test_arcflow(self, bdry, tmp_path):
        rc = main(["arcflow", "--shift", "1.0", "--steps", "5", "--out", "fl.csv"])
        assert rc == 0
        assert len(_data_rows(tmp_path / "fl.csv")) == 6

    def test_foliate_summary_keys(self, bdry, tmp_path):
        rc = main(["foliate", "--points", "150", "--max-word-len", "4", "--grid", "16", "--out", "fo"])
        assert rc == 0
        doc = json.loads((tmp_path / "fo.json").read_text())
        assert set(doc) == {"config", "coverage", "cells", "points"}
        assert 0.0 < doc["coverage"] < 1.0
        assert doc["points"] == 150

    def test_foliate_long_words(self, bdry, tmp_path):
        # the product matrix of a word of 14 or more letters can cancel
        # |alpha|^2 - |beta|^2 to zero; acting letter by letter never forms it
        rc = main(["foliate", "--points", "500", "--max-word-len", "20", "--out", "lw"])
        assert rc == 0
        rows = [r.split(",") for r in _data_rows(tmp_path / "lw.csv")]
        assert len(rows) == 500
        assert max(int(r[0]) for r in rows) == 20
        for _, re, im, theta in rows:
            assert abs(abs(complex(float(re), float(im))) - 1.0) <= 1e-9
            assert 0.0 <= float(theta) <= 2 * math.pi

    def test_conjugate_kind_and_exponent(self, bdry, tmp_path):
        rc = main(["conjugate", "--lambda1", "2", "--lambda2", "4", "--out", "cj.json"])
        assert rc == 0
        doc = json.loads((tmp_path / "cj.json").read_text())
        assert doc["kind"] == "hyperbolic"
        assert abs(doc["exponent"] - 0.5) < 1e-12

    def test_projective_pass(self, bdry, tmp_path):
        rc = main(["projective", "--samples", "100", "--out", "pj.csv"])
        assert rc == 0
        assert len(_data_rows(tmp_path / "pj.csv")) == 100

    def test_limit_rows(self, bdry, tmp_path):
        rc = main(["limit", "--boundary", "f.json", "--lambda", "2", "--nmax", "8"])
        assert rc == 0
        assert len(_data_rows(tmp_path / "limit.csv")) == 9


class TestExitCodes:
    def test_unknown_command(self, bdry):
        assert main(["no-such-command"]) == 1

    def test_neither_normal_form(self, bdry):
        assert main(["dense", "--levels", "2"]) == 1

    def test_both_normal_forms(self, bdry):
        assert main(["dense", "--lambda", "2", "--shift", "1"]) == 1

    def test_missing_boundary_file(self, bdry):
        assert main(["orbit", "--boundary", "nope.json", "--lambda", "2"]) == 1

    def test_malformed_boundary_json(self, bdry, tmp_path):
        (tmp_path / "bad.json").write_text("{not json")
        assert main(["orbit", "--boundary", "bad.json", "--lambda", "2"]) == 1

    def test_alpha_without_beta(self, bdry):
        assert main(["orbit", "--boundary", "f.json", "--alpha", "2+0j"]) == 1

    def test_validation_gate_exits_two(self, bdry):
        assert main(["projective", "--samples", "50", "--tol", "1e-18"]) == 2


class TestReproducibility:
    def test_config_file_matches_flags(self, bdry, tmp_path):
        rc = main(["dense", "--lambda", "2", "--levels", "3", "--seed", "11", "--out", "a.csv"])
        assert rc == 0
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps(
                {
                    "command": "dense",
                    "params": {"lambda": 2.0, "levels": 3, "seed": 11, "out": "b.csv"},
                }
            )
        )
        rc = main(["--config", "run.json"])
        assert rc == 0
        assert _data_rows(tmp_path / "a.csv") == _data_rows(tmp_path / "b.csv")

    def test_same_seed_same_output(self, bdry, tmp_path):
        assert main(["foliate", "--points", "100", "--seed", "9", "--out", "s1"]) == 0
        assert main(["foliate", "--points", "100", "--seed", "9", "--out", "s2"]) == 0
        assert _data_rows(tmp_path / "s1.csv") == _data_rows(tmp_path / "s2.csv")

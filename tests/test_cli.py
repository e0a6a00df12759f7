import json
import math

import numpy as np
import pytest

from discdyn import BoundaryFunction, cli
from discdyn.cli import _build_parser, main


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

    def test_saved_boundary_reads_back_bit_exact(self, bdry, tmp_path):
        from discdyn import chaos, hyperbolic_multiplier

        f = BoundaryFunction.from_json(bdry.read_text())
        approx = chaos.build_periodic_approximant(f, 0.1, hyperbolic_multiplier(2.0))
        rc = main(["periodic", "--boundary", "f.json", "--epsilon", "0.1", "--lambda", "2", "--out", "per"])
        assert rc == 0
        text = (tmp_path / "per.json").read_text()
        doc = json.loads(text)
        assert list(doc) == ["breakpoints", "values", "config"]
        assert doc["config"]["command"] == "periodic" and doc["config"]["epsilon"] == "0.1"
        g = BoundaryFunction.from_json(text)
        assert g.breakpoints.tolist() == approx.function.boundary.breakpoints.tolist()
        assert g.values.tolist() == approx.function.boundary.values.tolist()

    @pytest.mark.parametrize("lam, levels", [("10", "10"), ("3", "14")])
    def test_deep_dense_orbits_certify(self, bdry, tmp_path, lam, levels):
        # lam^k_n passes 1e16 here: the translates are built in line
        # coordinates, never as a group element
        assert main(["dense", "--lambda", lam, "--levels", levels]) == 0
        rows = [[float(c) for c in r.split(",")] for r in _data_rows(tmp_path / "dense.csv")]
        assert len(rows) == int(levels)
        assert all(dist <= bound + bar for _, _, dist, bound, bar in rows)

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


class TestFoliate:
    @pytest.mark.parametrize("length", [4, 12])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_cells_match_recount_from_csv(self, bdry, tmp_path, seed, length):
        argv = ["foliate", "--points", "2000", "--max-word-len", str(length),
                "--seed", str(seed), "--base-theta", "2.0", "--grid", "24", "--out", "c"]
        assert main(argv) == 0
        doc = json.loads((tmp_path / "c.json").read_text())
        grid, lo, hi = 24, 0.2, 2 * math.pi - 0.2
        occupied = set()
        for row in _data_rows(tmp_path / "c.csv"):
            _, re, im, theta = map(float, row.split(","))
            if lo <= theta <= hi:
                ang = math.atan2(im, re) % (2 * math.pi)
                i = min(grid - 1, int(ang / (2 * math.pi / grid)))
                j = min(grid - 1, int((theta - lo) / ((hi - lo) / grid)))
                occupied.add((i, j))
        assert doc["cells"] == len(occupied) > 0
        assert doc["coverage"] == len(occupied) / grid**2

    def test_zero_points_writes_header_only(self, bdry, tmp_path):
        assert main(["foliate", "--points", "0", "--out", "z"]) == 0
        lines = (tmp_path / "z.csv").read_text().splitlines()
        assert lines[-1] == "word_length,zeta_re,zeta_im,theta"
        assert _data_rows(tmp_path / "z.csv") == []
        doc = json.loads((tmp_path / "z.json").read_text())
        assert doc["points"] == 0 and doc["cells"] == 0

    @pytest.mark.parametrize(
        "flags",
        [["foliate", "--points", "20", *f] for f in (
            ["--points", "-5"], ["--max-word-len", "-1"], ["--grid", "0"], ["--grid", "-3"],
            ["--base-theta", "nan"], ["--base-zeta", "nan"], ["--base-theta", "inf"])]
        # every count flag of every command takes its least value
        + [["extend", "--boundary", "f.json", "--grid", "0"],
           ["extend", "--boundary", "f.json", "--grid", "1"],
           ["extend", "--boundary", "f.json", "--grid", "2"],
           ["dense", "--lambda", "2", "--levels", "0"],
           ["projective", "--samples", "0"],
           ["orbit", "--boundary", "f.json", "--lambda", "2", "--steps", "-1"],
           ["arcflow", "--shift", "1", "--steps", "-1"],
           ["limit", "--boundary", "f.json", "--lambda", "2", "--nmax", "-1"]],
    )
    def test_bad_input_exits_one_with_a_message(self, bdry, tmp_path, capsys, flags):
        assert main([*flags, "--out", "bad"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(("usage error: ", "error: ")) and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["f.json"]


def _row_writer(path, title, args, names, rows):
    """The previous CSV writer, kept as the oracle: one "%" line per row, its
    formats taken from the types of the first row's cells."""

    def fmt(c):
        if isinstance(c, (int, np.integer)):
            return "%d"
        return "%s" if isinstance(c, str) else "%.17g"

    with open(path, "w", newline="") as fh:
        fh.write(f"# discdyn {title}\n")
        fh.write("# " + " ".join(f"{k}={v}" for k, v in cli._echo_pairs(args)) + "\n")
        fh.write(",".join(names) + "\n")
        if rows:
            line = ",".join(map(fmt, rows[0])) + "\n"
            fh.writelines(line % row for row in rows)


class TestColumnWriter:
    FOLIATE = [
        ["foliate", "--points", points, "--max-word-len", "12", "--base-theta", theta, "--out", "fo"]
        for points in ("0", "1", "5000")
        for theta in ("1e-3", repr(2 * math.pi - 1e-3))
    ]
    OTHERS = [
        ["extend", "--boundary", "f.json", "--grid", "24", "--out", "hm"],
        ["dense", "--lambda", "2", "--levels", "4"],
        ["dense", "--shift", "1", "--levels", "3"],
        ["periodic", "--boundary", "f.json", "--epsilon", "0.3", "--lambda", "2", "--out", "per"],
        ["orbit", "--boundary", "f.json", "--lambda", "2", "--steps", "4"],
        ["arcflow", "--shift", "1.0", "--base-theta", "1e-7", "--steps", "200"],
        ["projective", "--samples", "150"],
        ["limit", "--boundary", "f.json", "--shift", "1", "--nmax", "6"],
    ]

    @pytest.mark.parametrize("argv", FOLIATE + OTHERS, ids=lambda a: "-".join(a[:4]))
    def test_bytes_equal_the_row_writer(self, bdry, tmp_path, monkeypatch, argv):
        written = []

        def both(path, title, args, names, columns):
            columns = list(columns)
            cli_write(path, title, args, names, columns)
            rows = list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))
            _row_writer(path + ".rows", title, args, names, rows)
            written.append(tmp_path / path)

        cli_write = cli._write_csv
        monkeypatch.setattr(cli, "_write_csv", both)
        assert main(argv) == 0
        assert written
        for path in written:
            assert path.read_bytes() == path.with_name(path.name + ".rows").read_bytes()


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

    @pytest.mark.parametrize(
        "text",
        ['{"breakpoints": [0.0, 1.0], "values": [[0.5, 0.0], [0.1]]}',
         '{"breakpoints": [0.0, 1.0], "values": [[0.5], [0.1]]}',
         '{"breakpoints": [0.0, 1.0], "values": [0.5, 0.1]}',
         '{"values": [[0.5, 0.0]]}',
         '[[0.0, 1.0], [[0.5, 0.0], [0.1, 0.0]]]',
         '{"breakpoints": [NaN, 1.0], "values": [[0.5, 0.0], [0.1, 0.0]]}',
         '{"breakpoints": [0.0, Infinity], "values": [[0.5, 0.0], [0.1, 0.0]]}',
         '{"breakpoints": [0.0, 1.0], "values": [[0.5, NaN], [0.1, 0.0]]}'],
        ids=["short-pair", "one-element-pairs", "scalar-values", "no-breakpoints",
             "top-level-list", "nan-breakpoint", "inf-breakpoint", "nan-value"],
    )
    def test_malformed_boundary_data(self, bdry, tmp_path, capsys, text):
        (tmp_path / "bad.json").write_text(text)
        assert main(["orbit", "--boundary", "bad.json", "--lambda", "2", "--out", "o.csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "o.csv").exists()

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

    def test_one_parser_serves_many_calls(self, bdry, tmp_path):
        assert _build_parser() is _build_parser()
        assert main(["foliate", "--points", "40", "--seed", "4", "--grid", "8", "--out", "a"]) == 0
        assert main(["dense", "--lambda", "2", "--levels", "2", "--out", "d.csv"]) == 0
        assert main(["foliate", "--points", "40", "--seed", "4", "--grid", "8", "--out", "b"]) == 0
        assert _data_rows(tmp_path / "a.csv") == _data_rows(tmp_path / "b.csv")
        # flags given to earlier calls do not become later calls' defaults
        assert main(["foliate", "--out", "c"]) == 0
        config = json.loads((tmp_path / "c.json").read_text())["config"]
        assert (config["points"], config["seed"], config["grid"]) == ("2000", "1", "32")

    def test_same_seed_same_output(self, bdry, tmp_path):
        assert main(["foliate", "--points", "100", "--seed", "9", "--out", "s1"]) == 0
        assert main(["foliate", "--points", "100", "--seed", "9", "--out", "s2"]) == 0
        assert _data_rows(tmp_path / "s1.csv") == _data_rows(tmp_path / "s2.csv")

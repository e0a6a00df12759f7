import cmath
import json
import math

import mpmath
import numpy as np
import pytest

from discdyn import BoundaryFunction, cli
from discdyn.cli import _build_parser, main

from conftest import line_image_mean, line_images, seeded_cut_data, worst_cut_error


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

    @pytest.mark.parametrize(
        "argv, column",
        [(["orbit", "--steps", "3"], "mean"), (["limit", "--nmax", "3"], "value")],
        ids=["orbit", "limit"],
    )
    def test_contracting_iterates_keep_piece_values(self, bdry, tmp_path, argv, column):
        # x -> 1e7 x pulls the cut at 6.28 onto angle 2pi from the second
        # step on; every iterate is 0.3 but for a sliver below angle 2pi
        edge = {"breakpoints": [0.0, 6.28], "values": [[0.3, 0.0], [0.0, -0.7]]}
        (tmp_path / "edge.json").write_text(json.dumps(edge))
        assert main([*argv, "--boundary", "edge.json", "--lambda", "1e-7", "--out", "o.csv"]) == 0
        rows = [ln.split(",") for ln in (tmp_path / "o.csv").read_text().splitlines()[2:]]
        cols = rows[0].index(column + "_re"), rows[0].index(column + "_im")
        iterates = [(float(r[cols[0]]), float(r[cols[1]])) for r in rows[2:]]  # n >= 1
        assert len(iterates) == 3
        assert all(abs(re - 0.3) <= 1e-9 and abs(im) <= 1e-9 for re, im in iterates)

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

    @pytest.mark.parametrize(
        "kind, flag, rate",
        [("hyperbolic", "--lambda", "2"), ("parabolic", "--shift", "1")],
        ids=["lambda", "shift"],
    )
    def test_saved_boundary_reads_back_bit_exact(self, bdry, tmp_path, kind, flag, rate):
        # the command's one builder call agrees with the library's for either kind
        from discdyn import chaos

        f = BoundaryFunction.from_json(bdry.read_text())
        approx = chaos.build_periodic_approximant(f, 0.1, kind, float(rate))
        rc = main(["periodic", "--boundary", "f.json", "--epsilon", "0.1", flag, rate, "--out", "per"])
        assert rc == 0
        text = (tmp_path / "per.json").read_text()
        doc = json.loads(text)
        assert list(doc) == ["breakpoints", "values", "config"]
        assert doc["config"]["command"] == "periodic" and doc["config"]["epsilon"] == "0.1"
        g = BoundaryFunction.from_json(text)
        assert g.breakpoints.tolist() == approx.function.boundary.breakpoints.tolist()
        assert g.values.tolist() == approx.function.boundary.values.tolist()

    @pytest.mark.parametrize("rate", [["--lambda", "1.0000001"], ["--shift", "1e-12"]])
    def test_periodic_rates_near_the_identity_certify(self, bdry, tmp_path, rate):
        # the period exponent comes from the flag's rate (k near 4.4e7 and
        # 1e13 here), not from an element classified by its trace
        argv = ["periodic", "--boundary", "f.json", "--epsilon", "0.3", *rate, "--out", "per"]
        assert main(argv) == 0
        (row,) = _data_rows(tmp_path / "per.csv")
        *_, metric_defect, metric_bar = map(float, row.split(","))
        assert metric_defect + metric_bar <= 0.3

    @pytest.mark.parametrize("lam, levels", [("10", "10"), ("3", "14"), ("1e200", "3")])
    def test_deep_dense_orbits_certify(self, bdry, tmp_path, lam, levels):
        # lam^k_n passes 1e16 here: the translates are built in line
        # coordinates, never as a group element (at 1e200 the window ends
        # lam^-k_n underflow from level 3, so the schedule checks gaps only)
        assert main(["dense", "--lambda", lam, "--levels", levels]) == 0
        rows = [[float(c) for c in r.split(",")] for r in _data_rows(tmp_path / "dense.csv")]
        assert len(rows) == int(levels)
        assert all(dist <= bound + bar for _, _, dist, bound, bar in rows)

    def test_arcflow(self, bdry, tmp_path):
        rc = main(["arcflow", "--shift", "1.0", "--steps", "5", "--out", "fl.csv"])
        assert rc == 0
        assert len(_data_rows(tmp_path / "fl.csv")) == 6

    def test_foliate_keeps_short_images(self, bdry, tmp_path):
        # words of up to 40 letters shrink a 1e-3 arc to about 1e-49; the
        # lengths are read out relative to themselves, so no row writes 0
        argv = ["foliate", "--points", "500", "--max-word-len", "40", "--base-theta", "0.001"]
        assert main([*argv, "--out", "fo"]) == 0
        thetas = [float(r.split(",")[3]) for r in _data_rows(tmp_path / "fo.csv")]
        assert len(thetas) == 500 and min(thetas) > 0.0

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

    def test_conjugate_power_map_overflow_is_infinity(self, bdry, tmp_path):
        # h^-1 raises |x| to 1/exponent, about 7e4 here, which overflows past
        # |x| = 1.01: those cuts go to the point at infinity, without a warning
        assert main(["conjugate", "--lambda1", "1.0001", "--lambda2", "1e3", "--boundary", "f.json"]) == 0
        doc = json.loads((tmp_path / "conjugate.json").read_text())
        assert doc["intertwine_residual"] <= 1e-9 + doc["residual_bar"]

    @pytest.mark.parametrize(
        "flags",
        [
            # elements within about 1e-9 of trace 2
            ["--alpha1", "(1+0.014736396890952236j)",
             "--beta1", "(-2.3905587909210686e-05+0.014736377500944415j)", "--shift2", "1"],
            ["--alpha1", "(1.0000000006517336+0.009100889922343883j)",
             "--beta1", "(-0.009074674443915812-0.0006912196338078015j)", "--lambda2", "2"],
            # a parabolic element of norm about 3281, whose |alpha|^2 - |beta|^2
            # rounds at about 1e-9
            ["--alpha1", "(0.9999999998690328+3281.428150044824j)",
             "--beta1", "(-51.109215683388584-3281.030105314309j)", "--shift2", "1"],
            # normal forms far from 1, their rates used as given
            ["--lambda1", "1e7", "--lambda2", "2"],
            ["--lambda1", "1e10", "--lambda2", "2"],
        ],
    )
    def test_conjugate_certifies_valid_elements(self, bdry, tmp_path, flags):
        assert main(["conjugate", *flags]) == 0
        doc = json.loads((tmp_path / "conjugate.json").read_text())
        assert doc["intertwine_residual"] <= 1e-9 + doc["residual_bar"]

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
           ["limit", "--boundary", "f.json", "--lambda", "2", "--nmax", "-1"]]
        # every float flag is finite, and a tolerance is not negative
        + [["projective", "--samples", "5", "--tol", "nan"],
           ["conjugate", "--lambda1", "2", "--lambda2", "4", "--tol", "-1"],
           ["periodic", "--boundary", "f.json", "--lambda", "2", "--epsilon", "nan"],
           ["dense", "--lambda", "nan", "--levels", "2"],
           ["periodic", "--boundary", "f.json", "--shift", "inf", "--epsilon", "0.3"],
           # lam^2 = 1e400 overflows a double: reported, not a traceback
           ["periodic", "--boundary", "f.json", "--lambda", "1e200", "--epsilon", "0.3"],
           # normal forms of different classes, and multiplier 1, the identity
           ["conjugate", "--lambda1", "2", "--shift2", "1"],
           ["conjugate", "--lambda1", "1", "--lambda2", "2"],
           # a multiplier is positive
           ["act", "--boundary", "f.json", "--lambda", "-2"],
           ["act", "--boundary", "f.json", "--lambda", "0"]],
    )
    def test_bad_input_exits_one_with_a_message(self, bdry, tmp_path, capsys, flags):
        assert main([*flags, "--out", "bad"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(("usage error: ", "error: ")) and "Traceback" not in err
        assert len(err.splitlines()) == 1
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

    @pytest.mark.parametrize(
        "flag, rate", [("--lambda", "1e17"), ("--lambda", "1e-17"), ("--shift", "1e9")]
    )
    def test_rate_beyond_double_resolution(self, bdry, tmp_path, capsys, flag, rate):
        # |alpha|^2 - |beta|^2 of the normal form cancels to 0 in doubles, so
        # arcflow forms no element: it acts by the normal form's line matrix
        argv = ["arcflow", flag, rate, "--base-theta", "2", "--steps", "3", "--out", "g.csv"]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        rows = [[float(x) for x in r.split(",")] for r in _data_rows(tmp_path / "g.csv")]
        assert [r[0] for r in rows] == [0, 1, 2, 3]
        for n, (_, zeta_re, zeta_im, theta) in enumerate(rows):
            with mpmath.workdps(60):  # the base arc's ends are x = 0 and x = tan(1)
                r, x = mpmath.mpf(rate), mpmath.tan(1)
                ends = (0, x * r**n) if flag == "--lambda" else (n * r, x + n * r)
                start, end = (2 * mpmath.atan(y) for y in ends)
                expect = float(end - start)  # in (0, pi) for these maps
            assert abs(complex(zeta_re, zeta_im) - cmath.exp(1j * float(start))) <= 1e-15
            assert abs(theta - expect) <= 1e-13 * expect, (n, theta, expect)

    def test_validation_gate_exits_two(self, bdry):
        assert main(["projective", "--samples", "50", "--tol", "1e-18"]) == 2


class TestNormalFormRates:
    @pytest.mark.parametrize(
        "flag, rate", [("--lambda", "1e17"), ("--lambda", "1e-17"), ("--shift", "1e9")]
    )
    def test_far_rates_match_mpmath(self, bdry, tmp_path, flag, rate):
        # no element is formed: rates whose element cancels in doubles act exactly
        f = seeded_cut_data(11, 12)
        (tmp_path / "c.json").write_text(f.to_json())
        kind = "hyperbolic" if flag == "--lambda" else "parabolic"
        images = [line_images(f.breakpoints, kind, float(rate), n) for n in range(3)]
        common = ["--boundary", "c.json", flag, rate]
        assert main(["act", *common, "--out", "a.json"]) == 0
        g = BoundaryFunction.from_json((tmp_path / "a.json").read_text())
        assert worst_cut_error(g.breakpoints, *images[1]) <= 1e-15
        assert main(["orbit", *common, "--steps", "2", "--out", "o.csv"]) == 0
        assert main(["limit", *common, "--nmax", "2", "--out", "l.csv"]) == 0
        for name, column in (("o.csv", 3), ("l.csv", 2)):
            rows = [[float(x) for x in r.split(",")] for r in _data_rows(tmp_path / name)]
            assert [r[0] for r in rows] == [0, 1, 2]
            for n, r in enumerate(rows):
                mean = line_image_mean(f, images[n][0])
                assert abs(complex(r[column], r[column + 1]) - mean) <= 1e-13, (name, n)


class TestLimitDiagnostic:
    def test_elliptic_rejected(self, bdry, tmp_path, capsys):
        # only a divergent gamma pushes orbits to the boundary: not a rotation,
        # not multiplier 1 or shift 0
        rotation = ["--alpha", repr(complex(math.cos(0.2), math.sin(0.2))), "--beta", "0"]
        for flags in (rotation, ["--lambda", "1"], ["--shift", "0"]):
            assert main(["limit", "--boundary", "f.json", *flags, "--out", "l.csv"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["f.json"]
        # a multiplier within 1e-9 of 1 is hyperbolic as a rate, if not as an element
        assert main(["limit", "--boundary", "f.json", "--lambda", "1.000000001"]) == 0


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

    def test_echoed_config_is_rejected(self, bdry, tmp_path, capsys):
        # an output's "config" object holds flags at its top level, not under
        # "params"; read as a config file it would run foliate with defaults
        assert main(["foliate", "--points", "50", "--seed", "3", "--grid", "8", "--out", "fo"]) == 0
        echoed = json.loads((tmp_path / "fo.json").read_text())["config"]
        (tmp_path / "run.json").write_text(json.dumps(echoed))
        before = sorted(p.name for p in tmp_path.iterdir())
        assert main(["--config", "run.json"]) == 1
        assert capsys.readouterr().err.startswith("usage error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == before

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

"""Command-line contract: dispatch, schemas, exit codes, determinism."""

import json
import math
import subprocess
import sys

import pytest

from conicmirror.cli import JobSpec, main
from conicmirror.errors import SchemaError

SIMPLEX = {"points": [[0, 0], [1, 0], [0, 1]], "heights": ["0", "0", "0"]}
FOUR_POINT = {
    "points": [[0, 0], [1, 0], [0, 1], [-1, -1]],
    "heights": ["-1/4", "0", "0", "0"],
}


@pytest.fixture
def simplex_path(tmp_path):
    p = tmp_path / "simplex.json"
    p.write_text(json.dumps(SIMPLEX))
    return str(p)


@pytest.fixture
def four_point_path(tmp_path):
    p = tmp_path / "four_point.json"
    p.write_text(json.dumps(FOUR_POINT))
    return str(p)


class TestJobSpec:
    def test_unknown_command_rejected(self):
        with pytest.raises(SchemaError):
            JobSpec(command="frobnicate")

    def test_missing_input_rejected(self):
        with pytest.raises(SchemaError):
            JobSpec(command="triangulate")

    def test_missing_required_option_rejected(self):
        with pytest.raises(SchemaError):
            JobSpec(command="verify-mirror", input_path="x.json", options={})

    def test_acceptance_needs_no_input(self):
        spec = JobSpec(command="acceptance")
        assert spec.input_path is None


class TestTriangulate:
    def test_four_point_has_three_cells(self, four_point_path, capsys):
        assert main(["triangulate", "--in", four_point_path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kind"] == "triangulation"
        assert len(data["triangulation"]["cells"]) == 3
        assert data["unimodular"] is True

    def test_output_file_is_byte_identical_across_runs(
        self, four_point_path, tmp_path
    ):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["triangulate", "--in", four_point_path, "--out", str(out1)]) == 0
        assert main(["triangulate", "--in", four_point_path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(["triangulate", "--in", str(tmp_path / "nope.json")])
        assert code == 2
        assert "SchemaError" in capsys.readouterr().err

    def test_malformed_json_exits_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["triangulate", "--in", str(p)]) == 2

    def test_degenerate_polygon_exits_3_with_error_name(self, tmp_path, capsys):
        p = tmp_path / "degenerate.json"
        p.write_text(json.dumps({"points": [[0, 0], [1, 0]], "heights": ["0", "0"]}))
        assert main(["triangulate", "--in", str(p)]) == 3
        assert "DegeneratePolygon" in capsys.readouterr().err


class TestTropical:
    def test_four_point_curve_summary(self, four_point_path, capsys):
        assert main(["tropical", "--in", four_point_path]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["curve"]["legs"]) == 3
        assert len(data["curve"]["bounded_edges"]) == 3
        assert len(data["chambers"]) == 4


class TestRingMul:
    def test_product_matches_between_commands(self, tmp_path, capsys):
        x1 = [{"n": [1, 0], "i": 0, "c": "1"}]
        y1 = [{"n": [-1, -1], "i": 0, "c": "1"}]
        x2 = [{"n": [1, 0], "i": 0, "c": "5/7"}]
        y2 = [{"n": [-1, -1], "i": 0, "c": "7/5"}, {"n": [1, 0], "i": 0, "c": "1/2"}]
        # ell2((1,0),(-1,-1)) = 2 on the 4-point polygon: binomial row 1,2,1
        for x, y, cs in ((x1, y1, ["1", "2", "1"]), (x2, y2, ["1", "2", "1", "5/14"])):
            job = tmp_path / "job.json"
            job.write_text(json.dumps({"polygon": FOUR_POINT, "x": x, "y": y}))
            assert main(["ring-mul", "--in", str(job)]) == 0
            ring = json.loads(capsys.readouterr().out)["product"]

            jobt = tmp_path / "jobt.json"
            jobt.write_text(
                json.dumps(
                    {
                        "polygon": FOUR_POINT,
                        "x": {"theta": True, "terms": x},
                        "y": {"theta": True, "terms": y},
                    }
                )
            )
            assert main(["theta-mul", "--in", str(jobt)]) == 0
            theta = json.loads(capsys.readouterr().out)["product"]
            assert theta["terms"] == ring
            assert [t["c"] for t in ring] == cs

    def test_missing_factor_exits_2(self, tmp_path):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"polygon": FOUR_POINT, "x": []}))
        assert main(["ring-mul", "--in", str(job)]) == 2

    @pytest.mark.parametrize(
        "command, x, y",
        [
            ("ring-mul", [], []),
            ("ring-mul", [{"n": [1, 0], "i": 0, "c": "1"}], [{"n": [0, 1], "i": 0, "c": "1"}]),
            ("theta-mul", {"theta": True, "terms": []}, {"theta": True, "terms": []}),
            (
                "theta-mul",
                {"theta": True, "terms": [{"n": [1, 0], "i": 0, "c": "1"}]},
                {"theta": True, "terms": [{"n": [0, 1], "i": 0, "c": "1"}]},
            ),
        ],
    )
    def test_degenerate_polygon_exits_3_even_with_empty_factors(
        self, tmp_path, capsys, command, x, y
    ):
        job = tmp_path / "job.json"
        segment = {"points": [[0, 0], [1, 0]], "heights": ["0", "0"]}
        job.write_text(json.dumps({"polygon": segment, "x": x, "y": y}))
        assert main([command, "--in", str(job)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "DegeneratePolygon: convex hull of 2 points is not 2-dimensional\n"
        )


class TestVerifyMirror:
    def test_simplex_prints_failures_line(self, simplex_path, capsys):
        code = main(
            ["verify-mirror", "--in", simplex_path, "--bound-n", "1", "--bound-i", "1"]
        )
        assert code == 0
        assert "failures: 0" in capsys.readouterr().out

    def test_report_file(self, simplex_path, tmp_path, capsys):
        out = tmp_path / "report.json"
        main(
            [
                "verify-mirror",
                "--in",
                simplex_path,
                "--bound-n",
                "1",
                "--bound-i",
                "1",
                "--out",
                str(out),
            ]
        )
        capsys.readouterr()
        data = json.loads(out.read_text())
        assert data["ok"] is True
        # bounds (1,1): 9 n-values x 3 levels = 27 elements, 27^2 ordered pairs
        assert data["pairs_checked"] == 729


class TestSections:
    def test_box_one_on_four_point(self, four_point_path, capsys):
        assert main(["sections", "--in", four_point_path, "--box", "1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["count"] == 5
        assert data["kernel_seen"] is False
        assert len(data["classes"]) == 5
        for cls in data["classes"]:
            assert set(cls["section"]) == {"0", "1", "2"}
            assert set(cls["degrees"]) == {"0", "1", "2"}


class TestMckay:
    def test_weight_one_one_cover(self, tmp_path, capsys):
        job = tmp_path / "job.json"
        job.write_text(
            json.dumps(
                {"polygon": SIMPLEX, "sublattice": {"basis": [[1, 0], [-1, 3]]}}
            )
        )
        assert main(["mckay", "--in", str(job)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["invariant_factors"] == [1, 3]
        assert data["order"] == 3
        assert data["has_compact_divisor"] is True

    def test_sublattice_flag_overrides(self, simplex_path, capsys):
        code = main(
            [
                "mckay",
                "--in",
                simplex_path,
                "--sublattice",
                '{"basis": [[1, 0], [1, 3]]}',
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["order"] == 3
        assert data["has_compact_divisor"] is False

    def test_singular_sublattice_exits_3(self, simplex_path, capsys):
        code = main(
            ["mckay", "--in", simplex_path, "--sublattice", '{"basis": [[1,0],[2,0]]}']
        )
        assert code == 3
        assert "SingularMatrix" in capsys.readouterr().err


class TestMoment:
    def test_blowup_center_value(self, tmp_path, capsys):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"chi": 1, "abs_u": 1.0, "abs_h": 1.0}))
        assert main(["moment", "--in", str(job), "--eps-blowup", "0.3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert abs(data["value"] - (math.pi + 0.15)) <= 1e-15
        assert data["singular_level"] == 0.3
        assert data["at_singular_level"] is False

    def test_fractional_chi_exits_2(self, tmp_path):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"chi": 0.5, "abs_u": 1.0, "abs_h": 1.0}))
        assert main(["moment", "--in", str(job), "--eps-blowup", "0.3"]) == 2

    def test_infinite_modulus_exits_2(self, tmp_path, capsys):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"chi": 1, "abs_u": "inf", "abs_h": 1}))
        assert main(["moment", "--in", str(job), "--eps-blowup", "0.3"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "SchemaError" in out.err


class TestAmoeba:
    def test_csv_output_and_determinism(self, simplex_path, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = [
            "amoeba",
            "--in",
            simplex_path,
            "--t",
            "7.389",
            "--grid",
            "40x16",
            "--out",
        ]
        assert main(args + [str(out1)]) == 0
        assert main(args + [str(out2)]) == 0
        text = out1.read_text()
        assert text.splitlines()[0] == "r1,r2"
        assert len(text.splitlines()) > 100
        assert out1.read_bytes() == out2.read_bytes()

    def test_thread_cap_does_not_change_output(
        self, simplex_path, tmp_path, monkeypatch
    ):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = [
            "amoeba",
            "--in",
            simplex_path,
            "--t",
            "7.389",
            "--grid",
            "30x12",
            "--out",
        ]
        monkeypatch.setenv("CONIC_MIRROR_THREADS", "1")
        assert main(args + [str(out1)]) == 0
        monkeypatch.setenv("CONIC_MIRROR_THREADS", "4")
        assert main(args + [str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("t", ["inf", "nan"])
    def test_non_finite_t_exits_2(self, simplex_path, capsys, t):
        assert main(["amoeba", "--in", simplex_path, "--t", t]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "SchemaError" in out.err

    def test_bad_grid_exits_2(self, simplex_path):
        assert (
            main(["amoeba", "--in", simplex_path, "--t", "7.389", "--grid", "axb"])
            == 2
        )


class TestPlot:
    def test_four_point_overlay_has_three_legs(self, four_point_path, tmp_path):
        out = tmp_path / "plot.svg"
        code = main(
            [
                "plot",
                "--in",
                four_point_path,
                "--t",
                "54.598",
                "--overlay",
                "amoeba",
                "--grid",
                "60x16",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        svg = out.read_text()
        assert svg.count('class="leg"') == 3
        assert svg.count('class="edge"') == 3
        assert svg.count('class="amoeba"') > 0

    def test_overlay_without_t_exits_2(self, four_point_path):
        assert main(["plot", "--in", four_point_path, "--overlay", "amoeba"]) == 2


class TestConsoleEntry:
    def test_module_invocation_round_trips(self, four_point_path):
        proc = subprocess.run(
            [sys.executable, "-m", "conicmirror.cli", "triangulate", "--in", four_point_path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["version"]
        assert len(data["triangulation"]["cells"]) == 3

    def test_preset_data_file_parses(self):
        from importlib import resources

        from conicmirror.mirror_ring import c3_preset
        from conicmirror.serialize import mirror_element_from_json, polygon_from_json

        raw = json.loads(
            resources.files("conicmirror").joinpath("data/c3_preset.json").read_text()
        )
        poly, gens = c3_preset()
        assert polygon_from_json(raw["polygon"]) == poly
        for name in ("x", "y", "z"):
            assert mirror_element_from_json(raw["generators"][name]) == gens[name]

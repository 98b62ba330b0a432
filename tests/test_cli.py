"""Command-line contract: dispatch, schemas, exit codes, determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conicmirror import cli
from conicmirror.cli import main

SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"
SRC = Path(__file__).resolve().parent.parent / "src"

SIMPLEX = {"points": [[0, 0], [1, 0], [0, 1]], "heights": ["0", "0", "0"]}
FOUR_POINT = {
    "points": [[0, 0], [1, 0], [0, 1], [-1, -1]],
    "heights": ["-1/4", "0", "0", "0"],
}


def _python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports the package from src/."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


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
    """The job is the parsed command line: argparse rejects a command it does
    not know and a missing --in or required flag, with exit code 2."""

    def _usage_error(self, argv, capsys) -> str:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("usage: conic-mirror")
        return out.err.splitlines()[-1]

    def test_unknown_command_rejected(self, capsys):
        assert "invalid choice: 'frobnicate'" in self._usage_error(["frobnicate"], capsys)

    def test_missing_input_rejected(self, capsys):
        message = self._usage_error(["triangulate"], capsys)
        assert message.endswith("the following arguments are required: --in")

    def test_missing_required_option_rejected(self, simplex_path, capsys):
        message = self._usage_error(["verify-mirror", "--in", simplex_path, "--bound-i", "0"], capsys)
        assert message.endswith("the following arguments are required: --bound-n")

    def test_acceptance_needs_no_input(self):
        args = cli._parser().parse_args(["acceptance"])
        assert args.command == "acceptance" and "input_path" not in vars(args)


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


def _assert_one_schema_error(code, capsys):
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err.startswith("SchemaError: ") and out.err.count("\n") == 1


class TestJsonBoundary:
    _UNDECODABLE = {
        "nested_100000_deep": b"[" * 100_000 + b"]" * 100_000,
        "not_utf8": b'{"points": [[0, 0], [1, 0], [0, 1]], "heights": ["\xe9", 0, 0]}',
        "5000_digit_height": (
            b'{"points": [[0, 0], [1, 0], [0, 1]], "heights": [' + b"7" * 5000 + b", 0, 0]}"
        ),
    }

    @pytest.mark.parametrize("case", sorted(_UNDECODABLE))
    def test_undecodable_input_exits_2(self, tmp_path, capsys, case):
        path = tmp_path / "in.json"
        path.write_bytes(self._UNDECODABLE[case])
        _assert_one_schema_error(main(["triangulate", "--in", str(path)]), capsys)

    def test_deeply_nested_sublattice_exits_2(self, simplex_path, capsys):
        code = main(["mckay", "--in", simplex_path, "--sublattice", "[" * 100_000 + "]" * 100_000])
        _assert_one_schema_error(code, capsys)

    @pytest.mark.parametrize("where", ["missing_directory", "directory"])
    @pytest.mark.parametrize(
        "command", [["triangulate"], ["verify-mirror", "--bound-n", "1", "--bound-i", "0"]]
    )
    def test_unwritable_out_exits_2(self, simplex_path, tmp_path, capsys, command, where):
        out = tmp_path / "missing" / "out.json" if where == "missing_directory" else tmp_path
        code = main(command + ["--in", simplex_path, "--out", str(out)])
        _assert_one_schema_error(code, capsys)

    @pytest.mark.parametrize(
        "command, body",
        [
            (["triangulate"], {"points": SIMPLEX["points"], "heights": ["1e999999999", "0", "0"]}),
            (["ring-mul"], {
                "polygon": SIMPLEX,
                "x": [{"n": [1, 0], "i": 0, "c": "1e999999999"}],
                "y": [{"n": [0, 1], "i": 0, "c": "1"}],
            }),
        ],
    )
    def test_huge_decimal_exponent_exits_2_at_once(self, tmp_path, capsys, command, body):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(body))
        start = time.perf_counter()
        code = main(command + ["--in", str(path)])
        assert time.perf_counter() - start < 1.0
        _assert_one_schema_error(code, capsys)

    @pytest.mark.parametrize("command", ["triangulate", "tropical"])
    def test_rational_past_digit_limit_exits_3(self, tmp_path, capsys, command):
        # a valid height whose numerator Python will not print
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"points": SIMPLEX["points"], "heights": ["1e4300", "0", "0"]}))
        start = time.perf_counter()
        code = main([command, "--in", str(path)])
        assert time.perf_counter() - start < 1.0
        assert code == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (
            "DigitLimitError: a rational's numerator has 4301 digits, "
            "past the limit of 4300 for integer strings\n"
        )

    def test_integer_past_digit_limit_exits_3(self, simplex_path, tmp_path, capsys):
        # each basis entry loads and prints; |G| = 10^8000 does not print
        out = tmp_path / "out.json"
        sublattice = json.dumps({"basis": [[10**4000, 0], [0, 10**4000]]})
        code = main(["mckay", "--in", simplex_path, "--sublattice", sublattice, "--out", str(out)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "DigitLimitError: an integer has 8001 digits, "
            "past the limit of 4300 for integer strings\n"
        )
        assert not out.exists()


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
        # the report names what it verified
        assert data["polygon"] == json.loads(Path(simplex_path).read_text())


class TestSections:
    def test_box_one_on_four_point(self, four_point_path, capsys):
        assert main(["sections", "--in", four_point_path, "--box", "1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["count"] == 5
        assert len(data["classes"]) == 5
        # the degree map is injective on shift classes
        assert len({tuple(sorted(c["degrees"].items())) for c in data["classes"]}) == 5
        for cls in data["classes"]:
            assert set(cls["section"]) == {"0", "1", "2"}
            assert set(cls["degrees"]) == {"0", "1", "2"}

    def test_box_zero_on_a_thousand_cells(self, tmp_path, capsys):
        # heights x^2 + xy cut the 1 x 520 strip into a zigzag of 1040 cells
        # whose dual graph is a path, deeper than the default recursion limit
        points = [[x, y] for x in range(521) for y in (0, 1)]
        job = tmp_path / "strip.json"
        job.write_text(json.dumps({"points": points, "heights": [x * x + x * y for x, y in points]}))
        assert main(["sections", "--in", str(job), "--box", "0"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["count"] == 1
        assert len(data["classes"][0]["section"]) == 1040
        assert len(data["classes"][0]["degrees"]) == 1039


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

    def test_huge_quotient_answers_at_once(self, simplex_path, capsys):
        # |G| = 10^10: the cover triangle holds about 5 * 10^9 lattice points
        start = time.perf_counter()
        code = main(
            ["mckay", "--in", simplex_path, "--sublattice", '{"basis": [[100000, 0], [0, 100000]]}']
        )
        assert time.perf_counter() - start < 1.0
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["order"] == 10**10
        assert data["has_compact_divisor"] is True

    def test_non_residue_block_label_exits_3(self, tmp_path, capsys):
        # (0, 3) is not a residue against the invariant factors (2, 2)
        entry = {"g": [0, 3], "h": [0, 3], "n": [0, 0], "i": 0, "c": "1"}
        x = {"cover": True, "entries": [entry]}
        job = tmp_path / "job.json"
        job.write_text(json.dumps(
            {"polygon": SIMPLEX, "sublattice": {"basis": [[2, 0], [0, 2]]}, "x": x, "y": x}
        ))
        assert main(["mckay", "--in", str(job)]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("InconsistentEntry: ")

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

    def test_fractional_chi_exits_2(self, tmp_path, capsys):
        job = tmp_path / "job.json"
        for chi in (0.5, 2):
            job.write_text(json.dumps({"chi": chi, "abs_u": 1.0, "abs_h": 1.0}))
            assert main(["moment", "--in", str(job), "--eps-blowup", "0.3"]) == 2
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err == (
                "SchemaError: closed forms are available only for chi = 0 or chi = 1\n"
            )

    @pytest.mark.parametrize("key", ["chi", "abs_u", "abs_h"])
    def test_boolean_value_exits_2(self, tmp_path, capsys, key):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"chi": 1, "abs_u": 1, "abs_h": 1, key: True}))
        assert main(["moment", "--in", str(job), "--eps-blowup", "0.3"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"SchemaError: moment input {key!r}: expected a number, got a boolean\n"

    @pytest.mark.parametrize("key", ["chi", "abs_u", "abs_h"])
    def test_integer_past_float_range_exits_2(self, tmp_path, capsys, key):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"chi": 1, "abs_u": 1, "abs_h": 1, key: 10**400}))
        assert main(["moment", "--in", str(job), "--eps-blowup", "0.3"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"SchemaError: moment input {key!r}: integer past the float range\n"

    @pytest.mark.parametrize("key", ["chi", "abs_u", "abs_h"])
    def test_string_value_exits_2(self, tmp_path, capsys, key):
        # float() would read " 1_0 " as 10.0
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"chi": 1, "abs_u": 1, "abs_h": 0, key: " 1_0 "}))
        assert main(["moment", "--in", str(job), "--eps-blowup", "0.3"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"SchemaError: moment input {key!r}: expected a number, got a string\n"

    def test_infinite_modulus_exits_2(self, tmp_path, capsys):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"chi": 1, "abs_u": "inf", "abs_h": 1}))
        assert main(["moment", "--in", str(job), "--eps-blowup", "0.3"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "SchemaError" in out.err

    def test_overflowing_value_exits_2(self, tmp_path, capsys):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"chi": 1, "abs_u": 1e308, "abs_h": 1e308}))
        assert main(["moment", "--in", str(job), "--eps-blowup", "1e308"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "SchemaError: moment map value nan is not finite\n"

    def test_huge_blowup_size_does_not_overflow_early(self, tmp_path, capsys):
        # eps * |u|^2 = 1e309 overflows, eps * (|u|^2 / (|h|^2 + |u|^2)) = 1e307 does not
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"chi": 1, "abs_u": 10, "abs_h": 0}))
        assert main(["moment", "--in", str(job), "--eps-blowup", "1e307"]) == 0
        value = json.loads(capsys.readouterr().out)["value"]
        assert math.isfinite(value) and value == pytest.approx(1e307, rel=1e-12)

    def test_underflowing_moduli_give_the_ratio_limit(self, tmp_path, capsys):
        # |u|^2 and |h|^2 both underflow to 0; the ratio term is still eps/2
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"chi": 1, "abs_u": 1e-200, "abs_h": 1e-200}))
        assert main(["moment", "--in", str(job), "--eps-blowup", "0.3"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 0.15


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

    @pytest.mark.parametrize("t", ["inf", "nan"])
    def test_non_finite_t_exits_2(self, simplex_path, capsys, t):
        assert main(["amoeba", "--in", simplex_path, "--t", t]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "SchemaError" in out.err

    @pytest.mark.parametrize(
        "viewport", ["-inf,-1,inf,1", "-1e308,-1e308,1e308,1e308", "0,0,1,inf"]
    )
    @pytest.mark.parametrize("command", [["amoeba", "--t", "10"], ["plot"]])
    def test_non_finite_viewport_exits_2(self, four_point_path, capsys, command, viewport):
        argv = command + ["--in", four_point_path, f"--viewport={viewport}"]
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "SchemaError: --viewport must have finite corners and widths\n"

    @pytest.mark.parametrize(
        "command",
        [["amoeba", "--t", "54.598", "--grid", "12x4"],
         ["plot", "--t", "54.598", "--overlay", "amoeba", "--grid", "12x4"]],
    )
    def test_viewport_as_separate_argument(self, four_point_path, capsys, command):
        outputs = []
        for form in (["--viewport", "-2,-2,2,2"], ["--viewport=-2,-2,2,2"]):
            assert main(command + ["--in", four_point_path] + form) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert outputs[0].err == "" and outputs[0].out

    def test_bad_grid_exits_2(self, simplex_path):
        assert (
            main(["amoeba", "--in", simplex_path, "--t", "7.389", "--grid", "axb"])
            == 2
        )

    @pytest.mark.parametrize("command", [["amoeba"], ["plot", "--overlay", "amoeba"]])
    def test_grid_past_work_cap_exits_2_at_once(self, four_point_path, capsys, command):
        argv = command + ["--in", four_point_path, "--t", "7.389", "--grid", "1000000x1000000"]
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (
            "SchemaError: amoeba grid 1000000x1000000 asks for 2000000000000 roots "
            "(1000000000000 lines x degree 2 in w_1), above the cap of 500000; "
            "pass a smaller --grid\n"
        )

    def test_work_cap_admits_wide_margins(self):
        def triangle(d):
            points = [[x, y] for x in range(d + 1) for y in range(d + 1 - x)]
            return {"points": points, "heights": [0] * len(points)}

        cases = [
            (json.loads((SAMPLES / name).read_text()), (1000, 64))
            for name in ("simplex.json", "four_point.json")
        ]
        cases += [(triangle(6), (1000, 64)), (triangle(10), (200, 64))]
        for data, grid in cases:
            cli._check_grid_work(cli._polygon_of(data, "input"), grid)

    @pytest.mark.parametrize("sample", ["four_point.json", "simplex.json"])
    @pytest.mark.parametrize("command", [["amoeba"], ["plot", "--overlay", "amoeba"]])
    def test_t_past_float_range_exits_3(self, capsys, command, sample):
        # t^{r_2} underflows to 0 (four-point) or overflows (simplex)
        argv = command + ["--in", str(SAMPLES / sample), "--t", "1e300"]
        assert main(argv) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("RootFindingFailure: line coefficients at t = 1e+300")
        assert "Traceback" not in out.err

    @pytest.mark.parametrize(
        "body, message",
        [
            # a curve vertex past the float range; tropical exits 0 on it
            ({"points": [[0, 0], [1, 0], [0, 1], [1, 1]], "heights": ["1e400", "0", "0", "0"]},
             "exact value of about 10^400 is past the float range"),
            # a vertex in range, but the padding is below its float precision
            ({"points": SIMPLEX["points"], "heights": ["8e307", "0", "0"]},
             "default viewport (-8e+307, -8e+307), (-8e+307, -8e+307) has no finite positive "
             "size in floats"),
        ],
        ids=["vertex_past_range", "padding_below_precision"],
    )
    @pytest.mark.parametrize("command", [["plot"], ["amoeba", "--t", "10"]])
    def test_curve_past_float_range_exits_3(self, tmp_path, capsys, command, body, message):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(body))
        assert main(command + ["--in", str(path)]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"FloatRangeError: {message}\n"

    def test_overflow_is_not_reported_as_numpy_warnings(self):
        # a fresh process: numpy warns once per source line and process, and
        # the rows before the failing power overflow in the residual filter
        proc = _python("-m", "conicmirror.cli", "amoeba", "--in", str(SAMPLES / "simplex.json"),
                       "--t", "1e300", "--grid", "600x1")
        assert proc.returncode == 3
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("RootFindingFailure: ")


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

    @pytest.mark.parametrize(
        "given, flag",
        [(["--t", "3", "--grid", "999999x999999"], "--t"), (["--grid", "8x4"], "--grid")],
    )
    def test_amoeba_flags_without_overlay_exit_2(self, four_point_path, capsys, given, flag):
        assert main(["plot", "--in", four_point_path] + given) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"SchemaError: plot {flag} requires --overlay amoeba\n"

    @pytest.mark.parametrize("viewport", ["0,0,5e-324,1", "0,0,1,5e-324"])
    def test_viewport_too_narrow_for_pixels_exits_2(self, four_point_path, capsys, viewport):
        assert main(["plot", "--in", four_point_path, f"--viewport={viewport}"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "SchemaError: --viewport is too narrow to scale to 600 pixels\n"
        # amoeba scales nothing to pixels and takes the same viewport
        argv = ["amoeba", "--in", four_point_path, "--t", "54.598", "--grid", "4x2"]
        assert main(argv + [f"--viewport={viewport}"]) == 0
        assert json.loads(capsys.readouterr().out)["cloud"]["viewport"] == [
            [0.0, 0.0], [float(v) for v in viewport.split(",")[2:]]
        ]


class TestConsoleEntry:
    def test_module_invocation_round_trips(self, four_point_path):
        proc = _python("-m", "conicmirror.cli", "triangulate", "--in", four_point_path)
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["version"]
        assert len(data["triangulation"]["cells"]) == 3


def _job_files(tmp_path) -> dict:
    """ring-mul, theta-mul, mckay and moment jobs on the sample polygons."""
    four = json.loads((SAMPLES / "four_point.json").read_text())
    simplex = json.loads((SAMPLES / "simplex.json").read_text())
    jobs = {
        "ring": {
            "polygon": four,
            "x": [{"n": [1, 0], "i": 0, "c": "5/7"}],
            "y": [{"n": [-1, -1], "i": 0, "c": "7/5"}],
        },
        "theta": {
            "polygon": simplex,
            "x": {"theta": True, "terms": [{"n": [1, 0], "i": 0, "c": "1"}]},
            "y": {"theta": True, "terms": [{"n": [0, 1], "i": 1, "c": "2"}]},
        },
        "mckay": {"polygon": simplex, "sublattice": {"basis": [[1, 0], [1, 3]]}},
        "moment": {"chi": 1, "abs_u": 0.5, "abs_h": 2.0},
    }
    paths = {}
    for name, body in jobs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(body))
        paths[name] = str(path)
    return paths


_IMPORT_PROBE = """
import json, sys
from conicmirror import cli
exact, amoeba = json.loads(sys.argv[1])
codes = [cli.main(argv) for argv in exact]
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy", "sympy"))
codes.append(cli.main(amoeba))
print(json.dumps({"codes": codes, "loaded": loaded, "amoeba_numpy": "numpy" in sys.modules}))
"""


class TestNumpyFree:
    def test_exact_commands_do_not_load_numpy(self, tmp_path):
        # a subprocess of its own: other tests load numpy into this one
        four, simplex = str(SAMPLES / "four_point.json"), str(SAMPLES / "simplex.json")
        jobs = _job_files(tmp_path)
        out = str(tmp_path / "out")
        exact = [
            ["triangulate", "--in", four, "--out", out],
            ["tropical", "--in", four, "--out", out],
            ["sections", "--in", four, "--box", "1", "--out", out],
            ["ring-mul", "--in", jobs["ring"], "--out", out],
            ["theta-mul", "--in", jobs["theta"], "--out", out],
            ["verify-mirror", "--in", simplex, "--bound-n", "1", "--bound-i", "0"],
            ["mckay", "--in", jobs["mckay"], "--out", out],
            ["moment", "--in", jobs["moment"], "--eps-blowup", "0.3", "--out", out],
            ["plot", "--in", four, "--out", out],
        ]
        amoeba = ["amoeba", "--in", simplex, "--t", "7.389", "--grid", "8x4", "--out", out]
        proc = _python("-c", _IMPORT_PROBE, json.dumps([exact, amoeba]))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["codes"] == [0] * (len(exact) + 1)
        assert result["loaded"] == []
        assert result["amoeba_numpy"] is True


class TestParserReuse:
    def _calls(self, tmp_path):
        four, simplex = str(SAMPLES / "four_point.json"), str(SAMPLES / "simplex.json")
        jobs = _job_files(tmp_path)
        return [
            # with an option, then the same command without it
            ["triangulate", "--in", four, "--out", "tri.json"],
            ["triangulate", "--in", four],
            ["tropical", "--in", simplex],
            ["amoeba", "--in", four, "--t", "54.598", "--grid", "12x4",
             "--viewport", "-2,-2,2,2", "--out", "cloud.csv"],
            ["amoeba", "--in", four, "--t", "54.598", "--grid", "12x4"],
            ["amoeba", "--in", simplex, "--t", "7.389"],
            # an empty value counts as not given
            ["amoeba", "--in", simplex, "--t", "7.389", "--grid", ""],
            ["amoeba", "--in", four, "--t", "54.598", "--grid", "12x4", "--viewport="],
            ["ring-mul", "--in", jobs["ring"], "--out", "product.json"],
            ["theta-mul", "--in", jobs["theta"]],
            ["verify-mirror", "--in", simplex, "--bound-n", "1", "--bound-i", "0",
             "--out", "verify.json"],
            ["verify-mirror", "--in", simplex, "--bound-n", "1", "--bound-i", "1"],
            ["sections", "--in", four, "--box", "1"],
            ["mckay", "--in", jobs["mckay"], "--sublattice", '{"basis": [[1, 0], [-1, 3]]}'],
            ["mckay", "--in", jobs["mckay"]],
            ["mckay", "--in", jobs["mckay"], "--sublattice", ""],
            ["moment", "--in", jobs["moment"], "--eps-blowup", "0.3"],
            ["plot", "--in", four, "--t", "54.598", "--overlay", "amoeba",
             "--grid", "12x4", "--viewport", "-3,-3,3,3", "--out", "overlay.svg"],
            ["plot", "--in", four, "--out", "plain.svg"],
            ["plot", "--in", simplex, "--t", "7.389", "--overlay", "amoeba"],
            ["plot", "--in", simplex],
            # failures inside and outside argparse
            ["amoeba", "--in", simplex],
            ["amoeba", "--in", simplex, "--t", "7.389", "--grid", "axb"],
            ["triangulate", "--in", four, "--no-such-flag"],
            ["acceptance", "--seed", "x"],
            ["--version"],
        ]

    def _run(self, calls, out_dir, monkeypatch, capsys):
        # --out names are relative: each order writes into its own directory
        out_dir.mkdir()
        monkeypatch.chdir(out_dir)
        results = {}
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("SystemExit", exc.code)
            captured = capsys.readouterr()
            files = {}
            for p in out_dir.iterdir():
                files[p.name] = p.read_bytes()
                p.unlink()
            results[tuple(argv)] = (code, captured.out, captured.err, files)
        return results

    def test_call_order_does_not_change_results(self, tmp_path, monkeypatch, capsys):
        calls = self._calls(tmp_path)
        forward = self._run(calls, tmp_path / "forward", monkeypatch, capsys)
        backward = self._run(calls[::-1], tmp_path / "backward", monkeypatch, capsys)
        assert cli._parser() is cli._parser()
        assert len(forward) == len(calls)
        assert forward == backward
        assert forward[("--version",)][0] == ("SystemExit", 0)
        bad_flag = ("triangulate", "--in", str(SAMPLES / "four_point.json"), "--no-such-flag")
        assert forward[bad_flag][0] == ("SystemExit", 2)
        assert forward[("acceptance", "--seed", "x")][0] == ("SystemExit", 2)
        bad_grid = ("amoeba", "--in", str(SAMPLES / "simplex.json"), "--t", "7.389", "--grid", "axb")
        assert forward[bad_grid][:3] == (2, "", "SchemaError: --grid must look like 200x64, got 'axb'\n")
        # an empty --grid, --viewport or --sublattice counts as not given
        four, simplex = str(SAMPLES / "four_point.json"), str(SAMPLES / "simplex.json")
        mckay = next(argv for argv in calls if argv[0] == "mckay")[2]
        for empty, given_nothing in [
            (("amoeba", "--in", simplex, "--t", "7.389", "--grid", ""),
             ("amoeba", "--in", simplex, "--t", "7.389")),
            (("amoeba", "--in", four, "--t", "54.598", "--grid", "12x4", "--viewport="),
             ("amoeba", "--in", four, "--t", "54.598", "--grid", "12x4")),
            # the sublattice comes from the input file
            (("mckay", "--in", mckay, "--sublattice", ""), ("mckay", "--in", mckay)),
        ]:
            assert forward[empty][0] == 0
            assert forward[empty] == forward[given_nothing]


_FOUR, _SIMPLEX = str(SAMPLES / "four_point.json"), str(SAMPLES / "simplex.json")

# (command, flag) -> the argv without the flag, then two argv tails that set
# it differently; "job:<name>" stands for that file of _job_files
_FLAG_CASES = {
    ("amoeba", "--t"): (
        ["amoeba", "--in", _FOUR, "--grid", "8x4"], ["--t", "54.598"], ["--t", "7.389"]),
    ("amoeba", "--grid"): (
        ["amoeba", "--in", _FOUR, "--t", "54.598"], ["--grid", "8x4"], ["--grid", "6x4"]),
    ("amoeba", "--viewport"): (
        ["amoeba", "--in", _FOUR, "--t", "54.598", "--grid", "8x4"],
        ["--viewport", "-2,-2,2,2"], ["--viewport", "-3,-3,3,3"]),
    ("verify-mirror", "--bound-n"): (
        ["verify-mirror", "--in", _SIMPLEX, "--bound-i", "0"],
        ["--bound-n", "1"], ["--bound-n", "2"]),
    ("verify-mirror", "--bound-i"): (
        ["verify-mirror", "--in", _SIMPLEX, "--bound-n", "1"],
        ["--bound-i", "0"], ["--bound-i", "1"]),
    ("sections", "--box"): (["sections", "--in", _FOUR], ["--box", "0"], ["--box", "1"]),
    ("mckay", "--sublattice"): (
        ["mckay", "--in", "job:mckay"], [], ["--sublattice", '{"basis": [[1, 0], [0, 2]]}']),
    ("moment", "--eps-blowup"): (
        ["moment", "--in", "job:moment"], ["--eps-blowup", "0.3"], ["--eps-blowup", "0.5"]),
    ("plot", "--t"): (
        ["plot", "--in", _FOUR, "--overlay", "amoeba", "--grid", "8x4"],
        ["--t", "54.598"], ["--t", "7.389"]),
    ("plot", "--grid"): (
        ["plot", "--in", _FOUR, "--overlay", "amoeba", "--t", "54.598"],
        ["--grid", "8x4"], ["--grid", "6x4"]),
    ("plot", "--viewport"): (
        ["plot", "--in", _FOUR], ["--viewport", "-2,-2,2,2"], ["--viewport", "-3,-3,3,3"]),
    ("plot", "--overlay"): (
        ["plot", "--in", _FOUR], [], ["--overlay", "amoeba", "--t", "54.598", "--grid", "8x4"]),
}

# flags without a case: one acceptance run takes about 8 s
_FLAGS_WITHOUT_CASE = {("acceptance", "--seed")}


class TestEveryFlagMatters:
    """Each option flag of each command changes what the command prints, so a
    flag that the command ignores fails here."""

    def test_cases_cover_every_flag(self):
        flags = {(name, flag) for name, command in cli.COMMANDS.items() for flag in command.flags}
        assert set(_FLAG_CASES) | _FLAGS_WITHOUT_CASE == flags
        assert not set(_FLAG_CASES) & _FLAGS_WITHOUT_CASE

    @pytest.mark.parametrize("command, flag", sorted(_FLAG_CASES))
    def test_flag_changes_the_output(self, tmp_path, capsys, command, flag):
        jobs = _job_files(tmp_path)
        base, first, second = _FLAG_CASES[command, flag]
        assert flag not in base and flag in first + second
        out = tmp_path / "out"
        printed = []
        for tail in (first, second):
            argv = [jobs[a[4:]] if a.startswith("job:") else a for a in base + tail]
            assert main(argv + ["--out", str(out)]) == 0, capsys.readouterr().err
            printed.append((out.read_bytes(), capsys.readouterr().out))
        assert printed[0] != printed[1]


def _pinned_calls(tmp_path) -> dict:
    """(sample, command) -> argv: the exact commands on both sample polygons,
    with ring-mul, theta-mul and mckay jobs built on each polygon."""
    terms_x = [{"n": [1, 0], "i": 0, "c": "5/7"}, {"n": [0, 1], "i": 1, "c": "-2"}]
    terms_y = [{"n": [-1, -1], "i": 0, "c": "7/5"}, {"n": [1, 0], "i": 2, "c": "1/2"}]
    # G = Z/3 for the basis below, and each n projects to (0, 1), so every
    # entry has h = g + (0, 1)
    cover_x = {"cover": True, "entries": [
        {"g": [0, 0], "h": [0, 1], "n": [1, 0], "i": 0, "c": "1"},
        {"g": [0, 2], "h": [0, 0], "n": [0, 1], "i": 1, "c": "-3/2"},
    ]}
    cover_y = {"cover": True, "entries": [
        {"g": [0, 2], "h": [0, 0], "n": [0, 1], "i": 0, "c": "2"},
        {"g": [0, 1], "h": [0, 2], "n": [-1, -1], "i": 0, "c": "1/3"},
    ]}
    calls = {}
    for sample in ("four_point", "simplex"):
        path = str(SAMPLES / f"{sample}.json")
        poly = json.loads((SAMPLES / f"{sample}.json").read_text())
        jobs = {
            "ring-mul": {"polygon": poly, "x": terms_x, "y": terms_y},
            "theta-mul": {
                "polygon": poly,
                "x": {"theta": True, "terms": terms_x},
                "y": {"theta": True, "terms": terms_y},
            },
            "mckay": {
                "polygon": poly,
                "sublattice": {"basis": [[1, 0], [-1, 3]]},
                "x": cover_x,
                "y": cover_y,
            },
        }
        for command, body in jobs.items():
            job = tmp_path / f"{sample}-{command}.json"
            job.write_text(json.dumps(body))
            calls[sample, command] = [command, "--in", str(job)]
        calls[sample, "triangulate"] = ["triangulate", "--in", path]
        calls[sample, "tropical"] = ["tropical", "--in", path]
        calls[sample, "sections"] = ["sections", "--in", path, "--box", "2"]
        calls[sample, "plot"] = ["plot", "--in", path]
        calls[sample, "verify-mirror"] = [
            "verify-mirror", "--in", path, "--bound-n", "1", "--bound-i", "1",
            "--out", str(tmp_path / f"{sample}-verify.json"),
        ]
    return calls


def _pinned_digest(argv, capsys) -> str:
    """sha256 of what argv writes: its --out file, if any, then its stdout."""
    assert main(argv) == 0
    out = capsys.readouterr().out.encode("utf-8")
    if "--out" in argv:
        out = Path(argv[argv.index("--out") + 1]).read_bytes() + out
    return hashlib.sha256(out).hexdigest()


class TestPinnedBytes:
    """The exact commands' output bytes, and plot's without an overlay,
    pinned by sha256. A change to the JSON writer, to a payload or to the
    version string shows here."""

    DIGESTS = {
        ("four_point", "mckay"): "12f41fc762ac6f56545d913240ff38112795d8e39b565a2ecbd8723c6c4e440b",
        ("four_point", "plot"): "3c20e39a3eb9006781026886df100e7c64efea5dc604489eba8559564696d745",
        ("four_point", "ring-mul"): "80db6bdbc96a7715caf02865615e21e4d462b889dd6f59a700fe10ac9566e77a",
        ("four_point", "sections"): "a30d8fde8834b297ec0c1a0d2156a883b76381d02f94bed148b0fcddd73f1e9f",
        ("four_point", "theta-mul"): "545791161f84a1f46fa00c6504a1c0ab44de1f694f6667a38235120299deecbe",
        ("four_point", "triangulate"): "594e85bd796e91fa0db3cb542023221e2a389abc8a707cc4f1d3d670e4b37d66",
        ("four_point", "tropical"): "8f0101db701ce7af5c7e67301bd72921de5e9a4ead2b552fa8ddcbd50de21bed",
        ("four_point", "verify-mirror"): "d6b29eae4cc8d79a49db01530801bac7f360128b95c0374f2efb3da5c215b034",
        ("simplex", "mckay"): "dbaf3302b12fc18afd7fc022f6023d369e689dfc8ad11596a9f218ced7691ad7",
        ("simplex", "plot"): "2d749dd6d1d4fd4ff2d227edb12d0ebf4c8d0516d60ea03ae360bc2a0d449230",
        ("simplex", "ring-mul"): "90d44b2101877090242594e6323271c6a135eea844a18de5e28f4cd5caf66cec",
        ("simplex", "sections"): "4b64519b87e61716d6f6a948a50e0bfe2c20641d80a9cb9fd226b9c25038d163",
        ("simplex", "theta-mul"): "855a9fc49d157fc3747a30eaf31a36b3475543e5c16c6228894cc4e80f50ddf7",
        ("simplex", "triangulate"): "f8aac65d73f6f4553507a384bb85b19a192a20bccfa6d28cc1170f40fd5e5591",
        ("simplex", "tropical"): "84fca600d0161cd5e01c0be445c282f59cbcfb417d6f56c6209e2a98caa47b97",
        ("simplex", "verify-mirror"): "547c92b62815e57fb846d9617781e7a79d9fc5ae5753214b68ad768e3cead568",
    }

    def test_outputs_match_pinned_digests(self, tmp_path, capsys):
        calls = _pinned_calls(tmp_path)
        assert sorted(calls) == sorted(self.DIGESTS)
        digests = {key: _pinned_digest(argv, capsys) for key, argv in calls.items()}
        assert digests == self.DIGESTS

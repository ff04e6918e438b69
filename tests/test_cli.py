import json
import subprocess
import sys

import pytest

from zinv.cli import main


class TestInvert:
    def test_unit_quadratic(self, capsys):
        assert main(["invert", "1/(z^2+1)"]) == 0
        out = capsys.readouterr().out
        assert "u[n-2]" in out and "sin(1.5708*(n-1))" in out

    def test_simple_pole(self, capsys):
        assert main(["invert", "1/(z-3)"]) == 0
        assert capsys.readouterr().out.strip() == "3^(n-1)*u[n-1]"

    def test_origin(self, capsys):
        assert main(["invert", "5/z^2"]) == 0
        assert capsys.readouterr().out.strip() == "5*δ[n-2]"

    def test_json_schema(self, capsys):
        assert main(["invert", "(z^3+1)/(z^2+1)", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"input", "poly_part", "terms", "warnings", "formula"}
        assert doc["input"] == "(z^3+1)/(z^2+1)"
        assert doc["poly_part"] == [0.0, 1.0]
        kinds = {t["kind"] for t in doc["terms"]}
        assert "quad_pole" in kinds
        assert any("non-causal" in w for w in doc["warnings"])

    def test_parse_error_exit_2(self, capsys):
        assert main(["invert", "1/(q^2+1)"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_csv_rejected(self, capsys):
        assert main(["invert", "1/(z-1)", "--format", "csv"]) == 2


class TestTable:
    def test_longdiv_values(self, capsys):
        assert main(["table", "1/(z^2+1)", "--n", "6", "--method", "longdiv"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.strip().splitlines()]
        assert [float(r[1]) for r in rows] == [0, 0, 1, 0, -1, 0, 1]

    def test_default_method_proposed(self, capsys):
        assert main(["table", "z/(z-1)", "--n", "3"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.strip().splitlines()]
        assert [float(r[1]) for r in rows] == [1, 1, 1, 1]

    def test_csv_header(self, capsys):
        assert main(["table", "1/(z^2+1)^2", "--n", "8", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,x"
        assert [float(l.split(",")[1]) for l in lines[1:]] == [
            0, 0, 0, 0, 1, 0, -2, 0, 3,
        ]

    def test_residue_starts_at_one(self, capsys):
        assert main(["table", "1/(z-2)", "--n", "4", "--method", "residue"]) == 0
        captured = capsys.readouterr()
        rows = [line.split() for line in captured.out.strip().splitlines()]
        assert rows[0][0] == "1"
        assert "n=1" in captured.err

    def test_all_methods_csv(self, capsys):
        assert main(["table", "1/(z-2)", "--n", "3", "--method", "all", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,proposed,longdiv,moreira,juric"

    def test_json(self, capsys):
        assert main(["table", "z/(z-1)", "--n", "2", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["values"] == [1, 1, 1]


    @pytest.mark.parametrize("expr", ["1/(z^2-4z+8)", "1/(z^2-4.5z+8.5)"])
    def test_overflow_exit_one(self, expr, capsys):
        # integer and float pole data overflow with the same error
        assert main(["table", expr, "--n", "2200"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: quadratic-pole sequence overflows a float at n=")


class TestCompare:
    def test_pass_exit_zero(self, capsys):
        assert main(["compare", "1/(z^2+1)", "--n", "20"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_growing_pair_fixture(self, capsys):
        assert main(["compare", "(2z+3)/((z^2-2z+2)^3)", "--n", "40"]) == 0

    def test_json_has_timings(self, capsys):
        assert main(["compare", "1/(z^2+1)", "--n", "10", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        for m in ("proposed", "longdiv", "moreira", "juric"):
            assert "seconds" in doc["methods"][m]
        assert all("max_dev" in p for p in doc["pairs"])

    def test_impossible_tolerance_exit_one(self, capsys):
        # pair methods disagree at the 1e-30 level by construction of floats
        code = main(["compare", "1/((z-0.5)*(z^2-z+0.5))", "--n", "40", "--tol", "1e-30"])
        assert code == 1

    def test_infinite_bound_fails(self, capsys):
        # the series overflows: the scale and so the bound are infinite
        assert main(["compare", "1/(z^2-3z+4.5)", "--n", "1500"]) == 1
        out = capsys.readouterr().out
        assert "PASS" not in out and out.rstrip().endswith("FAIL")

    def test_fuzz_small(self, capsys):
        assert main(["compare", "--fuzz", "10", "--seed", "42"]) == 0
        out = capsys.readouterr().out
        assert "10 cases" in out and "PASS" in out

    def test_batch_compare(self, tmp_path, capsys):
        batch = tmp_path / "exprs.txt"
        batch.write_text("1/(z^2+1)\nz/(z-1)\n")
        assert main(["compare", "--batch", str(batch), "--n", "15", "--format", "json"]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert [d["passed"] for d in docs] == [True, True]


class TestIdentities:
    def test_text_output(self, capsys):
        assert main(["identities"]) == 0
        out = capsys.readouterr().out
        assert "internal_summation: 0 failures" in out
        assert "surjection: 0 failures" in out
        assert "convolution_vs_closed_form" in out
        assert out.strip().endswith("PASS")

    def test_json(self, capsys):
        assert main(["identities", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert doc["internal_summation"]["failures"] == []
        assert doc["surjection"]["failures"] == []


class TestBatch:
    def test_batch_table_json_roundtrip(self, tmp_path, capsys):
        batch = tmp_path / "exprs.txt"
        batch.write_text("# demo\n1/(z^2+1)\nz/(z-1)\n")
        assert main(["table", "--batch", str(batch), "--n", "4", "--format", "json"]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert len(docs) == 2
        assert docs[0]["input"] == "1/(z^2+1)"
        assert docs[1]["values"] == [1, 1, 1, 1, 1]

    def test_batch_invert_text(self, tmp_path, capsys):
        batch = tmp_path / "exprs.txt"
        batch.write_text("1/(z-3)\n5/z^2\n")
        assert main(["invert", "--batch", str(batch)]) == 0
        out = capsys.readouterr().out
        assert "1/(z-3) -> 3^(n-1)*u[n-1]" in out

    def test_missing_batch_file(self, capsys):
        assert main(["table", "--batch", "/nonexistent/file.txt"]) == 2


class TestUsage:
    def test_missing_expression(self, capsys):
        assert main(["invert"]) == 2

    def test_negative_n(self, capsys):
        assert main(["table", "z/(z-1)", "--n", "-3"]) == 2

    def test_bad_tol(self, capsys):
        assert main(["compare", "z/(z-1)", "--tol", "0"]) == 2

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "zinv.cli", "invert", "1/(z-3)"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "3^(n-1)*u[n-1]"

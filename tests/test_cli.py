import json
import math
import re
import subprocess
import sys

import pytest

from zinv import cli, oracles
from zinv.cli import main
from zinv.oracles import residue_value
from zinv.parser import parse_rational_expr


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

    def test_cancelled_written_factor_keeps_exact_poles(self, capsys):
        # 2z-1 cancels one power of the written (z-0.5)^2; the rest stays exact
        assert main(["invert", "(2z-1)/((z-0.5)^2 (z^2-z+0.5))", "--format", "json"]) == 0
        real, quad = json.loads(capsys.readouterr().out)["terms"]
        assert (real["pole"], real["amp"], real["mult"]) == (0.5, 8.0, 1)
        assert (quad["a"], quad["b"], quad["z_amp"], quad["const_amp"]) == (0.5, 0.5, -8.0, 4.0)

    def test_parse_error_exit_2(self, capsys):
        assert main(["invert", "1/(q^2+1)"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "expr, line",
        [
            ("(z+1))/z", "error: unbalanced ')' at line 1, column 6"),
            ("/z", "error: missing numerator before '/' at line 1, column 1"),
            ("1/(z-z)", "error: denominator is identically zero at line 1, column 2"),
            (
                "1/z^z",
                "error: exponent must be an integer literal at line 1, column 5 (expected INTEGER)",
            ),
            (
                "z^2^3",
                "error: unexpected token '^' at line 1, column 4"
                " (expected operator or end of input)",
            ),
        ],
    )
    def test_parse_error_line(self, expr, line, capsys):
        assert main(["invert", expr]) == 2
        assert capsys.readouterr() == ("", line + "\n")

    def test_warning_line(self, capsys):
        assert main(["invert", "(z^3+1)/(z-0.5)"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "0.25*δ[n] + 0.5*δ[n+1] + δ[n+2] + 1.125*0.5^(n-1)*u[n-1]\n"
        assert captured.err == "warning: non-causal polynomial part: delta[n+k] terms vanish for n >= 0\n"

    @pytest.mark.parametrize(
        "expr",
        [
            "1/(1e100*z^2+1e100)^4",
            "1/(1e200*z^2+1e200*z+1e200)^2",
            "1/(z^2*1e308*10+1)",
            "z/(1e-320*z^2+1)",
            "1/(2*z-10^400)",
            "1/((2*z-10^400)*(z-1))",
        ],
    )
    def test_out_of_float_range_exit_one(self, expr, capsys):
        with pytest.raises(ValueError) as exc:
            parse_rational_expr(expr)
        assert main(["invert", expr]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {exc.value}\n"
        assert "out of the float range" in captured.err

    def test_csv_rejected(self, capsys):
        # argparse rejects it: only table offers csv
        with pytest.raises(SystemExit) as exc:
            main(["invert", "1/(z-1)", "--format", "csv"])
        assert exc.value.code == 2
        assert "zinv invert: error: argument --format: invalid choice: 'csv'" in capsys.readouterr().err


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
        assert captured.err == "note: residue method starts at n=1 (n=0 is out of its domain)\n"

    def test_all_methods_csv(self, capsys):
        assert main(["table", "1/(z-2)", "--n", "3", "--method", "all", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,proposed,longdiv,moreira,juric"

    def test_improper_input_all_columns_agree(self, capsys):
        # long division drops the z^k terms of the improper input, as the others do
        expr = "(z^6-2z+1)/((z-0.5)^2 (z^2+z+1))"
        assert main(["table", expr, "--n", "40", "--method", "all", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["columns"] == ["n", "proposed", "longdiv", "moreira", "juric"]
        for proposed, *others in doc["values"]:
            assert others == pytest.approx([proposed] * 3, rel=1e-9, abs=1e-9)

    def test_value_near_the_top_of_the_float_range(self, capsys):
        # 2 Im((a+ib)^663) is beyond the float range, x[664] is not
        assert main(["table", "1/(z^2-4.5z+8.5)", "--n", "664"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "664 -6.75040319924e+307"

    def test_json(self, capsys):
        assert main(["table", "z/(z-1)", "--n", "2", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["values"] == [1, 1, 1]

    def _values(self, expr, capsys, n=600):
        assert main(["table", expr, "--n", str(n), "--format", "json"]) == 0
        return json.loads(capsys.readouterr().out)["values"]

    def test_integer_valued_float_pole_is_exact(self, capsys):
        # a float pole with an integer value takes exact integer powers, like
        # an int pole: each 3**(n-1) rounded once
        values = self._values("1/(z-3.0)", capsys)
        assert values == self._values("1/(z-3)", capsys)
        assert values == [0.0] + [float(3 ** (n - 1)) for n in range(1, 601)]
        # the monic form's amplitude 1/8 scales each value exactly
        scaled = self._values("1/(2*z-6)^3", capsys)
        assert scaled == [0.125 * v for v in self._values("1/(z-3)^3", capsys)]

    @pytest.mark.parametrize("expr", ["0", "0/(z-1)"])
    def test_zero_table_prints_floats(self, expr, capsys):
        # no term: the values are still rounded to floats
        assert main(["table", expr, "--n", "2", "--format", "json"]) == 0
        assert '"values": [\n    0.0,\n    0.0,\n    0.0\n  ]' in capsys.readouterr().out
        assert main(["table", expr, "--n", "2", "--format", "csv"]) == 0
        assert capsys.readouterr().out == "n,x\n0,0.0\n1,0.0\n2,0.0\n"


    @pytest.mark.parametrize("expr", ["1/(z^2-4z+8)", "1/(z^2-4.5z+8.5)"])
    def test_overflow_exit_one(self, expr, capsys):
        # integer and float pole data overflow with the same error
        assert main(["table", expr, "--n", "2200"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: quadratic-pole sequence overflows a float at n=")

    def test_real_pole_overflow_exit_one(self, capsys):
        # a finite power times the binomial rounds to inf from n = 1089
        assert main(["table", "1/(z-1.9)^3", "--n", "1100"]) == 1
        err = capsys.readouterr().err
        assert err == "error: real-pole sequence overflows a float at n=1089\n"

    @pytest.mark.parametrize(
        "expr,message",
        [
            ("1/(z^2-4z+8)", "quadratic-pole sequence overflows a float at n=686"),
            ("1/(z^2-4.5z+8.5)", "quadratic-pole sequence overflows a float at n=665"),
            # the earliest n over all terms: the (z^2-4.5z+8.5)^2 terms fail
            # first, though the (z^2-4z+8) term comes first in term order
            ("1/((z^2-4.5z+8.5)^2 (z^2-4z+8))", "quadratic-pole sequence overflows a float at n=658"),
            ("1/(z-1.9)^3", "real-pole sequence overflows a float at n=1089"),
            # the unit-modulus pair never overflows; the second pair does, and
            # its z-numerator term reads s0[n+1], so x[2032] is the first to fail
            ("1/((z^2+1)^3 (z^2-2z+2)^2)", "quadratic-pole sequence overflows a float at n=2032"),
        ],
    )
    def test_overflow_first_n_on_a_long_table(self, expr, message, capsys):
        assert main(["table", expr, "--n", "100000"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    def test_sum_overflow_exit_one(self, capsys):
        # finite terms whose sum is not a finite float: no inf in text, no
        # Infinity in JSON
        expr = "(2z-3.8000001)/((z-1.9)*(z-1.9000001))"
        for fmt in ("text", "json"):
            assert main(["table", expr, "--n", "1106", "--format", fmt]) == 1
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == (
                "", "error: closed-form sum overflows a float at n=1106\n"
            )

    def test_all_methods_factor_once(self, factor_calls, capsys):
        # factored input: the closed form needs no factoring, and moreira
        # and juric share one pole list
        expr = "1/((z-0.5)^2 (z^2-z+0.5))"
        assert main(["table", expr, "--n", "20", "--method", "all"]) == 0
        assert len(factor_calls) == 1

    @pytest.mark.parametrize("expr", ["1/(z-0.5)^3", "(z+2)/(z^2 (z^2-z+0.5))"])
    def test_residue_values_match_per_n_calls(self, expr, capsys):
        # the principal parts are built once per table, with the same sums
        assert main(["table", expr, "--n", "60", "--method", "residue", "--format", "json"]) == 0
        got = json.loads(capsys.readouterr().out)["values"]
        x, _ = parse_rational_expr(expr)
        assert got == [residue_value(x, n) for n in range(1, 61)]

    def test_longdiv_overflow_exit_one(self, capsys):
        # integer long division used to print 300-digit ints and exit 0
        argv = ["table", "1/(z^2-4z+8)", "--n", "2200", "--method", "longdiv", "--format", "json"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: longdiv sequence overflows a float at n=686\n"

    def test_far_pole_of_a_rounded_quadratic(self, capsys):
        # 0.1+0.2-0.3 is 5.55e-17, not 0: a pole at -1.8e16, whose residual
        # after polishing is rounding at that modulus, not a failed root
        expr = "1/(z^2*(0.1+0.2-0.3) + z + 1)"
        assert main(["table", expr, "--n", "4", "--method", "all"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.strip().splitlines()]
        assert rows[2] == ["2"] + ["1.80143985095e+16"] * 4

    def test_residue_factors_once(self, factor_calls, capsys):
        expr = "1/((z-0.5)^2 (z^2-z+0.5))"
        assert main(["table", expr, "--n", "40", "--method", "residue"]) == 0
        assert len(factor_calls) == 1


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

    def test_overflowing_methods_are_reported(self, capsys):
        # every method overflows before n = 2200: a report naming each, not a crash
        assert main(["compare", "1/(z^2-4z+8)", "--n", "2200", "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is False
        for run in doc["methods"].values():
            assert "sequence overflows a float at n=" in run["error"]

    def test_fuzz_small(self, capsys):
        assert main(["compare", "--fuzz", "10", "--seed", "42"]) == 0
        out = capsys.readouterr().out
        assert "10 cases" in out and "PASS" in out

    def test_fuzz_failures_are_listed(self, monkeypatch, capsys):
        # every case is one the oracles cannot factor (triple poles 0.01 apart,
        # as below): each fails, and the text lists at most ten of them
        case = parse_rational_expr("1/((z-1)^3 (z-1.01)^3)")
        monkeypatch.setattr(cli, "random_rational", lambda rng: case)
        assert main(["compare", "--fuzz", "11", "--seed", "42"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "failures: 11" in lines
        listed = [line for line in lines if line.startswith("  case ")]
        assert listed[0] == f"  case 0: {case[0]}" and len(listed) == 10
        assert lines[-1] == "FAIL"
        assert main(["compare", "--fuzz", "11", "--seed", "42", "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is False
        assert [c["index"] for c in doc["failures"]] == list(range(11))

    def test_errored_method_fails(self, capsys):
        # numeric factoring of the expanded triple poles 0.01 apart fails, so
        # moreira, juric and every residue check error; the closed form and
        # long division alone do not make a pass
        assert main(["compare", "1/((z-1)^3 (z-1.01)^3)", "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is False
        assert doc["methods"]["moreira"]["error"] is not None

    def test_residue_error_is_reported_in_text(self, monkeypatch, capsys):
        # a residue check that raises prints its error on its own line and fails
        def residue(x, n, poles=None):
            if n == 17:
                raise OverflowError("residue sequence overflows a float at n=17")
            return residue_value(x, n, poles=poles)

        monkeypatch.setattr(oracles, "residue_value", residue)
        assert main(["compare", "1/(z^2+1)", "--n", "20"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "    residue n=17: error: residue sequence overflows a float at n=17" in lines
        assert any(re.fullmatch(r"    residue n=5: dev \S+  PASS", line) for line in lines)
        assert lines[-1] == "FAIL"

    def test_non_conjugate_amplitudes_fail(self, monkeypatch, capsys):
        # an X(z)/z table whose amplitudes at conjugate poles are not conjugate:
        # juric's sum keeps an imaginary part and errors, and the case fails
        real = oracles.complex_pfe_over_z

        def skewed(x, poles):
            table = real(x, poles)
            upper = next(p for p in table if p.imag > 0)
            table[upper] = {j: a + 1e-3j for j, a in table[upper].items()}
            return table

        monkeypatch.setattr(oracles, "complex_pfe_over_z", skewed)
        assert main(["compare", "1/(z^2+1)", "--n", "20", "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is False
        assert doc["methods"]["juric"]["error"].startswith("conjugate symmetry violated in juric")

    def test_constant_denominator_passes(self, capsys):
        # every method runs on the polynomial; with no poles every residue is 0
        assert main(["compare", "z^2+1", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert all(m["ok"] and m["error"] is None for m in doc["methods"].values())
        assert [c["value"] for c in doc["residue_checks"]] == [0.0] * 5

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

    def test_comments_only_batch_file(self, tmp_path, capsys):
        batch = tmp_path / "exprs.txt"
        batch.write_text("# header\n\n   # indented comment\n")
        assert main(["invert", "--batch", str(batch)]) == 2
        assert capsys.readouterr() == ("", f"error: batch file '{batch}' contains no expressions\n")


class TestJsonWriter:
    """main's JSON is json.dumps(doc, indent=2) byte for byte, although every
    scalar is written by the C encoder."""

    @staticmethod
    def documents(argv):
        """What main prints as JSON for argv: one document, or a --batch list."""
        args = cli._build().parse_args([*argv, "--format", "json"])
        docs, _ = args.func(args)
        return docs if "batch" in args and args.batch else docs[0]

    @staticmethod
    def written(obj):
        return cli._json(obj)

    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "(5z^3-2z+1)/((z^2+1)^3 (z-1))", "--n", "40"],
            ["table", "1/((z-0.5)^2 (z^2-z+0.5))", "--n", "12", "--method", "all"],
            ["table", "1/(z-2)", "--n", "5", "--method", "residue"],
            ["table", "1/(z-0.5)", "--n", "0"],
            ["table", "1/(z-\uff10.5)", "--n", "3"],  # a full-width digit: non-ASCII input
            ["invert", "(z^4+1)/(z^2+1)"],
            ["invert", "1/(z-0.5)"],  # empty poly_part
            ["invert", "z^2+3z"],
            ["compare", "1/(z^2+1)", "--n", "10"],
            ["compare", "1/(z^2-4z+8)", "--n", "2200"],  # every method errored
            ["compare", "--fuzz", "3", "--seed", "42"],
            ["identities"],
        ],
    )
    def test_each_document_kind(self, argv, capsys):
        doc = self.documents(argv)
        assert self.written(doc) == json.dumps(doc, indent=2)

    def test_nan_deviation(self, monkeypatch):
        monkeypatch.setattr(oracles, "residue_value", lambda *args, **kw: math.nan)
        doc = self.documents(["compare", "1/(z^2+1)", "--n", "10"])
        text = self.written(doc)
        assert '"deviation": NaN' in text
        assert text == json.dumps(doc, indent=2)

    @pytest.mark.parametrize(
        "value",
        [
            {"a": [], "b": {}},
            [[]],
            {"x": [1, [2, {}]]},
            [{"rows": [[0, 1.5], [1, -2.0]], "n": 1}, {"rows": [[]]}],  # table --batch --method all
            {"\u00e9t\u00e9": "z\u2192\u221e", "\uff10": ["\u03b4[n]"]},
            [[[None, True, math.nan, -math.inf]], {"deep": {"d": [None, False]}}],
            {"values": tuple(i / 7 for i in range(5001))},
        ],
        ids=["empty-values", "list-of-empty", "nested-empty", "batch-rows", "non-ascii",
             "specials-deep", "long-tuple"],
    )
    def test_any_value(self, value):
        # shapes no command writes today: the writer is json.dumps at every depth
        assert self.written(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("cmd", ["invert", "table", "compare"])
    def test_batch(self, cmd, tmp_path, capsys):
        batch = tmp_path / "exprs.txt"
        batch.write_text(
            "1/(z-0.5)\n(z^4+1)/(z^2+1)\nz^2+3z\n1/(z-\uff10.5)\n", encoding="utf-8"
        )
        docs = self.documents([cmd, "--batch", str(batch)])
        assert len(docs) == 4
        assert self.written(docs) == json.dumps(docs, indent=2)

    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "(z^2-1)/(z^2+1)^2", "--n", "30"],
            ["table", "1/(z^2+1)", "--n", "8", "--method", "all"],
            ["invert", "(z^4+1)/(z^2+1)"],
            ["identities"],
        ],
    )
    def test_main_prints_the_writer(self, argv, capsys):
        doc = self.documents(argv)
        capsys.readouterr()
        assert main([*argv, "--format", "json"]) == 0
        assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"


class TestParserReuse:
    """main builds its parser once per process; later calls behave as a first one."""

    COMMANDS = (
        ["invert", "1/((z-0.5)^2 (z^2-z+0.5))"],
        ["table", "1/(z-1)", "--n", "-1"],  # usage error, exit 2
        ["compare", "1/(z^2+1)^2", "--n", "20"],
        ["--version"],
        ["invert", "1/((z-0.5)^2 (z^2-z+0.5))"],
    )

    @staticmethod
    def run(argv, capsys):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # --version exits from the parser
            code = exc.code
        out = capsys.readouterr().out
        return re.sub(r"\d+\.\d+ ms", "ms", out), code  # compare's timings vary

    def test_each_call_as_a_first_call(self, capsys):
        first = []
        for argv in self.COMMANDS:
            cli._build.cache_clear()
            first.append(self.run(argv, capsys))
        cli._build.cache_clear()
        again = [self.run(argv, capsys) for argv in self.COMMANDS]
        assert again == first
        assert [code for _, code in first] == [0, 2, 0, 0, 0]
        assert cli._build.cache_info().misses == 1


class TestUsage:
    @staticmethod
    def stderr_alone(capsys):
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err

    def test_missing_expression(self, capsys):
        assert main(["invert"]) == 2
        assert self.stderr_alone(capsys) == "error: an expression (or --batch FILE) is required\n"

    def test_negative_n(self, capsys):
        assert main(["table", "z/(z-1)", "--n", "-3"]) == 2
        assert self.stderr_alone(capsys) == "error: --n must be >= 0\n"

    def test_unclosed_paren(self, capsys):
        assert main(["invert", "1/((z+1)*(z-2)"]) == 2
        assert self.stderr_alone(capsys) == (
            "error: missing closing parenthesis at line 1, column 15 (expected ))\n"
        )

    def test_bad_tol(self, capsys):
        assert main(["compare", "z/(z-1)", "--tol", "0"]) == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["compare", "z/(z-1)", "--tol", "-1"], "--tol must be > 0"),
            (["compare", "z/(z-1)", "--tol", "nan"], "--tol must be finite"),
            (["compare", "z/(z-1)", "--tol", "inf"], "--tol must be finite"),
            (["compare", "z/(z-1)", "--tol", "0"], "--tol must be > 0"),
            (["compare", "--fuzz", "2", "--tol", "nan"], "--tol must be finite"),
        ],
    )
    def test_tol_rejected(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    def test_invert_has_no_tol(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["invert", "1/(z-0.5)^2", "--tol", "0"])
        assert exc.value.code == 2
        assert "error: unrecognized arguments: --tol 0" in capsys.readouterr().err
        # only the simple pole's exactly zero amplitude is dropped
        assert main(["invert", "1/(z-0.5)^2"]) == 0
        assert capsys.readouterr().out == "C(n-1,1)*0.5^(n-2)*u[n-2]\n"

    def test_leading_minus_goes_after_double_dash(self, capsys):
        # argparse reads an argument that starts with '-' as an option
        text = "-0.7195/((z+0.528)^2)"
        with pytest.raises(SystemExit) as exc:
            main(["invert", text])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: zinv invert ")
        assert captured.err.endswith(
            f"zinv invert: error: unrecognized arguments: {text}"
            " (an expression that starts with '-' goes after '--')\n"
        )
        assert main(["invert", "--", text]) == 0
        assert capsys.readouterr().out == "-0.7195*C(n-1,1)*(-0.528)^(n-2)*u[n-2]\n"

    @pytest.mark.parametrize(
        "argv, extra",
        [
            (["table", "1/z", "--formt", "json"], "--formt json"),
            (["table", "--formt"], "--formt"),
            (["table", "1/z", "-1/z"], "-1/z"),
            (["invert", "1/z", "2/z"], "2/z"),
        ],
    )
    def test_other_unrecognized_arguments_get_no_dash_hint(self, capsys, argv, extra):
        # a mistyped option or a second expression is not a leading '-'
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"\nzinv: error: unrecognized arguments: {extra}\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["invert", "1/(z-1)"],
            ["compare", "1/(z-1)"],
            ["compare", "--fuzz", "2"],
            ["identities"],
        ],
    )
    def test_csv_only_for_table(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--format", "csv"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"zinv {argv[0]}: error: argument --format: invalid choice: 'csv'" in captured.err
        with pytest.raises(SystemExit):
            main([argv[0], "-h"])
        assert "--format {text,json}" in capsys.readouterr().out

    @pytest.mark.parametrize("count", ["-3", "0"])
    def test_fuzz_below_one(self, count, capsys):
        assert main(["compare", "--fuzz", count]) == 2
        assert "--fuzz must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["expression", "batch"])
    def test_fuzz_with_input_rejected(self, source, tmp_path, capsys):
        # the fuzz run would PASS on random cases while this input FAILs
        batch = tmp_path / "exprs.txt"
        batch.write_text("1/(z-1.3)^8\n")
        given = ["1/(z-1.3)^8"] if source == "expression" else ["--batch", str(batch)]
        assert main(["compare", *given, "--fuzz", "2"]) == 2
        assert "--fuzz takes no expression or --batch" in capsys.readouterr().err

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "zinv.cli", "invert", "1/(z-3)"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "3^(n-1)*u[n-1]"

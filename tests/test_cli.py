"""Tests for the command-line interface and result serialization."""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

import grlb
from grlb.cli import cli
from grlb.engine import HorosphericalDatum, report
from grlb.records import (
    CSV_HEADER,
    frac_str,
    record_for,
    record_from_json,
    record_to_csv_row,
    record_to_json,
)

F = Fraction


@pytest.fixture
def runner():
    return CliRunner()


class TestCompute:
    def test_x5_text(self, runner):
        result = runner.invoke(cli, ["compute", "--family", "X5"])
        assert result.exit_code == 0
        assert "56/67" in result.output
        assert "0.8358" in result.output

    def test_x3_77_json(self, runner):
        result = runner.invoke(cli, ["compute", "--family", "X3", "--n", "7", "--k", "7", "--format", "json"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["R"] == "715/1024"
        assert data["schema_version"] == 1

    def test_invalid_n_exits_2(self, runner):
        result = runner.invoke(cli, ["compute", "--family", "X1", "--n", "2"])
        assert result.exit_code == 2
        assert "n >= 3" in result.output

    def test_invalid_x3_exits_2(self, runner):
        result = runner.invoke(cli, ["compute", "--family", "X3", "--n", "2", "--k", "3"])
        assert result.exit_code == 2
        assert "n >= k >= 2" in result.output

    def test_csv(self, runner):
        result = runner.invoke(cli, ["compute", "--family", "X2", "--format", "csv"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1] == "X2,,,9,0.9524"

    def test_digits(self, runner):
        result = runner.invoke(cli, ["compute", "--family", "X5", "--digits", "8"])
        assert "0.83582090" in result.output

    def test_closed_form_route(self, runner):
        result = runner.invoke(
            cli,
            ["compute", "--family", "X1", "--n", "4", "--route", "closed-form", "--format", "json"],
        )
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["provenance"] == "closed-form"
        engine_result = runner.invoke(cli, ["compute", "--family", "X1", "--n", "4", "--format", "json"])
        assert json.loads(engine_result.output)["R"] == data["R"]

    def test_closed_form_route_at_ceiling(self, runner):
        args = ["compute", "--family", "X1", "--n", "100", "--format", "json"]
        closed = runner.invoke(cli, [*args, "--route", "closed-form"])
        assert closed.exit_code == 0
        engine_result = runner.invoke(cli, [*args, "--route", "engine"])
        assert json.loads(closed.output)["R"] == json.loads(engine_result.output)["R"]

    def test_closed_form_route_rejected_for_fixed_families(self, runner):
        result = runner.invoke(cli, ["compute", "--family", "X5", "--route", "closed-form"])
        assert result.exit_code == 2

    def test_max_n_env_override(self, runner):
        # Fails at the default ceiling, succeeds when raised via GRLB_MAX_N.
        args = ["compute", "--family", "X3", "--n", "120", "--k", "2"]
        blocked = runner.invoke(cli, args, env={"GRLB_MAX_N": None})
        assert blocked.exit_code == 2
        assert "ceiling" in blocked.output
        allowed = runner.invoke(cli, args, env={"GRLB_MAX_N": "150"})
        assert allowed.exit_code == 0

    def test_x1_165_renders_past_str_limit(self, runner, monkeypatch):
        # R(X1(165)) has more than the 4300 digits str(int) allows.
        monkeypatch.setenv("GRLB_MAX_N", "200")
        args = ["compute", "--family", "X1", "--n", "165"]
        result = runner.invoke(cli, args + ["--format", "json"])
        assert result.exit_code == 0, result.output
        rec = record_from_json(result.output)
        assert record_to_json(rec) == result.output.rstrip("\n")
        rep = report(HorosphericalDatum("X1", n=165))
        assert rep.R.denominator > 10**4300
        assert (rec.R, rec.barycenter_t) == (rep.R, rep.barycenter_t)
        text = runner.invoke(cli, args)
        assert text.exit_code == 0
        assert f"R             {frac_str(rep.R)}" in text.output.splitlines()


class TestRecords:
    def test_json_roundtrip_is_byte_identical(self):
        rec = record_for(HorosphericalDatum("X4"), digits=6)
        serialized = record_to_json(rec)
        reparsed = record_from_json(serialized)
        assert reparsed == rec
        assert record_to_json(reparsed) == serialized

    def test_fraction_fields_reduced(self):
        rec = record_for(HorosphericalDatum("X3", n=4, k=2))
        data = json.loads(record_to_json(rec))
        for field in ("barycenter_t", "R"):
            num, den = data[field].split("/")
            from math import gcd

            assert gcd(int(num), int(den)) == 1
            assert int(den) > 0

    def test_decimal_matches_requested_digits(self):
        rec = record_for(HorosphericalDatum("X5"), digits=4)
        from grlb.exactnum import to_decimal

        assert rec.R_decimal == to_decimal(rec.R, 4)

    def test_csv_row(self):
        # dim = k(4n-3k+3)/2 = 38; 0.9576 rounds to the published 0.958.
        rec = record_for(HorosphericalDatum("X3", n=7, k=4))
        assert record_to_csv_row(rec) == "X3,7,4,38,0.9576"


class TestTable:
    def test_table1_text(self, runner):
        result = runner.invoke(cli, ["table", "--id", "1"])
        assert result.exit_code == 0
        assert "20/21" in result.output
        assert "178992099/243545402" in result.output
        assert "n(n+3)/2" in result.output

    def test_table2_text(self, runner):
        result = runner.invoke(cli, ["table", "--id", "2"])
        assert result.exit_code == 0
        assert "0.8955" in result.output
        assert "0.99995" in result.output
        row_x34 = next(l for l in result.output.splitlines() if l.startswith("X3(.,4)"))
        assert row_x34.split()[1] == "-"

    def test_table3_text(self, runner):
        result = runner.invoke(cli, ["table", "--id", "3"])
        assert result.exit_code == 0
        assert "3003/4096 ≈ 0.733" in result.output
        assert "15/16 = 0.9375" in result.output

    def test_table2_csv(self, runner):
        result = runner.invoke(cli, ["table", "--id", "2", "--format", "csv"])
        lines = result.output.strip().splitlines()
        assert lines[0] == "row,3,4,5,6,7,10,20,30,50,70"
        assert lines[1].startswith("X1,0.8955,")
        assert lines[1].endswith(",0.9737")

    def test_table1_numeric_cells_match_published_decimals(self):
        # Published: 0.952, 0.734, 0.8358; comparison at displayed precision
        # within one unit in the last place.
        from grlb.engine import greatest_ricci_lower_bound

        published = {"X2": "0.952", "X4": "0.734", "X5": "0.8358"}
        for family, printed in published.items():
            value = greatest_ricci_lower_bound(HorosphericalDatum(family))
            digits = len(printed.split(".")[1])
            assert abs(value - F(printed)) <= F(1, 10**digits), family

    def test_table3_cells_match_published_decimals(self):
        from grlb.tables import table3_rows

        published = {2: "0.9375", 3: "0.875", 4: "0.820", 5: "0.773", 6: "0.733", 7: "0.698"}
        for row in table3_rows():
            printed = published[row["n"]]
            digits = len(printed.split(".")[1])
            assert abs(row["R"] - F(printed)) <= F(1, 10**digits), row["n"]

    def test_table3_json(self, runner):
        result = runner.invoke(cli, ["table", "--id", "3", "--format", "json"])
        data = json.loads(result.output)
        assert data["table"] == 3
        assert data["rows"][0] == {"n": 2, "R": "15/16", "rendered": "15/16 = 0.9375"}

    def test_bad_id(self, runner):
        result = runner.invoke(cli, ["table", "--id", "4"])
        assert result.exit_code == 2


class TestVerify:
    def test_lemmas_pass(self, runner):
        result = runner.invoke(cli, ["verify", "--suite", "lemmas", "--max-n", "6"])
        assert result.exit_code == 0
        assert "checks passed" in result.output

    def test_closed_forms_json(self, runner):
        result = runner.invoke(
            cli, ["verify", "--suite", "closed-forms", "--max-n", "5", "--format", "json"]
        )
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["passed"] is True
        assert all(c["passed"] for c in data["checks"])

    def test_oracle_small(self, runner):
        result = runner.invoke(cli, ["verify", "--suite", "oracle", "--max-n", "4"])
        assert result.exit_code == 0

    def test_oracle_at_cap(self, runner):
        result = runner.invoke(cli, ["verify", "--suite", "oracle", "--max-n", "20"])
        assert result.exit_code == 0
        assert "211/211 checks passed" in result.output

    def test_oracle_evaluation_failure_is_a_failed_check(self, runner, monkeypatch):
        from grlb import oracle

        real = oracle.crosscheck

        def crosscheck(datum, rel_tol=1e-9):
            if datum.label() == "X4":
                raise oracle.EvaluationFailureError("integrand returned a non-finite value")
            return real(datum, rel_tol)

        monkeypatch.setattr(oracle, "crosscheck", crosscheck)
        result = runner.invoke(cli, ["verify", "--suite", "oracle", "--max-n", "3"])
        assert result.exit_code == 3
        assert "FAIL quadrature X4: EvaluationFailureError: integrand returned a non-finite value" in result.output
        assert "ok   quadrature X5" in result.output

    def test_bounds_small(self, runner):
        result = runner.invoke(cli, ["verify", "--suite", "bounds", "--max-n", "5"])
        assert result.exit_code == 0

    def test_unknown_suite_exits_2(self, runner):
        result = runner.invoke(cli, ["verify", "--suite", "nonsense"])
        assert result.exit_code == 2

    def test_bad_max_n(self, runner):
        result = runner.invoke(cli, ["verify", "--suite", "lemmas", "--max-n", "1"])
        assert result.exit_code == 2

    def test_failing_check_exits_3(self, runner, monkeypatch):
        from grlb import cli as cli_module
        from grlb.suites import CheckResult

        monkeypatch.setattr(
            cli_module.suites,
            "run_suite",
            lambda suite, max_n: [CheckResult("forced", False, "synthetic failure")],
        )
        result = runner.invoke(cli, ["verify", "--suite", "lemmas", "--max-n", "3"])
        assert result.exit_code == 3
        assert "FAIL forced" in result.output


def test_cli_import_leaves_out_numpy_and_mpmath():
    # compute and table need neither; the oracle imports numpy on use, and
    # mpmath is only a test dependency.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import grlb.cli; "
        "print(sorted({'numpy', 'mpmath'} & set(sys.modules)))"
    )
    src = str(Path(grlb.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"

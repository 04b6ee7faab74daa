"""Tests for the command-line interface and result serialization."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

import grlb
from grlb.cli import cli
from grlb.engine import HorosphericalDatum, InvalidDatumError, report
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


#: SHA-256 of the full output of each command, recorded before the tables and
#: records shared one row model; every rendering must stay byte-identical.
GOLDEN_OUTPUTS = [
    ("table --id 1 --format text", "d84b490ac9b217e14a79930cf71eb440def28ef195cb5d1997ce601e622de51a"),
    ("table --id 1 --format json", "38b23cb24703e82bdd79f6364f2a91f0fb9e2a021c80fe3e080404fd513c13ed"),
    ("table --id 1 --format csv", "956d887792bd92076f2af0fd42c06c4596499e1d37c9434a5d1da73f82cae262"),
    ("table --id 2 --format text", "e977046ff35a9c191fb985c4e8eeacc09002e7e1ccb44853635a03772b243bc4"),
    ("table --id 2 --format json", "7c39188b708f419dbf9405b2e5b12b76659107832a7c460f4a4f45c75857cd80"),
    ("table --id 2 --format csv", "2137b06c6b3bc443bc81b6f24d7713c59221bba4225ed5f73e40e146a2ee7a40"),
    ("table --id 3 --format text", "25883cf15c90de177271795dbeabf19b4ab9d1f0aa8196c1a157367231834e21"),
    ("table --id 3 --format json", "c184847e6faee1d61986c425287f299095481e57fccc46caa2cf82d189ce1c98"),
    ("table --id 3 --format csv", "1ff343a1499d6757afc29f34f5e585b589dabc530c58ad60f34ee9c24a79ccb5"),
    ("compute --family X5 --format text", "0bc6c4d7bb9ec3671e4cf1a4d300afe7429640854e221492955601c1449a4e77"),
    ("compute --family X5 --format json", "1ea5eb26720b0a33519deea8b59a22b1d34071a776b9f3e32e83663c1d7a66d0"),
    ("compute --family X5 --format csv", "02d5724468ddd5b52e564172adba5b6ec433b44b85d70dfb53f70260d89bf5d5"),
    (
        "compute --family X3 --n 7 --k 4 --format text",
        "139c2183819ab43c6108e9baaa611a2eabdf078077bd4ff7912485e5553a624d",
    ),
    (
        "compute --family X3 --n 7 --k 4 --format json",
        "0e2e12119636cd3c9795171ad798eeb8226b1b04f1ddad2357dea215c8c460df",
    ),
    (
        "compute --family X3 --n 7 --k 4 --format csv",
        "146775344378e004b7b5d291c9f9074c280c298bd294c4ecbd58b120741ca656",
    ),
    (
        "compute --family X1 --n 100 --format json --route engine",
        "c93f1d63587fc0b0891ecf532994ebb7e9b03fc1f0f021eda0ed0ea754592041",
    ),
    (
        "compute --family X1 --n 100 --format json --route closed-form",
        "3510274e185e1ad4ff4876b092031a7136a4c3661ce2b16a9370e4776b82e587",
    ),
]


@pytest.mark.parametrize("command,digest", GOLDEN_OUTPUTS)
def test_output_is_byte_identical_to_golden(runner, command, digest):
    result = runner.invoke(cli, command.split(), env={"GRLB_MAX_N": None})
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.output.encode()).hexdigest() == digest


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

    def test_closed_form_route_of_a_fixed_family_is_an_invalid_datum(self):
        with pytest.raises(InvalidDatumError):
            record_for(HorosphericalDatum("X2"), route="closed-form")

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


#: (GRLB_MAX_N, command, error): each is an invalid argument under its command.
INVALID_INPUTS = [
    ("abc", "table --id 2", "GRLB_MAX_N must be an integer, got 'abc'"),
    ("50", "table --id 2", "n=70 exceeds the exact-computation ceiling 50"),
    ("abc", "verify --suite oracle --max-n 4", "GRLB_MAX_N must be an integer, got 'abc'"),
    ("10", "verify --suite closed-forms --max-n 12", "n=11 exceeds the exact-computation ceiling 10"),
    ("1", "compute --family X1 --n 3", "GRLB_MAX_N must be at least 2, got 1"),
]


@pytest.mark.parametrize("max_n,command,error", INVALID_INPUTS)
def test_invalid_input_exits_2_with_one_error_line(max_n, command, error):
    src = str(Path(grlb.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "GRLB_MAX_N": max_n}
    args = [sys.executable, "-m", "grlb.cli", *command.split()]
    out = subprocess.run(args, capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 2, out.stderr
    assert out.stdout == ""
    lines = out.stderr.splitlines()
    assert f"{command.split()[0]} [OPTIONS]" in lines[0]
    errors = [line for line in lines if "Error" in line]
    assert len(errors) == 1 and errors[0].startswith(f"Error: {error}"), out.stderr
    assert "Traceback" not in out.stderr and "FAIL" not in out.stderr


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

"""Tests for the command-line interface and result serialization."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import grlb
from grlb import cli, engine, exactnum, rootsystems
from grlb.engine import HorosphericalDatum, InvalidDatumError, report
from grlb.records import (
    frac_str,
    parse_frac,
    record_for,
    record_to_json,
    render,
    table_rows,
)

F = Fraction


def exact_fields(payload: dict) -> tuple:
    """The exact values a record's JSON carries, parsed back."""
    return (
        parse_frac(payload["R"]),
        parse_frac(payload["barycenter_t"]),
        tuple(parse_frac(x) for x in payload["interval"]),
    )


def report_fields(rep) -> tuple:
    return (rep.R, rep.barycenter_t, (rep.segment.a, rep.segment.b))


class TestCompute:
    def test_x5_text(self, run_grlb):
        result = run_grlb(["compute", "--family", "X5"])
        assert result.exit_code == 0
        assert "56/67" in result.output
        assert "0.8358" in result.output

    def test_x3_77_json(self, run_grlb):
        result = run_grlb(["compute", "--family", "X3", "--n", "7", "--k", "7", "--format", "json"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["R"] == "715/1024"
        assert data["schema_version"] == 1

    def test_invalid_n_exits_2(self, run_grlb):
        result = run_grlb(["compute", "--family", "X1", "--n", "2"])
        assert result.exit_code == 2
        assert "n >= 3" in result.output

    def test_invalid_x3_exits_2(self, run_grlb):
        result = run_grlb(["compute", "--family", "X3", "--n", "2", "--k", "3"])
        assert result.exit_code == 2
        assert "n >= k >= 2" in result.output

    def test_csv(self, run_grlb):
        result = run_grlb(["compute", "--family", "X2", "--format", "csv"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "family,n,k,dim,R"
        assert lines[1] == "X2,,,9,0.9524"

    def test_digits(self, run_grlb):
        result = run_grlb(["compute", "--family", "X5", "--digits", "8"])
        assert "0.83582090" in result.output

    def test_closed_form_route(self, run_grlb):
        result = run_grlb(
            ["compute", "--family", "X1", "--n", "4", "--route", "closed-form", "--format", "json"]
        )
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["provenance"] == "closed-form"
        engine_result = run_grlb(["compute", "--family", "X1", "--n", "4", "--format", "json"])
        assert json.loads(engine_result.output)["R"] == data["R"]

    def test_closed_form_route_at_ceiling(self, run_grlb):
        # Each route fills the whole record; they differ in provenance alone.
        args = ["compute", "--family", "X1", "--n", "100", "--format", "json"]
        closed = run_grlb([*args, "--route", "closed-form"])
        assert closed.exit_code == 0
        engine_result = run_grlb([*args, "--route", "engine"])
        closed_record, engine_record = json.loads(closed.output), json.loads(engine_result.output)
        assert closed_record.pop("provenance") == "closed-form"
        assert engine_record.pop("provenance") == "engine"
        assert closed_record == engine_record

    def test_closed_form_route_rejected_for_fixed_families(self, run_grlb):
        result = run_grlb(["compute", "--family", "X5", "--route", "closed-form"])
        assert result.exit_code == 2

    def test_max_n_env_override(self, run_grlb):
        # Fails at the default ceiling, succeeds when raised via GRLB_MAX_N.
        args = ["compute", "--family", "X3", "--n", "120", "--k", "2"]
        blocked = run_grlb(args, env={"GRLB_MAX_N": None})
        assert blocked.exit_code == 2
        assert "ceiling" in blocked.output
        allowed = run_grlb(args, env={"GRLB_MAX_N": "150"})
        assert allowed.exit_code == 0

    def test_x1_165_renders_past_str_limit(self, run_grlb, monkeypatch):
        # R(X1(165)) has more than the 4300 digits str(int) allows.
        monkeypatch.setenv("GRLB_MAX_N", "200")
        args = ["compute", "--family", "X1", "--n", "165"]
        result = run_grlb(args + ["--format", "json"])
        assert result.exit_code == 0, result.output
        out = result.output.rstrip("\n")
        assert json.dumps(json.loads(out), indent=2) == out
        rep = report(HorosphericalDatum("X1", n=165))
        assert rep.R.denominator > 10**4300
        assert exact_fields(json.loads(out)) == report_fields(rep)
        text = run_grlb(args)
        assert text.exit_code == 0
        assert f"R             {frac_str(rep.R)}" in text.output.splitlines()


#: SHA-256 of the full output of each command: the renderings recorded before
#: the tables and records shared one row model, the verify reports before the
#: segment orientation moved into `resolve`, and the X2, X4, closed-form X1(10)
#: and 12-digit X5 records before every command wrote through `records.render`.
#: Every output stays byte-identical.
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
    ("verify --suite lemmas --max-n 12", "a8bb261673dc4bed894be306ca3d4c8fcb1a2ab377f976f69ed93901c07d1459"),
    (
        "verify --suite lemmas --max-n 12 --format json",
        "68ed37aa6698fb0241c7aa2e28ed303c6b89f335ffeb18b4c0474c47233b4889",
    ),
    ("verify --suite closed-forms --max-n 12", "48cbb855b05fe3032b3e2336621a8a3f23d00ee17f112b0312a1641864a26abd"),
    (
        "verify --suite closed-forms --max-n 12 --format json",
        "26716ea1d104808fb588140cba952c78eab3d28440e865e583af76fb442e0091",
    ),
    ("verify --suite bounds --max-n 12", "88fa6303e5dc568bc9b66a0995c0d414bb9fa21d98116f38ab7bff6813d4fb7a"),
    (
        "verify --suite bounds --max-n 12 --format json",
        "ce7003623fdd13fb84647e1556dab6fddae3b72f804b259392d24753221f12d8",
    ),


    ("compute --family X2 --format text", "cbf623c89b38110ad7377298e7a1fb2b4b03d329191cbe19184e35bae0b43d80"),
    ("compute --family X2 --format json", "7b93e0e7251c84a77723ddc1a8c1069b28e48d640418d25f0434b8d0d566bd9a"),
    ("compute --family X2 --format csv", "c2041168961720f5390e986e072df902b92a6123aa8caddb443a8642ace25fb2"),
    ("compute --family X4 --format text", "32fa4393b4191cebb364392f2e032b3d910913211941e897322bd1e6e737e360"),
    ("compute --family X4 --format json", "b28c114979fefed18b5c3af4b82ac6698c47a762058408c586228caab94338f2"),
    ("compute --family X4 --format csv", "f92952fcd978fd616e9180ad4913622ebc1467a6c85edaefc2ba53ac3fe3c5b4"),
    (
        "compute --family X1 --n 10 --route closed-form --format text",
        "6b1ff8f23fd982b12f52d33cef199ce33380d071eba26ad50a093b57f00f14b9",
    ),
    (
        "compute --family X1 --n 10 --route closed-form --format csv",
        "8340bed29014df462b07120b95993c0440e714d04d1a9a1bdb81a3f5c4274741",
    ),
    ("compute --family X5 --digits 12", "70aa3f26b8e999f9682d19d2f782ef80110ac103ea8194e0dfccf82718cc6b58"),
]

#: SHA-256 of a failing verify report, recorded before every command wrote
#: through `records.render`: `run_suite` is replaced by one that returns a
#: single failed check, and the command exits 3.
GOLDEN_FAILING_VERIFY = [
    ("verify --suite lemmas --max-n 3", "5e2d28d1f7668f4984d0e1a1437202b832006ac1ba2ce1a126057b81bf92863c"),
    (
        "verify --suite lemmas --max-n 3 --format json",
        "7ccabe0bdafc6b540f616153c549503cd143f44b7b23432456f4534dba3c92d4",
    ),
]


@pytest.mark.parametrize("command,digest", GOLDEN_OUTPUTS)
def test_output_is_byte_identical_to_golden(run_grlb, command, digest):
    result = run_grlb(command.split(), env={"GRLB_MAX_N": None})
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.output.encode()).hexdigest() == digest


@pytest.mark.parametrize("command,digest", GOLDEN_FAILING_VERIFY)
def test_failing_verify_is_byte_identical_to_golden(run_grlb, monkeypatch, command, digest):
    from grlb import suites
    from grlb.suites import CheckResult

    monkeypatch.setattr(
        suites,
        "run_suite",
        lambda suite, max_n: [CheckResult("forced", False, "synthetic failure")],
    )
    result = run_grlb(command.split(), env={"GRLB_MAX_N": None})
    assert result.exit_code == 3, result.output
    assert hashlib.sha256(result.output.encode()).hexdigest() == digest


class TestRecords:
    def test_json_roundtrip_is_byte_identical(self):
        datum = HorosphericalDatum("X4")
        serialized = record_to_json(record_for(datum, digits=6))
        assert json.dumps(json.loads(serialized), indent=2) == serialized
        assert exact_fields(json.loads(serialized)) == report_fields(report(datum))

    def test_fraction_fields_reduced(self):
        data = json.loads(record_to_json(record_for(HorosphericalDatum("X3", n=4, k=2))))
        for field in ("barycenter_t", "R"):
            num, den = data[field].split("/")
            from math import gcd

            assert gcd(int(num), int(den)) == 1
            assert int(den) > 0

    def test_decimal_matches_requested_digits(self):
        payload = record_for(HorosphericalDatum("X5"), digits=4).payload
        from grlb.exactnum import to_decimal

        assert payload["R_decimal"] == to_decimal(parse_frac(payload["R"]), 4)

    def test_closed_form_route_of_a_fixed_family_is_an_invalid_datum(self):
        with pytest.raises(InvalidDatumError):
            record_for(HorosphericalDatum("X2"), route="closed-form")

    def test_route_and_family_are_checked_before_the_engine_runs(self, monkeypatch):
        from grlb import records

        def no_report(datum):
            raise AssertionError(f"engine.report({datum.label()}) ran before the arguments were checked")

        monkeypatch.setattr(records.engine, "report", no_report)
        with pytest.raises(InvalidDatumError):
            record_for(HorosphericalDatum("X2"), route="closed-form")
        with pytest.raises(ValueError, match="unknown route"):
            record_for(HorosphericalDatum("X1", n=5), route="nope")

    @pytest.mark.parametrize("datum", [HorosphericalDatum("X1", n=6), HorosphericalDatum("X3", n=6, k=3)], ids=str)
    def test_closed_form_route_makes_no_engine_report(self, monkeypatch, datum):
        # The closed-form record comes from the closed forms alone, whole.
        from grlb import closedforms, records

        def no_report(datum):
            raise AssertionError(f"engine.report({datum.label()}) ran on the closed-form route")

        want = {**record_for(datum).payload, "provenance": "closed-form"}
        monkeypatch.setattr(records.engine, "report", no_report)
        rows = record_for(datum, route="closed-form")
        assert rows.payload == want
        dim, _, t_bar, r = closedforms.closed_form(*datum)
        assert (rows.payload["dim"], parse_frac(rows.payload["barycenter_t"])) == (dim, t_bar)
        assert parse_frac(rows.payload["R"]) == r

    @pytest.mark.parametrize("datum", [HorosphericalDatum("X1", n=6), HorosphericalDatum("X3", n=6, k=3)], ids=str)
    def test_closed_form_route_raises_the_ceiling_before_the_formula(self, monkeypatch, datum):
        # The closed forms have no ceiling of their own: the route checks the engine's first.
        from grlb import closedforms

        def no_formula(*args):
            raise AssertionError("the formula ran before the ceiling was checked")

        monkeypatch.setattr(closedforms, "closed_form", no_formula)
        monkeypatch.setattr(closedforms, "r_x1_formula", no_formula)
        monkeypatch.setattr(closedforms, "r_x3_formula", no_formula)
        monkeypatch.setattr(closedforms, "r_x3_closed", no_formula)
        monkeypatch.setenv("GRLB_MAX_N", "5")
        with pytest.raises(InvalidDatumError, match="ceiling"):
            record_for(datum, route="closed-form")

    def test_csv_row(self):
        # dim = k(4n-3k+3)/2 = 38; 0.9576 rounds to the published 0.958.
        rows = record_for(HorosphericalDatum("X3", n=7, k=4))
        assert render(rows, "csv").splitlines()[1] == "X3,7,4,38,0.9576"

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_compute_renders_r_and_tbar_once(self, run_grlb, monkeypatch, fmt):
        from grlb import records

        rendered = []

        def counted(f):
            rendered.append(f)
            return frac_str(f)

        monkeypatch.setattr(records, "frac_str", counted)
        result = run_grlb(["compute", "--family", "X3", "--n", "7", "--k", "4", "--format", fmt])
        assert result.exit_code == 0, result.output
        rep = report(HorosphericalDatum("X3", n=7, k=4))
        assert rendered.count(rep.R) == 1
        assert rendered.count(rep.barycenter_t) == 1


class TestTable:
    def test_table1_text(self, run_grlb):
        result = run_grlb(["table", "--id", "1"])
        assert result.exit_code == 0
        assert "20/21" in result.output
        assert "178992099/243545402" in result.output
        assert "n(n+3)/2" in result.output

    def test_table2_text(self, run_grlb):
        result = run_grlb(["table", "--id", "2"])
        assert result.exit_code == 0
        assert "0.8955" in result.output
        assert "0.99995" in result.output
        row_x34 = next(l for l in result.output.splitlines() if l.startswith("X3(.,4)"))
        assert row_x34.split()[1] == "-"

    def test_table3_text(self, run_grlb):
        result = run_grlb(["table", "--id", "3"])
        assert result.exit_code == 0
        assert "3003/4096 ≈ 0.733" in result.output
        assert "15/16 = 0.9375" in result.output

    def test_table2_csv(self, run_grlb):
        result = run_grlb(["table", "--id", "2", "--format", "csv"])
        lines = result.output.strip().splitlines()
        assert lines[0] == "row,3,4,5,6,7,10,20,30,50,70"
        assert lines[1].startswith("X1,0.8955,")
        assert lines[1].endswith(",0.9737")

    def test_table1_numeric_cells_match_published_decimals(self):
        # Published: 0.952, 0.734, 0.8358; comparison at displayed precision
        # within one unit in the last place.
        from grlb.engine import report

        published = {"X2": "0.952", "X4": "0.734", "X5": "0.8358"}
        for family, printed in published.items():
            value = report(HorosphericalDatum(family)).R
            digits = len(printed.split(".")[1])
            assert abs(value - F(printed)) <= F(1, 10**digits), family

    def test_table3_cells_match_published_decimals(self):
        published = {2: "0.9375", 3: "0.875", 4: "0.820", 5: "0.773", 6: "0.733", 7: "0.698"}
        for row in table_rows(3).payload["rows"]:
            printed = published[row["n"]]
            digits = len(printed.split(".")[1])
            assert abs(parse_frac(row["R"]) - F(printed)) <= F(1, 10**digits), row["n"]

    def test_table3_json(self, run_grlb):
        result = run_grlb(["table", "--id", "3", "--format", "json"])
        data = json.loads(result.output)
        assert data["table"] == 3
        assert data["rows"][0] == {"n": 2, "R": "15/16", "rendered": "15/16 = 0.9375"}

    def test_bad_id(self, run_grlb):
        result = run_grlb(["table", "--id", "4"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("table_id", [True, 1.0, 2.0, "1"])
    def test_table_rows_takes_only_an_int_id(self, table_id):
        # True and 1.0 are equal to the key 1 of a dict, yet neither is a table id.
        with pytest.raises(ValueError, match="unknown table id"):
            table_rows(table_id)


class TestVerify:
    def test_lemmas_pass(self, run_grlb):
        result = run_grlb(["verify", "--suite", "lemmas", "--max-n", "6"])
        assert result.exit_code == 0
        assert "checks passed" in result.output

    def test_closed_forms_json(self, run_grlb):
        result = run_grlb(["verify", "--suite", "closed-forms", "--max-n", "5", "--format", "json"])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["passed"] is True
        assert all(c["passed"] for c in data["checks"])

    def test_oracle_small(self, run_grlb):
        result = run_grlb(["verify", "--suite", "oracle", "--max-n", "4"])
        assert result.exit_code == 0

    def test_oracle_at_n20(self, run_grlb):
        result = run_grlb(["verify", "--suite", "oracle", "--max-n", "20"])
        assert result.exit_code == 0
        assert "211/211 checks passed" in result.output

    def test_oracle_evaluation_failure_is_a_failed_check(self, run_grlb, monkeypatch):
        from grlb import oracle

        real = oracle.crosscheck

        def crosscheck(datum, estimate=None):
            if datum.label() == "X4":
                raise oracle.EvaluationFailureError("integrand returned a non-finite value")
            return real(datum, estimate)

        monkeypatch.setattr(oracle, "crosscheck", crosscheck)
        result = run_grlb(["verify", "--suite", "oracle", "--max-n", "3"])
        assert result.exit_code == 3
        assert "FAIL quadrature X4: EvaluationFailureError: integrand returned a non-finite value" in result.output
        assert "ok   quadrature X5" in result.output

    def test_bounds_small(self, run_grlb):
        result = run_grlb(["verify", "--suite", "bounds", "--max-n", "5"])
        assert result.exit_code == 0

    def test_unknown_suite_exits_2(self, run_grlb):
        result = run_grlb(["verify", "--suite", "nonsense"])
        assert result.exit_code == 2

    def test_bad_max_n(self, run_grlb):
        result = run_grlb(["verify", "--suite", "lemmas", "--max-n", "1"])
        assert result.exit_code == 2

    def test_failing_check_exits_3(self, run_grlb, monkeypatch):
        from grlb import suites
        from grlb.suites import CheckResult

        monkeypatch.setattr(
            suites,
            "run_suite",
            lambda suite, max_n: [CheckResult("forced", False, "synthetic failure")],
        )
        result = run_grlb(["verify", "--suite", "lemmas", "--max-n", "3"])
        assert result.exit_code == 3
        assert "FAIL forced" in result.output


#: (GRLB_MAX_N, command, error): each is an invalid argument under its command,
#: or under `grlb` itself when there is none.  None leaves GRLB_MAX_N unset.
INVALID_INPUTS = [
    ("abc", "table --id 2", "GRLB_MAX_N must be an integer, got 'abc'"),
    ("50", "table --id 2", "n=70 exceeds the exact-computation ceiling 50"),
    ("abc", "verify --suite oracle --max-n 4", "GRLB_MAX_N must be an integer, got 'abc'"),
    ("10", "verify --suite closed-forms --max-n 12", "n=11 exceeds the exact-computation ceiling 10"),
    ("1", "compute --family X1 --n 3", "GRLB_MAX_N must be at least 2, got 1"),
    ("abc", "compute --family X5", "GRLB_MAX_N must be an integer, got 'abc'"),
    ("abc", "table --id 1", "GRLB_MAX_N must be an integer, got 'abc'"),
    ("abc", "verify --suite lemmas --max-n 4", "GRLB_MAX_N must be an integer, got 'abc'"),
    ("5", "verify --suite bounds --max-n 8", "n=6 exceeds the exact-computation ceiling 5"),
    ("100", "verify --suite oracle --max-n 101", "n=101 exceeds the exact-computation ceiling 100"),
    (None, "compute --family X6", "argument --family: invalid choice: 'X6'"),
    (None, "compute --family X1 --n abc", "argument --n: invalid int value: 'abc'"),
    (None, "compute", "the following arguments are required: --family"),
    (None, "table --id 4", "argument --id: invalid choice: 4"),
    (None, "compute --family X1 --n 3 --digits 100001", "--digits must be between 1 and 100000"),
    (None, "verify --suite nonsense", "argument --suite: invalid choice: 'nonsense'"),
    (None, "compute --family X5 --bogus", "unrecognized arguments: --bogus"),
    (None, "compute --fam X5", "the following arguments are required: --family"),
    (None, "", "the following arguments are required: command"),
]


def _grlb_process(command: str, **env: str | None) -> subprocess.CompletedProcess:
    """Run `python -m grlb.cli` on a command line, with `env` set or, where None, unset."""
    src = str(Path(grlb.__file__).resolve().parents[1])
    merged = {**os.environ, "PYTHONPATH": src, **env}
    merged = {name: value for name, value in merged.items() if value is not None}
    args = [sys.executable, "-m", "grlb.cli", *command.split()]
    return subprocess.run(args, capture_output=True, env=merged, timeout=120)


@pytest.mark.parametrize("max_n,command,error", INVALID_INPUTS)
def test_invalid_input_exits_2_with_one_error_line(max_n, command, error):
    out = _grlb_process(command, GRLB_MAX_N=max_n)
    stderr = out.stderr.decode()
    assert out.returncode == 2, stderr
    assert out.stdout == b""
    lines = stderr.splitlines()
    prog = " ".join(["grlb", *command.split()[:1]])
    assert lines[0].startswith(f"usage: {prog} ")
    assert [line for line in lines if line.startswith("usage:")] == lines[:1]
    errors = [line for line in lines if "error" in line.lower()]
    assert len(errors) == 1 and errors[0].startswith(f"{prog}: error: {error}"), stderr
    assert "Traceback" not in stderr and "FAIL" not in stderr


def _one_in(n: int) -> st.SearchStrategy[bool]:
    """True in one draw of n."""
    return st.sampled_from([False] * (n - 1) + [True])


def _values(valid, invalid) -> st.SearchStrategy[str | None]:
    """A valid value in four draws of five, else an invalid one."""
    valid, invalid = st.sampled_from(list(valid)), st.sampled_from(list(invalid))
    return _one_in(5).flatmap(lambda bad: invalid if bad else valid)


_SIZES = _values(map(str, range(2, 31)), ["-1", "0", "1", "abc", "", "2.5"])
_FORMATS = _values(["text", "json", "csv"], ["xml"])
_REQUIRED = {"--family", "--id", "--suite"}
#: Each command's options and a strategy for their values, valid and invalid.
_OPTIONS = {
    "compute": {
        "--family": _values(engine.FAMILIES, ["X6", "x1"]),
        "--n": _SIZES,
        "--k": _SIZES,
        "--digits": _values(["1", "4", "12", "40"], ["-1", "0", "100001", "x"]),
        "--format": _FORMATS,
        # closed-form first: draws favour the first value, and engine is the default.
        "--route": _values(["closed-form", "engine"], ["dense"]),
    },
    "table": {"--id": _values(["1", "2", "3"], ["0", "4", "x"]), "--format": _FORMATS},
    "verify": {
        "--suite": _values(cli._SUITES, ["nonsense"]),
        "--max-n": _values(["2", "3", "6", "8"], ["-1", "1", "x"]),
        "--format": _values(["text", "json"], ["csv", "xml"]),
    },
}
#: GRLB_MAX_N: unset, a ceiling of at most a few hundred, or not a valid one.
_MAX_N_VALUES = _values([None, "2", "5", "30", "100", "300"], ["abc", "", "-3", "0", "1"])


@st.composite
def _argv(draw) -> list[str]:
    """A command line from grlb's grammar: known and unknown commands, flags and values.

    Mostly a known command with its required option, the family's own
    parameters and about half of the other options; now and then an unknown
    command or flag, --help, --version, no command, or a flag without its
    value.
    """
    if draw(_one_in(10)):
        command = draw(st.sampled_from(["bogus", "--version", None]))
    else:
        command = draw(st.sampled_from(list(_OPTIONS)))
    options = _OPTIONS.get(command, {})
    values = {flag: draw(strategy) for flag, strategy in options.items()}
    # The required options, and the family's own parameters, are rarely left out.
    likely = _REQUIRED | {"X1": {"--n"}, "X3": {"--n", "--k"}}.get(values.get("--family"), set())

    def included(flag: str) -> bool:
        if flag in likely:
            return not draw(_one_in(10))
        return draw(_one_in(10 if flag in ("--n", "--k") else 2))

    flags = [flag for flag in options if included(flag)]
    flags += [flag for flag in ("--bogus", "--fam", "--help") if draw(_one_in(20))]
    argv = [] if command is None else [command]
    for flag in draw(st.permutations(flags)):
        argv.append(flag)
        if flag in options and not draw(_one_in(20)):
            argv.append(values[flag])
    return argv


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv(), max_n=_MAX_N_VALUES)
# Each way an invalid datum reaches `main`, on every run, whatever is drawn.
@example(argv="compute --family X1 --n 2 --route closed-form".split(), max_n=None)
@example(argv="compute --family X3 --n 3 --k 4".split(), max_n=None)
@example(argv="compute --family X5 --route closed-form".split(), max_n=None)
@example(argv="compute --family X1 --n 9 --route closed-form".split(), max_n="5")
@example(argv="table --id 2".split(), max_n="30")
@example(argv="verify --suite closed-forms --max-n 8".split(), max_n="abc")
def test_any_command_line_exits_0_2_or_3(run_grlb, argv, max_n):
    # The contract of `main`: an exit code of 0, 2 or 3 and no exception but
    # SystemExit (run_grlb lets any other escape), and a usage line with every 2.
    result = run_grlb(argv, env={"GRLB_MAX_N": max_n})
    assert result.exit_code in (0, 2, 3), (argv, max_n, result.output)
    if result.exit_code == 2:
        assert any(line.startswith("usage: grlb") for line in result.stderr.splitlines()), result.output


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_output_is_utf8_under_an_ascii_locale(fmt):
    # Table 1 prints "≈", which an ASCII stdout cannot encode.
    command = f"table --id 1 --format {fmt}"
    out = _grlb_process(command, GRLB_MAX_N=None, PYTHONIOENCODING="ascii")
    assert out.returncode == 0, out.stderr.decode()
    assert hashlib.sha256(out.stdout).hexdigest() == dict(GOLDEN_OUTPUTS)[command]


def test_version_exits_0(run_grlb):
    assert run_grlb(["--version"]) == (0, f"grlb, version {grlb.__version__}\n", "")


#: What each help lists: the commands and options of `grlb`, and each command's options.
HELP_ENTRIES = {
    "": ["compute", "table", "verify", "--version"],
    "compute": ["--family", "--n", "--k", "--digits", "--format", "--route"],
    "table": ["--id", "--format"],
    "verify": ["--suite", "--max-n", "--format"],
}


@pytest.mark.parametrize("command,entries", HELP_ENTRIES.items())
def test_help_exits_0_and_lists_every_option(run_grlb, command, entries):
    result = run_grlb([*command.split(), "--help"])
    assert result.exit_code == 0 and result.stderr == ""
    listed = {line.split()[0] for line in result.stdout.splitlines() if line.startswith("  ")}
    assert {"-h,", *entries} <= listed, result.stdout


def _fresh_import(module: str) -> list[str]:
    """The heavy modules, then the grlb modules, that a fresh `import module` loads."""
    code = (
        f"import sys; sys.path.insert(0, sys.argv[1]); import {module}; "
        "print(sorted({'numpy', 'mpmath', 'click', 'dataclasses', 'inspect'} & set(sys.modules))); "
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'grlb'))"
    )
    src = str(Path(grlb.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, check=True)
    return out.stdout.splitlines()


def test_cli_import_leaves_out_numpy_and_mpmath():
    # compute and table need neither; the oracle imports numpy on use,
    # mpmath is only a test dependency, and the parser is argparse's.
    # Every record is a NamedTuple, so dataclasses and the inspect it pulls
    # in stay out of cold start.
    # suites, oracle and closedforms load only for verify or the closed-form route.
    assert _fresh_import("grlb.cli") == [
        "[]",
        str(["grlb", "grlb.cli", "grlb.engine", "grlb.exactnum", "grlb.records", "grlb.rootsystems"]),
    ]


def test_suites_import_leaves_out_dataclasses_and_inspect():
    # The whole verify stack; perfbench's setup_s probe imports grlb.cli only.
    assert _fresh_import("grlb.suites") == [
        "[]",
        str(["grlb", "grlb.closedforms", "grlb.engine", "grlb.exactnum", "grlb.oracle",
             "grlb.rootsystems", "grlb.suites"]),
    ]


def test_cli_suite_choices_are_the_suites():
    from grlb import cli, suites

    assert cli._SUITES == suites.SUITES


@pytest.mark.parametrize(
    "command",
    [
        "compute --family X1 --n 5 --route closed-form",
        "compute --family X3 --n 6 --k 3",
        "table --id 2",
        "verify --suite lemmas --max-n 6",
        "verify --suite oracle --max-n 6",
    ],
)
def test_fresh_process_reaches_every_deferred_import(run_grlb, command):
    """A fresh `python -m grlb.cli` prints what the in-process run prints.

    In-process, the tests have already imported every module, so only a
    fresh interpreter shows a module that a command uses but never imports.
    """
    out = _grlb_process(command, GRLB_MAX_N=None)
    assert out.returncode == 0, out.stderr.decode()
    assert out.stdout.decode() == run_grlb(command.split(), env={"GRLB_MAX_N": None}).stdout


#: The dense polynomial and the root table: the tests' references, which no command needs.
REFERENCE_ROUTE = {
    exactnum: ("poly_product", "integrate"),
    engine: ("dh_polynomial_on", "resolve", "phi_pu"),
    rootsystems: ("build_root_system", "weight_of_root_sum"),
}


@pytest.mark.parametrize(
    "command",
    [
        *(
            f"compute --family {family} --route {route}"
            for family in ("X1 --n 5", "X3 --n 6 --k 3")
            for route in ("engine", "closed-form")
        ),
        *(f"compute --family {family}" for family in ("X2", "X4", "X5")),
        *(f"table --id {table}" for table in (1, 2, 3)),
        *(f"verify --suite {suite} --max-n 6" for suite in ("oracle", "closed-forms", "bounds", "lemmas")),
    ],
)
def test_no_command_reaches_the_reference_route(run_grlb, monkeypatch, command):
    """Every command exits 0 with each reference function raising, at every grlb attribute that holds it."""
    reference = {
        id(getattr(module, name)): name for module, names in REFERENCE_ROUTE.items() for name in names
    }

    def unreachable(name):
        def raise_(*args, **kwargs):
            raise AssertionError(f"a command called the reference function {name}")

        return raise_

    patched = set()
    for module_name, module in list(sys.modules.items()):
        if module_name == "grlb" or module_name.startswith("grlb."):
            for attr, value in list(vars(module).items()):
                if id(value) in reference:
                    monkeypatch.setattr(module, attr, unreachable(reference[id(value)]))
                    patched.add(f"{module_name}.{attr}")
    # Besides each home module, engine holds the two it imports.
    assert {"grlb.engine.poly_product", "grlb.engine.build_root_system"} <= patched
    result = run_grlb(command.split(), env={"GRLB_MAX_N": None})
    assert result.exit_code == 0, result.output

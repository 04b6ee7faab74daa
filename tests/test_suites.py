"""Tests for the verification suites behind `grlb verify`."""

import subprocess
import sys
from pathlib import Path

import pytest

import grlb
from grlb import closedforms, oracle
from grlb.engine import InvalidDatumError
from grlb.oracle import EvaluationFailureError
from grlb.suites import run_suite


def test_lemmas_pass_where_values_exceed_float_range():
    # From n = 20 on the x1-sign integral exceeds the largest float.
    results = run_suite("lemmas", 20)
    assert results
    assert [r.name for r in results if not r.passed] == []
    assert any(r.name == "x1-sign n=20" and "e+" in r.detail for r in results)


def test_bounds_suite_runs_without_mpmath():
    # Every check is exact: with mpmath unimportable the bounds suite still passes.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); sys.modules['mpmath'] = None\n"
        "from grlb import suites\n"
        "results = suites.run_suite('bounds', 24)\n"
        "print(sum(r.passed for r in results), len(results))"
    )
    src = str(Path(grlb.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["298", "298"]


def test_oracle_no_convergence_is_a_failed_check(monkeypatch):
    def crosscheck(datum):
        raise EvaluationFailureError("integrand returned a non-finite value")

    monkeypatch.setattr(oracle, "crosscheck", crosscheck)
    results = run_suite("oracle", 3)
    assert len(results) == 7
    assert not any(r.passed for r in results)
    assert results[0].detail == "EvaluationFailureError: integrand returned a non-finite value"


def test_evaluation_failure_is_an_arithmetic_error():
    assert issubclass(EvaluationFailureError, ArithmeticError)


@pytest.mark.parametrize("error", [ZeroDivisionError("float division by zero"), ValueError("forced")])
def test_oracle_arithmetic_or_value_error_is_a_failed_check(run_grlb, monkeypatch, error):
    # The oracle fails a check the way the exact suites do.
    def crosscheck(datum):
        raise error

    monkeypatch.setattr(oracle, "crosscheck", crosscheck)
    results = run_suite("oracle", 3)
    assert len(results) == 7
    assert not any(r.passed for r in results)
    detail = f"{type(error).__name__}: {error}"
    assert {r.detail for r in results} == {detail}
    result = run_grlb(["verify", "--suite", "oracle", "--max-n", "3"])
    assert result.exit_code == 3
    assert result.output.count(f"FAIL quadrature X2: {detail}") == 1
    assert result.output.count("FAIL") == 7


def test_oracle_other_errors_propagate(monkeypatch):
    def crosscheck(datum):
        raise RuntimeError("a defect, not a check failure")

    monkeypatch.setattr(oracle, "crosscheck", crosscheck)
    with pytest.raises(RuntimeError):
        run_suite("oracle", 3)


# One exact check per suite, and the closedforms function it calls.
EXACT_CHECKS = [
    ("lemmas", "lemma_x1_sign", "x1-sign n=4"),
    ("closed-forms", "r_x1_formula", "x1 engine=formula n=4"),
    ("bounds", "r_x1_formula", "x1 R>n/(n+2) n=4"),
]


def _raise_at_n4(monkeypatch, function, error):
    real = getattr(closedforms, function)

    def patched(n):
        if n == 4:
            raise error
        return real(n)

    monkeypatch.setattr(closedforms, function, patched)


@pytest.mark.parametrize("suite,function,name", EXACT_CHECKS)
def test_exact_check_error_is_a_failed_check(run_grlb, monkeypatch, suite, function, name):
    expected = len(run_suite(suite, 5))
    _raise_at_n4(monkeypatch, function, ArithmeticError("forced"))
    assert len(run_suite(suite, 5)) == expected
    result = run_grlb(["verify", "--suite", suite, "--max-n", "5"])
    assert result.exit_code == 3
    assert f"FAIL {name}: ArithmeticError: forced" in result.output
    assert result.output.count("FAIL") == 1


@pytest.mark.parametrize("suite,function,name", EXACT_CHECKS)
def test_exact_check_other_errors_propagate(monkeypatch, suite, function, name):
    _raise_at_n4(monkeypatch, function, RuntimeError("a defect, not a check failure"))
    with pytest.raises(RuntimeError):
        run_suite(suite, 5)


@pytest.mark.parametrize("suite,function,name", EXACT_CHECKS)
def test_exact_check_value_error_is_a_failed_check(run_grlb, monkeypatch, suite, function, name):
    # A ValueError of the check's own computation is a failed check, not a bad argument.
    _raise_at_n4(monkeypatch, function, ValueError("forced"))
    result = run_grlb(["verify", "--suite", suite, "--max-n", "5"])
    assert result.exit_code == 3
    assert f"FAIL {name}: ValueError: forced" in result.output
    assert result.output.count("FAIL") == 1


@pytest.mark.parametrize("suite,function,name", EXACT_CHECKS)
def test_invalid_datum_is_a_bad_argument(run_grlb, monkeypatch, suite, function, name):
    _raise_at_n4(monkeypatch, function, InvalidDatumError("forced"))
    with pytest.raises(InvalidDatumError):
        run_suite(suite, 5)
    result = run_grlb(["verify", "--suite", suite, "--max-n", "5"])
    assert result.exit_code == 2
    assert "grlb verify: error: forced" in result.output
    assert "FAIL" not in result.output


@pytest.mark.parametrize("suite", ["lemmas", "closed-forms", "bounds", "oracle"])
def test_ceiling_is_checked_before_any_check_runs(monkeypatch, suite):
    monkeypatch.setenv("GRLB_MAX_N", "4")
    assert run_suite(suite, 4)
    # The error names the first n past the ceiling, whatever max_n is.
    for max_n in (5, 9):
        with pytest.raises(InvalidDatumError, match="^n=5 exceeds the exact-computation ceiling 4"):
            run_suite(suite, max_n)
    monkeypatch.setenv("GRLB_MAX_N", "abc")
    with pytest.raises(InvalidDatumError, match="GRLB_MAX_N must be an integer"):
        run_suite(suite, 4)


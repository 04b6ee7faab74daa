"""Tests for the verification suites behind `grlb verify`."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import grlb
from grlb import closedforms, engine, oracle, suites
from grlb.engine import HorosphericalDatum, InvalidDatumError, report
from grlb.exactnum import frac_str
from grlb.oracle import EvaluationFailureError
from grlb.suites import run_suite


def test_lemmas_pass_where_values_exceed_float_range():
    # From n = 20 on the x1-sign integral exceeds the largest float.
    results = run_suite("lemmas", 20)
    assert results
    assert [r.name for r in results if not r.passed] == []
    assert any(r.name == "x1-sign n=20" and "e+" in r.detail for r in results)


def test_closed_forms_check_writes_r_past_the_str_digit_limit(monkeypatch):
    # R(X1(165)) has more than the 4300 digits str() of an int allows.
    monkeypatch.setenv("GRLB_MAX_N", "165")
    result = suites._check("x1 engine=formula n=165", suites._engine_formula, "X1", 165)
    assert result.passed, result.detail
    assert result.detail == "R=" + frac_str(report(HorosphericalDatum("X1", n=165)).R)


@pytest.mark.parametrize("index", [0, 1, 2], ids=["dimension", "segment", "tbar"])
def test_closed_forms_check_compares_the_whole_record(monkeypatch, index):
    # R alone agreeing is not enough: a wrong dimension, segment or tbar fails the check.
    real = closedforms.closed_form

    def off(*args):
        record = list(real(*args))
        record[index] = None
        return tuple(record)

    monkeypatch.setattr(closedforms, "closed_form", off)
    results = run_suite("closed-forms", 4)
    failed = [r.name for r in results if not r.passed]
    assert failed == [r.name for r in results if "engine=formula" in r.name]
    assert len(failed) == 2 + 6


def test_comparison_check_writes_a_huge_value_as_a_failure(monkeypatch):
    monkeypatch.setattr(closedforms, "x1_comparison_integral", lambda n: Fraction(10**5000, 3))
    results = {r.name: r for r in run_suite("lemmas", 3)}
    check = results["x1-comparison-zero n=3"]
    assert not check.passed
    assert check.detail == "value=3.33333e+4999"


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
    def crosscheck(datum, estimate):
        raise EvaluationFailureError("integrand returned a non-finite value")

    monkeypatch.setattr(oracle, "crosscheck", crosscheck)
    results = run_suite("oracle", 3)
    assert len(results) == 7
    assert not any(r.passed for r in results)
    assert results[0].detail == "EvaluationFailureError: integrand returned a non-finite value"


def test_oracle_nonfinite_row_fails_only_its_check(monkeypatch):
    # X3(5,3) is C_5's marked pair (2, 3): its forms turn NaN inside C_5's batch.
    real_forms = oracle._forms

    def forms(type_label, rank, members):
        out = real_forms(type_label, rank, members)
        if (type_label, rank) == ("C", 5):
            (position,) = [p for p, i, j in members.tolist() if (i, j) == (2, 3)]
            out[2][out[0] == position] = np.nan
        return out

    monkeypatch.setattr(oracle, "_forms", forms)
    blocks = []
    real_density = oracle._density

    def density(*args):
        values = real_density(*args)
        blocks.append(np.isfinite(values).all(axis=1))
        return values

    monkeypatch.setattr(oracle, "_density", density)
    results = run_suite("oracle", 5)
    # X3(5,3)'s row is evaluated in one block with other data's rows.
    (finite,) = [rows for rows in blocks if not rows.all()]
    assert len(finite) > 1 and finite.sum() == len(finite) - 1
    assert len(results) == 16
    failed = [r for r in results if not r.passed]
    assert [(r.name, r.detail) for r in failed] == [
        ("quadrature X3(5,3)", "EvaluationFailureError: integrand returned a non-finite value")
    ]
    assert {r.name for r in results if r.passed} >= {"quadrature X3(5,2)", "quadrature X3(5,4)", "quadrature X3(5,5)"}


def test_oracle_engine_error_fails_only_its_check(monkeypatch):
    real = engine.report

    def flaky(datum):
        if datum.label() == "X3(5,3)":
            raise ArithmeticError("forced")
        return real(datum)

    monkeypatch.setattr(engine, "report", flaky)
    results = run_suite("oracle", 5)
    assert [(r.name, r.detail) for r in results if not r.passed] == [("quadrature X3(5,3)", "ArithmeticError: forced")]
    assert len(results) == 16


def test_oracle_suite_is_crosscheck_per_datum(monkeypatch):
    # The suite's batched estimates give what crosscheck(datum) computes alone.
    seen = {}
    real = oracle.crosscheck

    def spy(datum, estimate):
        seen[datum] = report = real(datum, estimate)
        return report

    monkeypatch.setattr(oracle, "crosscheck", spy)
    assert all(r.passed for r in run_suite("oracle", 20))
    data = list(suites._oracle_data(20))
    assert list(seen) == data
    for datum in data:
        alone, batched = real(datum), seen[datum]
        assert batched.segment_oracle == alone.segment_oracle, datum.label()
        assert batched.t_bar_quad == pytest.approx(alone.t_bar_quad, rel=1e-12), datum.label()
        assert batched.r_quad == pytest.approx(alone.r_quad, rel=1e-12), datum.label()


def test_oracle_suite_leaves_numpy_ma_unimported():
    # numpy.ma adds about 2.5 MB of RSS; a plain np.unique(x) imports it.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from grlb import suites\n"
        "assert all(r.passed for r in suites.run_suite('oracle', 6))\n"
        "print('numpy.ma' in sys.modules, 'numpy' in sys.modules)"
    )
    src = str(Path(grlb.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "True"]


def test_evaluation_failure_is_an_arithmetic_error():
    assert issubclass(EvaluationFailureError, ArithmeticError)


@pytest.mark.parametrize("error", [ZeroDivisionError("float division by zero"), ValueError("forced")])
def test_oracle_arithmetic_or_value_error_is_a_failed_check(run_grlb, monkeypatch, error):
    # The oracle fails a check the way the exact suites do.
    def crosscheck(datum, estimate):
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
    def crosscheck(datum, estimate):
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


@pytest.mark.parametrize("suite", ["lemmas", "closed-forms", "bounds", "oracle"])
@pytest.mark.parametrize("max_n", [True, False, 2.5, 4.0, "4", None, 1, 0, -3])
def test_max_n_is_checked_before_any_check_runs(monkeypatch, suite, max_n):
    def no_check(*args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(suites, "_check", no_check)
    monkeypatch.setattr(oracle, "estimates", no_check)
    with pytest.raises(ValueError, match="^max_n must be an int of at least 2") as raised:
        run_suite(suite, max_n)
    assert not isinstance(raised.value, InvalidDatumError)


@pytest.mark.parametrize("suite", ["lemmas", "closed-forms", "bounds", "oracle"])
def test_max_n_of_two_is_the_smallest_grid(suite):
    results = run_suite(suite, 2)
    assert results and all(r.passed for r in results)

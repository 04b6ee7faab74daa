"""Tests for the verification suites behind `grlb verify`."""

import pytest

from grlb import oracle
from grlb.oracle import NoConvergenceError, QuadratureResult
from grlb.suites import run_suite


def test_lemmas_pass_where_values_exceed_float_range():
    # From n = 20 on the x1-sign integral exceeds the largest float.
    results = run_suite("lemmas", 20)
    assert results
    assert [r.name for r in results if not r.passed] == []
    assert any(r.name == "x1-sign n=20" and "e+" in r.detail for r in results)


def test_oracle_no_convergence_is_a_failed_check(monkeypatch):
    def crosscheck(datum, rel_tol=1e-9):
        raise NoConvergenceError("no convergence within 30 halvings", QuadratureResult(1.0, 1.0, 30))

    monkeypatch.setattr(oracle, "crosscheck", crosscheck)
    results = run_suite("oracle", 3)
    assert len(results) == 7
    assert not any(r.passed for r in results)
    assert results[0].detail == "NoConvergenceError: no convergence within 30 halvings"


def test_oracle_other_errors_propagate(monkeypatch):
    def crosscheck(datum, rel_tol=1e-9):
        raise ZeroDivisionError("not a quadrature failure")

    monkeypatch.setattr(oracle, "crosscheck", crosscheck)
    with pytest.raises(ZeroDivisionError):
        run_suite("oracle", 3)

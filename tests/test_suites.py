"""Tests for the verification suites behind `grlb verify`."""

from grlb.suites import run_suite


def test_lemmas_pass_where_values_exceed_float_range():
    # From n = 20 on the x1-sign integral exceeds the largest float.
    results = run_suite("lemmas", 20)
    assert results
    assert [r.name for r in results if not r.passed] == []
    assert any(r.name == "x1-sign n=20" and "e+" in r.detail for r in results)

"""Tests of the benchmark itself: span arithmetic, output checks, metric names.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import signal
import time
import types
from pathlib import Path

import pytest

import refclock
import run
import tracing


def _span(name, start, end, parent=None, op="op"):
    return [name, start, end, parent, op]


def test_self_time_subtracts_nested_children():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("a.inner", 2.0, 3.0, parent=1),
        _span("b", 5.0, 7.0, parent=0),
    ]
    assert tracing.self_times(spans) == [5.0, 2.0, 1.0, 2.0]
    assert sum(tracing.self_times(spans)) == 10.0


def test_self_time_counts_overlapping_children_once():
    spans = [_span("root", 0.0, 10.0), _span("a", 1.0, 4.0, parent=0), _span("b", 3.0, 6.0, parent=0)]
    assert tracing.self_times(spans)[0] == 5.0


def test_traced_calls_nest_and_restore():
    inner = types.ModuleType("inner")
    outer = types.ModuleType("outer")

    def leaf(x):
        return x + 1

    def caller(x):
        return inner.leaf(x) * 2

    leaf.__module__, caller.__module__ = "pkg.inner", "pkg.outer"
    inner.leaf, outer.caller = leaf, caller
    targets = tracing.public_functions([inner, outer], "pkg")
    assert sorted(span for _, _, span in targets) == ["inner.leaf", "outer.caller"]

    tracer = tracing.Tracer()
    seen = []
    with tracing.installed(tracer, targets, {"inner.leaf": lambda stats, args, out: seen.append(out)}):
        assert outer.caller(1) == 4
    assert inner.leaf is leaf and outer.caller is caller
    assert [(s[0], s[3]) for s in tracer.spans] == [("outer.caller", None), ("inner.leaf", 0)]
    assert seen == [2]
    totals = tracer.totals()
    assert totals["inner.leaf"][0] == totals["outer.caller"][0] == 1
    duration = tracer.spans[0][2] - tracer.spans[0][1]
    assert totals["inner.leaf"][1] + totals["outer.caller"][1] == pytest.approx(duration)


def test_reference_clock_ticks_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with refclock.RefClock() as clock:
        readings = [clock.now()]
        wall = time.perf_counter()
        while time.perf_counter() - wall < 0.2:
            readings.append(clock.now())
    assert readings == sorted(readings)
    assert readings[-1] > 0
    assert signal.getsignal(signal.SIGALRM) is before


@pytest.fixture(scope="module")
def grlb():
    return run.import_grlb()


@pytest.fixture(scope="module")
def refs():
    return json.loads(run.REFERENCES.read_text())


def _record_op(grlb, refs, corrupt):
    (op,) = [op for op in run.workload_ops("x1-large", grlb, refs) if op.label == "X1(30)"]

    def call():
        data = json.loads(op.call())
        if corrupt:
            num, den = data["R"].split("/")
            data["R"] = f"{int(num) + 1}/{den}"
        return json.dumps(data)

    return run.Op(op.label, call, op.check)


def test_reference_r_passes(grlb, refs):
    tally = run.Tally()
    run.run_pass([_record_op(grlb, refs, corrupt=False)], tally, time.perf_counter)
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 0, 0)


def test_corrupted_r_is_a_failed_op(grlb, refs):
    tally = run.Tally()
    run.run_pass([_record_op(grlb, refs, corrupt=True)], tally, time.perf_counter)
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 1)
    ((label, reason),) = tally.failures
    assert label == "X1(30)" and reason.startswith("R digest")


def test_raising_op_fails_without_a_wrong_output():
    def boom():
        raise OverflowError("too large")

    tally = run.Tally()
    run.run_pass([run.Op("boom", boom, lambda out: None)], tally, time.perf_counter)
    assert (tally.failed, tally.wrong) == (1, 0)
    assert tally.failures == {("boom", "OverflowError: too large"): 1}


def test_suite_check_count_and_failures():
    passed = types.SimpleNamespace(name="a", passed=True)
    failed = types.SimpleNamespace(name="b", passed=False)
    assert run.check_suite([passed, passed], 2) is None
    assert "checks != reference" in run.check_suite([passed], 2)
    assert "failed, first: b" in run.check_suite([passed, failed], 2)


def test_unresolved_span_is_missing_not_zero():
    resolved = {layer.span for layer in run.PER_LAYER if layer.span} - {"exactnum.poly_product"}
    values, missing = run.collect_layers([{}], resolved)
    assert ("exactnum.poly_product.self_s", "exactnum.poly_product") in missing
    assert "exactnum.poly_product.self_s" not in values
    assert values["oracle.quad.calls"] == (0, "count")


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((Path(run.HERE).parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert spec["per_layer"] == [
        {"name": layer.name, "unit": layer.unit, "better": layer.better} for layer in run.PER_LAYER
    ]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "op_p50_s", "peak_rss_mb", "op_success_rate"
    }

"""Benchmark for grlb, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload x1-large --seed 1 --seconds 25 --trace 0

Each workload is a fixed list of ops; one op is the library call behind one
CLI invocation, and the seed only shuffles the order of the ops in each pass.
Passes repeat until --seconds of wall time have elapsed, in one process and
one thread; a plain run makes at least MIN_PASSES passes and a traced one at
least one of each kind.  Times are read from refclock.RefClock, which
scales wall time by the measured speed of the core, so that runs on a shared
host agree.  Every output is checked against perfbench/references.json; see
perfbench/make_references.py.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates plain and
traced passes: the traced ones record a span around every public grlb
function, as called through each module attribute, and give the per-layer
metrics.  Their spans are written to perfbench/out/.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType
from typing import Any, Callable

import refclock
import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCES = HERE / "references.json"
TRACE_DIR = HERE / "out"

LAYERS = ("cli", "records", "suites", "engine", "rootsystems", "exactnum", "closedforms", "oracle")

X1_LARGE = [*range(30, 51), 60, 70]
X3_WIDE = [(n, k) for n in range(60, 71) for k in range(2, 9)]
# Oracle max-n stays at 14: crosscheck hangs or raises from n = 17 on.
VERIFY = [("oracle", 14), ("closed-forms", 24), ("bounds", 24), ("lemmas", 24)]
WORKLOADS = ("x1-large", "x3-wide", "verify")

#: Fresh-interpreter imports of grlb.cli per run; one untimed import first.
SETUP_SAMPLES = 9
#: Passes per plain run at least, whatever --seconds says, so that every op
#: time is a median of three: runs with two x1-large passes read up to 9% high.
MIN_PASSES = 3

# Fresh interpreters import grlb.cli: one counts the modules the import adds,
# the other times it on the reference clock.
_COUNT_PROBE = """\
import sys
sys.path.insert(0, sys.argv[1])
before = len(sys.modules)
import grlb.cli
print(len(sys.modules) - before)
"""
_TIME_PROBE = """\
import sys
sys.path[:0] = sys.argv[1:3]
import refclock
with refclock.RefClock() as clock:
    start = clock.now()
    import grlb.cli
    print(clock.now() - start)
"""


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    span: str | None  # the traced function the value is read from


# The per-layer metrics, in the order BENCHMARK.json lists them.
PER_LAYER = (
    Layer("exactnum.poly_product.self_s", "s", "lower", "exactnum.poly_product"),
    Layer("exactnum.integrate.self_s", "s", "lower", "exactnum.integrate"),
    Layer("exactnum.integrate.calls", "count", "lower", "exactnum.integrate"),
    Layer("engine.dh_polynomial_on.self_s", "s", "lower", "engine.dh_polynomial_on"),
    Layer("engine.density_degree_max", "count", "lower", "engine.dh_polynomial_on"),
    Layer("engine.density_coeff_bits_max", "bits", "lower", "engine.dh_polynomial_on"),
    Layer("engine.density_factors", "count", "lower", "exactnum.poly_product"),
    Layer("engine.result_bits_max", "bits", "lower", "engine.ricci_bound"),
    Layer("rootsystems.build_root_system.calls", "count", "lower", "rootsystems.build_root_system"),
    Layer("rootsystems.build_root_system.self_s", "s", "lower", "rootsystems.build_root_system"),
    Layer("rootsystems.roots_built", "count", "lower", "rootsystems.build_root_system"),
    Layer("rootsystems.weight_of_root_sum.self_s", "s", "lower", "rootsystems.weight_of_root_sum"),
    Layer("engine.resolve.calls", "count", "lower", "engine.resolve"),
    Layer("engine.phi_pu.calls", "count", "lower", "engine.phi_pu"),
    Layer("engine.phi_pu.self_s", "s", "lower", "engine.phi_pu"),
    Layer("engine.moment_segment.self_s", "s", "lower", "engine.moment_segment"),
    Layer("engine.report.self_s", "s", "lower", "engine.report"),
    Layer("oracle.quad.calls", "count", "lower", "oracle.quad"),
    Layer("oracle.quad.self_s", "s", "lower", "oracle.quad"),
    Layer("oracle.quad.levels_sum", "count", "lower", "oracle.quad"),
    Layer("oracle.integrand_points", "count", "lower", "oracle.quad"),
    Layer("oracle.crosscheck.self_s", "s", "lower", "oracle.crosscheck"),
    Layer("oracle.worst_rel_err", "ratio", "lower", "oracle.crosscheck"),
    Layer("closedforms.r_x1_formula.self_s", "s", "lower", "closedforms.r_x1_formula"),
    Layer("closedforms.r_x3_formula.self_s", "s", "lower", "closedforms.r_x3_formula"),
    Layer("closedforms.asymptotic_bounds.self_s", "s", "lower", "closedforms.asymptotic_bounds"),
    *(Layer(f"suites.{suite}.wall_s", "s", "lower", "suites.run_suite") for suite, _ in VERIFY),
    Layer("suites.checks", "count", "higher", "suites.run_suite"),
    Layer("suites.checks_failed", "count", "lower", "suites.run_suite"),
    Layer("records.record_for.self_s", "s", "lower", "records.record_for"),
    Layer("records.record_to_json.self_s", "s", "lower", "records.record_to_json"),
    Layer("cli.modules_imported", "count", "lower", None),
    Layer("trace.overhead_s", "s", "lower", None),
)


def _raise_max(stats: dict, key: str, value: float) -> None:
    stats[key] = max(stats.get(key, value), value)


def _add(stats: dict, key: str, value: float) -> None:
    stats[key] = stats.get(key, 0) + value


def _observe_factors(stats: dict, args: tuple, result: Any) -> None:
    _raise_max(stats, "engine.density_factors", len(set(args[0])))


def _observe_density(stats: dict, args: tuple, poly: Any) -> None:
    _raise_max(stats, "engine.density_degree_max", poly.degree)
    bits = max((c.numerator.bit_length() + c.denominator.bit_length() for c in poly.coeffs), default=0)
    _raise_max(stats, "engine.density_coeff_bits_max", bits)


def _observe_result(stats: dict, args: tuple, r: Any) -> None:
    _raise_max(stats, "engine.result_bits_max", r.numerator.bit_length() + r.denominator.bit_length())


def _observe_roots(stats: dict, args: tuple, rs: Any) -> None:
    _add(stats, "rootsystems.roots_built", len(rs.positive_roots))


def _observe_quad(stats: dict, args: tuple, q: Any) -> None:
    _add(stats, "oracle.quad.levels_sum", q.refinement_levels)
    # Computed, not counted: quad evaluates 2**levels + 1 points.
    _add(stats, "oracle.integrand_points", 2**q.refinement_levels + 1)


def _observe_crosscheck(stats: dict, args: tuple, rep: Any) -> None:
    _raise_max(stats, "oracle.worst_rel_err", max(rep.t_bar_rel_err, rep.r_rel_err))


def _observe_suite(stats: dict, args: tuple, results: Any) -> None:
    _add(stats, "suites.checks", len(results))
    _add(stats, "suites.checks_failed", sum(not r.passed for r in results))


OBSERVERS = {
    "exactnum.poly_product": _observe_factors,
    "engine.dh_polynomial_on": _observe_density,
    "engine.ricci_bound": _observe_result,
    "rootsystems.build_root_system": _observe_roots,
    "oracle.quad": _observe_quad,
    "oracle.crosscheck": _observe_crosscheck,
    "suites.run_suite": _observe_suite,
}


def import_grlb() -> dict[str, ModuleType]:
    """Import the layers from this checkout's src/, never from anywhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"grlb.{name}") for name in LAYERS}
    found = Path(modules["engine"].__file__).resolve().parent
    if found != SRC / "grlb":
        raise ImportError(f"grlb imported from {found}, not from {SRC / 'grlb'}")
    return modules


def r_digest(r: str) -> str:
    """Digest of an exact R rendered as "p/q"."""
    return hashlib.sha256(r.encode()).hexdigest()


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]  # None when the output matches its reference


def check_record(text: str, digest: str) -> str | None:
    got = r_digest(json.loads(text)["R"])
    return None if got == digest else f"R digest {got[:16]} != reference {digest[:16]}"


def check_suite(results: list, expected: int) -> str | None:
    failed = [r.name for r in results if not r.passed]
    if failed:
        return f"{len(failed)} checks failed, first: {failed[0]}"
    if len(results) != expected:
        return f"{len(results)} checks != reference {expected}"
    return None


def suite_label(suite: str, max_n: int) -> str:
    return f"verify {suite} --max-n {max_n}"


def workload_ops(name: str, grlb: dict[str, ModuleType], refs: dict) -> list[Op]:
    records, suites = grlb["records"], grlb["suites"]
    datum = grlb["engine"].HorosphericalDatum
    if name == "verify":
        ops = []
        for suite, max_n in VERIFY:
            label = suite_label(suite, max_n)
            expected = refs["suites"][label]
            ops.append(
                Op(
                    label,
                    lambda s=suite, m=max_n: suites.run_suite(s, m),
                    lambda out, e=expected: check_suite(out, e),
                )
            )
        return ops
    if name == "x1-large":
        data = [datum("X1", n=n) for n in X1_LARGE]
    elif name == "x3-wide":
        data = [datum("X3", n=n, k=k) for n, k in X3_WIDE]
    else:
        raise ValueError(f"unknown workload {name!r}")
    return [
        Op(
            d.label(),
            lambda d=d: records.record_to_json(records.record_for(d)),
            lambda out, digest=refs["compute"][d.label()]: check_record(out, digest),
        )
        for d in data
    ]


@dataclass
class Tally:
    """Ops attempted, failures by (op, reason), and outputs that were wrong."""

    attempted: int = 0
    failures: Counter = field(default_factory=Counter)
    wrong: int = 0

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def run_pass(
    ops: list[Op], tally: Tally, clock: Callable[[], float], tracer: tracing.Tracer | None = None
) -> list[tuple[str, float]]:
    """Run each op once; return (label, seconds on `clock`) per op in run order."""
    latencies = []
    for op in ops:
        if tracer is not None:
            tracer.op = op.label
        tally.attempted += 1
        start = clock()
        try:
            out = op.call()
        except Exception as exc:  # a failed op is counted, and the pass goes on
            latencies.append((op.label, clock() - start))
            tally.failures[(op.label, f"{type(exc).__name__}: {exc}")] += 1
            continue
        latencies.append((op.label, clock() - start))
        problem = op.check(out)
        if problem is not None:
            tally.failures[(op.label, problem)] += 1
            tally.wrong += 1
    return latencies


def cold_import(probe: str) -> float:
    """What `probe` prints after importing grlb.cli in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", probe, str(SRC), str(HERE)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout)


def pass_wall(latencies: list[tuple[str, float]]) -> float:
    return sum(secs for _, secs in latencies)


def measure(ops: list[Op], seed: int, seconds: float, tally: Tally) -> tuple[dict, list[str]]:
    """End-to-end metrics from plain passes, plus the summary lines to print."""
    cold_import(_COUNT_PROBE)  # writes bytecode caches; not timed
    setup = statistics.median(cold_import(_TIME_PROBE) for _ in range(SETUP_SAMPLES))
    rng = random.Random(seed)
    passes: list[list[tuple[str, float]]] = []
    start = time.perf_counter()
    with refclock.RefClock() as clock:
        while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
            passes.append(run_pass(rng.sample(ops, len(ops)), tally, clock.now))
        speed = clock.now() / (time.perf_counter() - start)
    per_op: dict[str, list[float]] = {}
    for p in passes:
        for label, secs in p:
            per_op.setdefault(label, []).append(secs)
    values = {
        "setup_s": (setup, "s"),
        "wall_s": (sum(statistics.median(v) for v in per_op.values()), "s"),
        "op_p50_s": (statistics.median(statistics.median(v) for v in per_op.values()), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "op_success_rate": (1 - tally.failed / tally.attempted, "ratio"),
    }
    notes = [
        f"times are reference seconds; this run's reference clock ran at {speed:.3f} x wall time",
        f"setup_s is the median of {SETUP_SAMPLES} fresh-interpreter imports of grlb.cli",
        f"each op's time is its median over {len(passes)} passes ({len(passes) * len(ops)} samples)",
        f"wall_s sums the {len(ops)} op times; op_p50_s is their median",
    ]
    return values, notes


def layer_values(tracer: tracing.Tracer, latencies: list[tuple[str, float]]) -> dict[str, float]:
    """Every per-layer value one traced pass yields, keyed by metric name."""
    values: dict[str, float] = dict(tracer.stats)
    for span, (calls, self_s) in tracer.totals().items():
        values[f"{span}.calls"] = calls
        values[f"{span}.self_s"] = self_s
    suites = {suite_label(suite, max_n): suite for suite, max_n in VERIFY}
    for label, secs in latencies:
        if label in suites:
            values[f"suites.{suites[label]}.wall_s"] = secs
    return values


def measure_traced(
    ops: list[Op], grlb: dict[str, ModuleType], seed: int, seconds: float, tally: Tally, out: Path
) -> tuple[dict, list[str]]:
    """Per-layer metrics from alternating plain and traced passes."""
    modules_imported = int(cold_import(_COUNT_PROBE))
    targets = tracing.public_functions([grlb[name] for name in LAYERS], "grlb")
    resolved = {span for _, _, span in targets}
    rng = random.Random(seed)
    plain, traced, tracers = [], [], []
    start = time.perf_counter()
    with refclock.RefClock() as clock:
        while not traced or time.perf_counter() - start < seconds:
            order = rng.sample(ops, len(ops))
            plain.append(run_pass(order, tally, clock.now))
            tracer = tracing.Tracer(clock.now)
            with tracing.installed(tracer, targets, OBSERVERS):
                traced.append(run_pass(order, tally, clock.now, tracer))
            tracers.append(tracer)
    per_pass = [layer_values(t, lat) for t, lat in zip(tracers, traced)]
    overhead = statistics.median(map(pass_wall, traced)) - statistics.median(map(pass_wall, plain))
    for v in per_pass:
        v.update({"cli.modules_imported": modules_imported, "trace.overhead_s": overhead})
    values, missing = collect_layers(per_pass, resolved)
    tracing.write_spans(out, tracers)
    notes = [
        f"per-layer values are medians over {len(traced)} traced passes of {len(ops)} ops",
        "times are reference seconds (see perfbench/refclock.py)",
        "oracle.integrand_points is computed as the sum of 2**levels + 1 per quad call",
        f"trace.overhead_s is traced minus plain pass time; spans written to {out.relative_to(HERE.parent)}",
        *(f"MISSING {name}: span {span} no longer resolves to a function" for name, span in missing),
    ]
    return values, notes


def collect_layers(per_pass: list[dict[str, float]], resolved: set[str]) -> tuple[dict, list[tuple[str, str]]]:
    """Median of each per-layer metric over the traced passes.

    A metric whose span no longer resolves to a function is returned as
    missing, never as zero; one whose function ran zero times reads zero.
    """
    values, missing = {}, []
    for layer in PER_LAYER:
        if layer.span is not None and layer.span not in resolved:
            missing.append((layer.name, layer.span))
            continue
        values[layer.name] = (statistics.median(v.get(layer.name, 0) for v in per_pass), layer.unit)
    return values, missing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        grlb = import_grlb()
        refs = json.loads(REFERENCES.read_text())
    except (ImportError, OSError) as exc:
        print(f"cannot load grlb or its references: {exc}", file=sys.stderr)
        return 2
    ops = workload_ops(args.workload, grlb, refs)
    tally = Tally()
    if args.trace:
        out = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        values, notes = measure_traced(ops, grlb, args.seed, args.seconds, tally, out)
    else:
        values, notes = measure(ops, args.seed, args.seconds, tally)
    print(f"workload {args.workload}, seed {args.seed}")
    for name, (value, unit) in values.items():
        print(f"  {name:40s} {value:>14.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    print(f"  error_rate {tally.failed / tally.attempted:.4g}: {tally.failed} of {tally.attempted} ops failed")
    for (label, reason), count in sorted(tally.failures.items()):
        print(f"  FAILED {label} ({count}x): {reason}")
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Verification suites behind the `verify` command.

Each suite runs a grid of checks and returns one result per check; the CLI
prints them and converts any failure into a nonzero exit status.  Every suite
is bounded by the one exact ceiling and fails a check the same way: an
arithmetic or value error raised inside a check (a quadrature failure
included) is reported as that check's failure naming the exception; other
exceptions propagate, an InvalidDatumError (an n past the ceiling, a bad
GRLB_MAX_N) included.  `run_suite` raises that error before any check runs.
The oracle suite integrates all its data in one `oracle.estimates` call; a
datum's comparison with the engine, or a non-finite row, fails only its check.
The closed-forms suite compares each X1 and X3 record of the engine, its
dimension, segment, tbar and R, with `closedforms.closed_form`'s, and each
check prints the engine's R.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from . import closedforms, engine, oracle
from .engine import HorosphericalDatum, InvalidDatumError
from .exactnum import frac_str, to_significant

__all__ = ["CheckResult", "SUITES", "run_suite"]


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


#: Exceptions a check may raise for its own parameters; each becomes that
#: check's failure, bar the InvalidDatumError of a bad argument.
_CHECK_ERRORS = (ArithmeticError, ValueError)


def _check(name: str, evaluate: Callable[..., tuple[bool, str]], *args) -> CheckResult:
    """evaluate(*args) -> (passed, detail); a _CHECK_ERRORS exception fails only this check."""
    try:
        passed, detail = evaluate(*args)
    except InvalidDatumError:
        raise
    except _CHECK_ERRORS as exc:
        return CheckResult(name, False, f"{type(exc).__name__}: {exc}")
    return CheckResult(name, passed, detail)


def _x3_pairs(max_n: int, strict: bool):
    for n in range(2, max_n + 1):
        for k in range(2, n + (0 if strict else 1)):
            yield n, k


def _x1_sign(n: int) -> tuple[bool, str]:
    check = closedforms.lemma_x1_sign(n)
    return check.holds, f"integral={to_significant(check.lhs, 6)} > 0"


def _x3_ratio(n: int, k: int) -> tuple[bool, str]:
    check = closedforms.lemma_x3nk_sign(n, k)
    return check.holds, f"ratio={to_significant(check.lhs, 12)} < {k}"


def _a_exceeds_two(n: int) -> tuple[bool, str]:
    a_n = closedforms.a_sequence(n)
    return a_n > 2, f"a_n={to_significant(a_n, 12)}"


def _a_recurrence(n: int) -> tuple[bool, str]:
    lhs = closedforms.a_sequence(n + 1)
    rhs = closedforms.a_sequence(n) * closedforms.a_recurrence_factor(n)
    return lhs == rhs, "exact"


def _x1_comparison(n: int) -> tuple[bool, str]:
    value = closedforms.x1_comparison_integral(n)
    return value == 0, f"value={to_significant(value, 6)}"


def _suite_lemmas(max_n: int) -> list[CheckResult]:
    return [
        *(_check(f"x1-sign n={n}", _x1_sign, n) for n in range(3, max_n + 1)),
        *(_check(f"x3-ratio n={n} k={k}", _x3_ratio, n, k) for n, k in _x3_pairs(max_n, strict=True)),
        *(_check(f"a_n>2 n={n}", _a_exceeds_two, n) for n in range(2, max_n + 1)),
        *(_check(f"a-recurrence n={n}", _a_recurrence, n) for n in range(0, max_n)),
        *(_check(f"x1-comparison-zero n={n}", _x1_comparison, n) for n in range(3, max_n + 1)),
    ]


def _engine_formula(family: str, n: int, k: int | None = None) -> tuple[bool, str]:
    """The engine's (dimension, segment, tbar, R) against `closedforms.closed_form`'s."""
    rep = engine.report(HorosphericalDatum(family, n, k))
    return rep == closedforms.closed_form(family, n, k), "R=" + frac_str(rep.R)


def _x3_integral_factorial(n: int) -> tuple[bool, str]:
    lhs = closedforms.r_x3_formula(n, n)
    return lhs == closedforms.r_x3nn_closed(n), "R=" + frac_str(lhs)


def _suite_closed_forms(max_n: int) -> list[CheckResult]:
    return [
        *(_check(f"x1 engine=formula n={n}", _engine_formula, "X1", n) for n in range(3, max_n + 1)),
        *(
            _check(f"x3 engine=formula n={n} k={k}", _engine_formula, "X3", n, k)
            for n, k in _x3_pairs(max_n, strict=False)
        ),
        *(_check(f"x3 integral=factorial n={n}", _x3_integral_factorial, n) for n in range(2, max_n + 1)),
    ]


def _oracle_data(max_n: int):
    yield HorosphericalDatum("X2")
    yield HorosphericalDatum("X4")
    yield HorosphericalDatum("X5")
    for n in range(3, max_n + 1):
        yield HorosphericalDatum("X1", n=n)
    for n, k in _x3_pairs(max_n, strict=False):
        yield HorosphericalDatum("X3", n=n, k=k)


def _crosscheck(datum: HorosphericalDatum, estimate: oracle.Estimate | None = None) -> tuple[bool, str]:
    rep = oracle.crosscheck(datum, estimate)
    detail = f"tbar_err={rep.t_bar_rel_err:.2e} R_err={rep.r_rel_err:.2e}"
    if rep.segment_oracle != rep.segment_exact:
        detail += f" segment={rep.segment_oracle} engine={rep.segment_exact}"
    return rep.ok, detail


def _suite_oracle(max_n: int) -> list[CheckResult]:
    data = list(_oracle_data(max_n))
    rows = zip(data, oracle.estimates(data))
    return [_check(f"quadrature {datum.label()}", _crosscheck, datum, row) for datum, row in rows]


def _bound(family: str, n: int, k: int | None = None) -> tuple[bool, str]:
    check = closedforms.asymptotic_bounds(family, n, k)
    return check.holds, f"margin={to_significant(check.margin, 6)}"


def _suite_bounds(max_n: int) -> list[CheckResult]:
    return [
        *(_check(f"x1 R>n/(n+2) n={n}", _bound, "X1", n) for n in range(3, max_n + 1)),
        *(_check(f"x3 lower bound n={n} k={k}", _bound, "X3", n, k) for n, k in _x3_pairs(max_n, strict=True)),
        *(_check(f"x3(n,n) stirling n={n}", _bound, "X3", n, n) for n in range(2, max_n + 1)),
    ]


_RUNNERS = {
    "lemmas": _suite_lemmas,
    "closed-forms": _suite_closed_forms,
    "oracle": _suite_oracle,
    "bounds": _suite_bounds,
}

SUITES = tuple(_RUNNERS)


def run_suite(suite: str, max_n: int) -> list[CheckResult]:
    """Run one named suite up to parameter max_n, an int of at least 2.

    Any other max_n (a bool included) raises ValueError.  The ceiling is read
    once, up front: every suite's grid reaches max_n, so if max_n is past the
    ceiling this raises `engine.ceiling_error(ceiling + 1, ceiling)` itself,
    the error for the first n past it.  Both errors come before any check runs.
    """
    if suite not in _RUNNERS:
        raise ValueError(f"unknown suite {suite!r}; valid suites: {', '.join(SUITES)}")
    if type(max_n) is not int or max_n < 2:
        raise ValueError(f"max_n must be an int of at least 2, not {max_n!r}")
    ceiling = engine.max_exact_n()
    if max_n > ceiling:
        raise engine.ceiling_error(ceiling + 1, ceiling)
    return _RUNNERS[suite](max_n)

"""Verification suites behind the `verify` command.

Each suite runs a grid of checks and returns one result per check; the CLI
prints them and converts any failure into a nonzero exit status.  A check
whose own computation raises one of the errors it can meet (an arithmetic or
value error for the exact checks, a quadrature failure for the oracle) is
reported as a failed check naming the exception; other exceptions propagate,
an InvalidDatumError (an n past the ceiling, a bad GRLB_MAX_N) included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import closedforms, engine, oracle
from .engine import HorosphericalDatum, InvalidDatumError
from .exactnum import to_significant

__all__ = ["CheckResult", "SUITES", "run_suite"]

SUITES = ("lemmas", "closed-forms", "oracle", "bounds")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


#: Exceptions an exact check may raise for its own parameters; each becomes
#: that check's failure, bar the InvalidDatumError of a bad argument.
_CHECK_ERRORS = (ArithmeticError, ValueError)


def _check(
    name: str,
    evaluate: Callable[..., tuple[bool, str]],
    *args,
    errors: tuple[type[Exception], ...] = _CHECK_ERRORS,
) -> CheckResult:
    """evaluate(*args) -> (passed, detail); an exception in `errors` fails only this check."""
    try:
        passed, detail = evaluate(*args)
    except InvalidDatumError:
        raise
    except errors as exc:
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
    return value == 0, f"value={value}"


def _suite_lemmas(max_n: int) -> list[CheckResult]:
    return [
        *(_check(f"x1-sign n={n}", _x1_sign, n) for n in range(3, max_n + 1)),
        *(_check(f"x3-ratio n={n} k={k}", _x3_ratio, n, k) for n, k in _x3_pairs(max_n, strict=True)),
        *(_check(f"a_n>2 n={n}", _a_exceeds_two, n) for n in range(2, max_n + 1)),
        *(_check(f"a-recurrence n={n}", _a_recurrence, n) for n in range(0, max_n)),
        *(_check(f"x1-comparison-zero n={n}", _x1_comparison, n) for n in range(3, max_n + 1)),
    ]


def _x1_engine_formula(n: int) -> tuple[bool, str]:
    lhs = engine.greatest_ricci_lower_bound(HorosphericalDatum("X1", n=n))
    return lhs == closedforms.r_x1_formula(n), f"R={lhs}"


def _x3_engine_formula(n: int, k: int) -> tuple[bool, str]:
    lhs = engine.greatest_ricci_lower_bound(HorosphericalDatum("X3", n=n, k=k))
    return lhs == closedforms.r_x3_formula(n, k), f"R={lhs}"


def _x3_integral_factorial(n: int) -> tuple[bool, str]:
    lhs = closedforms.r_x3_formula(n, n)
    return lhs == closedforms.r_x3nn_closed(n), f"R={lhs}"


def _suite_closed_forms(max_n: int) -> list[CheckResult]:
    return [
        *(_check(f"x1 engine=formula n={n}", _x1_engine_formula, n) for n in range(3, max_n + 1)),
        *(
            _check(f"x3 engine=formula n={n} k={k}", _x3_engine_formula, n, k)
            for n, k in _x3_pairs(max_n, strict=False)
        ),
        *(_check(f"x3 integral=factorial n={n}", _x3_integral_factorial, n) for n in range(2, max_n + 1)),
    ]


def _oracle_data(max_n: int):
    yield HorosphericalDatum("X2")
    yield HorosphericalDatum("X4")
    yield HorosphericalDatum("X5")
    cap = min(max_n, oracle.CROSSCHECK_MAX_N)
    for n in range(3, cap + 1):
        yield HorosphericalDatum("X1", n=n)
    for n in range(2, cap + 1):
        for k in range(2, n + 1):
            yield HorosphericalDatum("X3", n=n, k=k)


def _crosscheck(datum: HorosphericalDatum, rel_tol: float) -> tuple[bool, str]:
    rep = oracle.crosscheck(datum, rel_tol)
    return rep.ok, f"tbar_err={rep.t_bar_rel_err:.2e} R_err={rep.r_rel_err:.2e}"


def _suite_oracle(max_n: int, rel_tol: float = 1e-9) -> list[CheckResult]:
    quadrature_errors = (oracle.EvaluationFailureError, oracle.NoConvergenceError)
    return [
        _check(f"quadrature {datum.label()}", _crosscheck, datum, rel_tol, errors=quadrature_errors)
        for datum in _oracle_data(max_n)
    ]


def _bound(family: str, n: int, k: int | None = None) -> tuple[bool, str]:
    check = closedforms.asymptotic_bounds(family, n, k)
    return check.holds, f"margin={to_significant(check.margin, 6)}"


def _suite_bounds(max_n: int) -> list[CheckResult]:
    return [
        *(_check(f"x1 R>n/(n+2) n={n}", _bound, "X1", n) for n in range(3, max_n + 1)),
        *(_check(f"x3 lower bound n={n} k={k}", _bound, "X3", n, k) for n, k in _x3_pairs(max_n, strict=True)),
        *(_check(f"x3(n,n) stirling n={n}", _bound, "X3", n, n) for n in range(2, max_n + 1)),
    ]


def run_suite(suite: str, max_n: int) -> list[CheckResult]:
    """Run one named suite up to parameter max_n."""
    if suite == "lemmas":
        return _suite_lemmas(max_n)
    if suite == "closed-forms":
        return _suite_closed_forms(max_n)
    if suite == "oracle":
        return _suite_oracle(max_n)
    if suite == "bounds":
        return _suite_bounds(max_n)
    raise ValueError(f"unknown suite {suite!r}; valid suites: {', '.join(SUITES)}")

"""Verification suites behind the `verify` command.

Each suite runs a grid of checks and returns one result per check; the CLI
prints them and converts any failure into a nonzero exit status.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import closedforms, engine, oracle
from .engine import HorosphericalDatum
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


def _x3_pairs(max_n: int, strict: bool):
    for n in range(2, max_n + 1):
        for k in range(2, n + (0 if strict else 1)):
            yield n, k


def _suite_lemmas(max_n: int) -> list[CheckResult]:
    out = []
    for n in range(3, max_n + 1):
        check = closedforms.lemma_x1_sign(n)
        out.append(
            CheckResult(
                f"x1-sign n={n}",
                check.holds,
                f"integral={to_significant(check.lhs, 6)} > 0",
            )
        )
    for n, k in _x3_pairs(max_n, strict=True):
        check = closedforms.lemma_x3nk_sign(n, k)
        out.append(
            CheckResult(
                f"x3-ratio n={n} k={k}",
                check.holds,
                f"ratio={to_significant(check.lhs, 12)} < {k}",
            )
        )
    for n in range(2, max_n + 1):
        a_n = closedforms.a_sequence(n)
        out.append(CheckResult(f"a_n>2 n={n}", a_n > 2, f"a_n={to_significant(a_n, 12)}"))
    for n in range(0, max_n):
        lhs = closedforms.a_sequence(n + 1)
        rhs = closedforms.a_sequence(n) * closedforms.a_recurrence_factor(n)
        out.append(CheckResult(f"a-recurrence n={n}", lhs == rhs, "exact"))
    for n in range(3, max_n + 1):
        value = closedforms.x1_comparison_integral(n)
        out.append(CheckResult(f"x1-comparison-zero n={n}", value == 0, f"value={value}"))
    return out


def _suite_closed_forms(max_n: int) -> list[CheckResult]:
    out = []
    for n in range(3, max_n + 1):
        lhs = engine.greatest_ricci_lower_bound(HorosphericalDatum("X1", n=n))
        rhs = closedforms.r_x1_formula(n)
        out.append(CheckResult(f"x1 engine=formula n={n}", lhs == rhs, f"R={lhs}"))
    for n, k in _x3_pairs(max_n, strict=False):
        lhs = engine.greatest_ricci_lower_bound(HorosphericalDatum("X3", n=n, k=k))
        rhs = closedforms.r_x3_formula(n, k)
        out.append(CheckResult(f"x3 engine=formula n={n} k={k}", lhs == rhs, f"R={lhs}"))
    for n in range(2, max_n + 1):
        lhs = closedforms.r_x3_formula(n, n)
        rhs = closedforms.r_x3nn_closed(n)
        out.append(CheckResult(f"x3 integral=factorial n={n}", lhs == rhs, f"R={lhs}"))
    return out


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


def _suite_oracle(max_n: int, rel_tol: float = 1e-9) -> list[CheckResult]:
    out = []
    for datum in _oracle_data(max_n):
        name = f"quadrature {datum.label()}"
        try:
            rep = oracle.crosscheck(datum, rel_tol)
        except (oracle.EvaluationFailureError, oracle.NoConvergenceError) as exc:
            out.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
            continue
        out.append(
            CheckResult(name, rep.ok, f"tbar_err={rep.t_bar_rel_err:.2e} R_err={rep.r_rel_err:.2e}")
        )
    return out


def _suite_bounds(max_n: int) -> list[CheckResult]:
    out = []
    for n in range(3, max_n + 1):
        check = closedforms.asymptotic_bounds("X1", n)
        out.append(
            CheckResult(
                f"x1 R>n/(n+2) n={n}",
                check.holds,
                f"margin={to_significant(check.margin, 6)}",
            )
        )
    for n, k in _x3_pairs(max_n, strict=True):
        check = closedforms.asymptotic_bounds("X3", n, k)
        out.append(
            CheckResult(
                f"x3 lower bound n={n} k={k}",
                check.holds,
                f"margin={to_significant(check.margin, 6)}",
            )
        )
    for n in range(2, max_n + 1):
        check = closedforms.asymptotic_bounds("X3", n, n)
        out.append(
            CheckResult(
                f"x3(n,n) stirling n={n}",
                check.holds and check.margin > 0,
                f"margin={to_significant(check.margin, 6)}",
            )
        )
    return out


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

"""Floating-point verification oracle for the exact pipeline.

`quad` is a composite Simpson integrator driven by interval halving: the
trapezoid sum is refined by doubling the panel count (only new midpoints are
evaluated) and the Simpson value is extrapolated from consecutive trapezoid
sums.  Integrands are black-box vectorized callables over numpy arrays, so
none of the exact antiderivative code is exercised here.

`crosscheck` evaluates a datum's Duistermaat-Heckman density pointwise from
its multiset of linear forms, never expanded: the exponential of a sum of
logarithms, each form divided by its maximum on the segment, so every value
lies in [0, 1] at any n.  It compares the quadrature barycenter and Ricci
bound against the exact engine values.

numpy is imported inside the functions that use it, so importing this module
(and the CLI, through `suites`) does not load it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from . import engine
from .engine import HorosphericalDatum, MomentSegment
from .rootsystems import RootSystem

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CrosscheckReport",
    "EvaluationFailureError",
    "NoConvergenceError",
    "QuadratureResult",
    "crosscheck",
    "dh_density_evaluator",
    "quad",
]

#: crosscheck refuses larger n.  The scaled density stays in double range at
#: any n; the cap bounds the run time of a cross-check and of the oracle suite.
CROSSCHECK_MAX_N = 20

#: crosscheck's relative tolerance on tbar and R against the exact values.
CROSSCHECK_REL_TOL = 1e-9

_CHUNK = 1 << 20

#: A Simpson estimate of exactly zero counts as converged only from this
#: level on (2^11 panels): a narrow peak that no earlier sample hit would
#: otherwise pass as a zero integral.
ZERO_MIN_LEVELS = 12


class EvaluationFailureError(RuntimeError):
    """The integrand returned a non-finite value."""


class NoConvergenceError(RuntimeError):
    """Refinement hit the level cap; `.best` holds the last estimate."""

    def __init__(self, message: str, best: "QuadratureResult"):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class QuadratureResult:
    estimate: float
    error_estimate: float
    refinement_levels: int


def _midpoint_sum(f: Callable[[np.ndarray], np.ndarray], lo: float, step: float, count: int) -> float:
    """Sum of f at the `count` points lo + step/2 + m*step, evaluated in chunks."""
    import numpy as np

    total = 0.0
    start = lo + step / 2.0
    for offset in range(0, count, _CHUNK):
        stop = min(offset + _CHUNK, count)
        xs = start + step * np.arange(offset, stop, dtype=float)
        vals = np.asarray(f(xs), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise EvaluationFailureError("integrand returned a non-finite value")
        total += float(np.sum(vals))
    return total


def quad(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    rel_tol: float = 1e-9,
    max_levels: int = 22,
) -> QuadratureResult:
    """Composite Simpson estimate of the integral of f over [lo, hi].

    f must map a numpy array of sample points to the array of values.  The
    panel count doubles per level until two successive Simpson values agree
    to rel_tol (relatively, or absolutely for an estimate of exactly zero,
    which is accepted only from level ZERO_MIN_LEVELS on), and the level cap
    raises NoConvergenceError carrying the best estimate.  The default cap,
    22 levels (about 4 M points), is above the 17 that every datum of the
    oracle suite needs, and stops a cross-check that cannot converge before
    the far costlier levels past it.
    """
    if not lo < hi:
        raise ValueError(f"quad requires lo < hi, got [{lo}, {hi}]")
    if not rel_tol > 0:
        raise ValueError("rel_tol must be positive")
    if max_levels < 2:
        raise ValueError("max_levels must be at least 2")
    import numpy as np

    ends = np.asarray(f(np.array([lo, hi], dtype=float)), dtype=float)
    if not np.all(np.isfinite(ends)):
        raise EvaluationFailureError("integrand returned a non-finite value")
    width = hi - lo
    trap = 0.5 * width * float(ends[0] + ends[1])
    simpson_prev: float | None = None
    diff = float("inf")
    for level in range(1, max_levels + 1):
        step = width / (1 << (level - 1))
        mid = _midpoint_sum(f, lo, step, 1 << (level - 1))
        trap_next = 0.5 * trap + 0.5 * step * mid
        simpson = (4.0 * trap_next - trap) / 3.0
        if simpson_prev is not None:
            diff = abs(simpson - simpson_prev)
            scale = abs(simpson)
            if scale:
                converged = diff <= rel_tol * scale
            else:
                converged = level >= ZERO_MIN_LEVELS and diff <= rel_tol
            if converged:
                return QuadratureResult(simpson, diff, level)
        simpson_prev = simpson
        trap = trap_next
    best = QuadratureResult(simpson, diff, max_levels)
    raise NoConvergenceError(
        f"no convergence within {max_levels} halvings (last estimate {simpson!r})", best
    )


def dh_density_evaluator(rs: RootSystem, seg: MomentSegment) -> tuple[Callable[[np.ndarray], np.ndarray], float, float]:
    """Vectorized evaluator for the density on a segment, scaled into [0, 1], plus (a, b).

    The roots are grouped into distinct linear forms u*(a+t) + v*(b-t), and
    each form is divided by its maximum (a+b)*max(u, v) on the segment before
    its logarithm is weighted by its multiplicity.  The constant factor this
    drops cancels in tbar and R, and no value can leave double range.
    """
    import numpy as np

    d_i = rs.half_lengths[seg.i - 1]
    d_j = rs.half_lengths[seg.j - 1]
    # Phi_Pu: the positive roots with a nonzero coefficient on a marked index.
    marked = Counter((r[seg.i - 1], r[seg.j - 1]) for r in rs.positive_roots)
    del marked[0, 0]
    a, b = float(seg.a), float(seg.b)
    forms = []
    for (c_i, c_j), mult in marked.items():
        u, v = float(c_i * d_i), float(c_j * d_j)
        top = (a + b) * max(u, v)
        forms.append((u / top, v / top, mult))

    def density(ts: np.ndarray) -> np.ndarray:
        log_acc = np.zeros_like(ts)
        with np.errstate(divide="ignore"):
            for u, v, mult in forms:
                log_acc += mult * np.log(u * (a + ts) + v * (b - ts))
        return np.exp(log_acc)

    return density, a, b


@dataclass(frozen=True)
class CrosscheckReport:
    datum: HorosphericalDatum
    t_bar_exact: float
    t_bar_quad: float
    r_exact: float
    r_quad: float
    t_bar_rel_err: float
    r_rel_err: float
    ok: bool


def crosscheck(datum: HorosphericalDatum) -> CrosscheckReport:
    """Quadrature recomputation of tbar and R versus the exact engine values.

    The inner quadrature runs three decades tighter than the comparison
    tolerance CROSSCHECK_REL_TOL.  Parameters are capped at n <= CROSSCHECK_MAX_N.
    """
    if datum.n is not None and datum.n > CROSSCHECK_MAX_N:
        raise ValueError(f"crosscheck supports n <= {CROSSCHECK_MAX_N}")
    rs, _, _ = engine.resolve(datum)
    exact = engine.report(datum)
    density, a, b = dh_density_evaluator(rs, exact.segment)
    inner_tol = CROSSCHECK_REL_TOL * 1e-3
    volume = quad(density, -a, b, inner_tol)
    first = quad(lambda ts: ts * density(ts), -a, b, inner_tol)
    t_bar_quad = first.estimate / volume.estimate
    if t_bar_quad > 0:
        r_quad = a / (a + t_bar_quad)
    elif t_bar_quad < 0:
        r_quad = b / (b - t_bar_quad)
    else:
        r_quad = 1.0

    t_bar_exact = float(exact.barycenter_t)
    r_exact = float(exact.R)
    t_err = abs(t_bar_quad - t_bar_exact) / (abs(t_bar_exact) or 1.0)
    r_err = abs(r_quad - r_exact) / r_exact
    return CrosscheckReport(
        datum=datum,
        t_bar_exact=t_bar_exact,
        t_bar_quad=t_bar_quad,
        r_exact=r_exact,
        r_quad=r_quad,
        t_bar_rel_err=t_err,
        r_rel_err=r_err,
        ok=bool(t_err <= CROSSCHECK_REL_TOL and r_err <= CROSSCHECK_REL_TOL),
    )

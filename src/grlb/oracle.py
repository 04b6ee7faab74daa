"""Floating-point verification oracle for the exact pipeline.

`quad` is a Clenshaw-Curtis rule: one evaluation of a vectorized integrand
at 2^L + 1 Chebyshev points, exact for polynomials of degree up to 2^L, with
its weights taken by one FFT.  The density integrated here is a polynomial
whose degree the oracle counts from its own linear forms, so the rule needs
no refinement loop or tolerance, and none of the exact antiderivative code is
exercised here.

`crosscheck` evaluates a datum's Duistermaat-Heckman density pointwise from
its multiset of linear forms, never expanded: the exponential of a sum of
logarithms, each form divided by its maximum on the segment, so every value
lies in [0, 1] at any n.  It compares the quadrature barycenter and Ricci
bound against the exact engine values, at every n up to the exact ceiling.

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
    "QuadratureResult",
    "crosscheck",
    "dh_density_evaluator",
    "quad",
]

#: crosscheck's relative tolerance on tbar and R against the exact values.
CROSSCHECK_REL_TOL = 1e-9


class EvaluationFailureError(ArithmeticError):
    """The integrand returned a non-finite value."""


@dataclass(frozen=True)
class QuadratureResult:
    estimate: float
    #: L of the rule's 2^L + 1 nodes.
    refinement_levels: int


def quad(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, degree: int) -> QuadratureResult:
    """Clenshaw-Curtis integral of f over [lo, hi], exact for polynomials of `degree`.

    f must map a numpy array of points to the array of values; it is called
    once, at the 2^L + 1 Chebyshev points of the least L >= 1 with
    2^L > degree.  The endpoints are nodes, set exactly to lo and hi.  The
    Chebyshev coefficients of the interpolant come from one real FFT of the
    even extension of the values, and the estimate is their exact integral.
    """
    if not lo < hi:
        raise ValueError(f"quad requires lo < hi, got [{lo}, {hi}]")
    if isinstance(degree, bool) or not isinstance(degree, int) or degree < 0:
        raise ValueError(f"degree must be a nonnegative int, got {degree!r}")
    import numpy as np

    levels = max(1, degree.bit_length())
    n = 1 << levels
    half = 0.5 * (hi - lo)
    ts = lo + half * (1.0 + np.cos(np.pi * np.arange(n + 1) / n))
    ts[0], ts[n] = hi, lo
    vals = np.asarray(f(ts), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise EvaluationFailureError("integrand returned a non-finite value")
    coeffs = np.fft.rfft(np.concatenate([vals, vals[n - 1 : 0 : -1]])).real / n
    coeffs[[0, n]] /= 2.0
    # The integral of T_j over [-1, 1] is 2/(1 - j^2) for even j, 0 for odd j.
    even = np.arange(0, n + 1, 2)
    return QuadratureResult(half * float(coeffs[::2] @ (2.0 / (1.0 - even * even))), levels)


def dh_density_evaluator(rs: RootSystem, seg: MomentSegment) -> tuple[Callable[[np.ndarray], np.ndarray], int]:
    """Vectorized evaluator for the density on a segment, scaled into [0, 1], plus its degree.

    The roots are grouped into distinct linear forms u*(a+t) + v*(b-t), and
    each form is divided by its maximum (a+b)*max(u, v) on the segment before
    its logarithm is weighted by its multiplicity.  The constant factor this
    drops cancels in tbar and R, and no value can leave double range.  The
    degree returned is the sum of the multiplicities, |Phi_Pu|: a bound, as a
    form with u == v is constant in t.
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

    return density, sum(marked.values())


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

    The density and its first moment are integrated by `quad` at their
    degrees, and the tbar and R they give must match the engine's within
    CROSSCHECK_REL_TOL.  The density comes from the root table that
    `engine.resolve` builds, the one table of a cross-check; `engine.report`
    walks Phi_Pu without a table, so the two stay independent.  The only
    bound on n is the exact ceiling, through the InvalidDatumError of
    `engine.resolve`.
    """
    rs, _, _ = engine.resolve(datum)
    exact = engine.report(datum)
    density, degree = dh_density_evaluator(rs, exact.segment)
    a, b = float(exact.segment.a), float(exact.segment.b)
    volume = quad(density, -a, b, degree)
    first = quad(lambda ts: ts * density(ts), -a, b, degree + 1)
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

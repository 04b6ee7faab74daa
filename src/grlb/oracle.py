"""Floating-point verification oracle for the exact pipeline.

`quad` is a Clenshaw-Curtis rule: one evaluation of a vectorized integrand
at 2^L + 1 Chebyshev points, exact for polynomials of degree up to 2^L, with
its weights taken by one FFT.  The density integrated here is a polynomial
whose degree the oracle counts from its own linear forms, so the rule needs
no refinement loop or tolerance, and none of the exact antiderivative code is
exercised here.

The oracle builds no root table and reads no root data from `engine` or
`rootsystems`.  `marked_forms` takes Phi_Pu in the epsilon basis of
Bourbaki's plates (II, III, VIII, IX): B_n and C_n have the positive roots
L_p - L_q and L_p + L_q (p < q), then L_p (B_n) or 2 L_p (C_n), and
omega_m = L_1 + ... + L_m, except omega_n = (L_1 + ... + L_n)/2 in B_n; F4
and G2 have their 24 and 6 positive roots.  A root alpha contributes the
form u (a+t) + v (b-t), u = (alpha, omega_i) and v = (alpha, omega_j), and it
lies in Phi_Pu when u or v is nonzero.  The (p, q) pairs are vectorized with
`numpy.triu_indices`, and the forms grouped by `numpy.unique` of u + iv.  The
segment comes from 2 rho_P = sum of Phi_Pu in the same basis,
a = 2 (2 rho_P, alpha_i) / (alpha_i, alpha_i) and b likewise.  Every
coordinate there is a multiple of 1/2, so these floats are exact.

`crosscheck` maps each family to its group and oriented marked pair
itself, and takes from `engine.report` only the values it checks: the
segment endpoints, tbar and R.  It evaluates the density once, pointwise
from its forms, never expanded: the exponential of the log of every form at
every node, one (nodes x forms) matrix times the multiplicities, each form
divided by its maximum on the segment, so every value lies in [0, 1] at any
n.  Both moments come from those values.  It passes when its segment equals
the engine's exactly and its barycenter and Ricci bound match the engine's,
at every n up to the exact ceiling, so an engine that flips a marked pair
fails it.  Its report stores the numbers only, and `ok` is read off them.
On a 2-CPU host `crosscheck(X1(400))` takes about 0.08 s.

numpy is imported inside the functions that use it, so importing this module
(and the CLI, through `suites`) does not load it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import engine
from .engine import HorosphericalDatum

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CrosscheckReport",
    "EvaluationFailureError",
    "MarkedForms",
    "QuadratureResult",
    "crosscheck",
    "dh_density_evaluator",
    "marked_forms",
    "quad",
]

#: crosscheck's relative tolerance on tbar and R against the exact values.
CROSSCHECK_REL_TOL = 1e-9


class EvaluationFailureError(ArithmeticError):
    """The integrand returned a non-finite value."""


@dataclass(frozen=True)
class QuadratureResult:
    #: The integral, or one integral per row when f returns rows of values.
    estimate: float | np.ndarray
    #: L of the rule's 2^L + 1 nodes.
    refinement_levels: int


def quad(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, degree: int) -> QuadratureResult:
    """Clenshaw-Curtis integral of f over [lo, hi], exact for polynomials of `degree`.

    f must map a numpy array of points to the array of values, or to a stack
    of such arrays, one row per integrand; it is called once, at the
    2^L + 1 Chebyshev points of the least L >= 1 with 2^L > degree.  The
    endpoints are nodes, set exactly to lo and hi.  The Chebyshev
    coefficients of each interpolant come from one real FFT of the even
    extension of its values, and its estimate is their exact integral.
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
    coeffs = np.fft.rfft(np.concatenate([vals, vals[..., n - 1 : 0 : -1]], axis=-1)).real / n
    coeffs[..., [0, n]] /= 2.0
    # The integral of T_j over [-1, 1] is 2/(1 - j^2) for even j, 0 for odd j.
    even = np.arange(0, n + 1, 2)
    return QuadratureResult(half * (coeffs[..., ::2] @ (2.0 / (1.0 - even * even))), levels)


#: Bourbaki's Plates VIII (F4, in R^4) and IX (G2, in the plane x1+x2+x3 = 0
#: of R^3), in the epsilon basis: the simple roots and fundamental weights in
#: index order, and G2's positive roots.  F4's are generated in `_positive_roots`.
_F4_SIMPLE = ((0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 0, 1), (0.5, -0.5, -0.5, -0.5))
_F4_WEIGHTS = ((1, 1, 0, 0), (2, 1, 1, 0), (1.5, 0.5, 0.5, 0.5), (1, 0, 0, 0))
_G2_SIMPLE = ((1, -1, 0), (-2, 1, 1))
_G2_WEIGHTS = ((0, -1, 1), (-1, -1, 2))
_G2_POSITIVE = ((1, -1, 0), (-2, 1, 1), (-1, 0, 1), (0, -1, 1), (1, -2, 1), (-1, -1, 2))


def _root_system(datum: HorosphericalDatum) -> tuple[str, int, int, int]:
    """(type_label, rank, i, j): the datum's group and marked pair, i the index that grows with t."""
    f, n, k = datum.family, datum.n, datum.k
    if f == "X1":
        return "B", n, n - 1, n
    if f == "X3":
        return "C", n, k - 1, k
    return {"X2": ("B", 3, 1, 3), "X4": ("F4", 4, 2, 3), "X5": ("G2", 2, 1, 2)}[f]


def _positive_roots(type_label: str, rank: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(idx, coef, dim): root r is sum_c coef[r, c] L_{idx[r, c]} in R^dim.

    B_n and C_n store each root by its two epsilon coordinates, so the arrays
    hold O(n^2) numbers; F4 and G2 store their roots dense.
    """
    import numpy as np

    if type_label in ("B", "C"):
        p, q = np.triu_indices(rank, 1)
        diag = np.arange(rank)
        idx = np.stack([np.concatenate([p, p, diag]), np.concatenate([q, q, diag])], axis=1)
        # L_p - L_q, L_p + L_q, then L_p (B_n) or 2 L_p (C_n).
        kinds = [[1.0, -1.0], [1.0, 1.0], [1.0 if type_label == "B" else 2.0, 0.0]]
        return idx, np.repeat(kinds, [len(p), len(p), rank], axis=0), rank
    if type_label == "F4":
        eye = np.eye(4)
        p, q = np.triu_indices(4, 1)
        halves = [(0.5, *signs) for signs in itertools.product((0.5, -0.5), repeat=3)]
        dense = np.concatenate([eye, eye[p] - eye[q], eye[p] + eye[q], halves])
    else:
        dense = np.array(_G2_POSITIVE, dtype=float)
    dim = dense.shape[1]
    return np.broadcast_to(np.arange(dim), dense.shape), dense, dim


def _simple_and_weight(type_label: str, rank: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """alpha_m and omega_m in the epsilon basis."""
    import numpy as np

    if type_label == "F4":
        return np.array(_F4_SIMPLE[m - 1], dtype=float), np.array(_F4_WEIGHTS[m - 1], dtype=float)
    if type_label == "G2":
        return np.array(_G2_SIMPLE[m - 1], dtype=float), np.array(_G2_WEIGHTS[m - 1], dtype=float)
    alpha, omega = np.zeros(rank), np.zeros(rank)
    omega[:m] = 0.5 if type_label == "B" and m == rank else 1.0
    if m < rank:
        alpha[m - 1 : m + 1] = 1.0, -1.0
    else:
        alpha[m - 1] = 1.0 if type_label == "B" else 2.0
    return alpha, omega


class MarkedForms(NamedTuple):
    """Phi_Pu of a marked pair (i, j) as distinct linear forms, with its segment.

    The density is the product over the forms of (u*(a+t) + v*(b-t))^mult on
    [-a, b]; 2 rho_P = a omega_i + b omega_j.
    """

    u: np.ndarray
    v: np.ndarray
    mult: np.ndarray
    a: float
    b: float


def marked_forms(type_label: str, rank: int, i: int, j: int) -> MarkedForms:
    """Phi_Pu's forms and segment for the marked simple roots i and j, in the epsilon basis.

    See the module docstring.  u = (alpha, omega_i) is the engine's c_i d_i
    for B_n, C_n and F4, and twice it for G2, whose plate scales the inner
    product by 2; a common factor of the forms cancels in tbar and R.
    """
    import numpy as np

    idx, coef, dim = _positive_roots(type_label, rank)
    alpha_i, omega_i = _simple_and_weight(type_label, rank, i)
    alpha_j, omega_j = _simple_and_weight(type_label, rank, j)
    u = (coef * omega_i[idx]).sum(axis=1)
    v = (coef * omega_j[idx]).sum(axis=1)
    keep = (u != 0) | (v != 0)
    two_rho = np.bincount(idx[keep].ravel(), weights=coef[keep].ravel(), minlength=dim)
    keys, mult = np.unique(u[keep] + 1j * v[keep], return_counts=True)
    return MarkedForms(
        u=keys.real,
        v=keys.imag,
        mult=mult,
        a=float(2 * (two_rho @ alpha_i) / (alpha_i @ alpha_i)),
        b=float(2 * (two_rho @ alpha_j) / (alpha_j @ alpha_j)),
    )


def dh_density_evaluator(forms: MarkedForms) -> tuple[Callable[[np.ndarray], np.ndarray], int]:
    """Vectorized evaluator for the density on its segment, scaled into [0, 1], plus its degree.

    Each form u*(a+t) + v*(b-t) is divided by its maximum (a+b)*max(u, v) on
    the segment before its logarithm is weighted by its multiplicity.  The
    constant factor this drops cancels in tbar and R, and no value can leave
    double range.  The degree returned is the sum of the multiplicities,
    |Phi_Pu|: a bound, as a form with u == v is constant in t.
    """
    import numpy as np

    a, b = forms.a, forms.b
    top = (a + b) * np.maximum(forms.u, forms.v)
    u, v = forms.u / top, forms.v / top

    def density(ts: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            logs = np.log(np.multiply.outer(a + ts, u) + np.multiply.outer(b - ts, v))
        return np.exp(logs @ forms.mult)

    return density, int(forms.mult.sum())


@dataclass(frozen=True)
class CrosscheckReport:
    """The oracle's own tbar and R, their relative errors against the engine's, and both segments."""

    t_bar_quad: float
    r_quad: float
    t_bar_rel_err: float
    r_rel_err: float
    #: (a, b) of the engine's segment, and of the oracle's own.
    segment_exact: tuple[int, int]
    segment_oracle: tuple[float, float]

    @property
    def ok(self) -> bool:
        """The segments are equal and both errors are at most CROSSCHECK_REL_TOL."""
        errors_ok = self.t_bar_rel_err <= CROSSCHECK_REL_TOL and self.r_rel_err <= CROSSCHECK_REL_TOL
        return self.segment_oracle == self.segment_exact and errors_ok


def crosscheck(datum: HorosphericalDatum) -> CrosscheckReport:
    """Quadrature recomputation of the segment, tbar and R versus the exact engine values.

    The group and marked pair come from `_root_system`, not from the engine,
    whose report gives only the segment endpoints, tbar and R checked here.
    The density and t times it are integrated by one `quad` call, at one
    more than the density's degree, a rule that is exact for both.  The
    check passes when the oracle's segment equals the engine's and the tbar
    and R it gives match the engine's within CROSSCHECK_REL_TOL.  The only
    bound on n is the exact ceiling, through the InvalidDatumError that
    `engine.report` raises first.
    """
    import numpy as np

    exact = engine.report(datum)
    forms = marked_forms(*_root_system(datum))
    density, degree = dh_density_evaluator(forms)
    a, b = forms.a, forms.b

    def moments(ts: np.ndarray) -> np.ndarray:
        values = density(ts)
        return np.stack((values, ts * values))

    volume, first = quad(moments, -a, b, degree + 1).estimate
    t_bar_quad = float(first / volume)
    if t_bar_quad > 0:
        r_quad = a / (a + t_bar_quad)
    elif t_bar_quad < 0:
        r_quad = b / (b - t_bar_quad)
    else:
        r_quad = 1.0

    t_bar_exact = float(exact.barycenter_t)
    r_exact = float(exact.R)
    return CrosscheckReport(
        t_bar_quad=t_bar_quad,
        r_quad=r_quad,
        t_bar_rel_err=abs(t_bar_quad - t_bar_exact) / (abs(t_bar_exact) or 1.0),
        r_rel_err=abs(r_quad - r_exact) / r_exact,
        segment_exact=(exact.segment.a, exact.segment.b),
        segment_oracle=(a, b),
    )

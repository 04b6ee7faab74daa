"""Floating-point verification oracle for the exact pipeline.

`quad` is a Clenshaw-Curtis rule: one evaluation of a vectorized integrand
at 2^L + 1 Chebyshev points, exact for polynomials of degree up to 2^L, with
its weights taken by one FFT.  The density integrated here is a polynomial
whose degree the oracle counts from its own linear forms, so the rule needs
no refinement loop or tolerance, and none of the exact antiderivative code is
exercised here.

The oracle builds no root table and reads no root data from `engine` or
`rootsystems`.  It takes Phi_Pu in the epsilon basis of Bourbaki's plates
(II, III, VIII, IX): B_n and C_n have the positive roots L_p - L_q and
L_p + L_q (p < q), then L_p (B_n) or 2 L_p (C_n), and omega_m = L_1 + ... +
L_m, except omega_n = (L_1 + ... + L_n)/2 in B_n; F4 and G2 have their 24
and 6 positive roots.  A root alpha contributes the form u (a+t) + v (b-t),
u = (alpha, omega_i) and v = (alpha, omega_j), and it lies in Phi_Pu when u
or v is nonzero.  The segment comes from 2 rho_P = sum of Phi_Pu in the same
basis, a = 2 (2 rho_P, alpha_i) / (alpha_i, alpha_i) and b likewise.  Every
coordinate there is a multiple of 1/2, so these floats are exact.

`estimates` works per root system: it builds the roots once, pairs them
with omega_i, omega_j, alpha_i and alpha_j of every marked pair in one
product, and groups each datum's forms by one `numpy.unique` over (datum,
u, v) keys; the same arrays give the segments.  In x = (2t - b + a)/(a+b),
a form divided by its maximum (a+b) max(u, v) on the segment is
(u (1+x) + v (1-x)) / (2 max(u, v)), so every density lies in [0, 1] on
[-1, 1] at any n.  The rows of forms, padded to one width with forms of
multiplicity 0, are integrated by one `quad` per block of rows that share a
node count: the exponential of one (rows x nodes x forms) log array times
the multiplicities, less each row's largest log value at the nodes.  So
every row peaks at 1.0 there and none underflows, past n ~ 650 either; the
shift cancels in tbar and R.  Each block, and each chunk of pairs times
roots, holds at most `_ENTRY_BUDGET` entries, but one marked pair's gather
of its roots and one row's node axis are never split, so memory still
grows with n: `crosscheck(X1(1600))` peaks at about 405 MB.
A row with a non-finite value fails only its own datum's check.

`crosscheck` maps each family to its group and oriented marked pair
itself, and takes from `engine.report` only the values it checks: the
segment endpoints, tbar and R.  It passes when its segment equals the
engine's exactly and its barycenter and Ricci bound match the engine's, at
every n up to the exact ceiling, so an engine that flips a marked pair
fails it.  Its report stores the numbers only, and `ok` is read off them.
On a 2-CPU host `crosscheck(X1(400))` takes about 0.08 s.

numpy is imported inside the functions that use it, so importing this module
does not load it; the CLI imports this module only for `verify`.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from . import engine
from .engine import HorosphericalDatum

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CrosscheckReport",
    "Estimate",
    "EvaluationFailureError",
    "QuadratureResult",
    "crosscheck",
    "estimates",
    "quad",
]

#: crosscheck's relative tolerance on tbar and R against the exact values.
CROSSCHECK_REL_TOL = 1e-9

#: Entries of the largest array the oracle builds: a chunk of one system's
#: marked pairs times its roots, or a block of rows times nodes times forms.
_ENTRY_BUDGET = 1 << 14


class EvaluationFailureError(ArithmeticError):
    """The integrand returned a non-finite value, or the density a zero volume."""


class QuadratureResult(NamedTuple):
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
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"quad requires finite lo < hi, got [{lo}, {hi}]")
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
#: index order, and G2's positive roots.  F4's are generated in `_plate`.
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


def _plate(type_label: str, rank: int) -> tuple[np.ndarray, ...]:
    """(idx, coef, omega, alpha): one root system's plate in the epsilon basis.

    Root r is sum_c coef[r, c] L_{idx[r, c]}, and row m - 1 of omega and
    alpha is omega_m and alpha_m.  B_n and C_n store each root by its two
    epsilon coordinates, so the arrays hold O(n^2) numbers; F4 and G2 store
    their roots dense.
    """
    import numpy as np

    if type_label in ("B", "C"):
        p, q = np.triu_indices(rank, 1)
        diag = np.arange(rank)
        idx = np.stack([np.concatenate([p, p, diag]), np.concatenate([q, q, diag])], axis=1)
        omega, alpha = np.tri(rank), np.eye(rank) - np.eye(rank, k=1)
        # L_p - L_q, L_p + L_q, then L_p and omega_n / 2 (B_n) or 2 L_p and alpha_n = 2 L_n (C_n).
        if type_label == "B":
            last = 1.0
            omega[-1] /= 2
        else:
            last = alpha[-1, -1] = 2.0
        coef = np.repeat([[1.0, -1.0], [1.0, 1.0], [last, 0.0]], [len(p), len(p), rank], axis=0)
        return idx, coef, omega, alpha
    if type_label == "F4":
        eye = np.eye(4)
        p, q = np.triu_indices(4, 1)
        halves = [(0.5, *signs) for signs in itertools.product((0.5, -0.5), repeat=3)]
        dense = np.concatenate([eye, eye[p] - eye[q], eye[p] + eye[q], halves])
        omega, alpha = np.array(_F4_WEIGHTS, dtype=float), np.array(_F4_SIMPLE, dtype=float)
    else:
        dense = np.array(_G2_POSITIVE, dtype=float)
        omega, alpha = np.array(_G2_WEIGHTS, dtype=float), np.array(_G2_SIMPLE, dtype=float)
    return np.broadcast_to(np.arange(dense.shape[1]), dense.shape), dense, omega, alpha


def _forms(type_label: str, rank: int, members: np.ndarray) -> tuple[np.ndarray, ...]:
    """Phi_Pu's distinct forms and the segment of each marked pair of one system.

    members holds one row (datum, i, j) per pair.  Returns the arrays
    (datum, slot, u, v, mult) of the forms, slot numbering a datum's forms
    from 0, then (datum, a, b) of the pairs.  u = (alpha, omega_i) is the
    engine's c_i d_i for B_n, C_n and F4, and twice it for G2, whose plate
    scales the inner product by 2; a common factor cancels in tbar and R.
    """
    import numpy as np

    idx, coef, omega, alpha = _plate(type_label, rank)
    chunks, step = [], max(1, _ENTRY_BUDGET // (4 * idx.size))
    for start in range(0, len(members), step):
        datum, i, j = members[start : start + step].T
        vectors = np.concatenate((omega[i - 1], omega[j - 1], alpha[i - 1], alpha[j - 1]))
        u, v, on_i, on_j = np.einsum("rc,krc->kr", coef, vectors[:, idx]).reshape(4, len(datum), -1)
        keep = (u != 0) | (v != 0)
        a = 2 * (on_i * keep).sum(axis=1) / (alpha[i - 1] ** 2).sum(axis=1)
        b = 2 * (on_j * keep).sum(axis=1) / (alpha[j - 1] ** 2).sum(axis=1)
        # Every u and v is a multiple of 1/2, so 2u and 2v are small integers.
        row, u, v = np.nonzero(keep)[0], u[keep], v[keep]
        base = 2 * max(u.max(), v.max()) + 1
        _, first, mult = np.unique((row * base + 2 * u) * base + 2 * v, return_index=True, return_counts=True)
        row = row[first]
        slot = np.arange(len(row)) - np.searchsorted(row, row)
        chunks.append((datum[row], slot, u[first], v[first], mult, datum, a, b))
    return tuple(map(np.concatenate, zip(*chunks)))


def _density(u: np.ndarray, v: np.ndarray, mult: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """(rows x nodes): each row's density at xs in [-1, 1], divided by its largest value there.

    Row r is the product of the forms (u (1+x) + v (1-x)) / (2 max(u, v))
    to the powers mult over its columns; a column with u == v == 1 and
    mult 0 is padding.  Its degree is at most the row's sum of mult.  Each
    row is then divided by its largest value at xs, which becomes 1.0, so
    no row underflows to zero at any n; the factor cancels in tbar and R.
    A row that is zero at every x stays zero.
    """
    import numpy as np

    # Scaling each form as well as the row keeps the logs small: without it
    # the oracle suite's worst error at --max-n 100 rose from 3e-13 to 1.3e-12.
    top = 2 * np.maximum(u, v)
    # u (1+x) + v (1-x) as (u+v) + (u-v) x: one (rows x nodes x forms) array.
    forms = ((u - v) / top)[:, None] * xs[:, None]
    forms += ((u + v) / top)[:, None]
    with np.errstate(divide="ignore"):
        logs = np.log(forms, out=forms)
    logs = (logs @ mult[:, :, None])[..., 0]
    peak = logs.max(axis=1, keepdims=True)
    logs -= np.where(np.isfinite(peak), peak, 0.0)
    return np.exp(logs)


class Estimate(NamedTuple):
    """A datum's segment [-a, b], and its density's volume and first moment in t, up to one factor."""

    a: float
    b: float
    volume: float
    first: float


def estimates(data: Sequence[HorosphericalDatum]) -> list[Estimate]:
    """One `Estimate` per datum, in order: one root build per root system, one `quad` per block.

    See the module docstring; a row with a non-finite value gets NaN moments.
    """
    if not data:
        return []
    import numpy as np

    systems: dict[tuple[str, int], list[tuple[int, int, int]]] = {}
    for position, datum in enumerate(data):
        type_label, rank, i, j = _root_system(datum)
        systems.setdefault((type_label, rank), []).append((position, i, j))
    parts = [_forms(*system, np.array(members)) for system, members in systems.items()]
    owner, slot, u, v, mult, position, a, b = map(np.concatenate, zip(*parts))
    segment = np.empty((2, len(data)))
    segment[:, position] = a, b
    centre, half = (segment[1] - segment[0]) / 2, segment.sum(axis=0) / 2
    width = slot.max() + 1
    rows_u, rows_v = np.ones((2, len(data), width))
    rows_mult = np.zeros((len(data), width))
    rows_u[owner, slot], rows_v[owner, slot], rows_mult[owner, slot] = u, v, mult
    degree = rows_mult.sum(axis=1) + 1
    levels = np.frexp(degree)[1]  # quad's L: the bit length of the degree
    moments = np.empty((len(data), 2))
    for level in sorted(set(levels.tolist())):
        rows = np.flatnonzero(levels == level)
        step = max(1, _ENTRY_BUDGET // (((1 << level) + 1) * width))
        for start in range(0, len(rows), step):
            block = rows[start : start + step]
            bad = np.zeros(len(block), dtype=bool)

            def integrand(xs: np.ndarray) -> np.ndarray:
                values = _density(rows_u[block], rows_v[block], rows_mult[block], xs)
                bad[:] = ~np.isfinite(values).all(axis=1)
                values[bad] = 0.0
                ts = centre[block, None] + half[block, None] * xs
                return np.stack((values, ts * values), axis=1)

            moments[block] = quad(integrand, -1.0, 1.0, int(degree[block].max())).estimate
            moments[block[bad]] = np.nan
    return [Estimate(*row) for row in np.column_stack((*segment, moments)).tolist()]


class CrosscheckReport(NamedTuple):
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


def crosscheck(datum: HorosphericalDatum, estimate: Estimate | None = None) -> CrosscheckReport:
    """Quadrature recomputation of the segment, tbar and R versus the exact engine values.

    The group and marked pair come from `_root_system`, not from the engine,
    whose report gives only the segment endpoints, tbar and R checked here.
    `estimate` is the datum's row of `estimates`, as the oracle suite passes
    it; by default it is computed for this datum alone.  The check passes
    when the oracle's segment equals the engine's and the tbar and R it
    gives match the engine's within CROSSCHECK_REL_TOL.  The only bound on n
    is the exact ceiling, through the InvalidDatumError that `engine.report`
    raises first.  A non-finite moment or a zero volume raises
    EvaluationFailureError.
    """
    exact = engine.report(datum)
    a, b, volume, first = estimates([datum])[0] if estimate is None else estimate
    if not (math.isfinite(volume) and math.isfinite(first)):
        raise EvaluationFailureError("integrand returned a non-finite value")
    if volume == 0:
        raise EvaluationFailureError("the density integrated to a zero volume")
    t_bar_quad = first / volume
    r_quad = a / (a + t_bar_quad) if t_bar_quad >= 0 else b / (b - t_bar_quad)

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

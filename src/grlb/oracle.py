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

`estimates` makes one pass per root family: B for X1 and X2, C for X3, and
the one-rank F4 and G2.  It sorts the family's marked pairs by rank and cuts
them into chunks.  A chunk generates the epsilon-roots block by block, in the
order of their larger index q, so that the roots of B_r and C_r are a prefix
of one list and a root past a pair's own rank is masked out for it.  Each
block is paired with omega_i, omega_j, alpha_i and alpha_j of every pair at
its own rank, and each datum's forms are counted by one `numpy.bincount`
over fixed (datum, 2u, 2v) keys, summed over the blocks with the segments.
In x = (2t - b + a)/(a+b), a form divided by its maximum (a+b) max(u, v) on
the segment is (u (1+x) + v (1-x)) / (2 max(u, v)), so every density lies
in [0, 1] on [-1, 1] at any n.  A form with u == v is constant there, so
`estimates` gives it multiplicity 0, and each row's rule is sized by its
non-constant forms: their multiplicities sum to the density's own degree,
2n - 1 for X3(n, k) and n(n+1)/2 for X1(n), not |Phi_Pu|.  The rows of
forms, padded to one width with forms of multiplicity 0, are integrated by
one `quad` per block of rows that share a node count: the exponential of
one (rows x nodes x forms) log array times the multiplicities, less each
row's largest log value at the nodes.  So every row peaks at 1.0 there and
none underflows, past n ~ 650 either; the shift cancels in tbar and R.
Every array of the forms pass, each block of rows, and each slice of rows
that `quad` transforms at once holds at most `_ENTRY_BUDGET` entries, but
one row's node axis is never split, so memory still grows with the
density's degree: `crosscheck(X3(1600, 800))` peaks at about 30 MB, but
`crosscheck(X1(1600))` at about 230 MB, nearly all of it in the quadrature.
A row with a non-finite value fails only its own datum's check.

`crosscheck` maps each family to its group and oriented marked pair
itself, and takes from `engine.report` only the values it checks: the
segment endpoints, tbar and R.  It passes when its segment equals the
engine's exactly and its barycenter and Ricci bound match the engine's, at
every n up to the exact ceiling, so an engine that flips a marked pair
fails it.  Its report stores the numbers only, and `ok` is read off them.
On a 2-CPU host `crosscheck(X1(400))` takes about 0.15 s.

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

#: Entries of the largest array the oracle builds: a chunk of one family's
#: marked pairs times a block of its roots, a block of rows times nodes times
#: forms, or the rows of one FFT; one row of nodes is never split.
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
    # One real FFT per slice of rows within the budget: an rfft of many long
    # rows at once holds several copies of all of them.
    rows = vals.reshape(-1, n + 1)
    coeffs = np.empty_like(rows)
    step = max(1, _ENTRY_BUDGET // (2 * n))
    for start in range(0, len(rows), step):
        block = rows[start : start + step]
        coeffs[start : start + step] = np.fft.rfft(np.concatenate([block, block[:, n - 1 : 0 : -1]], axis=1)).real
    coeffs = coeffs.reshape(vals.shape)
    coeffs /= n
    coeffs[..., [0, n]] /= 2.0
    # The integral of T_j over [-1, 1] is 2/(1 - j^2) for even j, 0 for odd j.
    even = np.arange(0, n + 1, 2)
    return QuadratureResult(half * (coeffs[..., ::2] @ (2.0 / (1.0 - even * even))), levels)


#: Bourbaki's Plates VIII (F4, in R^4) and IX (G2, in the plane x1+x2+x3 = 0
#: of R^3), in the epsilon basis: the simple roots and fundamental weights in
#: index order, and G2's positive roots.  F4's are generated in `_roots`.
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


def _root_shape(type_label: str, rank):
    """(positive roots, epsilon coordinates) of the family's system of this rank, an int or an array."""
    if type_label in ("B", "C"):
        return rank * rank, rank
    return {"F4": (24, 4), "G2": (6, 3)}[type_label]


def _roots(type_label: str, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """(idx, coef): roots start..stop-1 of the family's list, root r being sum_c coef[r, c] L_{idx[r, c]}.

    B and C list their epsilon-roots block by block in the larger index q
    (from 0): L_p - L_q and L_p + L_q for p < q, then L_q (B) or 2 L_q (C).
    Block q holds 2q + 1 roots, so roots 0..r^2-1 are those of B_r or C_r,
    and a slice of the list is generated without the roots before it.  F4 and
    G2 list their 24 and 6 positive roots dense.
    """
    import numpy as np

    if type_label in ("B", "C"):
        k = np.arange(start, stop)
        q = np.sqrt(k).astype(np.intp)  # floor(sqrt(k)), exact for k < 2^52
        offset = k - q * q  # L_p - L_q at p = offset < q, L_p + L_q at p = offset - q, then L_q
        minus, last = offset < q, offset == 2 * q
        idx = np.stack((np.where(minus, offset, offset - q), q), axis=1)
        coef = np.stack((np.where(last, 1.0 if type_label == "B" else 2.0, 1.0), np.where(minus, -1.0, 1.0 - last)), axis=1)
        return idx, coef
    if type_label == "F4":
        eye = np.eye(4)
        p, q = np.triu_indices(4, 1)
        halves = [(0.5, *signs) for signs in itertools.product((0.5, -0.5), repeat=3)]
        dense = np.concatenate([eye, eye[p] - eye[q], eye[p] + eye[q], halves])
    else:
        dense = np.array(_G2_POSITIVE, dtype=float)
    dense = dense[start:stop]
    return np.broadcast_to(np.arange(dense.shape[1]), dense.shape), dense


def _weights(type_label: str, rank: np.ndarray, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(omega, alpha): rows omega_m and alpha_m, m = index[r], each of the system of rank rank[r].

    B_r and C_r have omega_m = L_1 + ... + L_m, halved for m = r in B_r, and
    alpha_m = L_m - L_{m+1}, but alpha_r = L_r (B_r) or 2 L_r (C_r); their
    rows are padded with zeros to the largest rank.  F4 and G2 take theirs
    from the plates.
    """
    import numpy as np

    if type_label == "F4":
        return np.array(_F4_WEIGHTS, dtype=float)[index - 1], np.array(_F4_SIMPLE, dtype=float)[index - 1]
    if type_label == "G2":
        return np.array(_G2_WEIGHTS, dtype=float)[index - 1], np.array(_G2_SIMPLE, dtype=float)[index - 1]
    coord, m = np.arange(rank.max()), index[:, None]
    last = (index == rank)[:, None]
    omega = (coord < m) * np.where(last & (type_label == "B"), 0.5, 1.0)
    alpha = (coord == m - 1) * np.where(last & (type_label == "C"), 2.0, 1.0) - ((coord == m) & ~last)
    return omega, alpha


def _forms(type_label: str, members: np.ndarray) -> tuple[np.ndarray, ...]:
    """Phi_Pu's distinct forms and the segment of each marked pair of one root family, in one pass.

    members holds one row (datum, rank, i, j) per pair, in any order.
    Returns the arrays (datum, slot, u, v, mult) of the forms, slot
    numbering a datum's forms from 0 in order of (u, v), then (datum, a, b)
    of the pairs.  u = (alpha, omega_i) is the engine's c_i d_i for B_n, C_n
    and F4, and twice it for G2, whose plate scales the inner product by 2;
    a common factor cancels in tbar and R.

    The pairs are sorted by rank and cut into chunks.  A chunk takes the
    family's roots in blocks up to its largest rank; a block skips the pairs
    whose roots all lie before it, and masks out a root past a pair's own
    rank.  Every array of the pass holds at most `_ENTRY_BUDGET` entries.
    """
    import numpy as np

    # u and v are at least 0, since omega_i and omega_j are dominant, and
    # multiples of 1/2 at most 2 in B_n and C_n, 3 in F4 and 6 in G2's
    # scale, so 2 u base + 2 v is one key per form, 0 for a root off Phi_Pu.
    base = {"F4": 7, "G2": 13}.get(type_label, 5)
    members = members[np.argsort(members[:, 1], kind="stable")]
    _, count, dim = np.broadcast_arrays(members[:, 1], *_root_shape(type_label, members[:, 1]))
    # A chunk's (key, alpha_i, alpha_j) rows and its counts fit the budget.
    entries = np.maximum(3 * dim, base * base).tolist()
    parts, start = [], 0
    while start < len(members):
        stop = start + 1
        while stop < len(members) and (stop + 1 - start) * entries[stop] <= _ENTRY_BUDGET:
            stop += 1
        datum, rank, i, j = members[start:stop].T
        limit = count[start:stop]
        start = stop
        omega, alpha = _weights(type_label, np.concatenate((rank, rank)), np.concatenate((i, j)))
        # Row 0 pairs to 2 u base + 2 v with a root, rows 1 and 2 to (root, alpha_i) and (root, alpha_j).
        m = len(datum)
        vectors = np.stack((2 * base * omega[:m] + 2 * omega[m:], alpha[:m], alpha[m:]))
        counts = np.zeros(m * base * base, dtype=np.intp)
        on = np.zeros((2, m))
        first = 0
        while first < limit[-1]:
            live = int(np.searchsorted(limit, first, side="right"))
            last = min(first + max(1, _ENTRY_BUDGET // (3 * (m - live))), int(limit[-1]))
            idx, coef = _roots(type_label, first, last)
            rows = vectors[:, live:]
            values = coef[:, 0] * rows[..., idx[:, 0]]
            for c in range(1, idx.shape[1]):
                values += coef[:, c] * rows[..., idx[:, c]]
            key, on_ij = values[0], values[1:]
            keep = key != 0
            if last > limit[live]:
                keep &= np.arange(first, last) < limit[live:, None]
            on[:, live:] += (on_ij * keep).sum(axis=-1)
            key += (np.arange(live, m) * base * base)[:, None]
            counts += np.bincount(key[keep].astype(np.intp), minlength=len(counts))
            first = last
        found = np.flatnonzero(counts)
        row, key = np.divmod(found, base * base)
        u, v = np.divmod(key, base)
        slot = np.arange(len(row)) - np.searchsorted(row, row)
        a, b = 2 * on / (vectors[1:] ** 2).sum(axis=-1)
        parts.append((datum[row], slot, u / 2, v / 2, counts[found], datum, a, b))
    return tuple(map(np.concatenate, zip(*parts)))


def _density(u: np.ndarray, v: np.ndarray, mult: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """(rows x nodes): each row's density at xs in [-1, 1], divided by its largest value there.

    Row r is the product of the forms (u (1+x) + v (1-x)) / (2 max(u, v))
    to the powers mult over its columns; a column with u == v is 1 at every
    x, and with u == v == 1 and mult 0 it is padding.  Its degree is at most
    the row's sum of mult over the columns with u != v.  Each
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
    """One `Estimate` per datum, in order: one forms pass per root family, one `quad` per block.

    See the module docstring; a row with a non-finite value gets NaN moments.
    The largest n of the data is checked against the exact ceiling first
    (`engine.check_ceiling`), before any array is built.
    """
    if not data:
        return []
    engine.check_ceiling(max((datum.n for datum in data if datum.n is not None), default=None))
    import numpy as np

    families: dict[str, list[tuple[int, int, int, int]]] = {}
    for position, datum in enumerate(data):
        type_label, *pair = _root_system(datum)
        families.setdefault(type_label, []).append((position, *pair))
    parts = [_forms(type_label, np.array(members)) for type_label, members in families.items()]
    owner, slot, u, v, mult, position, a, b = map(np.concatenate, zip(*parts))
    # A form with u == v is constant on the segment: it counts for no degree.
    mult = np.where(u == v, 0, mult)
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

"""Moment-segment pipeline for the five families of nonhomogeneous projective
horospherical manifolds of Picard number one.

Each manifold is encoded by a `HorosphericalDatum`: a family tag X1..X5 plus
the integer parameters the family takes.  The datum resolves to a root system
with two marked simple roots (i, j); the computation then proceeds entirely in
exact rational arithmetic:

    marked roots -> Phi_Pu (roots of the unipotent radical)
                 -> 2*rho_P = sum of Phi_Pu, supported on the marked indices
                 -> moment segment gamma(t) = (a+t) w_i + (b-t) w_j, t in [-a, b]
                 -> Duistermaat-Heckman density P(t) = prod of linear factors
                 -> barycenter parameter tbar = Int t P / Int P
                 -> greatest Ricci lower bound R from the position of tbar.

The density is never expanded to compute tbar.  Under sigma = (t+a)/(a+b) it
factors as a content times a few coprime integer forms (c0 + c1 sigma)^m, and
its moments are taken in the variable of the form of largest m, so only the
short product of the others is expanded.  `dh_polynomial_on` still returns
the dense polynomial in t over a given root system and segment, as a view for
callers that want it; no computation of R uses it.

Orientation convention: the marked index whose fundamental-weight coefficient
grows with t is *i*.  For X3 and X5 this is the second root of the defining
pair, so the segment parametrizations (and hence the sign of tbar) match the
closed-form derivations for every family.  R itself is orientation-free:
swapping (i, a) with (j, b) negates tbar and leaves R unchanged.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .exactnum import Polynomial, _int_mul, _linear_pow_int, poly_product
from .rootsystems import (
    RootSystem,
    RootVector,
    WeightExpr,
    build_root_system,
    coroot_pairing,
    weight_of_root_sum,
)

__all__ = [
    "DEFAULT_MAX_EXACT_N",
    "ComputationReport",
    "DegenerateMeasureError",
    "FAMILIES",
    "HorosphericalDatum",
    "InvalidDatumError",
    "MomentSegment",
    "barycenter_on",
    "barycenter_t",
    "dh_polynomial_on",
    "greatest_ricci_lower_bound",
    "max_exact_n",
    "moment_segment",
    "phi_pu",
    "report",
    "resolve",
    "ricci_bound",
    "two_rho_P",
]

FAMILIES = ("X1", "X2", "X3", "X4", "X5")

#: Families whose defining pair of marked roots is listed in the opposite
#: order to the segment orientation fixed above.
_FLIPPED_FAMILIES = frozenset({"X3", "X5"})

#: Default ceiling on the size parameter n for exact computation.  At the
#: ceiling one X1 report takes about 0.015 s and the closed-form R about
#: 0.007 s (Python 3.11, one core of a 2-CPU host); there is no floating-point
#: fallback.  Raising it waits for a committed benchmark trajectory (ROADMAP).
DEFAULT_MAX_EXACT_N = 100

_MAX_N_ENV = "GRLB_MAX_N"


class InvalidDatumError(ValueError):
    """Raised when family parameters violate the classification constraints."""


class DegenerateMeasureError(ArithmeticError):
    """Raised if a Duistermaat-Heckman density integrates to zero."""


def max_exact_n() -> int:
    """Ceiling on n for exact computation; GRLB_MAX_N overrides the default."""
    raw = os.environ.get(_MAX_N_ENV)
    if raw is None:
        return DEFAULT_MAX_EXACT_N
    try:
        value = int(raw)
    except ValueError:
        raise InvalidDatumError(f"{_MAX_N_ENV} must be an integer, got {raw!r}") from None
    if value < 2:
        raise InvalidDatumError(f"{_MAX_N_ENV} must be at least 2, got {value}")
    return value


@dataclass(frozen=True)
class HorosphericalDatum:
    """Family tag plus the integer parameters the family takes.

    X1(n) needs n >= 3, X3(n, k) needs n >= k >= 2, and X2, X4, X5 are
    parameter-free.  Violations raise InvalidDatumError at construction.
    """

    family: str
    n: int | None = None
    k: int | None = None

    def __post_init__(self) -> None:
        f = self.family
        if f not in FAMILIES:
            raise InvalidDatumError(
                f"unknown family {f!r}: the classification lists X1..X5"
            )
        if f == "X1":
            if self.n is None or self.n < 3:
                raise InvalidDatumError("family X1 requires n >= 3")
            if self.k is not None:
                raise InvalidDatumError("family X1 takes no parameter k")
        elif f == "X3":
            if self.n is None or self.k is None or not self.n >= self.k >= 2:
                raise InvalidDatumError("family X3 requires n >= k >= 2")
        else:
            if self.n is not None or self.k is not None:
                raise InvalidDatumError(f"family {f} takes no parameters")

    @property
    def params(self) -> dict[str, int]:
        out = {}
        if self.n is not None:
            out["n"] = self.n
        if self.k is not None:
            out["k"] = self.k
        return out

    def label(self) -> str:
        if self.family == "X1":
            return f"X1({self.n})"
        if self.family == "X3":
            return f"X3({self.n},{self.k})"
        return self.family


@dataclass(frozen=True)
class MomentSegment:
    """The anticanonical moment polytope as a parametrized line segment.

    Points are gamma(t) = (a+t) w_i + (b-t) w_j for t in [-a, b], where
    a and b are the coefficients of 2*rho_P on the marked indices i and j.
    """

    two_rho_P: WeightExpr
    i: int
    j: int
    a: Fraction
    b: Fraction

    def __post_init__(self) -> None:
        if not (self.a > 0 and self.b > 0):
            raise ValueError("segment endpoints must have positive coefficients")
        if self.two_rho_P.support != {self.i, self.j}:
            raise ValueError(
                "2*rho_P must be supported exactly on the marked indices "
                f"{{{self.i}, {self.j}}}, got {self.two_rho_P!r}"
            )

    def point_at(self, t: Fraction) -> WeightExpr:
        """gamma(t) in fundamental-weight coordinates."""
        return WeightExpr({self.i: self.a + t, self.j: self.b - t})


@dataclass(frozen=True)
class ComputationReport:
    """Every exact quantity the pipeline produces for one datum."""

    datum: HorosphericalDatum
    dimension: int
    segment: MomentSegment
    dh_degree: int
    volume: Fraction
    barycenter_t: Fraction
    barycenter_point: WeightExpr
    R: Fraction


def resolve(datum: HorosphericalDatum) -> tuple[RootSystem, int, int]:
    """Root system and marked simple roots (in classification order) for a datum."""
    n = datum.n
    if n is not None and n > max_exact_n():
        raise InvalidDatumError(
            f"n={n} exceeds the exact-computation ceiling {max_exact_n()} "
            f"(override with {_MAX_N_ENV})"
        )
    f = datum.family
    if f == "X1":
        return build_root_system("B", n), n - 1, n
    if f == "X2":
        return build_root_system("B", 3), 1, 3
    if f == "X3":
        return build_root_system("C", n), datum.k, datum.k - 1
    if f == "X4":
        return build_root_system("F4", 4), 2, 3
    return build_root_system("G2", 2), 2, 1


def phi_pu(rs: RootSystem, i: int, j: int) -> tuple[RootVector, ...]:
    """Positive roots with a nonzero coefficient on at least one marked index."""
    if i == j or not (1 <= i <= rs.rank and 1 <= j <= rs.rank):
        raise ValueError(f"marked indices must be distinct and in 1..{rs.rank}")
    return tuple(r for r in rs.positive_roots if r[i - 1] > 0 or r[j - 1] > 0)


def two_rho_P(rs: RootSystem, i: int, j: int) -> WeightExpr:
    """Sum of the roots of the unipotent radical, in fundamental-weight coordinates."""
    return weight_of_root_sum(rs, phi_pu(rs, i, j))


def _oriented(datum: HorosphericalDatum, p: int, q: int) -> tuple[int, int]:
    """Marked indices (i, j) in segment orientation (see module docstring)."""
    return (q, p) if datum.family in _FLIPPED_FAMILIES else (p, q)


def _segment(rs: RootSystem, i: int, j: int, roots: tuple[RootVector, ...]) -> MomentSegment:
    w = weight_of_root_sum(rs, roots)
    return MomentSegment(two_rho_P=w, i=i, j=j, a=coroot_pairing(rs, i, w), b=coroot_pairing(rs, j, w))


def moment_segment(datum: HorosphericalDatum) -> MomentSegment:
    """Oriented moment segment for a datum (see module docstring for orientation)."""
    rs, p, q = resolve(datum)
    i, j = _oriented(datum, p, q)
    return _segment(rs, i, j, phi_pu(rs, i, j))


def _marked_weights(
    rs: RootSystem, seg: MomentSegment, roots: tuple[RootVector, ...]
) -> Counter[tuple[Fraction, Fraction]]:
    """Multiset of (u, v) over the roots: the root contributes u*(a+t) + v*(b-t).

    u and v are its coefficients on the marked simple roots i and j times
    their half squared lengths.
    """
    d_i = rs.half_lengths[seg.i - 1]
    d_j = rs.half_lengths[seg.j - 1]
    out: Counter[tuple[Fraction, Fraction]] = Counter()
    for (c_i, c_j), mult in Counter((r[seg.i - 1], r[seg.j - 1]) for r in roots).items():
        out[c_i * d_i, c_j * d_j] += mult
    return out


def dh_polynomial_on(rs: RootSystem, seg: MomentSegment) -> Polynomial:
    """Duistermaat-Heckman density restricted to a segment over a given root system.

    Each root of the unipotent radical contributes the linear factor
    c_i*d_i*(a+t) + c_j*d_j*(b-t) where (c_i, c_j) are its coefficients on
    the marked simple roots and d_m the half squared lengths.
    """
    factors = []
    for (u, v), mult in _marked_weights(rs, seg, phi_pu(rs, seg.i, seg.j)).items():
        factors += [Polynomial.linear(u * seg.a + v * seg.b, u - v)] * mult
    return poly_product(factors)


def _form_moments(forms: Counter[tuple[int, int]]) -> tuple[Fraction, Fraction]:
    """Integrals of P and sigma*P over [0, 1], P = prod (c0 + c1*sigma)^m over `forms`.

    The form of largest multiplicity m becomes the variable tau = c0 + c1*sigma;
    only the others are expanded, as c1*(d0 + d1*sigma) = (c1*d0 - c0*d1) + d1*tau.
    Each term is Int tau^e dtau = (hi^(e+1) - lo^(e+1))/(e+1) over [c0, c0 + c1],
    summed in integers over the lcm of the e+1, and dsigma = dtau/c1.
    """
    (c0, c1), m = max(forms.items(), key=lambda item: item[1], default=((0, 1), 0))
    q = [1]
    for (d0, d1), mult in forms.items():
        if (d0, d1) != (c0, c1):
            q = _int_mul(q, _linear_pow_int(c1 * d0 - c0 * d1, d1, mult))
    # w[j] = den * Int tau^(m+j) dtau, up to the degree of tau*Q(tau).
    exponents = range(m + 1, m + len(q) + 2)
    den = math.lcm(*exponents)
    lo_p, hi_p, w = c0**m, (c0 + c1) ** m, []
    for e in exponents:
        lo_p *= c0
        hi_p *= c0 + c1
        w.append((hi_p - lo_p) * (den // e))
    # sigma = (tau - c0)/c1, and the other forms contribute c1^-(their degree).
    num0 = sum(qj * w[j] for j, qj in enumerate(q))
    num1 = sum(qj * (w[j + 1] - c0 * w[j]) for j, qj in enumerate(q))
    scale = den * c1 ** (sum(forms.values()) - m + 1)
    return Fraction(num0, scale), Fraction(num1, scale * c1)


def _moments(
    rs: RootSystem, seg: MomentSegment, roots: tuple[RootVector, ...]
) -> tuple[int, Fraction, Fraction]:
    """(degree, volume, first moment) of the density over [-a, b].

    With sigma = (t+a)/(a+b) a root's factor u*(a+t) + v*(b-t) is
    (a+b)*(g/den)*(c0 + c1*sigma) for coprime integers c0, c1; dt = (a+b) dsigma.
    """
    content = Fraction(1)
    forms: Counter[tuple[int, int]] = Counter()
    for (u, v), mult in _marked_weights(rs, seg, roots).items():
        den = math.lcm(v.denominator, (u - v).denominator)
        c0, c1 = int(v * den), int((u - v) * den)
        g = math.gcd(c0, c1)
        content *= Fraction(g, den) ** mult
        if c1:
            forms[c0 // g, c1 // g] += mult
    i0, i1 = _form_moments(forms)
    scale = content * (seg.a + seg.b) ** (len(roots) + 1)
    volume = scale * i0
    if volume == 0:
        raise DegenerateMeasureError("Duistermaat-Heckman density has zero volume")
    # t = (a+b)*sigma - a
    first = (seg.a + seg.b) * scale * i1 - seg.a * volume
    return sum(forms.values()), volume, first


def barycenter_on(rs: RootSystem, seg: MomentSegment) -> Fraction:
    """Density-weighted mean parameter of the segment."""
    _, volume, first = _moments(rs, seg, phi_pu(rs, seg.i, seg.j))
    return first / volume


def barycenter_t(datum: HorosphericalDatum) -> Fraction:
    """Exact barycenter parameter tbar of the datum's moment segment."""
    return report(datum).barycenter_t


def ricci_bound(a: Fraction, b: Fraction, t_bar: Fraction) -> Fraction:
    """Greatest Ricci lower bound from segment data.

    The distinguished interior point sits at t=0 and the barycenter at t_bar;
    the bound is the ratio in which the ray from the barycenter through t=0
    meets the far endpoint.  t_bar == 0 is the continuous limit R = 1.
    """
    if t_bar > 0:
        return a / (a + t_bar)
    if t_bar < 0:
        return b / (b - t_bar)
    return Fraction(1)


def greatest_ricci_lower_bound(datum: HorosphericalDatum) -> Fraction:
    """Exact greatest Ricci lower bound R(X) for the datum."""
    return report(datum).R


def report(datum: HorosphericalDatum) -> ComputationReport:
    """Run the full pipeline once and collect every exact quantity."""
    rs, p, q = resolve(datum)
    i, j = _oriented(datum, p, q)
    roots = phi_pu(rs, i, j)
    seg = _segment(rs, i, j, roots)
    degree, volume, first = _moments(rs, seg, roots)
    t_bar = first / volume
    return ComputationReport(
        datum=datum,
        dimension=len(roots) + 1,
        segment=seg,
        dh_degree=degree,
        volume=volume,
        barycenter_t=t_bar,
        barycenter_point=seg.point_at(t_bar),
        R=ricci_bound(seg.a, seg.b, t_bar),
    )

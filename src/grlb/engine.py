"""Moment-segment pipeline for the five families of nonhomogeneous projective
horospherical manifolds of Picard number one.

Each manifold is encoded by a `HorosphericalDatum`: a family tag X1..X5 plus
the integer parameters the family takes.  The datum resolves to a root system
with two marked simple roots (i, j); the computation then proceeds entirely in
exact rational arithmetic:

    marked roots -> Phi_Pu (roots of the unipotent radical), as the multiset
                    of its marked coefficients (c_i, c_j)
                 -> 2*rho_P = sum of Phi_Pu, supported on the marked indices
                 -> moment segment gamma(t) = (a+t) w_i + (b-t) w_j, t in [-a, b]
                 -> Duistermaat-Heckman density P(t) = prod of linear factors
                 -> barycenter parameter tbar = Int t P / Int P
                 -> greatest Ricci lower bound R from the position of tbar.

`report` builds no root table: `rootsystems.unipotent_radical` walks Phi_Pu
in the orthonormal basis of B_n and C_n, in O(n^2) time and O(n) memory, and
reads the fixed tables of F4 and G2.  `resolve` still builds the table; only
the tests' reference module, tests/reference.py, reads it, to check the walk
against it, and perfbench traces the table functions by name.

The density is never expanded to compute tbar.  Under sigma = (t+a)/(a+b) it
is a positive constant, which cancels in tbar and is never formed, times a few
coprime integer forms (c0 + c1 sigma)^m, built in integers straight from the
walk's multiset of (c_i, c_j).  Its two moments are integers taken in the
variable tau of the form of largest m, and tbar is the one Fraction, built from
them.  Only the other forms are expanded, but for a form that vanishes at the
end of the segment where tau does not (X2, X5, every X3), kept as
(w - tau)^p.  Every family then takes one formula: each moment is a sum over
tau's two ends of Beta integrals, taken by binary splitting, up to a factor
that both moments share and tbar cancels.  `dh_polynomial_on`
returns the coefficients of the dense polynomial in t over a given root system
and segment, lowest degree first: it is the dense reference of
tests/reference.py, which perfbench traces by name, and no computation of R
uses it.  `resolve`, `phi_pu`, `dh_polynomial_on` and `moment_segment` serve
only that module, and are not in `__all__`.

Orientation convention: `resolve` returns the marked pair (i, j) with *i*
the index whose fundamental-weight coefficient grows with t.  For X3 and X5
this is the second root of the pair in classification order, so the segment
parametrizations (and hence the sign of tbar) match the closed-form
derivations for every family.  R itself is orientation-free: swapping (i, a)
with (j, b) negates tbar and leaves R unchanged.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from .exactnum import _int_mul, _linear_pow_int, poly_product
from .rootsystems import (
    RootSystem, RootVector, _check_marked, _root_data, build_root_system, unipotent_radical
)

__all__ = [
    "DEFAULT_MAX_EXACT_N",
    "ComputationReport",
    "DegenerateMeasureError",
    "FAMILIES",
    "HorosphericalDatum",
    "InvalidDatumError",
    "MomentSegment",
    "ceiling_error",
    "check_ceiling",
    "max_exact_n",
    "report",
    "ricci_bound",
]

FAMILIES = ("X1", "X2", "X3", "X4", "X5")

#: Default ceiling on the size parameter n for exact computation.  At the
#: ceiling one X1 report takes about 0.003 s and the closed-form R about
#: 0.0003 s (Python 3.11, one core of a 2-CPU host); there is no floating-point
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


def ceiling_error(n: int, ceiling: int) -> InvalidDatumError:
    """The error for a size parameter n past the exact-computation ceiling."""
    return InvalidDatumError(
        f"n={n} exceeds the exact-computation ceiling {ceiling} (override with {_MAX_N_ENV})"
    )


def check_ceiling(n: int | None) -> None:
    """Raise `ceiling_error` for a size parameter n past the exact-computation ceiling.

    The ceiling is read even when n is None, so a bad or too-low GRLB_MAX_N is
    an InvalidDatumError whether or not the family takes an n.
    """
    ceiling = max_exact_n()
    if n is not None and n > ceiling:
        raise ceiling_error(n, ceiling)


class _DatumFields(NamedTuple):
    family: str
    n: int | None
    k: int | None


class HorosphericalDatum(_DatumFields):
    """Family tag plus the integer parameters the family takes.

    X1(n) needs n >= 3, X3(n, k) needs n >= k >= 2, and X2, X4, X5 are
    parameter-free.  Violations, and an n or k that is not an int (a bool
    included), raise InvalidDatumError at construction, unpickling included.
    A NamedTuple: `_make` and `_replace` skip this validation.
    """

    __slots__ = ()

    def __new__(cls, family: str, n: int | None = None, k: int | None = None) -> HorosphericalDatum:
        self = super().__new__(cls, family, n, k)
        if family not in FAMILIES:
            raise InvalidDatumError(
                f"unknown family {family!r}: the classification lists X1..X5"
            )
        for name, value in self.params.items():
            if type(value) is not int:
                raise InvalidDatumError(f"{name} must be an integer, got {value!r}")
        if family == "X1":
            if n is None or n < 3:
                raise InvalidDatumError("family X1 requires n >= 3")
            if k is not None:
                raise InvalidDatumError("family X1 takes no parameter k")
        elif family == "X3":
            if n is None or k is None or not n >= k >= 2:
                raise InvalidDatumError("family X3 requires n >= k >= 2")
        elif n is not None or k is not None:
            raise InvalidDatumError(f"family {family} takes no parameters")
        return self

    @property
    def params(self) -> dict[str, int]:
        out = {}
        if self.n is not None:
            out["n"] = self.n
        if self.k is not None:
            out["k"] = self.k
        return out

    def label(self) -> str:
        """The family with its parameter values, as X1(5) or X3(7,4), or the bare family."""
        values = ",".join(map(str, self.params.values()))
        return f"{self.family}({values})" if values else self.family


class MomentSegment(NamedTuple):
    """The anticanonical moment polytope as a parametrized line segment.

    Points are gamma(t) = (a+t) w_i + (b-t) w_j for t in [-a, b], where
    2*rho_P = a w_i + b w_j on the marked indices i and j.
    """

    i: int
    j: int
    a: int
    b: int


class ComputationReport(NamedTuple):
    """Every exact quantity the pipeline produces for one datum, in `closedforms.closed_form`'s order."""

    dimension: int
    segment: MomentSegment
    barycenter_t: Fraction
    R: Fraction


def _marked_pair(datum: HorosphericalDatum) -> tuple[str, int, int, int]:
    """(type_label, rank, i, j): the datum's root system and oriented marked pair.

    i is the index whose coefficient grows with t (see module docstring).
    The ceiling is checked first, for every datum (`check_ceiling`).
    """
    n = datum.n
    check_ceiling(n)
    f = datum.family
    if f == "X1":
        return "B", n, n - 1, n
    if f == "X2":
        return "B", 3, 1, 3
    if f == "X3":
        return "C", n, datum.k - 1, datum.k
    if f == "X4":
        return "F4", 4, 2, 3
    return "G2", 2, 1, 2


def resolve(datum: HorosphericalDatum) -> tuple[RootSystem, int, int]:
    """Root table and oriented marked simple roots (i, j) for a datum.

    Neither `report` nor the oracle calls this; only tests/reference.py reads
    the table, and perfbench traces the table functions by name.
    """
    type_label, rank, i, j = _marked_pair(datum)
    return build_root_system(type_label, rank), i, j


def phi_pu(rs: RootSystem, i: int, j: int) -> tuple[RootVector, ...]:
    """Positive roots with a nonzero coefficient on at least one marked index."""
    _check_marked(rs.rank, i, j)
    return tuple(r for r in rs.positive_roots if r[i - 1] > 0 or r[j - 1] > 0)


def _segment(i: int, j: int, two_rho_p: dict[int, int]) -> MomentSegment:
    """The segment of 2*rho_P = a w_i + b w_j, given as fundamental-weight coefficients."""
    if two_rho_p.keys() != {i, j}:
        raise ValueError(
            f"2*rho_P must be supported exactly on the marked indices {{{i}, {j}}}, got {two_rho_p}"
        )
    return MomentSegment(i, j, two_rho_p[i], two_rho_p[j])


def moment_segment(datum: HorosphericalDatum) -> MomentSegment:
    """Moment segment for a datum: `report(datum).segment`, built on its one path."""
    return report(datum).segment


def dh_polynomial_on(rs: RootSystem, seg: MomentSegment) -> tuple[Fraction, ...]:
    """Duistermaat-Heckman density on a segment over a given root system, as coefficients in t.

    The coefficients come lowest degree first.  The density is the
    `poly_product` of one linear factor per root of the unipotent radical,
    c_i*d_i*(a+t) + c_j*d_j*(b-t) = (u*a + v*b) + (u - v)*t, where (c_i, c_j)
    are its coefficients on the marked simple roots, d_m the half squared
    lengths, u = c_i*d_i and v = c_j*d_j.
    """
    d_i, d_j = rs.half_lengths[seg.i - 1], rs.half_lengths[seg.j - 1]
    factors = []
    for r in phi_pu(rs, seg.i, seg.j):
        u, v = r[seg.i - 1] * d_i, r[seg.j - 1] * d_j
        factors.append((u * seg.a + v * seg.b, u - v))
    return poly_product(factors)


def _forms(marked: Counter[tuple[int, int]], d_i: Fraction, d_j: Fraction) -> Counter[tuple[int, int]]:
    """Coprime integer forms (c0, c1) of the density, from Phi_Pu's marked coefficients.

    A root with coefficients (c_i, c_j) on the marked simple roots contributes
    c_i*d_i*(a+t) + c_j*d_j*(b-t), d_m the half squared lengths.  With
    s = lcm of their denominators and e_m = d_m*s, under sigma = (t+a)/(a+b)
    this is (a+b)/s times c_j*e_j + (c_i*e_i - c_j*e_j)*sigma, reduced by its
    gcd to c0 + c1*sigma.  A form constant in sigma is dropped.
    """
    s = math.lcm(d_i.denominator, d_j.denominator)
    e_i, e_j = d_i.numerator * (s // d_i.denominator), d_j.numerator * (s // d_j.denominator)
    forms: Counter[tuple[int, int]] = Counter()
    for (c_i, c_j), mult in marked.items():
        c0 = c_j * e_j
        c1 = c_i * e_i - c0
        if c1:
            g = math.gcd(c0, c1)
            forms[c0 // g, c1 // g] += mult
        elif not c0:
            raise DegenerateMeasureError("Duistermaat-Heckman density has a zero factor")
    return forms


_LEAF = 32


def _beta_split(q0: list[int], q1: list[int], m: int, p: int, w: int) -> tuple[int, int]:
    """(T(q0), T(q1)) for two coefficient lists of one length L.

    T(q) = sum_l q_l*PA(0, l)*PB(l+1, L), PA(i, l) = prod_{i<r<=l} (m+r)*w and
    PB(l, j) = prod_{l<=r<j} (m+p+1+r), by binary splitting:
    T(i, j) = T(i, k)*PB(k, j) + PA(i, k)*T(k, j), Horner at _LEAF terms or fewer.
    As Int_0^w tau^(m+l) (w - tau)^p dtau = w^(m+l+p+1) (m+l)! p!/(m+l+p+1)!,
    w^(m+p+1)*T(q) is Int_0^w tau^m (w - tau)^p q(tau) dtau times
    C(m+p, p)*PB(0, L), a factor that does not depend on w or q.
    """

    def split(i: int, j: int) -> tuple[int, int, int, int]:
        if j - i <= _LEAF:
            t0 = t1 = 0
            pa = 1
            for l in range(i, j):
                b = m + p + 1 + l
                t0 = t0 * b + q0[l] * pa
                t1 = t1 * b + q1[l] * pa
                pa *= (m + l + 1) * w
            return t0, t1, pa, math.prod(range(m + p + 1 + i, m + p + 1 + j))
        k = (i + j) // 2
        l0, l1, la, lb = split(i, k)
        r0, r1, ra, rb = split(k, j)
        return l0 * rb + la * r0, l1 * rb + la * r1, la * ra, lb * rb

    return split(0, len(q0))[:2]


def _form_moments(forms: Counter[tuple[int, int]]) -> tuple[int, int, int]:
    """(c1, num0, num1) for P = prod (c0 + c1*sigma)^m over `forms`.

    The form of largest multiplicity m, on a tie one that vanishes at 0 or 1,
    becomes tau = c0 + c1*sigma, c1 its slope; the others become
    c1*(d0 + d1*sigma) = (c1*d0 - c0*d1) + d1*tau.  If tau vanishes at one end
    of [0, 1] and a form (d0, d1)^p at the other, where tau = w, that form is
    (-d1*(w - tau))^p and is kept as (w - tau)^p; else p = 0.  q_0 is the
    product of the other forms in tau and q_1 = q_0*(tau - c0).

    num_k is the sum over tau's two ends of +-w^(m+p+1)*T_k(w) from
    `_beta_split`, + at sigma = 1 and - at sigma = 0, where an end with
    tau = 0 adds nothing: Int tau^m (w - tau)^p q_k dtau over [c0, c0 + c1]
    times one factor that both share.  So num0 and num1 are Int P and
    c1*Int sigma*P over [0, 1] times one shared factor, and
    tbar = (a+b)*num1/(c1*num0) - a.
    """
    (c0, c1), m = max(
        forms.items(), key=lambda item: (item[1], not item[0][0] * sum(item[0])), default=((0, 1), 0)
    )
    # sigma at the end where tau is not 0, if tau vanishes at the other end
    far = 1 if not c0 else 0 if not c0 + c1 else None
    p, kept = max(
        ((mult, (d0, d1)) for (d0, d1), mult in forms.items()
         if far is not None and not d0 + d1 * far),
        default=(0, None),
    )

    q = [1]
    for (d0, d1), mult in forms.items():
        if (d0, d1) not in ((c0, c1), kept):
            q = _int_mul(q, _linear_pow_int(c1 * d0 - c0 * d1, d1, mult))
    q1 = [u - c0 * v for u, v in zip([0, *q], [*q, 0])]
    num0 = num1 = 0
    for sign, w in ((1, c0 + c1), (-1, c0)):
        if w:
            t0, t1 = _beta_split(q + [0], q1, m, p, w)
            scale = sign * w ** (m + p + 1)
            num0 += scale * t0
            num1 += scale * t1
    return c1, num0, num1


def _barycenter(seg: MomentSegment, forms: Counter[tuple[int, int]]) -> Fraction:
    """tbar = Int t P / Int P over [-a, b], P a positive constant times prod (c0 + c1*sigma)^m.

    With sigma = (t+a)/(a+b), t = (a+b)*sigma - a and the constant cancels,
    so tbar = (a+b)*num1/(c1*num0) - a.
    """
    c1, num0, num1 = _form_moments(forms)
    if not num0:
        raise DegenerateMeasureError("Duistermaat-Heckman density has zero volume")
    return Fraction((seg.a + seg.b) * num1 - seg.a * c1 * num0, c1 * num0)


def ricci_bound(a: int, b: int, t_bar: Fraction) -> Fraction:
    """Greatest Ricci lower bound from segment data.

    The distinguished interior point sits at t=0 and the barycenter at t_bar;
    the bound is the ratio in which the ray from the barycenter through t=0
    meets the far endpoint: a/(a + t_bar) for t_bar >= 0, which is exactly
    Fraction(1) at t_bar == 0, and b/(b - t_bar) for t_bar < 0.
    """
    return a / (a + t_bar) if t_bar >= 0 else b / (b - t_bar)


def report(datum: HorosphericalDatum) -> ComputationReport:
    """Run the full pipeline once and collect every exact quantity.

    This is the one entry point for R(X), tbar, the segment and the dimension.
    """
    type_label, rank, i, j = _marked_pair(datum)
    marked, two_rho_p = unipotent_radical(type_label, rank, i, j)
    seg = _segment(i, j, two_rho_p)
    half_lengths = _root_data(type_label, rank)[0]
    t_bar = _barycenter(seg, _forms(marked, half_lengths[i - 1], half_lengths[j - 1]))
    return ComputationReport(
        dimension=sum(marked.values()) + 1,
        segment=seg,
        barycenter_t=t_bar,
        R=ricci_bound(seg.a, seg.b, t_bar),
    )

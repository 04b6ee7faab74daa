"""Independent closed-form evaluations for the parametric families.

The X1(n) and X3(n, k) bounds are explicit ratios of one-variable integrals,
and the X3(n, k) ratio collapses to a product of small fractions.  Each
integral is one integer sum over a common denominator, and each result one
Fraction.

- X1(n): s = t + 2n + 2 = (n+2)u on [n+2, 2n+4], so u runs over [1, 2] and
  the integrand is (n+2)^(m+n) u^m (2-u) (u-1)^(n-1), m = n(n-1)/2.  The
  powers of n+2 cancel in R.  In x = u - 1 both moments are differences of
  I(a) = Int_0^1 x^a (1+x)^m dx, and integration by parts,
  2^(m+1) = a I(a-1) + (a+m+1) I(a), takes I(n-1) to I(n) and I(n+1).  So
  one Horner split 2^(m+1) S(2) - S(1), of the cofactor (u-1)^(n-1) against
  u^m, serves R, tbar and the sign lemma (`_x1_moments`).
- X3(n, k): s = b - t on [0, hi], b = 2n-2k+2 = 2p and hi = b+k = 2n-k+2;
  the factors k + t and 4n-3k+4-t are hi - s and hi + s, so the integrand
  is s^(b-1) (hi-s)^(k-1) (hi+s)^(k-1) = s^(b-1) (hi^2 - s^2)^(k-1).
  Under x = (s/hi)^2 the moment Int s^l f ds is hi^(b+l+2k-2) times
  1/2 B((b+l)/2, k), so b - tbar = Int s f / Int f = hi B(p+1/2, k) / B(p, k).
  As p + k = n + 1, that Gamma ratio telescopes by
  Gamma(j+3/2) Gamma(j) / (Gamma(j+1/2) Gamma(j+1)) = (2j+1)/(2j), and
  R = b / (b - tbar) is the product
      R(X3(n, k)) = (2p / hi) prod_{j=p}^{n} (2j+1)/(2j)   (`r_x3_closed`),
  which `closed_form` reads.  At k = n it is 2/a_n (`r_x3nn_closed`).
  `r_x3_formula` keeps the integral route, to check the product: only
  (hi+s)^(k-1) is expanded, and in the moment of weight s^l each of its
  terms integrates as the Beta integral, with m = b-1+l,
  Int_0^hi s^(m+j) (hi-s)^(k-1) ds = hi^(m+j+k) (m+j)! (k-1)! / (m+j+k)!
  (`_beta_sum`).
- The X1 comparison integral: s = t + n on [0, n+2]; the integrand is
  s^(n-1) (s-n) (n+2-s), times the constant (2n+2)^(n(n-1)/2): one more
  Beta sum.

On a 2-CPU host (Python 3.11, best of 5) `r_x1_formula` takes about
0.004 s at X1(400), 0.02 s at X1(800) and 0.17 s at X1(1600), and
`r_x3_formula(800, 400)` about 0.006 s; the product
`r_x3_closed` takes about 0.00014 s at X3(800, 400), 0.0004 s at
X3(1600, 800) and 0.0025 s at X3(4000, 2000).

`closed_form(family, n, k)` is a whole X1 or X3 record from these formulas
alone: the dimension, the marked pair and moment segment, tbar and R.  The
closed-form route of `records.record_for` and the closed-forms suite read
it, so which formula serves which family is written only here.

All of it is written from the paper's formulas, in integers, without
touching the root-system pipeline or the engine's integration, so the two
routes can be compared exactly.  Every public function takes only int
parameters (a bool is not one) and raises InvalidParameterError for any
other value.  The module also carries the inequality and asymptotic-bound
checks that control the limiting behaviour of each family.  Every check is
exact: the one bound that involves pi, at X3(n, n), is tested with the
rational PI_UPPER > pi in its place, so a pass proves the bound itself.  A
`BoundCheck` stores only its relation and both sides, and it holds when its
margin is positive.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .exactnum import _linear_pow_int

__all__ = [
    "BoundCheck",
    "InvalidParameterError",
    "a_recurrence_factor",
    "a_sequence",
    "asymptotic_bounds",
    "closed_form",
    "lemma_x1_sign",
    "lemma_x3nk_sign",
    "r_x1_formula",
    "r_x3_closed",
    "r_x3_formula",
    "r_x3nn_closed",
    "x1_comparison_integral",
]

#: A rational upper bound for pi (355/113 - pi < 2.7e-7), used by the X3(n, n) check.
PI_UPPER = Fraction(355, 113)


class InvalidParameterError(ValueError):
    """Raised for parameters outside a formula's domain."""


def _ints(*values: object) -> bool:
    """Whether every value is an int; a bool is not, as in `HorosphericalDatum`."""
    return all(type(v) is int for v in values)


class _BoundCheckFields(NamedTuple):
    relation: str
    lhs: Fraction
    rhs: Fraction


class BoundCheck(_BoundCheckFields):
    """Outcome of one exact inequality instance.

    relation is "lower-bound" (lhs > rhs) or "upper-bound" (lhs < rhs); a
    sign check is a lower bound against 0.  `holds` is the sign of `margin`.
    An unknown relation raises ValueError at construction; as a NamedTuple,
    `_make` and `_replace` skip that check.
    """

    __slots__ = ()

    def __new__(cls, relation: str, lhs: Fraction, rhs: Fraction) -> BoundCheck:
        if relation not in ("lower-bound", "upper-bound"):
            raise ValueError(f"unknown relation tag {relation!r}")
        return super().__new__(cls, relation, lhs, rhs)

    @property
    def margin(self) -> Fraction:
        """Slack by which the relation holds (negative when violated).

        Its unit is that of the check's two sides, so margins of different
        checks do not compare: a difference of R values for the X1 and
        X3(n, k < n) bounds, the squared form for X3(n, n), and the raw
        integral for `lemma_x1_sign`, which passes a float's range by n = 50
        (float() raises OverflowError there).  Render it with
        `exactnum.to_significant`, which takes any magnitude.
        """
        return self.lhs - self.rhs if self.relation == "lower-bound" else self.rhs - self.lhs

    @property
    def holds(self) -> bool:
        return self.margin > 0


def _x1_moments(n: int) -> tuple[int, int, int]:
    """(num0, num1, den): Int_1^2 u^m (2-u) (u-1)^(n-1+l) du = num_l/den for l = 0, 1.

    m = n(n-1)/2.  Under s = (n+2)u the X1(n) integrand is (n+2)^(m+n) times
    u^m (2-u) (u-1)^(n-1), so each integral is over [1, 2].  In x = u - 1
    moment l is I(n-1+l) - I(n+l), I(a) = Int_0^1 x^a (1+x)^m dx, and
    integrating d/dx [x^a (1+x)^(m+1)] by parts gives
    2^(m+1) = a I(a-1) + (a+m+1) I(a).  So one Horner split gives I(n-1):
    with S(x) = sum_j q_j (c/(m+j+1)) x^j for q = (u-1)^(n-1) and
    c = lcm(m+1, ..., m+n), c I(n-1) = 2^(m+1) S(2) - S(1).  The recurrence
    at a = n and n+1 gives I(n) and I(n+1), all in integers over
    den = c (n+m+1) (n+m+2).
    """
    m = n * (n - 1) // 2
    c = math.lcm(*range(m + 1, m + n + 1))
    s1 = s2 = 0
    for e, q in zip(range(m + n, m, -1), reversed(_linear_pow_int(-1, 1, n - 1))):
        w = q * (c // e)
        s1 += w
        s2 = 2 * s2 + w
    top = c << (m + 1)  # c 2^(m+1)
    i0 = (s2 << (m + 1)) - s1  # c I(n-1)
    i1 = top - n * i0  # c (n+m+1) I(n)
    i2 = (n + m + 1) * top - (n + 1) * i1  # c (n+m+1) (n+m+2) I(n+1)
    i0 *= (n + m + 1) * (n + m + 2)
    i1 *= n + m + 2
    return i0 - i1, i1 - i2, c * (n + m + 1) * (n + m + 2)


def r_x1_formula(n: int) -> Fraction:
    """R(X1(n)) = n Int f / Int (n+t) f over [-n, 2], f the X1(n) integrand.

    f = (2-t) (n+t)^(n-1) (t+2n+2)^(n(n-1)/2).  n + t = (n+2)(u-1) under
    s = t + 2n + 2 = (n+2)u, so R = n num0 / ((n+2) num1) (`_x1_moments`):
    every other power of n+2 cancels.
    """
    if not (_ints(n) and n >= 3):
        raise InvalidParameterError("X1 formula requires n >= 3")
    num0, num1, _ = _x1_moments(n)
    return Fraction(n * num0, (n + 2) * num1)


def _beta_sum(m: int, p: int, q: Sequence[int], hi: int) -> tuple[int, int]:
    """(num, den) with num/den = Int_0^hi s^m (hi-s)^p q(s) ds, for integers q[j] and hi > 0.

    Term j is a Beta integral, hi^(m+j+p+1) (m+j)! p! / (m+j+p+1)!.  Over
    den = M!/(m! p!), M = m+p+len(q), it is hi^(m+p+1) times the integer
    q[j] hi^j (m+1)...(m+j) (m+j+p+2)...M, and the sum of those is taken by
    Horner in hi.
    """
    big = m + p + len(q)
    acc, tail = 0, 1  # tail = (m+j+p+2)...M
    for j in range(len(q) - 1, -1, -1):
        acc = acc * hi * (m + j + 1) + q[j] * tail
        tail *= m + j + p + 1
    den = math.factorial(big) // (math.factorial(m) * math.factorial(p))
    return hi ** (m + p + 1) * acc, den


def r_x3_formula(n: int, k: int) -> Fraction:
    """R(X3(n, k)) = b / (b - tbar) on [-k, b], b = 2n-2k+2, by the Beta sums.

    tbar is the barycenter of f = (k+t)^(k-1) (b-t)^(b-1) (4n-3k+4-t)^(k-1).
    In s = b - t, f = s^(b-1) (hi-s)^(k-1) (hi+s)^(k-1) on [0, hi] with
    hi = b+k, and b - tbar = Int s f / Int f.  This is the integral route,
    kept to check the product `r_x3_closed` (which `closed_form` reads);
    valid for n >= k >= 2, and at k == n it reproduces the factorial form.
    """
    if not (_ints(n, k) and n >= k >= 2):
        raise InvalidParameterError("X3 formula requires n >= k >= 2")
    b = 2 * n - 2 * k + 2
    hi = b + k
    q = _linear_pow_int(hi, 1, k - 1)
    num0, den0 = _beta_sum(b - 1, k - 1, q, hi)
    num1, den1 = _beta_sum(b, k - 1, q, hi)
    return Fraction(b * num0 * den1, num1 * den0)


def r_x3_closed(n: int, k: int) -> Fraction:
    """R(X3(n, k)) = (2p / (2n-k+2)) prod_{j=p}^{n} (2j+1)/(2j), p = n-k+1, exact.

    The telescoped Gamma ratio of the two Beta moments (module docstring),
    as one running product of small integers.  Valid for n >= k >= 2.
    """
    if not (_ints(n, k) and n >= k >= 2):
        raise InvalidParameterError("X3 formula requires n >= k >= 2")
    p = n - k + 1
    num, den = 2 * p, 2 * n - k + 2
    for j in range(p, n + 1):
        num *= 2 * j + 1
        den *= 2 * j
    return Fraction(num, den)


def closed_form(family: str, n: int, k: int | None = None) -> tuple[int, tuple[int, ...], Fraction, Fraction]:
    """(dimension, (i, j, a, b), tbar, R) of X1(n) or X3(n, k), from the paper's formulas alone.

    (i, j) is the marked pair, oriented as the engine's, and [-a, b] the
    moment segment.  X1(n): dimension n(n+3)/2, pair (n-1, n), a = n, b = 2,
    R from `r_x1_formula` and tbar = n/R - n, as R = a/(a + tbar) for
    tbar > 0 (`lemma_x1_sign`).  X3(n, k): dimension k(4n-3k+3)/2, pair
    (k-1, k), a = k, b = 2n-2k+2, R from the product `r_x3_closed` and
    tbar = b - b/R, as R = b/(b - tbar), the paper's X3 ratio, for tbar < 0
    (`lemma_x3nk_sign` for k < n; at k == n this R is the factorial form
    `r_x3nn_closed`).
    Raises InvalidParameterError outside X1(n >= 3) and X3(n >= k >= 2).
    """
    if family == "X1":
        if k is not None:
            raise InvalidParameterError("X1 formula takes no parameter k")
        r = r_x1_formula(n)
        return n * (n + 3) // 2, (n - 1, n, n, 2), n / r - n, r
    if family != "X3":
        raise InvalidParameterError(f"no closed form for family {family!r}")
    r = r_x3_closed(n, k)
    b = 2 * n - 2 * k + 2
    # tbar = b - b/R, normalized once.
    t_bar = Fraction(b * (r.numerator - r.denominator), r.numerator)
    return k * (4 * n - 3 * k + 3) // 2, (k - 1, k, k, b), t_bar, r


def r_x3nn_closed(n: int) -> Fraction:
    """R(X3(n, n)) = 2 / a_n = 2 (2n+1)! / ((n+2) (2^n n!)^2), exact."""
    if not (_ints(n) and n >= 2):
        raise InvalidParameterError("X3(n, n) closed form requires n >= 2")
    return 2 / a_sequence(n)


def a_sequence(n: int) -> Fraction:
    """a_n = (n+2) * Integral_0^1 (1-t^2)^n dt = (n+2)(2^n n!)^2 / (2n+1)!."""
    if not (_ints(n) and n >= 0):
        raise InvalidParameterError("a_n requires n >= 0")
    return Fraction((n + 2) * (2**n * math.factorial(n)) ** 2, math.factorial(2 * n + 1))


def a_recurrence_factor(n: int) -> Fraction:
    """Multiplier taking a_n to a_{n+1}: (n+3)(2n+2) / ((n+2)(2n+3))."""
    if not (_ints(n) and n >= 0):
        raise InvalidParameterError("a_n recurrence requires n >= 0")
    return Fraction((n + 3) * (2 * n + 2), (n + 2) * (2 * n + 3))


def lemma_x1_sign(n: int) -> BoundCheck:
    """Positivity of Integral_{-n}^{2} t (2-t) (n+t)^(n-1) (t+2n+2)^(n(n-1)/2) dt."""
    if not (_ints(n) and n >= 3):
        raise InvalidParameterError("X1 sign lemma requires n >= 3")
    num0, num1, den = _x1_moments(n)
    # t = (n+2)(u-1) - n, and the integrand carries (n+2)^(m+n+1) with du.
    value = Fraction((n + 2) ** (n * (n - 1) // 2 + n + 1) * ((n + 2) * num1 - n * num0), den)
    return BoundCheck("lower-bound", value, Fraction(0))


def x1_comparison_integral(n: int) -> Fraction:
    """The comparison integral with the top factor frozen at its left value.

    Integral_{-n}^{2} t (2-t) (n+t)^(n-1) (2n+2)^(n(n-1)/2) dt vanishes exactly;
    it is the baseline against which the sign lemma is proved.
    """
    if not (_ints(n) and n >= 3):
        raise InvalidParameterError("comparison integral requires n >= 3")
    # s = t + n: t = s-n, 2-t = n+2-s and (n+t)^(n-1) = s^(n-1) on [0, n+2].
    num, den = _beta_sum(n - 1, 1, [-n, 1], n + 2)
    # The sum is 0 at every n; the frozen factor's power is formed only when it is not.
    return Fraction((2 * n + 2) ** (n * (n - 1) // 2) * num, den) if num else Fraction(0)


def lemma_x3nk_sign(n: int, k: int) -> BoundCheck:
    """The (k+t)-weighted mean of the X3 integrand stays strictly below k."""
    if not (_ints(n, k) and n > k >= 2):
        raise InvalidParameterError("X3(n, k) sign lemma requires n > k >= 2")
    # The (k+t)-weighted mean is k + tbar: below k exactly when tbar < 0.
    return BoundCheck("upper-bound", k + closed_form("X3", n, k)[2], Fraction(k))


def _x3nn_stirling(n: int) -> BoundCheck:
    """R(X3(n, n)) < 2 sqrt(2n+1) c / (pi (n+2)), c = (1 + 1/(2n))^(2n+1), exactly.

    The bound is equivalent to (R pi (n+2) / (2c))^2 < 2n+1.  The left side
    grows with pi, so the check uses PI_UPPER for pi: lhs is that square and
    rhs is 2n+1, and a pass proves the bound.
    """
    c = Fraction(2 * n + 1, 2 * n) ** (2 * n + 1)
    lhs = (r_x3nn_closed(n) * PI_UPPER * (n + 2) / (2 * c)) ** 2
    return BoundCheck("upper-bound", lhs, Fraction(2 * n + 1))


def asymptotic_bounds(family: str, n: int, k: int | None = None) -> BoundCheck:
    """The bound behind each family's limit, instantiated at (n, k).

    X1: R(X1(n)) > n/(n+2), exact.
    X3 with k < n: R(X3(n, k)) > (2n-2k+2)/(2n-k+2), exact.
    X3 with k == n: R(X3(n, n)) < 2 sqrt(2n+1) (1 + 1/(2n))^(2n+1) / (pi (n+2)),
    exact in the squared form with pi bounded above by PI_UPPER; lhs and rhs
    are the two sides of that form (see `_x3nn_stirling`).

    Only the X3(n, n) check carries a rate.  The other two are a/(a+b) and
    b/(a+b) on the segment [-a, b], with a = n, b = 2 for X1(n) and a = k,
    b = 2n-2k+2 for X3(n, k).  R is a/(a+tbar) when tbar > 0 and b/(b-tbar)
    when tbar < 0, and tbar lies inside the segment, so each holds for any
    positive density once its sign lemma places tbar: tbar > 0 for X1
    (`lemma_x1_sign`) and tbar < 0 for X3 (`lemma_x3nk_sign`).
    """
    if family == "X1":
        if k is not None:
            raise InvalidParameterError("X1 bound takes no parameter k")
        lhs = r_x1_formula(n)
        return BoundCheck("lower-bound", lhs, Fraction(n, n + 2))
    if family == "X3":
        if not (_ints(n, k) and n >= k >= 2):
            raise InvalidParameterError("X3 bound requires n >= k >= 2")
        if k < n:
            lhs = closed_form("X3", n, k)[3]
            return BoundCheck("lower-bound", lhs, Fraction(2 * n - 2 * k + 2, 2 * n - k + 2))
        return _x3nn_stirling(n)
    raise InvalidParameterError(f"no asymptotic bound for family {family!r}")

"""Exact numeric substrate: integer coefficient lists, dense polynomials,
integration and exact rendering.

The scalar type is ``fractions.Fraction`` (re-exported as ``Rational``): it is
arbitrary precision, always reduced, and always carries a positive denominator.

- ``_int_mul`` and ``_linear_pow_int`` expand short products of linear forms
  as plain integer lists; the engine's moments and the closed forms build
  their cofactors with them.
- ``Polynomial`` (multiplication, powers, evaluation), ``poly_product`` and
  ``integrate`` are the dense route: no computation of R uses them.  They
  serve only ``engine.dh_polynomial_on`` and the tests, which integrate the
  dense densities as an independent reference.
- ``int_to_str``, ``str_to_int``, ``frac_str``, ``parse_frac``,
  ``to_decimal`` and ``to_significant`` write and read exact values at any
  size; every exact value the package prints goes through them.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Iterable, Sequence, Union

Rational = Fraction

RationalLike = Union[Fraction, int]

__all__ = [
    "InvalidIntervalError",
    "Polynomial",
    "Rational",
    "frac_str",
    "int_to_str",
    "integrate",
    "parse_frac",
    "poly_product",
    "str_to_int",
    "to_decimal",
    "to_significant",
]


class InvalidIntervalError(ValueError):
    """Raised when a definite integral is requested over an interval with lo > hi."""


def _int_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Convolve two integer coefficient lists (schoolbook, zero-skipping)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def _linear_pow_int(c0: int, c1: int, exponent: int) -> list[int]:
    """Expand (c0 + c1*t)**exponent by the binomial theorem in O(exponent) steps."""
    m = exponent
    pow0 = [1] * (m + 1)
    for idx in range(1, m + 1):
        pow0[idx] = pow0[idx - 1] * c0
    pow1 = [1] * (m + 1)
    for idx in range(1, m + 1):
        pow1[idx] = pow1[idx - 1] * c1
    out = [0] * (m + 1)
    binom = 1
    for k in range(m + 1):
        out[k] = binom * pow0[m - k] * pow1[k]
        binom = binom * (m - k) // (k + 1)
    return out


class Polynomial:
    """Dense univariate polynomial with exact rational coefficients.

    Coefficients are indexed by degree; trailing zeros are trimmed so the
    leading coefficient is nonzero unless the polynomial is zero (empty tuple).
    Instances are immutable and hashable.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self._coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def linear(cls, constant: RationalLike, slope: RationalLike) -> "Polynomial":
        """The polynomial constant + slope*t."""
        return cls((constant, slope))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def _int_form(self) -> tuple[list[int], int]:
        """Return (integer coefficients, common denominator) with self = ints/den."""
        den = 1
        for c in self._coeffs:
            d = c.denominator
            den = den * d // math.gcd(den, d)
        return [c.numerator * (den // c.denominator) for c in self._coeffs], den

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        if not self._coeffs:
            return "Polynomial(0)"
        parts = [f"{c}*t^{k}" if k else f"{c}" for k, c in enumerate(self._coeffs) if c]
        return "Polynomial(" + " + ".join(parts) + ")"

    def __mul__(self, other: object) -> "Polynomial":
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial.zero()
            ints_a, den_a = self._int_form()
            ints_b, den_b = other._int_form()
            return _poly_from_int(_int_mul(ints_a, ints_b), den_a * den_b)
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return Polynomial(tuple(c * f for c in self._coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            raise ValueError("polynomial power must be nonnegative")
        if exponent == 0:
            return Polynomial.one()
        if self.degree == 1:
            # Binomial expansion beats repeated squaring for linear bases: the
            # dense reference densities the tests build are products of a few
            # thousand linear factors, which would otherwise dominate.
            ints, den = self._int_form()
            return _poly_from_int(_linear_pow_int(ints[0], ints[1], exponent), den**exponent)
        result, base = Polynomial.one(), self
        while True:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if not exponent:
                return result
            base = base * base

    def __call__(self, x: RationalLike) -> Fraction:
        """Evaluate at x by Horner's rule."""
        xf = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * xf + c
        return acc


def _poly_from_int(ints: Sequence[int], den: int) -> Polynomial:
    if den == 1:
        return Polynomial(tuple(Fraction(c) for c in ints))
    return Polynomial(tuple(Fraction(c, den) for c in ints))


def poly_product(factors: Iterable[Polynomial]) -> Polynomial:
    """Multiply a sequence of polynomials; the empty product is 1.

    Identical factors are grouped and raised to their multiplicity first, and
    the remaining distinct polynomials are multiplied pairwise in a balanced
    tree so intermediate degrees stay comparable.
    """
    counts = Counter(factors)
    if not counts:
        return Polynomial.one()
    level = [base**mult for base, mult in counts.items()]
    while len(level) > 1:
        nxt = [level[k] * level[k + 1] for k in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def integrate(p: Polynomial, lo: RationalLike, hi: RationalLike) -> Fraction:
    """Exact definite integral of p over [lo, hi].

    Evaluates the antiderivative term by term: sum of c_k*(hi^(k+1)-lo^(k+1))/(k+1).
    Raises InvalidIntervalError when lo > hi.
    """
    lo_f, hi_f = Fraction(lo), Fraction(hi)
    if lo_f > hi_f:
        raise InvalidIntervalError(f"invalid interval: lo={lo_f} > hi={hi_f}")
    if p.is_zero:
        return Fraction(0)
    ints, den = p._int_form()
    # Integer powers when the bounds are integers keeps the hot loop cheap.
    lo_v = lo_f.numerator if lo_f.denominator == 1 else lo_f
    hi_v = hi_f.numerator if hi_f.denominator == 1 else hi_f
    lo_p: RationalLike = 1
    hi_p: RationalLike = 1
    total = Fraction(0)
    for k, c in enumerate(ints):
        lo_p *= lo_v
        hi_p *= hi_v
        if c:
            total += Fraction(c * (hi_p - lo_p), k + 1)
    return total / den


#: Digits per str()/int() call in the conversions below: under 640, the least
#: value Python's int_max_str_digits limit may be set to.
_STR_CHUNK = 600
_STR_CHUNK_LIMIT = 10**_STR_CHUNK


def int_to_str(x: int) -> str:
    """Decimal digits of x at any size, equal to str(x).

    Python refuses str() of an int above int_max_str_digits (4300 by default);
    this splits x at a power of ten near half its digits and recurses, so each
    str() call converts fewer than _STR_CHUNK digits.
    """
    if x < 0:
        return "-" + int_to_str(-x)
    if x < _STR_CHUNK_LIMIT:
        return str(x)
    half = x.bit_length() * 3 // 20  # about half of log10(x)
    high, low = divmod(x, 10**half)
    return int_to_str(high) + int_to_str(low).rjust(half, "0")


def str_to_int(s: str) -> int:
    """int(s) at any length for an optionally signed run of ASCII digits.

    Other strings, and strings short enough for int(), go to int() unchanged;
    long digit runs are split in half and joined as high*10^k + low.
    """
    digits = s[1:] if s[:1] in ("+", "-") else s
    if len(digits) <= _STR_CHUNK or not (digits.isascii() and digits.isdigit()):
        return int(s)
    k = len(digits) // 2
    value = str_to_int(digits[:-k]) * 10**k + str_to_int(digits[-k:])
    return -value if s[0] == "-" else value


def frac_str(f: Fraction) -> str:
    """The fraction as "p/q", at any size."""
    return f"{int_to_str(f.numerator)}/{int_to_str(f.denominator)}"


def parse_frac(s: str) -> Fraction:
    """Inverse of frac_str."""
    num, _, den = s.partition("/")
    return Fraction(str_to_int(num), str_to_int(den))


def _round_half_even(num: int, den: int) -> int:
    """num/den rounded to the nearest integer, ties to even, for num >= 0 and den > 0."""
    q, rem = divmod(num, den)
    if 2 * rem > den or (2 * rem == den and q % 2):
        q += 1
    return q


def to_decimal(r: RationalLike, digits: int) -> str:
    """Decimal expansion of r with exactly `digits` fractional digits.

    Rounds half to even, so the parsed result never differs from r by more
    than half a unit in the last place.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    rf = Fraction(r)
    num, den = abs(rf).numerator, abs(rf).denominator
    s = int_to_str(_round_half_even(num * 10**digits, den)).rjust(digits + 1, "0")
    sign = "-" if rf < 0 else ""
    return f"{sign}{s[:-digits]}.{s[-digits:]}"


def to_significant(r: RationalLike, digits: int) -> str:
    """r with `digits` significant digits, laid out like format(float(r), f".{digits}g").

    Works at any magnitude: the value never passes through a float, whose
    range ends near 1.8e308, nor through str() of a huge integer.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    rf = Fraction(r)
    if not rf:
        return "0"
    sign = "-" if rf < 0 else ""
    num, den = abs(rf.numerator), rf.denominator

    def below(e: int) -> bool:  # num/den < 10**e, in integers
        return num < den * 10**e if e >= 0 else num * 10**-e < den

    # Estimate floor(log10 |r|) from bit lengths, then correct it exactly.
    exp = math.floor((num.bit_length() - den.bit_length()) * math.log10(2))
    while below(exp):
        exp -= 1
    while not below(exp + 1):
        exp += 1
    # |r| / 10**shift lies in [10**(digits-1), 10**digits); rounded half to
    # even it may reach 10**digits, which carries into the exponent.
    shift = exp - digits + 1
    if shift >= 0:
        mant = _round_half_even(num, den * 10**shift)
    else:
        mant = _round_half_even(num * 10**-shift, den)
    if mant == 10**digits:
        mant //= 10
        exp += 1
    ds = str(mant)
    if -4 <= exp < digits:
        whole, frac = (ds[: exp + 1], ds[exp + 1 :]) if exp >= 0 else ("0", "0" * (-exp - 1) + ds)
        frac = frac.rstrip("0")
        return f"{sign}{whole}.{frac}" if frac else f"{sign}{whole}"
    frac = ds[1:].rstrip("0")
    return f"{sign}{ds[0]}{'.' + frac if frac else ''}e{exp:+03d}"

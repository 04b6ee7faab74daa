"""Exact numeric substrate: integer coefficient lists, dense polynomials,
integration and exact rendering.

The scalar type is ``fractions.Fraction`` (re-exported as ``Rational``): it is
arbitrary precision, always reduced, and always carries a positive denominator.

- ``_int_mul`` and ``_linear_pow_int`` expand short products of linear forms
  as plain integer lists; the engine's moments and the closed forms build
  their cofactors with them.
- ``poly_product`` and ``integrate`` are the dense route: no computation of
  R uses them.  A dense polynomial is the tuple of its exact coefficients,
  lowest degree first, with trailing zeros trimmed (``()`` is 0).  They
  serve only ``engine.dh_polynomial_on`` and the tests' reference module,
  tests/reference.py, which integrates the dense densities as an
  independent reference; they and ``InvalidIntervalError`` are not in
  ``__all__``.
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
    "Rational",
    "frac_str",
    "int_to_str",
    "parse_frac",
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
    out = [0] * (m + 1)
    binom = pow1 = 1
    for k in range(m + 1):
        out[k] = binom * pow0[m - k] * pow1
        binom = binom * (m - k) // (k + 1)
        pow1 *= c1
    return out


def _int_form(coeffs: Sequence[RationalLike]) -> tuple[list[int], int]:
    """(integer coefficients, common denominator) of a coefficient sequence, trailing zeros trimmed."""
    fs = [Fraction(c) for c in coeffs]
    den = math.lcm(*(f.denominator for f in fs))
    ints = [f.numerator * (den // f.denominator) for f in fs]
    while ints and not ints[-1]:
        ints.pop()
    return ints, den


def poly_product(factors: Iterable[Sequence[RationalLike]]) -> tuple[Fraction, ...]:
    """Multiply polynomials given as coefficient sequences; the empty product is (1,).

    Identical factors are grouped.  A constant one is raised to its
    multiplicity as a number and a linear one by the binomial theorem: the
    dense reference densities the tests build are products of a few thousand
    constant and linear factors.  Everything is multiplied in integers over
    one common denominator.
    """
    ints, den = [1], 1
    for base, mult in Counter(map(tuple, factors)).items():
        b, d = _int_form(base)
        if not b:
            return ()
        den *= d**mult
        if len(b) == 1:
            ints = [c * b[0] ** mult for c in ints]
        elif len(b) == 2:
            ints = _int_mul(ints, _linear_pow_int(b[0], b[1], mult))
        else:
            for _ in range(mult):
                ints = _int_mul(ints, b)
    return tuple(Fraction(c, den) for c in ints)


def integrate(coeffs: Sequence[RationalLike], lo: RationalLike, hi: RationalLike) -> Fraction:
    """Exact definite integral over [lo, hi] of the polynomial with these coefficients.

    Evaluates the antiderivative term by term: sum of c_k*(hi^(k+1)-lo^(k+1))/(k+1).
    Raises InvalidIntervalError when lo > hi.
    """
    lo_f, hi_f = Fraction(lo), Fraction(hi)
    if lo_f > hi_f:
        raise InvalidIntervalError(f"invalid interval: lo={lo_f} > hi={hi_f}")
    ints, den = _int_form(coeffs)
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
    than half a unit in the last place.  `digits` must be an int (not a bool)
    of at least 1, or ValueError is raised.
    """
    if type(digits) is not int or digits < 1:
        raise ValueError(f"digits must be an int of at least 1, not {digits!r}")
    rf = Fraction(r)
    num, den = abs(rf).numerator, abs(rf).denominator
    s = int_to_str(_round_half_even(num * 10**digits, den)).rjust(digits + 1, "0")
    sign = "-" if rf < 0 else ""
    return f"{sign}{s[:-digits]}.{s[-digits:]}"


def to_significant(r: RationalLike, digits: int) -> str:
    """r with `digits` significant digits, laid out like format(float(r), f".{digits}g").

    Works at any magnitude: the value never passes through a float, whose
    range ends near 1.8e308, nor through str() of a huge integer.  An int or
    a Fraction is read as it is; any other r goes through Fraction(r).
    `digits` must be an int (not a bool) of at least 1, or ValueError is
    raised.
    """
    if type(digits) is not int or digits < 1:
        raise ValueError(f"digits must be an int of at least 1, not {digits!r}")
    if not isinstance(r, (int, Fraction)):
        r = Fraction(r)
    num, den = r.numerator, r.denominator
    if not num:
        return "0"
    sign = "-" if num < 0 else ""
    num = abs(num)
    # Estimate floor(log10 |r|) from bit lengths, then correct it exactly:
    # with shift = exp - digits + 1, one divmod of |r| by 10**shift gives a
    # quotient in [10**(digits-1), 10**digits) just when exp is right, and
    # that quotient and its remainder are the mantissa, rounded half to even
    # below.  Rounding up may reach 10**digits, which carries into exp.
    exp = math.floor((num.bit_length() - den.bit_length()) * math.log10(2))
    low, high = 10 ** (digits - 1), 10**digits
    while True:
        shift = exp - digits + 1
        top, bottom = num * 10 ** max(-shift, 0), den * 10 ** max(shift, 0)
        mant, rem = divmod(top, bottom)
        if mant < low:
            exp -= 1
        elif mant >= high:
            exp += 1
        else:
            break
    if 2 * rem > bottom or (2 * rem == bottom and mant % 2):
        mant += 1
        if mant == high:
            mant //= 10
            exp += 1
    ds = str(mant)
    if -4 <= exp < digits:
        whole, frac = (ds[: exp + 1], ds[exp + 1 :]) if exp >= 0 else ("0", "0" * (-exp - 1) + ds)
        frac = frac.rstrip("0")
        return f"{sign}{whole}.{frac}" if frac else f"{sign}{whole}"
    frac = ds[1:].rstrip("0")
    return f"{sign}{ds[0]}{'.' + frac if frac else ''}e{exp:+03d}"

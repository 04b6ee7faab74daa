"""Tests for rationals, coefficient-tuple polynomials, exact integration and decimal rendering."""

import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grlb.exactnum import _linear_pow_int, int_to_str, str_to_int, to_decimal, to_significant
from reference import InvalidIntervalError, integrate, poly_product

F = Fraction


def monomial_integrate(linear_factors, lo, hi):
    """Independent oracle: expand a product of linear (c0, c1) terms into a
    power -> coefficient dict and integrate monomial by monomial."""
    poly = {0: F(1)}
    for c0, c1 in linear_factors:
        out = {}
        for k, c in poly.items():
            out[k] = out.get(k, F(0)) + c * F(c0)
            out[k + 1] = out.get(k + 1, F(0)) + c * F(c1)
        poly = out
    total = F(0)
    for k, c in poly.items():
        total += c * (F(hi) ** (k + 1) - F(lo) ** (k + 1)) / (k + 1)
    return total


class TestPolynomialBasics:
    def test_trailing_zeros_trimmed(self):
        assert poly_product([(1, 2, 0, 0)]) == (F(1), F(2))
        assert poly_product([(0, 0)]) == ()
        assert len(poly_product([()])) - 1 == -1

    def test_multiplication(self):
        p = poly_product([(1, 1), (-1, 1)])
        assert p == (-1, 0, 1)
        assert poly_product([(F(1, 2), F(1, 3)), (6,)]) == (3, 2)
        assert poly_product([(1, 1), ()]) == ()

    def test_power(self):
        assert poly_product([(1, 1)] * 0) == (1,)
        assert poly_product([(2, 0, 1)] * 3) == poly_product(
            [poly_product([(2, 0, 1), (2, 0, 1)]), (2, 0, 1)]
        )

    def test_linear_power_matches_repeated_multiplication(self):
        base = (F(3, 2), F(-2, 7))
        direct = (1,)
        for _ in range(9):
            direct = poly_product([direct, base])
        assert poly_product([base] * 9) == direct

    @given(
        st.integers(min_value=-50, max_value=50),
        st.integers(min_value=-50, max_value=50),
        st.integers(min_value=0, max_value=60),
    )
    @settings(max_examples=200)
    @example(0, 0, 0)
    @example(0, 7, 5)
    @example(-3, 0, 60)
    def test_linear_pow_int_is_the_binomial_expansion(self, c0, c1, m):
        expected = [math.comb(m, k) * c0 ** (m - k) * c1**k for k in range(m + 1)]
        assert _linear_pow_int(c0, c1, m) == expected


class TestPolyProduct:
    def test_difference_of_squares(self):
        got = poly_product([(1, 1), (-1, 1)])
        assert got == (-1, 0, 1)

    def test_empty_product_is_one(self):
        assert poly_product([]) == (1,)

    def test_x5_density_factors_at_zero(self, horner):
        # The six linear factors of the X5 density: hand evaluation at t=0
        # gives 1*3*4*5*6*9 = 3240.
        factors = [
            (1, F(1, 2)),
            (3, F(-3, 2)),
            (4, -1),
            (5, F(-1, 2)),
            (6, 0),
            (9, F(-3, 2)),
        ]
        assert horner(poly_product(factors), 0) == 3240

    def test_repeated_factors_grouped(self):
        lin = (5, 1)
        assert poly_product([lin] * 40) == poly_product([poly_product([lin] * 20)] * 2)

    def test_degree_of_linear_products(self):
        factors = [(c, 1) for c in range(7)]
        assert len(poly_product(factors)) - 1 == 7


class TestIntegrate:
    def test_unit_interval_constant(self):
        assert integrate((1,), 0, 1) == 1

    def test_even_quartic(self):
        # (1-t^2)^2 over [0, 1] -> 8/15.
        p = poly_product([(1, 0, -1)] * 2)
        assert integrate(p, 0, 1) == F(8, 15)

    def test_frozen_value_from_monomial_oracle(self):
        # t (2-t) (3+t)^2 (t+8)^3 over [-3, 2]; the oracle expansion gives
        # 78125/8, frozen here, and the value must be positive.
        factors = [(0, 1), (2, -1), (3, 1), (3, 1), (8, 1), (8, 1), (8, 1)]
        oracle_value = monomial_integrate(factors, -3, 2)
        assert oracle_value == F(78125, 8)
        p = poly_product(factors)
        assert integrate(p, -3, 2) == oracle_value
        assert oracle_value > 0

    def test_fractional_bounds(self):
        p = (0, 1)
        assert integrate(p, F(1, 2), F(3, 2)) == F(1)

    def test_invalid_interval(self):
        with pytest.raises(InvalidIntervalError):
            integrate((1,), 1, 0)

    def test_empty_polynomial(self):
        assert integrate((), -5, 5) == 0


def _to_significant_by_fractions(r, digits):
    """The earlier to_significant, which scaled by Fraction powers of ten: the reference."""
    rf = Fraction(r)
    if not rf:
        return "0"
    sign = "-" if rf < 0 else ""
    x = abs(rf)
    exp = math.floor((x.numerator.bit_length() - x.denominator.bit_length()) * math.log10(2))
    while x < Fraction(10) ** exp:
        exp -= 1
    while x >= Fraction(10) ** (exp + 1):
        exp += 1
    mant = round(x / Fraction(10) ** (exp - digits + 1))
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


class TestToSignificant:
    @pytest.mark.parametrize(
        "value",
        [F(1), F(-2, 3), F(9999995, 10), F(123, 10**7), F(1, 10**4), F(10**20), F(5, 10**5), F(0)],
    )
    @pytest.mark.parametrize("digits", [1, 6, 12])
    def test_matches_float_g_format(self, value, digits):
        assert to_significant(value, digits) == format(float(value), f".{digits}g")

    def test_beyond_float_range(self):
        # float(2**5000) raises OverflowError; 1/3**3000 would underflow to 0.
        assert to_significant(F(2**5000), 6) == "1.41247e+1505"
        assert to_significant(-F(1, 3**3000), 12) == "-4.32748768861e-1432"

    def test_digits_validation(self):
        with pytest.raises(ValueError):
            to_significant(F(1, 2), 0)
        # Only an int counts digits: 2.5 would print a malformed '0.105.', and True is not 1.
        for digits in (2.5, 3.0, True, "3"):
            with pytest.raises(ValueError, match="digits must be an int"):
                to_significant(F(1, 3), digits)

    @given(st.floats(allow_nan=False, allow_infinity=False), st.integers(min_value=1, max_value=17))
    @settings(max_examples=300, deadline=None)
    def test_any_float_matches_g_format(self, x, digits):
        # Fraction(x) is x exactly, and format() rounds a float exactly, half
        # to even.  A Fraction has no -0, so zero is compared unsigned.
        x = x or 0.0
        assert to_significant(F(x), digits) == format(x, f".{digits}g")

    @pytest.mark.parametrize(
        "value,digits",
        [(F(125, 1000), 2), (F(135, 1000), 2), (F(-25, 10), 1), (F(35, 10), 1), (F(5, 8), 2), (F(15, 16), 3)],
    )
    def test_exact_ties_round_half_even(self, value, digits):
        assert to_significant(value, digits) == format(float(value), f".{digits}g")

    @given(
        st.builds(
            lambda p, q, e, small: F(p, q) * F(10) ** (-e if small else e),
            st.integers(min_value=1, max_value=10**40),
            st.integers(min_value=1, max_value=10**40),
            st.integers(min_value=1450, max_value=1550),
            st.booleans(),
        ),
        st.integers(min_value=1, max_value=15),
    )
    @example(F(9999995, 10**6), 6)  # rounds up to 10**6, a carry into the exponent
    @example(F(125, 100), 2)  # a tie below an even digit stays
    @example(F(135, 100), 2)  # a tie below an odd digit rounds up
    @example(10**30 + 5 * 10**25, 5)  # an int, at a tie
    @example(-F(2**4000 + 1, 3**1000), 9)  # a negative value
    @example(0.1, 17)  # a float, which Fraction() takes exactly
    @settings(max_examples=100, deadline=None)
    def test_matches_fraction_algorithm_far_outside_float_range(self, value, digits):
        assert to_significant(value, digits) == _to_significant_by_fractions(value, digits)


class TestToDecimal:
    def test_published_values(self):
        assert to_decimal(F(56, 67), 4) == "0.8358"
        assert to_decimal(F(1, 2), 1) == "0.5"
        assert to_decimal(F(15, 16), 4) == "0.9375"

    def test_half_even_ties(self):
        assert to_decimal(F(25, 1000), 2) == "0.02"
        assert to_decimal(F(35, 1000), 2) == "0.04"

    def test_negative_and_large(self):
        assert to_decimal(F(-1, 3), 3) == "-0.333"
        assert to_decimal(F(1234, 10), 2) == "123.40"

    def test_digits_validation(self):
        with pytest.raises(ValueError):
            to_decimal(F(1, 2), 0)
        # Only an int counts digits, and True is not 1.
        for digits in (2.5, 3.0, True, "3"):
            with pytest.raises(ValueError, match="digits must be an int"):
                to_decimal(F(1, 3), digits)

    def test_digits_past_str_limit(self):
        assert to_decimal(F(1, 3), 5000) == "0." + "3" * 5000


# Values past Python's default int_max_str_digits (4300).
huge_ints = st.integers(10**4400, 10**9000) | st.integers(-(10**9000), -(10**4400))


class TestIntStr:
    @given(st.integers(-(10**4000), 10**4000))
    @settings(max_examples=60)
    def test_equals_builtins_below_limit(self, x):
        assert int_to_str(x) == str(x)
        assert str_to_int(str(x)) == x

    @given(huge_ints)
    @settings(max_examples=30)
    def test_round_trip_past_limit(self, x):
        # Decimal converts ints without the str() digit limit.
        s = int_to_str(x)
        assert s == str(Decimal(x))
        assert str_to_int(s) == x
        assert str_to_int("+" + s.lstrip("-")) == abs(x)

    def test_exact_layout(self):
        assert int_to_str(10**6000) == "1" + "0" * 6000
        assert int_to_str(-(10**6000 - 1)) == "-" + "9" * 6000
        assert str_to_int("0" * 5000 + "7") == 7

    def test_other_strings_follow_int(self):
        assert str_to_int(" 42 ") == 42
        assert str_to_int("1_000") == 1000
        for bad in ("", "-", "1" * 700 + "-" + "1" * 700, "12a"):
            with pytest.raises(ValueError):
                str_to_int(bad)


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=40)
polys = st.lists(rationals, max_size=7).map(lambda cs: poly_product([cs]))


class TestProperties:
    @given(polys, rationals, rationals, rationals)
    @settings(max_examples=80)
    def test_integration_interval_additivity(self, p, x, y, z):
        a, b, c = sorted([x, y, z])
        assert integrate(p, a, b) + integrate(p, b, c) == integrate(p, a, c)

    @given(st.lists(polys, max_size=5), st.randoms())
    @settings(max_examples=60)
    def test_product_commutes(self, factors, rng):
        shuffled = list(factors)
        rng.shuffle(shuffled)
        assert poly_product(factors) == poly_product(shuffled)

    @given(st.lists(polys, max_size=5))
    @settings(max_examples=60)
    def test_product_matches_left_fold(self, factors):
        acc = (1,)
        for f in factors:
            acc = poly_product([acc, f])
        assert poly_product(factors) == acc

    @given(rationals, st.integers(min_value=1, max_value=10))
    @settings(max_examples=80)
    def test_decimal_roundtrip_error_bound(self, r, digits):
        rendered = to_decimal(r, digits)
        assert abs(Fraction(rendered) - r) <= F(1, 2 * 10**digits)
        assert len(rendered.split(".")[1]) == digits

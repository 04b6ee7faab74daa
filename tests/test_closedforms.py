"""Tests for the closed-form formulas, inequalities and asymptotic bounds."""

from fractions import Fraction

import mpmath
import pytest

from grlb import closedforms, engine
from grlb.closedforms import (
    PI_UPPER,
    InvalidParameterError,
    a_recurrence_factor,
    a_sequence,
    asymptotic_bounds,
    closed_form,
    lemma_x1_sign,
    lemma_x3nk_sign,
    r_x1_formula,
    r_x3_closed,
    r_x3_formula,
    r_x3nn_closed,
    x1_comparison_integral,
)
from grlb.exactnum import to_decimal
from reference import dense_density, grlb_imports, integrate, poly_product

F = Fraction

TABLE3 = {
    2: F(15, 16),
    3: F(7, 8),
    4: F(105, 128),
    5: F(99, 128),
    6: F(3003, 4096),
    7: F(715, 1024),
}


class TestX1Formula:
    @pytest.mark.parametrize("n,rendered", [(3, "0.8955"), (6, "0.8685"), (10, "0.8863")])
    def test_published_decimals(self, n, rendered):
        assert to_decimal(r_x1_formula(n), 4) == rendered

    def test_domain(self):
        with pytest.raises(InvalidParameterError):
            r_x1_formula(2)


class TestX3Formula:
    @pytest.mark.parametrize("n,k,rendered", [(3, 2, "0.972"), (7, 4, "0.958")])
    def test_published_decimals(self, n, k, rendered):
        assert to_decimal(r_x3_formula(n, k), 3) == rendered

    def test_exact_at_k_equals_n(self):
        assert r_x3_formula(5, 5) == F(99, 128)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_consistent_with_factorial_form(self, n):
        assert r_x3_formula(n, n) == r_x3nn_closed(n)

    def test_domain(self):
        with pytest.raises(InvalidParameterError):
            r_x3_formula(3, 4)
        with pytest.raises(InvalidParameterError):
            r_x3_formula(3, 1)


class TestX3Closed:
    """The telescoped product against the two Beta-sum moments and the factorial form."""

    @pytest.mark.parametrize("n", range(2, 101))
    def test_equals_the_integral_route(self, n):
        for k in range(2, n + 1):
            assert r_x3_closed(n, k) == r_x3_formula(n, k), f"X3({n},{k})"

    def test_k_equals_n_is_the_factorial_form(self):
        for n in range(2, 101):
            assert r_x3_closed(n, n) == r_x3nn_closed(n), n

    @pytest.mark.parametrize(
        "call",
        [
            lambda: closed_form("X3", 9, 4),
            lambda: lemma_x3nk_sign(9, 4),
            lambda: asymptotic_bounds("X3", 9, 4),
        ],
        ids=["closed_form", "lemma_x3nk_sign", "asymptotic_bounds"],
    )
    def test_x3_values_run_no_beta_sum(self, monkeypatch, call):
        # The product is the one source of X3's closed-form values; the Beta
        # sums only check it.
        def no_beta_sum(*args):
            raise AssertionError("a Beta sum ran for an X3 closed-form value")

        monkeypatch.setattr(closedforms, "_beta_sum", no_beta_sum)
        call()


#: Each public entry with one parameter replaced by `v`.
ENTRIES = {
    "closed_form X1": lambda v: closed_form("X1", v),
    "closed_form X3 n": lambda v: closed_form("X3", v, 3),
    "closed_form X3 k": lambda v: closed_form("X3", 5, v),
    "r_x1_formula": lambda v: r_x1_formula(v),
    "r_x3_formula": lambda v: r_x3_formula(v, 3),
    "r_x3_closed n": lambda v: r_x3_closed(v, 3),
    "r_x3_closed k": lambda v: r_x3_closed(5, v),
    "r_x3nn_closed": lambda v: r_x3nn_closed(v),
    "a_sequence": lambda v: a_sequence(v),
    "a_recurrence_factor": lambda v: a_recurrence_factor(v),
    "lemma_x1_sign": lambda v: lemma_x1_sign(v),
    "x1_comparison_integral": lambda v: x1_comparison_integral(v),
    "lemma_x3nk_sign": lambda v: lemma_x3nk_sign(v, 3),
    "asymptotic_bounds X1": lambda v: asymptotic_bounds("X1", v),
    "asymptotic_bounds X3": lambda v: asymptotic_bounds("X3", v, 3),
}


@pytest.mark.parametrize("value", [3.0, True, "5"], ids=repr)
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_non_int_parameters_are_invalid(entry, value):
    # As in HorosphericalDatum: only an int is a parameter, and a bool is not one.
    with pytest.raises(InvalidParameterError):
        ENTRIES[entry](value)


class TestClosedForm:
    """The whole X1/X3 record from the paper's formulas."""

    def test_x3_7_4_record(self):
        # dim = k(4n-3k+3)/2 = 38 on [-4, 8], R published as 0.958.
        dim, seg, t_bar, r = closed_form("X3", 7, 4)
        assert (dim, seg, r) == (38, (3, 4, 4, 8), r_x3_formula(7, 4))
        assert r == 8 / (8 - t_bar)

    def test_x1_record(self):
        dim, seg, t_bar, r = closed_form("X1", 10)
        assert (dim, seg, r) == (65, (9, 10, 10, 2), r_x1_formula(10))
        assert t_bar > 0 and r == 10 / (10 + t_bar)

    @pytest.mark.parametrize(
        "args,message",
        [
            (("X2", 3), "no closed form for family 'X2'"),
            (("X1", 5, 2), "X1 formula takes no parameter k"),
            (("X1", 2), "X1 formula requires n >= 3"),
            (("X3", 3, 4), "X3 formula requires n >= k >= 2"),
            (("X3", 3), "X3 formula requires n >= k >= 2"),
        ],
    )
    def test_domain(self, args, message):
        with pytest.raises(InvalidParameterError, match=message):
            closed_form(*args)


class TestDenseReference:
    """The formulas integrate in the variable of the largest factor; the dense
    density of the root table, integrated over the paper's interval, is an
    independent route to each value.  R and the X3 ratio do not depend on the
    density's scale; the X1 lemma integrand is the density times
    2^n / (n+2)^(n-1)."""

    @pytest.mark.parametrize("n", range(3, 31))
    def test_x1(self, n):
        density = dense_density(engine.HorosphericalDatum("X1", n=n))
        base = poly_product([(F(2**n, (n + 2) ** (n - 1)),), density])
        assert r_x1_formula(n) == n * integrate(base, -n, 2) / integrate(poly_product([base, (n, 1)]), -n, 2)
        assert lemma_x1_sign(n).lhs == integrate(poly_product([base, (0, 1)]), -n, 2)

    @pytest.mark.parametrize("n", range(2, 31))
    def test_x3(self, n):
        for k in range(2, n + 1):
            b = 2 * n - 2 * k + 2
            base = dense_density(engine.HorosphericalDatum("X3", n=n, k=k))
            volume = integrate(base, -k, b)
            assert r_x3_formula(n, k) == b * volume / integrate(poly_product([base, (b, -1)]), -k, b)
            if k < n:
                assert lemma_x3nk_sign(n, k).lhs == integrate(poly_product([base, (k, 1)]), -k, b) / volume

    @pytest.mark.parametrize("n", range(3, 41))
    def test_x1_integration_by_parts(self, n):
        # I(a) = Int_0^1 x^a (1+x)^m dx, m = n(n-1)/2, obeys
        # 2^(m+1) = a I(a-1) + (a+m+1) I(a): the X1 moments read I(n-1) alone.
        m = n * (n - 1) // 2
        i = {a: integrate(poly_product([(0, 1)] * a + [(1, 1)] * m), 0, 1) for a in (n - 1, n, n + 1)}
        for a in (n, n + 1):
            assert 2 ** (m + 1) == a * i[a - 1] + (a + m + 1) * i[a]
        num0, num1, den = closedforms._x1_moments(n)
        assert (F(num0, den), F(num1, den)) == (i[n - 1] - i[n], i[n] - i[n + 1])

    @pytest.mark.parametrize("n", range(3, 31))
    def test_x1_comparison(self, n):
        base = poly_product([(0, 1), (2, -1)] + [(n, 1)] * (n - 1))
        scale = (2 * n + 2) ** (n * (n - 1) // 2)
        assert x1_comparison_integral(n) == scale * integrate(base, -n, 2)


@pytest.mark.parametrize(
    "datum",
    [
        engine.HorosphericalDatum("X1", n=200),
        engine.HorosphericalDatum("X1", n=400),
        engine.HorosphericalDatum("X3", n=800, k=400),
    ],
    ids=lambda d: d.label(),
)
def test_engine_r_past_the_default_ceiling(monkeypatch, datum):
    # The whole record, not R alone: dimension, segment, tbar and R.
    monkeypatch.setenv("GRLB_MAX_N", "800")
    rep = engine.report(datum)
    assert closed_form(*datum) == rep


def test_imports_nothing_from_the_engine():
    # The closed forms are a route independent of the engine: of grlb they
    # read only exactnum's integer helpers.
    assert set(grlb_imports(closedforms)) == {"grlb.exactnum"}


def test_only_integer_helpers_come_from_exactnum():
    # The closed forms work in integers: no dense polynomial, no integration.
    # An import of exactnum whole would add "*".
    assert grlb_imports(closedforms)["grlb.exactnum"] == {"_linear_pow_int"}


class TestX3nnClosed:
    @pytest.mark.parametrize("n,expected", sorted(TABLE3.items()))
    def test_table_values(self, n, expected):
        assert r_x3nn_closed(n) == expected

    def test_domain(self):
        with pytest.raises(InvalidParameterError):
            r_x3nn_closed(1)

    @pytest.mark.parametrize("n", range(2, 31))
    def test_reciprocal_of_a_sequence(self, n):
        assert r_x3nn_closed(n) == 2 / a_sequence(n)

    def test_strictly_decreasing(self):
        values = [r_x3nn_closed(n) for n in range(2, 31)]
        assert all(x > y for x, y in zip(values, values[1:]))


class TestASequence:
    def test_base_values(self):
        assert a_sequence(0) == 2
        assert a_sequence(2) == F(32, 15)

    def test_a5_against_exact_integration(self):
        # 7 * Integral_0^1 (1-t^2)^5 dt, evaluated exactly, equals 256/99.
        integral = integrate(poly_product([(1, 0, -1)] * 5), 0, 1)
        assert 7 * integral == F(256, 99)
        assert a_sequence(5) == F(256, 99)

    @pytest.mark.parametrize("n", range(0, 30))
    def test_recurrence(self, n):
        assert a_sequence(n + 1) == a_recurrence_factor(n) * a_sequence(n)

    @pytest.mark.parametrize("n", range(1, 30))
    def test_strictly_increasing(self, n):
        assert a_sequence(n + 1) > a_sequence(n)

    @pytest.mark.parametrize("n", range(2, 31))
    def test_exceeds_two(self, n):
        assert a_sequence(n) > 2


class TestLemmas:
    @pytest.mark.parametrize("n", [3, 7, 12])
    def test_x1_sign_holds(self, n):
        check = lemma_x1_sign(n)
        assert check.holds and check.lhs > 0
        assert check.relation == "lower-bound" and check.rhs == 0

    def test_x1_sign_value_at_3(self):
        # Same integrand as the frozen monomial-oracle value in the exactnum
        # tests: t (2-t) (3+t)^2 (t+8)^3 over [-3, 2].
        assert lemma_x1_sign(3).lhs == F(78125, 8)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_x1_comparison_is_exactly_zero(self, n):
        assert x1_comparison_integral(n) == 0

    @pytest.mark.parametrize("n,k", [(3, 2), (12, 5)])
    def test_x3nk_holds(self, n, k):
        check = lemma_x3nk_sign(n, k)
        assert check.holds and check.lhs < k
        assert check.rhs == k

    def test_x3nk_equivalent_weighted_integral_negative(self):
        # Ratio < k is the same as the t-weighted integral being negative.
        n, k = 4, 2
        b = 2 * n - 2 * k + 2
        weighted = poly_product([(0, 1), dense_density(engine.HorosphericalDatum("X3", n=n, k=k))])
        assert integrate(weighted, -k, b) < 0

    def test_domains(self):
        with pytest.raises(InvalidParameterError):
            lemma_x1_sign(2)
        with pytest.raises(InvalidParameterError):
            lemma_x3nk_sign(3, 3)


class TestAsymptoticBounds:
    def test_x1_bound_at_10(self):
        check = asymptotic_bounds("X1", 10)
        assert check.rhs == F(10, 12)
        assert check.holds and check.margin > 0

    def test_x3_bound_at_10_3(self):
        check = asymptotic_bounds("X3", 10, 3)
        assert check.rhs == F(16, 19)
        assert check.holds and check.margin > 0

    def test_stirling_at_8(self):
        check = asymptotic_bounds("X3", 8, 8)
        assert check.holds and check.margin > 0

    def test_x1_x3_bounds_are_segment_ratios(self):
        # On the engine's segment [-a, b] the bound is a/(a+b) for X1, where
        # tbar > 0, and b/(a+b) for X3(n, k < n), where tbar < 0: it places
        # tbar on its side of the segment and carries no rate.
        data = [engine.HorosphericalDatum("X1", n=n) for n in range(3, 31)]
        data += [engine.HorosphericalDatum("X3", n=n, k=k) for n in range(3, 31) for k in range(2, n)]
        for datum in data:
            seg = engine.report(datum).segment
            near = seg.a if datum.family == "X1" else seg.b
            rhs = asymptotic_bounds(datum.family, *datum.params.values()).rhs
            assert rhs == F(near, seg.a + seg.b), datum.label()

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            asymptotic_bounds("X2", 3)
        with pytest.raises(InvalidParameterError):
            asymptotic_bounds("X1", 5, 2)
        with pytest.raises(InvalidParameterError):
            asymptotic_bounds("X3", 5)


class TestStirlingPrecision:
    """The exact X3(n, n) check, with pi replaced by PI_UPPER, against the
    bound itself evaluated with mpmath at 90 digits."""

    @staticmethod
    def _reference_holds(n):
        with mpmath.workdps(90):
            c = mpmath.mpf(2 * n + 1) ** (2 * n + 1) / mpmath.mpf(2 * n) ** (2 * n + 1)
            bound = 2 * mpmath.sqrt(2 * n + 1) * c / (mpmath.pi * (n + 2))
            r = r_x3nn_closed(n)
            return mpmath.mpf(r.numerator) / r.denominator < bound

    def test_pi_upper_exceeds_pi(self):
        with mpmath.workdps(90):
            assert mpmath.mpf(PI_UPPER.numerator) / PI_UPPER.denominator > mpmath.pi

    @pytest.mark.parametrize("n", [2, 8, 30, 100, 400])
    def test_agrees_with_higher_precision(self, n):
        check = asymptotic_bounds("X3", n, n)
        assert check.relation == "upper-bound"
        assert check.rhs == 2 * n + 1
        assert check.holds == self._reference_holds(n)
        assert 1 - check.lhs / check.rhs >= F(1, 10)

    def test_detects_a_larger_r(self, monkeypatch):
        exact = closedforms.r_x3nn_closed
        monkeypatch.setattr(closedforms, "r_x3nn_closed", lambda n: exact(n) * F(6, 5))
        assert not all(asymptotic_bounds("X3", n, n).holds for n in range(2, 25))


class TestBoundCheckSemantics:
    def test_relations(self):
        from grlb.closedforms import BoundCheck

        assert BoundCheck("lower-bound", F(2), F(1)).holds
        assert not BoundCheck("lower-bound", F(1), F(2)).holds
        assert not BoundCheck("lower-bound", F(2), F(2)).holds
        assert BoundCheck("upper-bound", F(1), F(2)).holds
        assert not BoundCheck("upper-bound", F(2), F(2)).holds
        # A sign check is a lower bound against 0; no other tag is accepted.
        for tag in ("sign", "equality", "between", "sideways"):
            with pytest.raises(ValueError, match=f"unknown relation tag '{tag}'"):
                BoundCheck(tag, F(1), F(1))
        with pytest.raises(ValueError, match="unknown relation tag 'sideways'"):
            BoundCheck(relation="sideways", lhs=F(1), rhs=F(0))

    def test_fields_are_read_only(self):
        from grlb.closedforms import BoundCheck

        check = BoundCheck("lower-bound", F(2), F(1))
        for name in ("relation", "lhs", "rhs", "other"):
            with pytest.raises(AttributeError):
                setattr(check, name, F(0))
        assert check.holds

    def test_margins(self):
        from grlb.closedforms import BoundCheck

        assert BoundCheck("lower-bound", F(3), F(1)).margin == 2
        assert BoundCheck("upper-bound", F(1), F(3)).margin == 2
        assert BoundCheck("lower-bound", F(5), F(0)).margin == 5
        assert BoundCheck("upper-bound", F(3), F(1)).margin == -2

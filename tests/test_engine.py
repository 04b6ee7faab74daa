"""Tests for the moment-segment pipeline: goldens, invariances, error paths."""

import hashlib
import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grlb.closedforms import r_x1_formula, r_x3_formula
from grlb.engine import (
    DegenerateMeasureError,
    HorosphericalDatum,
    InvalidDatumError,
    MomentSegment,
    barycenter_on,
    barycenter_t,
    dh_polynomial_on,
    greatest_ricci_lower_bound,
    moment_segment,
    phi_pu,
    report,
    resolve,
    ricci_bound,
    two_rho_P,
)
from grlb.engine import _form_moments
from grlb.exactnum import Polynomial, integrate, poly_product
from grlb.rootsystems import WeightExpr, build_root_system

F = Fraction

FIXED = [HorosphericalDatum("X2"), HorosphericalDatum("X4"), HorosphericalDatum("X5")]


def dh_polynomial(datum):
    """The datum's dense Duistermaat-Heckman density in t."""
    rs, _, _ = resolve(datum)
    return dh_polynomial_on(rs, moment_segment(datum))


def dimension(datum):
    return report(datum).dimension


def small_grid():
    data = list(FIXED)
    data += [HorosphericalDatum("X1", n=n) for n in (3, 4, 5)]
    data += [HorosphericalDatum("X3", n=n, k=k) for n in (2, 3, 4, 5) for k in range(2, n + 1)]
    return data


class TestDatumValidation:
    def test_valid(self):
        HorosphericalDatum("X1", n=3)
        HorosphericalDatum("X3", n=7, k=4)
        HorosphericalDatum("X5")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"family": "X1", "n": 2},
            {"family": "X1"},
            {"family": "X1", "n": 4, "k": 2},
            {"family": "X3", "n": 3, "k": 4},
            {"family": "X3", "n": 3, "k": 1},
            {"family": "X3", "n": 3},
            {"family": "X2", "n": 3},
            {"family": "X9"},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(InvalidDatumError):
            HorosphericalDatum(**kwargs)

    def test_ceiling(self, monkeypatch):
        monkeypatch.delenv("GRLB_MAX_N", raising=False)
        with pytest.raises(InvalidDatumError):
            resolve(HorosphericalDatum("X1", n=101))
        monkeypatch.setenv("GRLB_MAX_N", "150")
        rs, i, j = resolve(HorosphericalDatum("X1", n=101))
        assert rs.rank == 101 and (i, j) == (100, 101)
        for bad in ("abc", "1"):
            monkeypatch.setenv("GRLB_MAX_N", bad)
            with pytest.raises(InvalidDatumError):
                resolve(HorosphericalDatum("X1", n=3))


class TestResolve:
    def test_triples(self):
        cases = [
            (HorosphericalDatum("X5"), "G2", 2, (2, 1)),
            (HorosphericalDatum("X3", n=7, k=4), "C", 7, (4, 3)),
            (HorosphericalDatum("X1", n=3), "B", 3, (2, 3)),
            (HorosphericalDatum("X2"), "B", 3, (1, 3)),
            (HorosphericalDatum("X4"), "F4", 4, (2, 3)),
        ]
        for datum, label, rank, marked in cases:
            rs, i, j = resolve(datum)
            assert (rs.type_label, rs.rank, (i, j)) == (label, rank, marked)


class TestPhiPu:
    def test_sizes(self):
        assert len(phi_pu(build_root_system("G2", 2), 2, 1)) == 6
        assert len(phi_pu(build_root_system("B", 3), 1, 3)) == 8
        assert len(phi_pu(build_root_system("F4", 4), 2, 3)) == 22

    def test_marked_index_validation(self):
        rs = build_root_system("B", 3)
        with pytest.raises(ValueError):
            phi_pu(rs, 2, 2)
        with pytest.raises(ValueError):
            phi_pu(rs, 0, 1)


class TestTwoRhoP:
    def test_known_values(self):
        assert two_rho_P(build_root_system("B", 3), 1, 3) == WeightExpr({1: 3, 3: 4})
        assert two_rho_P(build_root_system("F4", 4), 2, 3) == WeightExpr({2: 3, 3: 3})
        assert two_rho_P(build_root_system("G2", 2), 1, 2) == WeightExpr({1: 2, 2: 2})

    @pytest.mark.parametrize("n", range(3, 13))
    def test_b_family_formula(self, n):
        rs = build_root_system("B", n)
        assert two_rho_P(rs, n - 1, n) == WeightExpr({n - 1: n, n: 2})

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 13) for k in range(2, n + 1)])
    def test_c_family_formula(self, n, k):
        rs = build_root_system("C", n)
        assert two_rho_P(rs, k, k - 1) == WeightExpr({k - 1: k, k: 2 * n - 2 * k + 2})


class TestMomentSegment:
    def test_x5_segment(self):
        seg = moment_segment(HorosphericalDatum("X5"))
        # Orientation puts the growing coefficient on the first weight.
        assert (seg.i, seg.j, seg.a, seg.b) == (1, 2, 2, 2)
        assert seg.point_at(seg.b) == WeightExpr({1: 4})
        assert seg.point_at(-seg.a) == WeightExpr({2: 4})

    def test_x2_segment(self):
        seg = moment_segment(HorosphericalDatum("X2"))
        assert (seg.i, seg.j, seg.a, seg.b) == (1, 3, 3, 4)
        assert seg.point_at(seg.b) == WeightExpr({1: 7})
        assert seg.point_at(-seg.a) == WeightExpr({3: 7})

    def test_x4_segment(self):
        seg = moment_segment(HorosphericalDatum("X4"))
        assert (seg.i, seg.j, seg.a, seg.b) == (2, 3, 3, 3)

    @pytest.mark.parametrize("n,k", [(3, 2), (5, 3), (7, 4), (6, 6)])
    def test_x3_segment(self, n, k):
        seg = moment_segment(HorosphericalDatum("X3", n=n, k=k))
        assert (seg.i, seg.j) == (k - 1, k)
        assert (seg.a, seg.b) == (k, 2 * n - 2 * k + 2)

    @pytest.mark.parametrize("n", [3, 6, 9])
    def test_x1_segment(self, n):
        seg = moment_segment(HorosphericalDatum("X1", n=n))
        assert (seg.i, seg.j, seg.a, seg.b) == (n - 1, n, n, 2)

    def test_segment_validation(self):
        with pytest.raises(ValueError):
            MomentSegment(WeightExpr({1: 2, 2: 2}), 1, 2, F(-2), F(2))
        with pytest.raises(ValueError):
            MomentSegment(WeightExpr({1: 2, 3: 2}), 1, 2, F(2), F(2))


class TestDhPolynomial:
    def test_x2_matches_displayed_closed_form(self):
        # (49/4)(3+t)^2 (4-t)^3 (5+t/2), coefficient for coefficient.
        expected = (
            F(49, 4)
            * Polynomial((3, 1)) ** 2
            * Polynomial((4, -1)) ** 3
            * Polynomial((5, F(1, 2)))
        )
        assert dh_polynomial(HorosphericalDatum("X2")) == expected

    def test_x5_at_zero(self):
        assert dh_polynomial(HorosphericalDatum("X5"))(0) == 3240

    def test_degrees(self):
        # Combinations with equal marked contributions produce constant
        # factors, so the degree can fall below the factor count.
        for datum, expected_degree in [
            (HorosphericalDatum("X2"), 6),
            (HorosphericalDatum("X5"), 5),
            (HorosphericalDatum("X4"), 15),
        ]:
            density = dh_polynomial(datum)
            assert density.degree == expected_degree
            assert density.degree <= dimension(datum) - 1

    @pytest.mark.parametrize("datum", small_grid(), ids=lambda d: d.label())
    def test_positive_inside_zero_at_endpoints(self, datum):
        density = dh_polynomial(datum)
        seg = moment_segment(datum)
        assert density(-seg.a) == 0
        assert density(seg.b) == 0
        for step in range(1, 6):
            t = -seg.a + step * (seg.a + seg.b) / 6
            assert density(t) > 0

    def test_x1_closed_form(self):
        # ((n+2)^(n-1) / 2^n) (2-t)(n+t)^(n-1)(t+2n+2)^(n(n-1)/2)
        n = 5
        expected = (
            F((n + 2) ** (n - 1), 2**n)
            * Polynomial((2, -1))
            * Polynomial((n, 1)) ** (n - 1)
            * Polynomial((2 * n + 2, 1)) ** (n * (n - 1) // 2)
        )
        assert dh_polynomial(HorosphericalDatum("X1", n=n)) == expected

    def test_x3nn_closed_form(self):
        # 2 (2n+4)^(n(n-1)/2) (n+t)^(n-1) (2-t) (n+4-t)^(n-1)
        n = 4
        expected = (
            F(2 * (2 * n + 4) ** (n * (n - 1) // 2))
            * Polynomial((n, 1)) ** (n - 1)
            * Polynomial((2, -1))
            * Polynomial((n + 4, -1)) ** (n - 1)
        )
        assert dh_polynomial(HorosphericalDatum("X3", n=n, k=n)) == expected

    def test_x3nk_closed_form(self):
        # 2 (2n-k+2)^(2(k-1)(n-k)) (2(2n-k+2))^(k(k-1)/2)
        #   * (k+t)^(k-1) (2n-2k+2-t)^(2n-2k+1) (4n-3k+4-t)^(k-1)
        n, k = 5, 3
        b = 2 * n - 2 * k + 2
        constant = F(
            2
            * (2 * n - k + 2) ** (2 * (k - 1) * (n - k))
            * (2 * (2 * n - k + 2)) ** (k * (k - 1) // 2)
        )
        expected = (
            constant
            * Polynomial((k, 1)) ** (k - 1)
            * Polynomial((b, -1)) ** (2 * n - 2 * k + 1)
            * Polynomial((4 * n - 3 * k + 4, -1)) ** (k - 1)
        )
        assert dh_polynomial(HorosphericalDatum("X3", n=n, k=k)) == expected


class TestBarycenterAndBound:
    def test_barycenter_goldens(self):
        assert barycenter_t(HorosphericalDatum("X5")) == F(-11, 28)
        assert barycenter_t(HorosphericalDatum("X2")) == F(3, 20)
        assert barycenter_t(HorosphericalDatum("X4")) == F(64553303, 59664033)

    def test_bound_goldens(self):
        assert greatest_ricci_lower_bound(HorosphericalDatum("X5")) == F(56, 67)
        assert greatest_ricci_lower_bound(HorosphericalDatum("X2")) == F(20, 21)
        assert greatest_ricci_lower_bound(HorosphericalDatum("X4")) == F(178992099, 243545402)
        assert greatest_ricci_lower_bound(HorosphericalDatum("X3", n=2, k=2)) == F(15, 16)

    def test_zero_barycenter_gives_one(self):
        assert ricci_bound(F(3), F(4), F(0)) == 1

    @pytest.mark.parametrize("datum", small_grid(), ids=lambda d: d.label())
    def test_barycenter_interior_and_bound_range(self, datum):
        rep = report(datum)
        seg = rep.segment
        assert -seg.a < rep.barycenter_t < seg.b
        assert 0 < rep.R < 1

    def test_barycenter_signs(self):
        for n in range(3, 9):
            assert barycenter_t(HorosphericalDatum("X1", n=n)) > 0
        for n in range(2, 7):
            for k in range(2, n + 1):
                assert barycenter_t(HorosphericalDatum("X3", n=n, k=k)) < 0

    def test_degenerate_measure_guard(self):
        datum = HorosphericalDatum("X5")
        rs, _, _ = resolve(datum)
        seg = moment_segment(datum)
        crushed = replace(rs, half_lengths=(F(0), F(0)))
        with pytest.raises(DegenerateMeasureError):
            barycenter_on(crushed, seg)


class TestReport:
    def test_x5_report(self):
        rep = report(HorosphericalDatum("X5"))
        assert rep.dimension == 7
        assert rep.volume == 9216
        assert rep.barycenter_point == WeightExpr({1: F(45, 28), 2: F(67, 28)})

    def test_x2_report(self):
        rep = report(HorosphericalDatum("X2"))
        assert rep.barycenter_point == WeightExpr({1: F(63, 20), 3: F(77, 20)})

    def test_x4_report(self):
        rep = report(HorosphericalDatum("X4"))
        assert rep.barycenter_point == WeightExpr(
            {2: F(243545402, 59664033), 3: F(114438796, 59664033)}
        )

    def test_x1_3_rendered(self):
        from grlb.exactnum import to_decimal

        rep = report(HorosphericalDatum("X1", n=3))
        assert to_decimal(rep.R, 4) == "0.8955"


class TestInvariances:
    @pytest.mark.parametrize("lam", [F(2), F(1, 3)])
    @pytest.mark.parametrize("datum", small_grid(), ids=lambda d: d.label())
    def test_scale_invariance(self, datum, lam):
        rs, _, _ = resolve(datum)
        seg = moment_segment(datum)
        scaled = replace(rs, half_lengths=tuple(lam * d for d in rs.half_lengths))
        count = len(phi_pu(rs, seg.i, seg.j))
        assert dh_polynomial_on(scaled, seg) == lam**count * dh_polynomial_on(rs, seg)
        assert barycenter_on(scaled, seg) == barycenter_on(rs, seg)

    @pytest.mark.parametrize("datum", small_grid(), ids=lambda d: d.label())
    def test_orientation_flip(self, datum):
        rs, _, _ = resolve(datum)
        seg = moment_segment(datum)
        flipped = MomentSegment(seg.two_rho_P, seg.j, seg.i, seg.b, seg.a)
        t_bar = barycenter_on(rs, seg)
        t_bar_flipped = barycenter_on(rs, flipped)
        assert t_bar_flipped == -t_bar
        assert ricci_bound(flipped.a, flipped.b, t_bar_flipped) == ricci_bound(
            seg.a, seg.b, t_bar
        )


class TestDimension:
    def test_fixed_families(self):
        assert dimension(HorosphericalDatum("X5")) == 7
        assert dimension(HorosphericalDatum("X2")) == 9
        assert dimension(HorosphericalDatum("X4")) == 23

    @pytest.mark.parametrize("n", range(3, 13))
    def test_x1_formula(self, n):
        assert dimension(HorosphericalDatum("X1", n=n)) == n * (n + 3) // 2

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 13) for k in range(2, n + 1)])
    def test_x3_formula(self, n, k):
        assert dimension(HorosphericalDatum("X3", n=n, k=k)) == k * (4 * n - 3 * k + 3) // 2

    def test_volume_consistency(self):
        # Volume equals the plain integral of the density over the segment.
        datum = HorosphericalDatum("X3", n=4, k=3)
        rep = report(datum)
        density = dh_polynomial(datum)
        assert rep.volume == integrate(density, -rep.segment.a, rep.segment.b)


#: SHA-256 of "p/q" for report(X1(100)), as computed by the earlier Beta-sum integration.
X1_100_DIGESTS = {
    "R": "70f668088f067d83ed3f81ad240803cc8aa3992c96a5455d095ffb8d69402df6",
    "barycenter_t": "c5c987aab097ccdd447a153b6537334ae147333edd1a7fc784235087ed15485a",
}


def _sha256(v: Fraction) -> str:
    return hashlib.sha256(f"{v.numerator}/{v.denominator}".encode()).hexdigest()


def dense_grid():
    data = list(FIXED)
    data += [HorosphericalDatum("X1", n=n) for n in range(3, 26)]
    data += [HorosphericalDatum("X3", n=n, k=k) for n in range(2, 13) for k in range(2, n + 1)]
    return data


class TestFactoredMoments:
    """The engine integrates the factored density; the dense expansion is an
    independent route to the same exact moments."""

    @pytest.mark.parametrize("datum", dense_grid(), ids=lambda d: d.label())
    def test_moments_equal_dense_integrals(self, datum):
        rep = report(datum)
        density = dh_polynomial(datum)
        lo, hi = -rep.segment.a, rep.segment.b
        assert rep.volume == integrate(density, lo, hi)
        assert rep.barycenter_t * rep.volume == integrate(Polynomial((0, 1)) * density, lo, hi)
        assert rep.dh_degree == density.degree

    def test_x1_50_equals_closed_form(self):
        assert report(HorosphericalDatum("X1", n=50)).R == r_x1_formula(50)

    def test_x3_70_35_equals_closed_form(self):
        assert report(HorosphericalDatum("X3", n=70, k=35)).R == r_x3_formula(70, 35)

    def test_x1_100_digests(self):
        rep = report(HorosphericalDatum("X1", n=100))
        digests = {name: _sha256(v) for name, v in (("R", rep.R), ("barycenter_t", rep.barycenter_t))}
        assert digests == X1_100_DIGESTS

    def test_x1_100_closed_form_digest(self):
        assert _sha256(r_x1_formula(100)) == X1_100_DIGESTS["R"]

    @pytest.mark.parametrize("k", [*range(2, 9), 50, 100])
    def test_x3_100_equals_closed_form(self, k):
        assert report(HorosphericalDatum("X3", n=100, k=k)).R == r_x3_formula(100, k)


coprime_forms = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(
    lambda f: f[1] != 0 and math.gcd(*f) == 1
)
form_multisets = st.lists(st.tuples(coprime_forms, st.integers(1, 9)), max_size=4).map(
    lambda items: Counter(dict(items))
)


class TestFormMoments:
    """The dominant-form rule against the dense product integrated over [0, 1]."""

    @given(form_multisets)
    @settings(max_examples=150)
    @example(Counter())
    @example(Counter({(0, 1): 7}))
    @example(Counter({(1, -1): 5}))
    @example(Counter({(0, 1): 3, (1, -1): 3}))
    @example(Counter({(1, 1): 4, (2, -1): 4, (0, 1): 2}))
    @example(Counter({(-3, 2): 6, (1, -4): 2, (3, -1): 6}))
    def test_matches_dense_integrals(self, forms):
        dense = poly_product(Polynomial.linear(c0, c1) ** m for (c0, c1), m in forms.items())
        assert _form_moments(forms) == (
            integrate(dense, 0, 1),
            integrate(Polynomial((0, 1)) * dense, 0, 1),
        )


class TestFactorialForm:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_x3nn_engine_equals_factorial_expression(self, n):
        expected = F(2 * math.factorial(2 * n + 1), (n + 2) * (2**n * math.factorial(n)) ** 2)
        assert greatest_ricci_lower_bound(HorosphericalDatum("X3", n=n, k=n)) == expected

"""Tests for the moment-segment pipeline: goldens, invariances, error paths."""

import hashlib
import math
import pickle
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grlb import engine, oracle, rootsystems
from grlb.closedforms import r_x1_formula, r_x3_formula
from grlb.engine import (
    DegenerateMeasureError,
    HorosphericalDatum,
    InvalidDatumError,
    MomentSegment,
    report,
    ricci_bound,
)
from grlb.engine import _barycenter, _form_moments, _forms, _segment
from grlb.rootsystems import unipotent_radical
from grlb.suites import _oracle_data, run_suite
from reference import (
    barycenter_on, build_root_system, dense_density, dense_moments, dh_polynomial_on, grlb_imports,
    integrate, moment_segment, phi_pu, poly_product, resolve, table_marked, two_rho_P, weight_of_root_sum,
)

F = Fraction

FIXED = [HorosphericalDatum("X2"), HorosphericalDatum("X4"), HorosphericalDatum("X5")]


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

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"family": "X1", "n": 3.0},
            {"family": "X1", "n": "7"},
            {"family": "X1", "n": True},
            {"family": "X3", "n": 5, "k": 2.0},
            {"family": "X3", "n": F(5), "k": 2},
            {"family": "X3", "n": 5, "k": False},
        ],
    )
    def test_parameters_must_be_int(self, kwargs):
        # Caught at construction, not as a TypeError inside the root table.
        with pytest.raises(InvalidDatumError, match="must be an integer"):
            HorosphericalDatum(**kwargs)

    @pytest.mark.parametrize(
        "args, message",
        [
            (("X9",), "unknown family 'X9': the classification lists X1..X5"),
            (("X1", True), "n must be an integer, got True"),
            (("X3", 5, 2.0), "k must be an integer, got 2.0"),
            (("X1", 2), "family X1 requires n >= 3"),
            (("X1", 4, 2), "family X1 takes no parameter k"),
            (("X3", 3, 4), "family X3 requires n >= k >= 2"),
            (("X2", 3), "family X2 takes no parameters"),
        ],
    )
    def test_positional_and_keyword_give_the_same_error(self, args, message):
        kwargs = dict(zip(("family", "n", "k"), args))
        for call in (lambda: HorosphericalDatum(*args), lambda: HorosphericalDatum(**kwargs)):
            with pytest.raises(InvalidDatumError) as info:
                call()
            assert str(info.value) == message

    def test_fields_are_read_only(self):
        datum = HorosphericalDatum("X3", n=7, k=4)
        for name in ("family", "n", "k", "other"):
            with pytest.raises(AttributeError):
                setattr(datum, name, 5)
        assert datum == HorosphericalDatum("X3", 7, 4)

    def test_pickle_round_trip_validates_again(self):
        for datum in (HorosphericalDatum("X1", n=5), HorosphericalDatum("X3", 7, 4), HorosphericalDatum("X5")):
            loaded = pickle.loads(pickle.dumps(datum))
            assert type(loaded) is HorosphericalDatum and loaded == datum
        # _make skips the validation; loading the pickle runs it.
        bad = pickle.dumps(HorosphericalDatum._make(("X1", 2, None)))
        with pytest.raises(InvalidDatumError, match="family X1 requires n >= 3"):
            pickle.loads(bad)

    def test_label(self):
        assert HorosphericalDatum("X1", n=5).label() == "X1(5)"
        assert HorosphericalDatum("X3", n=7, k=4).label() == "X3(7,4)"
        assert [HorosphericalDatum(f).label() for f in ("X2", "X4", "X5")] == ["X2", "X4", "X5"]

    def test_ceiling(self, monkeypatch):
        monkeypatch.delenv("GRLB_MAX_N", raising=False)
        with pytest.raises(InvalidDatumError):
            resolve(HorosphericalDatum("X1", n=101))
        monkeypatch.setenv("GRLB_MAX_N", "150")
        rs, i, j = resolve(HorosphericalDatum("X1", n=101))
        assert rs.rank == 101 and (i, j) == (100, 101)
        # The ceiling is read for every datum, parameter-free families included.
        for bad in ("abc", "1"):
            monkeypatch.setenv("GRLB_MAX_N", bad)
            for datum in (HorosphericalDatum("X1", n=3), HorosphericalDatum("X5")):
                with pytest.raises(InvalidDatumError):
                    resolve(datum)


class TestResolve:
    def test_triples(self):
        # (i, j) is oriented: the coefficient of w_i grows with t.
        cases = [
            (HorosphericalDatum("X5"), "G2", 2, (1, 2)),
            (HorosphericalDatum("X3", n=7, k=4), "C", 7, (3, 4)),
            (HorosphericalDatum("X1", n=3), "B", 3, (2, 3)),
            (HorosphericalDatum("X2"), "B", 3, (1, 3)),
            (HorosphericalDatum("X4"), "F4", 4, (2, 3)),
        ]
        for datum, label, rank, marked in cases:
            rs, i, j = resolve(datum)
            assert (rs.type_label, rs.rank, (i, j)) == (label, rank, marked)

    @pytest.mark.parametrize(
        "datum", [HorosphericalDatum("X1", n=5), HorosphericalDatum("X3", n=5, k=3), *FIXED], ids=str
    )
    def test_report_segment_uses_the_resolved_pair(self, datum):
        seg = report(datum).segment
        assert resolve(datum)[1:] == (seg.i, seg.j)
        assert moment_segment(datum) == seg


class TestNoRootTable:
    """`report` walks Phi_Pu and the oracle reads the epsilon basis; only `resolve` builds a table."""

    TABLE_WORK = ("build_root_system", "weight_of_root_sum", "phi_pu")

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = Counter()
        for module in (engine, rootsystems):
            for name in self.TABLE_WORK:
                if name in vars(module):

                    def counted(*args, _fn=getattr(module, name), _name=name):
                        calls[_name] += 1
                        return _fn(*args)

                    monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize(
        "datum",
        [HorosphericalDatum("X1", n=n) for n in (3, 30, 100)]
        + [HorosphericalDatum("X3", n=n, k=k) for n, k in ((2, 2), (70, 8), (100, 50), (100, 100))]
        + FIXED,
        ids=str,
    )
    def test_report_builds_no_table(self, calls, datum):
        report(datum)
        moment_segment(datum)
        assert calls == {}

    @pytest.mark.parametrize(
        "datum",
        [HorosphericalDatum("X1", n=7), HorosphericalDatum("X3", n=6, k=3), *FIXED],
        ids=str,
    )
    def test_crosscheck_builds_one_table(self, calls, monkeypatch, datum):
        """The one table a cross-check builds is the oracle's epsilon-basis root list."""
        built = Counter()

        def counted(*args, _fn=oracle._plate):
            built[args] += 1
            return _fn(*args)

        monkeypatch.setattr(oracle, "_plate", counted)
        assert oracle.crosscheck(datum).ok
        assert calls == {}
        assert built == {oracle._root_system(datum)[:2]: 1}

    def test_oracle_suite_builds_one_table_per_root_system(self, calls, monkeypatch):
        """The suite batches its data by root system: one epsilon-basis root list each."""
        built = Counter()

        def counted(*args, _fn=oracle._plate):
            built[args] += 1
            return _fn(*args)

        monkeypatch.setattr(oracle, "_plate", counted)
        assert all(r.passed for r in run_suite("oracle", 10))
        assert calls == {}
        assert built == Counter({oracle._root_system(d)[:2]: 1 for d in _oracle_data(10)})


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
        assert two_rho_P(build_root_system("B", 3), 1, 3) == {1: 3, 3: 4}
        assert two_rho_P(build_root_system("F4", 4), 2, 3) == {2: 3, 3: 3}
        assert two_rho_P(build_root_system("G2", 2), 1, 2) == {1: 2, 2: 2}

    @pytest.mark.parametrize("n", range(3, 13))
    def test_b_family_formula(self, n):
        rs = build_root_system("B", n)
        assert two_rho_P(rs, n - 1, n) == {n - 1: n, n: 2}

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 13) for k in range(2, n + 1)])
    def test_c_family_formula(self, n, k):
        rs = build_root_system("C", n)
        assert two_rho_P(rs, k - 1, k) == {k - 1: k, k: 2 * n - 2 * k + 2}


class TestMomentSegment:
    def test_x5_segment(self):
        seg = moment_segment(HorosphericalDatum("X5"))
        # Orientation puts the growing coefficient on the first weight.
        assert seg == MomentSegment(1, 2, 2, 2)

    def test_x2_segment(self):
        seg = moment_segment(HorosphericalDatum("X2"))
        assert seg == MomentSegment(1, 3, 3, 4)

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
        # 2*rho_P must be supported exactly on the marked pair.
        rs = build_root_system("B", 3)
        assert _segment(1, 3, two_rho_P(rs, 1, 3)) == MomentSegment(1, 3, 3, 4)
        for roots in [rs.positive_roots, phi_pu(rs, 1, 2), [(1, 0, 0)]]:
            with pytest.raises(ValueError, match="supported exactly on the marked indices"):
                _segment(1, 3, weight_of_root_sum(rs, roots))
        # The walk's 2*rho_P for B_3's pair (1, 2) is {1: 2, 2: 3}, off {1, 3}.
        _, off_support = unipotent_radical("B", 3, 1, 2)
        assert off_support == {1: 2, 2: 3}
        with pytest.raises(ValueError, match="supported exactly on the marked indices"):
            _segment(1, 3, off_support)


class TestDhPolynomial:
    def test_x2_matches_displayed_closed_form(self):
        # (49/4)(3+t)^2 (4-t)^3 (5+t/2), coefficient for coefficient.
        expected = poly_product([(F(49, 4),)] + [(3, 1)] * 2 + [(4, -1)] * 3 + [(5, F(1, 2))])
        assert dense_density(HorosphericalDatum("X2")) == expected

    def test_x5_at_zero(self, horner):
        assert horner(dense_density(HorosphericalDatum("X5")), 0) == 3240

    def test_degrees(self):
        # Combinations with equal marked contributions produce constant
        # factors, so the degree can fall below the factor count.
        for datum, expected_degree in [
            (HorosphericalDatum("X2"), 6),
            (HorosphericalDatum("X5"), 5),
            (HorosphericalDatum("X4"), 15),
        ]:
            degree = len(dense_density(datum)) - 1
            assert degree == expected_degree
            assert degree <= dimension(datum) - 1

    @pytest.mark.parametrize("datum", small_grid(), ids=lambda d: d.label())
    def test_positive_inside_zero_at_endpoints(self, datum, horner):
        density = dense_density(datum)
        seg = moment_segment(datum)
        assert horner(density, -seg.a) == 0
        assert horner(density, seg.b) == 0
        for step in range(1, 6):
            t = -seg.a + step * (seg.a + seg.b) / 6
            assert horner(density, t) > 0

    def test_x1_closed_form(self):
        # ((n+2)^(n-1) / 2^n) (2-t)(n+t)^(n-1)(t+2n+2)^(n(n-1)/2)
        n = 5
        expected = poly_product(
            [(F((n + 2) ** (n - 1), 2**n),), (2, -1)]
            + [(n, 1)] * (n - 1)
            + [(2 * n + 2, 1)] * (n * (n - 1) // 2)
        )
        assert dense_density(HorosphericalDatum("X1", n=n)) == expected

    def test_x3nn_closed_form(self):
        # 2 (2n+4)^(n(n-1)/2) (n+t)^(n-1) (2-t) (n+4-t)^(n-1)
        n = 4
        expected = poly_product(
            [(2 * (2 * n + 4) ** (n * (n - 1) // 2),)]
            + [(n, 1)] * (n - 1)
            + [(2, -1)]
            + [(n + 4, -1)] * (n - 1)
        )
        assert dense_density(HorosphericalDatum("X3", n=n, k=n)) == expected

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
        expected = poly_product(
            [(constant,)]
            + [(k, 1)] * (k - 1)
            + [(b, -1)] * (2 * n - 2 * k + 1)
            + [(4 * n - 3 * k + 4, -1)] * (k - 1)
        )
        assert dense_density(HorosphericalDatum("X3", n=n, k=k)) == expected


class TestBarycenterAndBound:
    def test_barycenter_goldens(self):
        assert report(HorosphericalDatum("X5")).barycenter_t == F(-11, 28)
        assert report(HorosphericalDatum("X2")).barycenter_t == F(3, 20)
        assert report(HorosphericalDatum("X4")).barycenter_t == F(64553303, 59664033)

    def test_bound_goldens(self):
        assert report(HorosphericalDatum("X5")).R == F(56, 67)
        assert report(HorosphericalDatum("X2")).R == F(20, 21)
        assert report(HorosphericalDatum("X4")).R == F(178992099, 243545402)
        assert report(HorosphericalDatum("X3", n=2, k=2)).R == F(15, 16)

    def test_zero_barycenter_gives_one(self):
        assert ricci_bound(3, 4, F(0)) == 1
        assert type(ricci_bound(3, 4, F(0))) is Fraction

    @pytest.mark.parametrize("datum", small_grid(), ids=lambda d: d.label())
    def test_barycenter_interior_and_bound_range(self, datum):
        rep = report(datum)
        seg = rep.segment
        assert -seg.a < rep.barycenter_t < seg.b
        assert 0 < rep.R < 1

    def test_barycenter_signs(self):
        for n in range(3, 9):
            assert report(HorosphericalDatum("X1", n=n)).barycenter_t > 0
        for n in range(2, 7):
            for k in range(2, n + 1):
                assert report(HorosphericalDatum("X3", n=n, k=k)).barycenter_t < 0

    def test_degenerate_measure_guard(self):
        datum = HorosphericalDatum("X5")
        rs, _, _ = resolve(datum)
        seg = moment_segment(datum)
        crushed = rs._replace(half_lengths=(F(0), F(0)))
        with pytest.raises(DegenerateMeasureError):
            barycenter_on(crushed, seg)

    def test_zero_integral_guard(self):
        # The single form 1 - 2*sigma, whose integral over [0, 1] is 0.
        with pytest.raises(DegenerateMeasureError):
            _barycenter(MomentSegment(1, 2, 1, 1), Counter({(1, -2): 1}))


def barycenter_point(rep):
    """gamma(tbar) = (a+tbar) w_i + (b-tbar) w_j as {i: a+tbar, j: b-tbar}."""
    seg, t_bar = rep.segment, rep.barycenter_t
    return {seg.i: seg.a + t_bar, seg.j: seg.b - t_bar}


class TestReport:
    def test_x5_report(self):
        datum = HorosphericalDatum("X5")
        rep = report(datum)
        assert rep.dimension == 7
        volume, first = dense_moments(datum)
        assert volume == 9216
        assert rep.barycenter_t == first / volume
        assert barycenter_point(rep) == {1: F(45, 28), 2: F(67, 28)}

    def test_x2_report(self):
        rep = report(HorosphericalDatum("X2"))
        assert barycenter_point(rep) == {1: F(63, 20), 3: F(77, 20)}

    def test_x4_report(self):
        rep = report(HorosphericalDatum("X4"))
        assert barycenter_point(rep) == {2: F(243545402, 59664033), 3: F(114438796, 59664033)}

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
        scaled = rs._replace(half_lengths=tuple(lam * d for d in rs.half_lengths))
        count = len(phi_pu(rs, seg.i, seg.j))
        assert dh_polynomial_on(scaled, seg) == poly_product([(lam**count,), dh_polynomial_on(rs, seg)])
        assert barycenter_on(scaled, seg) == barycenter_on(rs, seg)

    @pytest.mark.parametrize("datum", small_grid(), ids=lambda d: d.label())
    def test_orientation_flip(self, datum):
        rs, _, _ = resolve(datum)
        seg = moment_segment(datum)
        flipped = MomentSegment(seg.j, seg.i, seg.b, seg.a)
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
        # The dense volume, pinned, and tbar as the dense first moment over it.
        datum = HorosphericalDatum("X3", n=4, k=3)
        volume, first = dense_moments(datum)
        assert volume == F(9495123019886, 3)
        assert report(datum).barycenter_t == first / volume


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
        volume, first = dense_moments(datum)
        assert report(datum).barycenter_t == first / volume

    def test_x1_50_equals_closed_form(self):
        assert report(HorosphericalDatum("X1", n=50)).R == r_x1_formula(50)

    def test_x3_70_35_equals_closed_form(self):
        assert report(HorosphericalDatum("X3", n=70, k=35)).R == r_x3_formula(70, 35)

    def test_past_default_ceiling(self, monkeypatch):
        monkeypatch.setenv("GRLB_MAX_N", "200")
        assert report(HorosphericalDatum("X1", n=150)).R == r_x1_formula(150)
        assert report(HorosphericalDatum("X3", n=150, k=75)).R == r_x3_formula(150, 75)

    def test_x1_100_digests(self):
        rep = report(HorosphericalDatum("X1", n=100))
        digests = {name: _sha256(v) for name, v in (("R", rep.R), ("barycenter_t", rep.barycenter_t))}
        assert digests == X1_100_DIGESTS

    def test_x1_100_closed_form_digest(self):
        assert _sha256(r_x1_formula(100)) == X1_100_DIGESTS["R"]

    @pytest.mark.parametrize("k", [*range(2, 9), 50, 100])
    def test_x3_100_equals_closed_form(self, k):
        assert report(HorosphericalDatum("X3", n=100, k=k)).R == r_x3_formula(100, k)


def reference_forms(marked, d_i, d_j):
    """The forms by way of Fraction pairs (u, v) = (c_i*d_i, c_j*d_j), then per
    pair one lcm of the denominators of v and u - v and one gcd."""
    weights = Counter()
    for (c_i, c_j), mult in marked.items():
        weights[c_i * d_i, c_j * d_j] += mult
    forms = Counter()
    for (u, v), mult in weights.items():
        den = math.lcm(v.denominator, (u - v).denominator)
        c0, c1 = int(v * den), int((u - v) * den)
        if c1:
            g = math.gcd(c0, c1)
            forms[c0 // g, c1 // g] += mult
    return forms


def root_systems_to_12():
    return [("B", n) for n in range(2, 13)] + [("C", n) for n in range(2, 13)] + [("F4", 4), ("G2", 2)]


class TestForms:
    """`_forms` builds the integer forms straight from the marked coefficients;
    the conversion through Fraction pairs is the reference."""

    @pytest.mark.parametrize("type_label,rank", root_systems_to_12(), ids=str)
    def test_matches_fraction_conversion(self, type_label, rank):
        rs = build_root_system(type_label, rank)
        for i in range(1, rank + 1):
            for j in range(1, rank + 1):
                if i == j:
                    continue
                marked = table_marked(rs, i, j)
                for lam in (F(1), F(2), F(1, 3)):
                    d_i, d_j = lam * rs.half_lengths[i - 1], lam * rs.half_lengths[j - 1]
                    expected = reference_forms(marked, d_i, d_j)
                    assert _forms(marked, d_i, d_j) == expected, (type_label, rank, i, j, lam)

    def test_zero_half_lengths_are_a_zero_factor(self):
        marked, _ = unipotent_radical("B", 3, 1, 3)
        with pytest.raises(DegenerateMeasureError, match="zero factor"):
            _forms(marked, F(0), F(0))


coprime_forms = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(
    lambda f: f[1] != 0 and math.gcd(*f) == 1
)
form_multisets = st.lists(st.tuples(coprime_forms, st.integers(1, 9)), max_size=4).map(
    lambda items: Counter(dict(items))
)


@st.composite
def beta_form_multisets(draw):
    """Forms whose dominant form vanishes at one end of [0, 1] and a kept form at
    the other, with more than one leaf of `_beta_split` left to expand."""
    dominant = draw(st.sampled_from([(1, -1), (-1, 1), (0, 1), (0, -1)]))
    kept = draw(st.sampled_from([(1, -1), (-1, 1)] if dominant[0] == 0 else [(0, 1), (0, -1)]))
    rest = draw(
        st.lists(coprime_forms.filter(lambda f: f not in (dominant, kept)), min_size=1, max_size=2, unique=True)
    )
    mults = [draw(st.integers(engine._LEAF, 80))] + [draw(st.integers(1, 20)) for _ in rest[1:]]
    p = draw(st.integers(1, 20))
    m = max(p, *mults) + draw(st.integers(1, 5))
    return Counter({dominant: m, kept: p, **dict(zip(rest, mults))})


def assert_matches_dense_integrals(forms):
    dense = poly_product(forms.elements())
    c1, num0, num1 = _form_moments(forms)
    m = max(forms.values(), default=0)
    assert c1 in ({d1 for (_, d1), k in forms.items() if k == m} if forms else {1})
    volume, first = integrate(dense, 0, 1), integrate(poly_product([(0, 1), dense]), 0, 1)
    assert num1 * volume == c1 * num0 * first
    assert (num0 == 0) == (volume == 0)


class TestFormMoments:
    """The dominant-form rule against the dense product integrated over [0, 1]:
    c1 is the slope of a form of largest multiplicity, and num0 and num1 are
    Int P and c1*Int sigma*P times one factor that both share, zero only when
    Int P is."""

    @given(form_multisets)
    @settings(max_examples=150)
    @example(Counter())
    @example(Counter({(0, 1): 7}))
    @example(Counter({(1, -1): 5}))
    @example(Counter({(0, 1): 3, (1, -1): 3}))
    @example(Counter({(1, 1): 4, (2, -1): 4, (0, 1): 2}))
    @example(Counter({(-3, 2): 6, (1, -4): 2, (3, -1): 6}))
    # tau vanishes at neither end, and the product expanded in tau is longer
    # than one leaf of `_beta_split`: as X1, and with a negative slope.
    @example(Counter({(1, 1): 60, (0, 1): 40, (1, -1): 1}))
    @example(Counter({(2, -1): 50, (0, 1): 35, (1, -1): 3}))
    def test_matches_dense_integrals(self, forms):
        assert_matches_dense_integrals(forms)

    # X3(n, k)'s forms are sigma^(k-1), (2 - sigma)^(k-1) and (1 - sigma)^(2n-2k+1):
    # for k <= 2n/3 the dominant form is 1 - sigma and sigma^(k-1) is kept, as at
    # X3(60, 36); past 2n/3 it is sigma, tied with 2 - sigma, and (1 - sigma) is
    # kept, as at X3(60, 50).  (2 - sigma)^(k-1) is expanded into a sum of k terms.
    @given(beta_form_multisets())
    @settings(max_examples=40, deadline=None)
    @example(Counter({(0, 1): 35, (2, -1): 35, (1, -1): 49}))
    @example(Counter({(0, 1): 49, (2, -1): 49, (1, -1): 21}))
    def test_beta_sums_longer_than_a_leaf_match_dense_integrals(self, forms):
        assert_matches_dense_integrals(forms)

    def test_a_tie_takes_the_form_that_vanishes_at_an_end(self):
        # X3(n, n)'s forms with 2 - sigma first: sigma must still be tau, or
        # (2 - sigma)^(n-1) and sigma^(n-1) would both be expanded.
        assert _form_moments(Counter({(2, -1): 9, (0, 1): 9, (1, -1): 1}))[0] == 1

    def test_binary_split_equals_the_flat_sum(self):
        q0, q1 = list(range(-40, 60)), [3 * c * c - 7 for c in range(100)]
        m, p, w = 11, 5, -2
        t0, t1 = engine._beta_split(q0, q1, m, p, w)

        def flat(q):
            return sum(
                q[l] * math.prod((m + r) * w for r in range(1, l + 1))
                * math.prod(m + p + 1 + r for r in range(l + 1, len(q)))
                for l in range(len(q))
            )

        assert (t0, t1) == (flat(q0), flat(q1))


def test_imports_nothing_from_closedforms_or_the_oracle():
    # The engine is a route independent of the closed forms and the oracle: of
    # grlb it reads only exactnum's integer helpers and the root data.
    assert set(grlb_imports(engine)) == {"grlb.exactnum", "grlb.rootsystems"}


class TestFactorialForm:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_x3nn_engine_equals_factorial_expression(self, n):
        expected = F(2 * math.factorial(2 * n + 1), (n + 2) * (2**n * math.factorial(n)) ** 2)
        assert report(HorosphericalDatum("X3", n=n, k=n)).R == expected

"""Tests for the quadrature oracle and its engine cross-checks."""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grlb import engine, oracle
from grlb.engine import HorosphericalDatum, InvalidDatumError
from grlb.oracle import (
    CROSSCHECK_REL_TOL,
    CrosscheckReport,
    Estimate,
    EvaluationFailureError,
    _root_system,
    crosscheck,
    estimates,
    quad,
)
from grlb.suites import _crosscheck, _oracle_data
from reference import (
    build_root_system, dense_density, integrate, moment_segment, phi_pu, poly_product, resolve, table_marked,
    two_rho_P,
)

F = Fraction


class TestQuad:
    def test_constant_one(self):
        res = quad(lambda ts: np.ones_like(ts), 0.0, 1.0, 0)
        assert isinstance(res.estimate, float)
        assert res.estimate == pytest.approx(1.0, rel=1e-12)

    def test_even_quartic(self):
        res = quad(lambda ts: (1 - ts * ts) ** 2, 0.0, 1.0, 4)
        assert res.estimate == pytest.approx(8.0 / 15.0, rel=1e-12)
        assert res.refinement_levels == 3

    def test_degree_255(self):
        res = quad(lambda ts: (1 + ts) ** 255, 0.0, 1.0, 255)
        assert res.estimate == pytest.approx((2.0**256 - 1) / 256, rel=1e-12)

    @pytest.mark.parametrize(("degree", "levels"), [(0, 1), (1, 1), (4, 3), (7, 3), (8, 4)])
    def test_one_evaluation_at_the_rule_nodes(self, degree, levels):
        seen = []

        def f(ts):
            seen.append(ts)
            return np.ones_like(ts)

        res = quad(f, -2.0, 3.0, degree)
        assert res.refinement_levels == levels
        assert [len(ts) for ts in seen] == [2**levels + 1]
        assert (seen[0].min(), seen[0].max()) == (-2.0, 3.0)
        assert res.estimate == pytest.approx(5.0, rel=1e-14)

    def test_zero_integrand_converges(self):
        res = quad(lambda ts: np.zeros_like(ts), 0.0, 1.0, 0)
        assert res.estimate == 0.0
        assert res.refinement_levels == 1

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            quad(lambda ts: ts, 1.0, 0.0, 1)
        with pytest.raises(ValueError):
            quad(lambda ts: ts, 1.0, 1.0, 1)
        with pytest.raises(ValueError):
            quad(lambda ts: ts, float("nan"), 1.0, 1)
        with pytest.raises(ValueError):
            quad(lambda ts: ts, 0.0, float("nan"), 1)
        # An infinite bound would reach numpy, which warns and returns no finite value.
        for lo, hi in ((0.0, float("inf")), (float("-inf"), 0.0), (float("-inf"), float("inf"))):
            with pytest.raises(ValueError, match="finite"):
                quad(lambda ts: ts, lo, hi, 1)

    @pytest.mark.parametrize("degree", [-1, True, 2.0])
    def test_degree_validation(self, degree):
        with pytest.raises(ValueError):
            quad(lambda ts: ts, 0.0, 1.0, degree)

    def test_rows_share_one_evaluation(self):
        seen = []

        def f(ts):
            seen.append(ts)
            return np.stack((ts**3, ts**4, np.ones_like(ts)))

        res = quad(f, -1.0, 2.0, 4)
        assert len(seen) == 1
        assert res.estimate.shape == (3,)
        assert res.estimate == pytest.approx([15.0 / 4.0, 33.0 / 5.0, 3.0], rel=1e-14)

    def test_nonfinite_value_raises(self):
        # lo is a node of the rule, so 1/ts is evaluated at 0.
        def f(ts):
            with np.errstate(divide="ignore"):
                return 1.0 / ts

        with pytest.raises(EvaluationFailureError):
            quad(f, 0.0, 1.0, 1)


def _one_pair(datum):
    """(u, v, mult, a, b): the oracle's forms and segment for one datum, from its batched forms."""
    type_label, rank, i, j = _root_system(datum)
    _, _, u, v, mult, _, a, b = oracle._forms(type_label, rank, np.array([(0, i, j)]))
    return u, v, mult, float(a[0]), float(b[0])


def _evaluator(datum):
    """(density, degree bound, a, b): `oracle._density` of one datum's row, as a function of t in [-a, b]."""
    u, v, mult, a, b = _one_pair(datum)

    def density(ts):
        return oracle._density(u[None], v[None], mult[None], (2 * ts - b + a) / (a + b))[0]

    return density, int(mult.sum()), a, b


def _table_forms(rs, i, j):
    """The (c_i d_i, c_j d_j) multiset of Phi_Pu and 2*rho_P's (a, b), read from the root table."""
    d_i, d_j = rs.half_lengths[i - 1], rs.half_lengths[j - 1]
    two_rho = two_rho_P(rs, i, j)
    marked = table_marked(rs, i, j)
    forms = Counter({(c_i * d_i, c_j * d_j): m for (c_i, c_j), m in marked.items()})
    return forms, (two_rho.get(i, 0), two_rho.get(j, 0))


def _batched_forms(type_label, rank, pairs, scale=1):
    """The (u, v) multiset and the (a, b) segment of every marked pair, from one batch of the oracle."""
    members = np.array([(position, i, j) for position, (i, j) in enumerate(pairs)])
    forms, segments = [Counter() for _ in pairs], [None] * len(pairs)
    owner, _, u, v, mult, position, a, b = oracle._forms(type_label, rank, members)
    for row, u_r, v_r, m in zip(owner.tolist(), u.tolist(), v.tolist(), mult.tolist()):
        forms[row][(F(u_r) / scale, F(v_r) / scale)] = m
    for row, a_r, b_r in zip(position.tolist(), a.tolist(), b.tolist()):
        segments[row] = (a_r, b_r)
    return list(zip(forms, segments))


def _check_every_ordered_pair(type_label, rank, scale=1):
    rs = build_root_system(type_label, rank)
    pairs = [(i, j) for i in range(1, rank + 1) for j in range(1, rank + 1) if i != j]
    for (i, j), (forms, segment) in zip(pairs, _batched_forms(type_label, rank, pairs, scale)):
        want, want_segment = _table_forms(rs, i, j)
        assert forms == want, (i, j)
        assert segment == want_segment, (i, j)


class TestMarkedForms:
    """`oracle._forms`: the epsilon-basis forms and segment against the simple-root table."""

    @pytest.mark.parametrize("type_label", ["B", "C"])
    @pytest.mark.parametrize("rank", range(2, 25))
    def test_bc_every_ordered_pair(self, type_label, rank):
        _check_every_ordered_pair(type_label, rank)

    def test_f4_every_ordered_pair(self):
        _check_every_ordered_pair("F4", 4)

    def test_g2_every_ordered_pair_up_to_plate_ix_scale(self):
        # Plate IX's inner product is twice the one of the half lengths.
        _check_every_ordered_pair("G2", 2, scale=2)

    @pytest.mark.parametrize(
        ("type_label", "rank"),
        [*((t, n) for t in ("B", "C") for n in range(2, 11)), ("F4", 4), ("G2", 2)],
    )
    def test_plate_weights_are_dual_to_the_simple_coroots(self, type_label, rank):
        idx, coef, omega, alpha = oracle._plate(type_label, rank)
        assert idx.shape == coef.shape
        assert len(coef) == {"F4": 24, "G2": 6}.get(type_label, rank * rank)
        # 2 (omega_l, alpha_m) / (alpha_m, alpha_m) is the Kronecker delta.
        pairing = 2 * omega @ alpha.T / (alpha**2).sum(axis=1)
        assert np.array_equal(pairing, np.eye(rank))

    def test_no_data_gives_no_rows(self):
        assert estimates([]) == []
        assert estimates(()) == []

    def test_segment_is_the_engines_over_the_oracle_grid(self):
        data = list(_oracle_data(30))
        for datum, estimate in zip(data, estimates(data)):
            exact = engine.report(datum)
            seg = exact.segment
            assert (estimate.a, estimate.b) == (seg.a, seg.b), datum.label()
            _, _, mult, _, _ = _one_pair(datum)
            assert int(mult.sum()) == exact.dimension - 1, datum.label()


class TestDensityEvaluator:
    """`oracle._density` on one datum's row, against quadrature goldens and the exact dense density."""

    def test_x5_barycenter_by_quadrature(self):
        density, degree, a, b = _evaluator(HorosphericalDatum("X5"))
        vol = quad(density, -a, b, degree).estimate
        first = quad(lambda ts: ts * density(ts), -a, b, degree + 1).estimate
        assert first / vol == pytest.approx(-11.0 / 28.0, rel=1e-12)

    def test_degree_is_dimension_minus_one(self):
        for datum in _oracle_data(8):
            _, degree, _, _ = _evaluator(datum)
            assert degree == engine.report(datum).dimension - 1, datum.label()

    def test_endpoints_vanish(self):
        density, _, a, b = _evaluator(HorosphericalDatum("X4"))
        vals = density(np.array([-a, b]))
        assert vals == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_each_row_peaks_at_one_at_the_quad_nodes(self):
        for datum in _oracle_data(8):
            u, v, mult, _, _ = _one_pair(datum)
            nodes = []
            quad(lambda xs: nodes.append(xs) or np.ones_like(xs), -1.0, 1.0, int(mult.sum()) + 1)
            values = oracle._density(u[None], v[None], mult[None], nodes[0])
            assert values.max() == 1.0, datum.label()

    def test_normalised_log_sum_matches_exact_density(self, horner):
        # The evaluator divides each of X1(9)'s 53 factors by its maximum
        # (a+b)*max(u, v) on the segment, and the row by its largest value
        # at the points; both densities, each over its own largest value,
        # must match pointwise.
        datum = HorosphericalDatum("X1", n=9)
        density, degree, a, b = _evaluator(datum)
        rs, _, _ = resolve(datum)
        seg = moment_segment(datum)
        d_i = rs.half_lengths[seg.i - 1]
        d_j = rs.half_lengths[seg.j - 1]
        scale = F(1)
        for root in phi_pu(rs, seg.i, seg.j):
            scale *= (seg.a + seg.b) * max(root[seg.i - 1] * d_i, root[seg.j - 1] * d_j)
        exact_density = dense_density(datum)
        # Forms with u == v are constant in t, so |Phi_Pu| bounds the degree.
        assert len(exact_density) - 1 <= degree
        ts = np.linspace(-float(a) + 0.25, float(b) - 0.25, 7)
        got = density(ts)
        want = np.array([float(horner(exact_density, F(t).limit_denominator(10**12)) / scale) for t in ts])
        assert got / got.max() == pytest.approx(want / want.max(), rel=1e-9)

    @pytest.mark.parametrize(
        "datum",
        [HorosphericalDatum("X1", n=70), HorosphericalDatum("X3", n=70, k=35)],
        ids=lambda d: d.label(),
    )
    def test_values_in_unit_interval_at_large_n(self, datum):
        density, _, a, b = _evaluator(datum)
        vals = density(np.linspace(-a, b, 257))
        assert np.all(np.isfinite(vals))
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        assert vals.max() > 0.0


class TestCrosscheck:
    @pytest.mark.parametrize(
        "datum",
        [
            HorosphericalDatum("X2"),
            HorosphericalDatum("X4"),
            HorosphericalDatum("X5"),
            HorosphericalDatum("X3", n=6, k=3),
            HorosphericalDatum("X1", n=5),
            HorosphericalDatum("X1", n=20),
            HorosphericalDatum("X3", n=20, k=10),
            HorosphericalDatum("X3", n=20, k=20),
            HorosphericalDatum("X1", n=100),
            HorosphericalDatum("X3", n=100, k=2),
            HorosphericalDatum("X3", n=100, k=50),
            HorosphericalDatum("X3", n=100, k=100),
        ],
        ids=lambda d: d.label(),
    )
    def test_agreement(self, datum):
        # At the default ceiling too, exact quadrature leaves only rounding.
        rep = crosscheck(datum)
        assert rep.ok
        assert rep.t_bar_rel_err <= 1e-12
        assert rep.r_rel_err <= 1e-12

    def test_grid_at_n20_within_1e_12(self):
        # Exact quadrature leaves only rounding: a degree too low for the
        # rule could still pass the 1e-9 tolerance, but not this bound.
        for datum in _oracle_data(20):
            rep = crosscheck(datum)
            assert rep.t_bar_rel_err <= 1e-12, datum.label()
            assert rep.r_rel_err <= 1e-12, datum.label()

    def test_x2_value(self):
        rep = crosscheck(HorosphericalDatum("X2"))
        assert abs(rep.r_quad - 20.0 / 21.0) / (20.0 / 21.0) <= 1e-9

    @pytest.mark.parametrize(
        "datum", [HorosphericalDatum("X1", n=400), HorosphericalDatum("X3", n=400, k=200)], ids=lambda d: d.label()
    )
    def test_past_the_default_ceiling(self, monkeypatch, datum):
        monkeypatch.setenv("GRLB_MAX_N", "400")
        rep = crosscheck(datum)
        assert rep.ok
        assert rep.t_bar_rel_err <= 1e-12
        assert rep.r_rel_err <= 1e-12

    @pytest.mark.parametrize(
        "datum",
        [HorosphericalDatum("X3", n=700, k=350), HorosphericalDatum("X3", n=800, k=400)],
        ids=lambda d: d.label(),
    )
    def test_density_does_not_underflow_past_n_650(self, monkeypatch, datum):
        # Unshifted, X3(700,350) was off by 1.4e-7 and X3(800,400) integrated to 0.
        monkeypatch.setenv("GRLB_MAX_N", "800")
        rep = crosscheck(datum)
        assert rep.ok
        assert rep.t_bar_rel_err <= 1e-12
        assert rep.r_rel_err <= 1e-12

    @pytest.mark.parametrize("volume", [0.0, float("nan")])
    def test_zero_or_non_finite_volume_is_an_evaluation_failure(self, volume):
        datum = HorosphericalDatum("X3", n=6, k=3)
        with pytest.raises(EvaluationFailureError):
            crosscheck(datum, Estimate(3.0, 8.0, volume, 1.0))

    @pytest.mark.parametrize("first", [0.0, -0.0])
    def test_zero_barycenter_gives_one(self, first):
        datum = HorosphericalDatum("X2")
        segment = engine.report(datum).segment
        rep = crosscheck(datum, Estimate(float(segment.a), float(segment.b), 1.0, first))
        assert rep.t_bar_quad == 0.0
        assert rep.r_quad == 1.0

    def test_ok_follows_from_the_errors_and_segments(self):
        def report(t_err=CROSSCHECK_REL_TOL, r_err=CROSSCHECK_REL_TOL, segment_oracle=(3.0, 8.0)):
            return CrosscheckReport(-0.5, 0.9, t_err, r_err, (3, 8), segment_oracle)

        assert report().ok
        above = CROSSCHECK_REL_TOL * 1.5
        assert not report(t_err=above).ok
        assert not report(r_err=above).ok
        assert not report(segment_oracle=(3.0, 9.0)).ok

    def test_segment_mismatch_fails_the_check(self, monkeypatch):
        real = oracle._forms

        def shifted(*args):
            *forms, position, a, b = real(*args)
            return (*forms, position, a, b + 1)

        monkeypatch.setattr(oracle, "_forms", shifted)
        datum = HorosphericalDatum("X3", n=6, k=3)
        rep = crosscheck(datum)
        assert rep.segment_oracle == (3.0, 9.0) and rep.segment_exact == (3, 8)
        assert not rep.ok
        passed, detail = _crosscheck(datum)
        assert not passed
        assert detail.endswith(" segment=(3.0, 9.0) engine=(3, 8)")

    @pytest.mark.parametrize(
        "datum",
        [
            HorosphericalDatum("X1", n=7),
            HorosphericalDatum("X2"),
            HorosphericalDatum("X3", n=6, k=3),
            HorosphericalDatum("X4"),
            HorosphericalDatum("X5"),
        ],
        ids=lambda d: d.label(),
    )
    def test_a_flipped_engine_pair_fails_the_check(self, monkeypatch, datum):
        # The oracle orients each pair itself, so an engine that swaps i and j
        # reports the segment (b, a) and -tbar, and the check must fail.
        real = engine._marked_pair

        def flipped(d):
            type_label, rank, i, j = real(d)
            return type_label, rank, j, i

        monkeypatch.setattr(engine, "_marked_pair", flipped)
        rep = crosscheck(datum)
        assert not rep.ok
        a, b = rep.segment_oracle
        assert rep.segment_exact == (b, a)
        passed, detail = _crosscheck(datum)
        assert not passed
        if a != b:
            assert detail.endswith(f" segment={(a, b)} engine={rep.segment_exact}")
        else:
            # X4 and X5 have a == b, so the sign of tbar is what fails.
            assert rep.t_bar_rel_err == pytest.approx(2.0)

    def test_cap(self, monkeypatch):
        # The exact ceiling is the oracle's only bound on n.
        monkeypatch.setenv("GRLB_MAX_N", "4")
        with pytest.raises(InvalidDatumError, match="^n=5 exceeds the exact-computation ceiling 4"):
            crosscheck(HorosphericalDatum("X1", n=5))

    @pytest.mark.parametrize("max_n, data, message", [
        (None, [("X2",), ("X1", 150), ("X3", 120, 3)], "^n=150 exceeds the exact-computation ceiling 100 "),
        ("400", [("X3", 401, 2), ("X1", 3)], "^n=401 exceeds the exact-computation ceiling 400 "),
    ], ids=["default", "raised"])
    def test_estimates_cap(self, monkeypatch, max_n, data, message):
        # The largest n is refused before any array is built, as crosscheck refuses it.
        monkeypatch.delenv("GRLB_MAX_N", raising=False)
        if max_n is not None:
            monkeypatch.setenv("GRLB_MAX_N", max_n)
        monkeypatch.setattr(oracle, "_plate", None)
        with pytest.raises(InvalidDatumError, match=message):
            estimates([HorosphericalDatum(*args) for args in data])


coeffs_strategy = st.lists(
    st.integers(min_value=0, max_value=1000), min_size=1, max_size=61
).filter(lambda cs: any(cs))


class TestAgainstExactIntegration:
    @given(coeffs_strategy)
    @settings(max_examples=25, deadline=None)
    def test_polynomials_up_to_degree_60(self, coeffs):
        # Nonnegative coefficients keep the integral away from cancellation,
        # so a relative comparison is meaningful.
        p = poly_product([coeffs])
        exact = float(integrate(p, 0, 2))
        float_coeffs = np.array([float(c) for c in reversed(p)])
        res = quad(lambda ts: np.polyval(float_coeffs, ts), 0.0, 2.0, degree=len(coeffs) - 1)
        assert res.estimate == pytest.approx(exact, rel=1e-12)

    def test_signed_fixed_case(self):
        p = (3, -10, 0, 7, -1)
        exact = float(integrate(p, -1, 2))
        float_coeffs = np.array([float(c) for c in reversed(p)])
        res = quad(lambda ts: np.polyval(float_coeffs, ts), -1.0, 2.0, degree=4)
        assert res.estimate == pytest.approx(exact, rel=1e-12)

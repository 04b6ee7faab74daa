"""Tests for the quadrature oracle and its engine cross-checks."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grlb import engine
from grlb.engine import HorosphericalDatum
from grlb.exactnum import Polynomial, integrate
from grlb.oracle import (
    CROSSCHECK_MAX_N,
    ZERO_MIN_LEVELS,
    EvaluationFailureError,
    NoConvergenceError,
    crosscheck,
    dh_density_evaluator,
    quad,
)

F = Fraction


class TestQuad:
    def test_constant_one(self):
        res = quad(lambda ts: np.ones_like(ts), 0.0, 1.0, 1e-12)
        assert res.estimate == pytest.approx(1.0, rel=1e-12)

    def test_even_quartic(self):
        res = quad(lambda ts: (1 - ts * ts) ** 2, 0.0, 1.0, 1e-12)
        assert res.estimate == pytest.approx(8.0 / 15.0, rel=1e-10)
        assert res.error_estimate >= 0.0
        assert res.refinement_levels >= 2

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            quad(lambda ts: ts, 1.0, 0.0, 1e-9)
        with pytest.raises(ValueError):
            quad(lambda ts: ts, 0.0, 1.0, -1e-9)
        with pytest.raises(ValueError):
            quad(lambda ts: ts, 0.0, 1.0, float("nan"))

    def test_nonfinite_value_raises(self):
        def f(ts):
            with np.errstate(divide="ignore"):
                return 1.0 / ts

        with pytest.raises(EvaluationFailureError):
            quad(f, -1.0, 1.0, 1e-9)

    def test_level_cap_reports_best(self):
        def chirp(ts):
            return np.sin(1e7 * ts * ts)

        with pytest.raises(NoConvergenceError) as excinfo:
            quad(chirp, 0.0, 3.0, 1e-14, max_levels=6)
        assert excinfo.value.best.refinement_levels == 6
        assert np.isfinite(excinfo.value.best.estimate)
        with pytest.raises(NoConvergenceError) as excinfo:
            quad(chirp, 0.0, 3.0, 1e-14)
        assert excinfo.value.best.refinement_levels == 22

    def test_zero_integrand_converges(self):
        res = quad(lambda ts: np.zeros_like(ts), 0.0, 1.0, 1e-9)
        assert res.estimate == 0.0
        assert res.refinement_levels == ZERO_MIN_LEVELS

    def test_narrow_peak_is_not_a_false_zero(self):
        # No sample of the first levels reaches the peak, so each of their
        # Simpson values is exactly 0.
        sigma = 0.001
        res = quad(lambda ts: np.exp(-0.5 * ((ts - 0.3) / sigma) ** 2), 0.0, 1.0, 1e-9)
        assert res.estimate == pytest.approx(sigma * np.sqrt(2 * np.pi), rel=1e-9)


def _evaluator(datum):
    rs, _, _ = engine.resolve(datum)
    return dh_density_evaluator(rs, engine.moment_segment(datum))


class TestDensityEvaluator:
    def test_x5_barycenter_by_quadrature(self):
        density, a, b = _evaluator(HorosphericalDatum("X5"))
        vol = quad(density, -a, b, 1e-13).estimate
        first = quad(lambda ts: ts * density(ts), -a, b, 1e-13).estimate
        assert first / vol == pytest.approx(-11.0 / 28.0, rel=1e-9)

    def test_endpoints_vanish(self):
        density, a, b = _evaluator(HorosphericalDatum("X4"))
        vals = density(np.array([-a, b]))
        assert vals == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_normalised_log_sum_matches_exact_density(self):
        # The evaluator divides each of X1(9)'s 53 factors by its maximum
        # (a+b)*max(u, v) on the segment; the exact density divided by the
        # product of those maxima must match it pointwise.
        datum = HorosphericalDatum("X1", n=9)
        density, a, b = _evaluator(datum)
        rs, _, _ = engine.resolve(datum)
        seg = engine.moment_segment(datum)
        d_i = rs.half_lengths[seg.i - 1]
        d_j = rs.half_lengths[seg.j - 1]
        scale = F(1)
        for root in engine.phi_pu(rs, seg.i, seg.j):
            scale *= (seg.a + seg.b) * max(root[seg.i - 1] * d_i, root[seg.j - 1] * d_j)
        exact_density = engine.dh_polynomial_on(rs, seg)
        ts = np.linspace(-float(a) + 0.25, float(b) - 0.25, 7)
        got = density(ts)
        want = np.array([float(exact_density(F(t).limit_denominator(10**12)) / scale) for t in ts])
        assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize(
        "datum",
        [HorosphericalDatum("X1", n=70), HorosphericalDatum("X3", n=70, k=35)],
        ids=lambda d: d.label(),
    )
    def test_values_in_unit_interval_at_large_n(self, datum):
        density, a, b = _evaluator(datum)
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
            HorosphericalDatum("X1", n=CROSSCHECK_MAX_N),
            HorosphericalDatum("X3", n=20, k=10),
            HorosphericalDatum("X3", n=20, k=20),
        ],
        ids=lambda d: d.label(),
    )
    def test_agreement(self, datum):
        rep = crosscheck(datum)
        assert rep.ok
        assert rep.t_bar_rel_err <= 1e-9
        assert rep.r_rel_err <= 1e-9

    def test_x2_value(self):
        rep = crosscheck(HorosphericalDatum("X2"))
        assert abs(rep.r_quad - 20.0 / 21.0) / (20.0 / 21.0) <= 1e-9

    def test_cap(self):
        with pytest.raises(ValueError):
            crosscheck(HorosphericalDatum("X1", n=CROSSCHECK_MAX_N + 1))


coeffs_strategy = st.lists(
    st.integers(min_value=0, max_value=1000), min_size=1, max_size=61
).filter(lambda cs: any(cs))


class TestAgainstExactIntegration:
    @given(coeffs_strategy)
    @settings(max_examples=25, deadline=None)
    def test_polynomials_up_to_degree_60(self, coeffs):
        # Nonnegative coefficients keep the integral away from cancellation,
        # so a relative comparison is meaningful.
        p = Polynomial(coeffs)
        exact = float(integrate(p, 0, 2))
        float_coeffs = np.array([float(c) for c in reversed(p.coeffs)])
        res = quad(lambda ts: np.polyval(float_coeffs, ts), 0.0, 2.0, 1e-11)
        assert res.estimate == pytest.approx(exact, rel=1e-9)

    def test_signed_fixed_case(self):
        p = Polynomial((3, -10, 0, 7, -1))
        exact = float(integrate(p, -1, 2))
        float_coeffs = np.array([float(c) for c in reversed(p.coeffs)])
        res = quad(lambda ts: np.polyval(float_coeffs, ts), -1.0, 2.0, 1e-12)
        assert res.estimate == pytest.approx(exact, rel=1e-9)

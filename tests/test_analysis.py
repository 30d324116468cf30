"""Tests for the analysis package: delay bounds, fairness, link-share."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.delay import (
    coupled_delay_bound,
    hfsc_delay_bound,
    service_curve_delay_bound,
    token_bucket_envelope,
)
from repro.analysis.fairness import (
    jain_index,
    normalized_service_spread,
    starvation_period,
)
from repro.analysis.linkshare import (
    cumulative_series,
    discrepancy_integral,
    discrepancy_sup,
    series_difference,
)
from repro.core.curves import INFINITY, ServiceCurve
from repro.core.errors import ConfigurationError
from repro.sim.packet import Packet


class TestDelayBounds:
    def test_envelope(self):
        env = token_bucket_envelope(sigma=100.0, rho=10.0, peak=1000.0)
        assert env(0.0) == 0.0
        assert env(0.05) == pytest.approx(50.0)    # peak-limited
        assert env(10.0) == pytest.approx(200.0)   # bucket-limited

    def test_linear_curve_bound_is_burst_over_rate(self):
        spec = ServiceCurve.linear(100.0)
        bound = service_curve_delay_bound(spec, sigma=50.0, rho=80.0)
        assert bound == pytest.approx(50.0 / 100.0, rel=1e-3)

    def test_concave_curve_cuts_bound(self):
        rate = 100.0
        sigma = 50.0
        linear = service_curve_delay_bound(ServiceCurve.linear(rate), sigma, 80.0)
        concave = service_curve_delay_bound(
            ServiceCurve(1000.0, 0.1, rate), sigma, 80.0
        )
        assert concave < linear / 5.0

    def test_overloaded_session_unbounded(self):
        spec = ServiceCurve.linear(100.0)
        assert service_curve_delay_bound(spec, 10.0, 200.0) == INFINITY

    def test_zero_tail_rate_unbounded_when_demand_exceeds_burst(self):
        spec = ServiceCurve(100.0, 1.0, 0.0)
        assert service_curve_delay_bound(spec, 1000.0, 10.0) == INFINITY

    def test_hfsc_bound_adds_packet_time(self):
        spec = ServiceCurve.from_delay(160.0, 0.005, 8000.0)
        base = service_curve_delay_bound(spec, 160.0, 8000.0)
        total = hfsc_delay_bound(spec, 160.0, 8000.0, max_packet=1500.0,
                                 link_rate=1_250_000.0)
        assert total == pytest.approx(base + 1500.0 / 1_250_000.0)

    def test_from_delay_bound_matches_dmax(self):
        """A (umax, dmax, rate) curve bounds a (umax, rate) session by dmax."""
        spec = ServiceCurve.from_delay(1000.0, 0.01, 50_000.0)
        bound = service_curve_delay_bound(spec, sigma=1000.0, rho=50_000.0)
        assert bound == pytest.approx(0.01, rel=1e-2)

    # Convex curves with m1 > 0: the supremum sits where the envelope
    # reaches the knee value m1*d, on the bucket segment here...
    def test_convex_knee_reached_on_bucket_segment(self):
        spec = ServiceCurve(20_000.0, 0.02, 80_000.0)
        bound = service_curve_delay_bound(spec, sigma=100.0, rho=50_000.0)
        assert bound == pytest.approx(0.014)

    # ...and on the peak segment here.
    def test_convex_knee_reached_on_peak_segment(self):
        spec = ServiceCurve(1.0, 1.0, 10.0)
        bound = service_curve_delay_bound(spec, sigma=5.0, rho=0.5, peak=2.0)
        assert bound == pytest.approx(0.5)

    # Any traffic at all waits out a flat start (m1 = 0), however small
    # rho is: rho * t may underflow, the bound must not.
    def test_tiny_rate_waits_out_the_flat_start(self):
        spec = ServiceCurve(0.0, 1.0, 1.0)
        assert service_curve_delay_bound(spec, 0.0, 5e-324) == 1.0
        assert service_curve_delay_bound(spec, 0.0, 5e-324, 2.0) == 1.0
        assert service_curve_delay_bound(spec, 0.0, 0.0) == 0.0

    @given(
        m1=st.one_of(st.just(0.0), st.floats(0.1, 100.0)),
        d=st.floats(0.01, 10.0),
        m2=st.floats(0.5, 100.0),
        sigma=st.floats(0.0, 100.0),
        rho_frac=st.floats(0.0, 1.0),
        peak_factor=st.one_of(st.just(math.inf), st.floats(1.01, 20.0)),
    )
    @settings(max_examples=100, deadline=None)
    def test_exact_bound_matches_dense_sweep(self, m1, d, m2, sigma,
                                             rho_frac, peak_factor):
        spec = ServiceCurve(m1, d, m2)
        rho = rho_frac * m2
        peak = peak_factor * max(rho, 1.0)
        bound = service_curve_delay_bound(spec, sigma, rho, peak)
        envelope = token_bucket_envelope(sigma, rho, peak)
        # Past both breakpoints (A's knee, A reaching S's knee value) the
        # gap S^-1(A(t)) - t only shrinks, so sweep a bit beyond them.
        # A(t) >= y iff peak*t >= y and sigma + rho*t >= y (with rho = 0
        # a knee above sigma is never reached and only widens the sweep).
        t_peak = sigma / (peak - rho) if peak != math.inf else 0.0
        y = spec.knee_y
        t_knee = max(y / peak, (y - sigma) / rho if rho > 0 else 0.0)
        horizon = 2.0 * (t_peak + t_knee) + 1.0
        steps = 4000
        dt = horizon / steps
        ts = [1e-12] + [i * dt for i in range(1, steps + 1)]

        # A(t) > 0 for every t > 0 once sigma or rho is, but in floats a
        # tiny rho times a small t underflows to 0, which reads as no
        # traffic and hides the delay it causes; the least positive float
        # stands in for that amount.
        def gap(t):
            demand = envelope(t)
            if demand == 0.0 and (sigma > 0 or rho > 0):
                demand = math.ulp(0.0)
            return spec.inverse(demand) - t

        sweep = max(gap(t) for t in ts)
        # |d/dt (S^-1(A(t)) - t)| <= max slope of A / min slope of S + 1
        # away from t = 0, so the sweep misses the peak by at most that
        # times its step.
        a_slope = rho if peak == math.inf else peak
        s_slope = min(m for m in (m1, m2) if m > 0)
        resolution = (a_slope / s_slope + 1.0) * dt
        tol = 1e-9 * max(1.0, bound)
        assert bound >= sweep - tol
        assert bound <= sweep + resolution + tol

    def test_coupled_bound(self):
        assert coupled_delay_bound(100.0, 50.0) == 0.5
        with pytest.raises(ConfigurationError):
            coupled_delay_bound(0.0, 1.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            token_bucket_envelope(-1.0, 1.0)
        with pytest.raises(ConfigurationError):
            hfsc_delay_bound(ServiceCurve.linear(1.0), 1.0, 0.5, 0.0, 1.0)

    @given(
        st.floats(1.0, 1e4),     # sigma
        st.floats(1.0, 1e4),     # rho
        st.floats(1.0, 10.0),    # rate headroom factor
    )
    @settings(max_examples=100)
    def test_bound_nonnegative_and_monotone_in_sigma(self, sigma, rho, factor):
        spec = ServiceCurve.linear(rho * factor)
        small = service_curve_delay_bound(spec, sigma, rho)
        large = service_curve_delay_bound(spec, sigma * 2, rho)
        assert 0.0 <= small <= large


def _packet(cid, departed, size=100.0, enqueued=0.0):
    packet = Packet(cid, size)
    packet.enqueued = enqueued
    packet.departed = departed
    return packet


class TestFairnessMetrics:
    def test_jain_perfect(self):
        assert jain_index([1.0, 1.0, 1.0]) == pytest.approx(1.0)

    def test_jain_worst(self):
        assert jain_index([1.0, 0.0, 0.0]) == pytest.approx(1.0 / 3.0)

    def test_jain_validation(self):
        with pytest.raises(ValueError):
            jain_index([])
        assert jain_index([0.0, 0.0]) == 1.0

    def test_starvation_period(self):
        served = [_packet("a", t) for t in [1.0, 2.0, 6.0, 7.0]]
        assert starvation_period(served, "a", 0.0, 10.0) == pytest.approx(4.0)

    def test_starvation_no_service_is_whole_window(self):
        assert starvation_period([], "a", 2.0, 8.0) == pytest.approx(6.0)

    def test_starvation_validation(self):
        with pytest.raises(ValueError):
            starvation_period([], "a", 5.0, 5.0)

    def test_normalized_spread_balanced(self):
        served = []
        for k in range(10):
            served.append(_packet("a", 0.1 + 0.2 * k))
            served.append(_packet("b", 0.2 + 0.2 * k))
        spread = normalized_service_spread(
            served, {"a": 100.0, "b": 100.0}, (0.0, 3.0)
        )
        # Alternating equal-size packets at equal rates: spread is one
        # packet's normalized worth.
        assert spread == pytest.approx(1.0)

    def test_normalized_spread_skewed(self):
        served = [_packet("a", 0.1 * k) for k in range(1, 11)]
        served += [_packet("b", 2.0)]
        spread = normalized_service_spread(
            served, {"a": 100.0, "b": 100.0}, (0.0, 3.0)
        )
        assert spread == pytest.approx(10.0)


class TestLinkshareMetrics:
    def test_series_difference(self):
        actual = [(0.0, 0.0), (10.0, 100.0)]
        ideal = [(0.0, 0.0), (10.0, 50.0)]
        diffs = series_difference(actual, ideal, [5.0, 10.0])
        assert diffs == [pytest.approx(25.0), pytest.approx(50.0)]

    def test_discrepancy_sup(self):
        actual = [(0.0, 0.0), (10.0, 100.0)]
        ideal = [(0.0, 10.0), (10.0, 100.0)]
        assert discrepancy_sup(actual, ideal, [0.0, 5.0, 10.0]) == pytest.approx(10.0)

    def test_discrepancy_integral_of_constant_gap(self):
        actual = [(0.0, 10.0), (10.0, 10.0)]
        ideal = [(0.0, 0.0), (10.0, 0.0)]
        integral = discrepancy_integral(actual, ideal, 0.0, 10.0, 0.1)
        assert integral == pytest.approx(100.0, rel=0.02)

    def test_discrepancy_integral_validation(self):
        with pytest.raises(ValueError):
            discrepancy_integral([], [], 1.0, 0.0, 0.1)

    def test_cumulative_series(self):
        served = [_packet("a", 2.0, size=50.0), _packet("a", 1.0, size=30.0),
                  _packet("b", 1.5, size=99.0)]
        series = cumulative_series(served, "a")
        assert series == [(0.0, 0.0), (1.0, 30.0), (2.0, 80.0)]

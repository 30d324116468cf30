"""Tests for the service-curve algebra (Sections II and V)."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.curves import (
    INFINITY,
    PiecewiseLinearCurve,
    ServiceCurve,
    is_admissible,
    sum_curves,
)
from repro.core.errors import ConfigurationError


def curve_specs():
    """Hypothesis strategy for two-piece linear service curves."""
    positive = st.floats(1.0, 1e7, allow_nan=False, allow_infinity=False)
    return st.builds(
        ServiceCurve,
        m1=st.one_of(st.just(0.0), positive),
        d=st.floats(0.0, 100.0),
        m2=positive,
    )


class TestServiceCurve:
    def test_linear(self):
        curve = ServiceCurve.linear(100.0)
        assert curve.is_linear and curve.is_concave and curve.is_convex
        assert curve.value(3.0) == 300.0
        assert curve.inverse(300.0) == 3.0

    def test_concave_two_piece(self):
        curve = ServiceCurve(m1=200.0, d=1.0, m2=50.0)
        assert curve.is_concave and not curve.is_convex
        assert curve.value(0.5) == 100.0
        assert curve.value(1.0) == 200.0
        assert curve.value(3.0) == 200.0 + 50.0 * 2.0

    def test_convex_two_piece(self):
        curve = ServiceCurve(m1=0.0, d=2.0, m2=100.0)
        assert curve.is_convex and not curve.is_concave
        assert curve.value(1.0) == 0.0
        assert curve.value(2.0) == 0.0
        assert curve.value(3.0) == 100.0

    def test_value_at_negative_x_is_zero(self):
        curve = ServiceCurve(m1=5.0, d=1.0, m2=1.0)
        assert curve.value(-3.0) == 0.0

    def test_inverse_round_trip_concave(self):
        curve = ServiceCurve(m1=200.0, d=1.0, m2=50.0)
        for y in [0.0, 50.0, 200.0, 250.0]:
            assert curve.value(curve.inverse(y)) == pytest.approx(y)

    def test_inverse_of_flat_tail_is_infinite(self):
        curve = ServiceCurve(m1=10.0, d=1.0, m2=0.0)
        assert curve.inverse(10.0) == 1.0
        assert curve.inverse(10.1) == INFINITY

    def test_inverse_of_flat_head(self):
        curve = ServiceCurve(m1=0.0, d=2.0, m2=10.0)
        # Smallest x with S(x) >= 5 is beyond the flat head.
        assert curve.inverse(5.0) == 2.5
        assert curve.inverse(0.0) == 0.0

    def test_from_delay_concave_branch(self):
        # The Fig. 7(a) mapping: bursty session (u/d > r).
        curve = ServiceCurve.from_delay(umax=1000.0, dmax=0.01, rate=50_000.0)
        assert curve.is_concave and not curve.is_linear
        assert curve.m1 == pytest.approx(100_000.0)
        assert curve.d == pytest.approx(0.01)
        assert curve.m2 == 50_000.0
        # A umax burst is served within dmax.
        assert curve.value(0.01) == pytest.approx(1000.0)

    def test_from_delay_convex_branch(self):
        # Fig. 7(b): u/d < r gives a convex curve with horizontal head.
        curve = ServiceCurve.from_delay(umax=1000.0, dmax=0.1, rate=50_000.0)
        assert curve.is_convex
        assert curve.m1 == 0.0
        assert curve.d == pytest.approx(0.1 - 1000.0 / 50_000.0)
        # The delay guarantee still holds: S(dmax) == umax.
        assert curve.value(0.1) == pytest.approx(1000.0)

    def test_from_delay_validates(self):
        with pytest.raises(ConfigurationError):
            ServiceCurve.from_delay(0, 1, 1)
        with pytest.raises(ConfigurationError):
            ServiceCurve.from_delay(1, -1, 1)

    def test_negative_slope_rejected(self):
        with pytest.raises(ConfigurationError):
            ServiceCurve(m1=-1.0, d=1.0, m2=1.0)

    @pytest.mark.parametrize("params", [
        (math.nan, 1.0, 1.0), (1.0, math.nan, 1.0), (1.0, 1.0, math.nan),
        (math.inf, 1.0, 1.0), (1.0, math.inf, 1.0), (1.0, 1.0, math.inf),
    ])
    def test_non_finite_parameters_rejected(self, params):
        with pytest.raises(ConfigurationError, match="finite"):
            ServiceCurve(*params)

    def test_scaled(self):
        curve = ServiceCurve(m1=100.0, d=1.0, m2=10.0).scaled(0.5)
        assert curve.m1 == 50.0 and curve.m2 == 5.0 and curve.d == 1.0

    def test_sum_is_piecewise(self):
        a = ServiceCurve(m1=100.0, d=1.0, m2=10.0)
        b = ServiceCurve(m1=0.0, d=2.0, m2=50.0)
        total = a + b
        for x in [0.0, 0.5, 1.0, 1.5, 2.0, 5.0]:
            assert total.value(x) == pytest.approx(a.value(x) + b.value(x))

    @given(curve_specs(), st.floats(0, 1000))
    @settings(max_examples=200)
    def test_piecewise_representation_matches(self, spec, x):
        assert spec.to_piecewise().value(x) == pytest.approx(
            spec.value(x), rel=1e-9, abs=1e-9
        )

    @given(curve_specs(), st.floats(0, 1e9))
    @settings(max_examples=200)
    def test_inverse_is_least_x(self, spec, y):
        x = spec.inverse(y)
        if x == INFINITY:
            assert spec.value(1e12) < y
            return
        assert spec.value(x) >= y - 1e-6 * max(1.0, y)
        if x > 0:
            assert spec.value(x * (1 - 1e-9)) <= y + 1e-6 * max(1.0, y)


class TestPiecewiseLinearCurve:
    def test_constant(self):
        curve = PiecewiseLinearCurve.constant(1.0, 5.0)
        assert curve.value(0.0) == 5.0
        assert curve.value(100.0) == 5.0
        assert curve.inverse(5.0) == 1.0
        assert curve.inverse(6.0) == INFINITY

    def test_line(self):
        curve = PiecewiseLinearCurve.line(2.0, 10.0, 3.0)
        assert curve.value(4.0) == 16.0
        assert curve.inverse(16.0) == 4.0

    def test_collinear_points_dropped(self):
        curve = PiecewiseLinearCurve([(0, 0), (1, 1), (2, 2)], 1.0)
        assert len(curve.points) == 1

    def test_decreasing_rejected(self):
        with pytest.raises(ConfigurationError):
            PiecewiseLinearCurve([(0, 5), (1, 1)], 0.0)

    def test_unsorted_rejected(self):
        with pytest.raises(ConfigurationError):
            PiecewiseLinearCurve([(1, 0), (0, 1)], 0.0)

    def test_min_with_crossing(self):
        a = PiecewiseLinearCurve.line(0.0, 0.0, 2.0)
        b = PiecewiseLinearCurve.line(0.0, 1.0, 1.0)
        low = a.min_with(b)
        # a is lower until they cross at x=1, then b.
        assert low.value(0.5) == pytest.approx(1.0)
        assert low.value(1.0) == pytest.approx(2.0)
        assert low.value(3.0) == pytest.approx(4.0)
        assert low.final_slope == 1.0

    def test_shifted(self):
        curve = PiecewiseLinearCurve([(0, 0), (1, 2)], 0.5).shifted(10.0, 100.0)
        assert curve.value(10.0) == 100.0
        assert curve.value(11.0) == 102.0

    def test_dominates(self):
        high = PiecewiseLinearCurve.line(0, 1.0, 2.0)
        low = PiecewiseLinearCurve.line(0, 0.0, 2.0)
        assert high.dominates(low)
        assert not low.dominates(high)

    def test_dominates_catches_late_crossing(self):
        slow = PiecewiseLinearCurve.line(0, 100.0, 1.0)
        fast = PiecewiseLinearCurve.line(0, 0.0, 2.0)
        # fast starts below but overtakes far out.
        assert not slow.dominates(fast)

    def test_equals(self):
        a = ServiceCurve(m1=7, d=2, m2=3).to_piecewise()
        b = PiecewiseLinearCurve([(0, 0), (2, 14)], 3.0)
        assert a.equals(b)

    @given(curve_specs(), curve_specs(), st.floats(0, 500))
    @settings(max_examples=200)
    def test_min_is_pointwise_min(self, s1, s2, x):
        a, b = s1.to_piecewise(), s2.to_piecewise()
        low = a.min_with(b)
        expect = min(a.value(x), b.value(x))
        assert low.value(x) == pytest.approx(expect, rel=1e-7, abs=1e-6)

    @given(curve_specs(), curve_specs(), st.floats(0, 500))
    @settings(max_examples=200)
    def test_sum_is_pointwise_sum(self, s1, s2, x):
        a, b = s1.to_piecewise(), s2.to_piecewise()
        total = a.sum_with(b)
        assert total.value(x) == pytest.approx(
            a.value(x) + b.value(x), rel=1e-9, abs=1e-6
        )

    @given(curve_specs(), st.floats(0, 1e7), st.floats(0, 1e7))
    @settings(max_examples=200)
    def test_inverse_monotone(self, spec, y1, y2):
        curve = spec.to_piecewise()
        lo, hi = min(y1, y2), max(y1, y2)
        assert curve.inverse(lo) <= curve.inverse(hi)


class TestAdmission:
    def test_admissible_linear_set(self):
        curves = [ServiceCurve.linear(30.0), ServiceCurve.linear(60.0)]
        assert is_admissible(curves, 100.0)
        assert not is_admissible(curves, 80.0)

    def test_concave_burst_overbooks_start(self):
        # Two concave curves whose first slopes together exceed the link:
        # inadmissible even though long-term rates fit (Section II).
        curves = [
            ServiceCurve(m1=80.0, d=1.0, m2=10.0),
            ServiceCurve(m1=80.0, d=1.0, m2=10.0),
        ]
        assert not is_admissible(curves, 100.0)
        assert is_admissible(curves, 160.0)

    def test_concave_plus_convex_can_fit(self):
        # The Fig. 2 setup: concave + convex complement each other.
        concave = ServiceCurve(m1=75.0, d=1.0, m2=25.0)
        convex = ServiceCurve(m1=25.0, d=1.0, m2=75.0)
        assert is_admissible([concave, convex], 100.0)

    def test_empty_set_is_admissible(self):
        assert is_admissible([], 10.0)

    def test_sum_curves_requires_input(self):
        with pytest.raises(ConfigurationError):
            sum_curves([])

    @given(st.lists(curve_specs(), min_size=1, max_size=5), st.floats(1, 1e7))
    @settings(max_examples=100)
    def test_admissibility_matches_pointwise_check(self, specs, rate):
        verdict = is_admissible(specs, rate)
        xs = [0.01, 0.1, 1.0, 10.0, 100.0, 1e4]
        worst = max(
            sum(s.value(x) for s in specs) - rate * x for x in xs
        )
        if verdict:
            assert worst <= 1e-6 * max(1.0, rate)
        # (The reverse implication is checked at the exact breakpoints
        # inside is_admissible itself; sampled xs may miss the violation.)

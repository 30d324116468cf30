"""Tests for admission headroom utilities and dynamic class removal."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.admission import (
    admissible_rate_headroom,
    max_admissible_scale,
    utilization_profile,
)
from repro.core.curves import ServiceCurve, is_admissible
from repro.core.errors import ConfigurationError
from repro.core.hfsc import HFSC
from repro.sim.packet import Packet


def lin(rate):
    return ServiceCurve.linear(rate)


class TestRateHeadroom:
    def test_empty_set(self):
        assert admissible_rate_headroom([], 100.0) == 100.0

    def test_linear_set(self):
        assert admissible_rate_headroom([lin(30.0), lin(20.0)], 100.0) == pytest.approx(50.0)

    def test_concave_burst_constrains_start(self):
        # Burst slope 90 for 1s: only 10 of rate fits at small t, even
        # though the long-term rate is just 10.
        curve = ServiceCurve(90.0, 1.0, 10.0)
        assert admissible_rate_headroom([curve], 100.0) == pytest.approx(10.0)

    def test_convex_defers_demand(self):
        curve = ServiceCurve(0.0, 1.0, 60.0)
        headroom = admissible_rate_headroom([curve], 100.0)
        # Asymptotically 40 is free; the flat head frees nothing extra for
        # a *linear* candidate (which must fit at large t).
        assert headroom == pytest.approx(40.0, rel=0.01)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            admissible_rate_headroom([], 0.0)

    @given(
        st.lists(
            st.builds(
                ServiceCurve,
                m1=st.floats(0.0, 400.0),
                # d is 0 or macroscopic: with an infinitesimal first
                # segment the slope constraint carries ~zero service and
                # is_admissible correctly ignores it within tolerance,
                # while the headroom bound stays conservative.
                d=st.one_of(st.just(0.0), st.floats(0.01, 5.0)),
                m2=st.floats(1.0, 400.0),
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=100)
    def test_headroom_is_admissible_and_tight(self, curves):
        server = 1000.0
        if not is_admissible(curves, server):
            return
        headroom = admissible_rate_headroom(curves, server)
        if headroom > 1e-6:
            assert is_admissible(curves + [lin(headroom * 0.999)], server)
        assert not is_admissible(curves + [lin(headroom * 1.01 + 1.0)], server)


class TestMaxScale:
    def test_scaling_linear(self):
        scale = max_admissible_scale([lin(40.0)], lin(10.0), 100.0)
        assert scale == pytest.approx(6.0, rel=1e-3)

    def test_infeasible_base_set(self):
        assert max_admissible_scale([lin(200.0)], lin(1.0), 100.0) == 0.0

    def test_non_positive_rate_is_refused(self):
        for rate in (0.0, -100.0):
            with pytest.raises(ConfigurationError,
                               match="server_rate must be positive"):
                max_admissible_scale([lin(40.0)], lin(10.0), rate)

    def test_zero_candidate_scales_without_bound(self):
        assert max_admissible_scale([lin(40.0)], ServiceCurve(0.0, 0.5, 0.0),
                                    100.0) == math.inf

    def test_factor_beyond_every_double_is_inf(self):
        # The exact ratios (1e310, 2e310) have no finite double.
        assert max_admissible_scale([], lin(1e-300), 1e10) == math.inf
        assert max_admissible_scale([], ServiceCurve(1e-300, 0.5, 0.0),
                                    1e10) == math.inf

    def test_scaled_set_admissible(self):
        existing = [ServiceCurve(300.0, 0.5, 100.0)]
        candidate = ServiceCurve(100.0, 0.2, 50.0)
        scale = max_admissible_scale(existing, candidate, 1000.0)
        assert is_admissible(existing + [candidate.scaled(scale * 0.999)], 1000.0)
        assert not is_admissible(existing + [candidate.scaled(scale * 1.01)], 1000.0)


class TestUtilizationProfile:
    def test_empty(self):
        assert utilization_profile([], 100.0) == []

    def test_linear_flat_profile(self):
        profile = utilization_profile([lin(50.0)], 100.0)
        assert all(u == pytest.approx(0.5) for _, u in profile)

    def test_concave_tight_at_small_t(self):
        profile = utilization_profile([ServiceCurve(90.0, 1.0, 10.0)], 100.0)
        start_util = profile[0][1]
        end_util = profile[-1][1]
        assert start_util > end_util
        assert start_util == pytest.approx(0.9, rel=0.01)


class TestClassRemoval:
    def test_remove_idle_leaf(self):
        sched = HFSC(100.0)
        sched.add_class("a", sc=lin(50.0))
        sched.add_class("b", sc=lin(60.0))
        # Inadmissible together; removing one fixes it.
        with pytest.raises(Exception):
            sched.enqueue(Packet("a", 10.0), 0.0)
        sched.remove_class("b")
        assert "b" not in sched
        sched.enqueue(Packet("a", 10.0), 0.0)  # now admissible

    def test_remove_busy_leaf_rejected(self):
        sched = HFSC(100.0)
        sched.add_class("a", sc=lin(50.0))
        sched.enqueue(Packet("a", 10.0), 0.0)
        with pytest.raises(ConfigurationError):
            sched.remove_class("a")
        sched.dequeue(0.0)
        sched.remove_class("a")  # fine once drained

    def test_remove_interior_with_children_rejected(self):
        sched = HFSC(100.0)
        sched.add_class("agg", ls_sc=lin(50.0))
        sched.add_class("leaf", parent="agg", sc=lin(10.0))
        with pytest.raises(ConfigurationError):
            sched.remove_class("agg")
        sched.remove_class("leaf")
        sched.remove_class("agg")

    def test_remove_root_rejected(self):
        sched = HFSC(100.0)
        with pytest.raises(ConfigurationError):
            sched.remove_class("__root__")

    def test_remove_unknown_rejected(self):
        sched = HFSC(100.0)
        with pytest.raises(ConfigurationError):
            sched.remove_class("ghost")

    def test_scheduler_consistent_after_removal(self):
        sched = HFSC(1000.0)
        sched.add_class("a", sc=lin(300.0))
        sched.add_class("b", sc=lin(300.0))
        for _ in range(3):
            sched.enqueue(Packet("a", 50.0), 0.0)
            sched.enqueue(Packet("b", 50.0), 0.0)
        now = 0.0
        while len(sched):
            sched.dequeue(now)
            now += 0.05
        sched.remove_class("b")
        sched.check_invariants()
        sched.enqueue(Packet("a", 50.0), now)
        assert sched.dequeue(now) is not None

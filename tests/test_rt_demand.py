"""The exact eq. (1) aggregate (`repro.core.admission.RtDemand`) against
the from-scratch oracle `is_admissible`, alone and as HFSC keeps it, and
its closed-form scale factors against bisections over that oracle."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core import admission, curves
from repro.core.admission import (
    RtDemand,
    max_admissible_scale,
    uniform_admissible_scale,
    utilization_profile,
)
from repro.core.curves import REL_TOL, ServiceCurve, is_admissible, sum_curves
from repro.core.errors import ConfigurationError, OverloadError
from repro.core.hfsc import HFSC, OVERLOAD_POLICIES, ROOT
from repro.persist.codec import PacketTable, restore_packets
from repro.sim.packet import Packet

lin = ServiceCurve.linear

#: Knees several curves share, so the aggregate's per-knee sums see
#: additions and cancellations, next to freely drawn distinct ones.
SHARED_D = (0.01, 0.05, 0.2)


def rt_curves(max_rate: float = 300.0):
    rate = st.floats(0.0, max_rate)
    knee = st.one_of(st.sampled_from(SHARED_D), st.floats(0.001, 1.0))
    linear = st.builds(lin, st.floats(1.0, max_rate))
    bent = st.builds(ServiceCurve, m1=rate, d=knee, m2=rate)  # concave or convex
    return st.one_of(linear, bent)


def clear_of_edge(curve_set, rate: float) -> bool:
    """The oracle's verdict does not flip within 1e-6 of ``rate``."""
    return (is_admissible(curve_set, rate * (1 - 1e-6))
            == is_admissible(curve_set, rate * (1 + 1e-6)))


def exact_state(demand: RtDemand):
    return demand._slope, dict(demand._knees)


def byte_curves():
    """Linear, concave, convex and ``m1 = 0`` curves at byte scale."""
    slope = st.floats(1e3, 1e7)
    knee = st.one_of(st.sampled_from(SHARED_D), st.floats(0.001, 1.0))
    return st.one_of(
        st.builds(lin, slope),
        st.builds(ServiceCurve, m1=slope, d=knee, m2=slope),
        st.builds(ServiceCurve, m1=st.just(0.0), d=knee, m2=slope),
    )


def bisect_max_scale(existing, candidate, server_rate, tolerance=1e-6,
                     rel_tol=REL_TOL):
    """The search `max_admissible_scale` used to run over `is_admissible`
    (with ``rel_tol`` passed through)."""
    if not is_admissible(list(existing), server_rate, rel_tol):
        return 0.0
    lo, hi = 0.0, 1.0
    while hi < 1e9 and is_admissible(
        list(existing) + [candidate.scaled(hi)], server_rate, rel_tol
    ):
        lo, hi = hi, hi * 2.0
    if hi >= 1e9:
        return hi
    while hi - lo > tolerance * max(1.0, hi):
        mid = (lo + hi) / 2.0
        if is_admissible(list(existing) + [candidate.scaled(mid)], server_rate,
                         rel_tol):
            lo = mid
        else:
            hi = mid
    return lo


def bisect_uniform_scale(curve_set, server_rate, tolerance=1e-6):
    """The search `uniform_admissible_scale` used to run over `is_admissible`."""
    if not curve_set or is_admissible(list(curve_set), server_rate):
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > tolerance:
        mid = (lo + hi) / 2.0
        if is_admissible([c.scaled(mid) for c in curve_set], server_rate):
            lo = mid
        else:
            hi = mid
    return lo


def close_to_oracle(k: float, oracle: float) -> bool:
    """Never below the search's answer beyond 1e-8, and within its 1e-6."""
    return k >= oracle * (1 - 1e-8) and abs(k - oracle) <= 1e-6 * max(1.0, k)


class TestRtDemand:
    def test_empty_fits_everything(self):
        assert RtDemand().fits(1.0)
        assert RtDemand().headroom(250.0) == 250.0

    def test_exactly_full_set_fits(self):
        demand = RtDemand([lin(600.0), lin(400.0)])
        assert demand.fits(1000.0)
        assert not demand.fits(999.0)
        # Full at the knee only: concave burst 900 then rate 100, beside 100.
        burst = RtDemand([ServiceCurve(900.0, 1.0, 100.0), lin(100.0)])
        assert burst.fits(1000.0)
        assert not burst.fits(999.0)

    def test_convex_defers_demand(self):
        # Flat for 1 s, then 1500: fits a 1000 link up to t = 3 only.
        demand = RtDemand([ServiceCurve(0.0, 1.0, 1500.0)])
        assert not demand.fits(1000.0)
        assert demand.fits(1500.0)

    def test_cancelling_knee_is_dropped(self):
        # Concave + convex bending at the same d by opposite amounts sum to
        # a line: the aggregate equals the one built from that line.
        pair = RtDemand([ServiceCurve(300.0, 0.1, 100.0),
                         ServiceCurve(100.0, 0.1, 300.0)])
        assert pair == RtDemand([lin(400.0)])

    @given(st.lists(rt_curves(), max_size=8), st.randoms())
    @settings(max_examples=200, deadline=None)
    def test_order_free_and_removal_exact(self, curve_set, rng):
        demand = RtDemand(curve_set)
        shuffled = list(curve_set)
        rng.shuffle(shuffled)
        assert RtDemand(shuffled) == demand
        before = exact_state(demand)
        extra = ServiceCurve(123.456, 0.0123, 7.89)
        demand.add(extra)
        demand.remove(extra)
        assert exact_state(demand) == before
        for curve in shuffled:
            demand.remove(curve)
        assert exact_state(demand) == (0, {})

    @given(st.lists(rt_curves(), max_size=8), st.floats(100.0, 1500.0))
    @settings(max_examples=300, deadline=None)
    def test_fits_matches_oracle(self, curve_set, rate):
        assume(clear_of_edge(curve_set, rate))
        assert RtDemand(curve_set).fits(rate) == is_admissible(curve_set, rate)

    def test_max_scale_is_exact_at_a_knee_and_on_the_final_slope(self):
        # 800-byte burst over 1 s, then 100/s: the knee binds at 1000 / 800.
        burst = RtDemand([ServiceCurve(800.0, 1.0, 100.0)])
        assert burst.max_scale(1000.0) == 1.25
        # Beside 400/s of base the line has 600/s left: 600 / 250.
        line = RtDemand([lin(250.0)])
        assert line.max_scale(1000.0, RtDemand([lin(400.0)])) == 2.4
        assert RtDemand().max_scale(1000.0) == math.inf
        # A base that alone overbooks leaves nothing.
        assert line.max_scale(1000.0, RtDemand([lin(1500.0)])) == 0.0

    def test_max_scale_rounds_down(self):
        # 1000 / 3 is not a double: the nearest one is above, so step down.
        k = RtDemand([lin(3.0)]).max_scale(1000.0)
        assert Fraction(k) < Fraction(1000, 3)
        assert Fraction(math.nextafter(k, math.inf)) > Fraction(1000, 3)


class TestClosedFormScales:
    """`uniform_admissible_scale` / `max_admissible_scale` against the
    bisections they replaced, at byte-scale magnitudes."""

    @given(st.lists(byte_curves(), min_size=1, max_size=8),
           st.floats(1e3, 1e8))
    @settings(max_examples=200, deadline=None)
    def test_uniform_scale_matches_bisection(self, curve_set, rate):
        k = uniform_admissible_scale(curve_set, rate)
        assert is_admissible([c.scaled(k) for c in curve_set], rate)
        assert close_to_oracle(k, bisect_uniform_scale(curve_set, rate))
        if k < 1.0:
            grown = k * (1 + 1e-8)
            assert not is_admissible([c.scaled(grown) for c in curve_set], rate)

    @given(st.lists(byte_curves(), max_size=6), byte_curves(),
           st.floats(0.5, 4.0))
    @settings(max_examples=200, deadline=None)
    def test_max_scale_matches_bisection(self, existing, candidate, load):
        rate = load * sum(max(c.m1, c.m2) for c in existing) + 1e3
        assume(clear_of_edge(existing, rate))
        # Without the oracle's slack: see test_max_scale_grants_no_slack.
        oracle = bisect_max_scale(existing, candidate, rate, rel_tol=0.0)
        assume(oracle < 2 ** 29)  # below the search's "absurdly large" cap
        k = max_admissible_scale(existing, candidate, rate)
        if not is_admissible(existing, rate):
            assert k == oracle == 0.0
            return
        assert is_admissible(existing + [candidate.scaled(k)], rate)
        assert close_to_oracle(k, oracle)

    def test_max_scale_grants_no_slack(self):
        # `fits` forgives an overshoot of 1e-9 of the link's rate.  For a
        # candidate far smaller than the link that is a large share of its
        # factor: here ~6e-7 of it, which the bisection over the default
        # tolerance took and the exact factor does not.
        existing, candidate, rate = [lin(623657.0)], lin(6145.0), 624657.0
        k = max_admissible_scale(existing, candidate, rate)
        assert Fraction(k) <= Fraction(1000, 6145)
        assert Fraction(math.nextafter(k, math.inf)) > Fraction(1000, 6145)
        assert bisect_max_scale(existing, candidate, rate) > k * (1 + 5e-7)

    def test_uniform_scale_is_one_for_a_fitting_set_else_exact(self):
        assert uniform_admissible_scale([], 1.0) == 1.0
        assert uniform_admissible_scale([lin(600.0), lin(400.0)], 1000.0) == 1.0
        assert uniform_admissible_scale([lin(800.0), lin(800.0)], 1000.0) == 0.625

    def test_uniform_scale_refuses_a_non_positive_rate(self):
        for rate in (0.0, -1.0):
            with pytest.raises(ConfigurationError, match="server_rate"):
                uniform_admissible_scale([lin(1.0)], rate)

    @given(st.lists(byte_curves(), min_size=1, max_size=8),
           st.floats(1e3, 1e8))
    @settings(max_examples=200, deadline=None)
    def test_utilization_profile_matches_the_float_sum(self, curve_set, rate):
        # The float sum merges nearly collinear knees; the exact walk
        # keeps them, so its knees are a superset.
        total = sum_curves([c.to_piecewise() for c in curve_set])
        profile = utilization_profile(curve_set, rate)
        for t, u in profile:
            assert u == pytest.approx(total.value(t) / (rate * t), rel=1e-9)
        assert ({x for x, _ in total.points if x > 0}
                <= {t for t, _ in profile[:-1]})
        assert profile[-1][0] > max(t for t, _ in total.points)


# -- the aggregate as HFSC keeps it ---------------------------------------------


class RtDemandMachine(RuleBasedStateMachine):
    """Live add / update / force-remove / rate changes on an HFSC; after
    every step the kept aggregate answers eq. (1) like the oracle over the
    explicit leaf list (``check_invariants`` also rebuilds it and demands
    exact equality)."""

    @initialize(policy=st.sampled_from(OVERLOAD_POLICIES))
    def setup(self, policy):
        self.sched = HFSC(1000.0, overload_policy=policy)
        self.groups = [ROOT]
        self.leaves = []
        self.count = 0
        self.now = 0.0

    def _name(self, prefix):
        self.count += 1
        return f"{prefix}{self.count}"

    @rule(data=st.data())
    def add_group(self, data):
        parent = data.draw(st.sampled_from(self.groups))
        name = self._name("g")
        self.sched.add_class(name, parent=parent, ls_sc=lin(100.0))
        self.groups.append(name)

    @rule(data=st.data(), rt=st.one_of(st.none(), rt_curves()))
    def add_leaf(self, data, rt):
        parent = data.draw(st.sampled_from(self.groups))
        name = self._name("c")
        self.sched.add_class(name, parent=parent, rt_sc=rt, ls_sc=lin(50.0))
        self.leaves.append(name)

    @precondition(lambda self: self.leaves)
    @rule(data=st.data(), rt=st.one_of(st.none(), rt_curves()))
    def update_leaf(self, data, rt):
        name = data.draw(st.sampled_from(self.leaves))
        self.sched.update_class(name, self.now, rt_sc=rt)

    @precondition(lambda self: len(self.groups) > 1 or self.leaves)
    @rule(data=st.data())
    def remove_subtree(self, data):
        name = data.draw(st.sampled_from(self.groups[1:] + self.leaves))
        self.sched.remove_class(name, force=True)
        alive = set(self.sched._classes)
        self.groups = [g for g in self.groups if g in alive]
        self.leaves = [c for c in self.leaves if c in alive]

    @rule(rate=st.floats(200.0, 2000.0))
    def set_link_rate(self, rate):
        self.sched.set_link_rate(rate)

    @precondition(lambda self: self.leaves)
    @rule(data=st.data())
    def enqueue(self, data):
        name = data.draw(st.sampled_from(self.leaves))
        self.now += 0.01
        try:
            self.sched.enqueue(Packet(name, 100.0), self.now)
        except OverloadError:
            # Only the "raise" policy refuses, and only what eq. (1) refuses.
            assert self.sched.overload_policy == "raise"
            assert not self.sched._rt_demand.fits(self.sched.link_rate)
        self.sched.dequeue(self.now)

    @rule(rt=rt_curves())
    def add_then_remove(self, rt):
        before = exact_state(self.sched._rt_demand)
        name = self._name("t")
        self.sched.add_class(name, rt_sc=rt, ls_sc=lin(10.0))
        self.sched.remove_class(name, force=True)
        assert exact_state(self.sched._rt_demand) == before

    @rule()
    def snapshot_round_trip(self):
        table = PacketTable()
        doc = self.sched.snapshot_state(table.add)
        restored = HFSC.restore_state(doc, restore_packets(table.to_doc()))
        assert restored._rt_demand == self.sched._rt_demand

    @invariant()
    def consistent(self):
        if not hasattr(self, "sched"):
            return
        self.sched.check_invariants()
        curve_set = self.sched.rt_curves()
        rate = self.sched.link_rate
        if clear_of_edge(curve_set, rate):
            assert self.sched._rt_demand.fits(rate) == is_admissible(curve_set, rate)


TestRtDemandMachine = RtDemandMachine.TestCase
TestRtDemandMachine.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)


def test_check_invariants_catches_a_stale_aggregate():
    sched = HFSC(1000.0)
    sched.add_class("a", sc=lin(300.0))
    sched._rt_demand.add(lin(1.0))
    with pytest.raises(AssertionError, match="rt demand aggregate"):
        sched.check_invariants()


@pytest.fixture
def oracle_calls(monkeypatch):
    """The sizes of the sets `is_admissible` is asked about, wherever the
    scheduler or admission could reach it."""
    calls = []

    def counting(leaf_curves, server_rate, rel_tol=1e-9):
        calls.append(len(leaf_curves))
        return is_admissible(leaf_curves, server_rate, rel_tol)

    monkeypatch.setattr(curves, "is_admissible", counting)
    monkeypatch.setattr(admission, "is_admissible", counting, raising=False)
    monkeypatch.setattr("repro.core.hfsc.is_admissible", counting, raising=False)
    return calls


def rt_tree(policy: str) -> HFSC:
    """256 rt leaves under 16 groups on a 1e7 link, 5.12e6 of initial slope."""
    sched = HFSC(1e7, overload_policy=policy)
    for g in range(16):
        sched.add_class(f"g{g}", ls_sc=lin(1e7 / 16))
        for k in range(16):
            sched.add_class(f"g{g}.l{k}", parent=f"g{g}", ls_sc=lin(1e4),
                            rt_sc=ServiceCurve(2e4, 0.01 * (1 + k % 3), 1e4))
    return sched


@pytest.mark.parametrize("policy", OVERLOAD_POLICIES)
def test_post_mutation_check_never_calls_the_oracle_when_the_set_fits(
        policy, oracle_calls):
    sched = rt_tree(policy)
    sched.enqueue(Packet("g0.l0", 100.0), 0.0)
    sched.update_class("g3.l5", 0.0, rt_sc=lin(2e4))
    sched.enqueue(Packet("g0.l0", 100.0), 0.0)
    assert oracle_calls == []
    assert not sched.overload_events


def test_scale_rt_derates_an_overbooked_set_without_the_oracle(oracle_calls):
    sched = rt_tree("scale-rt")
    sched.enqueue(Packet("g0.l0", 100.0), 0.0)
    sched.set_link_rate(5e6)  # below the 5.12e6 the leaves start at
    sched.enqueue(Packet("g0.l1", 100.0), 0.0)
    assert oracle_calls == []
    factor = sched.overload_events[-1]["factor"]
    assert factor < 1.0
    assert factor == 5e6 / 5.12e6  # the initial slopes bind, exactly
    assert is_admissible([cls.rt_spec for cls in sched._rt_leaves()], 5e6)

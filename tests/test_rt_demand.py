"""The exact eq. (1) aggregate (`repro.core.admission.RtDemand`) against
the from-scratch oracle `is_admissible`, alone and as HFSC keeps it."""

from __future__ import annotations

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
from repro.core.admission import RtDemand
from repro.core.curves import ServiceCurve, is_admissible
from repro.core.errors import OverloadError
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


@pytest.mark.parametrize("policy", OVERLOAD_POLICIES)
def test_post_mutation_check_never_calls_the_oracle_when_the_set_fits(
        policy, monkeypatch):
    calls = []

    def counting(leaf_curves, server_rate, rel_tol=1e-9):
        calls.append(len(leaf_curves))
        return is_admissible(leaf_curves, server_rate, rel_tol)

    for module in (curves, admission):
        monkeypatch.setattr(module, "is_admissible", counting)
    monkeypatch.setattr("repro.core.hfsc.is_admissible", counting, raising=False)
    sched = HFSC(1e7, overload_policy=policy)
    for g in range(16):
        sched.add_class(f"g{g}", ls_sc=lin(1e7 / 16))
        for k in range(16):
            sched.add_class(f"g{g}.l{k}", parent=f"g{g}", ls_sc=lin(1e4),
                            rt_sc=ServiceCurve(2e4, 0.01 * (1 + k % 3), 1e4))
    sched.enqueue(Packet("g0.l0", 100.0), 0.0)
    sched.update_class("g3.l5", 0.0, rt_sc=lin(2e4))
    sched.enqueue(Packet("g0.l0", 100.0), 0.0)
    assert calls == []
    assert not sched.overload_events

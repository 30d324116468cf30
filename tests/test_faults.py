"""Chaos-injection suite: no crashes, conservation, guarantees, determinism."""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import flatstate
from repro.core.curves import ServiceCurve
from repro.core.errors import ConfigurationError
from repro.core.hfsc import HFSC, OVERLOAD_POLICIES
from repro.sim.engine import EventLoop
from repro.sim.faults import (
    ArrivalFaultGate,
    ChaosInjector,
    Fault,
    FaultSchedule,
    Watchdog,
    run_chaos,
)
from repro.sim.link import Link
from repro.sim.network import Network
from repro.sim.packet import Packet
from repro.util.rng import make_rng


# -- the headline chaos property: no crash + conservation, every policy ------


@pytest.mark.parametrize("policy", OVERLOAD_POLICIES)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_chaos_run_conserves_packets_under_every_policy(policy, seed):
    result = run_chaos(seed, policy=policy)
    books = result.conservation()
    assert books["ok"], books
    assert result.violations() == []
    result.scheduler.check_invariants()
    # Chaos actually happened: faults were applied and packets flowed.
    assert result.injector.applied
    assert len(result.served) > 100


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    policy=st.sampled_from(OVERLOAD_POLICIES),
)
def test_chaos_property_no_crash_and_conservation(seed, policy):
    result = run_chaos(seed, duration=1.0, policy=policy)
    books = result.conservation()
    assert books["ok"], books
    result.scheduler.check_invariants()
    for report in result.watchdog.reports:
        assert report.kind != "invariant", report.detail


def test_chaos_guarantees_hold_for_unfaulted_class_under_churn():
    # Rate flaps, an outage, class churn and arrival faults on *other*
    # classes: the protected class's eq. (1) guarantee must hold to the
    # graceful-degradation slack.
    for seed in (11, 12, 13):
        result = run_chaos(seed, overload_episode=False)
        assert result.guarantees, "scenario must audit the protected class"
        assert result.guarantee_violations() == {}


def test_chaos_guarantees_hold_without_any_faults():
    result = run_chaos(3, faults=False, overload_episode=False, arrival_faults=False)
    assert result.guarantee_violations() == {}
    assert result.conservation()["ok"]


# -- determinism and the pay-for-what-you-use gate ---------------------------


def test_chaos_is_deterministic_per_seed():
    a = run_chaos(42)
    b = run_chaos(42)
    assert a.schedule_digest() == b.schedule_digest()
    assert a.to_report() == b.to_report()


def test_different_seeds_differ():
    assert run_chaos(1).schedule_digest() != run_chaos(2).schedule_digest()


def test_faults_disabled_matches_plain_run_byte_for_byte():
    # With every fault toggle off, the chaos harness must be invisible:
    # two independent runs and the digest of a run with the watchdog
    # still attached all agree.
    kwargs = dict(faults=False, overload_episode=False, arrival_faults=False)
    baseline = run_chaos(9, **kwargs)
    again = run_chaos(9, **kwargs)
    assert baseline.schedule_digest() == again.schedule_digest()
    # No fault machinery fired.
    assert baseline.injector.applied == []
    assert all(g.dropped == 0 and g.delayed == 0 for g in baseline.gates.values())


# -- FaultSchedule ------------------------------------------------------------


def test_fault_schedule_random_is_deterministic():
    a = FaultSchedule.random(5, 2.0, 1000.0, churn_parent="B", churn_rate=50.0)
    b = FaultSchedule.random(5, 2.0, 1000.0, churn_parent="B", churn_rate=50.0)
    assert [(f.time, f.kind, f.params) for f in a] == [
        (f.time, f.kind, f.params) for f in b
    ]
    assert len(a) > 0


def test_fault_schedule_is_time_ordered():
    schedule = FaultSchedule()
    schedule.set_rate(2.0, 100.0)
    schedule.outage(0.5, 0.1, 200.0)
    schedule.rebuild(1.0)
    times = [f.time for f in schedule]
    assert times == sorted(times)


def test_fault_validation():
    with pytest.raises(ConfigurationError):
        Fault(1.0, "meteor-strike")
    with pytest.raises(ConfigurationError):
        Fault(-1.0, "rebuild")
    with pytest.raises(ConfigurationError):
        FaultSchedule().outage(0.0, 0.0, 100.0)


# -- ChaosInjector ------------------------------------------------------------


def test_injector_records_refused_reconfigurations():
    loop = EventLoop()
    sched = HFSC(1000.0)
    sched.add_class("a", sc=ServiceCurve.linear(400.0))
    link = Link(loop, sched)
    injector = ChaosInjector(loop, link, sched)
    schedule = FaultSchedule()
    schedule.remove_class(0.1, "ghost")          # unknown: refused
    schedule.update_class(0.2, "a", sc=ServiceCurve.linear(300.0))  # fine
    injector.arm(schedule)
    loop.run(until=1.0)
    assert len(injector.rejected) == 1
    assert injector.rejected[0][1].kind == "remove-class"
    assert "ghost" in injector.rejected[0][2]
    assert len(injector.applied) == 1
    assert sched["a"].rt_spec.m2 == 300.0


def test_injector_rate_fault_hits_link_and_scheduler_together():
    loop = EventLoop()
    sched = HFSC(1000.0)
    sched.add_class("a", sc=ServiceCurve.linear(400.0))
    link = Link(loop, sched)
    injector = ChaosInjector(loop, link, sched)
    schedule = FaultSchedule().set_rate(0.5, 800.0)
    injector.arm(schedule)
    loop.run(until=1.0)
    assert link.rate == 800.0
    assert sched.link_rate == 800.0
    # An outage touches only the transmitter, never the capacity model.
    injector.arm(FaultSchedule().set_rate(1.5, 0.0))
    loop.run(until=2.0)
    assert link.rate == 0.0
    assert sched.link_rate == 800.0


# -- ArrivalFaultGate ---------------------------------------------------------


def test_gate_transparent_when_unconfigured():
    loop = EventLoop()
    sched = HFSC(1000.0)
    sched.add_class("a", sc=ServiceCurve.linear(400.0))
    link = Link(loop, sched)
    gate = ArrivalFaultGate(loop, link)
    gate.offer(Packet("a", 100.0))
    assert gate.offered == gate.delivered == 1
    assert gate.dropped == gate.delayed == 0


def test_gate_requires_rng_for_faults():
    loop = EventLoop()
    with pytest.raises(ConfigurationError):
        ArrivalFaultGate(loop, None, loss=0.1)
    with pytest.raises(ConfigurationError):
        ArrivalFaultGate(loop, None, loss=1.5, rng=random.Random(0))


def test_gate_loss_and_jitter_accounting():
    loop = EventLoop()
    sched = HFSC(1000.0)
    sched.add_class("a", sc=ServiceCurve.linear(400.0))
    link = Link(loop, sched)
    gate = ArrivalFaultGate(loop, link, loss=0.5, jitter=0.01, rng=make_rng(1, "g"))
    for _ in range(200):
        gate.offer(Packet("a", 10.0))
    loop.run(until=5.0)
    assert 0 < gate.dropped < 200
    assert gate.dropped + gate.delivered == 200
    assert sched.total_enqueued == gate.delivered


def test_gate_absorbs_overload_as_rejections():
    loop = EventLoop()
    sched = HFSC(1000.0)  # policy "raise"
    sched.add_class("a", sc=ServiceCurve.linear(600.0))
    sched.add_class("hog", sc=ServiceCurve.linear(600.0))  # overbooked
    link = Link(loop, sched)
    gate = ArrivalFaultGate(loop, link)
    gate.offer(Packet("a", 100.0))
    assert gate.delivered == 0
    assert len(gate.rejections) == 1
    assert gate.rejections[0][1] == "a"
    assert sched.total_enqueued == 0


# -- Watchdog -----------------------------------------------------------------


def test_watchdog_reports_invariant_violation_and_can_rebuild():
    loop = EventLoop()
    sched = HFSC(1000.0)
    sched.add_class("a", sc=ServiceCurve.linear(400.0))
    sched.enqueue(Packet("a", 100.0), 0.0)
    watchdog = Watchdog(loop, sched, period=0.1, auto_rebuild=True)
    # Sabotage a derived structure; the next tick must catch and repair it.
    flatstate.elig_remove(sched._flat, sched["a"].slot)
    loop.run(until=0.35)
    watchdog.stop()
    kinds = [r.kind for r in watchdog.reports]
    assert "invariant" in kinds
    assert watchdog.rebuilds >= 1
    sched.check_invariants()  # repaired
    # Only the sabotaged window reported; later ticks are clean.
    assert len([k for k in kinds if k == "invariant"]) == 1
    assert watchdog.checks_run >= 3


def test_watchdog_clean_run_reports_nothing():
    loop = EventLoop()
    sched = HFSC(1000.0)
    sched.add_class("a", sc=ServiceCurve.linear(400.0))
    link = Link(loop, sched)
    watchdog = Watchdog(loop, sched, period=0.25)
    for i in range(10):
        loop.schedule(0.1 * i, link.offer, Packet("a", 50.0))
    loop.run(until=2.0)
    watchdog.stop()
    assert watchdog.reports == []
    assert watchdog.checks_run >= 4


def test_watchdog_report_serializes():
    loop = EventLoop()
    sched = HFSC(1000.0)
    sched.add_class("a", sc=ServiceCurve.linear(400.0))
    sched.enqueue(Packet("a", 100.0), 0.0)
    watchdog = Watchdog(loop, sched, period=0.1)
    flatstate.elig_remove(sched._flat, sched["a"].slot)
    loop.run(until=0.15)
    watchdog.stop()
    report = watchdog.reports[0].to_dict()
    assert report["kind"] == "invariant"
    assert isinstance(report["detail"], str)


# -- Hop impairments (per-hop loss / duplication / reorder) ------------------


def _one_hop_net(loss=0.0, dup=0.0, reorder=0.0, reorder_delay=0.0, rng=None):
    loop = EventLoop()
    sched = HFSC(1000.0)
    sched.add_class("f", sc=ServiceCurve.linear(800.0))
    net = Network(loop)
    hop = net.add_hop("src", "dst", sched, delay=0.01)
    net.add_route("f", ["src", "dst"])
    delivered = []
    net.add_delivery_listener("f", lambda p, t: delivered.append((p, t)))
    hop.impair(loss=loss, dup=dup, reorder=reorder,
               reorder_delay=reorder_delay, rng=rng)
    return loop, net, hop, delivered


def test_hop_loss_drops_packets_with_accounting():
    loop, net, hop, delivered = _one_hop_net(loss=0.5, rng=make_rng(2, "hop"))
    for i in range(100):
        loop.schedule(0.01 * i, net.ingress("f").offer, Packet("f", 10.0))
    loop.run(until=10.0)
    assert 0 < hop.lost_packets < 100
    assert len(delivered) + hop.lost_packets == 100


def test_hop_duplication_creates_fresh_packets():
    loop, net, hop, delivered = _one_hop_net(dup=1.0, rng=make_rng(3, "hop"))
    loop.schedule(0.0, net.ingress("f").offer, Packet("f", 10.0))
    loop.run(until=10.0)
    assert hop.duplicated_packets == 1
    assert len(delivered) == 2
    assert delivered[0][0] is not delivered[1][0]  # distinct objects


def test_hop_reorder_lets_later_packets_overtake():
    loop, net, hop, delivered = _one_hop_net(
        reorder=0.3, reorder_delay=0.5, rng=make_rng(4, "hop")
    )
    for i in range(50):
        loop.schedule(0.02 * i, net.ingress("f").offer, Packet("f", 10.0))
    loop.run(until=20.0)
    assert len(delivered) == 50
    assert hop.reordered_packets > 0
    uids = [p.uid for p, _ in delivered]
    assert uids != sorted(uids)  # at least one overtake happened


def test_hop_impair_validation():
    loop = EventLoop()
    sched = HFSC(1000.0)
    sched.add_class("f", sc=ServiceCurve.linear(800.0))
    net = Network(loop)
    hop = net.add_hop("src", "dst", sched)
    with pytest.raises(ConfigurationError):
        hop.impair(loss=2.0, rng=random.Random(0))
    with pytest.raises(ConfigurationError):
        hop.impair(loss=0.1)  # no rng
    with pytest.raises(ConfigurationError):
        hop.impair(reorder_delay=-1.0)


# -- EventLoop.every ----------------------------------------------------------


def test_every_fires_periodically_and_cancels():
    loop = EventLoop()
    ticks = []
    task = loop.every(0.5, lambda: ticks.append(loop.now))
    loop.run(until=2.6)
    assert ticks == [0.5, 1.0, 1.5, 2.0, 2.5]
    task.cancel()
    loop.run(until=5.0)
    assert len(ticks) == 5


def test_every_honors_start_until_and_self_cancel():
    loop = EventLoop()
    ticks = []
    loop.every(1.0, lambda: ticks.append(loop.now), start=0.25, until=2.5)
    loop.run(until=10.0)
    assert ticks == [0.25, 1.25, 2.25]

    loop2 = EventLoop()
    hits = []

    def once():
        hits.append(loop2.now)
        task.cancel()

    task = loop2.every(0.1, once)
    loop2.run(until=1.0)
    assert hits == [pytest.approx(0.1)]


def test_every_rejects_bad_period():
    from repro.core.errors import SimulationError

    with pytest.raises(SimulationError):
        EventLoop().every(0.0, lambda: None)

"""Ablation benches for the design choices DESIGN.md calls out.

Two knobs of the H-FSC design are isolated here:

* **system virtual time policy** -- Section IV-C argues for
  ``(v_min + v_max)/2``; the bench quantifies the sibling virtual-time
  spread under "mean" vs "min" vs "max" (the alternatives make the
  discrepancy grow with fan-out).
* **real-time criterion on/off** -- removing the rt criterion (pure
  hierarchical link-sharing) must destroy the deep leaf's delay bound,
  demonstrating why H-FSC needs both criteria.
"""

import random

import pytest

from repro.core.curves import ServiceCurve
from repro.core.hfsc import HFSC
from repro.sim.drive import drive
from repro.sim.packet import Packet


def lin(rate):
    return ServiceCurve.linear(rate)


@pytest.mark.parametrize("policy", ["mean", "min", "max"])
def test_vt_policy_sibling_spread(benchmark, policy):
    """Max spread of active siblings' virtual times under each policy."""
    n = 12
    link = 1000.0

    def work():
        sched = HFSC(link, vt_policy=policy, admission_control=False)
        for cid in range(n):
            sched.add_class(cid, ls_sc=lin(50.0 + 10.0 * cid))
        rng = random.Random(3)
        # Staggered on/off backlog so classes keep rejoining.
        for burst in range(20):
            for cid in range(n):
                if rng.random() < 0.7:
                    sched.enqueue(Packet(cid, 100.0), 0.0)
            spread = 0.0
            while len(sched):
                sched.dequeue(0.0)
                vts = list(sched.virtual_times().values())
                if len(vts) >= 2:
                    spread = max(spread, max(vts) - min(vts))
        return spread

    spread = benchmark.pedantic(work, rounds=1, iterations=1)
    benchmark.extra_info["max_vt_spread"] = spread
    print(f"\nvt_policy={policy}: max sibling vt spread = {spread:.3f}")


def test_realtime_criterion_ablation(benchmark):
    """Leaf delay with and without the rt criterion at depth 3 (E7 topo)."""
    from repro.experiments import e7_depth

    link = e7_depth.LINK
    bound = e7_depth.AUDIO_DMAX + e7_depth.CROSS_PKT / link

    def delay_with(realtime):
        sched = HFSC(link, admission_control=False, realtime=realtime)

        def add_interior(name, parent, rate):
            sched.add_class(name, parent=parent, ls_sc=lin(rate))

        def add_leaf(name, parent, rate, kind):
            if kind == "audio":
                sched.add_class(
                    name, parent=parent,
                    sc=ServiceCurve.from_delay(
                        e7_depth.AUDIO_PKT, e7_depth.AUDIO_DMAX,
                        e7_depth.AUDIO_RATE,
                    ),
                )
            else:
                sched.add_class(name, parent=parent,
                                rt_sc=lin(0.8 * rate), ls_sc=lin(rate))

        cross = e7_depth._build_topology(3, add_interior, add_leaf)
        served = drive(sched, e7_depth._arrivals(cross),
                       until=e7_depth.HORIZON + 40.0)
        return max(p.delay for p in served if p.class_id == "audio")

    def work():
        return delay_with(True), delay_with(False)

    with_rt, without_rt = benchmark.pedantic(work, rounds=1, iterations=1)
    print(f"\naudio max delay: rt on {with_rt*1e3:.2f} ms, "
          f"rt off {without_rt*1e3:.2f} ms (bound {bound*1e3:.2f} ms)")
    assert with_rt <= bound + 1e-9
    assert without_rt > bound

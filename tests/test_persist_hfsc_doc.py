"""``HFSC.snapshot_state`` against a document read cell by cell.

``snapshot_state`` builds each class row in one pass over the
scheduler's flat columns, with a row memo for idle classes.  The
reference below builds the same document the slow way: the scalar and
spec properties of each ``HFSCClass``, plus the curve cells and the
sibling-heap insertion order read from the columns by the helpers
here.  The two must agree key for key, value for value and JSON type
for JSON type -- so the canonical checksum of a state does not depend
on which of the two read it -- at several points of the golden H-FSC
scenarios and of the overload policies.  Tier-1 runs on both the
compiled and the pure kernels (``REPRO_NO_COMPILED=1``), which covers
both legs.
"""

import json

import pytest

from repro.core.curves import ServiceCurve
from repro.core.hfsc import HFSC
from repro.persist.codec import (
    PacketTable,
    body_checksum,
    dumps_snapshot,
    loads_snapshot,
)
from repro.persist.harness import DriveRun
from repro.persist.scenarios import DRIVE_SETUPS, eventloop_mixed_context
from repro.sim.packet import Packet

HFSC_DRIVES = ("e4_phases", "e5_decoupling", "ul_caps", "rt_only")
SERVED_STOPS = (0, 1, 37, 400, 2500)  # departures before each snapshot


def _spec(spec):
    return None if spec is None else [spec.m1, spec.d, spec.m2]


def _curve(cls, kind):
    """One runtime curve's five stored cells, or None when absent."""
    state, slot = cls.state, cls.slot
    if not getattr(state, f"{kind}_on")[slot]:
        return None
    return [getattr(state, f"{kind}_{field}")[slot]
            for field in ("x0", "y0", "m1", "dx", "m2")]


def _order(cls):
    """Names of ``cls``'s active children in heap insertion order."""
    state = cls.state
    seqs = state.hmin_seq[cls.slot]
    slots = state.hmin_slot[cls.slot]
    return [state.obj[slots[i]].name
            for i in sorted(range(len(seqs)), key=seqs.__getitem__)]


def facade_doc(sched):
    """``snapshot_state``'s document, per-class parts read cell by cell."""
    doc = sched.snapshot_state(PacketTable().add)
    doc["classes"] = [{
        "name": cls.name,
        "parent": cls.parent.name,
        "index": cls.index,
        "rt_requested": _spec(cls.rt_requested),
        "rt_spec": _spec(cls.rt_spec),
        "rt_admitted": cls.rt_admitted,
        "ls_spec": _spec(cls.ls_spec),
        "ul_spec": _spec(cls.ul_spec),
        "queue": [p.uid for p in cls.queue],
        "cumul_rt": cls.cumul_rt,
        "total_work": cls.total_work,
        "bytes_rt": cls.bytes_rt,
        "bytes_ls": cls.bytes_ls,
        "deadline_curve": _curve(cls, "dc"),
        "eligible_curve": _curve(cls, "ec"),
        "virtual_curve": _curve(cls, "vc"),
        "ul_curve": _curve(cls, "ul"),
        "eligible": cls.eligible,
        "deadline": cls.deadline,
        "vt": cls.vt,
        "fit_time": cls.fit_time,
        "vt_watermark": cls.vt_watermark,
        "active_order": _order(cls),
    } for cls in sched.classes()]
    doc["root"] = {
        "total_work": sched.root.total_work,
        "vt_watermark": sched.root.vt_watermark,
        "active_order": _order(sched.root),
    }
    return doc


def assert_matches_facade(sched):
    doc = sched.snapshot_state(PacketTable().add)
    reference = facade_doc(sched)
    # JSON text, not ==: True == 1 == 1.0 would hide a type change.
    assert json.dumps(doc, sort_keys=True) == json.dumps(reference,
                                                         sort_keys=True)
    assert body_checksum(doc) == body_checksum(reference)


@pytest.mark.parametrize("origin", ("tree", "heap"))
@pytest.mark.parametrize("name", HFSC_DRIVES)
def test_drive_scenarios_match_facade(name, origin):
    """``origin="tree"``: at every stop the run is also resumed from its
    checkpoint, relabelled as written by the retired tree eligible set,
    and the restored scheduler must snapshot to its façade doc too."""
    sched, arrivals, until = DRIVE_SETUPS[name]()
    run = DriveRun(sched, arrivals, until)
    for stop in SERVED_STOPS:
        run.run(max_served=stop)
        assert_matches_facade(run.scheduler)
        if origin == "tree":
            body = loads_snapshot(dumps_snapshot(run.snapshot_body()))
            body["scheduler"]["config"]["eligible_backend"] = "tree"
            run = DriveRun.restore(body, DRIVE_SETUPS[name]()[1])
            assert_matches_facade(run.scheduler)
    run.run()
    assert_matches_facade(run.scheduler)


def test_event_loop_scenario_matches_facade():
    ctx, until = eventloop_mixed_context()
    for t in (0.01, 0.3, 2.0, 5.5, until):
        ctx.loop.run(until=t)
        assert_matches_facade(ctx.scheduler)


@pytest.mark.parametrize("policy", ("reject", "scale-rt", "linkshare-only"))
def test_overload_policies_match_facade(policy):
    # Real-time curves overbook the link, so the policy derates
    # (rt_spec != rt_requested) or strips (rt_admitted false) some.
    sched = HFSC(10_000.0, overload_policy=policy)
    sched.add_class("a", sc=ServiceCurve(6_000.0, 0.02, 5_000.0))
    sched.add_class("b", rt_sc=ServiceCurve(0.0, 0.05, 4_000.0),
                    ls_sc=ServiceCurve.linear(3_000.0))
    sched.add_class("c", sc=ServiceCurve.linear(4_500.0),
                    ul_sc=ServiceCurve.linear(6_000.0))
    now = 0.0
    for k in range(30):
        sched.enqueue(Packet("abc"[k % 3], 200.0 + 10.0 * k), now)
    assert sched.overload_events
    for _ in range(20):
        packet = sched.dequeue(now)
        if packet is None:
            now = sched.next_ready_time(now)
            continue
        now += packet.size / sched.link_rate
        assert_matches_facade(sched)

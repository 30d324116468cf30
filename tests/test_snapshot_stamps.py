"""Change stamps: every write of a row cell stamps the slot, reads never do.

``HFSC.snapshot_state`` reuses an idle class's row while the slot's
``stamp`` is no later than the epoch the row was encoded at.  A writer
that changes one of a slot's 35 row cells (``index``, ``rt_adm``, the
nine scalars, ``on/x0/y0/m1/dx/m2`` of the four curves) without stamping
it would leave a stale row in every later snapshot.

Each write-path test runs on both kernel legs -- the pure kernels, and
the compiled ones when they are loaded -- and checks one write in a
fresh epoch: every slot whose row cells changed (compared by their
IEEE-754 bytes) must carry the current epoch afterwards, and the write
must change something, so no case passes vacuously.  The read paths
(invariant checks, virtual times, the watchdog, a ``classes`` reply, the
snapshot itself) must leave every idle row reusable.
"""

from __future__ import annotations

import json
import struct

import pytest

from repro.core import flatstate
from repro.core.curves import ServiceCurve
from repro.core.flatstate import (
    CURVE_KINDS, VT_MEAN, curve_clear, curve_set,
)
from repro.core.hfsc import HFSC
from repro.persist.codec import (
    PacketTable, dumps_snapshot, loads_snapshot, restore_packets,
)
from repro.serve.control import ControlServer
from repro.serve.hierarchy import hierarchy_preset
from repro.serve.service import ServeService
from repro.sim.packet import Packet

LINK = 10_000.0

ROW_CELLS = (
    "index", "rt_adm",
    "cumul_rt", "total_work", "vt", "eligible", "deadline", "fit_time",
    "vt_watermark", "bytes_rt", "bytes_ls",
) + tuple(f"{kind}_{field}" for kind in CURVE_KINDS
          for field in ("on", "x0", "y0", "m1", "dx", "m2"))
assert len(ROW_CELLS) == 35


@pytest.fixture(params=["pure", "compiled"])
def leg(request, monkeypatch):
    """Route every kernel call through one leg's kernels."""
    if request.param == "compiled":
        if not flatstate.COMPILED:
            pytest.skip("compiled kernels not loaded")
    else:
        for name, kernel in flatstate.PURE_KERNELS.items():
            monkeypatch.setattr(flatstate, name, kernel)
    return request.param


def lin(rate):
    return ServiceCurve.linear(rate)


def bits(value):
    if isinstance(value, float):
        return struct.pack("<d", value)
    return (type(value).__name__, value)


def row_cells(state, slot):
    return [bits(getattr(state, name)[slot]) for name in ROW_CELLS]


def snapshot(sched):
    return sched.snapshot_state(PacketTable().add)


def tree(**kwargs):
    """g -> {a: concave rt + ls + ul, b: rt + ls}, c: ls only, r: rt only."""
    sched = HFSC(LINK, **kwargs)
    sched.add_class("g", ls_sc=lin(6000.0))
    sched.add_class("a", parent="g", rt_sc=ServiceCurve(3000.0, 0.01, 1000.0),
                    ls_sc=lin(3000.0), ul_sc=lin(5000.0))
    sched.add_class("b", parent="g", rt_sc=lin(1000.0), ls_sc=lin(2000.0))
    sched.add_class("c", ls_sc=lin(2000.0))
    sched.add_class("r", rt_sc=lin(500.0))
    return sched


def feed(sched, now, **counts):
    for name, count in counts.items():
        for _ in range(count):
            sched.enqueue(Packet(name, 100.0), now)


def drain(sched, now):
    """Serve until every queue is empty (rt-only leaves wait to be
    eligible); returns the time reached."""
    for _ in range(10_000):
        if not len(sched):
            return now
        sched.dequeue_batch(now, 4)
        now += 0.05
    raise AssertionError("backlog did not drain")


def assert_stamped(sched, write):
    """Run ``write`` in a fresh epoch; each slot whose row cells changed
    must carry that epoch.  Returns the names of the changed classes."""
    state = sched._flat
    snapshot(sched)  # advances the epoch
    epoch = state.epoch[0]
    named = {cls.slot: cls.name for cls in sched._classes.values()}
    before = {s: row_cells(state, s) for s in named}
    write()
    changed = [s for s in named if row_cells(state, s) != before[s]]
    stale = [named[s] for s in changed if state.stamp[s] != epoch]
    assert not stale, f"row cells of {stale} changed without a stamp"
    assert changed, "the write changed no row cell"
    return {named[s] for s in changed}


# -- write paths --------------------------------------------------------------
#
# Each case builds its scheduler, brings it to the state the write needs
# and returns the write.


def serve_realtime():
    sched = tree()
    feed(sched, 0.0, a=3, b=3)
    return sched, lambda: sched.dequeue_batch(0.05, 1)


def serve_linkshare():
    sched = tree()
    feed(sched, 0.0, c=3)
    return sched, lambda: sched.dequeue_batch(0.0, 1)


def serve_rt_only():
    sched = tree()
    feed(sched, 0.0, r=3)
    return sched, lambda: sched.dequeue_batch(0.5, 1)


def serve_last_packet():
    sched = tree()
    feed(sched, 0.0, a=1)
    return sched, lambda: sched.dequeue_batch(0.05, 1)


def activate_fresh():
    sched = tree()
    return sched, lambda: feed(sched, 0.0, a=1)


def activate_min_with():
    sched = tree()
    feed(sched, 0.0, a=2, b=2)
    now = drain(sched, 0.0)
    return sched, lambda: feed(sched, now, a=1)


def activate_rt_only_min_with():
    sched = tree()
    feed(sched, 0.0, r=2)
    now = drain(sched, 0.0)
    return sched, lambda: feed(sched, now, r=1)


def activate_ls_kernel():
    sched = tree()
    state = sched._flat
    return sched, lambda: flatstate.activate_ls(state, sched["c"].slot, VT_MEAN)


def passivate_ls_kernel():
    sched = tree()
    feed(sched, 0.0, a=2)
    sched.dequeue_batch(0.0, 1)
    state = sched._flat
    return sched, lambda: flatstate.passivate_ls(state, sched["a"].slot)


def curve_set_cold():
    sched = tree()
    state = sched._flat
    return sched, lambda: curve_set(state, "vc", sched["a"].slot,
                                    1.0, 2.0, 3.0, 4.0, 5.0)


def curve_clear_cold():
    sched = tree()
    feed(sched, 0.0, a=1)
    drain(sched, 0.0)
    state = sched._flat
    return sched, lambda: curve_clear(state, "dc", sched["a"].slot)


def reset_slot():
    sched = tree()
    feed(sched, 0.0, a=2)
    drain(sched, 0.0)
    state = sched._flat
    return sched, lambda: state._reset_slot(sched["a"].slot)


def update_ls_active():
    sched = tree()
    feed(sched, 0.0, a=3, b=3)
    return sched, lambda: sched.update_class("a", 0.0, ls_sc=lin(1500.0))


def update_ls_removed():
    sched = tree()
    feed(sched, 0.0, a=3, b=3)
    return sched, lambda: sched.update_class("a", 0.0, ls_sc=None)


def update_rt_backlogged():
    sched = tree()
    feed(sched, 0.0, a=3)
    return sched, lambda: sched.update_class("a", 0.0, rt_sc=lin(800.0))


def update_rt_removed():
    sched = tree()
    feed(sched, 0.0, a=2)
    drain(sched, 0.0)
    return sched, lambda: sched.update_class("a", 1.0, rt_sc=None)


def update_ul_backlogged():
    sched = tree()
    feed(sched, 0.0, a=3)
    return sched, lambda: sched.update_class("a", 0.0, ul_sc=lin(4000.0))


def update_ul_removed():
    sched = tree()
    feed(sched, 0.0, a=2)
    drain(sched, 0.0)
    return sched, lambda: sched.update_class("a", 1.0, ul_sc=None)


def scale_rt_after_rate_drop():
    sched = tree(overload_policy="scale-rt")
    feed(sched, 0.0, a=3, b=3)

    def write():
        sched.set_link_rate(1500.0)
        feed(sched, 0.0, a=1)  # a is backlogged: only the policy writes

    return sched, write


def renormalize(packets, shifts_before, shifts):
    """c served ``packets`` (its vt ~ packets / 20), renormalized
    ``shifts_before`` times; the write renormalizes once more."""

    def make():
        sched = tree()
        feed(sched, 0.0, c=packets)
        drain(sched, 0.0)
        for _ in range(shifts_before):
            sched.renormalize_vt()

        def write():
            assert sched.renormalize_vt() == shifts

        return sched, write

    return make


def rebuild():
    sched = tree()
    feed(sched, 0.0, a=2, b=2, c=2)
    now = drain(sched, 0.0)
    feed(sched, now, b=2)
    return sched, lambda: sched.rebuild(now)


def reanchor_rt():
    sched = tree()
    feed(sched, 0.0, a=3)
    a = sched["a"]
    a.rt_spec = ServiceCurve(2000.0, 0.02, 500.0)  # a spec object, no cell
    return sched, lambda: sched._reanchor_rt(a, 0.01)


def reject_strips_newest():
    sched = tree(overload_policy="reject")
    sched.add_class("d", rt_sc=lin(500.0), ls_sc=lin(500.0))
    feed(sched, 0.0, a=3, d=3)
    sched.update_class("d", 0.0, rt_sc=lin(9000.0))
    return sched, lambda: feed(sched, 0.0, a=1)


WRITE_PATHS = {
    "serve_step/realtime": serve_realtime,
    "serve_step/linkshare": serve_linkshare,
    "serve_step/last-packet": serve_last_packet,
    "serve_step/rt-only": serve_rt_only,
    "activate_step/fresh": activate_fresh,
    "activate_step/min_with": activate_min_with,
    "activate_step/rt-only-min_with": activate_rt_only_min_with,
    "activate_ls": activate_ls_kernel,
    "passivate_ls": passivate_ls_kernel,
    "curve_set": curve_set_cold,
    "curve_clear": curve_clear_cold,
    "_reset_slot": reset_slot,
    "update_class/ls-active": update_ls_active,
    "update_class/ls-removed": update_ls_removed,
    "update_class/rt-backlogged": update_rt_backlogged,
    "update_class/rt-removed": update_rt_removed,
    "update_class/ul-backlogged": update_ul_backlogged,
    "update_class/ul-removed": update_ul_removed,
    "set_link_rate/scale-rt": scale_rt_after_rate_drop,
    # vt 4 folds and shifts; vt 0.25 only folds (nothing above 2); vt 12
    # shifted once has nothing left to fold and shifts again.
    "renormalize_vt/fold-shift": renormalize(80, 0, 1),
    "renormalize_vt/fold-only": renormalize(5, 0, 0),
    "renormalize_vt/shift-only": renormalize(240, 1, 1),
    "rebuild": rebuild,
    "_reanchor_rt": reanchor_rt,
    "_apply_reject": reject_strips_newest,
}


@pytest.mark.parametrize("path", sorted(WRITE_PATHS))
def test_write_path_stamps_what_it_changes(leg, path):
    sched, write = WRITE_PATHS[path]()
    assert_stamped(sched, write)


PROPERTIES = {
    "index": 42, "cumul_rt": 1.5, "total_work": 2.5, "vt": 3.5,
    "eligible": 4.5, "deadline": 5.5, "fit_time": 6.5, "vt_watermark": 7.5,
    "bytes_rt": 8.5, "bytes_ls": 9.5, "rt_admitted": False,
}


@pytest.mark.parametrize("prop", sorted(PROPERTIES))
def test_property_setter_stamps(prop):
    sched = tree()
    changed = assert_stamped(
        sched, lambda: setattr(sched["a"], prop, PROPERTIES[prop]))
    assert changed == {"a"}


def test_snapshot_rows_follow_every_write_path(leg):
    """End to end: after each write path the memoized envelope is the
    fully encoded one (the memo cleared gives the same bytes)."""
    for make in WRITE_PATHS.values():
        sched, write = make()
        snapshot(sched)
        write()
        warm = dumps_snapshot({"scheduler": snapshot(sched)})
        sched._snapshot_rows = {}
        assert warm == dumps_snapshot({"scheduler": snapshot(sched)})


def test_restore_then_write_keeps_rows_exact(leg):
    """A restored scheduler starts a fresh state and memo; its writes
    stamp like any other."""
    sched = tree()
    feed(sched, 0.0, a=2, b=2, c=2)
    now = drain(sched, 0.0)
    table = PacketTable()
    body = {"scheduler": sched.snapshot_state(table.add),
            "packets": table.to_doc()}
    loaded = loads_snapshot(dumps_snapshot(body))
    restored = HFSC.restore_state(loaded["scheduler"],
                                  restore_packets(loaded["packets"]))
    first = snapshot(restored)["classes"]
    assert [r["name"] for r in first] == ["g", "a", "b", "c", "r"]
    assert_stamped(restored, lambda: feed(restored, now, c=1))
    drain(restored, now)
    warm = dumps_snapshot({"scheduler": snapshot(restored)})
    restored._snapshot_rows = {}
    assert warm == dumps_snapshot({"scheduler": snapshot(restored)})


# -- read paths ---------------------------------------------------------------


def test_read_paths_never_stamp(leg):
    svc = ServeService(hierarchy_preset("campus", 1_250_000.0), 1_250_000.0,
                       time_scale=0.0, watchdog_period=0.25)
    sched = svc.scheduler
    leaves = [cls.name for cls in sched.leaf_classes()]
    for name in leaves:
        feed(sched, 0.0, **{name: 3})
    now = drain(sched, 0.0)
    feed(sched, now, **{leaves[0]: 2})  # one class stays backlogged
    first = snapshot(sched)["classes"]
    sched.check_invariants()
    sched.virtual_times()
    assert svc.watchdog.check_now() == []
    reply = json.loads(ControlServer(svc).dispatch_line(b'{"op": "classes"}'))
    assert reply["ok"]
    snapshot(sched)
    third = snapshot(sched)["classes"]
    idle = [i for i, r in enumerate(third) if not r["queue"]
            and not r["active_order"]]
    assert len(idle) >= len(third) - 3
    assert all(third[i] is first[i] for i in idle), "a read path stamped"

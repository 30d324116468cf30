"""Ownership: a scheduler's class state is freed by reference counting.

An ``HFSC`` holds two kinds of back-reference -- ``FlatState.obj[slot]``
<-> ``HFSCClass.state`` and ``parent.children`` <-> ``child.parent`` --
and cuts both when it is dropped (its finalizer) or when it removes a
class.  So dropping a scheduler, removing a leaf, force-removing a
subtree and resuming a service from a snapshot each free the classes,
the flat state and the queued packets at once, and leave the cyclic
collector nothing to find.  ``ServeService`` relies on that when it
freezes what it built out of the collector (``gc.freeze``).

Every case runs with the collector off and watches the objects through
weak references.  Tier-1 runs this file on both kernel legs (compiled and
``REPRO_NO_COMPILED=1``).
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core import flatstate
from repro.core.curves import ServiceCurve
from repro.core.hfsc import HFSC
from repro.core.hierarchy import ClassSpec
from repro.serve.hierarchy import hierarchy_preset
from repro.serve.service import ServeService
from repro.serve.wire import encode_packet
from repro.sim.packet import Packet

LINK = 1e6


class WatchedPacket(Packet):
    """A packet a test can hold a weak reference to."""

    __slots__ = ("__weakref__",)


@pytest.fixture
def collector_off():
    """Start from an empty collector and keep it from running."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def build(groups: int = 3, leaves: int = 4) -> HFSC:
    """A two-level tree, every other leaf real-time, two packets queued
    per leaf and a few served (so sibling heaps and the eligible set
    hold entries)."""
    sched = HFSC(LINK)
    share = LINK / groups / leaves / 2
    for g in range(groups):
        sched.add_class(f"g{g}", ls_sc=ServiceCurve.linear(LINK / groups))
        for i in range(leaves):
            rt = ServiceCurve(2 * share, 0.01, share) if i % 2 else None
            sched.add_class(f"g{g}.{i}", parent=f"g{g}", rt_sc=rt,
                            ls_sc=ServiceCurve.linear(share))
            for _ in range(2):
                sched.enqueue(WatchedPacket(f"g{g}.{i}", 100.0), 0.0)
    for _ in range(5):
        sched.dequeue(0.0)
    sched.check_invariants()
    return sched


def watch(*objects) -> list:
    return [weakref.ref(obj) for obj in objects]


def queued(classes) -> list:
    return [packet for cls in classes for packet in cls.queue]


def assert_freed(refs: list) -> None:
    alive = [ref() for ref in refs if ref() is not None]
    assert not alive, f"{len(alive)} objects outlived their owner: {alive[:3]}"
    assert gc.collect() == 0, "the cyclic collector found garbage"


def test_dropped_scheduler_is_freed_by_refcount(collector_off):
    sched = build()
    classes = list(sched.classes())
    refs = watch(sched, sched._flat, *classes, *queued(classes))
    del sched, classes
    assert_freed(refs)


def test_removed_leaf_is_freed_by_refcount(collector_off):
    sched = build()
    idle = sched.add_class("g1.idle", parent="g1",
                           ls_sc=ServiceCurve.linear(1.0))
    sched.snapshot_state(lambda packet: 0)  # the row memo holds idle rows
    backlogged = sched["g0.1"]
    packets = list(backlogged.queue)
    refs = watch(backlogged, idle, *packets)
    assert sched.remove_class("g1.idle") == []
    drained = sched.remove_class("g0.1", force=True)
    assert drained == packets and packets
    sched.check_invariants()
    del backlogged, idle, drained, packets
    assert_freed(refs)


def test_force_removed_subtree_is_freed_by_refcount(collector_off):
    sched = build()
    subtree = [sched["g2"], *sched["g2"].children]
    refs = watch(*subtree, *queued(subtree))
    drained = sched.remove_class("g2", force=True)
    assert len(drained) == len(refs) - len(subtree)
    sched.check_invariants()
    del subtree, drained
    assert_freed(refs)


def test_resume_frees_the_config_built_scheduler(collector_off, tmp_path):
    specs = hierarchy_preset("e4", 1000.0)
    first = ServeService(specs, 1000.0, time_scale=0.0, watchdog_period=0.0)
    for i in range(4):
        first.dataplane.ingest(encode_packet("cmu.av#0", i, 0.0, 200), None)
    first.driver.run_due()
    path = str(tmp_path / "serve.snap")
    first.write_snapshot(path)
    second = ServeService(specs, 1000.0, time_scale=0.0, watchdog_period=0.0)
    old = second.scheduler
    refs = watch(old, old._flat, *old.classes())
    del old
    second.restore_snapshot(path)
    assert len(gc.get_objects()) < 100  # what resume built is frozen too
    assert second.scheduler.backlog_packets == first.scheduler.backlog_packets
    assert_freed(refs)


def test_sibling_heaps_belong_to_parents_only():
    sched = build(groups=2, leaves=2)
    state = sched._flat
    empty = flatstate.EMPTY_HEAP

    def owned(name):
        slot = sched[name].slot
        return [getattr(state, column)[slot] is not empty
                for column in flatstate.HEAP_LISTS]

    assert owned("__root__") == owned("g0") == [True] * 6
    assert owned("g0.0") == [False] * 6
    # Free capacity owns nothing either: only parents have lists.
    assert sum(keys is not empty for keys in state.hmin_key) == 3
    sched.remove_class("g1", force=True)
    assert owned("g0") == [True] * 6
    sched.remove_class("g0.0", force=True)
    sched.remove_class("g0.1", force=True)
    assert owned("g0") == [False] * 6  # its last child went
    sched.add_class("g0.x", parent="g0", ls_sc=ServiceCurve.linear(1.0))
    assert owned("g0") == [True] * 6
    sched.check_invariants()


def test_check_invariants_catches_a_push_into_the_shared_heap():
    sched = build(groups=1, leaves=2)
    flatstate.EMPTY_HEAP.append(0.0)
    try:
        with pytest.raises(AssertionError, match="shared empty sibling heap"):
            sched.check_invariants()
    finally:
        flatstate.EMPTY_HEAP.clear()
    sched.check_invariants()


def test_check_invariants_catches_heap_lists_on_a_leaf():
    sched = build(groups=1, leaves=2)
    flatstate.own_heaps(sched._flat, sched["g0.0"].slot)
    with pytest.raises(AssertionError, match="iff it has children"):
        sched.check_invariants()
    flatstate.share_heaps(sched._flat, sched["g0.0"].slot)
    sched.check_invariants()


def test_tracked_objects_on_a_16384_leaf_tree(collector_off):
    """ROADMAP F7's build, 128 x 128 rt leaves with one packet each:
    ~280k collector-tracked objects while every slot had six heap lists."""
    before = len(gc.get_objects())
    sched = HFSC(1e9)
    for g in range(128):
        sched.add_class(f"g{g}", ls_sc=ServiceCurve.linear(1e9 / 128))
        for i in range(128):
            sched.add_class(f"g{g}.{i}", parent=f"g{g}",
                            sc=ServiceCurve.linear(1e9 / 128 / 128 / 2))
    for g in range(128):
        for i in range(128):
            sched.enqueue(Packet(f"g{g}.{i}", 100.0), 0.0)
    tracked = len(gc.get_objects()) - before
    assert tracked <= 100_000, tracked
    del sched
    assert gc.collect() == 0


def test_a_built_service_leaves_the_collector_nothing_to_walk(collector_off):
    """The 1056-class control tree, frozen at the end of set-up: a full
    collection walks only what was made after."""
    specs = []
    for g in range(32):
        specs.append(ClassSpec(f"g{g}", ls_sc=ServiceCurve.linear(1e6 / 32)))
        specs.extend(ClassSpec(f"g{g}.{i}", parent=f"g{g}",
                               sc=ServiceCurve.linear(1e6 / 32 / 64))
                     for i in range(32))
    frozen = gc.get_freeze_count()
    service = ServeService(specs, 1e6, time_scale=0.0, watchdog_period=0.25)
    assert len(gc.get_objects()) < 100
    assert gc.get_freeze_count() - frozen > 4 * len(specs)
    assert service.summary()["stalls"] == {}

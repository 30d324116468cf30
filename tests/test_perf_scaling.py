"""Scaling guards for the hot-path data-structure work.

Wall-clock benchmarks live in ``benchmarks/``; these tests pin the
*algorithmic* claims deterministically by counting data-structure traffic:

* the link-sharing descent with an upper-limited class among many plain
  siblings must not scan the sibling set (the seed implementation sorted
  every sibling per level, i.e. linear work per dequeue);
* ``next_ready_time`` must not scan all upper-limited classes (the seed
  implementation walked the whole list on every idle-link wakeup).
"""

from __future__ import annotations

import pytest

from repro.core.curves import ServiceCurve
from repro.core.hfsc import HFSC
from repro.sim.packet import Packet
from repro.util.heap import IndexedHeap

lin = ServiceCurve.linear


def _build_ul_flat(n: int) -> HFSC:
    """n backlogged siblings under the root, class 0 tightly upper-limited."""
    link = 1_000_000.0
    sched = HFSC(link, admission_control=False, realtime=False)
    rate = link / n
    sched.add_class(0, ls_sc=lin(rate), ul_sc=lin(0.5 * rate))
    for i in range(1, n):
        sched.add_class(i, ls_sc=lin(rate * (1.0 + 1e-4 * i)))
    return sched


def _churn(sched: HFSC, n: int, serves: int, now: float = 0.0) -> float:
    """Keep every class backlogged while serving ``serves`` packets."""
    size = 1000.0
    for i in range(n):
        sched.enqueue(Packet(i, size=size), now)
    tx = size / sched.link_rate
    for _ in range(serves):
        packet = sched.dequeue(now)
        now += tx
        if packet is not None:
            sched.enqueue(Packet(packet.class_id, size=size), now)
    return now


def _counting_iter_sorted(counter):
    original = IndexedHeap.iter_sorted

    def wrapper(self):
        for pair in original(self):
            counter[0] += 1
            yield pair

    return wrapper


@pytest.mark.parametrize("selects", [256])
def test_ul_descent_scan_is_sublinear(monkeypatch, selects):
    """Scan work per dequeue must not grow with the sibling count.

    The seed implementation sorted all n siblings at every level of the
    descent whenever any upper-limited class existed, so its per-dequeue
    scan work was Theta(n).  The skip-scan consumes only the tie group
    plus any unfit prefix from the lazy heap iterator; with one capped
    class among n, that is O(1) entries per dequeue at every n.
    """
    counts = {}
    for n in (64, 1024):
        sched = _build_ul_flat(n)
        now = _churn(sched, n, 4 * n)  # reach a spread-out steady state
        counter = [0]
        monkeypatch.setattr(
            IndexedHeap, "iter_sorted", _counting_iter_sorted(counter)
        )
        _churn(sched, 0, selects, now=now)
        monkeypatch.undo()
        counts[n] = counter[0]
    # Strictly sub-linear: 16x more siblings must not mean 16x the scan
    # traffic.  In practice both counts are O(selects); allow 2x slack.
    assert counts[1024] <= 2 * max(counts[64], selects), counts
    # And the absolute amount stays a small constant per dequeue.
    assert counts[1024] <= 4 * selects, counts


def test_next_ready_time_does_not_scan_ul_classes(monkeypatch):
    """One heap probe, not a walk over every upper-limited class."""
    n = 512
    link = 1_000_000.0
    sched = HFSC(link, admission_control=False, realtime=False)
    rate = link / n
    for i in range(n):
        sched.add_class(i, ls_sc=lin(rate), ul_sc=lin(0.5 * rate))
    for i in range(n):
        sched.enqueue(Packet(i, size=1000.0), 0.0)
    # Drive every class past its cap so all fit times lie in the future.
    now = 0.0
    for _ in range(2 * n):
        packet = sched.dequeue(now)
        now += 1000.0 / link
        if packet is not None:
            sched.enqueue(Packet(packet.class_id, size=1000.0), now)
    counter = [0]
    monkeypatch.setattr(
        IndexedHeap, "iter_sorted", _counting_iter_sorted(counter)
    )
    queries = 64
    for _ in range(queries):
        sched.next_ready_time(now)
    monkeypatch.undo()
    # The earliest future fit is found after at most a couple of entries
    # regardless of how many upper-limited classes are backlogged.
    assert counter[0] <= 4 * queries, counter[0]


def test_ul_descent_matches_bruteforce_reference():
    """The skip-scan picks the same class a full sort would pick."""
    n = 48
    sched = _build_ul_flat(n)
    now = 0.0
    size = 1000.0
    for i in range(n):
        sched.enqueue(Packet(i, size=size), now)
    tx = size / sched.link_rate
    for _ in range(6 * n):
        # Reference: sort all active children by (vt, creation index) and
        # take the first fitting one -- the seed semantics with the
        # allocation-order tie-break made explicit.
        state = sched._flat
        node = sched.root
        expected = None
        while node.children:
            active = [state.obj[s] for s in state.hmin_slot[node.slot]]
            ranked = sorted(active, key=lambda c: (c.vt, c.index))
            fit = [
                c for c in ranked
                if not state.ul_on[c.slot] or c.fit_time <= now
            ]
            if not fit:
                expected = None
                break
            node = fit[0]
            expected = node
        got = sched._link_sharing_select(now)
        assert got is expected, (getattr(got, "name", None), now)
        packet = sched.dequeue(now)
        now += tx
        if packet is not None:
            sched.enqueue(Packet(packet.class_id, size=size), now)

"""Batched hot-path coverage: Link.offer_batch / drain_batch edge cases,
scheduler batch-vs-per-packet equivalence, the fused eligible-set kernels,
and the hypothesis flatten->mutate->rebuild round trip.

The batching contract everywhere is *digest identity*: a batched run must
produce byte-for-byte the schedule of the equivalent per-packet run.  The
scenarios here avoid exact deadline ties except where a test probes the
tie rule itself.
"""

import json

import pytest

from repro.core import flatstate
from repro.core.curves import ServiceCurve
from repro.core.errors import ConfigurationError, SimulationError
from repro.core.hfsc import HFSC
from repro.obs.core import telemetry_session
from repro.persist.codec import PacketTable, restore_packets
from repro.schedulers.fifo import FIFOScheduler
from repro.sim.engine import EventLoop
from repro.sim.link import Link
from repro.sim.packet import Packet

lin = ServiceCurve.linear


def build_hfsc(n=4, rate=100_000.0, jitter=True):
    """Flat H-FSC with per-class rate perturbation (keeps runs tie-free)."""
    sched = HFSC(rate, admission_control=False)
    share = rate / (n + 1)
    for i in range(n):
        bump = (1.0 + 0.001 * i) if jitter else 1.0
        sched.add_class(i, sc=lin(share * bump))
    return sched


def resumed_from_tree_checkpoint(sched):
    """``sched`` checkpointed and restored, with the checkpoint naming
    the retired tree eligible set the way older versions wrote it."""
    table = PacketTable()
    doc = json.loads(json.dumps(sched.snapshot_state(table.add)))
    doc["config"]["eligible_backend"] = "tree"
    packets = restore_packets(json.loads(json.dumps(table.to_doc())))
    return HFSC.restore_state(doc, packets)


def serve_rows(packets):
    return [(p.class_id, p.size, p.via_realtime) for p in packets]


class RecordingScheduler(FIFOScheduler):
    """FIFO that records every batch call the link makes."""

    def __init__(self, rate):
        super().__init__(rate)
        self.calls = []

    def enqueue_batch(self, packets, now):
        self.calls.append(("enqueue_batch", [p.class_id for p in packets], now))
        super().enqueue_batch(packets, now)

    def dequeue(self, now):
        self.calls.append(("dequeue", now))
        return super().dequeue(now)


class TestOfferBatch:
    def test_empty_batch_is_strict_noop(self):
        loop = EventLoop()
        sched = RecordingScheduler(8_000.0)
        link = Link(loop, sched)
        link.offer_batch([])
        assert sched.calls == []          # no enqueue, no dequeue poll
        assert not link.busy and link.departures == 0
        assert loop.pending_events() == []  # and no retry event was armed

    def test_times_length_mismatch_rejected(self):
        loop = EventLoop()
        link = Link(loop, FIFOScheduler(8_000.0))
        with pytest.raises(SimulationError):
            link.offer_batch([Packet("a", 100.0)], times=[0.0, 0.0])

    def test_future_stamp_rejected(self):
        loop = EventLoop()
        link = Link(loop, FIFOScheduler(8_000.0))
        with pytest.raises(SimulationError):
            link.offer_batch([Packet("a", 100.0)], times=[1.0])

    def test_non_monotonic_stamps_clamped_to_batch_order(self):
        loop = EventLoop()
        loop.schedule(2.0, lambda: None)
        loop.run(until=3.0)  # advance the clock to 2.0
        sched = RecordingScheduler(8_000.0)
        link = Link(loop, sched)
        packets = [Packet(i, 100.0) for i in range(4)]
        link.offer_batch(packets, times=[1.0, 0.5, 1.5, 1.5])
        groups = [c for c in sched.calls if c[0] == "enqueue_batch"]
        # 0.5 runs backwards within the batch: clamped up to 1.0, keeping
        # scheduler timestamps monotone while preserving batch order.
        assert [(ids, t) for _, ids, t in groups] == [
            ([0, 1], 1.0), ([2, 3], 1.5),
        ]
        assert packets[1].enqueued == 1.0
        assert packets[0].enqueued == 1.0 and packets[2].enqueued == 1.5

    def test_batch_spanning_outage_waits_for_resume(self):
        loop = EventLoop()
        sched = FIFOScheduler(8_000.0)
        link = Link(loop, sched)
        link.set_rate(0.0)  # outage before anything arrives
        link.offer_batch([Packet("a", 800.0), Packet("b", 800.0)])
        loop.run(until=5.0)
        assert link.departures == 0 and len(sched) == 2
        link.set_rate(8_000.0)  # resume kick drains the batch
        loop.run(until=10.0)
        assert link.departures == 2 and len(sched) == 0
        assert link.bytes_sent == 1_600.0

    def test_batch_spanning_rate_change_rederives_departures(self):
        def run(batched):
            loop = EventLoop()
            link = Link(loop, FIFOScheduler(8_000.0))
            done = []
            link.add_listener(lambda p, t: done.append((p.class_id, t)))
            packets = [Packet(i, 800.0) for i in range(3)]
            if batched:
                link.offer_batch(packets)
            else:
                for p in packets:
                    link.offer(p)
            # Halve the rate mid-first-transmission: the in-flight packet
            # and the still-queued tail of the batch finish at 4 kB/s.
            loop.schedule(0.05, link.set_rate, 4_000.0)
            loop.run(until=10.0)
            return done

        assert run(batched=True) == run(batched=False)

    def test_idle_link_chooses_among_whole_batch(self):
        # Simultaneous arrivals: the scheduler must pick among ALL of
        # them, not start on the first before the rest exist.
        loop = EventLoop()
        sched = build_hfsc(4)
        link = Link(loop, sched)
        done = []
        link.add_listener(lambda p, t: done.append(p.class_id))
        # Higher-rate class 3 arrives last in the batch but must win the
        # first slot exactly as if all four existed when the link kicked.
        link.offer_batch([Packet(i, 500.0) for i in (0, 1, 2, 3)])
        loop.run(until=1.0)
        per = []
        loop2 = EventLoop()
        sched2 = build_hfsc(4)
        sched2.enqueue_batch([Packet(i, 500.0) for i in (0, 1, 2, 3)], 0.0)
        link2 = Link(loop2, sched2)
        link2.add_listener(lambda p, t: per.append(p.class_id))
        link2._kick()
        loop2.run(until=1.0)
        assert done == per and len(done) == 4


class TestDrainBatch:
    def _loaded_link(self, n_packets=10):
        loop = EventLoop()
        sched = build_hfsc(4)
        link = Link(loop, sched)
        sched.enqueue_batch(
            [Packet(i % 4, 500.0) for i in range(n_packets)], 0.0
        )
        return loop, sched, link

    def test_budget_and_count(self):
        loop, sched, link = self._loaded_link(10)
        assert link.drain_batch(0) == 0
        assert link.drain_batch(-3) == 0
        assert link.drain_batch(4) == 4
        assert link.departures == 4
        # Unbudgeted drain finishes the backlog inline.
        assert link.drain_batch() == 6
        assert len(sched) == 0

    def test_budget_boundary_parks_completion_on_heap(self):
        loop, sched, link = self._loaded_link(6)
        served = []
        link.add_listener(lambda p, t: served.append((p.class_id, t)))
        drained = link.drain_batch(3)
        assert drained == 3 and link.busy  # 4th transmission in flight
        loop.run(until=10.0)  # the parked completion resumes the run
        loop2, sched2, link2 = self._loaded_link(6)
        all_rows = []
        link2.add_listener(lambda p, t: all_rows.append((p.class_id, t)))
        link2._kick()
        loop2.run(until=10.0)
        assert served == all_rows  # budget changes who runs it, not the schedule

    def test_drain_batch_idle_empty_is_noop(self):
        loop = EventLoop()
        link = Link(loop, FIFOScheduler(8_000.0))
        assert link.drain_batch() == 0
        assert not link.busy


class TestSchedulerBatchEquivalence:
    def _arrivals(self, n=64):
        return [Packet(i % 4, 400.0 + 10.0 * (i % 7)) for i in range(n)]

    def _rows(self, burst, origin="heap", use_batch=True):
        """Serve the workload in bursts of ``burst`` selections at a
        frozen clock (the ``dequeue_batch`` contract), advancing the
        clock only at burst boundaries.  ``use_batch`` switches between
        the batched entry points and the scalar ones -- both must give
        the same schedule by contract.  ``origin="tree"`` serves from a
        scheduler resumed off a tree-labelled checkpoint of the backlog.
        """
        sched = build_hfsc(4)
        now = 0.0
        if use_batch:
            sched.enqueue_batch(self._arrivals(), now)
        else:
            for p in self._arrivals():
                sched.enqueue(p, now)
        if origin == "tree":
            sched = resumed_from_tree_checkpoint(sched)
        rows = []
        while len(sched):
            if use_batch:
                out = sched.dequeue_batch(now, burst)
            else:
                out = []
                while len(out) < burst:
                    packet = sched.dequeue(now)
                    if packet is None:
                        break
                    out.append(packet)
            if not out:
                ready = sched.next_ready_time(now)
                now = ready if ready is not None else now + 0.001
                continue
            for packet in out:
                now += packet.size / sched.link_rate
                rows.append(now)
                rows.append(serve_rows([packet])[0])
        return rows

    @pytest.mark.parametrize("origin", ["heap", "tree"])
    @pytest.mark.parametrize("burst", [1, 3, 16, 64])
    def test_batched_equals_per_packet(self, origin, burst):
        assert self._rows(burst, origin, use_batch=True) == \
            self._rows(burst, origin, use_batch=False)

    def test_batched_equals_per_packet_with_telemetry(self):
        with telemetry_session():
            batched = self._rows(16, use_batch=True)
        with telemetry_session():
            per = self._rows(16, use_batch=False)
        assert batched == per

    def test_telemetry_counters_match_batched(self):
        def snapshot(telem):
            return {
                cid: (c.enqueued_packets, c.enqueued_bytes,
                      c.dequeued_packets, c.dequeued_bytes,
                      c.rt_packets, c.ls_packets)
                for cid, c in telem.per_class.items()
            }

        with telemetry_session() as telem:
            self._rows(16, use_batch=True)
            batched = snapshot(telem)
        with telemetry_session() as telem:
            self._rows(16, use_batch=False)
            per = snapshot(telem)
        assert batched == per and batched

    def test_dequeue_batch_decline_path(self):
        # rt-only leaf with a delayed curve: after the first serve the
        # next request's eligible time is in the future, so a batched
        # dequeue stops mid-budget exactly where the scalar one declines.
        def build():
            sched = HFSC(10_000.0, admission_control=False)
            sched.add_class("rt", rt_sc=ServiceCurve(0.0, 0.5, 2_000.0))
            sched.enqueue_batch([Packet("rt", 500.0) for _ in range(3)], 0.0)
            return sched

        batched = build()
        out = batched.dequeue_batch(0.0, 8)
        scalar = build()
        ref = []
        while True:
            packet = scalar.dequeue(0.0)
            if packet is None:
                break
            ref.append(packet)
        assert serve_rows(out) == serve_rows(ref)
        assert len(out) < 3  # the batch really did decline mid-budget
        assert batched.dequeue_batch(0.0, 8) == []
        ready = batched.next_ready_time(0.0)
        assert ready is not None and ready > 0.0
        assert len(batched.dequeue_batch(ready, 8)) >= 1

    def test_enqueue_batch_error_keeps_earlier_packets(self):
        sched = build_hfsc(4)
        batch = [Packet(0, 100.0), Packet("nope", 100.0), Packet(1, 100.0)]
        with pytest.raises(ConfigurationError):
            sched.enqueue_batch(batch, 0.0)
        # The contract of the base-class loop: packets before the failing
        # one are enqueued and counted; the rest never entered.
        assert sched.backlog_packets == 1
        assert sched.total_enqueued == 1
        assert len(sched.dequeue_batch(0.0, 8)) == 1

    def test_enqueue_batch_empty_is_noop(self):
        sched = build_hfsc(4)
        sched.enqueue_batch([], 0.0)
        assert sched.backlog_packets == 0 and sched.total_enqueued == 0

    def test_fifo_base_batch_path(self):
        per = FIFOScheduler(8_000.0)
        bat = FIFOScheduler(8_000.0)
        packets = [Packet(i % 3, 100.0 + i) for i in range(20)]
        for p in packets:
            per.enqueue(Packet(p.class_id, p.size), 0.0)
        bat.enqueue_batch([Packet(p.class_id, p.size) for p in packets], 0.0)
        out_per = [per.dequeue(0.0) for _ in range(20)]
        out_bat = bat.dequeue_batch(0.0, 20)
        assert serve_rows(out_bat) == serve_rows(out_per)


class TestFusedKernels:
    """elig_requeue == remove + insert + maturation, away from ties."""

    def _populated(self, reqs):
        state = flatstate.FlatState(8)

        class _Stub:
            state = None
            slot = -1

        slots = []
        for eligible, deadline in reqs:
            slot = state.alloc(_Stub())
            flatstate.elig_insert(state, slot, eligible, deadline)
            slots.append(slot)
        return state, slots

    def _drain(self, state, now):
        order = []
        while True:
            slot = flatstate.elig_query(state, now)
            if slot < 0:
                break
            order.append((slot, state.req_e[slot], state.req_d[slot]))
            flatstate.elig_remove(state, slot)
        return order

    def test_requeue_matches_remove_insert(self):
        reqs = [(0.1, 1.0), (0.2, 2.0), (0.3, 3.0), (0.4, 4.0), (0.9, 9.0)]
        now = 0.5
        # Path A: fused in-place requeue of a due slot.
        state_a, slots_a = self._populated(reqs)
        assert flatstate.elig_query(state_a, now) == slots_a[0]
        flatstate.elig_requeue(state_a, slots_a[0], 0.45, 4.5, now)
        # Path B: the unfused dance on an identically-built state.
        state_b, slots_b = self._populated(reqs)
        assert flatstate.elig_query(state_b, now) == slots_b[0]
        flatstate.elig_remove(state_b, slots_b[0])
        flatstate.elig_insert(state_b, slots_b[0], 0.45, 4.5)
        flatstate.elig_check(state_a)
        flatstate.elig_check(state_b)
        assert self._drain(state_a, now) == self._drain(state_b, now)

    def test_requeue_future_falls_back_to_calendar(self):
        reqs = [(0.1, 1.0), (0.2, 2.0)]
        state, slots = self._populated(reqs)
        now = 0.5
        assert flatstate.elig_query(state, now) == slots[0]
        # Not yet eligible: must leave the ready heap for the future heap.
        flatstate.elig_requeue(state, slots[0], 0.8, 1.5, now)
        flatstate.elig_check(state)
        assert state.erdy_pos[slots[0]] == -1
        assert state.efut_pos[slots[0]] != -1
        assert flatstate.elig_query(state, 0.9) == slots[0]

    def test_requeue_assigns_serve_order_on_exact_ties(self):
        # The documented divergence point: a requeued slot's fresh seq
        # orders exact deadline ties by serve order.  Pure and compiled
        # must agree on it (the golden suite pins the rest).
        reqs = [(0.1, 2.0), (0.2, 2.0)]
        state, slots = self._populated(reqs)
        now = 0.5
        first = flatstate.elig_query(state, now)
        assert first == slots[0]
        flatstate.elig_requeue(state, first, 0.4, 2.0, now)
        # Equal deadline, fresher seq: the other tied slot now wins.
        assert flatstate.elig_query(state, now) == slots[1]

    @pytest.mark.skipif(not flatstate.COMPILED,
                        reason="compiled fast path unavailable")
    def test_compiled_requeue_matches_unfused_and_tie_rule(self):
        # The C kernel must honor the same contract the pure one was
        # proven against above: unfused equivalence away from ties, and
        # the serve-order rule on exact deadline ties.
        import repro._fastpath as fastpath

        mod = fastpath.load()
        assert mod is not None
        reqs = [(0.1, 1.0), (0.2, 2.0), (0.3, 3.0), (0.4, 4.0), (0.9, 9.0)]
        now = 0.5
        state_c, slots_c = self._populated(reqs)
        state_r, slots_r = self._populated(reqs)
        mod.elig_requeue(state_c, slots_c[0], 0.45, 4.5, now)
        flatstate.elig_remove(state_r, slots_r[0])
        flatstate.elig_insert(state_r, slots_r[0], 0.45, 4.5)
        flatstate.elig_check(state_c)
        assert self._drain(state_c, now) == self._drain(state_r, now)
        # Exact-tie rule, compiled side.
        state_t, slots_t = self._populated([(0.1, 2.0), (0.2, 2.0)])
        assert flatstate.elig_query(state_t, now) == slots_t[0]
        mod.elig_requeue(state_t, slots_t[0], 0.4, 2.0, now)
        assert flatstate.elig_query(state_t, now) == slots_t[1]


class TestFastpathArtefact:
    """The cached shared object is keyed on the source it was built from,
    and a fallback nobody asked for is announced."""

    def test_artefact_name_carries_the_source_hash(self, monkeypatch, tmp_path):
        import hashlib
        import os

        import repro._fastpath as fastpath

        with open(fastpath._SOURCE, "rb") as fh:
            source = fh.read()
        built = fastpath._so_path()
        digest = hashlib.sha256(source).hexdigest()[:12]
        assert os.path.basename(built).startswith(f"fastpath_c-{digest}.")
        # Other source, other name: a copied checkout's old build (whatever
        # its mtime says) is never the file edited source resolves to.
        edited = tmp_path / "fastpath.c"
        edited.write_bytes(source + b"\n/* edited */\n")
        monkeypatch.setattr(fastpath, "_SOURCE", str(edited))
        assert fastpath._so_path() != built
        assert os.path.dirname(fastpath._so_path()) == os.path.dirname(built)

    def test_unrequested_fallback_says_so_on_stderr(self, monkeypatch, capsys):
        import repro._fastpath as fastpath

        monkeypatch.delenv("REPRO_NO_COMPILED", raising=False)
        monkeypatch.setattr(fastpath, "build", lambda: (_ for _ in ()).throw(
            RuntimeError("no C compiler found")))
        previous = fastpath.LOAD_ERROR
        try:
            assert fastpath.load() is None
            assert fastpath.LOAD_ERROR == "RuntimeError: no C compiler found"
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert "pure-Python" in err and "no C compiler found" in err
            # Asked for, it stays quiet.
            monkeypatch.setenv("REPRO_NO_COMPILED", "1")
            assert fastpath.load() is None
            assert capsys.readouterr().err == ""
        finally:
            fastpath.LOAD_ERROR = previous

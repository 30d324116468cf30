"""Crash-injection harness: checkpoint, kill, restore, compare.

The correctness oracle for the whole persistence layer is
*crash-equivalence*: for any scenario and any crash point, running to
the crash, snapshotting, throwing the process state away, restoring
into a freshly built context and continuing must produce a departure
schedule byte-identical to the uninterrupted run
(:func:`schedule_digest` compares full-precision ``repr`` rows, so a
single ulp of drift fails the digest).

Two execution models are covered:

* :class:`DriveRun` -- a resumable re-expression of
  :func:`repro.sim.drive.drive` (same loop body, one transmission per
  step) whose state between steps is exactly (scheduler, arrival
  index, clock, served rows);
* :func:`run_checkpointed` -- chunked :meth:`EventLoop.run` for live
  :class:`~repro.persist.runtime.RunContext` scenarios, with
  checkpoint-every-N-events, :class:`~repro.sim.faults.CrashPoint`
  injection, and snapshot-on-signal (SIGTERM/SIGUSR1 request a
  checkpoint at the next chunk boundary instead of losing the run).

One caveat is inherent to event-indexed crash points: stopping the
loop parks it *between* chunks, so a transmission completion that the
uninterrupted run executed inline (the link's busy-serve
``try_advance`` fast path) is re-scheduled as a real heap event on
resume, consuming a sequence number the uninterrupted run never
allocated.  Sequence numbers only break *exact same-time ties*; the
golden scenarios are tie-free by construction, so their digests are
unaffected -- but a workload with deliberate deadline ties may order a
tied pair differently after a resume.  Time-indexed crash points do
not move sequence allocation at all.
"""

from __future__ import annotations

import hashlib
import signal
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.errors import SnapshotError
from repro.persist.codec import (
    PacketTable,
    load_snapshot,
    restore_packets,
    save_snapshot,
)
from repro.persist.runtime import RunContext
from repro.persist.schedulers import restore_scheduler, snapshot_scheduler
from repro.sim.drive import Arrival
from repro.sim.faults import CrashPoint

Row = Tuple[Any, float, float, Any]

_BIG_BUDGET = 1 << 62


def schedule_digest(rows: List[Row]) -> str:
    """SHA-256 over (class_id, size, departed, via_realtime) rows.

    ``repr`` of the floats keeps full precision, so two schedules hash
    equal only when departure times agree bit-for-bit.
    """
    h = hashlib.sha256()
    for class_id, size, departed, via_rt in rows:
        h.update(f"{class_id}|{size!r}|{departed!r}|{via_rt}\n".encode())
    return h.hexdigest()


def _arrivals_digest(arrivals: List[Arrival]) -> str:
    h = hashlib.sha256()
    for time, class_id, size in arrivals:
        h.update(f"{time!r}|{class_id}|{size!r}\n".encode())
    return h.hexdigest()


class DriveRun:
    """Resumable equivalent of :func:`repro.sim.drive.drive`.

    One :meth:`step` performs one iteration of ``drive``'s loop body
    (deliver due arrivals, transmit one packet or advance the clock),
    so between any two steps the complete run state is the scheduler,
    the arrival cursor, the clock and the served rows -- all of which
    snapshot.  An uninterrupted ``DriveRun`` produces rows identical to
    ``drive`` (asserted against the pinned golden digests in
    ``tests/test_persist_crash.py``).
    """

    _BODY_KEYS = frozenset(
        {"kind", "scheduler", "index", "now", "until", "rate",
         "served", "arrivals_digest", "packets"}
    )

    def __init__(self, scheduler: Any, arrivals: List[Arrival], until: float,
                 rate: Optional[float] = None):
        from repro.sim.packet import Packet  # local: keep module import light

        self._packet_cls = Packet
        self.scheduler = scheduler
        self.pending = sorted(arrivals, key=lambda a: a[0])
        self.until = until
        self.rate = rate if rate is not None else scheduler.link_rate
        self.index = 0
        self.now = 0.0
        self.rows: List[Row] = []
        self.done = False

    @property
    def served_count(self) -> int:
        return len(self.rows)

    def step(self) -> bool:
        """One drive iteration; returns False when the run is finished."""
        if self.done or self.now >= self.until:
            self.done = True
            return False
        pending, index, now = self.pending, self.index, self.now
        scheduler = self.scheduler
        while index < len(pending) and pending[index][0] <= now + 1e-12:
            time, class_id, size = pending[index]
            scheduler.enqueue(
                self._packet_cls(class_id, size, created=time), time
            )
            index += 1
        self.index = index
        packet = scheduler.dequeue(now) if len(scheduler) else None
        if packet is not None:
            packet.departed = now + packet.size / self.rate
            self.rows.append(
                (packet.class_id, packet.size, packet.departed, packet.via_realtime)
            )
            self.now = packet.departed
            return True
        candidates = []
        if index < len(pending):
            candidates.append(pending[index][0])
        ready = scheduler.next_ready_time(now)
        if ready is not None:
            candidates.append(ready)
        if not candidates:
            self.done = True
            return False
        self.now = max(now, min(candidates))
        return True

    def run(self, max_served: Optional[int] = None) -> bool:
        """Run until finished, or until ``max_served`` rows exist.

        Returns True when the drive completed, False when it stopped at
        the serve bound (the crash point).
        """
        while not self.done:
            if max_served is not None and len(self.rows) >= max_served:
                return False
            self.step()
        return True

    # -- snapshot/restore --------------------------------------------------

    def snapshot_body(self) -> Dict[str, Any]:
        table = PacketTable()
        return {
            "kind": "drive",
            "scheduler": snapshot_scheduler(self.scheduler, table.add),
            "index": self.index,
            "now": self.now,
            "until": self.until,
            "rate": self.rate,
            "served": [list(row) for row in self.rows],
            "arrivals_digest": _arrivals_digest(self.pending),
            "packets": table.to_doc(),
        }

    @classmethod
    def restore(cls, body: Dict[str, Any], arrivals: List[Arrival]) -> "DriveRun":
        """Rebuild a run from a snapshot plus the scenario's arrival list.

        The arrivals are *not* stored (they are the scenario definition,
        reproducible from the builder); their digest is, and a resume
        against a different arrival list is refused -- continuing the
        wrong scenario would silently produce a plausible-looking but
        meaningless schedule.
        """
        if set(body) != cls._BODY_KEYS:
            extra = sorted(set(map(str, body)) - set(map(str, cls._BODY_KEYS)))
            raise SnapshotError(
                "malformed drive snapshot document",
                reason="unknown-field" if extra else "missing-field",
            )
        if body["kind"] != "drive":
            raise SnapshotError(
                f"snapshot kind {body['kind']!r} is not a drive snapshot",
                reason="bad-format",
            )
        get_packet = restore_packets(body["packets"])
        scheduler = restore_scheduler(body["scheduler"], get_packet)
        run = cls(scheduler, arrivals, body["until"], rate=body["rate"])
        stored = body["arrivals_digest"]
        actual = _arrivals_digest(run.pending)
        if stored != actual:
            raise SnapshotError(
                "snapshot was taken against a different arrival list",
                reason="scenario-mismatch",
                context={"stored": stored, "computed": actual},
            )
        if not 0 <= body["index"] <= len(run.pending):
            raise SnapshotError(
                "arrival cursor out of range", reason="bad-format"
            )
        run.index = body["index"]
        run.now = body["now"]
        run.rows = [tuple(row) for row in body["served"]]
        return run


# -- event-loop checkpointing ------------------------------------------------


class SignalCheckpointRequest:
    """Snapshot-on-signal flag: arms handlers, remembers the request.

    The handler only sets a flag; :func:`run_checkpointed` checks it at
    chunk boundaries, writes the checkpoint and stops cleanly -- no
    snapshot is ever taken from inside a signal frame mid-event.
    """

    def __init__(self) -> None:
        self.requested = False
        self._previous: List[Tuple[int, Any]] = []

    def _handler(self, signum, frame) -> None:  # pragma: no cover - signal frame
        self.requested = True

    def install(self, *signums: int) -> "SignalCheckpointRequest":
        for signum in signums or (signal.SIGTERM, signal.SIGUSR1):
            self._previous.append((signum, signal.signal(signum, self._handler)))
        return self

    def uninstall(self) -> None:
        while self._previous:
            signum, previous = self._previous.pop()
            signal.signal(signum, previous)


def run_checkpointed(
    ctx: RunContext,
    until: float,
    checkpoint_path: Optional[str] = None,
    every_events: Optional[int] = None,
    crash: Optional[CrashPoint] = None,
    signal_request: Optional[SignalCheckpointRequest] = None,
    on_checkpoint: Optional[Callable[[int], None]] = None,
) -> bool:
    """Drive ``ctx.loop`` to ``until`` in checkpointable chunks.

    Returns True when the run completed, False when it stopped early at
    a crash point or a signal-requested checkpoint (with the snapshot
    written, if a path was given).  Without ``every_events``, ``crash``
    and ``signal_request`` this is a single uninterrupted
    ``loop.run(until)`` -- checkpointing off adds no per-event work.
    """
    loop = ctx.loop
    crash_event = crash.at_event if crash is not None else None
    crash_time = crash.at_time if crash is not None else None
    horizon = until if crash_time is None else min(until, crash_time)

    def write(processed: int) -> None:
        if checkpoint_path is not None:
            save_snapshot(checkpoint_path, ctx.snapshot_body())
        if on_checkpoint is not None:
            on_checkpoint(processed)

    while True:
        targets = []
        if every_events:
            targets.append(
                (loop.events_processed // every_events + 1) * every_events
            )
        if crash_event is not None and crash_event > loop.events_processed:
            targets.append(crash_event)
        budget = (min(targets) - loop.events_processed) if targets else _BIG_BUDGET
        finished = loop.run(
            until=horizon, max_events=budget, stop_on_budget=True
        )
        processed = loop.events_processed
        if finished:
            if crash_time is not None and horizon < until:
                # The clock reached the crash time with the queue quiet
                # up to it: this is the kill point.
                write(processed)
                return False
            write(processed)
            return True
        if crash_event is not None and processed >= crash_event:
            write(processed)
            return False
        write(processed)
        if signal_request is not None and signal_request.requested:
            return False


# -- crash-equivalence oracle ------------------------------------------------


def drive_rows(name: str) -> List[Row]:
    """Uninterrupted rows for a drive scenario, via :class:`DriveRun`."""
    from repro.persist.scenarios import DRIVE_SETUPS

    sched, arrivals, until = DRIVE_SETUPS[name]()
    run = DriveRun(sched, arrivals, until)
    run.run()
    return run.rows


def runtime_rows(name: str) -> List[Row]:
    """Uninterrupted rows for an event-driven scenario."""
    from repro.persist.scenarios import RUNTIME_SETUPS

    ctx, until = RUNTIME_SETUPS[name]()
    ctx.loop.run(until=until)
    return [
        (r.class_id, r.size, r.departed, r.via_realtime)
        for r in ctx.component("recorder").records
    ]


def crash_and_resume_drive(name: str, crash_index: int) -> List[Row]:
    """Run a drive scenario, kill it after ``crash_index`` departures,
    restore into a fresh context and continue to the end.

    The snapshot round-trips through the full envelope codec (dump,
    checksum, parse), exactly what an on-disk checkpoint experiences.
    """
    from repro.persist.codec import dumps_snapshot, loads_snapshot
    from repro.persist.scenarios import DRIVE_SETUPS

    setup = DRIVE_SETUPS[name]
    sched, arrivals, until = setup()
    run = DriveRun(sched, arrivals, until)
    finished = run.run(max_served=crash_index)
    text = dumps_snapshot(run.snapshot_body())
    if finished:
        # Crash index beyond the schedule: the snapshot is of the final
        # state; restoring and continuing must be a no-op.
        pass
    del run, sched, arrivals
    fresh_sched, fresh_arrivals, fresh_until = setup()
    del fresh_sched  # the snapshot supplies the scheduler state
    resumed = DriveRun.restore(loads_snapshot(text), fresh_arrivals)
    if resumed.until != fresh_until:
        raise SnapshotError(
            "snapshot horizon does not match the scenario",
            reason="scenario-mismatch",
        )
    resumed.run()
    return resumed.rows


def crash_and_resume_runtime(name: str, crash: CrashPoint) -> List[Row]:
    """Crash/restore/continue for an event-driven scenario."""
    from repro.persist.codec import dumps_snapshot, loads_snapshot
    from repro.persist.scenarios import RUNTIME_SETUPS

    setup = RUNTIME_SETUPS[name]
    ctx, until = setup()
    bodies: List[str] = []
    run_checkpointed(
        ctx,
        until,
        crash=crash,
        on_checkpoint=lambda _: bodies.append(
            dumps_snapshot(ctx.snapshot_body())
        ),
    )
    text = bodies[-1]
    del ctx
    fresh_ctx, fresh_until = setup()
    fresh_ctx.restore_body(loads_snapshot(text))
    fresh_ctx.loop.run(until=fresh_until)
    return [
        (r.class_id, r.size, r.departed, r.via_realtime)
        for r in fresh_ctx.component("recorder").records
    ]

"""Telemetry instrumentation core: zero cost when off.

The whole observability layer hangs off one module-level singleton,
:data:`TELEMETRY`.  Hot paths (scheduler enqueue/dequeue, link
departures) guard their tap with a single attribute check::

    if TELEMETRY.enabled:
        TELEMETRY.on_depart(...)

so a disabled run pays one attribute load + boolean test per tap and
allocates nothing.  Instrumentation is strictly read-only with respect to
scheduling: no tap may influence a scheduling decision, which is what
keeps golden-schedule digests byte-identical with telemetry on or off
(``tests/test_obs_integration.py`` enforces this).

Primitives
----------

* :class:`Counter` / :class:`Gauge` -- monotonic and instantaneous values;
* :class:`LogLinearHistogram` -- bounded-memory delay/slack distributions
  (power-of-two octaves with linear subbuckets, HdrHistogram-style);
* :class:`FlightRecorder` -- a bounded ring buffer of recent scheduling
  events (enqueue, dequeue, deadline miss, overload, reconfiguration,
  violation, ...), the "what just happened" view for postmortems;
* :class:`ClassTelemetry` -- the per-class counter/histogram bundle;
* :class:`Telemetry` -- the hub the tap points call into.
"""

from __future__ import annotations

import math
from collections import deque
from contextlib import contextmanager
from typing import Any, Deque, Dict, List, Optional, Tuple

#: Event kinds the flight recorder knows about.  ``data`` payloads are
#: kind-specific small dicts (documented in docs/OBSERVABILITY.md).
EVENT_KINDS = (
    "enqueue",        # packet accepted by a scheduler
    "dequeue",        # packet selected for transmission (deadline/slack data)
    "depart",         # last bit left the link
    "deadline-miss",  # departure after the packet's H-FSC deadline
    "drop",           # arrival-path loss or admission rejection
    "return",         # queued packet handed back by a forced removal
    "rate-change",    # Link.set_rate (rate 0 = outage start)
    "overload",       # an overload policy degraded service
    "reconfig",       # class churn / curve update / rebuild / link re-rate
    "violation",      # watchdog finding (invariant / guarantee / conservation)
    "sample",         # periodic sampler tick
    "run",            # event-loop run() boundaries
)


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """An instantaneous value (set, not accumulated)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class LogLinearHistogram:
    """Bounded-memory histogram with ~1/subbuckets relative precision.

    Values are bucketed into power-of-two octaves above ``min_value``,
    each octave split into ``subbuckets`` linear sub-ranges -- the
    HdrHistogram layout.  Memory is a flat list of ints, independent of
    the observation count, so soak runs can histogram every delay; the
    list is allocated on the first :meth:`record`, so the per-class
    histograms of a large tree cost nothing until their class is served.
    """

    __slots__ = ("min_value", "subbuckets", "octaves", "counts",
                 "count", "total", "min", "max")

    def __init__(self, min_value: float = 1e-6, octaves: int = 48,
                 subbuckets: int = 16):
        if min_value <= 0:
            raise ValueError("min_value must be positive")
        self.min_value = min_value
        self.subbuckets = subbuckets
        self.octaves = octaves
        self.counts: Optional[List[int]] = None
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def _index(self, value: float) -> int:
        if value < self.min_value:
            return 0
        mantissa, exponent = math.frexp(value / self.min_value)
        # value/min_value = mantissa * 2**exponent with mantissa in [0.5, 1)
        octave = exponent - 1
        sub = int((mantissa - 0.5) * 2.0 * self.subbuckets)
        index = octave * self.subbuckets + sub
        last = self.octaves * self.subbuckets - 1
        return index if index < last else last

    def record(self, value: float) -> None:
        counts = self.counts
        if counts is None:
            counts = self.counts = [0] * (self.octaves * self.subbuckets)
        counts[self._index(value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def bucket_bound(self, index: int) -> float:
        """Upper bound of bucket ``index`` (inclusive upper edge)."""
        octave, sub = divmod(index, self.subbuckets)
        return self.min_value * (2.0 ** octave) * (1.0 + (sub + 1) / self.subbuckets)

    def quantile(self, q: float) -> float:
        """Value at quantile ``q`` in [0, 1]; 0.0 when empty.

        Reported as the bucket's upper edge clamped to the observed
        maximum, so estimates are conservative (never under-report a
        tail) and exact at q=1.
        """
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for index, n in enumerate(self.counts):
            if n:
                cumulative += n
                if cumulative >= target:
                    return min(self.bucket_bound(index), self.max)
        return self.max

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def nonzero_buckets(self) -> List[Tuple[float, int]]:
        """(upper_bound, count) for every populated bucket, ascending."""
        if self.counts is None:
            return []
        return [
            (self.bucket_bound(index), n)
            for index, n in enumerate(self.counts)
            if n
        ]


class FlightRecorder:
    """Bounded ring buffer of recent scheduling events.

    Entries are ``(time, kind, class_id, data)`` tuples; ``time`` may be
    ``None`` for events raised outside simulated time (e.g. an
    ``add_class`` on a passive scheduler), ``data`` is a small
    kind-specific dict or ``None``.  Old entries are evicted silently;
    :attr:`recorded` minus ``len()`` says how many were lost.
    """

    __slots__ = ("capacity", "events", "recorded")

    def __init__(self, capacity: int = 4096):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.events: Deque[Tuple[Optional[float], str, Any, Optional[dict]]] = (
            deque(maxlen=capacity)
        )
        self.recorded = 0

    def record(self, time: Optional[float], kind: str, class_id: Any = None,
               data: Optional[dict] = None) -> None:
        self.events.append((time, kind, class_id, data))
        self.recorded += 1

    def __len__(self) -> int:
        return len(self.events)

    @property
    def dropped(self) -> int:
        return self.recorded - len(self.events)

    def tail(self, n: Optional[int] = None) -> List[Tuple]:
        events = list(self.events)
        return events if n is None else events[-n:]

    def to_dicts(self, n: Optional[int] = None) -> List[Dict[str, Any]]:
        """JSON-ready view of the newest ``n`` (default: all) events."""
        rows = []
        for time, kind, class_id, data in self.tail(n):
            row: Dict[str, Any] = {"time": time, "kind": kind}
            if class_id is not None:
                row["class_id"] = str(class_id)
            if data:
                row.update(data)
            rows.append(row)
        return rows

    def clear(self) -> None:
        self.events.clear()
        self.recorded = 0


class ClassTelemetry:
    """Per-class counter and histogram bundle."""

    __slots__ = (
        "class_id",
        "enqueued_packets", "enqueued_bytes",
        "dequeued_packets", "dequeued_bytes",
        "departed_packets", "departed_bytes",
        "returned_packets", "dropped_packets", "rejected_packets",
        "rt_packets", "rt_bytes", "ls_packets", "ls_bytes",
        "deadlines_set", "deadline_misses", "worst_deadline_miss",
        "delay_hist", "slack_hist",
    )

    def __init__(self, class_id: Any):
        self.class_id = class_id
        self.enqueued_packets = 0
        self.enqueued_bytes = 0.0
        self.dequeued_packets = 0
        self.dequeued_bytes = 0.0
        self.departed_packets = 0
        self.departed_bytes = 0.0
        self.returned_packets = 0
        self.dropped_packets = 0
        self.rejected_packets = 0
        self.rt_packets = 0
        self.rt_bytes = 0.0
        self.ls_packets = 0
        self.ls_bytes = 0.0
        self.deadlines_set = 0
        self.deadline_misses = 0
        self.worst_deadline_miss = 0.0
        #: arrival-to-departure delay distribution (seconds)
        self.delay_hist = LogLinearHistogram()
        #: deadline slack at dequeue time (seconds; larger = safer)
        self.slack_hist = LogLinearHistogram()


class Telemetry:
    """The tap hub.  One instance, :data:`TELEMETRY`, serves the process.

    ``enabled`` is the zero-cost switch: every tap site guards itself
    with ``if TELEMETRY.enabled``.  All ``on_*`` methods are only ever
    invoked behind that guard, so they may assume they are live.
    """

    __slots__ = ("enabled", "recorder", "per_class", "counters", "gauges",
                 "record_packets")

    def __init__(self, capacity: int = 4096):
        self.enabled = False
        self.recorder = FlightRecorder(capacity)
        self.per_class: Dict[Any, ClassTelemetry] = {}
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        #: record per-packet events (enqueue/dequeue/depart) in the ring;
        #: countings and histograms are unaffected.  On by default --
        #: flip off to keep only structural events in very long runs.
        self.record_packets = True

    # -- lifecycle -----------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self, capacity: Optional[int] = None) -> None:
        """Drop all recorded state (counters, histograms, ring buffer)."""
        self.recorder = FlightRecorder(capacity or self.recorder.capacity)
        self.per_class = {}
        self.counters = {}
        self.gauges = {}

    def cls(self, class_id: Any) -> ClassTelemetry:
        entry = self.per_class.get(class_id)
        if entry is None:
            entry = ClassTelemetry(class_id)
            self.per_class[class_id] = entry
        return entry

    def counter(self, name: str) -> Counter:
        entry = self.counters.get(name)
        if entry is None:
            entry = Counter()
            self.counters[name] = entry
        return entry

    def gauge(self, name: str) -> Gauge:
        entry = self.gauges.get(name)
        if entry is None:
            entry = Gauge()
            self.gauges[name] = entry
        return entry

    # -- tap points ----------------------------------------------------------

    def on_enqueue(self, class_id: Any, size: float, now: float) -> None:
        entry = self.cls(class_id)
        entry.enqueued_packets += 1
        entry.enqueued_bytes += size
        if self.record_packets:
            self.recorder.record(now, "enqueue", class_id, {"size": size})

    def on_dequeue(self, class_id: Any, size: float, now: float) -> None:
        entry = self.cls(class_id)
        entry.dequeued_packets += 1
        entry.dequeued_bytes += size

    def on_hfsc_serve(self, class_id: Any, size: float, now: float,
                      realtime: bool, deadline: Optional[float]) -> None:
        """H-FSC dequeue detail: criterion split + deadline slack."""
        entry = self.cls(class_id)
        if realtime:
            entry.rt_packets += 1
            entry.rt_bytes += size
        else:
            entry.ls_packets += 1
            entry.ls_bytes += size
        if deadline is not None:
            entry.deadlines_set += 1
            slack = deadline - now
            entry.slack_hist.record(slack if slack > 0.0 else 0.0)
        if self.record_packets:
            data: Dict[str, Any] = {"size": size, "realtime": realtime}
            if deadline is not None:
                data["deadline"] = deadline
                data["slack"] = deadline - now
            self.recorder.record(now, "dequeue", class_id, data)

    def on_depart(self, class_id: Any, size: float, now: float,
                  delay: float, deadline: Optional[float]) -> None:
        entry = self.cls(class_id)
        entry.departed_packets += 1
        entry.departed_bytes += size
        entry.delay_hist.record(delay)
        if self.record_packets:
            self.recorder.record(now, "depart", class_id,
                                 {"size": size, "delay": delay})
        if deadline is not None and now > deadline:
            miss = now - deadline
            entry.deadline_misses += 1
            if miss > entry.worst_deadline_miss:
                entry.worst_deadline_miss = miss
            self.counter("deadline_misses").inc()
            self.recorder.record(now, "deadline-miss", class_id,
                                 {"miss": miss, "deadline": deadline})

    def on_return(self, class_id: Any, size: float) -> None:
        self.cls(class_id).returned_packets += 1
        self.recorder.record(None, "return", class_id, {"size": size})

    def on_drop(self, class_id: Any, now: float, reason: str) -> None:
        entry = self.cls(class_id)
        if reason == "overload":
            entry.rejected_packets += 1
        else:
            entry.dropped_packets += 1
        self.counter("drops").inc()
        self.recorder.record(now, "drop", class_id, {"reason": reason})

    def on_rate_change(self, now: float, rate: float, previous: float) -> None:
        self.counter("rate_changes").inc()
        if rate == 0.0:
            self.counter("outages").inc()
        self.recorder.record(now, "rate-change", None,
                             {"rate": rate, "previous": previous})

    def on_overload(self, now: Optional[float], policy: str,
                    detail: Dict[str, Any]) -> None:
        self.counter("overload_events").inc()
        data = {"policy": policy}
        data.update(detail)
        self.recorder.record(now, "overload", None, data)

    def on_reconfig(self, now: Optional[float], operation: str,
                    class_id: Any = None,
                    detail: Optional[Dict[str, Any]] = None) -> None:
        self.counter("reconfigurations").inc()
        data: Dict[str, Any] = {"operation": operation}
        if detail:
            data.update(detail)
        self.recorder.record(now, "reconfig", class_id, data)

    def on_violation(self, now: float, kind: str, detail: str,
                     class_id: Any = None, excess: float = 0.0) -> None:
        self.counter("violations").inc()
        data: Dict[str, Any] = {"violation": kind, "detail": detail}
        if excess:
            data["excess"] = excess
        self.recorder.record(now, "violation", class_id, data)

    def on_run_boundary(self, now: float, phase: str,
                        events_processed: int) -> None:
        self.recorder.record(now, "run", None,
                             {"phase": phase, "events": events_processed})


#: The process-wide telemetry hub every tap point checks.
TELEMETRY = Telemetry()


@contextmanager
def telemetry_session(record_packets: bool = True, capacity: int = 4096):
    """Enable a fresh telemetry session for the ``with`` block (tests/CLI).

    Resets all recorded state on entry, restores the previous
    enabled/record_packets flags on exit (recorded state is kept so the
    caller can export after the run).
    """
    was_enabled = TELEMETRY.enabled
    was_recording = TELEMETRY.record_packets
    TELEMETRY.reset(capacity)
    TELEMETRY.record_packets = record_packets
    TELEMETRY.enable()
    try:
        yield TELEMETRY
    finally:
        TELEMETRY.enabled = was_enabled
        TELEMETRY.record_packets = was_recording

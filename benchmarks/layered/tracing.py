"""In-memory spans around the program's public entry points.

The benchmark measures every layer *from outside*: a :class:`Tracer`
replaces an attribute of a class or module (``Dataplane.ingest``,
``ingress.decode_packet``, ``Link.offer_batch`` ...) with a wrapper that
records one span per call -- name, start, end, parent span and the id of
the burst it belongs to -- and puts the original back when the traced run
ends.  Nothing in ``src/`` knows it is being watched.

Spans live in one flat ``array('q')`` (five int64 per span) so a traced
flood of a million spans costs tens of megabytes, not hundreds.  A
layer's *self time* is its spans' duration minus the part their child
spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

_FIELDS = 5  # name id, start ns, end ns, parent offset (-1 = none), burst id


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.arr = array("q")
        self.cur = -1
        self.burst = 0
        #: ``(label, span offset, wall ns, cpu ns, payload)`` written by hooks.
        self.marks: List[Tuple[str, int, int, int, Any]] = []
        #: span offset -> free-form tag (the control op of a dispatch span).
        self.tags: Dict[int, str] = {}
        self.counts: Dict[str, int] = {}
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn: Callable,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """A recording wrapper around ``fn``.

        ``before(tracer, offset, args)`` runs once the span is open,
        ``after(tracer, offset, args, result)`` once it has closed; both
        are optional and only a few low-rate wrappers use them.
        """
        nid = self._nid(name)
        arr = self.arr
        clock = time.perf_counter_ns
        tr = self

        if before is None and after is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                parent = tr.cur
                off = len(arr)
                tr.cur = off
                arr.extend((nid, clock(), 0, parent, tr.burst))
                try:
                    return fn(*args, **kwargs)
                finally:
                    arr[off + 2] = clock()
                    tr.cur = parent
            return traced

        @functools.wraps(fn)
        def traced_hooked(*args, **kwargs):
            parent = tr.cur
            off = len(arr)
            tr.cur = off
            arr.extend((nid, clock(), 0, parent, tr.burst))
            if before is not None:
                before(tr, off, args)
            try:
                result = fn(*args, **kwargs)
            finally:
                arr[off + 2] = clock()
                tr.cur = parent
            if after is not None:
                after(tr, off, args, result)
            return result
        return traced_hooked

    def patch(self, owner: Any, attr: str, name: str, **hooks: Any) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **hooks))

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def mark(self, label: str, payload: Any = None) -> None:
        self.marks.append((label, len(self.arr), time.perf_counter_ns(),
                           time.process_time_ns(), payload))

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- analysis -------------------------------------------------------------

    def aggregate(self, lo: int = 0, hi: Optional[int] = None
                  ) -> Dict[str, Dict[str, float]]:
        """Per span name: ``count``, ``total_ns``, ``self_ns`` over the
        spans that *started* at array offsets ``[lo, hi)``."""
        arr = self.arr
        hi = len(arr) if hi is None else hi
        child: Dict[int, int] = {}
        out: Dict[str, Dict[str, float]] = {}
        # Children start after their parent, so walking backwards meets
        # every child before the parent it charges.
        for off in range(hi - _FIELDS, lo - 1, -_FIELDS):
            end = arr[off + 2]
            if end == 0:
                continue  # still open when the run ended
            dur = end - arr[off + 1]
            parent = arr[off + 3]
            if parent >= lo:
                child[parent] = child.get(parent, 0) + dur
            row = out.setdefault(self.names[arr[off]],
                                 {"count": 0, "total_ns": 0, "self_ns": 0})
            row["count"] += 1
            row["total_ns"] += dur
            row["self_ns"] += dur - child.pop(off, 0)
        return out

    def top_level_ns(self, lo: int, hi: int) -> int:
        """Wall time covered by spans without a parent in ``[lo, hi)``."""
        arr = self.arr
        total = 0
        for off in range(lo, hi, _FIELDS):
            if arr[off + 3] < lo and arr[off + 2]:
                total += arr[off + 2] - arr[off + 1]
        return total

    def nesting_errors(self) -> int:
        """Spans that stick out of their parent -- must be zero."""
        arr = self.arr
        bad = 0
        for off in range(0, len(arr), _FIELDS):
            parent = arr[off + 3]
            if parent < 0 or arr[off + 2] == 0 or arr[parent + 2] == 0:
                continue
            if arr[off + 1] < arr[parent + 1] or arr[off + 2] > arr[parent + 2]:
                bad += 1
        return bad

    def durations(self, name: str, lo: int = 0, hi: Optional[int] = None,
                  tag: Optional[str] = None) -> List[float]:
        """Span durations (ms) of ``name``, optionally only those tagged."""
        arr = self.arr
        nid = self._name_ids.get(name)
        hi = len(arr) if hi is None else hi
        out = []
        for off in range(lo, hi, _FIELDS):
            if arr[off] == nid and arr[off + 2] and (
                    tag is None or self.tags.get(off) == tag):
                out.append((arr[off + 2] - arr[off + 1]) / 1e6)
        return out

    def dump(self, path: str, extra: Dict[str, Any], limit: int = 20000) -> None:
        """Write the first ``limit`` spans and the aggregates as JSON."""
        arr = self.arr
        rows = [
            [self.names[arr[off]], arr[off + 1], arr[off + 2],
             arr[off + 3] // _FIELDS if arr[off + 3] >= 0 else -1,
             arr[off + 4]]
            for off in range(0, min(len(arr), limit * _FIELDS), _FIELDS)
        ]
        doc = {
            "fields": ["name", "start_ns", "end_ns", "parent", "burst"],
            "spans_total": len(arr) // _FIELDS,
            "spans": rows,
            "aggregate": self.aggregate(),
            "marks": [[m[0], m[1] // _FIELDS, m[2], m[3]] for m in self.marks],
        }
        doc.update(extra)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


# -- the patch set --------------------------------------------------------------


def _bump_burst(tr: Tracer, off: int, args: Any) -> None:
    tr.burst += 1
    tr.arr[off + 4] = tr.burst


def _count_realtime(tr: Tracer, off: int, args: Any, result: Any) -> None:
    if result is None:
        return
    for packet in (result if isinstance(result, list) else (result,)):
        tr.count("departures")
        if packet.via_realtime:
            tr.count("via_realtime")


def _tag_op(tr: Tracer, off: int, args: Any, result: Any) -> None:
    line = args[1]
    try:
        op = json.loads(line).get("op", "?")
    except (ValueError, AttributeError):
        op = "?"
    tr.tags[off] = str(op)
    if op == "info":
        service = args[0].service
        tr.mark("info", {"received": service.dataplane.received,
                         "events": service.loop.events_processed})


def patch_scheduler(tracer: Tracer) -> None:
    from repro.core.hfsc import HFSC

    tracer.patch(HFSC, "enqueue", "core.hfsc.enqueue")
    tracer.patch(HFSC, "enqueue_batch", "core.hfsc.enqueue")
    tracer.patch(HFSC, "dequeue", "core.hfsc.dequeue", after=_count_realtime)
    tracer.patch(HFSC, "dequeue_batch", "core.hfsc.dequeue",
                 after=_count_realtime)


def patch_serve_path(tracer: Tracer) -> None:
    """Spans at every boundary a served datagram crosses."""
    from repro.serve import ingress
    from repro.serve.driver import RealTimeDriver
    from repro.serve.wire import SuffixClassifier
    from repro.sim.engine import EventLoop, PeriodicTask
    from repro.sim.link import Link

    patch_scheduler(tracer)
    tracer.patch(ingress.DatagramIngressProtocol, "datagram_received",
                 "serve.ingress.datagram_received")
    tracer.patch(ingress.Dataplane, "ingest", "serve.ingress.ingest")
    tracer.patch(ingress, "decode_packet", "serve.wire.decode")
    tracer.patch(SuffixClassifier, "__call__", "serve.ingress.classify")
    tracer.patch(RealTimeDriver, "call_soon", "serve.driver.call_soon",
                 before=_bump_burst)
    tracer.patch(RealTimeDriver, "run_due", "serve.driver.run_due")
    tracer.patch(EventLoop, "run", "sim.engine.run")
    tracer.patch(PeriodicTask, "_tick", "sim.faults.watchdog")
    tracer.patch(ingress.Dataplane, "_deliver_burst", "serve.ingress.deliver")
    tracer.patch(Link, "offer_batch", "sim.link.offer")
    tracer.patch(Link, "_complete", "sim.link.complete")
    tracer.patch(Link, "_retry", "sim.link.complete")
    tracer.patch(ingress.Dataplane, "_on_departure", "serve.ingress.departure")
    tracer.patch(ingress, "encode_departure", "serve.wire.encode")


def patch_control_path(tracer: Tracer) -> None:
    from repro.persist import codec
    from repro.persist.runtime import RunContext
    from repro.serve import control, service

    tracer.patch(control.ControlServer, "dispatch_line",
                 "serve.control.dispatch", after=_tag_op)
    tracer.patch(control, "is_admissible", "core.admission.check")
    tracer.patch(control, "admissible_rate_headroom", "core.admission.check")
    tracer.patch(RunContext, "snapshot_body", "persist.runtime.snapshot_body")
    tracer.patch(RunContext, "restore_body", "persist.runtime.restore_body")
    tracer.patch(service, "save_snapshot", "persist.codec.save")
    tracer.patch(service, "load_snapshot", "persist.codec.load")
    tracer.patch(codec, "dumps_snapshot", "persist.codec.dumps")


def patch_transport(tracer: Tracer, transport: Any) -> None:
    """``sendto`` of the live datagram transport's class -- the reflect
    half of the socket layer."""
    tracer.patch(type(transport), "sendto", "asyncio_socket.sendto")


# -- from spans to per-layer metrics ---------------------------------------------

#: span name -> the per-layer metric its self time is reported under.
SELF_TIME_METRICS = {
    "serve.wire.decode": "serve.wire.decode_us_per_pkt",
    "serve.wire.encode": "serve.wire.encode_us_per_pkt",
    "serve.ingress.datagram_received": "serve.ingress.ingest_self_us_per_pkt",
    "serve.ingress.ingest": "serve.ingress.ingest_self_us_per_pkt",
    "serve.ingress.classify": "serve.ingress.classify_us_per_pkt",
    "serve.ingress.deliver": "serve.ingress.deliver_self_us_per_pkt",
    "serve.ingress.departure": "serve.ingress.departure_self_us_per_pkt",
    "serve.driver.call_soon": "serve.driver.self_us_per_pkt",
    "serve.driver.run_due": "serve.driver.self_us_per_pkt",
    "sim.engine.run": "sim.engine.run_self_us_per_pkt",
    "sim.faults.watchdog": "sim.faults.watchdog_us_per_pkt",
    "sim.link.offer": "sim.link.offer_self_us_per_pkt",
    "sim.link.complete": "sim.link.complete_self_us_per_pkt",
    "core.hfsc.enqueue": "core.hfsc.enqueue_us_per_pkt",
    "core.hfsc.dequeue": "core.hfsc.dequeue_us_per_pkt",
    "asyncio_socket.sendto": "asyncio_socket.sendto_us_per_pkt",
    "serve.control.dispatch": "serve.control.dispatch_self_us_per_pkt",
    "core.admission.check": "serve.control.dispatch_self_us_per_pkt",
    "persist.runtime.snapshot_body": "serve.control.dispatch_self_us_per_pkt",
    "persist.codec.save": "serve.control.dispatch_self_us_per_pkt",
    "persist.codec.dumps": "serve.control.dispatch_self_us_per_pkt",
}


def layer_budget(tracer: Tracer, lo: int, hi: int, packets: int,
                 cpu_ns: Optional[int]) -> Dict[str, float]:
    """Self time per packet of every traced layer between two span
    offsets.  With ``cpu_ns`` (a process that also runs an asyncio loop),
    what no span covers is the ``asyncio_socket`` residual."""
    agg = tracer.aggregate(lo, hi)
    out: Dict[str, float] = {}
    packets = max(1, packets)
    for span, row in agg.items():
        metric = SELF_TIME_METRICS.get(span)
        if metric is None:
            continue
        out[metric] = out.get(metric, 0.0) + row["self_ns"] / packets / 1e3
    if cpu_ns is not None:
        covered = tracer.top_level_ns(lo, hi)
        out["asyncio_socket.self_us_per_pkt"] = max(0.0, cpu_ns - covered) / packets / 1e3
    turns = agg.get("sim.engine.run", {}).get("count", 0)
    bursts = agg.get("sim.link.offer", {}).get("count", 0)
    out["serve.driver.turns_per_pkt"] = turns / packets
    if bursts:
        out["serve.ingress.burst_pkts_mean"] = (
            agg.get("serve.ingress.ingest", {}).get("count", 0) / bursts)
    return out


def info_marks(tracer: Tracer) -> List[Tuple[int, int, int, Dict[str, Any]]]:
    return [(m[1], m[2], m[3], m[4]) for m in tracer.marks if m[0] == "info"]

"""``kernel_backlogged``, ``kernel_telem`` and ``kernel_onoff``: the
scheduler alone.

A 16 x 16 x 16 tree (4096 leaves; every fourth leaf concave rt+ls, the
rest link-sharing only) driven through the two paths a packet can take:

* ``kernel_backlogged`` -- every leaf two deep, ``dequeue_batch`` /
  ``enqueue_batch`` in bursts of 64: a served class stays backlogged, so
  the eligible set is requeued in place.  This is the batched dataplane's
  steady state, past the n=1024 where the committed baselines stop.
* ``kernel_telem`` -- ``kernel_backlogged`` with ``TELEMETRY.enable()``:
  what watching the scheduler costs.  A workload of its own because the
  contract bounds a metric per workload: its ``ops_per_s`` is issue 12's
  ``sched_pps_telem``.  Same inputs, so the same pinned digest -- which
  also proves telemetry does not alter the schedule.
* ``kernel_onoff`` -- one packet per leaf, per-packet ``dequeue`` /
  ``enqueue``: every packet passivates its class and the next activates
  it again (Figs. 4-6, 8: ``update_ed``, virtual-time initialisation,
  min-of-curves).  A gain on the backlogged path that costs the
  activation path shows here.

The same packet objects are re-enqueued, so the timed region holds
scheduler calls and nothing else.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import inputs
from calib import BurstLog, core_of, timed_setups
from common import HERE, check, file_setups, new_result, pin, proc_status, unpin
from tracing import Tracer, patch_scheduler

FANS = (16, 16, 16)
BURST = 64
DIGEST_PACKETS = 50_000
DIGESTS_PATH = os.path.join(HERE, "digests.json")


def build(doc: Dict[str, Any], backend: str = "hfsc"):
    """(scheduler, leaf names, seconds the scheduler took to build).

    Through ``build_scheduler``, the path ``repro serve`` takes from a
    hierarchy file to a scheduler -- except ``backend="core"``, which
    calls ``core.hierarchy.build_hfsc`` directly: the registry's parent
    resolution is quadratic in the class count today, and the 16384-leaf
    point of the class-count axis would take half a minute through it.
    """
    from repro.core.hierarchy import build_hfsc
    from repro.serve.hierarchy import build_scheduler, leaf_names, spec_from_doc

    specs = [spec_from_doc(c) for c in doc["classes"]]
    t0 = time.perf_counter()
    if backend == "core":
        sched = build_hfsc(doc["link_rate"], specs)
    else:
        sched = build_scheduler(backend, doc["link_rate"], specs)
    return sched, leaf_names(specs), time.perf_counter() - t0


def _seed(sched: Any, seed: int, leaves: Sequence[str], deep: bool) -> None:
    from repro.sim.packet import Packet

    sizes, order = inputs.kernel_packets(seed, leaves)
    if not deep:
        order = list(dict.fromkeys(order))  # each leaf once, seeded order
    packets = [Packet(leaf, sizes[leaf]) for leaf in order]
    if deep:
        sched.enqueue_batch(packets, 0.0)
    else:
        for packet in packets:
            sched.enqueue(packet, 0.0)


class Churn:
    """One scheduler under steady churn; ``step`` is one burst of 64."""

    def __init__(self, sched: Any, batched: bool):
        self.sched = sched
        self.batched = batched
        self.now = 0.0
        self.link = sched.link_rate
        self.served = 0
        self.realtime = 0
        self.empty = 0

    def step(self, log: Optional[BurstLog], sink: Optional[List[Any]] = None) -> None:
        sched = self.sched
        clock = time.perf_counter
        cpu_clock = time.process_time
        if self.batched:
            c0 = cpu_clock()
            t0 = clock()
            out = sched.dequeue_batch(self.now, BURST)
            t1 = clock()
            nbytes = 0.0
            for packet in out:
                nbytes += packet.size
                if packet.via_realtime:
                    self.realtime += 1
            if sink is not None:
                sink.extend((p.class_id, p.dequeued, p.via_realtime, p.deadline)
                            for p in out)
            self.now += nbytes / self.link
            t2 = clock()
            sched.enqueue_batch(out, self.now)
            t3 = clock()
            wall = (t1 - t0) + (t3 - t2)
            # The untimed middle is harness work; charge CPU in the same
            # proportion as wall.
            cpu = (cpu_clock() - c0) * wall / (t3 - t0)
            count = len(out)
        else:
            now, link = self.now, self.link
            dequeue, enqueue = sched.dequeue, sched.enqueue
            count = 0
            c0 = cpu_clock()
            t0 = clock()
            for _ in range(BURST):
                packet = dequeue(now)
                if packet is None:
                    continue
                if sink is not None:
                    sink.append((packet.class_id, packet.dequeued,
                                 packet.via_realtime, packet.deadline))
                if packet.via_realtime:
                    self.realtime += 1
                now += packet.size / link
                enqueue(packet, now)
                count += 1
            wall = clock() - t0
            cpu = cpu_clock() - c0
            self.now = now
        if count < BURST:
            self.empty += BURST - count
        self.served += count
        if log is not None and count:
            log.add(t0, wall, cpu, count)

    def run(self, seconds: float, log: BurstLog) -> None:
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            self.step(log)


def digest_of(records: Sequence[Tuple[Any, ...]]) -> str:
    h = hashlib.sha256()
    for record in records[:DIGEST_PACKETS]:
        h.update(repr(record).encode("utf-8"))
    return h.hexdigest()


def first_departures(name: str, seed: int, built: Any = None
                     ) -> Tuple[Churn, str, float]:
    """A fresh scheduler (``built``, or one built here) seeded and
    advanced through its first 50k departures (untimed: this is also the
    warm-up), their digest, and the seconds the build took."""
    sched, leaves, build_s = built or build(inputs.kernel_doc(FANS))
    batched = name != "kernel_onoff"
    _seed(sched, seed, leaves, deep=batched)
    churn = Churn(sched, batched)
    records: List[Tuple[Any, ...]] = []
    while len(records) < DIGEST_PACKETS:
        churn.step(None, records)
    return churn, digest_of(records), build_s


def pinned_digest(name: str, seed: int) -> Optional[str]:
    if name == "kernel_telem":
        name = "kernel_backlogged"
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh).get(name, {}).get(str(seed))


def telemetry(on: bool):
    """The hub as ``repro serve --telemetry`` runs it (counters, no
    per-packet records) for the body -- or nothing."""
    from repro.obs.core import telemetry_session

    return telemetry_session(record_packets=False) if on else contextlib.nullcontext()


def pin_digests(seeds: Sequence[int]) -> None:
    """(Re)write ``digests.json`` for ``seeds`` -- only when a change is
    *meant* to alter the schedule."""
    pinned = {name: {str(seed): first_departures(name, seed)[1] for seed in seeds}
              for name in ("kernel_backlogged", "kernel_onoff")}
    with open(DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)


def _correctness(res: Dict[str, Any], name: str, seed: int, churn: Churn,
                 digest: str) -> None:
    sched = churn.sched
    check(res, "no dequeue came back empty", churn.empty == 0,
          f"{churn.empty} empty")
    check(res, "packet conservation",
          sched.total_enqueued - sched.total_dequeued == len(sched),
          f"in {sched.total_enqueued} out {sched.total_dequeued} "
          f"held {len(sched)}")
    try:
        sched.check_invariants()
        check(res, "check_invariants() clean", True)
    except Exception as exc:  # any violation type is a failed check
        check(res, "check_invariants() clean", False, str(exc)[:200])
    pinned = pinned_digest(name, seed)
    if pinned is not None:
        check(res, "first 50k departures match the pinned digest",
              digest == pinned, digest[:16])
    else:
        # An unpinned seed: the schedule must at least be reproducible.
        _, again, _ = first_departures(name, seed)
        check(res, "first 50k departures reproducible (seed not pinned)",
              digest == again, digest[:16])
    res["notes"]["digest"] = digest
    res["attempted"] = max(1, churn.served)
    res["failed"] = churn.empty


SETUPS = 2


def run(name: str, seed: int, seconds: float, quick: bool = False) -> Dict[str, Any]:
    res = new_result()
    pin(0, "server")
    try:
        doc = inputs.kernel_doc(FANS)
        built, *setups = timed_setups(
            core_of(0), 0 if quick else SETUPS, lambda: build(doc))
        with telemetry(name == "kernel_telem"):
            churn, digest, _ = first_departures(name, seed, built)
            log = BurstLog()
            churn.run(seconds, log)
    finally:
        unpin()
    log.report_into(res)
    file_setups(res, *setups)
    res["e2e"]["peak_rss_mb"] = proc_status(os.getpid())["peak_rss_mb"]
    res["layers"]["core.hfsc.rt_select_frac"] = churn.realtime / max(1, churn.served)
    _correctness(res, name, seed, churn, digest)
    return res


# -- traced repeat ------------------------------------------------------------------


def _reference_line(fans: Sequence[int], backend: str, seed: int,
                    seconds: float) -> float:
    """us/pkt (reference speed) of ``backend`` on a backlogged tree."""
    sched, leaves, _ = build(inputs.kernel_doc(fans), backend)
    _seed(sched, seed, leaves, deep=True)
    churn = Churn(sched, batched=True)
    for _ in range(200):
        churn.step(None)
    log = BurstLog()
    churn.run(seconds, log)
    return 1e6 / log.summary()["ops_per_s"]


def run_traced(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    from repro.core import flatstate

    res = new_result()
    layers = res["layers"]
    part = max(0.5, seconds / 6)
    telem = name == "kernel_telem"
    pin(0, "server")
    try:
        doc = inputs.kernel_doc(FANS)
        classes = len(doc["classes"])
        with telemetry(telem):
            churn, digest, build_s = first_departures(name, seed)
            layers["core.hfsc.build_us_per_class"] = build_s / classes * 1e6
            plain = BurstLog()
            churn.run(part, plain)
            tracer = Tracer()
            patch_scheduler(tracer)
            try:
                traced = BurstLog()
                served0 = churn.served
                churn.run(part, traced)
                packets = churn.served - served0
            finally:
                tracer.unpatch()
        agg = tracer.aggregate()
        plain_summary, traced_summary = plain.summary(), traced.summary()
        factor = traced_summary["host.speed_factor"]
        for span, metric in (("core.hfsc.enqueue", "core.hfsc.enqueue_us_per_pkt"),
                             ("core.hfsc.dequeue", "core.hfsc.dequeue_us_per_pkt")):
            layers[metric] = agg[span]["self_ns"] / packets / 1e3 / factor
        own = traced_summary["raw_us_per_op"] / factor
        total = layers["core.hfsc.enqueue_us_per_pkt"] + layers["core.hfsc.dequeue_us_per_pkt"]
        layers["trace.us_per_pkt"] = own
        layers["trace.budget_gap_frac"] = abs(total - own) / own
        layers["trace.overhead_frac"] = (
            plain_summary["ops_per_s"] / traced_summary["ops_per_s"] - 1.0)
        check(res, "spans nest", tracer.nesting_errors() == 0)
        if name == "kernel_backlogged":
            # The class-count axis and the reference lines.
            layers["core.hfsc.us_per_pkt.n256"] = _reference_line((4, 8, 8), "core", seed, part)
            layers["core.hfsc.us_per_pkt.n16384"] = _reference_line((16, 32, 32), "core", seed, part)
            layers["schedulers.hls.us_per_pkt"] = _reference_line(FANS, "hls", seed, part)
            layers["schedulers.hpfq.us_per_pkt"] = _reference_line(FANS, "hpfq", seed, part)
        if telem:
            # The same scheduler with the hub off again: what watching costs.
            off = BurstLog()
            churn.run(part, off)
            layers["obs.core.telemetry_overhead_frac"] = (
                1.0 - plain_summary["ops_per_s"] / off.summary()["ops_per_s"])
    finally:
        unpin()
    layers["core.hfsc.compiled"] = 1.0 if flatstate.COMPILED else 0.0
    layers["core.hfsc.rt_select_frac"] = churn.realtime / max(1, churn.served)
    layers["host.speed_factor"] = plain_summary["host.speed_factor"]
    layers["host.ref_spin_ratio"] = plain_summary["host.ref_spin_ratio"]
    _correctness(res, name, seed, churn, digest)
    res["notes"]["tracer"] = tracer
    return res

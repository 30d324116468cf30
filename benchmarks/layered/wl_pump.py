"""``pump_inproc``: the serve path with no sockets and no asyncio.

Pre-encoded datagrams go straight into ``Dataplane.ingest`` with a stub
transport that collects the departure notices; every 64 datagrams
``RealTimeDriver.run`` (``time_scale=0``) advances simulated time by the
burst's transmission time.  ``serve.wire`` + ``serve.ingress`` + ``sim.*``
+ ``core.hfsc`` do all the work and the socket layer none: the bypass for
socket optimisations and the amplifier for ingest ones.

(``serve/shard_pump`` in ``benchmarks/baseline.py`` advances the clock by
5 s a turn, which fires the watchdog 20 times per turn and leaves the
reflect half out; this workload does neither.)
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Optional, Tuple

import inputs
from calib import BurstLog, core_of, timed_setups
from common import (
    INSTRUMENT, adopt_checks, check, file_setups, new_result, pin, proc_status,
    unpin,
)
from tracing import Tracer, layer_budget, patch_serve_path
from wl_wire import FLOOD_LINK, FLOOD_SIZE

BURST = 64
POOL = 1 << 14
ADDR = ("127.0.0.1", 9)


class StubTransport:
    """Collects what the dataplane reflects."""

    def __init__(self) -> None:
        self.out: List[bytes] = []

    def sendto(self, data: bytes, addr: Any) -> None:
        self.out.append(data)


def setup(seed: int) -> Tuple[Any, List[bytes]]:
    """A fresh ``ServeService`` on the campus_rt tree and the datagram
    pool, exactly what a run needs before its first packet."""
    from repro.serve.hierarchy import spec_from_doc
    from repro.serve.service import ServeService
    from repro.serve.wire import encode_packet

    doc = inputs.campus_rt_doc(FLOOD_LINK)
    service = ServeService([spec_from_doc(c) for c in doc["classes"]],
                           doc["link_rate"], time_scale=0.0)
    names, (_, order, _) = inputs.flood_inputs(seed)
    pool = [encode_packet(names[order[i % len(order)]], i, 0.0, FLOOD_SIZE)
            for i in range(POOL)]
    return service, pool


class Pump:
    def __init__(self, service: Any, pool: List[bytes]):
        self.service = service
        self.pool = pool
        self.stub = StubTransport()
        self.cursor = 0
        self.ingested = 0
        self.notices = 0
        self.decode_errors = 0
        self.bursts = 0
        self.tx = BURST * FLOOD_SIZE / service.link.rate

    def burst(self, log: Optional[BurstLog]) -> None:
        from repro.serve.wire import WireError, decode_departure

        service = self.service
        ingest = service.dataplane.ingest
        stub = self.stub
        batch = self.pool[self.cursor:self.cursor + BURST]
        self.cursor = (self.cursor + BURST) % POOL
        c0 = time.process_time()
        t0 = time.perf_counter()
        for datagram in batch:
            ingest(datagram, ADDR, stub)
        service.driver.run(until=service.loop.now + self.tx)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        # Untimed: count every notice, decode every sixteenth burst's.
        self.ingested += len(batch)
        self.notices += len(stub.out)
        self.bursts += 1
        if self.bursts % 16 == 0:
            for notice in stub.out:
                try:
                    decode_departure(notice)
                except WireError:
                    self.decode_errors += 1
        stub.out.clear()
        if log is not None:
            log.add(t0, wall, cpu, len(batch))

    def run(self, seconds: float, log: BurstLog) -> None:
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            self.burst(log)

    def drain(self) -> None:
        service = self.service
        service.driver.run(until=service.loop.now + 1.0)
        self.notices += len(self.stub.out)
        self.stub.out.clear()


def _correctness(res: Dict[str, Any], pump: Pump) -> None:
    pump.drain()
    plane = pump.service.dataplane.summary()
    accepted = plane["received"] - plane["shed"]["total"]
    check(res, "every notice decodes", pump.decode_errors == 0,
          f"{pump.decode_errors} undecodable")
    check(res, "ingested = notices + sheds", accepted == pump.notices,
          f"accepted {accepted}, notices {pump.notices}")
    check(res, "nothing shed", plane["shed"]["total"] == 0, str(plane["shed"]))
    watchdog = pump.service.watchdog
    check(res, "watchdog violations = 0",
          watchdog is None or not watchdog.reports)
    res["attempted"] = max(1, accepted)
    res["failed"] = abs(accepted - pump.notices) + pump.decode_errors
    res["layers"]["loadgen.fail_frac"] = res["failed"] / res["attempted"]
    res["layers"]["serve.ingress.shed_other"] = float(plane["shed"]["total"])


SETUPS = 9  # 5 ms each


def run(name: str, seed: int, seconds: float, quick: bool = False) -> Dict[str, Any]:
    res = new_result()
    pin(0, "server")
    try:
        (service, pool), *setups = timed_setups(
            core_of(0), 0 if quick else SETUPS, lambda: setup(seed))
        pump = Pump(service, pool)
        for _ in range(200):
            pump.burst(None)
        log = BurstLog()
        pump.run(seconds, log)
    finally:
        unpin()
    log.report_into(res)
    file_setups(res, *setups)
    res["e2e"]["peak_rss_mb"] = proc_status(os.getpid())["peak_rss_mb"]
    _correctness(res, pump)
    return res


def run_traced(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    res = new_result()
    half = max(0.5, seconds / 2)
    pin(0, "server")
    tracer = Tracer()
    try:
        service, pool = setup(seed)
        plain_pump = Pump(service, pool)
        for _ in range(200):
            plain_pump.burst(None)
        plain = BurstLog()
        plain_pump.run(half, plain)
        # The wrappers go on the classes, so the traced half gets a
        # service built after they are in place.
        patch_serve_path(tracer)
        try:
            service, pool = setup(seed)
            pump = Pump(service, pool)
            for _ in range(200):
                pump.burst(None)
            lo = len(tracer.arr)
            events0 = service.loop.events_processed
            traced = BurstLog()
            pump.run(half, traced)
            hi = len(tracer.arr)
            events = service.loop.events_processed - events0
        finally:
            tracer.unpatch()
    finally:
        unpin()
    packets = traced.total_ops()
    layers = res["layers"]
    summary = traced.summary()
    factor = summary["host.speed_factor"]
    for metric, value in layer_budget(tracer, lo, hi, packets, None).items():
        layers[metric] = value / factor if metric.endswith("_us_per_pkt") else value
    own = summary["raw_us_per_op"] / factor
    total = sum(v for k, v in layers.items() if k.endswith("_us_per_pkt"))
    layers["trace.us_per_pkt"] = own
    layers["trace.budget_gap_frac"] = abs(total - own) / own
    layers["trace.overhead_frac"] = (
        plain.summary()["ops_per_s"] / summary["ops_per_s"] - 1.0)
    layers["sim.engine.events_per_pkt"] = events / packets
    departures = tracer.counts.get("departures", 0)
    layers["core.hfsc.rt_select_frac"] = (
        tracer.counts.get("via_realtime", 0) / departures if departures else 0.0)
    layers["host.speed_factor"] = factor
    layers["host.ref_spin_ratio"] = summary["host.ref_spin_ratio"]
    check(res, "spans nest", tracer.nesting_errors() == 0)
    check(res, INSTRUMENT + "layer self times sum to the traced run's us/pkt (10%)",
          layers["trace.budget_gap_frac"] <= 0.10,
          f"sum {total:.2f} vs {own:.2f} us/pkt")
    _correctness(res, pump)
    plain_check = new_result()
    _correctness(plain_check, plain_pump)
    adopt_checks(res, plain_check, "untraced reference")
    res["notes"]["tracer"] = tracer
    return res

"""``wire_flood`` and ``wire_shaped``: real UDP over loopback through
``repro serve``.

Same path, used two ways.  ``wire_flood`` offers three times what the
service can take at the smallest datagram size, so the server is
CPU-bound on bare forwarding and the socket/asyncio layer dominates.
``wire_shaped`` is the paper's own regime: a slow link is the
bottleneck, H-FSC arbitrates, arrivals are isolated and pass through the
driver's pacing path one by one -- a throughput gain bought with latency
or with the real-time guarantee shows there.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple

import inputs
from calib import CoreCalibrator, core_of
from common import (
    INSTRUMENT, CheckFailed, adopt_checks, check, file_setups, host_cpu_times, make_workdir,
    median, new_result, percentile, pin, udp_socket, unpin,
)
from loadgen import Generator
from server import (
    ServerHandle, host_traced, spawn, spawn_timed, write_hierarchy,
)
from tracing import (
    Tracer, info_marks, layer_budget, patch_control_path, patch_serve_path,
)

FLOOD_LINK = 1e9
FLOOD_SIZE = 64
FLOOD_RATE = 80_000.0
WARM = 1.0
SLICE = 0.5


def _prepare(name: str, seed: int, seconds: float):
    """(hierarchy doc, flow names, schedule, datagram size, probe flows,
    shaped-info or None) of one wire workload."""
    if name == "wire_flood":
        names, schedule = inputs.flood_inputs(seed, rate=FLOOD_RATE)
        return (inputs.campus_rt_doc(FLOOD_LINK), names, schedule,
                FLOOD_SIZE, list(range(len(names))), None)
    doc, info = inputs.shaped_doc()
    names, schedule, probes = inputs.shaped_inputs(
        seed, WARM + seconds + 1.0, info)
    return doc, names, schedule, inputs.SHAPED_SIZE, probes, info


def probe_burst(handle: ServerHandle, gen: Generator) -> Dict[str, Any]:
    """One datagram per flow before the clock starts.

    An inadmissible hierarchy file starts cleanly and then sheds every
    packet as overload; this catches it (and any unroutable flow name)
    before a single number is taken.  Returns the ``info`` reply after
    the burst -- the zero point of the run's counters.
    """
    before = handle.info()["dataplane"]
    gen.start()
    now = gen.clock()
    for packet in gen._packets:
        gen.sock.send(packet)
    want = len(gen.flows)
    deadline = now + 10.0
    while gen.notices < want and gen.clock() < deadline:
        gen.step(stop_sending=True)
    after = handle.info()
    shed = after["dataplane"]["shed"]
    if shed["overload"] or shed["total"] != before["shed"]["total"]:
        raise CheckFailed(f"probe burst was shed: {shed}")
    if gen.notices != want:
        raise CheckFailed(f"probe burst: {gen.notices}/{want} notices came back")
    del (gen.n_time[:], gen.n_wall[:], gen.n_sim[:], gen.n_enq[:], gen.n_flow[:],
         gen.n_seq[:])
    return after


def drain(handle: ServerHandle, gen: Generator) -> Dict[str, Any]:
    """Stop offering and wait until nothing is in flight: the service's
    socket queue empty, its dataplane idle, every notice read.  Returns
    the ``info`` reply taken after that -- the run's final counters."""
    final: Dict[str, Any] = {}
    for _ in range(100):
        gen.run_until(gen.clock() - gen.t0 + 0.05, stop_sending=True)
        queued = (udp_socket(handle.port) or (0, 0))[0]
        final = handle.info()
        plane = final["dataplane"]
        if not queued and plane["departed"] >= plane["delivered"] and not plane["backlog"]:
            break
    for _ in range(100):
        gen.run_until(gen.clock() - gen.t0 + 0.05, stop_sending=True)
        if not (udp_socket(gen.local_port) or (0, 0))[0]:
            break
    return final


def drive(handle: ServerHandle, names: Sequence[str], schedule: Any, size: int,
          seconds: float, latency_flows: Sequence[int],
          shaped: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """The client half of a wire run: probe, warm up, measure ``seconds``,
    drain, reconcile.  Runs in the benchmark process against a
    subprocess server, or in a forked child against a traced one.

    The window is cut into half-second slices, each fenced by an ``info``
    request; a slice's rate (notices per second) and server CPU per
    datagram its ``received`` counter advanced are scaled to reference
    speed by the spin a :class:`~calib.CoreCalibrator` timed on the
    server's core during that slice, and the median slice is reported.
    ``wire_shaped``'s rate and latency are set by the simulated link's
    pacing, not by the CPU, and stay unscaled.
    """
    res = new_result()
    cpu_bound = shaped is None
    gen = Generator(handle.port, names, size, schedule)
    res["notes"]["so_rcvbuf"] = gen.rcvbuf
    zero = probe_burst(handle, gen)
    drops_zero = (udp_socket(handle.port) or (0, None))[1], gen.drops()

    def fence():
        info, _ = gen.call(handle.control, {"op": "info"})
        return gen.clock() - gen.t0, handle.cpu(), info["result"]

    with CoreCalibrator(core_of(handle.pid)) as calibrator:
        gen.start()
        gen.run_until(WARM)
        fences = [fence()]
        t_a = fences[0][0]
        status_a, steal_a = handle.status(), host_cpu_times()
        for k in range(max(1, round(seconds / SLICE))):
            gen.run_until(t_a + (k + 1) * SLICE)
            fences.append(fence())
        t_b = fences[-1][0]
        status_b, steal_b = handle.status(), host_cpu_times()
        late_frac, cpu_util, sent = gen.late_frac(), gen.cpu_util(), gen.sent
        final = drain(handle, gen)
    profile = calibrator.profile
    a, b = fences[0][2], fences[-1][2]
    plane_a, plane_b = a["dataplane"], b["dataplane"]
    received = plane_b["received"] - plane_a["received"]

    e2e = res["e2e"]
    t0 = gen.t0
    rates, costs, slices = [], [], []
    for (w0, cpu0, i0), (w1, cpu1, i1) in zip(fences, fences[1:]):
        count = bisect_left(gen.n_time, w1) - bisect_left(gen.n_time, w0)
        taken = i1["dataplane"]["received"] - i0["dataplane"]["received"]
        factor = profile.mean_factor(t0 + w0, t0 + w1)
        rates.append(count / (w1 - w0) * (factor if cpu_bound else 1.0))
        if taken:
            costs.append((cpu1 - cpu0) / taken * 1e6 / factor)
        slices.append([count / (w1 - w0), factor])
    e2e["ops_per_s"] = median(rates)
    e2e["cpu_us_per_op"] = median(costs)
    # (observed rate, speed factor) per slice
    res["notes"]["slices"] = [[round(r, 1), round(f, 4)] for r, f in slices]
    wanted = set(latency_flows)
    lo, hi = bisect_left(gen.n_time, t_a), bisect_left(gen.n_time, t_b)
    lat = sorted(
        gen.n_wall[i] * 1e3
        / (profile.factor(t0 + gen.n_time[i]) if cpu_bound else 1.0)
        for i in range(lo, hi) if gen.n_flow[i] in wanted)
    e2e["op_ms_p50"] = percentile(lat, 0.50)
    res["layers"]["loadgen.op_ms_p99"] = percentile(lat, 0.99)
    e2e["peak_rss_mb"] = status_b["peak_rss_mb"]
    res["notes"]["latency_samples"] = len(lat)
    speed, ratio = profile.summary(t0 + t_a, t0 + t_b)

    # The books of the whole run, after the drain, closed to the datagram
    # with the kernel's own drop counts: what the generator sent reached
    # the service or was dropped at its socket (the service was not
    # scheduled, or was offered more than it takes); what the service
    # received it shed and says so, or came back as a decodable notice
    # (or was dropped at the generator's socket the same way).
    plane = final["dataplane"]
    shed_now, shed_zero = plane["shed"], zero["dataplane"]["shed"]
    got = plane["received"] - zero["dataplane"]["received"]
    accepted = got - (shed_now["total"] - shed_zero["total"])
    notice_drops = gen.drops() - drops_zero[1]
    lost = accepted - gen.notices - notice_drops
    counted = (udp_socket(handle.port) or (0, None))[1]
    if counted is not None and drops_zero[0] is not None:
        kernel_dropped = counted - drops_zero[0]
        astray = gen.sent - got - kernel_dropped
        check(res, "sent = received + the kernel's count of drops at the service's socket",
              astray == 0, f"sent {gen.sent}, received {got}, dropped {kernel_dropped}")
    else:
        # No witness: a flood is dropped by design; anything else counts.
        astray = 0 if shaped is None else gen.sent - got
        check(res, "sent = received (this kernel keeps no drop count)",
              astray == 0, f"sent {gen.sent}, received {got}")
    unaccounted = abs(astray) + abs(lost) + gen.decode_errors
    if shaped is None:
        res["attempted"] = max(1, accepted)
        res["failed"] = unaccounted
    check(res, "every notice decodes", gen.decode_errors == 0,
          f"{gen.decode_errors} undecodable")
    check(res, "received = notices + server-reported sheds", lost == 0,
          f"accepted {accepted}, notices {gen.notices}, "
          f"{notice_drops} dropped at the generator's socket")
    violations = (final.get("watchdog") or {}).get("violations", [])
    check(res, "watchdog violations = 0", not violations, str(violations)[:200])
    shed_other = sum(shed_now[k] - shed_zero[k]
                     for k in ("unparseable", "unknown", "overload"))
    check(res, "no datagram shed as garbage/unknown/overload", shed_other == 0,
          str(shed_now))

    layers = res["layers"]
    layers["asyncio_socket.kernel_drop_frac"] = 1.0 - got / sent if sent else 0.0
    layers["asyncio_socket.ctx_switches_per_pkt"] = (
        (status_b["ctx"] - status_a["ctx"]) / max(1, received))
    layers["serve.ingress.shed_buffer_frac"] = (
        (plane_b["shed"]["buffer"] - plane_a["shed"]["buffer"]) / max(1, received))
    layers["serve.ingress.shed_other"] = float(shed_other)
    layers["serve.driver.max_lag_ms"] = b["max_lag"] * 1e3
    layers["sim.engine.events_per_pkt"] = (
        (b["events_processed"] - a["events_processed"]) / max(1, received))
    layers["loadgen.late_frac"] = late_frac
    layers["loadgen.cpu_util"] = cpu_util
    layers["loadgen.fail_frac"] = unaccounted / max(1, accepted)
    total = steal_b[1] - steal_a[1]
    layers["host.steal_frac"] = (steal_b[0] - steal_a[0]) / total if total else 0.0
    layers["host.raw_ops_per_s"] = median([rate for rate, _ in slices])
    layers["host.speed_factor"] = speed
    layers["host.ref_spin_ratio"] = ratio
    layers["host.stall_ms"] = max(
        (e - s for s, e in profile.stalls()), default=0.0) * 1e3
    res["notes"]["window"] = [t_a, t_b]
    res["notes"]["received"] = received
    res["notes"]["fences"] = len(fences)

    if shaped is not None:
        _shaped_checks(res, gen, (t_a, t_b), latency_flows, shaped, unaccounted)
        layers["loadgen.fail_frac"] = res["failed"] / res["attempted"]
    gen.close()
    return res


def _shaped_checks(res: Dict[str, Any], gen: Generator, window: Tuple[float, float],
                   probe_flows: Sequence[int], shaped: Dict[str, Any],
                   unaccounted: int) -> None:
    """Theorem 2 for the real-time leaves, and the hierarchical max-min
    shares.  The operations are the probes; a failed one is a datagram the
    run's books cannot account for (``unaccounted``, see :func:`drive`) or
    a probe that arrived inside its leaf's envelope and still took longer
    than ``dmax + Lmax/R``.

    A probe that did not come back while the books close is not the
    program's loss: when the virtual machine is descheduled for longer
    than the service's socket buffer lasts (~90 ms of this traffic), the
    kernel drops datagrams before the service sees them, counts each one,
    and ``sent = received + dropped`` to the datagram says that is where
    it went.  (A service too slow to drain its socket loses datagrams the
    same way; that shows as ``cpu_us_per_op``, which is bounded.)  The
    real-time leaves' demand is lowered by exactly the probes that went
    missing inside the window before the shares are compared; the 5%
    tolerance stays (under contention that dropped up to 2.4% of a
    run's datagrams the shares still read within 0.3%).

    A stall also hands the scheduler its backlog of probes as one burst,
    and the promise to a burst is the service curve, not a flat delay: the
    repo's exact eq. (1) predicate with one packet of slack covers those.
    """
    from repro.analysis.fairness import hierarchical_max_min
    from repro.analysis.predicates import eq1_violations
    from repro.core.curves import ServiceCurve
    from repro.sim.packet import Packet

    size = gen.size
    flat_bound = inputs.SHAPED_DMAX + size / inputs.SHAPED_LINK
    leaf_of = {f: gen.flows[f].rpartition("#")[0] for f in probe_flows}
    back = {f: set() for f in probe_flows}
    rows = {f: [] for f in probe_flows}  # (arrival, departure) in simulated time
    for i in range(gen.notices):
        flow = gen.n_flow[i]
        if flow in back:
            back[flow].add(gen.n_seq[i])
            rows[flow].append((gen.n_enq[i], gen.n_enq[i] + gen.n_sim[i]))
    arrivals, served, curves = [], [], {}
    sent = late = compressed = 0
    worst = 0.0
    missing = {f: 0 for f in probe_flows}  # inside the window, per flow
    for flow in probe_flows:
        leaf = leaf_of[flow]
        dues = [gen.offsets[r] for r in range(gen.k) if gen.flow_index[r] == flow]
        sent += len(dues)
        missing[flow] = sum(window[0] <= due < window[1]
                            for seq, due in enumerate(dues) if seq not in back[flow])
        # The flat bound is Theorem 2 for arrivals inside the leaf's
        # envelope (one packet, then the curve's long-term rate): probe j
        # conforms iff no earlier probe i arrived less than (j - i)
        # packet-times before it.  A stall of the host compresses the
        # arrivals behind it; those are held to eq. (1) below instead.
        spacing = inputs.SHAPED_PROBE_LOAD / shaped["probes"][leaf]
        ahead = float("-inf")
        for j, (arrived, departed) in enumerate(sorted(rows[flow])):
            arrivals.append((arrived, leaf, float(size)))
            packet = Packet(leaf, size)
            packet.departed = departed
            served.append(packet)
            worst = max(worst, departed - arrived)
            slack = arrived - j * spacing
            if slack < ahead - 1e-9:
                compressed += 1
            elif departed - arrived > flat_bound + 1e-9:
                late += 1
            ahead = max(ahead, slack)
        pps = shaped["probes"][leaf]
        curves[leaf] = ServiceCurve.from_delay(
            inputs.SHAPED_UMAX, inputs.SHAPED_DMAX,
            pps * size / inputs.SHAPED_PROBE_LOAD)
    res["attempted"] = max(1, sent)
    res["failed"] = unaccounted + late
    check(res, "every probe inside its leaf's envelope left within dmax + Lmax/R",
          late == 0, f"{late} late; {compressed} arrived compressed, "
          f"worst sojourn of all {worst * 1e3:.3f} ms")
    short = eq1_violations(arrivals, served, curves, slack=float(size))
    check(res, "real-time leaves got their service curve within Lmax (Theorem 2)",
          not short, f"shortfall {short}")
    res["notes"]["probe_sojourn_max_ms"] = worst * 1e3
    res["notes"]["probes_back"] = [len(served), sent]

    bytes_by_leaf: Dict[str, float] = {}
    lo, hi = bisect_left(gen.n_time, window[0]), bisect_left(gen.n_time, window[1])
    for i in range(lo, hi):
        leaf = gen.flows[gen.n_flow[i]].rpartition("#")[0]
        bytes_by_leaf[leaf] = bytes_by_leaf.get(leaf, 0.0) + size
    demands = dict(shaped["demands"])
    for flow, count in missing.items():
        demands[leaf_of[flow]] -= count * size / (window[1] - window[0])
    expect = hierarchical_max_min(inputs.SHAPED_LINK, shaped["tree"], demands)
    leaves = list(demands)
    total_m = sum(bytes_by_leaf.values()) or 1.0
    total_e = sum(expect[leaf] for leaf in leaves)
    worst_share = max(
        abs((bytes_by_leaf.get(leaf, 0.0) / total_m) / (expect[leaf] / total_e) - 1.0)
        for leaf in leaves)
    check(res, "per-leaf shares within 5% of hierarchical max-min",
          worst_share <= 0.05, f"worst deviation {worst_share:.3f}")
    res["notes"]["share_dev"] = worst_share


# -- timed (untraced) repeat -----------------------------------------------------

SETUPS = 3


def run(name: str, seed: int, seconds: float, quick: bool = False) -> Dict[str, Any]:
    doc, names, schedule, size, lat_flows, shaped = _prepare(name, seed, seconds)
    workdir = make_workdir()
    write_hierarchy(workdir, doc)
    handle, *setups = spawn_timed(workdir, 0 if quick else SETUPS)
    pin(0, "generator")
    try:
        res = drive(handle, names, schedule, size, seconds, lat_flows, shaped)
    finally:
        summary = handle.stop()
        unpin()
    check(res, "server exit summary reports no violations",
          summary is not None and not (summary.get("watchdog") or {}).get("violations"),
          "no summary" if summary is None else "")
    file_setups(res, *setups)
    return res


# -- traced repeat ------------------------------------------------------------------

def _hosted(name: str, seed: int, seconds: float, tracer: Tracer, patches):
    doc, names, schedule, size, lat_flows, shaped = _prepare(name, seed, seconds)
    workdir = make_workdir()
    write_hierarchy(workdir, doc)

    def client(handle: ServerHandle) -> Dict[str, Any]:
        return drive(handle, names, schedule, size, seconds, lat_flows, shaped)

    return host_traced(workdir, tracer, patches, client)


def run_traced(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    """Half the time in-process without spans (the reference for the
    tracing overhead), half with them; per-layer times at reference speed."""
    half = max(1.0, seconds / 2)
    plain = _hosted(name, seed, half, Tracer(), None)
    tracer = Tracer()

    def patches(tr: Tracer) -> None:
        patch_serve_path(tr)
        patch_control_path(tr)

    res = _hosted(name, seed, half, tracer, patches)
    adopt_checks(res, plain, "untraced reference")
    marks = info_marks(tracer)
    # probe_burst asks for ``info`` twice; the window's fences follow.
    (lo, wall_a, cpu_a, pay_a) = marks[2]
    (hi, wall_b, cpu_b, pay_b) = marks[1 + res["notes"]["fences"]]
    packets = max(1, pay_b["received"] - pay_a["received"])
    layers = res["layers"]
    speed = layers["host.speed_factor"]
    for metric, value in layer_budget(tracer, lo, hi, packets, cpu_b - cpu_a).items():
        layers[metric] = value / speed if metric.endswith("_us_per_pkt") else value
    total = sum(v for k, v in layers.items() if k.endswith("_us_per_pkt"))
    layers["trace.us_per_pkt"] = (cpu_b - cpu_a) / packets / 1e3 / speed
    layers["trace.overhead_frac"] = (
        res["e2e"]["cpu_us_per_op"] / plain["e2e"]["cpu_us_per_op"] - 1.0)
    departures = tracer.counts.get("departures", 0)
    layers["core.hfsc.rt_select_frac"] = (
        tracer.counts.get("via_realtime", 0) / departures if departures else 0.0)
    check(res, "spans nest", tracer.nesting_errors() == 0)
    if name == "wire_flood":
        # The asyncio residual is CPU minus spans, so the layers sum to the
        # CPU per packet by construction; what can still fail is that CPU
        # per packet is not the *wall* per packet -- a server that was not
        # saturated, or time hiding outside the process.  Taken per
        # half-second slice like every other figure: the host steals or
        # stalls a fifth of a second now and then, and the median slice
        # does not see it.
        gaps = []
        window = marks[2:2 + res["notes"]["fences"]]
        for (_, w0, c0, p0), (_, w1, c1, p1) in zip(window, window[1:]):
            gaps.append(abs((c1 - c0) - (w1 - w0)) / (w1 - w0))
        wall = (wall_b - wall_a) / packets / 1e3 / speed
        layers["trace.budget_gap_frac"] = median(gaps)
        check(res, INSTRUMENT + "layer self times sum to the traced run's us/pkt (10%)",
              layers["trace.budget_gap_frac"] <= 0.10,
              f"median slice gap {median(gaps):.3f}; whole window: "
              f"sum {total:.2f} vs {wall:.2f} us/pkt")
        # The same service in the pristine `python -m repro serve` process.
        pristine = run(name, seed, half, quick=True)
        adopt_checks(res, pristine, "subprocess reference")
        layers["trace.pristine_penalty_frac"] = (
            pristine["e2e"]["cpu_us_per_op"] / plain["e2e"]["cpu_us_per_op"] - 1.0)
    res["notes"]["tracer"] = tracer
    return res


def idle_cpu_util(seed: int, idle: float = 2.0) -> float:
    """Server CPU share with zero traffic: what the pacing loop costs
    just standing there."""
    import time

    doc, _ = inputs.shaped_doc()
    workdir = make_workdir()
    write_hierarchy(workdir, doc)
    handle, _ = spawn(workdir)
    try:
        time.sleep(0.2)
        cpu0, t0 = handle.cpu(), time.perf_counter()
        time.sleep(idle)
        return (handle.cpu() - cpu0) / (time.perf_counter() - t0)
    finally:
        handle.stop()

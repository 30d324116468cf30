"""``control_churn`` and ``control_persist``: the control plane at work
while the dataplane idles.

``repro serve`` holds a 1024-leaf tree and 500 pkt/s of probe traffic;
a client drives paced cycles of requests over the unix control socket.

* ``control_churn`` -- fifty cycles a second of {add a link-sharing
  class, update it, add a real-time class (admission-checked), remove
  both}, every tenth with one overbooking add that must be rejected:
  ``serve.control`` and ``core.admission`` do the work.
* ``control_persist`` -- the service under test is one *resumed* from a
  snapshot (its set-up time is issue 12's ``resume_s``); ten cycles a
  second of {``stats``, ``classes``, ``snapshot``}: ``persist.*`` does the
  work, and checkpoint stall and restart time are what an operator pays.

Issue 12 had one workload for both.  The driver's contract bounds each
end-to-end metric per workload, and one workload has one ``op_ms_p50``
and one ``setup_s``: apart, a mutation's round trip, a snapshot's, the
read rate and the resume time are each a bounded number.

Cycles are paced so the number of classes ever created and of snapshots
ever taken -- and with them the service's memory -- do not depend on how
fast the host happened to be; ``ops_per_s`` is the closed-loop capacity
(requests over their summed round-trip time, per half-second slice at
reference speed, median slice).  Both end with a snapshot that a fresh
process resumes from, and must report the same class tree.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from typing import Any, Dict, List, Tuple

import inputs
from calib import REF_INLINE_US, CoreCalibrator, core_of, spin_once
from common import (
    adopt_checks, check, file_setups, host_cpu_times, make_workdir, median, new_result, percentile, pin,
    unpin,
)
from loadgen import Generator
from server import ServerHandle, host_traced, spawn, spawn_timed, write_hierarchy
from tracing import (
    Tracer, info_marks, layer_budget, patch_control_path, patch_serve_path,
)
from wl_wire import drain, probe_burst

PROBE_SIZE = 128
CYCLE_PERIOD = {"control_churn": 0.02, "control_persist": 0.1}
WARM = 0.5
SLICE = 0.5
#: The request kinds behind ``op_ms_p50`` and behind ``ops_per_s``.
TIMED = {"control_churn": ("add_class", "update_class", "remove_class"),
         "control_persist": ("snapshot",)}
RATED = {"control_churn": ("add_class", "update_class", "remove_class"),
         "control_persist": ("stats", "classes")}
LEAF_RATE = inputs.CONTROL_LINK / (inputs.CONTROL_GROUPS * inputs.CONTROL_FAN)


def _cycle_requests(name: str, c: int) -> List[Tuple[Dict[str, Any], bool]]:
    """The requests of cycle ``c`` with whether each must succeed."""
    if name == "control_persist":
        return [({"op": "ping"}, True), ({"op": "stats"}, True),
                ({"op": "classes"}, True),
                ({"op": "snapshot", "path": "periodic.snap"}, True)]
    group = f"g{c % inputs.CONTROL_GROUPS}"
    ls, rt = f"churn.ls{c}", f"churn.rt{c}"
    requests: List[Tuple[Dict[str, Any], bool]] = [
        ({"op": "ping"}, True),
        ({"op": "add_class", "name": ls, "parent": group,
          "ls_sc": {"rate": LEAF_RATE}}, True),
        ({"op": "update_class", "name": ls,
          "ls_sc": {"rate": 2 * LEAF_RATE}}, True),
        ({"op": "add_class", "name": rt, "parent": group,
          "rt_sc": {"rate": LEAF_RATE / 4}, "ls_sc": {"rate": LEAF_RATE}}, True),
        ({"op": "remove_class", "name": ls}, True),
        ({"op": "remove_class", "name": rt}, True),
    ]
    if c % 10 == 9:
        requests.append(
            ({"op": "add_class", "name": f"churn.over{c}", "parent": group,
              "rt_sc": {"rate": 2 * inputs.CONTROL_LINK},
              "ls_sc": {"rate": LEAF_RATE}}, False))
    return requests


def _tree(rows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """``classes`` rows without the live queue depth."""
    return sorted(({k: v for k, v in row.items() if k != "queued"}
                   for row in rows), key=lambda row: row["name"])


def drive(handle: ServerHandle, name: str, seed: int, seconds: float) -> Dict[str, Any]:
    """The client half: paced cycles over the control socket with the
    probe traffic kept flowing; ends with a final snapshot."""
    res = new_result()
    names, schedule = inputs.control_inputs(seed)
    gen = Generator(handle.port, names, PROBE_SIZE, schedule)
    zero = probe_burst(handle, gen)
    period = CYCLE_PERIOD[name]
    ops: List[Tuple[str, float, float]] = []  # (op, send time, round trip)
    unexpected: List[str] = []
    with CoreCalibrator(core_of(handle.pid)) as calibrator:
        gen.start()
        gen.run_until(WARM)
        info_a, _ = gen.call(handle.control, {"op": "info"})
        t_a = gen.clock() - gen.t0
        cpu_a, status_a, steal_a = handle.cpu(), handle.status(), host_cpu_times()
        cycle = 0
        while True:
            due = t_a + cycle * period
            if due >= t_a + seconds:
                break
            gen.run_until(due)
            for request, must_succeed in _cycle_requests(name, cycle):
                sent_at = gen.clock() - gen.t0
                reply, rtt = gen.call(handle.control, request)
                op = request["op"]
                ops.append((op, sent_at, rtt))
                ok = bool(reply.get("ok"))
                if ok != must_succeed or (not ok and reply["error"]["type"]
                                          != "ControlError"):
                    unexpected.append(f"cycle {cycle} {op}: {str(reply)[:120]}")
            cycle += 1
        info_b, _ = gen.call(handle.control, {"op": "info"})
        t_b = gen.clock() - gen.t0
        cpu_b, status_b, steal_b = handle.cpu(), handle.status(), host_cpu_times()
        late_frac, cpu_util = gen.late_frac(), gen.cpu_util()
        final = drain(handle, gen)
        classes = handle.result({"op": "classes"})
        handle.result({"op": "snapshot", "path": "final.snap"})
    profile = calibrator.profile

    t0 = gen.t0
    scaled = [(op, rtt / profile.factor(t0 + at)) for op, at, rtt in ops]
    speed, ratio = profile.summary(t0 + t_a, t0 + t_b)
    e2e = res["e2e"]
    layers = res["layers"]
    # Closed-loop capacity per half-second slice: a stall of the host
    # lands in one slice and the median slice does not see it.
    busy: Dict[int, List[float]] = {}
    for (op, at, rtt), (_, rtt_scaled) in zip(ops, scaled):
        if op in RATED[name]:
            row = busy.setdefault(int((at - t_a) / SLICE), [0, 0.0, 0.0])
            row[0] += 1
            row[1] += rtt_scaled
            row[2] += rtt
    e2e["ops_per_s"] = median([n / spent for n, spent, _ in busy.values()])
    layers["host.raw_ops_per_s"] = median([n / raw for n, _, raw in busy.values()])
    res["notes"]["slices"] = [  # (observed rate, speed factor) per slice
        [round(n / raw, 1), round(raw / spent, 4)]
        for _, (n, spent, raw) in sorted(busy.items())]
    e2e["cpu_us_per_op"] = (cpu_b - cpu_a) / len(ops) * 1e6 / speed
    timed = sorted(rtt * 1e3 for op, rtt in scaled if op in TIMED[name])
    e2e["op_ms_p50"] = percentile(timed, 0.50)
    layers["loadgen.op_ms_p99"] = percentile(timed, 0.99)
    e2e["peak_rss_mb"] = status_b["peak_rss_mb"]

    def p50(kinds: Tuple[str, ...]) -> float:
        return percentile(sorted(r * 1e3 for op, r in scaled if op in kinds), 0.5)

    layers["serve.control.socket_rtt_ms"] = p50(("ping",))
    if name == "control_persist":
        layers["serve.control.read_ms_p50"] = p50(RATED[name])
        stalls = []
        for op, at, rtt in ops:
            if op != "snapshot":
                continue
            lo = max(0, bisect_left(gen.n_time, at) - 1)
            hi = min(len(gen.n_time), bisect_left(gen.n_time, at + rtt) + 1)
            times = gen.n_time[lo:hi + 1]
            stalls.append(max((b - a for a, b in zip(times, times[1:])), default=0.0))
        layers["serve.control.snapshot_stall_ms"] = median(stalls) * 1e3
    received = (info_b["result"]["dataplane"]["received"]
                - info_a["result"]["dataplane"]["received"])
    layers["asyncio_socket.ctx_switches_per_pkt"] = (
        (status_b["ctx"] - status_a["ctx"]) / max(1, received))
    layers["serve.driver.max_lag_ms"] = info_b["result"]["max_lag"] * 1e3
    layers["loadgen.late_frac"] = late_frac
    layers["loadgen.cpu_util"] = cpu_util
    total = steal_b[1] - steal_a[1]
    layers["host.steal_frac"] = (steal_b[0] - steal_a[0]) / total if total else 0.0
    layers["host.speed_factor"] = speed
    layers["host.ref_spin_ratio"] = ratio
    layers["host.stall_ms"] = max((e - s for s, e in profile.stalls()),
                                  default=0.0) * 1e3

    plane, plane0 = final["dataplane"], zero["dataplane"]
    accepted = (plane["received"] - plane0["received"]
                - (plane["shed"]["total"] - plane0["shed"]["total"]))
    res["attempted"] = len(ops)
    res["failed"] = len(unexpected)
    layers["loadgen.fail_frac"] = len(unexpected) / len(ops)
    check(res, "every control op had the expected outcome", not unexpected,
          "; ".join(unexpected[:3]))
    if name == "control_churn":
        rejected = sum(1 for op, _, _ in ops if op == "add_class") - 2 * cycle
        check(res, "every overbooking add was rejected",
              rejected == cycle // 10 and not unexpected,
              f"{rejected} of {cycle // 10}")
    check(res, "every notice decodes", gen.decode_errors == 0)
    check(res, "probes: received = notices + server-reported sheds",
          accepted == gen.notices + gen.drops(),
          f"accepted {accepted}, notices {gen.notices}, "
          f"{gen.drops()} dropped at the generator's socket")
    violations = (final.get("watchdog") or {}).get("violations", [])
    check(res, "watchdog violations = 0", not violations, str(violations)[:200])
    check(res, "the tree is the one the hierarchy file described",
          len(classes) == inputs.CONTROL_GROUPS * (inputs.CONTROL_FAN + 1),
          f"{len(classes)} classes")
    res["notes"]["classes"] = _tree(classes)
    res["notes"]["cycles"] = cycle
    res["notes"]["window"] = [t_a, t_b]
    gen.close()
    return res


def resume_check(res: Dict[str, Any], workdir: str) -> None:
    """A fresh process resumes from ``final.snap``; the class tree it
    reports must be the one the old process reported before it stopped."""
    handle, _ = spawn(workdir, ("--resume", "final.snap"))
    try:
        after = _tree(handle.result({"op": "classes"}))
    finally:
        handle.stop()
    res["layers"]["persist.codec.snapshot_bytes"] = float(
        os.path.getsize(os.path.join(workdir, "final.snap")))
    check(res, "classes identical before shutdown and after --resume",
          after == res["notes"].pop("classes"))


SETUPS = 3


def run(name: str, seed: int, seconds: float, quick: bool = False) -> Dict[str, Any]:
    workdir = make_workdir()
    write_hierarchy(workdir, inputs.control_doc())
    extra: Tuple[str, ...] = ()
    if name == "control_persist":
        # The service under test is a resumed one: set-up is a fresh
        # process going from ``--resume`` to its first answered ping.
        first, _ = spawn(workdir)
        try:
            first.result({"op": "snapshot", "path": "seed.snap"})
        finally:
            first.stop()
        extra = ("--resume", "seed.snap")
    handle, *setups = spawn_timed(workdir, 0 if quick else SETUPS, extra)
    pin(0, "generator")
    try:
        res = drive(handle, name, seed, seconds)
    finally:
        summary = handle.stop()
        unpin()
    check(res, "server exit summary reports no violations",
          summary is not None
          and not (summary.get("watchdog") or {}).get("violations"))
    resume_check(res, workdir)
    file_setups(res, *setups)
    return res


# -- traced repeat ------------------------------------------------------------------

DISPATCH_OPS = {"control_churn": ("add_class", "update_class", "remove_class"),
                "control_persist": ("stats", "classes", "snapshot")}


def run_traced(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    from repro.serve.hierarchy import hierarchy_from_file
    from repro.serve.service import ServeService

    half = max(1.0, seconds / 2)
    workdir = make_workdir()
    write_hierarchy(workdir, inputs.control_doc())
    plain = host_traced(workdir, Tracer(), None,
                        lambda handle: drive(handle, name, seed, half))
    tracer = Tracer()

    def patches(tr: Tracer) -> None:
        patch_serve_path(tr)
        patch_control_path(tr)

    res = host_traced(workdir, tracer, patches,
                      lambda handle: drive(handle, name, seed, half))
    marks = info_marks(tracer)
    # probe_burst asks for ``info`` twice, the window is the next pair.
    (lo, _, cpu_a, pay_a), (hi, _, cpu_b, pay_b) = marks[2], marks[3]
    packets = max(1, pay_b["received"] - pay_a["received"])
    layers = res["layers"]
    speed = layers["host.speed_factor"]
    for metric, value in layer_budget(tracer, lo, hi, packets, cpu_b - cpu_a).items():
        layers[metric] = value / speed if metric.endswith("_us_per_pkt") else value
    layers["trace.us_per_pkt"] = (cpu_b - cpu_a) / packets / 1e3 / speed
    for op in DISPATCH_OPS[name]:
        layers[f"serve.control.dispatch_ms.{op}"] = median(
            tracer.durations("serve.control.dispatch", lo, hi, tag=op)) / speed
    layers["trace.overhead_frac"] = (
        res["e2e"]["op_ms_p50"] / plain["e2e"]["op_ms_p50"] - 1.0)
    if name == "control_churn":
        layers["core.admission.check_ms"] = median(
            tracer.durations("core.admission.check", lo, hi)) / speed
    else:
        for span, metric in (
                ("persist.runtime.snapshot_body", "persist.runtime.snapshot_body_ms"),
                ("persist.codec.dumps", "persist.codec.dumps_ms"),
                ("persist.codec.save", "persist.codec.save_ms")):
            layers[metric] = median(tracer.durations(span, lo, hi)) / speed
        # save_ms is write+fsync+rename: the save span without the dumps inside it.
        layers["persist.codec.save_ms"] -= layers["persist.codec.dumps_ms"]
        # Restore in this process with the load/restore spans on.
        patch_control_path(tracer)
        try:
            config = hierarchy_from_file(os.path.join(workdir, "h.json"))
            service = ServeService(config["specs"], config["link_rate"])
            mark = len(tracer.arr)
            before = spin_once()[1]
            service.restore_snapshot(os.path.join(workdir, "final.snap"))
            now_speed = (before + spin_once()[1]) / 2 * 1e6 / REF_INLINE_US
        finally:
            tracer.unpatch()
        layers["persist.codec.load_ms"] = median(
            tracer.durations("persist.codec.load", mark)) / now_speed
        layers["persist.runtime.restore_body_ms"] = median(
            tracer.durations("persist.runtime.restore_body", mark)) / now_speed
    check(res, "spans nest", tracer.nesting_errors() == 0)
    adopt_checks(res, plain, "untraced reference")
    resume_check(res, workdir)
    res["notes"]["tracer"] = tracer
    return res

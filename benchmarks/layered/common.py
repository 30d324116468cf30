"""Shared plumbing of the layered benchmark: the metric contract, order
statistics, the host fingerprint and the /proc readers.

The metric names, units and directions are read from ``BENCHMARK.json``
at the repository root -- the single list the driver, ``run.py`` and the
self-test agree on -- so this package carries no second copy of them.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")
OUT_DIR = os.path.join(HERE, "out")
SPEC_PATH = os.path.join(REPO, "BENCHMARK.json")

WORKLOADS = (
    "wire_flood", "wire_shaped", "pump_inproc",
    "kernel_backlogged", "kernel_telem", "kernel_onoff",
    "control_churn", "control_persist",
)

#: The driver's contract wants one flat list of end-to-end metrics, every
#: one emitted by every workload, so the contract's names are generic
#: (``ops_per_s``: an operation is a packet here, a control request
#: there).  Issue 12 named each number after what it is on its workload;
#: this is that name for every (workload, contract metric) pair that has
#: one, and the reports print it beside the contract name.
ISSUE_NAMES = {
    "wire_flood": {"ops_per_s": "served_pps",
                   "cpu_us_per_op": "server_cpu_us_per_pkt"},
    "wire_shaped": {"cpu_us_per_op": "server_cpu_us_per_pkt",
                    "op_ms_p50": "wall_ms_p50",
                    "loadgen.op_ms_p99": "wall_ms_p99"},
    "pump_inproc": {"ops_per_s": "served_pps",
                    "cpu_us_per_op": "server_cpu_us_per_pkt"},
    "kernel_backlogged": {"ops_per_s": "sched_pps"},
    "kernel_telem": {"ops_per_s": "sched_pps_telem"},
    "kernel_onoff": {"ops_per_s": "sched_pps"},
    "control_churn": {"op_ms_p50": "ctl_mutate_ms_p50"},
    "control_persist": {"setup_s": "resume_s",
                        "op_ms_p50": "snapshot_ms_p50",
                        "serve.control.read_ms_p50": "ctl_read_ms_p50"},
}


class CheckFailed(Exception):
    """A harness precondition failed; the run cannot produce numbers."""


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def metric_units(spec: Dict[str, Any], group: str) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in spec[group]}


# -- order statistics ---------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them; a
    sample of one is its own quartiles."""
    if not values:
        return 0.0, 0.0, 0.0
    if len(values) == 1:
        return float(values[0]), float(values[0]), float(values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values: Sequence[float]) -> float:
    """IQR as a share of the median -- the driver's steadiness measure."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    if not sorted_values:
        return 0.0
    k = min(len(sorted_values) - 1, max(0, int(p * len(sorted_values))))
    return float(sorted_values[k])


# -- host ---------------------------------------------------------------------


def fingerprint() -> Dict[str, Any]:
    """What two result sets must share before their numbers compare."""
    from repro.core import flatstate

    return {
        "cores": len(os.sched_getaffinity(0)),
        "kernel": platform.release(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "compiled": bool(flatstate.COMPILED),
        "REPRO_NO_COMPILED": os.environ.get("REPRO_NO_COMPILED", ""),
    }


_ALL_CORES = sorted(os.sched_getaffinity(0))


def pin(pid: int, role: str) -> None:
    """Server on the last core, generator on the first, when there are two."""
    if len(_ALL_CORES) < 2:
        return
    core = _ALL_CORES[-1] if role == "server" else _ALL_CORES[0]
    try:
        os.sched_setaffinity(pid, {core})
    except OSError:
        pass


def unpin() -> None:
    try:
        os.sched_setaffinity(0, set(_ALL_CORES))
    except OSError:
        pass


_TICK = os.sysconf("SC_CLK_TCK")


def proc_cpu(pid: int) -> float:
    """user+sys CPU seconds of ``pid`` (10 ms ticks)."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def proc_status(pid: int) -> Dict[str, float]:
    """Peak RSS (MB) and context switches of ``pid``."""
    out = {"peak_rss_mb": 0.0, "ctx": 0.0}
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            key, _, rest = line.partition(":")
            if key == "VmHWM":
                out["peak_rss_mb"] = int(rest.split()[0]) / 1024.0
            elif key in ("voluntary_ctxt_switches", "nonvoluntary_ctxt_switches"):
                out["ctx"] += int(rest)
    return out


def host_cpu_times() -> Tuple[float, float]:
    """(steal, total) jiffies of the whole host."""
    with open("/proc/stat") as fh:
        parts = fh.readline().split()[1:]
    values = [float(p) for p in parts]
    steal = values[7] if len(values) > 7 else 0.0
    return steal, sum(values[:8])


def udp_socket(port: int) -> Optional[Tuple[int, int]]:
    """``(bytes queued, datagrams dropped)`` at the receive queue of the
    UDP socket bound to ``port``, as the kernel itself counts them in
    ``/proc/net/udp``; ``None`` where it does not tell.

    A process that is descheduled for longer than its socket buffer lasts
    loses datagrams it never saw.  The ``drops`` column is the one witness
    of that which neither the program nor the benchmark can forge, and it
    is exact, so the books of a wire run close to the datagram with it.
    """
    suffix = f":{port:04X}"
    try:
        with open("/proc/net/udp") as fh:
            if fh.readline().split()[-1] != "drops":
                return None
            for line in fh:
                fields = line.split()
                if fields[1].endswith(suffix):
                    return int(fields[4].split(":")[1], 16), int(fields[-1])
    except (OSError, ValueError, IndexError):
        pass
    return None


# -- scratch space ------------------------------------------------------------

_workdir_seq = 0


def make_workdir() -> str:
    """A fresh directory under ``out/`` -- the benchmark writes nowhere
    else, and socket names inside it are used relative to it, so the
    108-byte ``sun_path`` limit never depends on where the checkout is."""
    global _workdir_seq
    _workdir_seq += 1
    path = os.path.join(OUT_DIR, f"w{os.getpid()}-{_workdir_seq}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def ensure_src_on_path() -> None:
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


# -- result documents -----------------------------------------------------------
#
# A repeat's outcome is a plain dict (it crosses a pipe as JSON in traced
# runs): end-to-end values, per-layer values, named checks, and the
# attempted/failed operation counts the driver's last line reports.


def new_result() -> Dict[str, Any]:
    return {"e2e": {}, "layers": {}, "checks": [], "attempted": 0,
            "failed": 0, "notes": {}}


def file_setups(result: Dict[str, Any], cold: float, warm: List[float],
                observed: List[float]) -> None:
    """What :func:`calib.timed_setups` returned, into a result document."""
    result["e2e"]["setup_s"] = median(warm)
    result["notes"].update(setup_samples=warm, setup_cold_s=cold,
                           setup_observed_s=median(observed))


#: Name prefix of a check on the benchmark's own instrument (the layer
#: budget closing) rather than on the program's outputs.  It needs a
#: host that leaves the traced process its core; the full run and the
#: self-test enforce it, the driver's one-run form reports it.
INSTRUMENT = "instrument: "


def check(result: Dict[str, Any], name: str, ok: bool, detail: str = "") -> bool:
    result["checks"].append([name, bool(ok), detail])
    return bool(ok)


def adopt_checks(result: Dict[str, Any], other: Dict[str, Any], prefix: str) -> None:
    """Carry a reference run's checks into the result that reports them."""
    for name, ok, detail in other["checks"]:
        result["checks"].append([f"{prefix}: {name}", ok, detail])


def failed_checks(result: Dict[str, Any], instrument: bool = True) -> List[str]:
    return [f"{name}: {detail}" if detail else name
            for name, ok, detail in result["checks"]
            if not ok and (instrument or not name.startswith(INSTRUMENT))]

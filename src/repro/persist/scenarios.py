"""Checkpointable reference scenarios.

These are the *setup* halves of the golden-schedule scenarios in
``tests/golden_scenarios.py``: each drive-based setup returns the
``(scheduler, arrivals, until)`` triple that
:func:`repro.sim.drive.drive` (or the resumable
:class:`repro.persist.harness.DriveRun`) consumes, and the event-driven
scenario returns a fully wired :class:`~repro.persist.runtime.RunContext`.
The golden tests import these setups, so the workloads whose digests are
pinned in ``tests/golden/golden_schedules.json`` and the workloads the
crash/resume oracle replays are **the same objects** -- crash-equivalence
is asserted against exactly the schedules the seed implementation pinned.

Living in ``src`` (not ``tests``) keeps the dependency direction clean:
the ``repro run --checkpoint-every/--resume`` CLI runs these scenarios
without importing the test tree.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from repro.core.curves import ServiceCurve
from repro.core.hfsc import HFSC
from repro.persist.runtime import RunContext
from repro.schedulers.drr import DRRScheduler
from repro.schedulers.hls import HLSScheduler
from repro.sim.drive import Arrival
from repro.sim.engine import EventLoop
from repro.sim.link import Link
from repro.sim.sources import CBRSource, PoissonSource
from repro.sim.trace import TraceRecorder
from repro.util.rng import make_rng

lin = ServiceCurve.linear

DriveSetup = Tuple[Any, List[Arrival], float]


def _cbr(arrivals: List[Arrival], cid: Any, rate: float, size: float,
         start: float, stop: float) -> None:
    interval = size / rate
    t = start
    while t < stop:
        arrivals.append((t, cid, size))
        t += interval


def e4_phases_setup() -> DriveSetup:
    """The Fig. 1 CMU / U.Pitt hierarchy through three activity phases."""
    link = 1_250_000.0
    tree = [
        ("cmu", None, 25.0 / 45.0),
        ("pitt", None, 20.0 / 45.0),
        ("cmu.av", "cmu", 12.0 / 45.0),
        ("cmu.data", "cmu", 12.9 / 45.0),
        ("pitt.av", "pitt", 12.2 / 45.0),
        ("pitt.data", "pitt", 7.7 / 45.0),
    ]
    leaves = {"cmu.av", "cmu.data", "pitt.av", "pitt.data"}
    sched = HFSC(link)
    for name, parent, frac in tree:
        curve = lin(frac * link)
        if name in leaves:
            sched.add_class(name, parent=parent or "__root__", sc=curve)
        else:
            sched.add_class(name, parent=parent or "__root__", ls_sc=curve)
    arrivals: List[Arrival] = []
    _cbr(arrivals, "cmu.av", 1.05 * 12.0 / 45.0 * link, 1000.0, 0.0, 3.0)
    _cbr(arrivals, "cmu.av", 1.05 * 25.0 / 45.0 * link, 1000.0, 3.0, 6.0)
    _cbr(arrivals, "cmu.data", 1.05 * 12.9 / 45.0 * link, 1000.0, 0.0, 3.0)
    _cbr(arrivals, "pitt.av", 1.05 * 12.2 / 45.0 * link, 1000.0, 0.0, 6.0)
    _cbr(arrivals, "pitt.av", 1.05 * 12.2 / 20.0 * link, 1000.0, 6.0, 8.0)
    _cbr(arrivals, "pitt.data", 1.05 * 7.7 / 45.0 * link, 1000.0, 0.0, 6.0)
    _cbr(arrivals, "pitt.data", 1.05 * 7.7 / 20.0 * link, 1000.0, 6.0, 8.0)
    return sched, arrivals, 8.0


def e5_decoupling_setup() -> DriveSetup:
    """Audio + video + greedy ftp with concave curves (the E5 workload)."""
    link = 1_250_000.0
    audio_sc = ServiceCurve.from_delay(160.0, 0.005, 8_000.0)
    video_sc = ServiceCurve.from_delay(8_000.0, 0.010, 125_000.0)
    sched = HFSC(link)
    sched.add_class("audio", sc=audio_sc)
    sched.add_class("video", sc=video_sc)
    sched.add_class(
        "ftp",
        rt_sc=lin(link - audio_sc.m1 - video_sc.m1 - 10_000.0),
        ls_sc=lin(link - 8_000.0 - 125_000.0),
    )
    arrivals: List[Arrival] = []
    _cbr(arrivals, "audio", 8_000.0, 160.0, 0.0, 4.0)
    t = 0.0
    while t < 4.0:
        for _ in range(8):
            arrivals.append((t, "video", 1000.0))
        t += 1.0 / 15.0
    arrivals += [(0.0, "ftp", 1500.0)] * int(link * 4.0 / 1500.0)
    return sched, arrivals, 6.0


def ul_caps_setup() -> DriveSetup:
    """Upper-limited classes among plain siblings (non-work-conserving)."""
    link = 100_000.0
    sched = HFSC(link, admission_control=False)
    sched.add_class("agency", ls_sc=lin(0.61 * link))
    sched.add_class("rest", ls_sc=lin(0.39 * link))
    sched.add_class("a.capped", parent="agency", ls_sc=lin(0.31 * link),
                    ul_sc=ServiceCurve(0.22 * link, 0.13, 0.11 * link))
    sched.add_class("a.free", parent="agency", ls_sc=lin(0.29 * link))
    sched.add_class("r.capped", parent="rest", ls_sc=lin(0.23 * link),
                    ul_sc=lin(0.07 * link))
    sched.add_class("r.free", parent="rest", ls_sc=lin(0.17 * link))
    arrivals: List[Arrival] = []
    _cbr(arrivals, "a.capped", 0.41 * link, 500.0, 0.000, 6.0)
    _cbr(arrivals, "a.free", 0.37 * link, 700.0, 0.011, 6.0)
    _cbr(arrivals, "r.capped", 0.29 * link, 300.0, 0.023, 6.0)
    _cbr(arrivals, "r.free", 0.31 * link, 900.0, 0.037, 3.0)
    # A late second burst after everything drains: reactivation paths.
    _cbr(arrivals, "r.free", 0.83 * link, 900.0, 8.0, 9.0)
    _cbr(arrivals, "a.capped", 0.47 * link, 500.0, 8.3, 9.0)
    return sched, arrivals, 14.0


def rt_only_setup() -> DriveSetup:
    """Real-time-only leaves: the scheduler declines while ineligible."""
    link = 10_000.0
    sched = HFSC(link, admission_control=False)
    sched.add_class("slow", rt_sc=ServiceCurve(0.0, 0.07, 1_100.0))
    sched.add_class("fast", rt_sc=ServiceCurve(2_900.0, 0.05, 1_300.0))
    sched.add_class("bulk", sc=lin(3_700.0))
    arrivals: List[Arrival] = []
    _cbr(arrivals, "slow", 1_500.0, 250.0, 0.0, 4.0)
    _cbr(arrivals, "fast", 1_700.0, 410.0, 0.005, 4.0)
    _cbr(arrivals, "bulk", 5_100.0, 730.0, 0.013, 2.0)
    return sched, arrivals, 8.0


def hls_campus_setup() -> DriveSetup:
    """The Fig. 1 campus tree on the HLS round-robin backend.

    The workload replays the e4 phase structure plus a full drain and a
    late re-activation burst, so the crash points land on ring joins,
    rotations and departures alike.
    """
    link = 1_250_000.0
    tree = [
        ("cmu", None, 25.0),
        ("pitt", None, 20.0),
        ("cmu.av", "cmu", 12.0),
        ("cmu.data", "cmu", 12.9),
        ("pitt.av", "pitt", 12.2),
        ("pitt.data", "pitt", 7.7),
    ]
    sched = HLSScheduler(link)
    for name, parent, weight in tree:
        sched.add_class(name, parent=parent or "__root__", rate=weight)
    arrivals: List[Arrival] = []
    _cbr(arrivals, "cmu.av", 1.05 * 12.0 / 45.0 * link, 1000.0, 0.0, 3.0)
    _cbr(arrivals, "cmu.av", 1.05 * 25.0 / 45.0 * link, 1000.0, 3.0, 6.0)
    _cbr(arrivals, "cmu.data", 1.05 * 12.9 / 45.0 * link, 640.0, 0.0, 3.0)
    _cbr(arrivals, "pitt.av", 1.05 * 12.2 / 45.0 * link, 1000.0, 0.0, 6.0)
    _cbr(arrivals, "pitt.data", 1.05 * 7.7 / 45.0 * link, 300.0, 0.0, 6.0)
    # Drain, then a two-leaf reactivation burst: fresh ring joins late in
    # the run, which is where restored rotation state would go wrong.
    _cbr(arrivals, "cmu.data", 0.9 * link, 640.0, 7.0, 7.5)
    _cbr(arrivals, "pitt.av", 0.4 * link, 1000.0, 7.1, 7.6)
    return sched, arrivals, 9.0


def drr_leaves_setup() -> DriveSetup:
    """Skewed-quanta DRR over the e4 leaves (flat).

    Mixed packet sizes against skewed quanta exercise the
    deficit-carrying path (head does not fit, flow yields with balance)
    -- the state the DRR codec must round-trip exactly.
    """
    link = 1_250_000.0
    sched = DRRScheduler(link)
    for flow, quantum in (
        ("cmu.av", 3000.0),
        ("cmu.data", 4500.0),
        ("pitt.av", 1500.0),
        ("pitt.data", 1000.0),
    ):
        sched.add_flow(flow, quantum=quantum)
    arrivals: List[Arrival] = []
    _cbr(arrivals, "cmu.av", 0.45 * link, 1400.0, 0.0, 4.0)
    _cbr(arrivals, "cmu.data", 0.55 * link, 900.0, 0.013, 4.0)
    _cbr(arrivals, "pitt.av", 0.25 * link, 1200.0, 0.007, 4.0)
    _cbr(arrivals, "pitt.data", 0.15 * link, 500.0, 0.019, 4.0)
    # Late single-flow burst after the backlog clears: ring re-entry.
    _cbr(arrivals, "pitt.data", 0.8 * link, 500.0, 6.5, 7.0)
    return sched, arrivals, 8.0


def eventloop_mixed_context() -> Tuple[RunContext, float]:
    """Full event-driven run: EventLoop + Link + stochastic sources.

    Every component that owns pending events or accumulates state is
    registered on the returned context, so the run can be checkpointed
    at any event index and restored into a fresh call of this builder.
    """
    loop = EventLoop()
    link_rate = 50_000.0
    sched = HFSC(link_rate, admission_control=False)
    sched.add_class("voice", sc=ServiceCurve.from_delay(120.0, 0.004, 6_100.0))
    sched.add_class("video", sc=ServiceCurve(23_000.0, 0.017, 11_000.0))
    sched.add_class("data", rt_sc=ServiceCurve(0.0, 0.03, 7_900.0),
                    ls_sc=lin(29_000.0))
    link = Link(loop, sched)
    ctx = RunContext(loop, link)
    ctx.register("recorder", TraceRecorder(link))
    ctx.register("src.voice", CBRSource(
        loop, link, "voice", rate=6_100.0, packet_size=122.0, stop=5.0))
    ctx.register("src.video", PoissonSource(
        loop, link, "video", rate=13_000.0, packet_size=640.0,
        rng=make_rng(42, "video"), stop=5.0))
    ctx.register("src.data", PoissonSource(
        loop, link, "data", rate=31_000.0, packet_size=970.0,
        rng=make_rng(42, "data"), stop=5.0))
    return ctx, 9.0


#: Drive-based checkpointable scenarios (name -> setup).
DRIVE_SETUPS: Dict[str, Callable[[], DriveSetup]] = {
    "e4_phases": e4_phases_setup,
    "e5_decoupling": e5_decoupling_setup,
    "ul_caps": ul_caps_setup,
    "rt_only": rt_only_setup,
    "hls_campus": hls_campus_setup,
    "drr_leaves": drr_leaves_setup,
}

#: Event-driven checkpointable scenarios (name -> context builder).
RUNTIME_SETUPS: Dict[str, Callable[[], Tuple[RunContext, float]]] = {
    "eventloop_mixed": eventloop_mixed_context,
}

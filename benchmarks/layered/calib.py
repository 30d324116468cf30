"""Reference-speed calibration: cancel the host's speed swings.

On the 2-vCPU sandbox each core's effective speed swings by up to 2x
from one quarter second to the next, independently of the other core
(another tenant on the sibling hyper-thread, most likely).  A raw
packets-per-second figure therefore spreads 15-25% between runs of the
same commit, and best-of-N hides that rather than handling it.

What does cancel it: a fixed interpreter-bound *reference spin* timed on
the **same core at the same time** as the work being measured tracks the
work's own slowdown (over ten runs the observed rate follows 1/factor
with a correlation of 0.7-0.98; results/spread.json).  So every
time-based figure the benchmark reports is scaled, window by window, to
*reference speed* -- the speed at which the spin takes its reference
time.  ``ops_per_s`` is then "operations per second on a core running the
reference spin in its reference time", a property of the program rather
than of the minute the run happened in.  The observed, unscaled rate is
reported beside it (``host.raw_ops_per_s``) with the host's state
(``host.speed_factor``, ``host.ref_spin_ratio``), and every run keeps its
(raw rate, speed factor) pairs per window in its notes -- the data the
scaling rests on; ``run.py --spread`` prints the spread with and without.

Two ways to take the samples, each with a reference time of its own
(a spin right after a sleep finds an idle vCPU that wakes slow, and
reads ~25% slower than one between bursts of work), chosen so that the factor reads ~1.0 in
this host's usual state and a scaled figure is what the host usually
shows:

* :class:`CoreCalibrator` -- a forked helper pinned to the core of a
  *subprocess* server: sleeps 4 ms, spins ~0.15 ms, repeats (<4% of the
  core).
* :func:`spin_once` called inline every few bursts by the workloads that
  do their work in the benchmark process itself.
"""

from __future__ import annotations

import json
import os
import signal
import time
from typing import Any, Callable, List, Optional, Sequence, Tuple

from common import median

SPIN_ITERATIONS = 4000
#: The reference speed: one spin in this many microseconds, as the forked
#: helper and as an inline spin read it (medians of results/spread.json).
REF_HELPER_US = 150.0
REF_INLINE_US = 120.0
WINDOW = 0.25


def spin_once() -> Tuple[float, float]:
    """(start time, duration) of one reference spin."""
    clock = time.perf_counter
    t0 = clock()
    acc = 0
    for i in range(SPIN_ITERATIONS):
        acc += i & 7
    return t0, clock() - t0


class SpeedProfile:
    """Windowed median of spin samples -> the host's speed factor over
    time (1.0 = reference speed, 2.0 = twice as slow)."""

    def __init__(self, samples: Sequence[Tuple[float, float]], ref_us: float):
        if not samples:
            raise ValueError("no calibration samples")
        self.start = samples[0][0]
        self._times = [t for t, _ in samples]
        buckets: List[List[float]] = []
        for t, d in samples:
            k = int((t - self.start) / WINDOW)
            while len(buckets) <= k:
                buckets.append([])
            buckets[k].append(d)
        overall = median([d for _, d in samples])
        # A window the helper never ran in (it is a polite sleeper) takes
        # the run's median rather than inventing a speed.
        self.factors = [
            (median(b) if b else overall) * 1e6 / ref_us for b in buckets
        ]

    def _index(self, t: float) -> int:
        k = int((t - self.start) / WINDOW)
        return min(len(self.factors) - 1, max(0, k))

    def factor(self, t: float) -> float:
        return self.factors[self._index(t)]

    def mean_factor(self, t0: float, t1: float) -> float:
        """Mean factor of the windows ``[t0, t1]`` touches."""
        picked = self.factors[self._index(t0):self._index(t1) + 1]
        return sum(picked) / len(picked)

    def stalls(self, longer_than: float = 0.03) -> List[Tuple[float, float]]:
        """Intervals in which no sample was taken for ``longer_than``
        seconds.  The forked helper sleeps 4 ms between spins and shares
        its core with a server that leaves half of it idle, so a gap this
        long means the core itself was not running: a stall of the host,
        seen by a process that shares nothing with the program."""
        times = self._times
        return [(a, b) for a, b in zip(times, times[1:]) if b - a > longer_than]

    def summary(self, t0: float, t1: float) -> Tuple[float, float]:
        """(median factor, slowest/fastest window) within ``[t0, t1]``."""
        picked = self.factors[self._index(t0):self._index(t1) + 1]
        return median(picked), max(picked) / min(picked)


class CoreCalibrator:
    """A forked helper sampling the reference spin on ``core``.

    Used as a context manager: the helper runs for the body of the
    ``with`` block, ``profile`` holds the result after a clean exit, and an
    exception in the body kills the helper instead.
    """

    def __init__(self, core: Optional[int]):
        self.profile: Optional[SpeedProfile] = None
        read_fd, write_fd = os.pipe()
        self._read_fd = read_fd
        self.pid = os.fork()
        if self.pid:
            os.close(write_fd)
            return
        code = 1
        try:
            os.close(read_fd)
            if core is not None:
                os.sched_setaffinity(0, {core})
            samples: List[Tuple[float, float]] = []
            stop: List[bool] = []
            signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            deadline = time.perf_counter() + 120.0  # never outlive a lost parent
            while not stop and time.perf_counter() < deadline:
                time.sleep(0.004)
                samples.append(spin_once())
            with os.fdopen(write_fd, "w") as out:
                json.dump(samples, out)
            code = 0
        finally:
            os._exit(code)

    def __enter__(self) -> "CoreCalibrator":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.profile = self.stop()
        else:
            self.abort()

    def stop(self) -> SpeedProfile:
        os.kill(self.pid, signal.SIGTERM)
        with os.fdopen(self._read_fd) as pipe:
            text = pipe.read()
        os.waitpid(self.pid, 0)
        self.pid = 0
        return SpeedProfile([tuple(s) for s in json.loads(text)], REF_HELPER_US)

    def abort(self) -> None:
        """Kill the helper without reading it (error paths)."""
        if self.pid:
            try:
                os.kill(self.pid, signal.SIGKILL)
                os.waitpid(self.pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
            os.close(self._read_fd)
            self.pid = 0


def core_of(pid: int) -> Optional[int]:
    """The single core ``pid`` is pinned to, if it is pinned to one."""
    try:
        cores = os.sched_getaffinity(pid)
    except OSError:
        return None
    return next(iter(cores)) if len(cores) == 1 else None


class BurstLog:
    """Timed bursts of in-process work, with reference spins interleaved.

    The workloads that run the program inside the benchmark process
    (``pump_inproc``, ``kernel_*``) time each burst from outside, call
    :meth:`tick` between bursts so a spin lands every ``spin_every``
    bursts, and read the same reference-speed figures from
    :meth:`summary` that the wire workloads get from a
    :class:`CoreCalibrator`.
    """

    def __init__(self, spin_every: int = 32):
        from array import array

        self.start = array("d")
        self.wall = array("d")
        self.cpu = array("d")
        self.ops = array("L")
        self.spins: List[Tuple[float, float]] = [spin_once()]
        self._spin_every = spin_every

    def add(self, start: float, wall: float, cpu: float, ops: int) -> None:
        self.start.append(start)
        self.wall.append(wall)
        self.cpu.append(cpu)
        self.ops.append(ops)
        if len(self.ops) % self._spin_every == 0:
            self.spins.append(spin_once())

    def total_ops(self) -> int:
        return sum(self.ops)

    def report_into(self, res: dict) -> dict:
        """File :meth:`summary` under a result document's end-to-end,
        per-layer and notes sections; returns the summary."""
        summary = self.summary()
        for key in ("ops_per_s", "cpu_us_per_op", "op_ms_p50"):
            res["e2e"][key] = summary[key]
        for key in ("loadgen.op_ms_p99", "host.raw_ops_per_s",
                    "host.speed_factor", "host.ref_spin_ratio"):
            res["layers"][key] = summary[key]
        res["notes"]["slices"] = summary["slices"]
        return summary

    def summary(self) -> dict:
        """Median 0.25 s window of rate and CPU per op, and the burst
        time percentiles -- all at reference speed."""
        profile = SpeedProfile(self.spins, REF_INLINE_US)
        windows: dict = {}
        times = []
        for t0, wall, cpu, ops in zip(self.start, self.wall, self.cpu, self.ops):
            row = windows.setdefault(int((t0 - profile.start) / WINDOW),
                                     [0.0, 0.0, 0])
            row[0] += wall
            row[1] += cpu
            row[2] += ops
            times.append(wall * 1e3 / profile.factor(t0))
        rates, costs, slices = [], [], []
        for k, (wall, cpu, ops) in sorted(windows.items()):
            factor = profile.factors[min(len(profile.factors) - 1, max(0, k))]
            rates.append(ops / wall * factor)
            costs.append(cpu / ops * 1e6 / factor)
            slices.append([ops / wall, factor])
        times.sort()
        speed, ratio = profile.summary(self.start[0], self.start[-1])
        total_wall = sum(self.wall)
        return {
            "ops_per_s": median(rates),
            "cpu_us_per_op": median(costs),
            "op_ms_p50": times[len(times) // 2],
            "loadgen.op_ms_p99": times[min(len(times) - 1, int(0.99 * len(times)))],
            "host.raw_ops_per_s": median([rate for rate, _ in slices]),
            "raw_us_per_op": total_wall / self.total_ops() * 1e6,
            "host.speed_factor": speed,
            "host.ref_spin_ratio": ratio,
            # (observed rate, speed factor) per window
            "slices": [[round(r, 1), round(f, 4)] for r, f in slices],
        }


def timed_setups(core: Optional[int], samples: int, fn: Callable[[], Any],
                 release: Optional[Callable[[Any], None]] = None
                 ) -> Tuple[Any, float, List[float], List[float]]:
    """Set up ``1 + samples`` times; returns the last set-up's result, the
    first one's seconds and the others' at reference speed, and the
    others' as observed.  With no samples (``--quick``) the first stands
    in for the others.

    The first set-up of a run is cold (page cache, ``.pyc`` files, lazy
    imports) and is reported apart, never in ``setup_s``: that is the
    median of the warm ones, so it means the same however many there are.
    ``release`` disposes of every result but the last before the next
    set-up starts (one server, one scheduler alive at a time).

    A :class:`CoreCalibrator` runs on ``core`` -- where the set-up's work
    runs -- meanwhile, and each duration is divided by the core's speed
    factor while it ran: a spawned interpreter's start-up and an
    in-process build are both CPU work, and unscaled their ten-run
    medians drift up to 20% apart (results/spread.json keeps both).
    """
    steps: List[Tuple[float, float]] = []
    result = None
    with CoreCalibrator(core) as calibrator:
        for _ in range(1 + samples):
            if result is not None and release is not None:
                release(result)
            result = None
            t0 = time.perf_counter()
            result = fn()
            steps.append((t0, time.perf_counter()))
    profile = calibrator.profile
    raw = [t1 - t0 for t0, t1 in steps]
    scaled = [(t1 - t0) / profile.mean_factor(t0, t1) for t0, t1 in steps]
    return result, scaled[0], scaled[1:] or scaled, raw[1:] or raw

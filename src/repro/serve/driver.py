"""Pace an :class:`~repro.sim.engine.EventLoop` against the wall clock.

The simulator runs events as fast as Python allows; a *service* must run
them when the real world reaches their timestamps.  :class:`RealTimeDriver`
is the bridge: it maps simulated seconds onto monotonic-clock seconds with
a configurable ``time_scale`` and releases events only once the wall clock
has caught up to them.

``time_scale`` is **wall seconds per simulated second**:

* ``1.0`` -- real time (the serving default);
* ``0.5`` -- simulated time runs twice as fast as the wall clock (soak a
  day of traffic in half a day);
* ``0.0`` -- hybrid mode: no pacing at all.  ``run()`` then delegates to
  ``EventLoop.run`` verbatim, so a hybrid-mode run is *byte-identical* to
  the event-driven :class:`~repro.sim.link.Link` -- the golden-schedule
  digests of ``tests/golden_scenarios.py`` are pinned for both and
  ``tests/test_serve_driver.py`` asserts they match.

Pacing never changes the schedule either: the paced loop runs the event
queue in chunks ``loop.run(until=t_next)``, and chunked runs are
digest-equivalent to one big run (events fire at their own timestamps in
(time, seq) order either way; the busy-serve inline drain falls back to
ordinary heap events at chunk boundaries, which PR 1's golden suite proved
byte-identical).  The wall clock only decides *when* a chunk runs.

The driver is synchronous-first (``run``) for tests and trace replay, with
an asyncio pacing task (``serve``) for the long-lived service: ingress and
control-plane callbacks inject events with :meth:`call_soon`, which wakes
the pacing task so a new arrival is never stuck behind a long idle sleep.
Arrivals are fed in bursts: the dataplane coalesces every datagram
accepted between two event-loop turns into one delivery event
(:meth:`repro.serve.ingress.Dataplane._deliver_burst`), so ``call_soon``
and the scheduler's batched enqueue are paid once per burst, not once per
packet -- the amortization that lets the serve smoke hold 50k pkt/s.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, Optional

from repro.core.errors import ConfigurationError
from repro.sim.engine import Event, EventLoop

_INF = float("inf")


class RealTimeDriver:
    """Run an event loop's schedule at wall-clock pace.

    Parameters
    ----------
    loop:
        The simulation event loop to pace.  The driver never touches the
        scheduler or link directly -- the same ``Scheduler`` API runs
        underneath, exactly as in the simulator.
    time_scale:
        Wall seconds per simulated second (``0`` = as fast as possible).
    clock, sleep:
        Injectable monotonic clock and blocking sleep, so tests can pace
        against a fake clock deterministically.  ``sleep`` is only used
        by the synchronous :meth:`run`; :meth:`serve` awaits instead.
    """

    def __init__(
        self,
        loop: EventLoop,
        time_scale: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if time_scale < 0:
            raise ConfigurationError("time_scale must be non-negative")
        self.loop = loop
        self.time_scale = float(time_scale)
        self.clock = clock
        self.sleep = sleep
        self._wall0: Optional[float] = None
        self._sim0 = 0.0
        self._wake: Optional[asyncio.Event] = None
        self._stopping = False
        #: Wall-clock lag high-water mark: how far (in wall seconds) event
        #: processing has fallen behind its deadline.  A persistently
        #: growing value means the host cannot keep up with the offered
        #: load at this time scale.
        self.max_lag = 0.0

    # -- clock mapping ------------------------------------------------------

    def start(self) -> None:
        """Anchor simulated ``loop.now`` to the current wall clock."""
        if self._wall0 is None:
            self._wall0 = self.clock()
            self._sim0 = self.loop.now

    @property
    def started(self) -> bool:
        return self._wall0 is not None

    def sim_now(self) -> float:
        """The simulated time the wall clock has reached (>= ``loop.now``)."""
        if self.time_scale <= 0.0 or self._wall0 is None:
            return self.loop.now
        mapped = self._sim0 + (self.clock() - self._wall0) / self.time_scale
        return mapped if mapped > self.loop.now else self.loop.now

    def wall_deadline(self, sim_time: float) -> float:
        """The wall-clock instant at which ``sim_time`` is due."""
        if self._wall0 is None:
            raise ConfigurationError("driver not started")
        return self._wall0 + (sim_time - self._sim0) * self.time_scale

    # -- event injection (ingress / control plane) ---------------------------

    def call_soon(self, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at the current wall-mapped simulated time.

        This is how the outside world enters the deterministic event
        order: arrivals and control operations become ordinary loop
        events stamped with the simulated time their wall-clock moment
        maps to.  Wakes a pending :meth:`serve` sleep.
        """
        event = self.loop.schedule(self.sim_now(), fn, *args)
        if self._wake is not None:
            self._wake.set()
        return event

    def run_due(self) -> float:
        """Process everything the wall clock has already released.

        Control-plane mutations call this first so they apply at a
        consistent ``loop.now`` (never amid a backlog of past events).
        Returns the advanced ``loop.now``.
        """
        self.loop.run(until=self.sim_now())
        return self.loop.now

    # -- synchronous pacing (tests, trace replay, repro run --realtime) ------

    def run(self, until: Optional[float] = None) -> bool:
        """Drain the schedule up to simulated ``until`` at wall pace.

        With ``time_scale == 0`` this *is* ``EventLoop.run(until=until)``
        -- same code path, same digests.  Otherwise each pending event is
        released when the wall clock reaches its deadline; processing
        that falls behind is run immediately (and :attr:`max_lag`
        records by how much).
        """
        loop = self.loop
        if self.time_scale <= 0.0:
            return loop.run(until=until)
        self.start()
        while True:
            t_next = loop.peek_time()
            if t_next is None or (until is not None and t_next > until):
                break
            self._sleep_until(t_next)
            loop.run(until=t_next)
        if until is not None and until > loop.now:
            self._sleep_until(until)
            loop.run(until=until)
        return True

    def _sleep_until(self, sim_time: float) -> None:
        lag = self.clock() - self.wall_deadline(sim_time)
        if lag > 0.0:
            if lag > self.max_lag:
                self.max_lag = lag
            return
        self.sleep(-lag)

    # -- asyncio pacing (the long-lived service) -----------------------------

    def stop(self) -> None:
        """Ask a running :meth:`serve` task to exit at the next wake-up."""
        self._stopping = True
        if self._wake is not None:
            self._wake.set()

    async def serve(
        self,
        until: Optional[float] = None,
        idle_poll: float = 0.25,
    ) -> None:
        """Pace the loop forever (or to simulated ``until``) under asyncio.

        Between chunks the task sleeps until the next event's wall
        deadline -- or until :meth:`call_soon` / :meth:`stop` wakes it.
        ``idle_poll`` bounds the sleep when the queue is empty so an
        otherwise-idle service still notices ``until`` and shutdown
        promptly even without traffic.

        In hybrid mode (``time_scale == 0``) a bounded ``until`` is
        required -- with periodic tasks armed, an unpaced unbounded drain
        would run forever -- and the whole horizon is drained in one
        as-fast-as-possible chunk: simulated time runs ahead of the wall
        clock, which is what trace replays and soak smokes want.
        """
        self.start()
        self._stopping = False
        self._wake = asyncio.Event()
        aio = asyncio.get_running_loop()
        loop = self.loop
        try:
            while not self._stopping:
                self._wake.clear()
                if self.time_scale <= 0.0:
                    if until is None:
                        raise ConfigurationError(
                            "time_scale=0 serving needs a bounded 'until' "
                            "(an unpaced unbounded drain never returns)"
                        )
                    loop.run(until=until)
                    return
                else:
                    target = self.sim_now()
                    if until is not None and target > until:
                        target = until
                    loop.run(until=target)
                    if until is not None and loop.now >= until:
                        return
                    t_next = loop.peek_time()
                    if t_next is None:
                        timeout = idle_poll
                    else:
                        if until is not None and t_next > until:
                            t_next = until
                        timeout = self.wall_deadline(t_next) - self.clock()
                        lag = -timeout
                        if lag > self.max_lag:
                            self.max_lag = lag
                        if timeout < 0.0:
                            timeout = 0.0
                        elif timeout > idle_poll and until is None:
                            # Stay loosely responsive even if a wake is
                            # lost to a race we have not imagined.
                            timeout = max(idle_poll, timeout / 2.0)
                if timeout > 0.0 and not self._wake.is_set():
                    # One timer handle, no Task per turn (wait_for made
                    # one): the wake or the deadline, whichever is first.
                    timer = aio.call_later(timeout, self._wake.set)
                    try:
                        await self._wake.wait()
                    finally:
                        timer.cancel()
                # Yield at least once per iteration so a zero timeout
                # cannot starve ingress callbacks on the asyncio loop.
                await asyncio.sleep(0)
        finally:
            self._wake = None

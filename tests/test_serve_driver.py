"""RealTimeDriver: hybrid-mode digest identity and paced-mode pacing.

The serving subsystem's correctness story rests on one claim: pacing the
event loop against a wall clock never changes *what* is scheduled, only
*when* the host processes it.  These tests pin that claim to the golden
schedules: every golden scenario replayed through
``RealTimeDriver(time_scale=0)`` (hybrid mode) and through a fake-clock
paced driver must reproduce the exact digests
``tests/golden_scenarios.py`` pins for the event-driven simulator, under
each stored entry.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.errors import ConfigurationError
from repro.persist.scenarios import DRIVE_SETUPS, eventloop_mixed_context
from repro.serve.driver import RealTimeDriver
from repro.sim.engine import EventLoop
from repro.sim.link import Link
from repro.sim.packet import Packet

from tests.golden_scenarios import PINNED_SETS, load_golden, schedule_digest

GOLDEN = load_golden()


class FakeClock:
    """A monotonic clock the test advances by 'sleeping'."""

    def __init__(self):
        self.t = 100.0  # arbitrary non-zero origin

    def __call__(self) -> float:
        return self.t

    def sleep(self, dt: float) -> None:
        assert dt >= 0.0
        self.t += dt


def _run_drive_scenario(setup, make_driver):
    """One golden drive-setup scenario through a Link under a driver.

    Same-instant arrivals go through ``offer_batch`` so an idle link picks
    among the whole batch, matching ``drive``'s simultaneous-arrival
    semantics (and hence the pinned digests).
    """
    sched, arrivals, until = setup()
    loop = EventLoop()
    link = Link(loop, sched)
    rows = []
    link.add_listener(
        lambda p, now: rows.append((p.class_id, p.size, p.departed, p.via_realtime))
    )
    batches = {}
    for time, class_id, size in sorted(arrivals, key=lambda a: a[0]):
        batches.setdefault(time, []).append(
            Packet(class_id, size, created=time)
        )
    for time, batch in batches.items():
        loop.schedule(time, link.offer_batch, batch)
    driver = make_driver(loop)
    driver.run(until=until)
    # ``drive`` includes the packet whose transmission *starts* before
    # ``until`` even though it departs after; fire that one completion.
    if link.busy and link._tx_event is not None:
        driver.run(until=link._tx_event[0])
    return rows


@pytest.mark.parametrize("pinned", PINNED_SETS)
@pytest.mark.parametrize("name", sorted(DRIVE_SETUPS))
def test_hybrid_mode_reproduces_golden_digests(name, pinned):
    """time_scale=0 is byte-identical to the event-driven simulator."""
    rows = _run_drive_scenario(
        DRIVE_SETUPS[name],
        lambda loop: RealTimeDriver(loop, time_scale=0.0),
    )
    assert schedule_digest(rows) == GOLDEN[name][pinned]


@pytest.mark.parametrize("pinned", PINNED_SETS)
def test_hybrid_mode_eventloop_mixed_digest(pinned):
    ctx, until = eventloop_mixed_context()
    RealTimeDriver(ctx.loop, time_scale=0.0).run(until=until)
    rows = [
        (r.class_id, r.size, r.departed, r.via_realtime)
        for r in ctx.component("recorder").records
    ]
    assert schedule_digest(rows) == GOLDEN["eventloop_mixed"][pinned]


@pytest.mark.parametrize("pinned", PINNED_SETS)
@pytest.mark.parametrize("name", sorted(DRIVE_SETUPS))
def test_paced_mode_reproduces_golden_digests(name, pinned):
    """Pacing (fake wall clock, time_scale=1) never changes the schedule."""
    clock = FakeClock()
    rows = _run_drive_scenario(
        DRIVE_SETUPS[name],
        lambda loop: RealTimeDriver(
            loop, time_scale=1.0, clock=clock, sleep=clock.sleep
        ),
    )
    assert schedule_digest(rows) == GOLDEN[name][pinned]


def test_paced_clock_mapping_and_lag():
    clock = FakeClock()
    loop = EventLoop()
    driver = RealTimeDriver(loop, time_scale=2.0, clock=clock, sleep=clock.sleep)
    fired = []
    loop.schedule(1.0, fired.append, "a")
    loop.schedule(3.0, fired.append, "b")
    driver.run(until=3.0)
    assert fired == ["a", "b"]
    # 3 simulated seconds at 2 wall seconds each from the t=100 anchor.
    assert clock.t == pytest.approx(106.0)
    assert driver.max_lag == 0.0
    assert driver.sim_now() == pytest.approx(3.0)


def test_paced_lag_is_recorded_when_behind():
    clock = FakeClock()
    loop = EventLoop()
    driver = RealTimeDriver(loop, time_scale=1.0, clock=clock, sleep=clock.sleep)
    driver.start()
    clock.t += 5.0  # the wall clock runs ahead: event at t=1 is 4s late
    loop.schedule(1.0, lambda: None)
    driver.run(until=1.0)
    assert driver.max_lag == pytest.approx(4.0)


def test_call_soon_stamps_wall_mapped_time():
    clock = FakeClock()
    loop = EventLoop()
    driver = RealTimeDriver(loop, time_scale=1.0, clock=clock, sleep=clock.sleep)
    driver.start()
    clock.t += 2.5
    seen = []
    driver.call_soon(lambda: seen.append(loop.now))
    assert driver.run_due() == pytest.approx(2.5)
    assert seen == [pytest.approx(2.5)]


def test_negative_time_scale_rejected():
    with pytest.raises(ConfigurationError):
        RealTimeDriver(EventLoop(), time_scale=-1.0)


def test_serve_hybrid_requires_bounded_until():
    loop = EventLoop()
    driver = RealTimeDriver(loop, time_scale=0.0)

    async def scenario():
        with pytest.raises(ConfigurationError):
            await driver.serve(until=None)

    asyncio.run(scenario())


def test_serve_paced_drains_until_horizon():
    # Real clock, compressed 100x: 2 simulated seconds ~ 20ms wall.
    loop = EventLoop()
    driver = RealTimeDriver(loop, time_scale=0.01)
    fired = []
    loop.schedule(0.5, fired.append, 1)
    loop.schedule(1.5, fired.append, 2)

    async def scenario():
        await driver.serve(until=2.0, idle_poll=0.001)

    asyncio.run(scenario())
    assert fired == [1, 2]
    assert loop.now == pytest.approx(2.0)


def test_serve_stop_wakes_and_exits():
    loop = EventLoop()
    driver = RealTimeDriver(loop, time_scale=1.0)
    loop.schedule(3600.0, lambda: None)  # far in the future

    async def scenario():
        task = asyncio.ensure_future(driver.serve(until=None))
        await asyncio.sleep(0.05)
        driver.stop()
        await asyncio.wait_for(task, timeout=2.0)

    asyncio.run(scenario())
    assert loop.peek_time() == pytest.approx(3600.0)  # never ran

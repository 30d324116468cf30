"""Golden-trace equivalence: the hot path must not change schedules.

Complements ``tests/test_golden_schedules.py`` (tiny hand-verified
orderings) with full-scenario digests: the values in
``tests/golden/golden_schedules.json`` were produced by the seed
implementation, before the tuple event loop, the link busy-serve fast path
and the heap-order link-sharing descent landed.  Every scenario is replayed
and checked against each stored entry (the retired tree and calendar
request sets and the live heap set pinned the same schedule); a digest
mismatch means the packet ordering or a departure timestamp changed --
i.e. an "optimization" altered scheduling semantics.  See
``tests/golden_scenarios.py`` for the scenario definitions and how to
regenerate the file when a schedule change is *intended*.
"""

import pytest

from tests.golden_scenarios import (
    PINNED_SETS,
    SCENARIOS,
    load_golden,
    schedule_digest,
)


@pytest.fixture(scope="module")
def golden():
    return load_golden()


@pytest.fixture(scope="module")
def replayed():
    """Scenario name -> digest of one replay (shared by the entries)."""
    digests = {}

    def replay(name):
        if name not in digests:
            rows = SCENARIOS[name]()
            assert rows, f"scenario {name!r} produced no departures"
            digests[name] = schedule_digest(rows)
        return digests[name]

    return replay


@pytest.mark.parametrize("pinned", PINNED_SETS)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_schedule_matches_seed(golden, replayed, name, pinned):
    """Byte-identical replay: digest equals the seed implementation's."""
    assert replayed(name) == golden[name][pinned], (
        f"schedule for {name!r} diverged from the one the {pinned} set "
        "pinned -- the hot path changed packet ordering or departure "
        "timestamps"
    )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_backends_agree(golden, name):
    """Every stored entry pins the *same* schedule per scenario: the
    retired tree and calendar sets scheduled exactly as the heap does."""
    assert golden[name]["tree"] == golden[name]["calendar"] == \
        golden[name]["heap"]


@pytest.mark.parametrize("pinned", PINNED_SETS)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_schedule_matches_seed_batching_off(golden, name, pinned, monkeypatch):
    """The batch entry points are pure amortizations, not semantics.

    Forcing every batched call through the per-packet base-class loops
    replays the exact pinned schedules -- so batching on vs off cannot
    change a digest anywhere in the suite.
    """
    from repro.core.hfsc import HFSC
    from repro.schedulers.base import Scheduler

    monkeypatch.setattr(HFSC, "enqueue_batch", Scheduler.enqueue_batch)
    monkeypatch.setattr(HFSC, "dequeue_batch", Scheduler.dequeue_batch)
    rows = SCENARIOS[name]()
    assert schedule_digest(rows) == golden[name][pinned], (
        f"schedule for {name!r} changed when the batched entry points "
        "were disabled"
    )

"""Telemetry core primitives and the zero-cost-when-off contract.

Covers the instrumentation building blocks (counters, gauges, log-linear
histograms, the flight recorder), the tap methods of the
:class:`~repro.obs.core.Telemetry` hub, the :class:`P2Quantile`
streaming estimator, and the ``ClassStats`` empty-class sentinel
normalization (satellites of the telemetry PR).
"""

import json
import math
import random

import pytest

from repro.obs.core import (
    EVENT_KINDS,
    TELEMETRY,
    ClassTelemetry,
    Counter,
    FlightRecorder,
    Gauge,
    LogLinearHistogram,
    Telemetry,
    telemetry_session,
)
from repro.sim.stats import ClassStats, StatsCollector
from repro.util.quantile import P2Quantile


@pytest.fixture(autouse=True)
def _telemetry_off():
    """Tests must not leak an enabled global hub into other tests."""
    yield
    TELEMETRY.disable()
    TELEMETRY.reset()


# -- primitives --------------------------------------------------------------


def test_counter_and_gauge():
    c = Counter()
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    g = Gauge()
    g.set(7.0)
    g.set(2.0)
    assert g.value == 2.0


def test_histogram_empty():
    h = LogLinearHistogram()
    assert h.count == 0
    assert h.quantile(0.99) == 0.0
    assert h.mean == 0.0
    assert h.nonzero_buckets() == []


def test_histogram_quantiles_are_conservative():
    """Estimates never under-report: quantile(q) >= exact q-th value."""
    rng = random.Random(3)
    values = [rng.expovariate(100.0) + 1e-5 for _ in range(5000)]
    h = LogLinearHistogram()
    for v in values:
        h.record(v)
    ordered = sorted(values)
    for q in (0.5, 0.9, 0.99):
        exact = ordered[int(q * len(ordered)) - 1]
        estimate = h.quantile(q)
        assert estimate >= exact * (1.0 - 1e-12)
        # ...and within one subbucket's relative precision (~1/16 per
        # octave edge, double it for safety).
        assert estimate <= exact * (1.0 + 2.0 / h.subbuckets) + 1e-12
    assert h.quantile(1.0) == max(values)
    assert h.min == min(values)
    assert h.max == max(values)
    assert h.mean == pytest.approx(sum(values) / len(values))


def test_histogram_below_min_value_and_saturation():
    h = LogLinearHistogram(min_value=1e-6, octaves=4, subbuckets=4)
    h.record(0.0)          # below min_value -> first bucket
    h.record(1e9)          # far beyond the range -> last bucket
    assert h.count == 2
    assert h.counts[0] == 1
    assert h.counts[-1] == 1


def test_histogram_buckets_allocated_on_first_record():
    # Two histograms per class: a large tree must not pay for the
    # buckets of classes that were never served.
    entry = ClassTelemetry("c")
    for h in (entry.delay_hist, entry.slack_hist):
        assert h.counts is None
        assert h.quantile(0.5) == 0.0
        assert h.quantile(1.0) == 0.0
        assert h.nonzero_buckets() == []
        assert h.mean == 0.0
    entry.delay_hist.record(0.25)
    assert len(entry.delay_hist.counts) == 48 * 16
    assert entry.delay_hist.quantile(1.0) == 0.25
    assert entry.slack_hist.counts is None


def test_hfsc_serve_tap_without_packet_records():
    telem = Telemetry()
    telem.enabled = True
    telem.record_packets = False
    telem.on_hfsc_serve("c", 100.0, 1.0, True, 1.5)
    entry = telem.per_class["c"]
    assert entry.rt_packets == 1 and entry.deadlines_set == 1
    assert entry.slack_hist.quantile(1.0) == 0.5
    assert len(telem.recorder) == 0
    telem.record_packets = True
    telem.on_hfsc_serve("c", 100.0, 2.0, True, 2.25)
    assert telem.recorder.to_dicts()[-1] == {
        "time": 2.0, "kind": "dequeue", "class_id": "c", "size": 100.0,
        "realtime": True, "deadline": 2.25, "slack": 0.25,
    }


def test_flight_recorder_ring_eviction():
    r = FlightRecorder(capacity=4)
    for i in range(10):
        r.record(float(i), "enqueue", "c", {"i": i})
    assert len(r) == 4
    assert r.recorded == 10
    assert r.dropped == 6
    assert [e[0] for e in r.tail()] == [6.0, 7.0, 8.0, 9.0]
    assert [e[0] for e in r.tail(2)] == [8.0, 9.0]
    dicts = r.to_dicts(2)
    assert dicts[-1] == {"time": 9.0, "kind": "enqueue", "class_id": "c", "i": 9}
    r.clear()
    assert len(r) == 0 and r.recorded == 0


def test_flight_recorder_rejects_bad_capacity():
    with pytest.raises(ValueError):
        FlightRecorder(capacity=0)


# -- the hub -----------------------------------------------------------------


def test_disabled_hub_records_nothing():
    hub = Telemetry()
    assert not hub.enabled
    # Tap sites guard themselves; simulate the guard here.
    if hub.enabled:  # pragma: no cover
        hub.on_enqueue("c", 100.0, 0.0)
    assert hub.per_class == {}
    assert len(hub.recorder) == 0


def test_tap_methods_accumulate():
    hub = Telemetry()
    hub.enable()
    hub.on_enqueue("c", 100.0, 0.0)
    hub.on_dequeue("c", 100.0, 0.1)
    hub.on_hfsc_serve("c", 100.0, 0.1, True, 0.3)
    hub.on_depart("c", 100.0, 0.2, 0.2, 0.3)
    entry = hub.cls("c")
    assert entry.enqueued_packets == 1
    assert entry.dequeued_bytes == 100.0
    assert entry.rt_packets == 1 and entry.ls_packets == 0
    assert entry.deadlines_set == 1
    assert entry.deadline_misses == 0
    assert entry.delay_hist.count == 1
    assert entry.slack_hist.count == 1
    kinds = [e[1] for e in hub.recorder.tail()]
    assert kinds == ["enqueue", "dequeue", "depart"]


def test_deadline_miss_tracked():
    hub = Telemetry()
    hub.enable()
    hub.on_depart("c", 100.0, now=1.0, delay=0.5, deadline=0.8)
    entry = hub.cls("c")
    assert entry.deadline_misses == 1
    assert entry.worst_deadline_miss == pytest.approx(0.2)
    assert hub.counters["deadline_misses"].value == 1
    assert hub.recorder.tail()[-1][1] == "deadline-miss"


def test_drop_reasons_split_rejections():
    hub = Telemetry()
    hub.enable()
    hub.on_drop("c", 0.0, "loss")
    hub.on_drop("c", 0.0, "overload")
    entry = hub.cls("c")
    assert entry.dropped_packets == 1
    assert entry.rejected_packets == 1
    assert hub.counters["drops"].value == 2


def test_structural_taps_and_event_kinds():
    hub = Telemetry()
    hub.enable()
    hub.on_rate_change(0.5, 0.0, 1000.0)
    hub.on_overload(0.6, "scale-rt", {"factor": 0.5})
    hub.on_reconfig(None, "add-class", "c")
    hub.on_violation(0.7, "guarantee", "shortfall", "c", 12.0)
    hub.on_run_boundary(1.0, "end", 42)
    assert hub.counters["outages"].value == 1
    assert hub.counters["rate_changes"].value == 1
    assert hub.counters["overload_events"].value == 1
    assert hub.counters["reconfigurations"].value == 1
    assert hub.counters["violations"].value == 1
    for _, kind, _, _ in hub.recorder.tail():
        assert kind in EVENT_KINDS


def test_record_packets_off_keeps_counters():
    hub = Telemetry()
    hub.enable()
    hub.record_packets = False
    hub.on_enqueue("c", 100.0, 0.0)
    hub.on_depart("c", 100.0, 0.1, 0.1, None)
    assert hub.cls("c").enqueued_packets == 1
    assert hub.cls("c").departed_packets == 1
    assert len(hub.recorder) == 0  # no per-packet ring events


def test_telemetry_session_restores_flags():
    TELEMETRY.disable()
    with telemetry_session(record_packets=False, capacity=16) as hub:
        assert hub is TELEMETRY
        assert hub.enabled
        assert not hub.record_packets
        assert hub.recorder.capacity == 16
        hub.on_enqueue("c", 1.0, 0.0)
    assert not TELEMETRY.enabled
    assert TELEMETRY.record_packets  # restored default
    # Recorded state survives the session so callers can export.
    assert TELEMETRY.cls("c").enqueued_packets == 1


# -- P^2 streaming quantiles -------------------------------------------------


def test_p2_empty_and_small():
    est = P2Quantile(0.99)
    assert est.value() == 0.0
    for v in (3.0, 1.0, 2.0):
        est.observe(v)
    # Below 5 samples the estimator reports the exact sample quantile.
    assert est.value() == 3.0
    median = P2Quantile(0.5)
    for v in (5.0, 1.0, 3.0):
        median.observe(v)
    assert median.value() == 3.0


@pytest.mark.parametrize("p", [0.5, 0.9, 0.99])
def test_p2_tracks_known_distributions(p):
    rng = random.Random(11)
    est = P2Quantile(p)
    values = []
    for _ in range(20000):
        v = rng.expovariate(1.0)
        values.append(v)
        est.observe(v)
    exact = sorted(values)[int(p * len(values)) - 1]
    assert est.value() == pytest.approx(exact, rel=0.05)
    assert est.count == len(values)


def test_p2_rejects_bad_quantile():
    with pytest.raises(ValueError):
        P2Quantile(0.0)
    with pytest.raises(ValueError):
        P2Quantile(1.0)


# -- ClassStats satellites ---------------------------------------------------


class _FakePacket:
    def __init__(self, delay, size=100.0, deadline=None, class_id="c"):
        self.delay = delay
        self.size = size
        self.deadline = deadline
        self.class_id = class_id


def test_class_stats_empty_summary_normalizes_sentinels():
    stats = ClassStats("idle")
    # Raw sentinels stay for hot-path cheapness...
    assert stats.min_delay == math.inf
    assert stats.worst_deadline_miss == -math.inf
    summary = stats.summary()
    # ...but never leak into reports (inf is invalid JSON).
    assert summary["min_delay"] is None
    assert summary["max_delay"] is None
    assert summary["worst_deadline_miss"] == 0.0
    assert summary["p99_delay"] == 0.0
    json.dumps(summary)  # must be strictly JSON-serializable


def test_class_stats_summary_with_traffic():
    stats = ClassStats("c")
    stats.record(_FakePacket(0.010), now=1.0)
    stats.record(_FakePacket(0.030, deadline=0.9), now=1.5)
    summary = stats.summary()
    assert summary["min_delay"] == pytest.approx(0.010)
    assert summary["max_delay"] == pytest.approx(0.030)
    assert summary["worst_deadline_miss"] == pytest.approx(0.6)
    assert summary["packets"] == 2


def test_class_stats_p2_percentiles_without_samples():
    rng = random.Random(5)
    exact = ClassStats("a", keep_samples=True)
    streaming = ClassStats("b", keep_samples=False)
    for _ in range(10000):
        delay = rng.expovariate(50.0)
        exact.record(_FakePacket(delay), now=0.0)
        streaming.record(_FakePacket(delay), now=0.0)
    assert streaming.delays == []  # really no per-packet storage
    for q in (50, 90, 99, 99.9):
        assert streaming.percentile(q) == pytest.approx(
            exact.percentile(q), rel=0.10
        )
    with pytest.raises(ValueError):
        streaming.percentile(75)


def test_class_stats_empty_percentile_still_zero():
    assert ClassStats("x").percentile(99) == 0.0
    assert ClassStats("y", keep_samples=False).percentile(99) == 0.0


def test_stats_collector_summary_roundtrip():
    collector = StatsCollector(keep_samples=False)
    collector.on_departure(_FakePacket(0.01), 1.0)
    summary = collector.summary()
    assert summary["total_packets"] == 1
    assert summary["worst_deadline_miss"] == 0.0  # no audited packets
    json.dumps(summary)

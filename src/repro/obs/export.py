"""Metric exporters: JSON snapshot, Prometheus text format, CSV timeseries.

All three read the same sources -- the :class:`~repro.obs.core.Telemetry`
hub, an optional :class:`~repro.obs.sampler.Sampler`, and optional live
scheduler/link objects -- and are pure functions of that state: they can
be called mid-run (the API path) or after a run (the ``repro stats`` CLI
path) without perturbing anything.

Formats
-------

* :func:`snapshot` / :func:`to_json` -- a single JSON document: global
  counters, per-class metric summaries (with histogram quantiles), the
  flight-recorder tail, and scheduler/link gauges;
* :func:`to_prometheus` -- the Prometheus text exposition format
  (``# TYPE`` / ``# HELP`` headers, ``class`` labels, quantile labels on
  summaries), parseable by any Prometheus scraper;
* :func:`to_csv` -- the sampler's per-class timeseries as CSV, one row
  per (tick, class).
"""

from __future__ import annotations

import io
import json
from typing import Any, Dict, List, Optional

from repro.obs.core import TELEMETRY, ClassTelemetry, Telemetry
from repro.obs.sampler import CLASS_FIELDS, Sampler

#: (attribute, metric name, help) for per-class counters.
_CLASS_COUNTERS = (
    ("enqueued_packets", "repro_enqueued_packets_total", "Packets accepted by the scheduler"),
    ("enqueued_bytes", "repro_enqueued_bytes_total", "Bytes accepted by the scheduler"),
    ("dequeued_packets", "repro_dequeued_packets_total", "Packets selected for transmission"),
    ("dequeued_bytes", "repro_dequeued_bytes_total", "Bytes selected for transmission"),
    ("departed_packets", "repro_departed_packets_total", "Packets fully transmitted"),
    ("departed_bytes", "repro_departed_bytes_total", "Bytes fully transmitted"),
    ("returned_packets", "repro_returned_packets_total", "Packets returned by forced class removal"),
    ("dropped_packets", "repro_dropped_packets_total", "Packets lost on the arrival path"),
    ("rejected_packets", "repro_rejected_packets_total", "Packets rejected by admission control"),
    ("rt_packets", "repro_rt_packets_total", "Packets served by the real-time criterion"),
    ("rt_bytes", "repro_rt_bytes_total", "Bytes served by the real-time criterion"),
    ("ls_packets", "repro_ls_packets_total", "Packets served by the link-sharing criterion"),
    ("ls_bytes", "repro_ls_bytes_total", "Bytes served by the link-sharing criterion"),
    ("deadlines_set", "repro_deadlines_total", "Packets dequeued carrying an H-FSC deadline"),
    ("deadline_misses", "repro_deadline_misses_total", "Departures after their H-FSC deadline"),
)

_QUANTILES = (0.5, 0.9, 0.99, 0.999)


def _class_summary(entry: ClassTelemetry) -> Dict[str, Any]:
    delays = entry.delay_hist
    summary: Dict[str, Any] = {
        attr: getattr(entry, attr) for attr, _name, _help in _CLASS_COUNTERS
    }
    summary["worst_deadline_miss"] = entry.worst_deadline_miss
    summary["delay"] = {
        "count": delays.count,
        "mean": delays.mean,
        "min": delays.min if delays.count else None,
        "max": delays.max if delays.count else None,
        "quantiles": {str(q): delays.quantile(q) for q in _QUANTILES},
    }
    slack = entry.slack_hist
    summary["deadline_slack"] = {
        "count": slack.count,
        "mean": slack.mean,
        "min": slack.min if slack.count else None,
        "quantiles": {str(q): slack.quantile(q) for q in _QUANTILES},
    }
    return summary


def snapshot(
    telemetry: Optional[Telemetry] = None,
    sampler: Optional[Sampler] = None,
    scheduler=None,
    link=None,
    recorder_tail: Optional[int] = None,
    include_series: bool = False,
) -> Dict[str, Any]:
    """One JSON-ready document describing everything observed so far."""
    telemetry = telemetry if telemetry is not None else TELEMETRY
    doc: Dict[str, Any] = {
        "schema": 1,
        "enabled": telemetry.enabled,
        "counters": {
            name: counter.value for name, counter in sorted(telemetry.counters.items())
        },
        "gauges": {
            name: gauge.value for name, gauge in sorted(telemetry.gauges.items())
        },
        "classes": {
            str(class_id): _class_summary(entry)
            for class_id, entry in sorted(telemetry.per_class.items(), key=lambda kv: str(kv[0]))
        },
        "flight_recorder": {
            "capacity": telemetry.recorder.capacity,
            "recorded": telemetry.recorder.recorded,
            "dropped": telemetry.recorder.dropped,
            "events": telemetry.recorder.to_dicts(recorder_tail),
        },
    }
    if scheduler is not None:
        doc["scheduler"] = {
            "backlog_packets": scheduler.backlog_packets,
            "backlog_bytes": scheduler.backlog_bytes,
            "total_enqueued": scheduler.total_enqueued,
            "total_dequeued": scheduler.total_dequeued,
            "total_returned": scheduler.total_returned,
        }
        if hasattr(scheduler, "eligible_count"):
            doc["scheduler"]["eligible_set_size"] = scheduler.eligible_count()
        if hasattr(scheduler, "overload_events"):
            doc["scheduler"]["overload_events"] = list(scheduler.overload_events)
    if link is not None:
        doc["link"] = {
            "rate": link.rate,
            "bytes_sent": link.bytes_sent,
            "busy_time": link.busy_time,
            "utilization": link.utilization(),
        }
    if sampler is not None:
        doc["sampler"] = {
            "period": sampler.period,
            "ticks": sampler.ticks,
            "classes": [str(c) for c in sampler.classes()],
        }
        if include_series:
            doc["sampler"]["class_rows"] = [
                {**row, "class_id": str(row["class_id"])}
                for row in sampler.class_rows
            ]
            doc["sampler"]["global_rows"] = list(sampler.global_rows)
    return doc


def to_json(
    telemetry: Optional[Telemetry] = None,
    sampler: Optional[Sampler] = None,
    scheduler=None,
    link=None,
    indent: int = 2,
    **kwargs: Any,
) -> str:
    return json.dumps(
        snapshot(telemetry, sampler, scheduler, link, **kwargs),
        indent=indent,
        sort_keys=True,
    )


# -- multi-shard merge --------------------------------------------------------


def _sum_counter_maps(maps: List[Dict[str, Any]]) -> Dict[str, Any]:
    merged: Dict[str, Any] = {}
    for counters in maps:
        for name, value in counters.items():
            if isinstance(value, (int, float)):
                merged[name] = merged.get(name, 0) + value
    return dict(sorted(merged.items()))


def _merge_dist(dists: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge ``{count, mean, min[, max], quantiles}`` summaries.

    Count, mean, min and max merge exactly.  Quantiles of a union are
    not recoverable from per-shard quantiles, so the merged value is the
    per-shard **maximum** -- a conservative upper bound (the true union
    quantile can never exceed the worst shard's), which is the useful
    direction for delay and deadline-slack SLOs.
    """
    dists = [d for d in dists if d]
    count = sum(d.get("count", 0) for d in dists)
    merged: Dict[str, Any] = {
        "count": count,
        "mean": (
            sum(d.get("mean", 0.0) * d.get("count", 0) for d in dists) / count
            if count else 0.0
        ),
    }
    for key, pick in (("min", min), ("max", max)):
        if any(key in d for d in dists):
            values = [d[key] for d in dists if d.get(key) is not None]
            merged[key] = pick(values) if values else None
    quantiles: Dict[str, Any] = {}
    for d in dists:
        for q, value in (d.get("quantiles") or {}).items():
            if value is not None:
                prev = quantiles.get(q)
                quantiles[q] = value if prev is None else max(prev, value)
            else:
                quantiles.setdefault(q, None)
    if quantiles:
        merged["quantiles"] = quantiles
    return merged


def _merge_class_summaries(summaries: List[Dict[str, Any]]) -> Dict[str, Any]:
    merged: Dict[str, Any] = {}
    for attr, _name, _help in _CLASS_COUNTERS:
        if any(attr in s for s in summaries):
            merged[attr] = sum(s.get(attr, 0) for s in summaries)
    if any("worst_deadline_miss" in s for s in summaries):
        merged["worst_deadline_miss"] = max(
            s.get("worst_deadline_miss", 0.0) for s in summaries
        )
    for dist_key in ("delay", "deadline_slack"):
        if any(dist_key in s for s in summaries):
            merged[dist_key] = _merge_dist(
                [s.get(dist_key) or {} for s in summaries]
            )
    return merged


def _merge_numeric(docs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum numeric leaves; recurse into dicts; concatenate lists."""
    merged: Dict[str, Any] = {}
    keys = [key for doc in docs for key in doc]
    for key in dict.fromkeys(keys):  # first-seen order, deduplicated
        values = [doc[key] for doc in docs if key in doc]
        first = values[0]
        if isinstance(first, bool):
            merged[key] = any(values)
        elif isinstance(first, (int, float)):
            merged[key] = sum(v for v in values if isinstance(v, (int, float)))
        elif isinstance(first, dict):
            merged[key] = _merge_numeric([v for v in values if isinstance(v, dict)])
        elif isinstance(first, list):
            merged[key] = [x for v in values if isinstance(v, list) for x in v]
        else:
            merged[key] = first
    return merged


def merge_dataplanes(planes: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Per-shard ``Dataplane.summary()`` documents as one: counters sum,
    the high-water mark is a maximum."""
    merged = _merge_numeric(planes)
    merged["burst_max"] = max(plane.get("burst_max", 0) for plane in planes)
    return merged


def merge_snapshots(docs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge per-shard :func:`snapshot` documents into one cluster view.

    Input docs are what each worker's ``stats`` control op returns
    (optionally carrying a ``shard`` tag).  Merge semantics per section:

    * ``counters`` / ``gauges`` / per-class counters -- summed;
    * per-class ``delay`` / ``deadline_slack`` -- exact count/mean/
      min/max, conservative (per-shard max) quantiles, see
      :func:`_merge_dist`;
    * ``scheduler`` -- backlog and lifetime totals summed,
      ``overload_events`` concatenated;
    * ``link`` -- rates and byte counts summed (the cluster's aggregate
      link), utilization rate-weighted;
    * ``flight_recorder`` -- events interleaved by simulated time, each
      tagged with its source shard when the input doc carries one;
    * ``dataplane`` -- numeric leaves summed (shed counters, buffer
      occupancy, ...);
    * ``pacing`` -- worst (max) lag, furthest (max) simulated clock.
    """
    docs = [d for d in docs if d]
    if not docs:
        return {"schema": 1, "merged_from": 0}
    merged: Dict[str, Any] = {
        "schema": 1,
        "merged_from": len(docs),
        "enabled": any(d.get("enabled") for d in docs),
        "counters": _sum_counter_maps([d.get("counters", {}) for d in docs]),
        "gauges": _sum_counter_maps([d.get("gauges", {}) for d in docs]),
    }
    class_ids = sorted({cid for d in docs for cid in d.get("classes", {})})
    merged["classes"] = {
        cid: _merge_class_summaries(
            [d["classes"][cid] for d in docs if cid in d.get("classes", {})]
        )
        for cid in class_ids
    }
    events: List[Dict[str, Any]] = []
    for doc in docs:
        shard = (doc.get("shard") or {}).get("index")
        for event in (doc.get("flight_recorder") or {}).get("events", []):
            events.append(event if shard is None else {**event, "shard": shard})
    events.sort(key=lambda e: e.get("time", 0.0))
    recorders = [d.get("flight_recorder") or {} for d in docs]
    merged["flight_recorder"] = {
        "capacity": sum(r.get("capacity", 0) for r in recorders),
        "recorded": sum(r.get("recorded", 0) for r in recorders),
        "dropped": sum(r.get("dropped", 0) for r in recorders),
        "events": events,
    }
    scheds = [d["scheduler"] for d in docs if isinstance(d.get("scheduler"), dict)]
    if scheds:
        merged["scheduler"] = {
            key: sum(s.get(key, 0) for s in scheds)
            for key in (
                "backlog_packets", "backlog_bytes", "total_enqueued",
                "total_dequeued", "total_returned", "eligible_set_size",
            )
            if any(key in s for s in scheds)
        }
        if any("overload_events" in s for s in scheds):
            merged["scheduler"]["overload_events"] = [
                event for s in scheds for event in s.get("overload_events", [])
            ]
    links = [d["link"] for d in docs if isinstance(d.get("link"), dict)]
    if links:
        total_rate = sum(l.get("rate", 0.0) for l in links)
        merged["link"] = {
            "rate": total_rate,
            "bytes_sent": sum(l.get("bytes_sent", 0) for l in links),
            "busy_time": sum(l.get("busy_time", 0.0) for l in links),
            "utilization": (
                sum(l.get("rate", 0.0) * l.get("utilization", 0.0) for l in links)
                / total_rate if total_rate else 0.0
            ),
        }
    planes = [d["dataplane"] for d in docs if isinstance(d.get("dataplane"), dict)]
    if planes:
        merged["dataplane"] = merge_dataplanes(planes)
    pacings = [d["pacing"] for d in docs if isinstance(d.get("pacing"), dict)]
    if pacings:
        merged["pacing"] = {
            "time_scale": pacings[0].get("time_scale"),
            "max_lag": max(p.get("max_lag", 0.0) for p in pacings),
            "sim_clock": max(p.get("sim_clock", 0.0) for p in pacings),
        }
    shards = [d["shard"] for d in docs if isinstance(d.get("shard"), dict)]
    if shards:
        merged["shards"] = sorted(
            (s.get("index") for s in shards if s.get("index") is not None)
        )
    return merged


# -- Prometheus text format ---------------------------------------------------


def _escape_label(value: Any) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def to_prometheus(
    telemetry: Optional[Telemetry] = None,
    scheduler=None,
    link=None,
) -> str:
    """Render the hub in the Prometheus text exposition format."""
    telemetry = telemetry if telemetry is not None else TELEMETRY
    out = io.StringIO()
    entries = sorted(telemetry.per_class.items(), key=lambda kv: str(kv[0]))
    for attr, name, help_text in _CLASS_COUNTERS:
        out.write(f"# HELP {name} {help_text}\n")
        out.write(f"# TYPE {name} counter\n")
        for class_id, entry in entries:
            label = _escape_label(class_id)
            out.write(f'{name}{{class="{label}"}} {_fmt(getattr(entry, attr))}\n')
    out.write("# HELP repro_worst_deadline_miss_seconds Largest departure-past-deadline per class\n")
    out.write("# TYPE repro_worst_deadline_miss_seconds gauge\n")
    for class_id, entry in entries:
        label = _escape_label(class_id)
        out.write(
            f'repro_worst_deadline_miss_seconds{{class="{label}"}} '
            f"{_fmt(entry.worst_deadline_miss)}\n"
        )
    out.write("# HELP repro_delay_seconds Arrival-to-departure delay distribution\n")
    out.write("# TYPE repro_delay_seconds summary\n")
    for class_id, entry in entries:
        label = _escape_label(class_id)
        hist = entry.delay_hist
        for q in _QUANTILES:
            out.write(
                f'repro_delay_seconds{{class="{label}",quantile="{q}"}} '
                f"{_fmt(hist.quantile(q))}\n"
            )
        out.write(f'repro_delay_seconds_sum{{class="{label}"}} {_fmt(hist.total)}\n')
        out.write(f'repro_delay_seconds_count{{class="{label}"}} {_fmt(hist.count)}\n')
    for name, counter in sorted(telemetry.counters.items()):
        metric = f"repro_{name}_total"
        out.write(f"# TYPE {metric} counter\n")
        out.write(f"{metric} {_fmt(counter.value)}\n")
    for name, gauge in sorted(telemetry.gauges.items()):
        metric = f"repro_{name}"
        out.write(f"# TYPE {metric} gauge\n")
        out.write(f"{metric} {_fmt(gauge.value)}\n")
    if scheduler is not None:
        out.write("# TYPE repro_backlog_packets gauge\n")
        out.write(f"repro_backlog_packets {_fmt(scheduler.backlog_packets)}\n")
        out.write("# TYPE repro_backlog_bytes gauge\n")
        out.write(f"repro_backlog_bytes {_fmt(scheduler.backlog_bytes)}\n")
        if hasattr(scheduler, "eligible_count"):
            out.write("# TYPE repro_eligible_set_size gauge\n")
            out.write(f"repro_eligible_set_size {_fmt(scheduler.eligible_count())}\n")
    if link is not None:
        out.write("# TYPE repro_link_bytes_sent_total counter\n")
        out.write(f"repro_link_bytes_sent_total {_fmt(link.bytes_sent)}\n")
        out.write("# TYPE repro_link_utilization gauge\n")
        out.write(f"repro_link_utilization {_fmt(link.utilization())}\n")
    out.write("# TYPE repro_flight_recorder_events_total counter\n")
    out.write(f"repro_flight_recorder_events_total {_fmt(telemetry.recorder.recorded)}\n")
    return out.getvalue()


# -- cluster health -----------------------------------------------------------

#: Numeric encoding of the shard supervisor's state machine.  The
#: authoritative map -- :mod:`repro.serve.cluster` imports it for its
#: live per-shard state gauges, and :func:`cluster_health_to_prometheus`
#: uses it to render health documents offline.
CLUSTER_SHARD_STATES = {
    "starting": 0,
    "ready": 1,
    "degraded": 2,
    "restarting": 3,
    "failed": 4,
    "stopped": 5,
}

_BREAKER_CODES = {"closed": 0, "open": 1, "half-open": 2}


def cluster_health_to_prometheus(health: Dict[str, Any]) -> str:
    """Render a cluster health document in Prometheus text format.

    The input is what :meth:`repro.serve.cluster.ShardManager.health_doc`
    builds (and the front-end's ``health`` op returns): cluster counters
    become ``repro_<name>_total`` (dots mapped to underscores); each
    shard's supervisor state, restart count, accumulated downtime and
    circuit-breaker state become ``shard``-labelled series.
    """
    out = io.StringIO()
    for name, value in sorted((health.get("counters") or {}).items()):
        metric = "repro_" + str(name).replace(".", "_").replace("-", "_") + "_total"
        out.write(f"# TYPE {metric} counter\n")
        out.write(f"{metric} {_fmt(value)}\n")
    shards = [s for s in health.get("shards") or [] if isinstance(s, dict)]
    if not shards:
        return out.getvalue()
    out.write(
        "# HELP repro_cluster_shard_state Supervisor state per shard "
        "(0=starting 1=ready 2=degraded 3=restarting 4=failed 5=stopped)\n"
    )
    out.write("# TYPE repro_cluster_shard_state gauge\n")
    for s in shards:
        label = _escape_label(s.get("index"))
        code = CLUSTER_SHARD_STATES.get(s.get("state"), -1)
        out.write(f'repro_cluster_shard_state{{shard="{label}"}} {_fmt(code)}\n')
    out.write("# TYPE repro_cluster_shard_restarts_total counter\n")
    for s in shards:
        label = _escape_label(s.get("index"))
        out.write(
            f'repro_cluster_shard_restarts_total{{shard="{label}"}} '
            f"{_fmt(s.get('restarts', 0))}\n"
        )
    out.write("# TYPE repro_cluster_shard_downtime_seconds counter\n")
    for s in shards:
        label = _escape_label(s.get("index"))
        out.write(
            f'repro_cluster_shard_downtime_seconds{{shard="{label}"}} '
            f"{_fmt(s.get('downtime_s', 0.0))}\n"
        )
    out.write(
        "# HELP repro_cluster_shard_breaker Circuit-breaker state per "
        "shard (0=closed 1=open 2=half-open)\n"
    )
    out.write("# TYPE repro_cluster_shard_breaker gauge\n")
    for s in shards:
        label = _escape_label(s.get("index"))
        code = _BREAKER_CODES.get((s.get("breaker") or {}).get("state"), -1)
        out.write(f'repro_cluster_shard_breaker{{shard="{label}"}} {_fmt(code)}\n')
    return out.getvalue()


# -- CSV timeseries -----------------------------------------------------------


def to_csv(sampler: Sampler) -> str:
    """The sampler's per-class rows as CSV (header + one row per sample)."""
    out = io.StringIO()
    out.write(",".join(CLASS_FIELDS) + "\n")
    for row in sampler.class_rows:
        cells: List[str] = []
        for field in CLASS_FIELDS:
            value = row.get(field)
            if value is None:
                cells.append("")
            elif field == "class_id":
                text = str(value)
                if "," in text or '"' in text:
                    text = '"' + text.replace('"', '""') + '"'
                cells.append(text)
            else:
                cells.append(f"{value:.9g}" if isinstance(value, float) else str(value))
        out.write(",".join(cells) + "\n")
    return out.getvalue()

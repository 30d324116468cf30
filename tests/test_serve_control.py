"""Control plane: dispatch, admission control, live reconfiguration."""

from __future__ import annotations

import json

import pytest

from repro.core.curves import ServiceCurve
from repro.schedulers.registry import backend_names
from repro.serve.control import ControlServer
from repro.serve.hierarchy import hierarchy_preset
from repro.serve.service import ServeService
from repro.serve.wire import encode_packet


def make_service(**kwargs):
    defaults = dict(backend="hfsc", time_scale=0.0, watchdog_period=0.0)
    defaults.update(kwargs)
    link_rate = defaults.pop("link_rate", 1000.0)
    specs = defaults.pop("specs", hierarchy_preset("split", link_rate))
    return ServeService(specs, link_rate, **defaults)


def call(server, request):
    response = json.loads(server.dispatch_line(json.dumps(request).encode()))
    return response


def ok(server, request):
    response = call(server, request)
    assert response["ok"], response
    return response["result"]


def err(server, request):
    response = call(server, request)
    assert not response["ok"], response
    return response["error"]


class TestDispatch:
    def test_ping_version_info(self):
        svc = make_service()
        server = ControlServer(svc)
        assert ok(server, {"op": "ping"})["pong"] is True
        assert ok(server, {"op": "version"})["version"]
        info = ok(server, {"op": "info"})
        assert info["backend"] == "hfsc"
        assert info["link_rate"] == 1000.0
        # Which kernel is live (and why, when it is the pure one) and what
        # the process has cost: the figures a per-packet delta is made of.
        from repro.core import flatstate

        assert info["kernel"]["compiled"] is flatstate.COMPILED
        assert (info["kernel"]["reason"] is None) == flatstate.COMPILED
        assert set(info["process"]) == {
            "cpu_user_s", "cpu_sys_s", "minor_faults", "ctx_switches"}
        assert info["process"]["minor_faults"] > 0
        assert {"reflect_dropped", "bursts", "burst_max"} <= set(info["dataplane"])

    def test_malformed_requests(self):
        server = ControlServer(make_service())
        assert not json.loads(server.dispatch_line(b"not json"))["ok"]
        assert not json.loads(server.dispatch_line(b"[1, 2]"))["ok"]
        assert err(server, {"op": "no-such-op"})
        assert err(server, {"op": "add_class"})  # missing name
        assert server.errors == 4

    def test_classes_listing(self):
        server = ControlServer(make_service())
        rows = {row["name"]: row for row in ok(server, {"op": "classes"})}
        assert set(rows) == {"gold", "bronze"}
        assert rows["gold"]["leaf"] is True
        assert rows["gold"]["ls_sc"]["m2"] == pytest.approx(600.0)

    def test_stats_includes_dataplane_and_pacing(self):
        svc = make_service()
        server = ControlServer(svc)
        svc.dataplane.ingest(encode_packet("gold#0", 0, 0.0, 100), None)
        svc.driver.run_due()
        stats = ok(server, {"op": "stats"})
        assert stats["dataplane"]["received"] == 1
        assert stats["pacing"]["time_scale"] == 0.0
        assert "scheduler" in stats


class TestReconfiguration:
    def test_add_update_remove_cycle(self):
        from repro.core.hierarchy import ClassSpec

        # 300 B/s of rt headroom so the add passes admission.
        specs = [
            ClassSpec("gold", sc=ServiceCurve.linear(400.0)),
            ClassSpec("bronze", sc=ServiceCurve.linear(300.0)),
        ]
        svc = make_service(specs=specs)
        server = ControlServer(svc)
        ok(server, {"op": "add_class", "name": "silver",
                    "sc": {"rate": 100.0}})
        assert "silver" in {r["name"] for r in ok(server, {"op": "classes"})}
        ok(server, {"op": "update_class", "name": "silver",
                    "sc": [200.0, 0.1, 100.0]})
        rows = {r["name"]: r for r in ok(server, {"op": "classes"})}
        assert rows["silver"]["rt_sc"] == {"m1": 200.0, "d": 0.1, "m2": 100.0}
        result = ok(server, {"op": "remove_class", "name": "silver"})
        assert result["removed"] == "silver"
        assert result["drained_packets"] == 0

    def test_add_rejected_by_admission_control(self):
        # split preset: gold 600 + bronze 400 fully book the 1000 B/s
        # link; any further rt curve must be rejected *eagerly*, before
        # the hierarchy is touched.
        svc = make_service()
        server = ControlServer(svc)
        error = err(server, {"op": "add_class", "name": "greedy",
                             "sc": {"rate": 50.0}})
        assert "admission" in error["message"]
        assert "headroom" in error["message"]
        assert "greedy" not in {r["name"] for r in ok(server, {"op": "classes"})}
        # A link-sharing-only class does not consume rt budget.
        ok(server, {"op": "add_class", "name": "scavenger",
                    "ls_sc": {"rate": 50.0}})

    def test_update_rejected_by_admission_control(self):
        svc = make_service()
        server = ControlServer(svc)
        error = err(server, {"op": "update_class", "name": "gold",
                             "sc": {"rate": 700.0}})
        assert "admission" in error["message"]
        # Untouched on rejection.
        rows = {r["name"]: r for r in ok(server, {"op": "classes"})}
        assert rows["gold"]["rt_sc"]["m2"] == pytest.approx(600.0)
        # Shrinking is always admissible.
        ok(server, {"op": "update_class", "name": "gold",
                    "sc": {"rate": 500.0}})

    def test_update_is_judged_net_of_the_class_own_curve(self):
        from repro.core.hierarchy import ClassSpec

        specs = [ClassSpec("gold", sc=ServiceCurve.linear(500.0)),
                 ClassSpec("bronze", sc=ServiceCurve.linear(300.0))]
        server = ControlServer(make_service(specs=specs))
        # 700 + 300 fills the link exactly once gold's 500 is taken out.
        ok(server, {"op": "update_class", "name": "gold", "sc": {"rate": 700.0}})
        error = err(server, {"op": "update_class", "name": "gold",
                             "sc": {"rate": 701.0}})
        assert "admission" in error["message"]
        rows = {r["name"]: r for r in ok(server, {"op": "classes"})}
        assert rows["gold"]["rt_sc"]["m2"] == 700.0

    def test_rejection_reports_linear_headroom_without_the_target(self):
        from repro.core.hierarchy import ClassSpec

        # gold bursts at 600 B/s for 0.1 s, then 200; bronze is 300 flat:
        # at small t only 100 B/s is free, the knee and the tail give more.
        specs = [ClassSpec("gold", sc=ServiceCurve(600.0, 0.1, 200.0)),
                 ClassSpec("bronze", sc=ServiceCurve.linear(300.0))]
        server = ControlServer(make_service(specs=specs))
        error = err(server, {"op": "add_class", "name": "greedy",
                             "sc": {"rate": 150.0}})
        assert error["message"].endswith("(headroom for a linear curve: 100)")
        # Updating bronze frees its own 300: headroom is 1000 - 600.
        error = err(server, {"op": "update_class", "name": "bronze",
                             "sc": {"rate": 500.0}})
        assert error["message"].endswith("(headroom for a linear curve: 400)")

    def test_dry_run_reserve_gives_the_commit_verdict(self):
        from repro.core.hierarchy import ClassSpec

        specs = [ClassSpec("gold", sc=ServiceCurve.linear(500.0)),
                 ClassSpec("bronze", sc=ServiceCurve.linear(300.0))]
        requests = [
            {"op": "add_class", "name": "silver", "sc": {"rate": 200.0}},
            {"op": "add_class", "name": "tin", "sc": {"rate": 201.0}},
            {"op": "update_class", "name": "gold", "sc": {"rate": 700.0}},
            {"op": "update_class", "name": "gold", "sc": [900.0, 0.5, 100.0]},
        ]
        for request in requests:
            server = ControlServer(make_service(specs=specs))
            before = ok(server, {"op": "classes"})
            reserve = call(server, dict(request, dry_run=True))
            assert ok(server, {"op": "classes"}) == before
            commit = call(server, request)
            assert reserve["ok"] == commit["ok"], request
            if not commit["ok"]:
                assert reserve["error"] == commit["error"]

    def test_non_finite_curve_is_refused_before_admission(self):
        # JSON's NaN literal parses; the curve itself refuses it, so the
        # admission aggregate never sees a value it cannot hold exactly.
        server = ControlServer(make_service())
        for role in ("rt_sc", "ls_sc"):
            error = err(server, {"op": "add_class", "name": "nan",
                                 role: {"rate": float("nan")}})
            assert error["type"] == "ConfigurationError"
            assert "finite" in error["message"]

    def test_update_null_removes_a_role(self):
        svc = make_service()
        server = ControlServer(svc)
        ok(server, {"op": "update_class", "name": "gold",
                    "rt_sc": None, "ls_sc": {"rate": 600.0}})
        rows = {r["name"]: r for r in ok(server, {"op": "classes"})}
        assert rows["gold"]["rt_sc"] is None
        assert rows["gold"]["ls_sc"]["m2"] == pytest.approx(600.0)

    def test_remove_backlogged_class_force_drains(self):
        svc = make_service()
        server = ControlServer(svc)
        for i in range(3):
            svc.dataplane.ingest(encode_packet("gold#0", i, 0.0, 100), None)
        svc.driver.run_due()
        assert svc.dataplane.backlog["gold"] > 0
        error = err(server, {"op": "remove_class", "name": "gold"})
        assert error["type"] == "ReconfigurationError"
        result = ok(server, {"op": "remove_class", "name": "gold",
                             "force": True})
        # One packet may be in flight on the link; the rest drain.
        assert result["drained_packets"] >= 2
        assert svc.dataplane.backlog.get("gold", 0) == 0

    def test_set_link_rate(self):
        svc = make_service()
        server = ControlServer(svc)
        result = ok(server, {"op": "set_link_rate", "rate": 500.0})
        assert result["link_rate"] == 500.0
        assert svc.link.rate == 500.0
        assert svc.scheduler.link_rate == 500.0
        # Outage: the link freezes but the scheduler keeps its rate
        # (the chaos-injection convention).
        ok(server, {"op": "set_link_rate", "rate": 0.0})
        assert svc.link.rate == 0.0
        assert svc.scheduler.link_rate == 500.0


class TestRateBackendReconfiguration:
    def test_hls_update_class_by_rate(self):
        svc = make_service(backend="hls")
        server = ControlServer(svc)
        result = ok(server, {"op": "update_class", "name": "gold",
                             "rate": 900.0})
        assert result["updated"] == "gold"
        assert result["previous"]["rate"] == pytest.approx(600.0)
        rows = {r["name"]: r for r in ok(server, {"op": "classes"})}
        assert rows["gold"]["rate"] == pytest.approx(900.0)

    def test_hls_dry_run_reserves_without_mutating(self):
        svc = make_service(backend="hls")
        server = ControlServer(svc)
        result = ok(server, {"op": "update_class", "name": "gold",
                             "rate": 900.0, "dry_run": True})
        assert result["reserved"] == "gold"
        rows = {r["name"]: r for r in ok(server, {"op": "classes"})}
        assert rows["gold"]["rate"] == pytest.approx(600.0)

    def test_hls_update_rejects_bad_requests(self):
        svc = make_service(backend="hls")
        server = ControlServer(svc)
        assert err(server, {"op": "update_class", "name": "gold"})  # no rate
        assert err(server, {"op": "update_class", "name": "ghost",
                            "rate": 10.0})
        assert err(server, {"op": "update_class", "name": "gold",
                            "rate": 0.0})
        assert err(server, {"op": "update_class", "name": "__root__",
                            "rate": 10.0})

    def test_backend_without_update_class_refused(self):
        svc = make_service(backend="drr")
        server = ControlServer(svc)
        error = err(server, {"op": "update_class", "name": "gold",
                             "rate": 10.0})
        assert "does not support update_class" in error["message"]


#: One valid request per reconfiguration op.  ``rate`` is what the
#: rate-based backends read and ``ls_sc`` what H-FSC reads; each ignores
#: the other.
RECONFIG_REQUESTS = {
    "add": {"op": "add_class", "name": "probe", "rate": 50.0, "ls_sc": 50.0},
    "update": {"op": "update_class", "name": "bronze", "rate": 50.0,
               "ls_sc": 50.0},
    "remove": {"op": "remove_class", "name": "bronze"},
}


@pytest.mark.parametrize("op", sorted(RECONFIG_REQUESTS))
@pytest.mark.parametrize("backend", backend_names())
def test_reserve_and_commit_agree_on_every_backend(backend, op):
    """Every backend answers both phases with a JSON object (an op it
    lacks is refused, never a dropped connection), and on a fresh
    service the reserve's verdict is the commit's."""
    verdicts = {}
    for dry_run in (True, False):
        server = ControlServer(make_service(backend=backend))
        line = json.dumps(dict(RECONFIG_REQUESTS[op], dry_run=dry_run))
        reply = json.loads(server.dispatch_line(line.encode()))
        assert isinstance(reply, dict) and isinstance(reply["ok"], bool)
        verdicts[dry_run] = reply["ok"]
    assert verdicts[True] == verdicts[False], verdicts


@pytest.mark.parametrize("request_", [
    {"op": "add_class", "name": "bare"},
    {"op": "update_class", "name": "gold", "rt_sc": None, "ls_sc": None},
    {"op": "update_class", "name": "gold", "sc": None},
    {"op": "update_class", "name": "__root__", "ls_sc": 50.0},
    {"op": "remove_class", "name": "__root__"},
    {"op": "update_class", "name": "gold", "sc": 50.0, "rt_sc": 50.0},
    {"op": "add_class", "name": "x", "parent": "gold", "ls_sc": 50.0},
    # "cmu" is an interior class of the e4 preset.
    {"op": "update_class", "name": "cmu", "rt_sc": 2.0},
    {"op": "update_class", "name": "cmu", "rt_sc": 2.0, "ls_sc": None},
])
def test_hfsc_reserve_refuses_what_commit_refuses(request_):
    preset = "e4" if request_["name"] == "cmu" else "split"
    for dry_run in (True, False):
        server = ControlServer(
            make_service(specs=hierarchy_preset(preset, 1000.0)))
        assert err(server, dict(request_, dry_run=dry_run))


@pytest.mark.parametrize("backend", ("hfsc", "hls"))
@pytest.mark.parametrize("text", ("NaN", "Infinity", "1e400", "-5", '"fast"'))
def test_bad_link_rate_changes_nothing(backend, text):
    svc = make_service(backend=backend)
    server = ControlServer(svc)
    line = '{"op": "set_link_rate", "rate": %s}' % text
    reply = json.loads(server.dispatch_line(line.encode()))
    assert reply["ok"] is False
    assert svc.link.rate == 1000.0
    assert svc.scheduler.link_rate == 1000.0


@pytest.mark.parametrize("text", ("NaN", "Infinity", "-5", '"fast"'))
def test_rate_backend_refuses_bad_class_rates(text):
    svc = make_service(backend="hls")
    server = ControlServer(svc)
    for line in ('{"op": "add_class", "name": "probe", "rate": %s}' % text,
                 '{"op": "update_class", "name": "gold", "rate": %s}' % text):
        for dry_run in ("true", "false"):
            request = line[:-1] + ', "dry_run": %s}' % dry_run
            assert json.loads(server.dispatch_line(request.encode()))["ok"] is False
    rows = {r["name"]: r for r in ok(server, {"op": "classes"})}
    assert set(rows) == {"gold", "bronze"}
    assert rows["gold"]["rate"] == pytest.approx(600.0)


def test_info_stalls_name_each_cause():
    """Each control op is timed under its name, a line that names no op
    under ``dispatch.invalid``, and collections under their generation
    while the watch is on."""
    import gc

    svc = make_service()
    server = ControlServer(svc)
    ok(server, {"op": "ping"})
    ok(server, {"op": "ping"})
    err(server, {"op": "no_such_op"})
    with svc.stalls.watch_gc():
        gc.collect()
        gc.collect(0)
    gc.collect()  # unwatched
    assert svc.stalls._on_gc not in gc.callbacks
    causes = ok(server, {"op": "info"})["stalls"]
    assert set(causes) == {"dispatch.ping", "dispatch.invalid", "gc0", "gc2"}
    assert causes["dispatch.ping"]["count"] == 2
    assert causes["dispatch.invalid"]["count"] == 1
    assert causes["gc2"]["count"] == 1
    for cause in causes.values():
        assert 0.0 < cause["p99_ms"] <= cause["max_ms"]


class TestLifecycleOps:
    def test_snapshot_and_shutdown(self, tmp_path):
        svc = make_service()
        server = ControlServer(svc)
        path = str(tmp_path / "ctl.snap")
        result = ok(server, {"op": "snapshot", "path": path})
        assert result["path"] == path
        assert (tmp_path / "ctl.snap").exists()
        ok(server, {"op": "shutdown", "snapshot": False})
        assert svc.driver._stopping

    def test_watchdog_check_now(self):
        svc = make_service(watchdog_period=0.5)
        server = ControlServer(svc)
        result = ok(server, {"op": "watchdog", "check": True})
        assert result["checks_run"] >= 1
        assert result["violations"] == []

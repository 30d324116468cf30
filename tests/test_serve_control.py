"""Control plane: dispatch, admission control, live reconfiguration."""

from __future__ import annotations

import json

import pytest

from repro.core.curves import ServiceCurve
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

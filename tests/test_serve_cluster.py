"""End-to-end sharded cluster: fan-out control, two-phase admission,
merged telemetry, multi-envelope snapshot/resume.

Short wall-clock runs with wide tolerances; the full-rate 4-shard
acceptance run lives in the CI ``shard-smoke`` job.  The rollback and
kill-a-shard tests are the interesting ones: a mutation must leave every
*reachable* shard in the same state no matter where in the
reserve/commit sequence a shard dies.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
from types import SimpleNamespace

import pytest

from repro.core.curves import ServiceCurve
from repro.core.errors import SnapshotError
from repro.core.hierarchy import ClassSpec
from repro.obs.export import merge_snapshots
from repro.persist.codec import save_snapshot
from repro.persist.manifest import (
    load_manifest,
    shard_snapshot_name,
    write_manifest,
)
from repro.serve.cluster import ClusterControl, ShardManager, shard_targets
from repro.serve.loadgen import LoadGenerator, run_load_cluster
from repro.serve.shard import ShardRing, shard_control_path


def split_specs(link_rate):
    return [
        ClassSpec("gold", sc=ServiceCurve.linear(0.6 * link_rate)),
        ClassSpec("bronze", sc=ServiceCurve.linear(0.4 * link_rate)),
    ]


def headroom_specs(link_rate):
    """60/40 link-sharing split but only 60% rt-booked -- admission has
    room for one more class."""
    return [
        ClassSpec("gold", sc=ServiceCurve.linear(0.4 * link_rate)),
        ClassSpec("bronze", sc=ServiceCurve.linear(0.2 * link_rate)),
    ]


def make_manager(tmp_path, shards=2, specs=None, link_rate=60_000.0, **kw):
    # These tests pin the PR-8 raw-cluster semantics (dead shards stay
    # dead); supervision has its own test modules and opts back in.
    kw.setdefault("supervise", False)
    return ShardManager(
        specs if specs is not None else split_specs(link_rate),
        link_rate,
        shards,
        control=str(tmp_path / "ctl"),
        unix=str(tmp_path / "in"),
        workdir=str(tmp_path / "work"),
        **kw,
    )


async def front_op(ctl_path, request, retries=50):
    """One request line against the front-end control socket."""
    for attempt in range(retries):
        try:
            reader, writer = await asyncio.open_unix_connection(str(ctl_path))
            break
        except (OSError, ConnectionError):
            if attempt == retries - 1:
                raise
            await asyncio.sleep(0.05)
    writer.write((json.dumps(request) + "\n").encode())
    await writer.drain()
    line = await reader.readline()
    writer.close()
    return json.loads(line)


async def shard_op(ctl_base, index, request):
    """Bypass the front-end: ask one shard directly."""
    reader, writer = await asyncio.open_unix_connection(
        shard_control_path(str(ctl_base), index)
    )
    writer.write((json.dumps(request) + "\n").encode())
    await writer.drain()
    line = await reader.readline()
    writer.close()
    return json.loads(line)


class TestClusterE2E:
    def test_overloaded_cluster_reproduces_link_share_split(self, tmp_path):
        """2 shards x 30 kB/s under ~2x overload through real unix
        sockets: the aggregate goodput must follow the 60/40 split, no
        flow may be misrouted, and the merged stats must describe the
        aggregate link."""
        link_rate = 60_000.0
        manager = make_manager(tmp_path, link_rate=link_rate)
        results = {}

        async def scenario():
            run = asyncio.create_task(manager.run())
            await asyncio.sleep(0)
            await manager.wait_ready()
            generator = LoadGenerator(
                ["gold", "bronze"], flows=24, rate=400.0, size=300,
                process="cbr", duration=1.5, seed=7, ring=manager.ring,
            )
            targets = shard_targets(2, unix=str(tmp_path / "in"))
            report = await run_load_cluster(targets, generator, drain=0.8)
            stats = await front_op(tmp_path / "ctl", {"op": "stats"})
            await front_op(tmp_path / "ctl",
                           {"op": "shutdown", "snapshot": False})
            summary = await asyncio.wait_for(run, timeout=15.0)
            results.update(report=report, stats=stats, summary=summary)

        asyncio.run(scenario())
        report = results["report"]
        summary = results["summary"]
        assert report["sent"] > 0
        assert sum(report["shards"]["sent_per_shard"]) == report["sent"]
        assert all(n > 0 for n in report["shards"]["sent_per_shard"])
        shares = {c: v["share"] for c, v in report["per_class"].items()}
        assert shares["gold"] == pytest.approx(0.6, abs=0.12)
        assert shares["bronze"] == pytest.approx(0.4, abs=0.12)
        assert summary["aggregate"]["misrouted"] == 0
        assert summary["aggregate"]["watchdog_violations"] == 0
        assert summary["exit_codes"] == [0, 0]
        merged = results["stats"]["result"]
        assert merged["merged_from"] == 2
        assert merged["link"]["rate"] == pytest.approx(link_rate)
        assert merged["shards"] == [0, 1]

    def test_two_phase_admission_commit_update_remove(self, tmp_path):
        link_rate = 60_000.0
        manager = make_manager(
            tmp_path, specs=headroom_specs(link_rate), link_rate=link_rate
        )
        log = {}

        async def scenario():
            run = asyncio.create_task(manager.run())
            await asyncio.sleep(0)
            await manager.wait_ready()
            ctl = tmp_path / "ctl"
            log["add"] = await front_op(ctl, {
                "op": "add_class", "name": "silver",
                "sc": 0.2 * link_rate,
            })
            log["classes"] = await front_op(ctl, {"op": "classes"})
            # Overbooking must be rejected at reserve on every shard,
            # mutating none.
            log["overbook"] = await front_op(ctl, {
                "op": "add_class", "name": "greedy",
                "sc": 0.9 * link_rate,
            })
            log["classes_after_reject"] = await front_op(ctl, {"op": "classes"})
            log["update"] = await front_op(ctl, {
                "op": "update_class", "name": "silver",
                "sc": 0.1 * link_rate,
            })
            log["shard0"] = await shard_op(ctl, 0, {"op": "classes"})
            log["shard1"] = await shard_op(ctl, 1, {"op": "classes"})
            log["remove"] = await front_op(ctl, {
                "op": "remove_class", "name": "silver", "force": True,
            })
            log["classes_final"] = await front_op(ctl, {"op": "classes"})
            log["rate"] = await front_op(ctl, {
                "op": "set_link_rate", "rate": 2 * link_rate,
            })
            await front_op(ctl, {"op": "shutdown", "snapshot": False})
            await asyncio.wait_for(run, timeout=15.0)

        asyncio.run(scenario())
        assert log["add"]["ok"], log["add"]
        names = [c["name"] for c in log["classes"]["result"]["classes"]]
        assert "silver" in names
        assert not log["overbook"]["ok"]
        assert log["overbook"]["error"]["context"]["phase"] == "reserve"
        after = [c["name"] for c in
                 log["classes_after_reject"]["result"]["classes"]]
        assert "greedy" not in after and "silver" in after
        assert log["update"]["ok"], log["update"]
        # Every shard holds the per-shard (1/N-scaled) updated curve.
        for key in ("shard0", "shard1"):
            rows = {c["name"]: c for c in log[key]["result"]}
            assert rows["silver"]["rt_sc"]["m2"] == pytest.approx(
                0.1 * link_rate / 2
            )
        assert log["remove"]["ok"], log["remove"]
        final = [c["name"] for c in log["classes_final"]["result"]["classes"]]
        assert "silver" not in final
        assert log["rate"]["ok"]
        assert log["rate"]["result"]["per_shard"] == pytest.approx(link_rate)

    def test_killed_shard_fails_reserve_leaves_others_unchanged(self, tmp_path):
        """SIGKILL one worker, then try to admit: the reserve phase must
        fail on the dead shard and the live shard's tree must not gain
        the class -- admission under partial failure never half-applies."""
        link_rate = 60_000.0
        manager = make_manager(
            tmp_path, specs=headroom_specs(link_rate), link_rate=link_rate
        )
        log = {}

        async def scenario():
            run = asyncio.create_task(manager.run())
            await asyncio.sleep(0)
            await manager.wait_ready()
            ctl = tmp_path / "ctl"
            os.kill(manager.processes[1].pid, signal.SIGKILL)
            while manager.processes[1].is_alive():
                await asyncio.sleep(0.02)
            log["add"] = await front_op(ctl, {
                "op": "add_class", "name": "silver", "sc": 0.2 * link_rate,
            })
            log["shard0"] = await shard_op(ctl, 0, {"op": "classes"})
            manager.request_stop()
            await asyncio.wait_for(run, timeout=15.0)

        asyncio.run(scenario())
        assert not log["add"]["ok"]
        failures = log["add"]["error"]["context"]["failures"]
        assert [f["shard"] for f in failures] == [1]
        assert failures[0]["error"]["type"] == "ShardUnreachable"
        names = [c["name"] for c in log["shard0"]["result"]]
        assert "silver" not in names

    def test_commit_failure_rolls_back_committed_shards(self, tmp_path):
        """Replace shard 1 with a stub that accepts the reserve but
        refuses the commit: the front-end must roll shard 0 back, so the
        cluster ends exactly where it started."""
        link_rate = 60_000.0
        manager = make_manager(
            tmp_path, specs=headroom_specs(link_rate), link_rate=link_rate
        )
        log = {}

        async def stub_handler(reader, writer):
            while True:
                line = await reader.readline()
                if not line:
                    break
                request = json.loads(line)
                if request.get("dry_run") or request["op"] in ("ping",):
                    response = {"ok": True,
                                "result": {"reserved": request.get("name")}}
                else:
                    response = {"ok": False, "error": {
                        "type": "ControlError", "message": "stub says no",
                    }}
                writer.write((json.dumps(response) + "\n").encode())
                await writer.drain()
            writer.close()

        async def scenario():
            run = asyncio.create_task(manager.run())
            await asyncio.sleep(0)
            await manager.wait_ready()
            ctl = tmp_path / "ctl"
            # Swap shard 1 for the saboteur stub.
            os.kill(manager.processes[1].pid, signal.SIGKILL)
            while manager.processes[1].is_alive():
                await asyncio.sleep(0.02)
            stub_path = shard_control_path(str(ctl), 1)
            try:
                os.unlink(stub_path)
            except OSError:
                pass
            stub = await asyncio.start_unix_server(
                stub_handler, path=stub_path
            )
            log["before"] = await shard_op(ctl, 0, {"op": "classes"})
            log["add"] = await front_op(ctl, {
                "op": "add_class", "name": "silver", "sc": 0.2 * link_rate,
            })
            log["after"] = await shard_op(ctl, 0, {"op": "classes"})
            stub.close()
            await stub.wait_closed()
            manager.request_stop()
            await asyncio.wait_for(run, timeout=15.0)

        asyncio.run(scenario())
        assert not log["add"]["ok"]
        context = log["add"]["error"]["context"]
        assert context["phase"] == "commit"
        assert context["failed_shard"] == 1
        assert context["rollback"] == [{"shard": 0, "ok": True, "error": None}]
        before = [c["name"] for c in log["before"]["result"]]
        after = [c["name"] for c in log["after"]["result"]]
        assert after == before  # shard 0 rolled back to the initial tree

    def test_shard_call_reads_responses_over_64kib(self, tmp_path):
        """A telemetry-on stats snapshot is far bigger than asyncio's
        default 64 KiB StreamReader limit; shard_call must still read it
        in one line."""
        link_rate = 60_000.0
        manager = make_manager(tmp_path, link_rate=link_rate)
        blob = "x" * (512 * 1024)

        async def stub_handler(reader, writer):
            line = await reader.readline()
            assert line
            writer.write((json.dumps(
                {"ok": True, "result": {"blob": blob}}
            ) + "\n").encode())
            await writer.drain()
            writer.close()

        async def scenario():
            stub_path = shard_control_path(str(tmp_path / "ctl"), 0)
            stub = await asyncio.start_unix_server(
                stub_handler, path=stub_path
            )
            try:
                return await manager.shard_call(0, {"op": "stats"})
            finally:
                stub.close()
                await stub.wait_closed()

        response = asyncio.run(scenario())
        assert response["ok"], response
        assert response["result"]["blob"] == blob


@pytest.mark.parametrize("text", ("NaN", "Infinity", "1e400", "-5", "0",
                                  '"fast"', "null"))
def test_front_end_refuses_bad_link_rate_before_fan_out(text):
    # No shard behind the manager: a request that got past validation
    # would fail on the missing fan-out machinery instead of answering.
    manager = SimpleNamespace(supervisor=None, shards=2, link_rate=1000.0)
    front = ClusterControl(manager)
    line = '{"op": "set_link_rate", "rate": %s}' % text
    reply = json.loads(asyncio.run(front.dispatch_line(line.encode())))
    assert reply["ok"] is False
    assert manager.link_rate == 1000.0


class TestClusterSnapshotResume:
    def test_snapshot_manifest_and_resume(self, tmp_path):
        link_rate = 60_000.0
        snapdir = tmp_path / "snaps"
        log = {}

        async def first_run():
            manager = make_manager(
                tmp_path, link_rate=link_rate, snapshot_dir=str(snapdir)
            )
            run = asyncio.create_task(manager.run())
            await asyncio.sleep(0)
            await manager.wait_ready()
            ctl = tmp_path / "ctl"
            log["snap"] = await front_op(ctl, {"op": "snapshot"})
            await front_op(ctl, {"op": "shutdown", "snapshot": False})
            log["summary1"] = await asyncio.wait_for(run, timeout=15.0)

        async def second_run():
            manager = make_manager(
                tmp_path, link_rate=link_rate, resume=str(snapdir)
            )
            run = asyncio.create_task(manager.run())
            await asyncio.sleep(0)
            await manager.wait_ready()
            log["info"] = await front_op(tmp_path / "ctl", {"op": "info"})
            await front_op(tmp_path / "ctl",
                           {"op": "shutdown", "snapshot": False})
            log["summary2"] = await asyncio.wait_for(run, timeout=15.0)

        asyncio.run(first_run())
        assert log["snap"]["ok"], log["snap"]
        manifest = load_manifest(str(snapdir))
        assert manifest["ring"]["shards"] == 2
        assert manifest["link_rate"] == pytest.approx(link_rate)
        assert len(manifest["snapshots"]) == 2

        asyncio.run(second_run())
        per_shard = log["info"]["result"]["per_shard"]
        for index, info in enumerate(per_shard):
            assert info["resumed_from"] == os.path.join(
                str(snapdir), shard_snapshot_name(index)
            )
            assert info["link_rate"] == pytest.approx(link_rate / 2)

    def test_resume_refuses_mismatched_placement(self, tmp_path):
        """A snapshot taken under 2 shards must not restore into a
        3-shard ring -- restored flows would land on wrong workers."""
        snapdir = tmp_path / "snaps"
        snapdir.mkdir()
        for index in range(2):
            save_snapshot(
                str(snapdir / shard_snapshot_name(index)), {"anything": index}
            )
        write_manifest(
            str(snapdir),
            ring_params=ShardRing(2).params(),
            backend="hfsc", link_rate=1000.0,
        )
        manager = make_manager(tmp_path, shards=3, link_rate=1000.0,
                               resume=str(snapdir))
        with pytest.raises(SnapshotError, match="placement"):
            manager.worker_configs()

    def test_manifest_detects_swapped_envelope(self, tmp_path):
        snapdir = tmp_path / "snaps"
        snapdir.mkdir()
        for index in range(2):
            save_snapshot(
                str(snapdir / shard_snapshot_name(index)), {"shard": index}
            )
        write_manifest(
            str(snapdir), ring_params=ShardRing(2).params(),
            backend="hfsc", link_rate=1000.0,
        )
        # Swap in a different (valid!) envelope: only the manifest's
        # pinned checksum can catch this.
        save_snapshot(str(snapdir / shard_snapshot_name(1)), {"shard": 99})
        with pytest.raises(SnapshotError, match="changed since"):
            load_manifest(str(snapdir))

    def test_manifest_refuses_partial_checkpoint(self, tmp_path):
        snapdir = tmp_path / "snaps"
        snapdir.mkdir()
        save_snapshot(str(snapdir / shard_snapshot_name(0)), {"shard": 0})
        with pytest.raises(SnapshotError, match="never wrote"):
            write_manifest(
                str(snapdir), ring_params=ShardRing(2).params(),
                backend="hfsc", link_rate=1000.0,
            )


class TestMergeSnapshots:
    def test_counters_sum_quantiles_bound_links_aggregate(self):
        docs = [
            {
                "enabled": True,
                "counters": {"packets": 10},
                "classes": {"gold": {
                    "enqueued_packets": 5, "departed_packets": 4,
                    "worst_deadline_miss": 0.1,
                    "delay": {"count": 4, "mean": 2.0, "min": 1.0,
                              "max": 3.0, "quantiles": {"0.99": 3.0}},
                }},
                "link": {"rate": 100.0, "bytes_sent": 50, "busy_time": 1.0,
                         "utilization": 0.5},
                "pacing": {"time_scale": 1.0, "max_lag": 0.1,
                           "sim_clock": 2.0},
                "shard": {"index": 0},
                "flight_recorder": {"capacity": 8, "recorded": 1,
                                    "dropped": 0,
                                    "events": [{"time": 2.0, "kind": "a"}]},
            },
            {
                "enabled": True,
                "counters": {"packets": 32},
                "classes": {"gold": {
                    "enqueued_packets": 7, "departed_packets": 6,
                    "worst_deadline_miss": 0.4,
                    "delay": {"count": 6, "mean": 4.0, "min": 0.5,
                              "max": 9.0, "quantiles": {"0.99": 8.0}},
                }},
                "link": {"rate": 300.0, "bytes_sent": 150, "busy_time": 2.0,
                         "utilization": 0.9},
                "pacing": {"time_scale": 1.0, "max_lag": 0.3,
                           "sim_clock": 1.5},
                "shard": {"index": 1},
                "flight_recorder": {"capacity": 8, "recorded": 1,
                                    "dropped": 0,
                                    "events": [{"time": 1.0, "kind": "b"}]},
            },
        ]
        merged = merge_snapshots(docs)
        assert merged["merged_from"] == 2
        assert merged["counters"]["packets"] == 42
        gold = merged["classes"]["gold"]
        assert gold["enqueued_packets"] == 12
        assert gold["worst_deadline_miss"] == 0.4
        assert gold["delay"]["count"] == 10
        assert gold["delay"]["mean"] == pytest.approx(3.2)  # weighted
        assert gold["delay"]["min"] == 0.5 and gold["delay"]["max"] == 9.0
        assert gold["delay"]["quantiles"]["0.99"] == 8.0  # upper bound
        assert merged["link"]["rate"] == 400.0
        assert merged["link"]["utilization"] == pytest.approx(0.8)  # weighted
        assert merged["pacing"]["max_lag"] == 0.3
        assert merged["pacing"]["sim_clock"] == 2.0
        events = merged["flight_recorder"]["events"]
        assert [e["time"] for e in events] == [1.0, 2.0]  # interleaved
        assert [e["shard"] for e in events] == [1, 0]
        assert merged["shards"] == [0, 1]

    def test_empty(self):
        assert merge_snapshots([])["merged_from"] == 0


class TestTornCheckpointFallback:
    def test_restart_refuses_torn_checkpoint_falls_back_to_prev(self, tmp_path):
        """A worker killed between its periodic checkpoint rotation and
        the manifest re-pin leaves the newest envelope unvouched for.
        The restart-resume selection must refuse it and hand back the
        previous good (manifest-pinned) envelope, which must actually
        restore -- losing at most the last cadence, never resuming from
        bytes nobody vouched for."""
        from repro.persist.manifest import update_manifest_shard
        from repro.serve.service import ServeService

        link_rate = 60_000.0
        snaps = tmp_path / "snaps"
        snaps.mkdir()
        manager = make_manager(tmp_path, snapshot_dir=str(snaps),
                               supervise=True)
        path = str(snaps / shard_snapshot_name(0))

        # A shard-0 stand-in running the real checkpoint machinery.
        service = ServeService(split_specs(link_rate), link_rate,
                               watchdog_period=0)
        service.snapshot_path = path
        service.on_checkpoint = lambda p: update_manifest_shard(
            str(snaps), 0, ring_params=manager.ring.params(),
            backend="hfsc", link_rate=link_rate,
        )
        service.checkpoint()  # cadence 1: envelope written, manifest re-pinned
        vouched = json.load(open(path))["checksum"]

        # A live mutation, then the crash window: the rotation completes
        # but the process dies before the manifest re-pin runs.
        service.scheduler.add_class(
            "silver", sc=ServiceCurve.linear(0.1 * link_rate)
        )
        service.on_checkpoint = lambda p: None  # SIGKILL right here
        service.checkpoint()  # cadence 2: rotated, never re-pinned

        torn = json.load(open(path))["checksum"]
        assert torn != vouched
        manifest = json.load(open(snaps / "manifest.json"))
        assert manifest["snapshots"][0]["checksum"] == vouched

        chosen = manager.select_restart_resume(0)
        assert chosen == path + ".prev"
        assert json.load(open(chosen))["checksum"] == vouched

        # The fallback envelope restores into a clean replacement worker:
        # one cadence old (no silver yet), but complete and consistent.
        replacement = ServeService(split_specs(link_rate), link_rate,
                                   watchdog_period=0)
        replacement.restore_snapshot(chosen)
        assert replacement.resumed_from == chosen
        restored = set(replacement.scheduler._classes)
        assert "gold" in restored and "bronze" in restored
        assert "silver" not in restored

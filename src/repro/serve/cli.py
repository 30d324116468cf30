"""CLI entry points for the serving subsystem.

``repro serve``  -- run a scheduler backend as a long-lived wall-clock
service (UDP / unix-datagram ingress, JSON control socket, PR-4 snapshot
on SIGTERM).

``repro load``   -- open-loop load generator against a running service;
prints a JSON report (goodput per class, loss, latency quantiles).

``repro ctl``    -- send one control-plane request line and print the
response (the scriptable face of the control socket).

``repro scenarios`` -- list every canned scenario name across the
subsystems with a one-line description.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import socket as socket_module
import sys
from typing import Any, Dict, List, Optional

from repro.core.errors import ReproError
from repro.core.flatstate import kernel_info
from repro.serve.hierarchy import (
    HIERARCHY_PRESETS,
    SCHEDULER_BACKENDS,
    hierarchy_from_file,
    hierarchy_preset,
)


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--hierarchy", default="campus", metavar="PRESET|FILE.json",
        help="class tree: a preset name (campus/e4/split) or a JSON file "
             "(default: campus)",
    )
    parser.add_argument(
        "--link-rate", type=float, default=45e6 / 8,
        help="link rate in bytes/second (default: 45 Mbit/s, the paper's "
             "T3 link)",
    )
    parser.add_argument(
        "--scheduler", "--backend", choices=SCHEDULER_BACKENDS,
        default="hfsc", dest="scheduler",
        help="scheduler backend (default: hfsc)",
    )
    parser.add_argument(
        "--overload-policy", default="raise",
        help="H-FSC overload policy: raise/reject/scale-rt/linkshare-only "
             "(default: raise; the edge absorbs 'raise' as shedding)",
    )
    parser.add_argument(
        "--time-scale", type=float, default=1.0,
        help="wall seconds per simulated second; 0 = hybrid (as fast as "
             "possible, digest-identical to the simulator; needs "
             "--duration) (default: 1.0)",
    )
    parser.add_argument(
        "--udp", metavar="HOST:PORT", default=None,
        help="bind a UDP ingress socket (e.g. 127.0.0.1:9000)",
    )
    parser.add_argument(
        "--ingress-unix", metavar="PATH", default=None,
        help="bind a unix-datagram ingress socket",
    )
    parser.add_argument(
        "--control", metavar="PATH", default=None,
        help="bind the JSON control plane on this unix stream socket",
    )
    parser.add_argument(
        "--buffer-pkts", type=int, default=256,
        help="per-class edge buffer in packets (default: 256)",
    )
    parser.add_argument(
        "--watchdog-period", type=float, default=0.25,
        help="invariant-check period in simulated seconds; 0 disables "
             "(default: 0.25)",
    )
    parser.add_argument(
        "--telemetry", action="store_true",
        help="enable the PR-3 telemetry hub for the lifetime of the service",
    )
    parser.add_argument(
        "--snapshot", metavar="PATH", default=None,
        help="write a crash-safe snapshot here on SIGTERM/SIGINT and on "
             "the 'shutdown' control op",
    )
    parser.add_argument(
        "--resume", metavar="PATH", default=None,
        help="restore scheduler/queue/clock state from a snapshot before "
             "serving (with --shards N: the snapshot directory or its "
             "manifest.json)",
    )
    parser.add_argument(
        "--duration", type=float, default=None,
        help="serve this many simulated seconds then exit (default: until "
             "signalled)",
    )
    parser.add_argument(
        "--summary", metavar="PATH", default=None,
        help="write the exit summary JSON here ('-' = stdout, the default)",
    )
    parser.add_argument(
        "--shards", type=int, default=1,
        help="run this many worker processes, each serving 1/N of the "
             "link with flows pinned by consistent hash (default: 1 = "
             "the single-process service)",
    )
    parser.add_argument(
        "--replicas", type=int, default=None,
        help="consistent-hash virtual nodes per shard (default: 64)",
    )
    parser.add_argument(
        "--salt", default=None,
        help="consistent-hash salt; senders must use the same "
             "(default: repro-shard-v1)",
    )
    parser.add_argument(
        "--snapshot-dir", metavar="DIR", default=None,
        help="cluster mode: each worker snapshots to DIR/shard-<i>.snap "
             "on SIGTERM/shutdown, bound by DIR/manifest.json",
    )
    parser.add_argument(
        "--workdir", metavar="DIR", default=None,
        help="cluster mode: where worker summary files land (default: a "
             "fresh temp dir)",
    )
    parser.add_argument(
        "--checkpoint-every", type=float, default=None, metavar="SECONDS",
        help="cluster mode: each worker snapshots on this wall-clock "
             "cadence into --snapshot-dir (manifest re-pinned atomically "
             "per shard); restarts resume from the last checkpoint",
    )
    parser.add_argument(
        "--no-supervise", action="store_true",
        help="cluster mode: disable the supervisor (no heartbeats, no "
             "automatic restart of dead workers -- the PR-8 behaviour)",
    )
    parser.add_argument(
        "--restart-policy", choices=("continue-degraded", "halt-cluster"),
        default="continue-degraded",
        help="what to do when a shard crash-loops past --max-restarts: "
             "keep serving the surviving shards or stop the whole "
             "cluster (default: continue-degraded)",
    )
    parser.add_argument(
        "--max-restarts", type=int, default=5,
        help="restarts allowed per shard within --restart-window before "
             "it is marked failed (default: 5)",
    )
    parser.add_argument(
        "--restart-window", type=float, default=30.0,
        help="sliding window in seconds for --max-restarts (default: 30)",
    )
    parser.add_argument(
        "--chaos-kill", metavar="SPEC", default=None,
        help="cluster chaos: SIGKILL live workers on a seeded schedule, "
             "e.g. 'count=2,start=5,span=10,seed=7' (all fields "
             "optional); the supervisor must bring them back",
    )


def _parse_hostport(value: str) -> Any:
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise ReproError(f"expected HOST:PORT, got {value!r}")
    return host, int(port)


def _resolve_hierarchy(args):
    """(specs, backend, overload_policy) from preset or file, updating
    ``args.link_rate`` when the file pins one."""
    if args.hierarchy in HIERARCHY_PRESETS:
        specs = hierarchy_preset(args.hierarchy, args.link_rate)
        backend = args.scheduler
        overload_policy = args.overload_policy
    else:
        config = hierarchy_from_file(args.hierarchy)
        specs = config["specs"]
        link_rate = config["link_rate"]
        if link_rate is not None:
            args.link_rate = link_rate
        backend = config["scheduler"] or args.scheduler
        overload_policy = config["overload_policy"] or args.overload_policy
    return specs, backend, overload_policy


def _build_service(args):
    from repro.serve.service import ServeService

    specs, backend, overload_policy = _resolve_hierarchy(args)
    return ServeService(
        specs,
        args.link_rate,
        backend=backend,
        overload_policy=overload_policy,
        time_scale=args.time_scale,
        buffer_packets=args.buffer_pkts,
        watchdog_period=args.watchdog_period,
    )


async def _serve_async(args, service) -> Dict[str, Any]:
    bound: List[str] = []
    if args.udp:
        host, port = _parse_hostport(args.udp)
        sockname = await service.start_udp(host, port)
        bound.append(f"udp://{sockname[0]}:{sockname[1]}")
    if args.ingress_unix:
        await service.start_unix_datagram(args.ingress_unix)
        bound.append(f"unix-dgram://{args.ingress_unix}")
    if args.control:
        await service.start_control(args.control)
        bound.append(f"ctl://{args.control}")
    print(
        f"repro serve: backend={service.backend} "
        f"link_rate={service.link.rate:g} B/s "
        f"time_scale={service.driver.time_scale:g} "
        f"kernel={'compiled' if kernel_info()['compiled'] else 'pure'} "
        + " ".join(bound),
        file=sys.stderr, flush=True,
    )
    await service.run(duration=args.duration)
    return service.summary()


def _build_manager(args):
    from repro.serve.cluster import KillSchedule, ShardManager
    from repro.serve.shard import DEFAULT_REPLICAS, DEFAULT_SALT

    specs, backend, overload_policy = _resolve_hierarchy(args)
    if not args.control:
        raise ReproError(
            "--shards needs --control PATH (the front-end binds PATH, "
            "worker i binds PATH.<i>)"
        )
    if args.checkpoint_every is not None and not args.snapshot_dir:
        raise ReproError("--checkpoint-every needs --snapshot-dir DIR")
    chaos = (
        KillSchedule.parse(args.chaos_kill, args.shards)
        if args.chaos_kill else None
    )
    udp = _parse_hostport(args.udp) if args.udp else None
    return ShardManager(
        specs,
        args.link_rate,
        args.shards,
        control=args.control,
        backend=backend,
        overload_policy=overload_policy,
        time_scale=args.time_scale,
        buffer_packets=args.buffer_pkts,
        watchdog_period=args.watchdog_period,
        telemetry=args.telemetry,
        udp=udp,
        unix=args.ingress_unix,
        snapshot_dir=args.snapshot_dir,
        resume=args.resume,
        duration=args.duration,
        workdir=args.workdir,
        replicas=(args.replicas if args.replicas else DEFAULT_REPLICAS),
        salt=(args.salt if args.salt else DEFAULT_SALT),
        supervise=not args.no_supervise,
        checkpoint_every=args.checkpoint_every,
        restart_policy=args.restart_policy,
        max_restarts=args.max_restarts,
        restart_window=args.restart_window,
        chaos=chaos,
    )


def _cluster_serve_command(args) -> int:
    import contextlib

    from repro.obs.core import telemetry_session

    try:
        manager = _build_manager(args)
        print(
            f"repro serve: cluster shards={manager.shards} "
            f"backend={manager.backend} "
            f"aggregate_link_rate={manager.link_rate:g} B/s "
            f"supervise={'on' if manager.supervisor else 'off'} "
            f"ctl://{manager.control}",
            file=sys.stderr, flush=True,
        )
        # Workers enable their own hubs; this session is for the
        # front-end's cluster.* counters and per-shard state gauges.
        session = (
            telemetry_session(record_packets=False)
            if args.telemetry else contextlib.nullcontext()
        )
        with session:
            summary = asyncio.run(manager.run())
    except ReproError as exc:
        print(f"repro serve: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(summary, indent=2, default=str)
    if args.summary and args.summary != "-":
        with open(args.summary, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"summary written to {args.summary}", file=sys.stderr)
    else:
        print(text)
    # Worst worker wins: 1 = watchdog violations, 2 = config/bind error;
    # a signal-killed worker (negative) reads as an error too.
    codes = [2 if code < 0 else code for code in summary.get("exit_codes", [])]
    return max(codes, default=0)


def serve_command(args) -> int:
    import contextlib

    from repro.obs.core import telemetry_session

    if getattr(args, "shards", 1) > 1:
        return _cluster_serve_command(args)
    try:
        service = _build_service(args)
        service.snapshot_path = args.snapshot
        if args.resume:
            service.restore_snapshot(args.resume)
        session = (
            telemetry_session(record_packets=False)
            if args.telemetry else contextlib.nullcontext()
        )
        with session:
            summary = asyncio.run(_serve_async(args, service))
    except ReproError as exc:
        print(f"repro serve: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(summary, indent=2, default=str)
    if args.summary and args.summary != "-":
        with open(args.summary, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"summary written to {args.summary}", file=sys.stderr)
    else:
        print(text)
    violations = (summary.get("watchdog") or {}).get("violations", [])
    return 1 if violations else 0


def add_load_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "target", metavar="HOST:PORT|PATH",
        help="the service's ingress socket (UDP host:port or unix path)",
    )
    parser.add_argument(
        "--classes", default=None, metavar="A,B,...",
        help="comma-separated leaf classes to offer to (default: the "
             "campus preset's leaves)",
    )
    parser.add_argument(
        "--flows", type=int, default=32,
        help="number of flows, spread round-robin over the classes "
             "(default: 32)",
    )
    parser.add_argument(
        "--rate", type=float, default=1000.0,
        help="aggregate packets/second across all flows (default: 1000)",
    )
    parser.add_argument(
        "--size", type=int, default=256,
        help="datagram (= charged packet) size in bytes (default: 256)",
    )
    parser.add_argument(
        "--process", choices=("poisson", "cbr", "onoff", "trace"),
        default="poisson",
        help="per-flow arrival process (default: poisson)",
    )
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="arrival-offset trace for --process trace (one float per "
             "line; # comments ignored)",
    )
    parser.add_argument(
        "--duration", type=float, default=5.0,
        help="send window in wall seconds (default: 5)",
    )
    parser.add_argument(
        "--drain", type=float, default=1.0,
        help="linger after sending to collect stragglers (default: 1)",
    )
    parser.add_argument("--seed", type=int, default=1, help="schedule seed")
    parser.add_argument(
        "--expected", metavar="CLASS=SHARE,...", default=None,
        help="expected steady-window byte-share weights (ratios only); "
             "the report normalizes each class's share by these and "
             "computes Jain's index over the ratios (default: equal)",
    )
    parser.add_argument(
        "--report", metavar="PATH", default=None,
        help="write the JSON report here ('-' = stdout, the default)",
    )
    parser.add_argument(
        "--shards", type=int, default=1,
        help="target is the cluster's base address: send each flow to "
             "its consistent-hash shard (UDP port base+i / unix PATH.i; "
             "default: 1 = single service)",
    )
    parser.add_argument(
        "--replicas", type=int, default=None,
        help="consistent-hash virtual nodes per shard -- must match the "
             "cluster (default: 64)",
    )
    parser.add_argument(
        "--salt", default=None,
        help="consistent-hash salt -- must match the cluster "
             "(default: repro-shard-v1)",
    )


def load_command(args) -> int:
    from repro.core.hierarchy import figure1_hierarchy
    from repro.serve.hierarchy import leaf_names
    from repro.serve.loadgen import (
        LoadGenerator,
        read_trace,
        run_load,
        run_load_cluster,
    )

    if args.classes:
        classes = [c.strip() for c in args.classes.split(",") if c.strip()]
    else:
        classes = leaf_names(figure1_hierarchy())
    expected = None
    if args.expected:
        expected = {}
        for item in args.expected.split(","):
            name, sep, share = item.partition("=")
            try:
                if not sep:
                    raise ValueError
                expected[name.strip()] = float(share)
            except ValueError:
                print(
                    f"repro load: --expected wants CLASS=SHARE, got {item!r}",
                    file=sys.stderr,
                )
                return 2
    try:
        trace = read_trace(args.trace) if args.trace else None
        if args.process == "trace" and trace is None:
            raise ReproError("--process trace needs --trace FILE")
        ring = None
        if args.shards > 1:
            from repro.serve.shard import (
                DEFAULT_REPLICAS,
                DEFAULT_SALT,
                ShardRing,
            )

            ring = ShardRing(
                args.shards,
                args.replicas if args.replicas else DEFAULT_REPLICAS,
                args.salt if args.salt else DEFAULT_SALT,
            )
        generator = LoadGenerator(
            classes,
            flows=args.flows,
            rate=args.rate,
            size=args.size,
            process=args.process,
            duration=args.duration,
            seed=args.seed,
            trace=trace,
            ring=ring,
            expected=expected,
        )
        if ring is not None:
            from repro.serve.cluster import shard_targets

            if "/" in args.target or os.path.exists(args.target):
                targets = shard_targets(args.shards, unix=args.target)
            else:
                targets = shard_targets(
                    args.shards, udp=_parse_hostport(args.target)
                )
            report = asyncio.run(run_load_cluster(targets, generator,
                                                  drain=args.drain))
        else:
            report = asyncio.run(run_load(args.target, generator,
                                          drain=args.drain))
    except ReproError as exc:
        print(f"repro load: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"repro load: cannot reach {args.target}: {exc}",
              file=sys.stderr)
        return 2
    text = json.dumps(report, indent=2)
    if args.report and args.report != "-":
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"report written to {args.report}")
        print(
            f"sent={report['sent']} received={report['received']} "
            f"loss={report['loss_frac']:.2%} "
            f"p99_wall={report['latency_wall']['p99'] * 1e3:.2f}ms "
            f"jain={report['fairness']['jain']:.4f}"
        )
    else:
        print(text)
    return 0


def add_ctl_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "socket", metavar="PATH",
        help="the service's control socket",
    )
    parser.add_argument(
        "request", nargs="?", default=None,
        help="one JSON request line, or a bare op name as shorthand "
             "('health' = '{\"op\": \"health\"}'); default: read lines "
             "from stdin",
    )
    parser.add_argument(
        "--timeout", type=float, default=10.0,
        help="seconds to wait for each response (default: 10)",
    )


def _expand_ctl_shorthand(line: str) -> str:
    """A bare op token (``health``, ``stats``, ...) becomes a request."""
    token = line.strip()
    if token and not token.startswith("{"):
        return json.dumps({"op": token})
    return line


def ctl_command(args) -> int:
    lines: List[str]
    if args.request is not None:
        lines = [_expand_ctl_shorthand(args.request)]
    else:
        lines = [
            _expand_ctl_shorthand(line)
            for line in sys.stdin.read().splitlines() if line.strip()
        ]
    if not lines:
        print("repro ctl: no request given", file=sys.stderr)
        return 2
    failed = 0
    try:
        with socket_module.socket(
            socket_module.AF_UNIX, socket_module.SOCK_STREAM
        ) as sock:
            sock.settimeout(args.timeout)
            sock.connect(args.socket)
            reader = sock.makefile("rb")
            for line in lines:
                sock.sendall(line.encode("utf-8") + b"\n")
                response = reader.readline()
                if not response:
                    print("repro ctl: connection closed by service",
                          file=sys.stderr)
                    return 1
                text = response.decode("utf-8").strip()
                print(text)
                try:
                    if not json.loads(text).get("ok", False):
                        failed += 1
                except json.JSONDecodeError:
                    failed += 1
    except OSError as exc:
        print(f"repro ctl: cannot reach {args.socket}: {exc}", file=sys.stderr)
        return 2
    return 1 if failed else 0


def _first_doc_line(obj: Any, fallback: str = "") -> str:
    doc = getattr(obj, "__doc__", None) or ""
    for line in doc.strip().splitlines():
        line = line.strip()
        if line:
            return line.rstrip(".")
    return fallback


def scenarios_command(args) -> int:
    """List every canned scenario across the subsystems."""
    from repro.obs.scenarios import SCENARIOS as LIVE_SCENARIOS
    from repro.obs.scenarios import build_scenario
    from repro.persist.scenarios import DRIVE_SETUPS, RUNTIME_SETUPS

    print("checkpointable scenarios (repro run <name>, golden digests):")
    for name in sorted(DRIVE_SETUPS):
        print(f"  {name:18} {_first_doc_line(DRIVE_SETUPS[name])}")
    for name in sorted(RUNTIME_SETUPS):
        print(f"  {name:18} {_first_doc_line(RUNTIME_SETUPS[name])}")
    print("live telemetry scenarios (repro stats/top --scenario):")
    for name in LIVE_SCENARIOS:
        scenario = build_scenario(name)
        desc = scenario.description or _first_doc_line(scenario)
        print(f"  {name:18} {desc}")
    print("serve hierarchy presets (repro serve --hierarchy):")
    for name, (desc, _) in sorted(HIERARCHY_PRESETS.items()):
        print(f"  {name:18} {desc}")
    return 0

"""Command-line interface: list and run the paper's experiments.

Usage::

    python -m repro list                 # experiment index
    python -m repro run E5               # one experiment, text report
    python -m repro run all --markdown   # everything, markdown
    python -m repro bench --compare      # tracked benches vs the baseline
    python -m repro chaos --runs 3       # seeded chaos sweep, all policies
    python -m repro stats --scenario e4  # telemetry snapshot of a live run
    python -m repro top --scenario chaos # live per-class terminal view
    python -m repro scenarios            # every canned scenario, one line each
    python -m repro verify --property all   # bounded-horizon verifier
    python -m repro serve --udp 127.0.0.1:9000 --control /tmp/repro.ctl
    python -m repro load 127.0.0.1:9000 --rate 2000
    python -m repro ctl /tmp/repro.ctl '{"op": "stats"}'
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List

from repro.experiments import run_all as runner
from repro.experiments.base import ExperimentResult


def _registry() -> Dict[str, object]:
    registry = {}
    for module in runner.ALL_EXPERIMENTS:
        short = module.__name__.rsplit(".", 1)[-1].split("_")[0].upper()
        registry[short] = module
    return registry


def _load_bench_harness():
    """Import ``benchmarks/baseline.py`` (not an installed package)."""
    import importlib.util

    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))),
        "benchmarks",
        "baseline.py",
    )
    if not os.path.exists(path):
        return None
    spec = importlib.util.spec_from_file_location("repro_bench_baseline", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_stats_command(args) -> int:
    from repro.obs import Sampler, build_scenario, to_csv, to_json, to_prometheus
    from repro.obs.core import telemetry_session

    with telemetry_session(record_packets=not args.no_packets,
                           capacity=args.ring):
        scenario = build_scenario(
            args.scenario, seed=args.seed,
            duration=args.duration, policy=args.policy,
        )
        sampler = Sampler(
            scenario.loop,
            scheduler=scenario.scheduler,
            link=scenario.link,
            period=args.sample_period,
            until=scenario.duration,
        )
        scenario.loop.run(until=scenario.duration)
        if scenario.finish is not None:
            scenario.finish()
        if args.format == "prometheus":
            text = to_prometheus(scheduler=scenario.scheduler,
                                 link=scenario.link)
        elif args.format == "csv":
            text = to_csv(sampler)
        else:
            text = to_json(
                sampler=sampler,
                scheduler=scenario.scheduler,
                link=scenario.link,
                recorder_tail=args.tail,
                include_series=args.series,
            )
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
        print(f"{args.format} stats written to {args.output}")
    else:
        print(text)
    return 0


def _run_top_command(args) -> int:
    from repro.obs import build_scenario, run_top
    from repro.obs.core import telemetry_session

    with telemetry_session():
        scenario = build_scenario(
            args.scenario, seed=args.seed,
            duration=args.duration, policy=args.policy,
        )
        run_top(
            scenario,
            refresh=args.refresh,
            wall_interval=args.interval,
        )
        if scenario.finish is not None:
            scenario.finish()
    return 0


def _add_scenario_arguments(parser, duration_help: str) -> None:
    from repro.obs.scenarios import SCENARIOS

    parser.add_argument(
        "--scenario", choices=SCENARIOS, default="chaos",
        help="which live scenario to observe (default: chaos)",
    )
    parser.add_argument("--seed", type=int, default=1, help="scenario seed")
    parser.add_argument(
        "--duration", type=float, default=None, help=duration_help
    )
    parser.add_argument(
        "--policy", default="raise",
        help="overload policy for the chaos scenario (default: raise)",
    )


def _run_chaos_command(args) -> int:
    from repro.core.hfsc import OVERLOAD_POLICIES
    from repro.sim.faults import run_chaos

    if args.policy == "all":
        policies = list(OVERLOAD_POLICIES)
    elif args.policy in OVERLOAD_POLICIES:
        policies = [args.policy]
    else:
        print(f"unknown policy {args.policy!r}; "
              f"expected one of {OVERLOAD_POLICIES} or 'all'", file=sys.stderr)
        return 2

    import contextlib

    from repro.obs.core import telemetry_session

    reports = []
    failed = 0
    for policy in policies:
        for offset in range(args.runs):
            seed = args.seed + offset
            # With --telemetry each run gets a fresh session so its
            # report's "telemetry" section (counters + flight-recorder
            # tail) covers exactly that run.
            session = (
                telemetry_session(record_packets=False)
                if args.telemetry
                else contextlib.nullcontext()
            )
            with session:
                result = run_chaos(seed, duration=args.duration, policy=policy)
                report = result.to_report()
            reports.append(report)
            violations = report["violations"]
            books = report["conservation"]
            status = "ok" if not violations and books["ok"] else "FAIL"
            if status == "FAIL":
                failed += 1
            print(
                f"chaos seed={seed} policy={policy:15} {status}  "
                f"served={len(result.served)} rejected={books['rejected']} "
                f"faults={len(report['faults_applied'])} "
                f"violations={len(violations)}"
            )
            for violation in violations:
                print(f"  - [{violation['kind']}] t={violation['time']:g} "
                      f"{violation['detail']}", file=sys.stderr)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump({"runs": reports, "failed": failed}, fh, indent=2)
        print(f"report written to {args.report}")
    return 1 if failed else 0


def main(argv: List[str] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # ``bench`` owns its own argparse (benchmarks/baseline.py); hand the
    # remaining argv straight through so --compare/--quick/etc. work.
    if argv and argv[0] == "bench":
        harness = _load_bench_harness()
        if harness is None:
            print("benchmarks/baseline.py not found (source checkout only)",
                  file=sys.stderr)
            return 2
        return harness.main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="repro",
        description="H-FSC reproduction: run the paper's experiments",
    )
    from repro import __version__

    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list all experiments")
    run_parser = subparsers.add_parser(
        "run", help="run experiment(s) or a checkpointable scenario"
    )
    run_parser.add_argument(
        "experiment",
        help="experiment id (e.g. E5), 'all', or a checkpointable "
             "scenario name (e.g. e4_phases; see 'list')",
    )
    run_parser.add_argument(
        "--markdown", action="store_true", help="emit markdown tables"
    )
    run_parser.add_argument(
        "--backend", choices=("tree", "calendar", "heap"), default="tree",
        help="H-FSC eligible-set backend for checkpointable scenarios",
    )
    run_parser.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="write crash-safe snapshots here (atomic tmp+rename)",
    )
    run_parser.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help="checkpoint every N events (drive scenarios: every N packets)",
    )
    run_parser.add_argument(
        "--resume", metavar="FILE", default=None,
        help="restore from a snapshot file and continue the run",
    )
    run_parser.add_argument(
        "--crash-at", metavar="SPEC", default=None,
        help="kill the run at a crash point: event:K, packet:K or time:T "
             "(writes the checkpoint, exits 3)",
    )
    run_parser.add_argument(
        "--digest-out", metavar="PATH", default=None,
        help="write the finished run's departure-schedule digest here",
    )
    subparsers.add_parser(
        "bench", help="run the tracked benchmark set (see --help of 'bench')"
    )
    chaos_parser = subparsers.add_parser(
        "chaos", help="seeded chaos-injection sweep over the overload policies"
    )
    chaos_parser.add_argument("--seed", type=int, default=1, help="first seed")
    chaos_parser.add_argument(
        "--runs", type=int, default=1, help="number of seeds per policy"
    )
    chaos_parser.add_argument(
        "--duration", type=float, default=2.0, help="simulated seconds per run"
    )
    chaos_parser.add_argument(
        "--policy",
        default="all",
        help="overload policy to exercise, or 'all' (default)",
    )
    chaos_parser.add_argument(
        "--report", metavar="PATH", default=None,
        help="write the full JSON report (violations, fault logs) here",
    )
    chaos_parser.add_argument(
        "--telemetry", action="store_true",
        help="run with telemetry enabled; reports gain a 'telemetry' "
             "section (counters + flight-recorder tail)",
    )
    chaos_parser.add_argument(
        "--replay", metavar="REPORT.json", default=None,
        help="re-run the failing runs from a prior --report file and "
             "compare departure-schedule digests",
    )

    stats_parser = subparsers.add_parser(
        "stats", help="run a live scenario with telemetry and export metrics"
    )
    _add_scenario_arguments(
        stats_parser, "simulated seconds (default: scenario-specific)"
    )
    stats_parser.add_argument(
        "--format", choices=("json", "prometheus", "csv"), default="json",
        help="export format (default: json)",
    )
    stats_parser.add_argument(
        "--output", metavar="PATH", default=None,
        help="write the export here instead of stdout ('-' = stdout)",
    )
    stats_parser.add_argument(
        "--sample-period", type=float, default=0.1,
        help="sampler period in simulated seconds (default: 0.1)",
    )
    stats_parser.add_argument(
        "--ring", type=int, default=4096,
        help="flight-recorder capacity in events (default: 4096)",
    )
    stats_parser.add_argument(
        "--tail", type=int, default=64,
        help="flight-recorder events in the JSON export (default: 64)",
    )
    stats_parser.add_argument(
        "--series", action="store_true",
        help="include the full per-class sampler timeseries in the JSON",
    )
    stats_parser.add_argument(
        "--no-packets", action="store_true",
        help="keep per-packet events out of the flight recorder",
    )

    top_parser = subparsers.add_parser(
        "top", help="live per-class terminal view of a running scenario"
    )
    _add_scenario_arguments(
        top_parser, "simulated seconds to run (default: scenario-specific)"
    )
    top_parser.add_argument(
        "--refresh", type=float, default=0.1,
        help="simulated seconds per frame (default: 0.1)",
    )
    top_parser.add_argument(
        "--interval", type=float, default=0.25,
        help="wall-clock seconds between frames (default: 0.25; 0 = as "
             "fast as the simulation runs)",
    )
    from repro.serve import cli as serve_cli

    serve_parser = subparsers.add_parser(
        "serve", help="run a scheduler backend as a wall-clock service"
    )
    serve_cli.add_serve_arguments(serve_parser)
    load_parser = subparsers.add_parser(
        "load", help="open-loop load generator against a running service"
    )
    serve_cli.add_load_arguments(load_parser)
    ctl_parser = subparsers.add_parser(
        "ctl", help="send JSON control requests to a running service"
    )
    serve_cli.add_ctl_arguments(ctl_parser)
    subparsers.add_parser(
        "scenarios", help="list every canned scenario with a description"
    )
    from repro.verify import cli as verify_cli

    verify_parser = subparsers.add_parser(
        "verify", help="bounded-horizon verifier: hunt for guarantee "
                       "violations and replay witnesses"
    )
    verify_cli.add_verify_arguments(verify_parser)

    args = parser.parse_args(argv)

    if args.command == "verify":
        return verify_cli.verify_command(args)

    if args.command == "serve":
        return serve_cli.serve_command(args)
    if args.command == "load":
        return serve_cli.load_command(args)
    if args.command == "ctl":
        return serve_cli.ctl_command(args)
    if args.command == "scenarios":
        return serve_cli.scenarios_command(args)
    if args.command == "chaos":
        if args.replay:
            from repro.persist.cli import replay_chaos_command

            return replay_chaos_command(args)
        return _run_chaos_command(args)
    if args.command == "stats":
        return _run_stats_command(args)
    if args.command == "top":
        return _run_top_command(args)

    registry = _registry()

    if args.command == "list":
        for short, module in registry.items():
            doc = (module.__doc__ or "").strip().splitlines()[0]
            print(f"{short:5} {doc}")
        from repro.persist.cli import scenario_names

        print("checkpointable scenarios (run with --checkpoint-every/"
              "--resume/--crash-at):")
        for name in scenario_names():
            print(f"      {name}")
        return 0

    # Checkpointable scenarios route to the persistence runner, either by
    # name or because a checkpoint flag was given.
    persist_flags = (args.checkpoint, args.checkpoint_every, args.resume,
                     args.crash_at, args.digest_out)
    from repro.persist.cli import run_scenario_command, scenario_names

    if args.experiment in scenario_names() or any(
        flag is not None for flag in persist_flags
    ):
        return run_scenario_command(args)

    if args.experiment.lower() == "all":
        return runner.main(["--markdown"] if args.markdown else [])
    key = args.experiment.upper()
    if key not in registry:
        print(f"unknown experiment {args.experiment!r}; try 'list'",
              file=sys.stderr)
        return 2
    result: ExperimentResult = registry[key].run()
    print(runner.to_markdown(result) if args.markdown else result.summary())
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())

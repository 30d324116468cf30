"""CLI entry points for checkpoint/restore runs and chaos replay.

``python -m repro run`` dispatches here when the target is a
checkpointable scenario (:data:`~repro.persist.scenarios.DRIVE_SETUPS` /
:data:`~repro.persist.scenarios.RUNTIME_SETUPS`) or when any of the
checkpoint flags are present::

    python -m repro run e4_phases --checkpoint-every 2000 --checkpoint ck.json
    python -m repro run e4_phases --resume ck.json --digest-out digest.txt
    python -m repro run eventloop_mixed --crash-at event:500 --checkpoint ck.json

Exit codes: 0 = run completed; 3 = run stopped at a crash point or a
signal-requested checkpoint with the snapshot written (resume with
``--resume``); 2 = usage error.  ``python -m repro chaos --replay
REPORT.json`` re-runs the failing runs recorded in a prior ``--report``
file and compares departure-schedule digests.
"""

from __future__ import annotations

import json
import sys
from typing import Any, List, Optional, Tuple

from repro.core.errors import SnapshotError
from repro.persist.codec import load_snapshot, save_snapshot
from repro.persist.harness import (
    DriveRun,
    Row,
    SignalCheckpointRequest,
    run_checkpointed,
    schedule_digest,
)
from repro.persist.scenarios import DRIVE_SETUPS, RUNTIME_SETUPS
from repro.sim.faults import CrashPoint

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CHECKPOINTED = 3


def scenario_names() -> List[str]:
    return sorted(DRIVE_SETUPS) + sorted(RUNTIME_SETUPS)


def _emit_digest(rows: List[Row], path: Optional[str]) -> str:
    digest = schedule_digest(rows)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(digest + "\n")
    return digest


def _run_drive(name: str, args) -> int:
    setup = DRIVE_SETUPS[name]
    sched, arrivals, until = setup()
    if args.resume:
        run = DriveRun.restore(load_snapshot(args.resume), arrivals)
        if run.until != until:
            raise SnapshotError(
                "snapshot horizon does not match the scenario",
                reason="scenario-mismatch",
            )
        print(f"resumed {name!r} at t={run.now:g} "
              f"({run.served_count} packets already served)")
    else:
        run = DriveRun(sched, arrivals, until)

    crash_packet = None
    if args.crash_at:
        crash = CrashPoint.parse(args.crash_at)
        if crash.at_event is None or not args.crash_at.startswith("packet:"):
            print("drive scenarios only support packet:K crash points "
                  "(the drive loop has no event clock)", file=sys.stderr)
            return EXIT_USAGE
        crash_packet = crash.at_event

    every = args.checkpoint_every

    def write_checkpoint() -> None:
        if args.checkpoint:
            save_snapshot(args.checkpoint, run.snapshot_body())

    signal_request = None
    if args.checkpoint and every:
        # Signals are only honoured at chunk boundaries, so they need a
        # checkpoint cadence to create boundaries in the first place.
        signal_request = SignalCheckpointRequest().install()
    try:
        while True:
            targets = []
            if every:
                targets.append((run.served_count // every + 1) * every)
            if crash_packet is not None and crash_packet > run.served_count:
                targets.append(crash_packet)
            finished = run.run(max_served=min(targets) if targets else None)
            write_checkpoint()
            if finished:
                break
            if crash_packet is not None and run.served_count >= crash_packet:
                if not args.checkpoint:
                    print("--crash-at without --checkpoint loses the run",
                          file=sys.stderr)
                    return EXIT_USAGE
                digest = _emit_digest(run.rows, None)
                print(f"crashed {name!r} after {run.served_count} packets; "
                      f"checkpoint written to {args.checkpoint} "
                      f"(partial digest {digest[:16]}...)")
                return EXIT_CHECKPOINTED
            if signal_request is not None and signal_request.requested:
                print(f"signal: stopped {name!r} after {run.served_count} "
                      f"packets; checkpoint written to {args.checkpoint}")
                return EXIT_CHECKPOINTED
    finally:
        if signal_request is not None:
            signal_request.uninstall()

    digest = _emit_digest(run.rows, args.digest_out)
    print(f"{name!r} finished: {run.served_count} packets, "
          f"digest {digest}")
    return EXIT_OK


def _runtime_recorder_rows(ctx) -> List[Row]:
    try:
        recorder = ctx.component("recorder")
    except KeyError:
        return []
    return [
        (r.class_id, r.size, r.departed, r.via_realtime)
        for r in recorder.records
    ]


def _run_runtime(name: str, args) -> int:
    setup = RUNTIME_SETUPS[name]
    ctx, until = setup()
    if args.resume:
        ctx.restore_body(load_snapshot(args.resume))
        print(f"resumed {name!r} at t={ctx.loop.now:g} "
              f"({ctx.loop.events_processed} events already processed)")
    crash = CrashPoint.parse(args.crash_at) if args.crash_at else None
    if (crash or args.checkpoint_every) and not args.checkpoint:
        print("--crash-at/--checkpoint-every need --checkpoint PATH",
              file=sys.stderr)
        return EXIT_USAGE
    signal_request = None
    if args.checkpoint:
        signal_request = SignalCheckpointRequest().install()
    try:
        finished = run_checkpointed(
            ctx,
            until,
            checkpoint_path=args.checkpoint,
            every_events=args.checkpoint_every,
            crash=crash,
            signal_request=signal_request,
        )
    finally:
        if signal_request is not None:
            signal_request.uninstall()
    rows = _runtime_recorder_rows(ctx)
    if not finished:
        digest = schedule_digest(rows)
        print(f"stopped {name!r} at event {ctx.loop.events_processed} "
              f"(t={ctx.loop.now:g}); checkpoint written to "
              f"{args.checkpoint} (partial digest {digest[:16]}...)")
        return EXIT_CHECKPOINTED
    digest = _emit_digest(rows, args.digest_out)
    print(f"{name!r} finished: {len(rows)} packets recorded, "
          f"{ctx.loop.events_processed} events, digest {digest}")
    return EXIT_OK


def run_scenario_command(args) -> int:
    """``repro run`` for checkpointable scenarios."""
    name = args.experiment
    try:
        if name in DRIVE_SETUPS:
            return _run_drive(name, args)
        if name in RUNTIME_SETUPS:
            return _run_runtime(name, args)
    except SnapshotError as exc:
        print(f"snapshot refused [{exc.reason}]: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(
        f"unknown checkpointable scenario {name!r}; "
        f"expected one of {', '.join(scenario_names())}",
        file=sys.stderr,
    )
    return EXIT_USAGE


# -- chaos replay ------------------------------------------------------------


def _replay_counterexamples(docs: List[Any]) -> int:
    """Replay verifier counterexamples through the real scheduler."""
    from repro.core.errors import ConfigurationError
    from repro.verify.bridge import replay_counterexample

    exit_code = EXIT_OK
    for doc in docs:
        try:
            outcome = replay_counterexample(doc)
        except (ConfigurationError, KeyError, TypeError, ValueError) as exc:
            print(f"  malformed counterexample: {exc}", file=sys.stderr)
            exit_code = 1
            continue
        status = "ok" if outcome["reproduced"] else "FAIL"
        if status == "FAIL":
            exit_code = 1
        print(f"replay {outcome['property']:28} "
              f"scenario={outcome['scenario']:10} {status}  "
              f"measured={outcome['measured']:g} "
              f"predicted={outcome['predicted']:g} "
              f"(tolerance {outcome['tolerance']:g})")
        if status == "FAIL":
            print(f"  {outcome['detail']}", file=sys.stderr)
    return exit_code


def replay_chaos_command(args) -> int:
    """``repro chaos --replay FILE.json``: re-run recorded failures.

    Accepts two kinds of file.  A chaos ``--report`` file re-runs the
    failing runs (all runs when none failed) with the stored
    seed/policy/duration and compares the departure-schedule digest --
    a deterministic repro of exactly the run that failed, without
    hunting for its seed.  A verifier counterexample file (schema
    ``repro-verify-counterexample/v1``, single document or a
    ``{"counterexamples": [...]}`` bundle, as written by ``repro verify
    --emit-fixture``) replays the solver-found arrival trace through
    the real scheduler and checks the predicted violation reproduces.
    """
    from repro.sim.faults import run_chaos

    try:
        with open(args.replay, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"cannot read chaos report {args.replay!r}: {exc}",
              file=sys.stderr)
        return EXIT_USAGE
    if isinstance(data, dict):
        if data.get("schema") == "repro-verify-counterexample/v1":
            return _replay_counterexamples([data])
        if isinstance(data.get("counterexamples"), list):
            return _replay_counterexamples(data["counterexamples"])
    runs = data.get("runs") if isinstance(data, dict) else None
    if not isinstance(runs, list) or not runs:
        print(f"{args.replay!r} has no 'runs' list; was it written by "
              "'repro chaos --report' or 'repro verify --emit-fixture'?",
              file=sys.stderr)
        return EXIT_USAGE

    def run_failed(report: Any) -> bool:
        return bool(report.get("violations")) or not report.get(
            "conservation", {}).get("ok", True)

    targets = [r for r in runs if run_failed(r)]
    if targets:
        print(f"replaying {len(targets)} failing run(s) of {len(runs)}")
    else:
        targets = runs
        print(f"no failing runs recorded; replaying all {len(runs)}")

    exit_code = EXIT_OK
    for report in targets:
        try:
            seed = report["seed"]
            policy = report["policy"]
            duration = report["duration"]
            stored_digest = report["schedule_digest"]
        except (KeyError, TypeError):
            print("  malformed run entry (missing seed/policy/duration/"
                  "schedule_digest)", file=sys.stderr)
            exit_code = 1
            continue
        result = run_chaos(seed, duration=duration, policy=policy)
        fresh = result.to_report()
        digest_ok = fresh["schedule_digest"] == stored_digest
        still_failing = run_failed(fresh)
        status = "ok" if digest_ok and not still_failing else "FAIL"
        if status == "FAIL":
            exit_code = 1
        print(f"replay seed={seed} policy={policy:15} {status}  "
              f"digest={'match' if digest_ok else 'MISMATCH'} "
              f"violations={len(fresh['violations'])}")
        if not digest_ok:
            print(f"  stored  {stored_digest}", file=sys.stderr)
            print(f"  replay  {fresh['schedule_digest']}", file=sys.stderr)
        for violation in fresh["violations"]:
            print(f"  - [{violation['kind']}] t={violation['time']:g} "
                  f"{violation['detail']}", file=sys.stderr)
    return exit_code

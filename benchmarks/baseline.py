"""Benchmark-baseline harness: measure the hot path, persist, compare.

pytest-benchmark (``benchmarks/bench_*.py``) is great for interactive
profiling but leaves no durable record.  This runner executes a fixed set
of tracked benches -- the Section V substrate micro-benches plus the E9
whole-scheduler macro bench (packets/sec per scheduler at n classes) and a
link-sharing-descent stressor with an upper-limited sibling -- and writes
``BENCH_<date>.json`` under ``benchmarks/baselines/``.  Comparison mode
fails (exit 1) when any tracked bench regresses more than the tolerance
against a committed baseline, which is what keeps "O(log n) per packet"
an enforced property rather than a hope.

Usage (or via the CLI: ``python -m repro bench ...``)::

    PYTHONPATH=src python benchmarks/baseline.py                 # run + write
    PYTHONPATH=src python benchmarks/baseline.py --compare       # vs newest baseline
    PYTHONPATH=src python benchmarks/baseline.py --compare PATH  # vs specific file
    PYTHONPATH=src python benchmarks/baseline.py --quick         # CI smoke sizes

The JSON schema is documented in docs/PERFORMANCE.md.
"""

from __future__ import annotations

import argparse
import cProfile
import datetime
import fnmatch
import glob
import io
import json
import os
import platform
import pstats
import random
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import flatstate
from repro.core.curves import ServiceCurve
from repro.core.hfsc import HFSC
from repro.core.runtime_curves import RuntimeCurve
from repro.experiments import e9_overhead
from repro.sim.packet import Packet
from repro.util.heap import IndexedHeap

BASELINE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "baselines")
#: Schema 2 adds per-case ``batch_size`` and ``compiled`` keys so a
#: comparison can tell a code regression from a configuration change.
SCHEMA_VERSION = 2
DEFAULT_TOLERANCE = 0.15

MACRO_KINDS = ["FIFO", "WFQ", "H-PFQ", "H-FSC", "HLS"]
MACRO_SIZES = [16, 64, 256, 1024]
LS_UL_SIZES = [16, 64, 256, 1024]
#: Burst size the tracked e9 macro benches feed through the batched hot
#: path (``enqueue_batch`` / ``dequeue_batch``).  64 packets per burst is
#: the serving dataplane's typical coalescing window at high load; the
#: per-packet path stays covered by ``ls_select_ul`` (batch 1).
E9_BATCH = 64


# -- timing ------------------------------------------------------------------


def time_ops(work: Callable[[], int], repeats: int = 5) -> Tuple[float, int]:
    """Best-of-``repeats`` wall time for one call of ``work``.

    ``work`` returns the number of operations it performed; the best round
    (least interference) defines the reported ops/sec.  Five rounds rather
    than three: the fastest benches finish in a few milliseconds, where
    scheduler noise on a shared host easily exceeds the 15% comparison
    tolerance with fewer samples.
    """
    best = float("inf")
    ops = 0
    for _ in range(repeats):
        start = time.perf_counter()
        ops = work()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best, ops


# -- micro benches (mirror benchmarks/bench_micro.py) ------------------------


def bench_heap_update(rounds: int) -> Tuple[float, int]:
    rng = random.Random(0xBEEF)
    heap: IndexedHeap[int] = IndexedHeap()
    n = 1024
    for i in range(n):
        heap.push(i, rng.random())
    keys = [rng.random() for _ in range(rounds)]

    def work() -> int:
        for j, key in enumerate(keys):
            heap.update(j % n, key)
        return len(keys)

    return time_ops(work)


def bench_heap_push_pop(rounds: int) -> Tuple[float, int]:
    rng = random.Random(0xBEEF)
    n = 1024
    keys = [rng.random() for _ in range(n)]

    def work() -> int:
        total = 0
        for _ in range(max(1, rounds // n)):
            heap: IndexedHeap[int] = IndexedHeap()
            for i, key in enumerate(keys):
                heap.push(i, key)
            while heap:
                heap.pop()
            total += 2 * n
        return total

    return time_ops(work)


def bench_runtime_curve(rounds: int) -> Tuple[float, int]:
    spec = ServiceCurve(m1=2000.0, d=0.01, m2=1000.0)

    def work() -> int:
        curve = RuntimeCurve.from_spec(spec, 0.0, 0.0)
        t, c = 0.0, 0.0
        for _ in range(rounds):
            t += 0.02
            c += 15.0
            curve.min_with(spec, t, c)
            curve.inverse(c + 100.0)
        return 2 * rounds

    return time_ops(work)


# -- link-sharing descent with an upper-limited sibling ----------------------


def build_ls_ul_scheduler(n_classes: int) -> HFSC:
    """n link-sharing siblings, exactly one upper-limited.

    Real-time is disabled so every dequeue goes through the link-sharing
    descent; the one capped sibling forces the fit-time filter on.  Before
    the heap-order skip-scan this cost O(n log n) per dequeue at the root.
    """
    link = 1e9
    sched = HFSC(link, admission_control=False, realtime=False)
    rate = link / (n_classes + 1)
    sched.add_class(
        0,
        ls_sc=ServiceCurve.linear(rate),
        ul_sc=ServiceCurve.linear(0.5 * rate),
    )
    for i in range(1, n_classes):
        sched.add_class(i, ls_sc=ServiceCurve.linear(rate * (1.0 + 1e-4 * i)))
    return sched


def bench_ls_select_ul(n_classes: int, packets: int) -> Tuple[float, int]:
    def work() -> int:
        sched = build_ls_ul_scheduler(n_classes)
        e9_overhead.churn(sched, n_classes, packets)
        return packets + n_classes

    return time_ops(work)


# -- sharded serving pump ----------------------------------------------------


def _shard_pump_worker(doc, flows, packets, batch, conn) -> None:
    """One shard's ingest+drain loop; sends its wall elapsed back.

    Runs in a forked child so N shards exercise N real interpreters --
    the measurement the scale-out claim actually makes.  The timed
    region covers classify -> edge buffer -> scheduler -> link for every
    packet; datagram encoding happens before the clock starts.
    """
    try:
        from repro.serve.shard import build_worker_service
        from repro.serve.wire import encode_packet

        service, _ = build_worker_service(doc)
        datagrams = [
            encode_packet(flows[i % len(flows)], i, 0.0, 256)
            for i in range(packets)
        ]
        start = time.perf_counter()
        for i, datagram in enumerate(datagrams):
            service.dataplane.ingest(datagram, None)
            if (i + 1) % batch == 0:
                service.driver.run(until=service.loop.now + 5.0)
        while service.scheduler.backlog_packets:
            service.driver.run(until=service.loop.now + 5.0)
        conn.send(time.perf_counter() - start)
    except BaseException as exc:  # surfaced by the parent
        conn.send(exc)
    finally:
        conn.close()


def bench_shard_pump(shards: int, packets: int, batch: int = 64,
                     repeats: int = 3) -> Tuple[float, int]:
    """Aggregate pkt/s of an N-shard cluster's dataplane pipeline.

    Each forked worker is built by the same :func:`build_worker_service`
    path ``repro serve --shards N`` uses (1/N-scaled curves, shard
    filter classifier, ``time_scale=0``), and pumps its 1/N of the flow
    population.  A round's elapsed is the *slowest* worker's -- the
    cluster is only as fast as its stragglers -- and per-shard pkt/s is
    the reported aggregate divided by ``shards``.
    """
    import multiprocessing

    from repro.core.hierarchy import ClassSpec
    from repro.serve.cluster import scale_spec
    from repro.serve.shard import ShardRing, worker_config

    link_rate = 1e9
    specs = [
        ClassSpec("gold", sc=ServiceCurve.linear(0.6 * link_rate)),
        ClassSpec("bronze", sc=ServiceCurve.linear(0.4 * link_rate)),
    ]
    ring = ShardRing(shards)
    scaled = [scale_spec(spec, 1.0 / shards) for spec in specs]
    flows = [
        f"{cls}#{i}" for cls in ("gold", "bronze")
        for i in range(32 * shards)
    ]
    per_shard_flows: List[List[str]] = [[] for _ in range(shards)]
    for flow in flows:
        per_shard_flows[ring.shard_for(flow)].append(flow)
    assert all(per_shard_flows), "every shard needs flows from both classes"
    per_shard_packets = max(1, packets // shards)
    configs = [
        worker_config(
            index=index, shards=shards, ring=ring, specs=scaled,
            link_rate=link_rate / shards, time_scale=0.0,
            watchdog_period=0.0,
        )
        for index in range(shards)
    ]
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    best = float("inf")
    for _ in range(repeats):
        workers = []
        for index in range(shards):
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            process = ctx.Process(
                target=_shard_pump_worker,
                args=(configs[index], per_shard_flows[index],
                      per_shard_packets, batch, child_conn),
                daemon=True,
            )
            process.start()
            child_conn.close()
            workers.append((process, parent_conn))
        elapsed = 0.0
        for process, conn in workers:
            result = conn.recv()
            process.join()
            if isinstance(result, BaseException):
                raise result
            elapsed = max(elapsed, result)
        best = min(best, elapsed)
    return best, per_shard_packets * shards


# -- E9 macro bench ----------------------------------------------------------


def bench_e9_macro(kind: str, n_classes: int, packets: int,
                   batch: int = 1) -> Tuple[float, int]:
    def work() -> int:
        sched = e9_overhead.build_scheduler(kind, n_classes)
        e9_overhead.churn(sched, n_classes, packets, batch=batch)
        return packets + n_classes

    return time_ops(work)


def bench_e9_macro_telemetry(kind: str, n_classes: int, packets: int,
                             batch: int = 1) -> Tuple[float, int]:
    """The same macro churn with the telemetry hub *enabled*.

    ``e9/H-FSC/n256`` vs this bench is the enabled-telemetry overhead;
    ``e9/H-FSC/n256`` vs the committed baseline is the disabled-taps
    overhead gate (the taps are compiled in either way -- disabled they
    must cost one attribute check, which --compare enforces).
    """
    from repro.obs.core import TELEMETRY

    def work() -> int:
        TELEMETRY.reset()
        TELEMETRY.record_packets = False
        TELEMETRY.enable()
        try:
            sched = e9_overhead.build_scheduler(kind, n_classes)
            e9_overhead.churn(sched, n_classes, packets, batch=batch)
        finally:
            TELEMETRY.disable()
            TELEMETRY.record_packets = True
            TELEMETRY.reset()
        return packets + n_classes

    return time_ops(work)


# -- harness -----------------------------------------------------------------


#: name -> (bench thunk, per-case config recorded in the report).
TrackedBench = Tuple[Callable[[], Tuple[float, int]], Dict[str, int]]


def tracked_benches(quick: bool) -> Dict[str, TrackedBench]:
    micro_rounds = 2_000 if quick else 20_000
    macro_packets = 1_000 if quick else 20_000
    benches: Dict[str, TrackedBench] = {
        "micro/heap_update":
            (lambda: bench_heap_update(micro_rounds), {"batch_size": 1}),
        "micro/heap_push_pop":
            (lambda: bench_heap_push_pop(micro_rounds), {"batch_size": 1}),
        "micro/runtime_curve":
            (lambda: bench_runtime_curve(micro_rounds), {"batch_size": 1}),
    }
    # Per-packet descent stays measured: ls_select_ul drives enqueue/
    # dequeue one packet at a time so the batched e9 cases cannot hide a
    # regression in the single-packet path.
    for n in LS_UL_SIZES:
        benches[f"ls_select_ul/n{n}"] = (
            lambda n=n: bench_ls_select_ul(n, macro_packets),
            {"batch_size": 1},
        )
    for kind in MACRO_KINDS:
        for n in MACRO_SIZES:
            benches[f"e9/{kind}/n{n}"] = (
                lambda kind=kind, n=n: bench_e9_macro(
                    kind, n, macro_packets, batch=E9_BATCH
                ),
                {"batch_size": E9_BATCH},
            )
    # Scale-out: the same worker pipeline at 1 and 4 shards.  The s4/s1
    # ops ratio is the horizontal-scaling factor on this host; "shards"
    # in the config keys a 1-shard row apart from a 4-shard one.
    for shards in (1, 4):
        benches[f"serve/shard_pump/s{shards}"] = (
            lambda shards=shards: bench_shard_pump(shards, macro_packets),
            {"batch_size": 64, "shards": shards},
        )
    benches["telemetry/e9_hfsc_on/n256"] = (
        lambda: bench_e9_macro_telemetry(
            "H-FSC", 256, macro_packets, batch=E9_BATCH
        ),
        {"batch_size": E9_BATCH},
    )
    return benches


def _git_head() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=10,
        )
        return out.stdout.strip() or None
    except OSError:
        return None


def _profile_bench(name: str, bench: Callable[[], Tuple[float, int]],
                   top: int, profile_dir: str) -> str:
    """Run ``bench`` once under cProfile; write a pstats top-``top`` report.

    The profiled round is separate from (and after) the timed rounds, so
    profiling overhead never contaminates the recorded ops/sec.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        bench()
    finally:
        profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top)
    stats.sort_stats("tottime").print_stats(top)
    os.makedirs(profile_dir, exist_ok=True)
    path = os.path.join(profile_dir, name.replace("/", "_") + ".txt")
    with open(path, "w") as handle:
        handle.write(f"# cProfile for tracked bench {name!r}\n")
        handle.write(buffer.getvalue())
    return path


def run_benches(quick: bool = False, verbose: bool = True,
                only: Optional[str] = None,
                profile_top: Optional[int] = None,
                profile_dir: Optional[str] = None) -> Dict:
    results: Dict[str, Dict[str, float]] = {}
    if profile_dir is None:
        profile_dir = os.path.join(BASELINE_DIR, "profiles")
    for name, (bench, config) in tracked_benches(quick).items():
        if only is not None and not fnmatch.fnmatch(name, only):
            continue
        elapsed, ops = bench()
        ops_per_sec = ops / elapsed if elapsed > 0 else float("inf")
        results[name] = {
            "ops_per_sec": round(ops_per_sec, 2),
            "elapsed_s": round(elapsed, 6),
            "ops": ops,
            "compiled": flatstate.COMPILED,
            **config,
        }
        if verbose:
            print(f"  {name:32s} {ops_per_sec:>14,.0f} ops/s")
        if profile_top is not None:
            path = _profile_bench(name, bench, profile_top, profile_dir)
            if verbose:
                print(f"    profile -> {path}")
    return {
        "schema": SCHEMA_VERSION,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "git": _git_head(),
        "quick": quick,
        "compiled": flatstate.COMPILED,
        "results": results,
    }


def default_output_path(tag: str = "") -> str:
    date = datetime.date.today().isoformat()
    suffix = f"_{tag}" if tag else ""
    return os.path.join(BASELINE_DIR, f"BENCH_{date}{suffix}.json")


def latest_baseline(exclude: Optional[str] = None) -> Optional[str]:
    paths = sorted(glob.glob(os.path.join(BASELINE_DIR, "BENCH_*.json")))
    if exclude is not None:
        exclude = os.path.abspath(exclude)
        paths = [p for p in paths if os.path.abspath(p) != exclude]
    return paths[-1] if paths else None


#: Per-case keys that define the measurement configuration (schema >= 2).
#: A mismatch means the two runs measured different things -- the ratio
#: is reported for information but never gates, so ``--compare`` cannot
#: diff a batched/compiled run against a per-packet/pure one and call the
#: difference a regression (or an improvement).
CONFIG_KEYS = ("batch_size", "compiled")


def compare(
    current: Dict, baseline: Dict, tolerance: float = DEFAULT_TOLERANCE
) -> Tuple[bool, List[str]]:
    """True when no tracked bench regressed more than ``tolerance``.

    Cases whose recorded configuration (:data:`CONFIG_KEYS`) differs
    between the two runs are labelled ``CONFIG`` and excluded from the
    pass/fail decision.  Schema-1 baselines carry no config keys, so
    every case they share with the current run still gates normally --
    that is deliberate: the committed pre-batching baseline is the
    yardstick the batched path must beat.
    """
    lines: List[str] = []
    ok = True
    base_results = baseline.get("results", {})
    for name, entry in current["results"].items():
        base = base_results.get(name)
        if base is None:
            lines.append(f"  NEW   {name}: {entry['ops_per_sec']:,.0f} ops/s")
            continue
        mismatched = [
            key for key in CONFIG_KEYS
            if key in base and key in entry and base[key] != entry[key]
        ]
        ratio = entry["ops_per_sec"] / base["ops_per_sec"]
        if mismatched:
            detail = ", ".join(
                f"{key} {base[key]} -> {entry[key]}" for key in mismatched
            )
            lines.append(
                f"  {'CONFIG':10s} {name:32s} {ratio:6.2f}x "
                f"({detail}; not comparable, not gated)"
            )
            continue
        status = "ok"
        if ratio < 1.0 - tolerance:
            status = "REGRESSION"
            ok = False
        lines.append(
            f"  {status:10s} {name:32s} {ratio:6.2f}x "
            f"({base['ops_per_sec']:,.0f} -> {entry['ops_per_sec']:,.0f} ops/s)"
        )
    return ok, lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench", description="run the tracked benchmark set"
    )
    parser.add_argument(
        "--output",
        default=None,
        help="where to write the BENCH json (default: benchmarks/baselines/"
        "BENCH_<date>.json; '-' to skip writing)",
    )
    parser.add_argument(
        "--tag", default="", help="suffix for the default output filename"
    )
    parser.add_argument(
        "--compare",
        nargs="?",
        const="__latest__",
        default=None,
        metavar="BASELINE",
        help="compare against a baseline json (default: newest committed "
        "baseline); exit 1 on any regression beyond --tolerance",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed fractional slowdown before failing (default 0.15)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small workloads (CI smoke; numbers are noisy, do not commit)",
    )
    parser.add_argument(
        "--only",
        metavar="PATTERN",
        default=None,
        help="run only benches whose name matches this fnmatch pattern "
        "(e.g. 'e9/H-FSC/*'); comparison then covers just those",
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        type=int,
        const=25,
        default=None,
        metavar="TOP_N",
        help="after timing, run each selected bench once under cProfile "
        "and write a pstats top-N report per case (default N=25) under "
        "--profile-dir",
    )
    parser.add_argument(
        "--profile-dir",
        default=None,
        metavar="DIR",
        help="where --profile reports go (default: "
        "benchmarks/baselines/profiles/)",
    )
    parser.add_argument(
        "--fairness",
        action="store_true",
        help="run the cross-scheduler fairness shoot-out instead of the "
        "timing benches; prints the fairness-vs-overhead markdown table "
        "(see repro.analysis.shootout; --output PATH writes it)",
    )
    args = parser.parse_args(argv)
    if args.fairness:
        from repro.analysis import shootout

        return shootout.main(
            ["--output", args.output] if args.output else []
        )
    if args.profile is not None and args.profile <= 0:
        parser.error("--profile TOP_N must be positive")

    print(f"running tracked benches ({'quick' if args.quick else 'full'})...")
    report = run_benches(quick=args.quick, only=args.only,
                         profile_top=args.profile,
                         profile_dir=args.profile_dir)
    if not report["results"]:
        print(f"no tracked bench matches --only {args.only!r}", file=sys.stderr)
        return 2

    output = args.output
    if output is None:
        # A filtered run is not a full baseline; never write one by default.
        output = "-" if args.only else default_output_path(args.tag)
    if output != "-":
        os.makedirs(os.path.dirname(output) or ".", exist_ok=True)
        with open(output, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {output}")

    if args.compare is not None:
        baseline_path = args.compare
        if baseline_path == "__latest__":
            baseline_path = latest_baseline(
                exclude=None if output == "-" else output
            )
            if baseline_path is None:
                print("no committed baseline found to compare against",
                      file=sys.stderr)
                return 2
        try:
            with open(baseline_path) as handle:
                baseline = json.load(handle)
        except OSError as exc:
            print(f"cannot read baseline {baseline_path}: {exc}",
                  file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"baseline {baseline_path} is not valid JSON: {exc}",
                  file=sys.stderr)
            return 2
        if baseline.get("quick") != report.get("quick"):
            print(
                "warning: comparing runs with different workload sizes "
                "(--quick mismatch); ratios are not meaningful",
                file=sys.stderr,
            )
        ok, lines = compare(report, baseline, tolerance=args.tolerance)
        print(f"comparison vs {baseline_path} (tolerance {args.tolerance:.0%}):")
        print("\n".join(lines))
        if not ok:
            print("FAIL: tracked bench regressed", file=sys.stderr)
            return 1
        print("OK: no tracked bench regressed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The layered benchmark: price a served packet socket-to-socket, layer
by layer.  See README.md beside this file for the layer map, every metric
and why each workload exists.

From the repository root::

    python3 benchmarks/layered/run.py                      # every workload,
        [--workload W] [--seed N] [--trace] [--quick]      # interleaved repeats
        [--output FILE]
    python3 benchmarks/layered/run.py --workload W --seed N --seconds S --trace 0|1
                                                           # one run, the driver's form
    python3 benchmarks/layered/run.py --compare A.json B.json
    python3 benchmarks/layered/run.py --selftest
    python3 benchmarks/layered/run.py --spread 10 [--workload W]   # steadiness, as the driver takes it

Every form checks the program's outputs and exits non-zero when a check
fails.  The one-run form prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import common

common.ensure_src_on_path()

from common import (  # noqa: E402 (after the path is set)
    INSTRUMENT, ISSUE_NAMES, OUT_DIR, WORKLOADS, failed_checks, load_spec, median,
    metric_units, quartiles, spread,
)

#: The full run: repeats per workload and seconds measured per repeat.
#: ``--quick`` takes one short repeat and the cold set-up only.
REPEATS, REPEAT_SECONDS = 3, 3.0
QUICK_SECONDS = 1.5
#: A repeat is flagged when its reference spin ran this much slower than
#: the fastest repeat of the same workload.
SLOW_REPEAT = 1.15


def _module(workload: str):
    if workload.startswith("wire_"):
        import wl_wire
        return wl_wire
    if workload == "pump_inproc":
        import wl_pump
        return wl_pump
    if workload.startswith("kernel_"):
        import wl_kernel
        return wl_kernel
    import wl_control
    return wl_control


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            quick: bool = False) -> Dict[str, Any]:
    """One repeat of one workload; the result document of ``common``."""
    module = _module(workload)
    if trace:
        res = module.run_traced(workload, seed, seconds)
        tracer = res["notes"].pop("tracer", None)
        if workload == "wire_shaped":
            res["layers"]["serve.driver.idle_cpu_util"] = module.idle_cpu_util(seed)
        if tracer is not None:
            tracer.dump(
                os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json"),
                {"workload": workload, "seed": seed, "layers": res["layers"]})
    else:
        res = module.run(workload, seed, seconds, quick)
    res["notes"].pop("classes", None)
    return res


def _clean_workdirs() -> None:
    if os.path.isdir(OUT_DIR):
        for entry in os.listdir(OUT_DIR):
            if entry.startswith(f"w{os.getpid()}-"):
                shutil.rmtree(os.path.join(OUT_DIR, entry), ignore_errors=True)


def _named(workload: str, metric: str) -> str:
    alias = ISSUE_NAMES[workload].get(metric)
    return f"   (= {alias})" if alias else ""


# -- the driver's form: one workload, one JSON line ---------------------------------


def _result_path(workload: str, seed: int, trace: bool) -> str:
    return os.path.join(OUT_DIR, f"result-{workload}-seed{seed}-trace{int(trace)}.json")


def driver_run(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    trace = bool(args.trace)
    res = run_one(args.workload, args.seed, args.seconds, trace, args.quick)
    # The whole result document (every layer, check and note), for the
    # full run and the spread run to read back.
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(_result_path(args.workload, args.seed, trace), "w",
              encoding="utf-8") as fh:
        json.dump(res, fh)
    group = "per_layer" if trace else "end_to_end"
    units = metric_units(spec, group)
    values = res["layers"] if trace else res["e2e"]
    unknown = sorted(set(values) - set(units)) if trace else []
    missing = [] if trace else sorted(set(units) - set(values))
    for name in unknown:
        print(f"note: {name} is measured but not in BENCHMARK.json", file=sys.stderr)
    # One run judges the program's outputs; a check on the instrument
    # itself is shown and left to the full run and the self-test.
    failures = failed_checks(res, instrument=False)
    if missing:
        failures.append(f"metrics not produced: {missing}")
    for name, ok, detail in res["checks"]:
        verdict = "PASS" if ok else "WARN" if name.startswith(INSTRUMENT) else "FAIL"
        print(f"[{verdict}] {name}" + (f"  ({detail})" if detail else ""))
    for name in units:
        print(f"{name:44} {values.get(name, 0.0):16.6f} {units[name]}"
              + _named(args.workload, name))
    if not trace:
        _print_untraced_layers(args.workload, res["layers"],
                               metric_units(spec, "per_layer"))
        print(f"{'fail_frac':44} {res['failed'] / max(1, res['attempted']):16.6f} frac")
    doc = {
        "correct": not failures,
        "attempted": int(res["attempted"]) or 1,
        "failed": int(res["failed"]),
        "metrics": {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(doc))
    return 0 if not failures else 1


def _print_untraced_layers(workload: str, layers: Dict[str, float],
                           units: Dict[str, str]) -> None:
    """The per-layer numbers an untraced run takes itself and issue 12
    counted as end-to-end (reported, not bounded)."""
    for name, alias in ISSUE_NAMES[workload].items():
        if name in layers:
            print(f"{name:44} {layers[name]:16.6f} {units[name]}   (= {alias})")


# -- every workload, interleaved --------------------------------------------------------


def _summarise(values: List[float]) -> Dict[str, Any]:
    q1, q2, q3 = quartiles(values)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values), "values": values}


def _repeat(workload: str, seed: int, seconds: float, trace: bool,
            quick: bool) -> Dict[str, Any]:
    """One repeat in a process of its own -- exactly what the driver's
    form measures (peak RSS in particular is a fresh interpreter's)."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(trace))] + (["--quick"] if quick else [])
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise common.CheckFailed(
            f"{workload}: repeat exited {proc.returncode}\n{proc.stdout[-2000:]}")
    with open(_result_path(workload, seed, trace), encoding="utf-8") as fh:
        return json.load(fh)


def full_run(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    repeats = 1 if args.quick else REPEATS
    seconds = QUICK_SECONDS if args.quick else REPEAT_SECONDS
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    runs: Dict[str, List[Dict[str, Any]]] = {w: [] for w in workloads}
    traced: Dict[str, Dict[str, Any]] = {}
    started = time.time()
    # Round-robin, so a slow phase of the host lands on every workload
    # instead of on all the repeats of one.
    for repeat in range(repeats):
        for workload in workloads:
            print(f"... {workload} repeat {repeat + 1}/{repeats}", file=sys.stderr)
            runs[workload].append(
                _repeat(workload, args.seed, seconds, False, args.quick))
    if args.trace:
        for workload in workloads:
            print(f"... {workload} traced", file=sys.stderr)
            traced[workload] = _repeat(workload, args.seed, seconds, True, args.quick)

    e2e_units = metric_units(spec, "end_to_end")
    layer_units = metric_units(spec, "per_layer")
    doc: Dict[str, Any] = {
        "schema": 2,
        "benchmark": "layered",
        "mode": "quick" if args.quick else "full",
        "seed": args.seed,
        "seconds": seconds,
        "repeats": repeats,
        "fingerprint": common.fingerprint(),
        "workloads": {},
    }
    failures: List[str] = []
    for workload in workloads:
        rs = runs[workload]
        row: Dict[str, Any] = {
            "end_to_end": {m: _summarise([r["e2e"][m] for r in rs])
                           for m in e2e_units},
            "fail_frac": _summarise([r["failed"] / max(1, r["attempted"]) for r in rs]),
            "untraced_layers": {
                m: _summarise([r["layers"][m] for r in rs])
                for m in sorted({k for r in rs for k in r["layers"]})
                if all(m in r["layers"] for r in rs)},
            "flags": [],
        }
        # Against the fastest repeat of the *same* workload: the factor's
        # level depends on how a workload samples the spin.
        speeds = [r["layers"]["host.speed_factor"] for r in rs]
        for index, r in enumerate(rs):
            slow = speeds[index] / min(speeds)
            if slow > SLOW_REPEAT:
                row["flags"].append(
                    f"repeat {index + 1}: reference spin {slow:.2f}x this "
                    f"workload's fastest repeat")
            failures += [f"{workload} repeat {index + 1}: {f}" for f in failed_checks(r)]
        if workload in traced:
            # What an untraced repeat measures itself never comes from the
            # traced one.
            row["per_layer"] = {
                m: (row["untraced_layers"][m]["median"]
                    if m in row["untraced_layers"]
                    else traced[workload]["layers"].get(m, 0.0))
                for m in layer_units}
            failures += [f"{workload} traced: {f}"
                         for f in failed_checks(traced[workload])]
        doc["workloads"][workload] = row
    doc["wall_s"] = time.time() - started
    doc["correct"] = not failures

    print(f"layered benchmark, seed {args.seed}, {repeats} x {seconds:g} s per "
          f"workload, {doc['wall_s']:.0f} s wall; fingerprint {doc['fingerprint']}")
    print("CPU-bound figures are at reference speed (see calib.py); "
          "median [q1 .. q3] n")
    for workload in workloads:
        row = doc["workloads"][workload]
        print(f"\n== {workload}")
        for name, unit in e2e_units.items():
            s = row["end_to_end"][name]
            print(f"  {name:28} {s['median']:14.4f} [{s['q1']:.4f} .. {s['q3']:.4f}] "
                  f"n={s['n']} {unit}" + _named(workload, name))
        for name, alias in ISSUE_NAMES[workload].items():
            s = row["untraced_layers"].get(name)
            if s:
                print(f"  {name:28} {s['median']:14.4f} [{s['q1']:.4f} .. {s['q3']:.4f}] "
                      f"n={s['n']} {layer_units[name]}   (= {alias}; not bounded)")
        s = row["fail_frac"]
        print(f"  {'fail_frac':28} {s['median']:14.6f} [{s['q1']:.6f} .. {s['q3']:.6f}] "
              f"n={s['n']} frac")
        for flag in row["flags"]:
            print(f"  flag: {flag}")
        if "per_layer" in row:
            print("  -- per layer (traced run; untraced repeats' own where they measure it)")
            for name, unit in layer_units.items():
                if row["per_layer"][name]:
                    print(f"  {name:44} {row['per_layer'][name]:14.4f} {unit}")
    for failure in failures:
        print(f"FAILED CHECK  {failure}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
        print(f"\nresults written to {args.output}")
    return 0 if not failures else 1


# -- compare two result sets -----------------------------------------------------------


def compare(paths: List[str], spec: Dict[str, Any]) -> int:
    docs = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    a, b = docs
    for key in ("fingerprint", "seed", "seconds"):
        if a.get(key) != b.get(key):
            print(f"refusing to compare: {key} differs\n  {paths[0]}: {a.get(key)}"
                  f"\n  {paths[1]}: {b.get(key)}", file=sys.stderr)
            return 2
    worse = 0
    print(f"{'workload':18} {'metric':16} {'A':>14} {'B':>14} {'change':>9} {'bound':>7}")
    for metric in spec["end_to_end"]:
        name, better, bound = metric["name"], metric["better"], metric["bound"]
        for workload in a["workloads"]:
            if workload not in b["workloads"]:
                continue
            va = a["workloads"][workload]["end_to_end"][name]["median"]
            vb = b["workloads"][workload]["end_to_end"][name]["median"]
            change = (vb - va) / va if va else 0.0
            regressed = (change > bound) if better == "lower" else (change < -bound)
            worse += regressed
            print(f"{workload:18} {name:16} {va:14.4f} {vb:14.4f} {change:+9.2%} "
                  f"{bound:7.0%}" + ("  WORSE" if regressed else ""))
    print(f"{worse} metric/workload pairs worse than their bound")
    return 1 if worse else 0


# -- steadiness: N driver-form runs, each with another seed ------------------------------


def spread_run(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    """What the driver does before it accepts the benchmark: N one-run
    invocations per workload, each with another seed, then IQR/median.

    Beside each scaled figure it keeps what the reference-speed scaling
    rests on: the observed rate and set-up time of the same runs, every
    (observed rate, speed factor) window, and how far a run's observed
    rate follows 1/factor; it prints the spread with and without scaling.
    """
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    out: Dict[str, Any] = {"seconds": args.seconds, "runs": args.spread,
                           "first_seed": args.seed,
                           "fingerprint": common.fingerprint(), "workloads": {}}
    bad = 0
    for workload in workloads:
        values: Dict[str, List[float]] = {}
        layers: Dict[str, List[float]] = {}
        setup_observed: List[float] = []
        windows: List[List[List[float]]] = []
        for seed in range(args.seed, args.seed + args.spread):
            began = time.time()
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            if proc.returncode != 0 or not last.startswith("{"):
                bad += 1
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stdout[-3000:]}{proc.stderr[-2000:]}", file=sys.stderr)
                continue
            for name, cell in json.loads(last)["metrics"].items():
                values.setdefault(name, []).append(cell["value"])
            with open(_result_path(workload, seed, False), encoding="utf-8") as fh:
                res = json.load(fh)
            for name, value in res["layers"].items():
                layers.setdefault(name, []).append(value)
            setup_observed.append(res["notes"]["setup_observed_s"])
            windows.append(res["notes"]["slices"])
            print(f"... {workload} seed {seed}: {time.time() - began:.1f} s",
                  file=sys.stderr)

        def cell(v: List[float]) -> Dict[str, Any]:
            return {"median": median(v), "spread": spread(v), "values": v}

        row: Dict[str, Any] = {name: cell(v) for name, v in values.items()}
        row["untraced_layers"] = {name: cell(v) for name, v in layers.items()
                                  if len(v) == len(windows)}
        raw = layers.get("host.raw_ops_per_s", [])
        inverse = [1.0 / median([f for _, f in run]) for run in windows]
        row["calibration"] = {
            "setup_observed_s": cell(setup_observed),
            "windows": windows,
            "corr_run_rate_vs_inverse_factor": (
                statistics.correlation(raw, inverse)
                if len(set(raw)) > 1 and len(set(inverse)) > 1 else 0.0),
        }
        out["workloads"][workload] = row
        for name, v in values.items():
            print(f"{workload:18} {name:16} median {median(v):14.4f} "
                  f"spread {spread(v):6.1%}  n={len(v)}")
        print(f"{workload:18} observed: ops_per_s spread {spread(raw):6.1%} "
              f"(corr with 1/factor over runs "
              f"{row['calibration']['corr_run_rate_vs_inverse_factor']:+.2f}), "
              f"setup_s median {median(setup_observed):.4f} "
              f"spread {spread(setup_observed):6.1%}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
    return 1 if bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="with --workload: one run measuring this long "
                             "(the driver's form)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="one short repeat of everything, cold set-up only "
                             "(numbers not for committing)")
    parser.add_argument("--output", metavar="FILE")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--spread", type=int, metavar="N")
    parser.add_argument("--pin-digests", type=int, metavar="N",
                        help="rewrite digests.json for seeds 0..N-1")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(args.compare, spec)
    if not os.path.isdir(os.path.join(common.SRC, "repro")):
        print(f"no program to measure: {common.SRC}/repro is missing",
              file=sys.stderr)
        return 2
    from server import install_signal_cleanup, kill_all

    install_signal_cleanup()
    try:
        if args.pin_digests:
            import wl_kernel
            wl_kernel.pin_digests(range(args.pin_digests))
            return 0
        if args.selftest:
            import selftest
            return selftest.main(spec, run_one)
        if args.spread:
            args.seconds = args.seconds or float(spec["run_seconds"])
            return spread_run(args, spec)
        if args.workload is not None and args.seconds is not None:
            return driver_run(args, spec)
        return full_run(args, spec)
    except common.CheckFailed as exc:
        print(f"benchmark precondition failed: {exc}", file=sys.stderr)
        return 3
    finally:
        kill_all()
        _clean_workdirs()


if __name__ == "__main__":
    sys.exit(main())

"""``run.py --selftest``: the benchmark checks itself.

One short timed and one short traced repeat of every workload, then:
every end-to-end name in ``BENCHMARK.json`` is produced (and non-zero) by
every workload, every per-layer name is produced by at least one workload
and nothing is produced that the contract does not list, spans nest, and
the self-time budget closes on ``pump_inproc`` and ``wire_flood`` (the
last two are checks of the traced runs themselves).
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Dict, List

from common import WORKLOADS, failed_checks, metric_units


def main(spec: Dict[str, Any], run_one: Callable[..., Dict[str, Any]]) -> int:
    e2e = set(metric_units(spec, "end_to_end"))
    per_layer = set(metric_units(spec, "per_layer"))
    problems: List[str] = []
    produced: set = set()
    for workload in WORKLOADS:
        print(f"... {workload}", file=sys.stderr)
        plain = run_one(workload, 1, 1.5, False, quick=True)
        traced = run_one(workload, 1, 2.0, True)
        missing = sorted(e2e - {k for k, v in plain["e2e"].items() if v})
        if missing:
            problems.append(f"{workload}: end-to-end metrics missing or zero: {missing}")
        layers = set(plain["layers"]) | set(traced["layers"])
        if layers - per_layer:
            problems.append(f"{workload}: not in BENCHMARK.json: {sorted(layers - per_layer)}")
        produced |= layers
        for which, res in (("timed", plain), ("traced", traced)):
            problems += [f"{workload} {which}: {f}" for f in failed_checks(res)]
    if per_layer - produced:
        problems.append(f"per-layer metrics no workload produced: "
                        f"{sorted(per_layer - produced)}")
    for problem in problems:
        print(f"SELFTEST FAIL  {problem}")
    print(f"selftest: {len(e2e)} end-to-end and {len(per_layer)} per-layer names, "
          f"{len(problems)} problems")
    return 1 if problems else 0

"""The backend registry: every scheduler, one table.

Backend selection used to be scattered string checks (``if backend ==
"hfsc": ... elif backend == "hpfq": ...``) in ``repro serve``'s
hierarchy builder, with the flat schedulers (SFQ, WF2Q+, virtual clock,
WFQ) orphaned outside it entirely.  This module is the single source of
truth: a :class:`Backend` entry per scheduler with a uniform builder
from :class:`~repro.core.hierarchy.ClassSpec` lists, plus capability
flags the callers consult instead of re-deriving them from type checks.

* **hierarchical** backends consume the class tree as given;
* **flat** backends see only the leaves (each leaf keeps its guaranteed
  rate; interior structure is dropped -- exactly the reduction the
  paper applies when comparing against single-level schedulers, and the
  reason they lose the hierarchical-fairness shoot-out);
* ``persist`` says whether the backend implements the PR-4
  snapshot/restore codec (the base class refuses with a structured
  :class:`~repro.core.errors.SnapshotError` otherwise, so serving a
  non-persistable backend works -- only ``--snapshot``/``--resume`` and
  checkpointing refuse).

``repro serve``/``repro run`` hierarchy building, the persist codec
dispatch and the fairness shoot-out all draw from this table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.core.errors import ConfigurationError
from repro.core.hfsc import HFSC, ROOT
from repro.core.hierarchy import ClassSpec
from repro.schedulers.base import Scheduler
from repro.schedulers.cbq import CBQScheduler
from repro.schedulers.drr import DRRScheduler
from repro.schedulers.fifo import FIFOScheduler
from repro.schedulers.hls import HLSScheduler
from repro.schedulers.hpfq import HPFQScheduler
from repro.schedulers.sfq import SFQScheduler
from repro.schedulers.virtual_clock import VirtualClockScheduler
from repro.schedulers.wf2q import WF2QPlusScheduler
from repro.schedulers.wfq import WFQScheduler


def guaranteed_rate(spec: ClassSpec) -> float:
    """The long-term rate a spec guarantees (for rate-based backends)."""
    if spec.rate is not None:
        return spec.rate
    for curve in (spec.sc, spec.ls_sc, spec.rt_sc):
        if curve is not None:
            return curve.m2
    raise ConfigurationError(f"class {spec.name!r}: no curve given")


def resolution_order(specs: Sequence[ClassSpec]) -> List[ClassSpec]:
    """Parents before children, declaration order otherwise.

    Breadth-first by waves: every spec whose parent is already known, in
    declaration order, then the specs those unlock.  Each spec is looked
    at once (indexed by parent), so a 4k-class tree costs milliseconds.
    """
    children: Dict[Any, List[int]] = {}
    for index, spec in enumerate(specs):
        children.setdefault(spec.parent, []).append(index)
    known = {None, ROOT}
    wave = sorted(children.pop(None, []) + children.pop(ROOT, []))
    ordered: List[ClassSpec] = []
    while wave:
        ordered.extend(specs[index] for index in wave)
        unlocked: List[int] = []
        for index in wave:
            name = specs[index].name
            if name not in known:
                known.add(name)
                unlocked.extend(children.pop(name, ()))
        wave = sorted(unlocked)
    if children:
        pending = sorted(index for rest in children.values() for index in rest)
        names = ", ".join(repr(specs[index].name) for index in pending)
        raise ConfigurationError(f"unresolvable parents for classes: {names}")
    return ordered


def leaf_specs(specs: Sequence[ClassSpec]) -> List[ClassSpec]:
    parents = {spec.parent for spec in specs if spec.parent is not None}
    return [spec for spec in specs if spec.name not in parents]


#: Options every builder accepts (H-FSC consumes them; the rest ignore
#: what does not apply, so ``build()`` has one calling convention).
BuildOptions = Dict[str, Any]


def _build_hfsc(link_rate: float, specs: Sequence[ClassSpec],
                options: BuildOptions) -> Scheduler:
    interior = {spec.parent for spec in specs if spec.parent is not None}
    scheduler = HFSC(
        link_rate,
        admission_control=options.get("admission_control", True),
        overload_policy=options.get("overload_policy", "raise"),
    )
    for spec in resolution_order(specs):
        curves = spec.curves()
        if spec.name in interior and curves.get("sc") is not None:
            # Interior classes participate in link-sharing only (their
            # single declared curve is the ls curve), mirroring
            # :func:`repro.core.hierarchy.build_hfsc`.
            curves = {"sc": None, "rt_sc": None, "ls_sc": curves["sc"],
                      "ul_sc": curves.get("ul_sc")}
        scheduler.add_class(
            spec.name, parent=ROOT if spec.parent is None else spec.parent,
            **curves,
        )
    return scheduler


def _hierarchical_rate_builder(
    factory: Callable[[float], Scheduler]
) -> Callable[[float, Sequence[ClassSpec], BuildOptions], Scheduler]:
    def build(link_rate: float, specs: Sequence[ClassSpec],
              options: BuildOptions) -> Scheduler:
        scheduler = factory(link_rate)
        for spec in resolution_order(specs):
            parent = ROOT if spec.parent is None else spec.parent
            scheduler.add_class(spec.name, parent=parent,
                                rate=guaranteed_rate(spec))
        return scheduler

    return build


def _flat_rate_builder(
    factory: Callable[[float], Scheduler]
) -> Callable[[float, Sequence[ClassSpec], BuildOptions], Scheduler]:
    def build(link_rate: float, specs: Sequence[ClassSpec],
              options: BuildOptions) -> Scheduler:
        scheduler = factory(link_rate)
        for spec in leaf_specs(specs):
            scheduler.add_flow(spec.name, guaranteed_rate(spec))
        return scheduler

    return build


def _build_drr(link_rate: float, specs: Sequence[ClassSpec],
               options: BuildOptions) -> Scheduler:
    # Quanta proportional to the guaranteed rates, scaled so the
    # smallest-rate leaf still gets an MTU-sized turn per round.
    leaves = leaf_specs(specs)
    if not leaves:
        raise ConfigurationError("DRR needs at least one leaf class")
    rates = {spec.name: guaranteed_rate(spec) for spec in leaves}
    floor = min(rates.values())
    scheduler = DRRScheduler(link_rate)
    for spec in leaves:
        scheduler.add_flow(spec.name, quantum=1500.0 * rates[spec.name] / floor)
    return scheduler


def _build_fifo(link_rate: float, specs: Sequence[ClassSpec],
                options: BuildOptions) -> Scheduler:
    return FIFOScheduler(link_rate)


@dataclass(frozen=True)
class Backend:
    """One scheduler backend: identity, capabilities, builder."""

    name: str
    summary: str
    hierarchical: bool  # consumes the class tree (vs leaves only)
    persist: bool  # implements the PR-4 snapshot/restore codec
    build: Callable[[float, Sequence[ClassSpec], BuildOptions], Scheduler]


#: name -> Backend; ``repro serve --scheduler`` accepts every key.
BACKENDS: Dict[str, Backend] = {
    backend.name: backend
    for backend in (
        Backend(
            "hfsc", "H-FSC service curves (the paper)", True, True,
            _build_hfsc,
        ),
        Backend(
            "hpfq", "H-WF2Q+: hierarchical packet fair queueing", True, True,
            _hierarchical_rate_builder(lambda rate: HPFQScheduler(rate)),
        ),
        Backend(
            "sfq",
            "H-SFQ: the hierarchy with start-time-fair nodes "
            "(cheaper, looser delay)",
            True, True,
            _hierarchical_rate_builder(
                lambda rate: HPFQScheduler(rate, node_policy="sfq")
            ),
        ),
        Backend(
            "cbq", "class-based queueing (estimator + WRR)", True, True,
            _hierarchical_rate_builder(lambda rate: CBQScheduler(rate)),
        ),
        Backend(
            "hls",
            "hierarchical round-robin link sharing (O(1) amortized, "
            "arXiv:2108.09864)",
            True, True,
            _hierarchical_rate_builder(lambda rate: HLSScheduler(rate)),
        ),
        Backend(
            "drr", "deficit round robin over the leaves (flat)", False, True,
            _build_drr,
        ),
        Backend(
            "wf2q", "WF2Q+ over the leaves (flat)", False, False,
            _flat_rate_builder(lambda rate: WF2QPlusScheduler(rate)),
        ),
        Backend(
            "wfq", "WFQ / PGPS over the leaves (flat)", False, False,
            _flat_rate_builder(lambda rate: WFQScheduler(rate)),
        ),
        Backend(
            "virtual_clock", "virtual clock over the leaves (flat)", False,
            False,
            _flat_rate_builder(lambda rate: VirtualClockScheduler(rate)),
        ),
        Backend(
            "fifo", "one shared queue (no classes; baselines)", False, True,
            _build_fifo,
        ),
    )
}


def get_backend(name: str) -> Backend:
    try:
        return BACKENDS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scheduler backend {name!r}; "
            f"expected one of {sorted(BACKENDS)}"
        ) from None


def build_backend(
    name: str,
    link_rate: float,
    specs: Sequence[ClassSpec],
    **options: Any,
) -> Scheduler:
    """Build the named backend from the class specs (one table, no ifs)."""
    return get_backend(name).build(link_rate, specs, options)


def backend_names(hierarchical: bool = None,
                  persist: bool = None) -> Tuple[str, ...]:
    """Registry keys, optionally filtered by capability."""
    names = []
    for name, backend in BACKENDS.items():
        if hierarchical is not None and backend.hierarchical != hierarchical:
            continue
        if persist is not None and backend.persist != persist:
            continue
        names.append(name)
    return tuple(names)

"""Hierarchy configuration for ``repro serve``: presets and JSON files.

The service needs a class tree before the first packet arrives.  Three
sources, all producing a list of :class:`~repro.core.hierarchy.ClassSpec`:

* a named preset (``campus`` -- the paper's Fig. 1 CMU / U.Pitt tree;
  ``e4`` -- the experiment-E4 cut of the same tree; ``split`` -- a flat
  60/40 two-leaf split for quick smokes);
* a JSON file (``hierarchy_from_file``) with the schema documented in
  ``docs/SERVING.md``;
* the control plane, which can grow/shrink the tree live afterwards.

``build_scheduler`` turns the specs into any backend in the
:mod:`repro.schedulers.registry` table.  H-FSC consumes the full curve
model; the rate-based backends (H-PFQ, CBQ, HLS, ...) get each spec's
*guaranteed rate* (its linear rate, or the long-term slope ``m2`` of a
concave curve) -- the same reduction the paper applies when comparing
against them -- and the flat backends (DRR, WF2Q+, ...) additionally see
only the leaves.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Sequence

from repro.core.curves import ServiceCurve
from repro.core.errors import ConfigurationError
from repro.core.hierarchy import ClassSpec, figure1_hierarchy
from repro.schedulers.base import Scheduler
from repro.schedulers.registry import (  # noqa: F401 (re-exports)
    BACKENDS,
    build_backend,
    guaranteed_rate,
)

SCHEDULER_BACKENDS = tuple(BACKENDS)


def _split_specs(link_rate: float) -> List[ClassSpec]:
    return [
        ClassSpec("gold", sc=ServiceCurve.linear(0.6 * link_rate)),
        ClassSpec("bronze", sc=ServiceCurve.linear(0.4 * link_rate)),
    ]


def _e4_specs(link_rate: float) -> List[ClassSpec]:
    lin = ServiceCurve.linear
    return [
        ClassSpec("cmu", sc=lin(25.0 / 45.0 * link_rate)),
        ClassSpec("pitt", sc=lin(20.0 / 45.0 * link_rate)),
        ClassSpec("cmu.av", parent="cmu", sc=lin(12.0 / 45.0 * link_rate)),
        ClassSpec("cmu.data", parent="cmu", sc=lin(12.9 / 45.0 * link_rate)),
        ClassSpec("pitt.av", parent="pitt", sc=lin(12.2 / 45.0 * link_rate)),
        ClassSpec("pitt.data", parent="pitt", sc=lin(7.7 / 45.0 * link_rate)),
    ]


#: name -> (description, builder(link_rate) -> List[ClassSpec])
HIERARCHY_PRESETS: Dict[str, Any] = {
    "campus": (
        "the paper's Fig. 1 CMU / U.Pitt campus tree (8 leaves, 3 levels)",
        lambda link_rate: figure1_hierarchy(link_rate=link_rate),
    ),
    "e4": (
        "the experiment-E4 two-agency cut of Fig. 1 (4 leaves)",
        _e4_specs,
    ),
    "split": (
        "flat 60/40 gold/bronze split (2 leaves, smoke tests)",
        _split_specs,
    ),
}


def hierarchy_preset(name: str, link_rate: float) -> List[ClassSpec]:
    try:
        _, builder = HIERARCHY_PRESETS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown hierarchy preset {name!r}; "
            f"expected one of {sorted(HIERARCHY_PRESETS)}"
        ) from None
    return builder(link_rate)


def curve_from_doc(doc: Any) -> ServiceCurve:
    """Parse a curve spec: a number (linear rate), ``[m1, d, m2]``, or
    ``{"m1":…, "d":…, "m2":…}`` / ``{"rate":…}`` / ``{"umax":…, "dmax":…,
    "rate":…}`` (the Fig. 7 delay form)."""
    if isinstance(doc, (int, float)) and not isinstance(doc, bool):
        return ServiceCurve.linear(float(doc))
    if isinstance(doc, (list, tuple)):
        if len(doc) != 3:
            raise ConfigurationError(f"curve list must be [m1, d, m2], got {doc!r}")
        return ServiceCurve(float(doc[0]), float(doc[1]), float(doc[2]))
    if isinstance(doc, dict):
        keys = set(doc)
        if keys == {"rate"}:
            return ServiceCurve.linear(float(doc["rate"]))
        if keys == {"umax", "dmax", "rate"}:
            return ServiceCurve.from_delay(
                float(doc["umax"]), float(doc["dmax"]), float(doc["rate"])
            )
        if keys == {"m1", "d", "m2"}:
            return ServiceCurve(float(doc["m1"]), float(doc["d"]), float(doc["m2"]))
    raise ConfigurationError(f"unparseable curve spec: {doc!r}")


def spec_from_doc(doc: Dict[str, Any]) -> ClassSpec:
    known = {"name", "parent", "rate", "sc", "rt_sc", "ls_sc", "ul_sc"}
    unknown = set(doc) - known
    if unknown:
        raise ConfigurationError(
            f"unknown class fields {sorted(unknown)} (expected {sorted(known)})"
        )
    if "name" not in doc:
        raise ConfigurationError("class spec needs a 'name'")
    curves = {
        role: curve_from_doc(doc[role])
        for role in ("sc", "rt_sc", "ls_sc", "ul_sc") if role in doc
    }
    rate = doc.get("rate")
    return ClassSpec(
        name=str(doc["name"]),
        parent=None if doc.get("parent") is None else str(doc["parent"]),
        rate=None if rate is None else float(rate),
        **curves,
    )


def spec_to_doc(spec: ClassSpec) -> Dict[str, Any]:
    """The inverse of :func:`spec_from_doc` -- a JSON-able class spec.

    Curves serialize in the explicit ``{"m1","d","m2"}`` form so the
    round trip is exact; the shard manager uses this to ship the
    hierarchy across the worker process boundary.
    """
    doc: Dict[str, Any] = {"name": spec.name}
    if spec.parent is not None:
        doc["parent"] = spec.parent
    if spec.rate is not None:
        doc["rate"] = spec.rate
    for role in ("sc", "rt_sc", "ls_sc", "ul_sc"):
        curve = getattr(spec, role)
        if curve is not None:
            doc[role] = {"m1": curve.m1, "d": curve.d, "m2": curve.m2}
    return doc


def hierarchy_from_file(path: str) -> Dict[str, Any]:
    """Load ``{"link_rate": …, "classes": [...]}`` (plus optional
    ``scheduler`` / ``overload_policy`` keys) into a config dict with
    parsed :class:`ClassSpec` entries."""
    if not os.path.exists(path):
        raise ConfigurationError(f"hierarchy file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "classes" not in doc:
        raise ConfigurationError("hierarchy file needs a top-level 'classes' list")
    return {
        "link_rate": float(doc["link_rate"]) if "link_rate" in doc else None,
        "scheduler": doc.get("scheduler", "hfsc"),
        "overload_policy": doc.get("overload_policy", "raise"),
        "specs": [spec_from_doc(c) for c in doc["classes"]],
    }


def build_scheduler(
    backend: str,
    link_rate: float,
    specs: Sequence[ClassSpec],
    overload_policy: str = "raise",
    admission_control: bool = True,
) -> Scheduler:
    """Build the configured scheduler backend from the class specs."""
    return build_backend(
        backend, link_rate, specs,
        overload_policy=overload_policy,
        admission_control=admission_control,
    )


def leaf_names(specs: Sequence[ClassSpec]) -> List[str]:
    parents = {spec.parent for spec in specs if spec.parent is not None}
    return [spec.name for spec in specs if spec.name not in parents]

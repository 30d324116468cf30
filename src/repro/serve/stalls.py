"""Where the serving loop stops: per-cause stall accounting (``info.stalls``).

Theorem 2's delay bound holds while the serving loop runs.  A stall of
V seconds turns a class's service curve S(t) into S(t - V)+ on the wall
clock, so the honest bound is the theorem's plus the longest stall.  The
driver's ``max_lag`` says how long the worst one was; this says why.

Causes:

* ``gc0`` / ``gc1`` / ``gc2`` -- one pass of the cyclic collector over
  that generation, timed through :data:`gc.callbacks` while the service
  runs (:meth:`StallLog.watch_gc`);
* ``dispatch.<op>`` -- one control request, the whole of
  ``ControlServer.dispatch_line`` (``dispatch.invalid`` for a line that
  names no op).

Causes nest: a collection that runs inside a control op counts under
both.  The service freezes what it built once set-up or resume has
finished (:func:`gc.freeze`), so a full pass walks only what came after.
"""

from __future__ import annotations

import contextlib
import gc
import time
from typing import Any, Dict, Iterator, Optional

from repro.obs.core import LogLinearHistogram


class StallLog:
    """Per-cause histograms of how long the serving loop was held."""

    def __init__(self) -> None:
        self._causes: Dict[str, LogLinearHistogram] = {}
        self._gc_started: Optional[float] = None

    def record(self, cause: str, seconds: float) -> None:
        hist = self._causes.get(cause)
        if hist is None:
            hist = self._causes[cause] = LogLinearHistogram()
        hist.record(seconds)

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            self.record(f"gc{info['generation']}",
                        time.perf_counter() - self._gc_started)
            self._gc_started = None

    @contextlib.contextmanager
    def watch_gc(self) -> Iterator[None]:
        """Time every collection while the block runs."""
        gc.callbacks.append(self._on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(self._on_gc)
            self._gc_started = None

    def summary(self) -> Dict[str, Dict[str, float]]:
        return {
            cause: {
                "count": hist.count,
                "max_ms": hist.max * 1e3,
                "p99_ms": hist.quantile(0.99) * 1e3,
            }
            for cause, hist in sorted(self._causes.items())
        }

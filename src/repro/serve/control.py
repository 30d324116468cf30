"""JSON control plane for ``repro serve``.

Newline-delimited JSON over a unix stream socket.  Each request is one
line ``{"op": "...", ...params}``; each response is one line::

    {"ok": true,  "result": ...}
    {"ok": false, "error": {"type": "...", "message": "...", ...}}

Operations (documented in full in ``docs/SERVING.md``):

====================  =======================================================
``ping``              liveness + the simulated clock
``version``           the repro package version
``info``              static service configuration + lifetime counters
``stats``             a live telemetry snapshot (PR-3 obs exporters) plus
                      the dataplane and pacing-lag counters
``classes``           the current class tree with queue depths
``add_class``         grow the hierarchy; real-time curves pass eager
                      admission control first (``repro.core.admission``)
``update_class``      change a live class's curves (absent field = keep,
                      ``null`` = remove that role); on rate-based
                      backends with live reconfiguration (hls), change
                      its weight via ``rate``
``remove_class``      shrink the hierarchy; ``force`` drains a backlogged
                      subtree and reports the packets returned
``set_link_rate``     change the served link's rate live
``watchdog``          invariant-check reports (``check: true`` runs one now)
``snapshot``          write a PR-4 crash-safe snapshot to ``path``
``shutdown``          stop serving (optionally snapshotting first)
====================  =======================================================

Every mutating operation first drains events the wall clock has already
released (:meth:`RealTimeDriver.run_due`), so reconfiguration applies at
a consistent ``loop.now`` -- never in the middle of a backlog of past
arrivals -- exactly like the chaos subsystem's live reconfiguration.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import time
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from repro import __version__
from repro.core.admission import admissible_rate_headroom
# ``is_admissible`` is not called here; it stays importable under this
# module because benchmarks/layered/tracing.py wraps it by name.
from repro.core.curves import ServiceCurve, is_admissible  # noqa: F401
from repro.core.errors import ReproError
from repro.core.hfsc import HFSC, ROOT, UNCHANGED
from repro.obs import export as obs_export
from repro.obs.core import TELEMETRY as _TELEM
from repro.serve.hierarchy import curve_from_doc
from repro.util.rowmemo import same_objects

#: Largest accepted request line; a control peer is trusted but a runaway
#: client must not balloon the service's memory.
MAX_LINE = 1 << 20
_TOO_LONG = f"request line over {MAX_LINE} bytes"


def _curve_doc(curve: Optional[ServiceCurve]) -> Optional[Dict[str, float]]:
    if curve is None:
        return None
    return {"m1": curve.m1, "d": curve.d, "m2": curve.m2}


class _Encoded(str):
    """A result that is already JSON text; the reply splices it in as is."""


#: A ``classes`` row: its static values (name first) and its queue depth.
Row = Tuple[Tuple[Any, ...], int]


def _hfsc_rows(sched: HFSC) -> Iterable[Row]:
    # The spec slots behind the ``rt_spec``/``ls_spec``/``ul_spec``
    # properties: the same objects, read without the property call.
    for cls in sched._classes.values():
        parent = cls.parent
        if parent is not None:
            yield ((cls.name, parent.name, not cls.children, cls.rt_requested,
                    cls._rt_spec, cls._ls_spec, cls._ul_spec), len(cls.queue))


def _hfsc_row(key: Tuple[Any, ...]) -> Dict[str, Any]:
    name, parent, leaf, rt_requested, rt_spec, ls_spec, ul_spec = key
    return {
        "name": name,
        "parent": parent,
        "leaf": leaf,
        "queued": 0,
        "rt_sc": _curve_doc(rt_requested),
        "rt_effective": _curve_doc(rt_spec),
        "ls_sc": _curve_doc(ls_spec),
        "ul_sc": _curve_doc(ul_spec),
    }


def _rate_rows(sched: Any) -> Iterable[Row]:
    """Rate-based backends: the tree without its root, or a flat
    backend's leaves under the root (``fifo`` has neither: no rows)."""
    classes = getattr(sched, "_classes", None)
    if classes is None:
        for name, flow in getattr(sched, "_flows", {}).items():
            yield ((name, ROOT, getattr(flow, "rate", None)), len(flow.queue))
        return
    for name, cls in classes.items():
        if cls.parent is not None:
            rate = getattr(cls, "rate", getattr(cls, "weight", None))
            yield ((name, cls.parent.name, rate), len(cls.queue))


def _rate_row(key: Tuple[Any, ...]) -> Dict[str, Any]:
    name, parent, rate = key
    return {"name": name, "parent": parent, "rate": rate, "queued": 0}


def _row_text(row: Dict[str, Any]) -> Tuple[str, str]:
    """``json.dumps(row)`` cut around the value of ``queued`` (0 here).

    A ``"queued": `` inside an encoded string has its quotes escaped, so
    the first match is the key's.
    """
    prefix, _, suffix = json.dumps(row).partition('"queued": 0')
    return prefix + '"queued": ', suffix


class ControlError(ReproError):
    """A malformed or unserviceable control request."""


class ControlServer:
    """Dispatch control-plane requests against a :class:`ServeService`."""

    def __init__(self, service: Any):
        self.service = service
        self.requests = 0
        self.errors = 0
        # ``classes`` row memo: name -> (static values, text before the
        # queue depth, text after it).
        self._rows: Dict[Any, Tuple[Tuple[Any, ...], str, str]] = {}

    # -- transport ----------------------------------------------------------

    async def handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection: serve request lines until the peer closes.

        The reader's limit is :data:`MAX_LINE`.  A longer line is answered
        with a ``ControlError`` and the connection closed: the line's tail
        is still unread, so the stream cannot be resynchronized.
        """
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    self.requests += 1
                    reply = self._error_reply(ControlError(_TOO_LONG))
                    writer.write(reply.encode("utf-8") + b"\n")
                    with contextlib.suppress(ConnectionError):
                        await writer.drain()
                    break
                except ConnectionError:
                    break
                except asyncio.CancelledError:
                    # The service is tearing down mid-connection; finish
                    # the handler task cleanly instead of leaving a
                    # cancelled task for the loop teardown to log.
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                response = self.dispatch_line(line)
                writer.write(response.encode("utf-8") + b"\n")
                try:
                    await writer.drain()
                except ConnectionError:
                    break
        finally:
            writer.close()

    def dispatch_line(self, line: bytes) -> str:
        """Answer one request line; the time it holds the loop is filed
        under ``dispatch.<op>`` in the service's stall log."""
        started = time.perf_counter()
        self.requests += 1
        cause = "dispatch.invalid"
        try:
            if len(line) > MAX_LINE:
                raise ControlError(_TOO_LONG)
            try:
                request = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ControlError(f"request is not JSON: {exc}") from None
            if not isinstance(request, dict) or "op" not in request:
                raise ControlError('request must be an object with an "op" key')
            handler = self._handler(request["op"])
            cause = "dispatch." + handler.__name__[len("op_"):]
            result = handler(request)
            if isinstance(result, _Encoded):
                # What json.dumps would write around it, separators included.
                return '{"ok": true, "result": ' + result + "}"
            return json.dumps({"ok": True, "result": result})
        except ReproError as exc:
            return self._error_reply(exc)
        finally:
            self.service.stalls.record(cause, time.perf_counter() - started)

    def _error_reply(self, exc: ReproError) -> str:
        self.errors += 1
        error: Dict[str, Any] = {
            "type": type(exc).__name__,
            "message": str(exc),
        }
        context = getattr(exc, "context", None)
        if isinstance(context, dict):
            error["context"] = context
        return json.dumps({"ok": False, "error": error})

    # -- dispatch -----------------------------------------------------------

    def _handler(self, op: Any) -> Callable[[Dict[str, Any]], Any]:
        handler = getattr(self, "op_" + str(op).replace("-", "_"), None)
        if handler is None:
            raise ControlError(f"unknown op {op!r}")
        return handler

    def _require(self, request: Dict[str, Any], key: str) -> Any:
        if key not in request:
            raise ControlError(f"op {request['op']!r} needs {key!r}")
        return request[key]

    def _rate(self, request: Dict[str, Any], positive: bool = True) -> float:
        """``request["rate"]`` as a finite float (> 0 unless not ``positive``).

        Refused before anything changes: a NaN would pass every ``<= 0``
        test downstream, and an infinite rate cannot build a curve.
        """
        value = self._require(request, "rate")
        try:
            rate = float(value)
        except (TypeError, ValueError):
            raise ControlError(f"rate must be a number, got {value!r}") from None
        if not math.isfinite(rate) or (positive and rate <= 0):
            raise ControlError(
                f"rate must be {'positive and ' if positive else ''}finite, "
                f"got {value!r}"
            )
        return rate

    def _supporting(self, op: str) -> Any:
        """The scheduler, if its backend implements ``op``."""
        sched = self.service.scheduler
        if not hasattr(sched, op):
            raise ControlError(
                f"backend {self.service.backend!r} does not support {op}"
            )
        return sched

    # -- read-only ops -------------------------------------------------------

    def op_ping(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {"pong": True, "sim_clock": self.service.loop.now}

    def op_version(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {"version": __version__}

    def op_info(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return self.service.summary()

    def op_stats(self, request: Dict[str, Any]) -> Dict[str, Any]:
        svc = self.service
        snap = obs_export.snapshot(
            telemetry=_TELEM if _TELEM.enabled else None,
            scheduler=svc.scheduler,
            link=svc.link,
        )
        snap["dataplane"] = svc.dataplane.summary()
        snap["pacing"] = {
            "time_scale": svc.driver.time_scale,
            "max_lag": svc.driver.max_lag,
            "sim_clock": svc.loop.now,
        }
        return snap

    def op_classes(self, request: Dict[str, Any]) -> _Encoded:
        """Every non-root class, encoded through the row memo.

        A row's text is a pure function of its static values, so a row is
        re-encoded only when one of them is no longer the object it was
        encoded from; only its queue depth is formatted on every call.
        That also catches writes that bypass ``update_class`` (the
        ``scale-rt`` derating of ``rt_spec``, a direct assignment).
        """
        sched = self.service.scheduler
        if isinstance(sched, HFSC):
            return self._encode_rows(_hfsc_rows(sched), _hfsc_row)
        return self._encode_rows(_rate_rows(sched), _rate_row)

    def _encode_rows(
        self, rows: Iterable[Row],
        make_row: Callable[[Tuple[Any, ...]], Dict[str, Any]],
    ) -> _Encoded:
        memo = self._rows
        fresh: Dict[Any, Tuple[Tuple[Any, ...], str, str]] = {}
        parts = []
        for key, queued in rows:
            entry = memo.get(key[0])
            if entry is None or not same_objects(entry[0], key):
                entry = (key, *_row_text(make_row(key)))
            fresh[key[0]] = entry
            parts.append(f"{entry[1]}{queued}{entry[2]}")
        # Rebuilt every call, so removed classes drop out.
        self._rows = fresh
        return _Encoded("[" + ", ".join(parts) + "]")

    def op_watchdog(self, request: Dict[str, Any]) -> Dict[str, Any]:
        watchdog = self.service.watchdog
        if watchdog is None:
            raise ControlError("no watchdog configured for this backend")
        if request.get("check"):
            self.service.driver.run_due()
            watchdog.check_now()
        return {
            "checks_run": watchdog.checks_run,
            "violations": [r.to_dict() for r in watchdog.reports],
        }

    # -- admission-controlled reconfiguration --------------------------------

    def _parse_curves(
        self, request: Dict[str, Any], allow_unchanged: bool
    ) -> Dict[str, Any]:
        """``{"sc": doc}`` -> ServiceCurve, honouring UNCHANGED/None.

        For ``add_class`` (``allow_unchanged=False``) an absent role means
        "no curve".  For ``update_class`` an absent role means "keep as
        is" and an explicit ``null`` removes the role.
        """
        curves: Dict[str, Any] = {}
        for role in ("sc", "rt_sc", "ls_sc", "ul_sc"):
            if role not in request:
                curves[role] = UNCHANGED if allow_unchanged else None
            elif request[role] is None:
                curves[role] = None
            else:
                curves[role] = curve_from_doc(request[role])
        return curves

    def _check_rt_admission(
        self, target: Any, new_rt: Optional[ServiceCurve]
    ) -> None:
        """Eagerly reject an rt curve set that overbooks the link.

        The scheduler itself would catch this lazily on the next enqueue
        (under the configured overload policy); the control plane answers
        *now* so an operator's bad request fails cleanly instead of
        degrading live traffic later.
        """
        sched = self.service.scheduler
        if not isinstance(sched, HFSC):
            return
        if not sched.admits(target, new_rt):
            headroom = admissible_rate_headroom(
                sched.rt_curves(without=target), sched.link_rate
            )
            raise ControlError(
                f"real-time curve for {target!r} rejected by admission "
                f"control: sum of leaf rt curves would exceed the link rate "
                f"{sched.link_rate:g} (headroom for a linear curve: "
                f"{headroom:g})"
            )

    def _previous_curves(self, name: Any) -> Optional[Dict[str, Any]]:
        """A class's current curve docs -- what a rollback must restore."""
        sched = self.service.scheduler
        if not isinstance(sched, HFSC):
            return None
        cls = sched._classes.get(name)
        if cls is None:
            return None
        return {
            "rt_sc": _curve_doc(cls.rt_requested),
            "ls_sc": _curve_doc(cls.ls_spec),
            "ul_sc": _curve_doc(cls.ul_spec),
        }

    def op_add_class(self, request: Dict[str, Any]) -> Dict[str, Any]:
        svc = self.service
        name = self._require(request, "name")
        parent = request.get("parent")
        dry_run = bool(request.get("dry_run", False))
        sched = self._supporting("add_class")
        now = svc.driver.run_due()
        if isinstance(sched, HFSC):
            curves = self._parse_curves(request, allow_unchanged=False)
            if all(curves[role] is None for role in ("sc", "rt_sc", "ls_sc")):
                raise ControlError(f"class {name!r} needs a service curve")
            new_rt = curves["rt_sc"] if curves["sc"] is None else curves["sc"]
            self._check_rt_admission(name, new_rt)
            kwargs: Dict[str, Any] = dict(curves)
        else:
            kwargs = {"rate": self._rate(request)}
        if parent is not None:
            kwargs["parent"] = parent
        if dry_run:
            # The reserve phase of the cluster's two-phase admission:
            # everything add_class would refuse is refused *now* (no
            # curve or rate, name collision, unknown parent, eq.(1)
            # overbooking above), nothing is mutated.  Consistent because
            # only the front-end issues mutations and it serializes
            # reserve->commit.
            classes = getattr(sched, "_classes", {})
            if name in classes:
                raise ControlError(f"class {name!r} already exists")
            if parent is not None and parent not in classes:
                raise ControlError(f"parent class {parent!r} does not exist")
            if isinstance(sched, HFSC):
                sched.check_request("add_class", name, kwargs["sc"],
                                    kwargs["rt_sc"], kwargs["ls_sc"],
                                    kwargs.get("parent", ROOT))
            return {"reserved": name, "sim_clock": now}
        sched.add_class(name, **kwargs)
        return {"added": name, "sim_clock": now}

    def op_update_class(self, request: Dict[str, Any]) -> Dict[str, Any]:
        svc = self.service
        name = self._require(request, "name")
        dry_run = bool(request.get("dry_run", False))
        sched = self._supporting("update_class")
        if not isinstance(sched, HFSC):
            # Rate-based backends (hls) reconfigure by weight, not curve.
            rate = self._rate(request)
            classes = getattr(sched, "_classes", {})
            cls = classes.get(name)
            if cls is None:
                raise ControlError(f"class {name!r} does not exist")
            if getattr(cls, "is_root", False):
                raise ControlError("cannot update the root class")
            previous = {"rate": getattr(cls, "weight", None)}
            now = svc.driver.run_due()
            if dry_run:
                return {"reserved": name, "sim_clock": now,
                        "previous": previous}
            sched.update_class(name, now, rate=rate)
            return {"updated": name, "sim_clock": now, "previous": previous}
        curves = self._parse_curves(request, allow_unchanged=True)
        cls = sched._classes.get(name)
        if cls is None:
            raise ControlError(f"class {name!r} does not exist")
        if name == ROOT:
            raise ControlError("cannot update the root class (use set_link_rate)")
        sc = curves["sc"]
        new_rt, new_ls = (
            (sc, sc) if sc is not UNCHANGED else (curves["rt_sc"], curves["ls_sc"])
        )
        if new_rt is UNCHANGED:
            new_rt = cls.rt_requested
        if new_ls is UNCHANGED:
            new_ls = cls.ls_spec
        if new_rt is None and new_ls is None:
            raise ControlError(f"class {name!r} needs a service curve")
        self._check_rt_admission(name, new_rt)
        previous = self._previous_curves(name)
        now = svc.driver.run_due()
        if dry_run:
            # Reserve phase: admission, existence and the request's shape
            # checked, nothing mutated.  ``previous`` lets the front-end
            # restore this shard exactly if a later shard's commit fails.
            sched.check_request("update_class", name, sc, curves["rt_sc"],
                                curves["ls_sc"])
            return {"reserved": name, "sim_clock": now, "previous": previous}
        sched.update_class(name, now, **curves)
        return {"updated": name, "sim_clock": now, "previous": previous}

    def op_remove_class(self, request: Dict[str, Any]) -> Dict[str, Any]:
        svc = self.service
        name = self._require(request, "name")
        force = bool(request.get("force", False))
        sched = self._supporting("remove_class")
        now = svc.driver.run_due()
        if request.get("dry_run"):
            # Reserve phase: existence and "not the root" are what the
            # real removal checks first; backlog can grow between reserve
            # and commit, so force-less cluster removes stay best-effort
            # -- documented in docs/SERVING.md.
            classes = getattr(sched, "_classes", {})
            if name not in classes:
                raise ControlError(f"class {name!r} does not exist")
            if name == ROOT:
                raise ControlError("cannot remove the root class")
            parent_obj = getattr(classes[name], "parent", None)
            parent = (
                None
                if parent_obj is None or getattr(parent_obj, "is_root", False)
                else parent_obj.name
            )
            # ``previous`` + ``parent`` let the front-end re-add the
            # class (queued packets excepted) if another shard's commit
            # fails -- the tree stays consistent cluster-wide.
            return {
                "reserved": name,
                "sim_clock": now,
                "parent": parent,
                "previous": self._previous_curves(name),
            }
        drained = sched.remove_class(name, force=force)
        # Packets drained out of the scheduler never depart: release
        # their slice of the edge buffer and their reflect state.
        for packet in drained:
            svc.dataplane._forget(packet)
        svc.dataplane.backlog.pop(name, None)
        return {
            "removed": name,
            "drained_packets": len(drained),
            "drained_bytes": sum(p.size for p in drained),
            "sim_clock": now,
        }

    def op_set_link_rate(self, request: Dict[str, Any]) -> Dict[str, Any]:
        svc = self.service
        rate = self._rate(request, positive=False)
        now = svc.driver.run_due()
        svc.link.set_rate(rate)
        if rate > 0 and hasattr(svc.scheduler, "set_link_rate"):
            svc.scheduler.set_link_rate(rate)
        return {"link_rate": rate, "sim_clock": now}

    # -- lifecycle ops -------------------------------------------------------

    def op_snapshot(self, request: Dict[str, Any]) -> Dict[str, Any]:
        path = self._require(request, "path")
        self.service.write_snapshot(path)
        return {"path": path, "sim_clock": self.service.loop.now}

    def op_shutdown(self, request: Dict[str, Any]) -> Dict[str, Any]:
        self.service.request_stop(snapshot=bool(request.get("snapshot", True)))
        return {"stopping": True}

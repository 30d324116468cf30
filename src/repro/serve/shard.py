"""Flow->shard placement and the per-shard worker process.

Horizontal scale-out for ``repro serve``: one scheduler core saturates
around the compiled fast path's per-process throughput, so the cluster
runs N independent workers -- each a full :class:`ServeService` (Link +
scheduler + Watchdog + RunContext) on its own sockets -- and pins every
*flow* to exactly one worker, so a flow's packets meet one scheduler, in
order.  Every shard runs the *same* hierarchy at ``1/N`` of the
aggregate link rate, so the per-shard eq. (1) check holds iff the
aggregate one does, and per-shard fairness gives each class its
fractional share of every shard (arXiv:1010.3142).

Service-curve bounds do *not* survive this partitioning.  A shard
serves a class ``1/N`` of its curve on a ``1/N``-speed link, so its
Theorem 2 bound grows N-fold even when its traffic splits evenly
(``campus``'s ``cmu.audio``: 4.08 ms at N = 1, 8.16 ms at N = 2, 16.32 ms
at N = 4, by :func:`repro.analysis.delay.hfsc_delay_bound`), and it is
infinite when one flow carries the class's whole rate, since flows are
placed by name hash, not by class.  ROADMAP item 20 (class-affine
placement of real-time leaves) is the fix.

The placement function is a **consistent-hash ring**
(:class:`ShardRing`):

* *deterministic across processes* -- ring points and flow keys hash
  through :func:`hashlib.blake2b`, never Python's salted ``hash()``, so
  the load generator, the front-end and every worker compute identical
  placements with no coordination;
* *stable under resize* -- growing N shards to N+1 remaps only the ring
  arcs the new shard's points claim, an expected ``1/(N+1)`` fraction of
  flows (``tests/test_serve_shard.py`` proves the bound under
  hypothesis).

Workers double-check placement: a datagram whose flow does not hash to
this shard is shed and counted (``misrouted``) rather than scheduled,
so a misconfigured sender can skew load but never break per-flow
ordering or fairness accounting.

:func:`worker_main` is the child-process entry point
(:class:`~repro.serve.cluster.ShardManager` forks it): build the
service, bind the shard's sockets, serve, write a summary JSON the
manager merges.  It is importable at module top level so both the
``fork`` and ``spawn`` multiprocessing start methods work.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.core.errors import ConfigurationError, ReproError
from repro.serve.hierarchy import spec_from_doc, spec_to_doc
from repro.serve.wire import Classifier, SuffixClassifier

#: Default virtual nodes per shard.  More replicas -> smoother arcs ->
#: tighter load spread and resize-remap bounds; 64 keeps ring build cost
#: trivial while holding the observed N->N+1 remap fraction within ~1.5x
#: of the ideal 1/(N+1).
DEFAULT_REPLICAS = 64

#: Default hash salt.  Part of the placement identity: two parties only
#: agree on flow->shard if they share (shards, replicas, salt), which is
#: why the cluster snapshot manifest records all three.
DEFAULT_SALT = "repro-shard-v1"


def _hash64(text: str) -> int:
    """Stable 64-bit hash (blake2b, process- and platform-independent)."""
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ShardRing:
    """Deterministic consistent-hash ring over ``shards`` workers."""

    def __init__(
        self,
        shards: int,
        replicas: int = DEFAULT_REPLICAS,
        salt: str = DEFAULT_SALT,
    ):
        if shards < 1:
            raise ConfigurationError("ShardRing needs at least one shard")
        if replicas < 1:
            raise ConfigurationError("ShardRing needs at least one replica")
        self.shards = int(shards)
        self.replicas = int(replicas)
        self.salt = str(salt)
        points = sorted(
            (_hash64(f"{self.salt}|{shard}|{replica}"), shard)
            for shard in range(self.shards)
            for replica in range(self.replicas)
        )
        self._keys = [key for key, _ in points]
        self._owners = [owner for _, owner in points]

    def shard_for(self, flow: Any) -> int:
        """The shard index owning ``flow`` (any string-able flow name)."""
        key = _hash64(flow if isinstance(flow, str) else str(flow))
        index = bisect.bisect_right(self._keys, key)
        if index == len(self._keys):
            index = 0  # wrap: keys past the last point belong to the first
        return self._owners[index]

    def params(self) -> Dict[str, Any]:
        """The placement identity (recorded in the snapshot manifest)."""
        return {
            "shards": self.shards,
            "replicas": self.replicas,
            "salt": self.salt,
        }

    @classmethod
    def from_params(cls, doc: Dict[str, Any]) -> "ShardRing":
        return cls(int(doc["shards"]), int(doc["replicas"]), str(doc["salt"]))


class ShardFilterClassifier:
    """Shed flows that do not hash to this shard; classify the rest.

    The inner classifier (usually :class:`SuffixClassifier`) still maps
    the flow onto a leaf class; this wrapper only enforces placement.
    Misroutes are counted separately from the dataplane's
    ``shed_unknown`` so an operator can tell "sender disagrees about the
    ring" from "sender names a class that does not exist".
    """

    def __init__(self, ring: ShardRing, index: int, inner: Classifier):
        if not 0 <= index < ring.shards:
            raise ConfigurationError(
                f"shard index {index} out of range for {ring.shards} shards"
            )
        self.ring = ring
        self.index = index
        self.inner = inner
        self.misrouted = 0

    def __call__(self, flow: str, addr: Any = None) -> Optional[Any]:
        if self.ring.shard_for(flow) != self.index:
            self.misrouted += 1
            return None
        return self.inner(flow, addr)


# -- per-shard addressing -----------------------------------------------------
#
# All four parties (manager, workers, front-end, load generator) derive a
# shard's socket addresses the same way, so the ring is the only shared
# state: UDP shard i binds base_port + i; unix sockets append ".<i>".


def shard_udp_address(host: str, base_port: int, index: int):
    return host, base_port + index


def shard_unix_path(base: str, index: int) -> str:
    return f"{base}.{index}"


def shard_control_path(base: str, index: int) -> str:
    return f"{base}.{index}"


def shard_summary_path(workdir: str, index: int) -> str:
    return os.path.join(workdir, f"shard-{index}.summary.json")


# -- the worker process -------------------------------------------------------


def worker_config(
    *,
    index: int,
    shards: int,
    ring: ShardRing,
    specs: Sequence[Any],
    link_rate: float,
    backend: str = "hfsc",
    overload_policy: str = "raise",
    time_scale: float = 1.0,
    buffer_packets: int = 256,
    watchdog_period: float = 0.25,
    telemetry: bool = False,
    udp: Optional[Sequence[Any]] = None,
    unix: Optional[str] = None,
    control: Optional[str] = None,
    snapshot: Optional[str] = None,
    resume: Optional[str] = None,
    duration: Optional[float] = None,
    summary: Optional[str] = None,
    checkpoint_every: Optional[float] = None,
    manifest: bool = False,
) -> Dict[str, Any]:
    """One worker's whole configuration as a JSON-able document.

    The document crosses the process boundary (it must survive the
    ``spawn`` start method's pickling), so class specs travel as plain
    dicts -- ``spec_to_doc``/``spec_from_doc`` round-trip them exactly.
    ``link_rate`` here is the *per-shard* rate: the manager divides the
    aggregate by N before building configs.
    """
    return {
        "index": int(index),
        "shards": int(shards),
        "ring": ring.params(),
        "classes": [spec_to_doc(spec) for spec in specs],
        "link_rate": float(link_rate),
        "backend": backend,
        "overload_policy": overload_policy,
        "time_scale": float(time_scale),
        "buffer_packets": int(buffer_packets),
        "watchdog_period": float(watchdog_period),
        "telemetry": bool(telemetry),
        "udp": None if udp is None else [udp[0], int(udp[1])],
        "unix": unix,
        "control": control,
        "snapshot": snapshot,
        "resume": resume,
        "duration": duration,
        "summary": summary,
        "checkpoint_every": checkpoint_every,
        "manifest": bool(manifest),
    }


def build_worker_service(doc: Dict[str, Any]):
    """A :class:`ServeService` for one shard (shared by tests/benches)."""
    from repro.serve.hierarchy import leaf_names
    from repro.serve.service import ServeService

    specs = [spec_from_doc(c) for c in doc["classes"]]
    ring = ShardRing.from_params(doc["ring"])
    classifier = ShardFilterClassifier(
        ring, doc["index"], SuffixClassifier(leaf_names(specs))
    )
    service = ServeService(
        specs,
        doc["link_rate"],
        backend=doc["backend"],
        overload_policy=doc["overload_policy"],
        time_scale=doc["time_scale"],
        buffer_packets=doc["buffer_packets"],
        watchdog_period=doc["watchdog_period"],
        classifier=classifier,
    )
    return service, classifier


async def _serve_worker(service, doc: Dict[str, Any]) -> None:
    index = doc["index"]
    if doc["udp"] is not None:
        host, base_port = doc["udp"]
        await service.start_udp(
            *shard_udp_address(host, base_port, index), reuse_port=True
        )
    if doc["unix"] is not None:
        await service.start_unix_datagram(shard_unix_path(doc["unix"], index))
    if doc["control"] is not None:
        await service.start_control(shard_control_path(doc["control"], index))
    await service.run(duration=doc["duration"])


def _write_summary(path: str, summary: Dict[str, Any]) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, default=str)
        fh.write("\n")
    os.replace(tmp, path)


def worker_main(doc: Dict[str, Any]) -> int:
    """Child-process body: serve one shard until done, write the summary.

    Exit codes mirror ``repro serve``: 0 clean, 1 watchdog violations,
    2 configuration/bind error (structured message on stderr, no
    traceback -- a mistyped port must read like a mistyped port).
    """
    import contextlib

    from repro.obs.core import telemetry_session

    label = f"repro serve [shard {doc['index']}/{doc['shards']}]"
    try:
        service, classifier = build_worker_service(doc)
        service.snapshot_path = doc["snapshot"]
        service.checkpoint_every = doc.get("checkpoint_every")
        if doc.get("manifest") and doc["snapshot"]:
            from repro.persist.manifest import update_manifest_shard

            directory = os.path.dirname(doc["snapshot"]) or "."
            aggregate_rate = doc["link_rate"] * doc["shards"]

            def _repin_manifest(path: str) -> None:
                # Envelope first, manifest second: by the time this runs
                # the rotated snapshot is fully on disk, so the manifest
                # never vouches for bytes that do not exist.
                update_manifest_shard(
                    directory, doc["index"],
                    ring_params=doc["ring"], backend=doc["backend"],
                    link_rate=aggregate_rate,
                )

            service.on_checkpoint = _repin_manifest
        if doc["resume"]:
            service.restore_snapshot(doc["resume"])
        session = (
            telemetry_session(record_packets=False)
            if doc["telemetry"] else contextlib.nullcontext()
        )
        with session:
            asyncio.run(_serve_worker(service, doc))
    except ReproError as exc:
        print(f"{label}: {exc}", file=sys.stderr)
        return 2
    finally:
        # Sockets this worker bound are its to clean up; a crashed
        # worker's stale paths are removed by the manager pre-start.
        for path in (
            None if doc["unix"] is None
            else shard_unix_path(doc["unix"], doc["index"]),
            None if doc["control"] is None
            else shard_control_path(doc["control"], doc["index"]),
        ):
            if path is not None:
                try:
                    os.unlink(path)
                except OSError:
                    pass
    summary = service.summary()
    summary["shard"] = {
        "index": doc["index"],
        "shards": doc["shards"],
        "misrouted": classifier.misrouted,
        "pid": os.getpid(),
    }
    if doc["summary"]:
        _write_summary(doc["summary"], summary)
    violations = (summary.get("watchdog") or {}).get("violations", [])
    return 1 if violations else 0


def worker_process_entry(doc: Dict[str, Any]) -> None:
    """``multiprocessing.Process`` target: exit with worker_main's code.

    An uncaught non-:class:`ReproError` crash exits 3 so the supervisor
    can tell "worker blew up, restart it" (3, or signal-killed negative)
    from "worker finished its run" (0/1) and "worker refuses this
    config" (2 -- restarting would just loop).
    """
    try:
        code = worker_main(doc)
    except SystemExit:
        raise
    except BaseException:
        import traceback

        traceback.print_exc()
        code = 3
    sys.exit(code)


def assignments(ring: ShardRing, flows: Sequence[str]) -> List[int]:
    """Vectorized ``shard_for`` (loadgen precomputes per-flow targets)."""
    return [ring.shard_for(flow) for flow in flows]

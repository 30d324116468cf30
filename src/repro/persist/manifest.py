"""Multi-envelope snapshot manifest for the sharded cluster.

A sharded ``repro serve`` run checkpoints as *one snapshot per worker*
(each a normal PR-4 envelope -- versioned, checksummed, atomic) plus one
``manifest.json`` binding them together.  The manifest records what a
resume must agree on before any worker touches an envelope:

* the **placement identity** -- shard count, ring replicas, hash salt --
  because restoring shard 2-of-4's queues into a 5-shard ring would
  scatter restored flows across wrong workers;
* the **aggregate configuration** -- backend and aggregate link rate --
  so the per-shard rate (``link_rate / shards``) is re-derived, never
  guessed;
* each envelope's **stored checksum**, so a swapped or truncated shard
  file is refused at manifest load, before a single worker forks.

The manifest is plain JSON (not an envelope itself): it carries only
pointers and identity, and each pointed-at file self-verifies.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

from repro.core.errors import SnapshotError
from repro.persist.codec import sync_directory

MANIFEST_FORMAT = "repro-cluster-manifest"
MANIFEST_SCHEMA = 1
MANIFEST_NAME = "manifest.json"

#: Sidecar flock target serializing concurrent per-shard manifest
#: updates (N workers checkpoint on independent cadences).
MANIFEST_LOCK_NAME = "manifest.lock"


def shard_snapshot_name(index: int) -> str:
    return f"shard-{index}.snap"


def _envelope_checksum(path: str) -> str:
    """The stored body checksum of the envelope at ``path``.

    Only the envelope's own claim is read here; the full body-vs-claim
    verification happens when the worker loads its envelope.  The
    manifest pins claim-at-write-time so a later file swap is caught.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            envelope = json.load(handle)
    except (OSError, ValueError) as exc:
        raise SnapshotError(
            f"cannot read shard snapshot {path!r}: {exc}", reason="io-error"
        ) from exc
    checksum = envelope.get("checksum") if isinstance(envelope, dict) else None
    if not isinstance(checksum, str):
        raise SnapshotError(
            f"shard snapshot {path!r} has no envelope checksum",
            reason="bad-format",
        )
    return checksum


def write_manifest(
    directory: str,
    *,
    ring_params: Dict[str, Any],
    backend: str,
    link_rate: float,
    extra: Optional[Dict[str, Any]] = None,
) -> str:
    """Bind the ``shard-<i>.snap`` envelopes in ``directory`` together.

    Every shard the ring names must already have written its envelope;
    a missing one fails the write (a partial cluster checkpoint must
    not look like a complete one).  Returns the manifest path.
    """
    shards = int(ring_params["shards"])
    snapshots: List[Dict[str, Any]] = []
    for index in range(shards):
        name = shard_snapshot_name(index)
        path = os.path.join(directory, name)
        if not os.path.exists(path):
            raise SnapshotError(
                f"shard {index} never wrote its snapshot ({path!r} missing)",
                reason="io-error",
                context={"shard": index, "path": path},
            )
        snapshots.append({
            "shard": index,
            "path": name,
            "checksum": _envelope_checksum(path),
        })
    doc: Dict[str, Any] = {
        "format": MANIFEST_FORMAT,
        "schema": MANIFEST_SCHEMA,
        "ring": dict(ring_params),
        "backend": backend,
        "link_rate": float(link_rate),
        "snapshots": snapshots,
    }
    if extra:
        doc["extra"] = extra
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    _atomic_write_doc(manifest_path, doc)
    return manifest_path


def _atomic_write_doc(manifest_path: str, doc: Dict[str, Any]) -> None:
    tmp = f"{manifest_path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, manifest_path)
        sync_directory(manifest_path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def update_manifest_shard(
    directory: str,
    index: int,
    *,
    ring_params: Dict[str, Any],
    backend: str,
    link_rate: float,
) -> str:
    """Re-pin one shard's envelope checksum in the manifest, atomically.

    This is the periodic-checkpoint path: each worker snapshots on its
    own cadence and re-binds *only its own* entry, under an ``flock`` on
    a sidecar lock file so concurrent workers never lose each other's
    updates.  The envelope must already be fully written (its checksum
    claim is read here), so the ordering *envelope first, manifest
    second* guarantees every crash window leaves a manifest whose pinned
    checksum matches a real file -- either the fresh envelope or, if the
    crash hit between the snapshot rotation and this update, the
    ``.prev`` rotation target the supervisor falls back to.

    A manifest from a different placement (ring params changed) is
    discarded and rebuilt rather than mixed with stale entries.
    Partially-populated manifests intentionally fail the strict
    :func:`load_manifest` (a partial cluster checkpoint must not look
    complete); they converge to complete after every shard's first
    cadence.
    """
    name = shard_snapshot_name(index)
    path = os.path.join(directory, name)
    checksum = _envelope_checksum(path)
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    lock_path = os.path.join(directory, MANIFEST_LOCK_NAME)
    with open(lock_path, "a") as lock:
        if fcntl is not None:
            fcntl.flock(lock.fileno(), fcntl.LOCK_EX)
        try:
            try:
                with open(manifest_path, encoding="utf-8") as handle:
                    doc = json.load(handle)
            except (OSError, ValueError):
                doc = None
            if (
                not isinstance(doc, dict)
                or doc.get("format") != MANIFEST_FORMAT
                or doc.get("schema") != MANIFEST_SCHEMA
                or doc.get("ring") != dict(ring_params)
            ):
                doc = {
                    "format": MANIFEST_FORMAT,
                    "schema": MANIFEST_SCHEMA,
                    "ring": dict(ring_params),
                    "snapshots": [],
                }
            doc["backend"] = backend
            doc["link_rate"] = float(link_rate)
            snapshots = [
                entry for entry in doc.get("snapshots", [])
                if isinstance(entry, dict) and entry.get("shard") != index
            ]
            snapshots.append({"shard": index, "path": name,
                              "checksum": checksum})
            doc["snapshots"] = sorted(snapshots, key=lambda e: e["shard"])
            _atomic_write_doc(manifest_path, doc)
        finally:
            if fcntl is not None:
                fcntl.flock(lock.fileno(), fcntl.LOCK_UN)
    return manifest_path


def read_manifest_doc(directory: str) -> Optional[Dict[str, Any]]:
    """Best-effort manifest read: no checksum or completeness checks.

    The supervisor uses this to learn which envelope checksum the
    manifest pins for one shard before deciding what a restarted worker
    may resume from; a missing/corrupt/foreign manifest is simply
    ``None`` (the caller then refuses unvouched-for envelopes or starts
    fresh) rather than an error -- restart must never be wedged by a
    torn manifest.  Full-cluster resume keeps the strict
    :func:`load_manifest`.
    """
    if os.path.basename(directory) == MANIFEST_NAME:
        manifest_path = directory
    else:
        manifest_path = os.path.join(directory, MANIFEST_NAME)
    try:
        with open(manifest_path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(doc, dict) or doc.get("format") != MANIFEST_FORMAT:
        return None
    return doc


def manifest_entry(
    doc: Optional[Dict[str, Any]], index: int
) -> Optional[Dict[str, Any]]:
    """The snapshot entry for ``index`` in a (lenient) manifest doc."""
    if not isinstance(doc, dict):
        return None
    for entry in doc.get("snapshots") or []:
        if isinstance(entry, dict) and entry.get("shard") == index:
            return entry
    return None


def load_manifest(directory: str) -> Dict[str, Any]:
    """Load and verify a cluster manifest; returns the manifest doc.

    Verifies the manifest's own shape, that every listed envelope still
    exists, and that each envelope's stored checksum matches the one
    pinned at write time.  Each snapshot entry gains an ``abspath`` key
    for the caller.  Full body verification stays with the worker that
    loads the envelope.
    """
    # Accept the snapshot directory or the manifest file itself --
    # `--resume snaps/` and `--resume snaps/manifest.json` mean the same.
    if os.path.basename(directory) == MANIFEST_NAME:
        manifest_path = directory
        directory = os.path.dirname(directory) or "."
    else:
        manifest_path = os.path.join(directory, MANIFEST_NAME)
    try:
        with open(manifest_path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as exc:
        raise SnapshotError(
            f"cannot read cluster manifest {manifest_path!r}: {exc}",
            reason="io-error",
        ) from exc
    if not isinstance(doc, dict) or doc.get("format") != MANIFEST_FORMAT:
        raise SnapshotError(
            f"{manifest_path!r} is not a cluster manifest", reason="bad-format"
        )
    if doc.get("schema") != MANIFEST_SCHEMA:
        raise SnapshotError(
            f"cluster manifest schema {doc.get('schema')!r} is not supported "
            f"(this build reads version {MANIFEST_SCHEMA})",
            reason="schema-version",
            context={"stored": doc.get("schema"), "supported": MANIFEST_SCHEMA},
        )
    ring = doc.get("ring")
    snapshots = doc.get("snapshots")
    if not isinstance(ring, dict) or not isinstance(snapshots, list):
        raise SnapshotError(
            "cluster manifest is missing 'ring' or 'snapshots'",
            reason="missing-field",
        )
    if len(snapshots) != int(ring.get("shards", -1)):
        raise SnapshotError(
            f"cluster manifest lists {len(snapshots)} snapshots for "
            f"{ring.get('shards')!r} shards",
            reason="bad-format",
        )
    for entry in snapshots:
        path = os.path.join(directory, entry["path"])
        stored = entry.get("checksum")
        actual = _envelope_checksum(path)
        if stored != actual:
            raise SnapshotError(
                f"shard {entry.get('shard')} snapshot changed since the "
                f"manifest was written",
                reason="checksum-mismatch",
                context={"path": path, "stored": stored, "computed": actual},
            )
        entry["abspath"] = path
    return doc

"""Snapshot document codec: envelope, integrity checksum, packet table.

A snapshot is a single self-describing JSON document::

    {"format": "repro-snapshot", "schema": 1,
     "checksum": "sha256:...", "body": {...}}

The ``body`` is produced by the scheduler / runtime codecs
(:mod:`repro.persist.schedulers`, :mod:`repro.persist.runtime`); this
module owns everything around it:

* **versioning** -- ``schema`` is bumped whenever the body layout
  changes; a loader refuses documents from a different schema rather
  than guessing (``SnapshotError(reason="schema-version")``);
* **integrity** -- ``checksum`` is the SHA-256 of the body's canonical
  serialization (sorted keys, no whitespace), which is also the form
  the body is written in; the loader re-serializes the parsed body and
  compares, so any bit flip inside the body is caught before a single
  field is applied, whatever the layout of the file around it;
* **strictness** -- unknown envelope fields are rejected, as is every
  unknown field further down (each codec validates its own level), so
  a snapshot written by a newer minor revision cannot be half-applied;
* **float exactness** -- Python's ``json`` round-trips floats through
  ``repr`` (shortest round-trip), so every timestamp, virtual time and
  curve parameter survives bit-for-bit.  ``inf`` sentinels ride along
  as JSON ``Infinity`` literals (the Python dialect; snapshots are a
  private format, not an interchange one);
* **atomic writes** -- :func:`save_snapshot` writes a temp file,
  ``os.replace``\\ s it and fsyncs the directory, so a crash mid-write
  never corrupts an existing checkpoint and a power loss cannot undo
  the rename.

Restores are atomic by construction: every codec builds fresh objects
and only hands them over on success, so a refused document leaves no
half-applied state anywhere.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Callable, Dict, List, Tuple

import repro.sim.packet as _packet_mod
from repro.core.errors import SnapshotError
from repro.sim.packet import Packet
from repro.util.rowmemo import EncodedRows, canonical_text

FORMAT = "repro-snapshot"
SCHEMA_VERSION = 1

_ENVELOPE_KEYS = frozenset({"format", "schema", "checksum", "body"})

#: Packet-table entry layout (positional, in this order).
_PACKET_FIELDS = (
    "class_id",
    "size",
    "created",
    "enqueued",
    "dequeued",
    "departed",
    "deadline",
    "via_realtime",
)


#: Placeholder for the ``i``-th row list at attempt ``a``:
#: ``_STUB.format(a) + str(i)``.
_STUB = "\0rows{}."


def _stub_rows(doc: Dict[str, Any], token: str,
               found: List[Tuple[str, EncodedRows]]) -> Dict[str, Any]:
    """``doc`` with each :class:`EncodedRows` under its dicts replaced by
    a numbered ``token`` string; copies only the dicts on those paths."""
    out = doc
    for key, value in doc.items():
        if type(value) is EncodedRows:
            stub: Any = f"{token}{len(found)}"
            found.append((stub, value))
        elif type(value) is dict:
            stub = _stub_rows(value, token, found)
            if stub is value:
                continue
        else:
            continue
        if out is doc:
            out = dict(doc)
        out[key] = stub
    return out


def _canonical(body: Dict[str, Any]) -> Tuple[str, str]:
    """``body``'s canonical serialization and the checksum over it.

    The text is ``json.dumps(body, sort_keys=True, separators=(",", ":"))``
    byte for byte.  Row lists that carry their rows' texts
    (:class:`EncodedRows`, a scheduler's snapshot memo) are not
    re-encoded: each is stubbed out by a placeholder string, the rest is
    encoded, and the texts are spliced where the placeholder landed.  A
    placeholder that also occurs elsewhere in the text (a class named
    like it) is not unique, so another one is tried.
    """
    attempt = 0
    while True:
        found: List[Tuple[str, EncodedRows]] = []
        text = canonical_text(_stub_rows(body, _STUB.format(attempt), found))
        stubs = [(canonical_text(stub), rows) for stub, rows in found]
        if all(text.count(stub) == 1 for stub, _ in stubs):
            break
        attempt += 1
    for stub, rows in stubs:
        head, tail = text.split(stub)
        text = head + rows.encoded() + tail
    return text, "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def body_checksum(body: Dict[str, Any]) -> str:
    """SHA-256 over the canonical serialization of ``body``."""
    return _canonical(body)[1]


def dumps_snapshot(body: Dict[str, Any]) -> str:
    """Wrap ``body`` in the versioned, checksummed envelope.

    The body is serialized once, canonically, and the bytes hashed are
    the bytes written.  The envelope's keys come in the order
    ``sort_keys`` gives them, so ``json.loads`` of this text equals that
    of an envelope written with ``json.dumps(envelope, sort_keys=True)``.
    """
    text, checksum = _canonical(body)
    return (f'{{"body":{text},"checksum":"{checksum}",'
            f'"format":"{FORMAT}","schema":{SCHEMA_VERSION}}}')


def loads_snapshot(text: str) -> Dict[str, Any]:
    """Parse and verify an envelope; returns the body.

    Refuses -- with a structured :class:`SnapshotError`, never a partial
    result -- anything that is not a JSON object, carries unknown
    envelope fields, claims a different format or schema version, or
    fails the checksum.
    """
    try:
        envelope = json.loads(text)
    except ValueError as exc:
        raise SnapshotError(
            f"snapshot is not valid JSON: {exc}", reason="bad-json"
        ) from exc
    if not isinstance(envelope, dict):
        raise SnapshotError(
            "snapshot envelope is not a JSON object", reason="bad-format"
        )
    if set(envelope) != _ENVELOPE_KEYS:
        extra = sorted(map(str, set(envelope) - _ENVELOPE_KEYS))
        missing = sorted(_ENVELOPE_KEYS - set(envelope))
        raise SnapshotError(
            "malformed snapshot envelope",
            reason="unknown-field" if extra else "missing-field",
            context={"extra": extra, "missing": missing},
        )
    if envelope["format"] != FORMAT:
        raise SnapshotError(
            f"not a repro snapshot (format={envelope['format']!r})",
            reason="bad-format",
        )
    schema = envelope["schema"]
    # ``True == 1.0 == 1``: only an int (and bool is not one) names a version.
    if type(schema) is not int or schema != SCHEMA_VERSION:
        raise SnapshotError(
            f"snapshot schema version {envelope['schema']!r} is not "
            f"supported (this build reads version {SCHEMA_VERSION})",
            reason="schema-version",
            context={"stored": envelope["schema"], "supported": SCHEMA_VERSION},
        )
    body = envelope["body"]
    if not isinstance(body, dict):
        raise SnapshotError("snapshot body is not a JSON object", reason="bad-format")
    expected = envelope["checksum"]
    actual = body_checksum(body)
    if expected != actual:
        raise SnapshotError(
            "snapshot checksum mismatch: the document is corrupted",
            reason="checksum-mismatch",
            context={"stored": expected, "computed": actual},
        )
    return body


def save_snapshot(path: str, body: Dict[str, Any]) -> None:
    """Atomically write ``body`` (enveloped) to ``path``.

    The document lands under a temporary name first and is
    ``os.replace``\\ d into place, so an interrupted write -- the whole
    point of checkpointing -- can never corrupt the previous snapshot;
    the directory is then fsynced so the rename itself survives a power
    loss.
    """
    text = dumps_snapshot(body)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        sync_directory(path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def sync_directory(path: str) -> None:
    """fsync the directory holding ``path``.

    ``os.replace`` is atomic but lives in the directory's metadata: until
    the directory itself is synced, a power loss can bring the old entry
    back.  Call once after the last rename of a write.
    """
    fd = os.open(os.path.dirname(os.path.abspath(path)),
                 os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def load_snapshot(path: str) -> Dict[str, Any]:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise SnapshotError(
            f"cannot read snapshot {path!r}: {exc}", reason="io-error"
        ) from exc
    return loads_snapshot(text)


# -- packet table ------------------------------------------------------------


class PacketTable:
    """Interns packets referenced anywhere in a snapshot body.

    Queues, in-flight transmission state and pending events all point at
    the same :class:`Packet` objects; the table stores each packet once,
    keyed by its ``uid``, and the referencing codecs store bare uids --
    so object identity survives the round trip (a packet queued *and*
    referenced by a pending event is one object again after restore).
    """

    def __init__(self) -> None:
        self._by_uid: Dict[int, Packet] = {}

    def add(self, packet: Packet) -> int:
        if packet.payload is not None:
            raise SnapshotError(
                f"packet {packet.uid} carries a non-serializable payload",
                reason="unsupported-payload",
                context={"class_id": str(packet.class_id)},
            )
        if not isinstance(packet.class_id, (str, int)):
            raise SnapshotError(
                f"packet class id {packet.class_id!r} is not JSON-safe",
                reason="unsupported-name",
            )
        existing = self._by_uid.get(packet.uid)
        if existing is not None and existing is not packet:
            raise SnapshotError(
                f"two distinct packets share uid {packet.uid}",
                reason="uid-collision",
            )
        self._by_uid[packet.uid] = packet
        return packet.uid

    def __len__(self) -> int:
        return len(self._by_uid)

    def to_doc(self) -> Dict[str, Any]:
        return {
            str(uid): [getattr(p, field) for field in _PACKET_FIELDS]
            for uid, p in self._by_uid.items()
        }


def restore_packets(doc: Dict[str, Any]) -> Callable[[int], Packet]:
    """Rebuild the packet table; returns the ``get_packet`` resolver.

    The process-global uid counter is advanced past every restored uid
    so packets created *after* the restore can never collide with a
    restored one -- a second checkpoint taken later in the resumed run
    must key its table unambiguously.
    """
    import itertools

    by_uid: Dict[int, Packet] = {}
    max_uid = -1
    for key, fields in doc.items():
        try:
            uid = int(key)
        except ValueError:
            raise SnapshotError(
                f"malformed packet uid {key!r}", reason="bad-packet"
            ) from None
        if not isinstance(fields, list) or len(fields) != len(_PACKET_FIELDS):
            raise SnapshotError(
                f"malformed packet record for uid {uid}", reason="bad-packet"
            )
        class_id, size, created = fields[0], fields[1], fields[2]
        try:
            packet = Packet(class_id, size, created=created)
        except (TypeError, ValueError) as exc:
            raise SnapshotError(
                f"invalid packet record for uid {uid}: {exc}", reason="bad-packet"
            ) from exc
        packet.uid = uid
        packet.enqueued = fields[3]
        packet.dequeued = fields[4]
        packet.departed = fields[5]
        packet.deadline = fields[6]
        packet.via_realtime = fields[7]
        by_uid[uid] = packet
        if uid > max_uid:
            max_uid = uid
    _packet_mod._packet_ids = itertools.count(max_uid + 1)

    def get_packet(uid: int) -> Packet:
        try:
            return by_uid[uid]
        except KeyError:
            raise SnapshotError(
                f"snapshot references unknown packet uid {uid}",
                reason="unknown-packet",
            ) from None

    return get_packet

"""Snapshot envelope codec: versioning, integrity, strictness, atomic IO."""

import hashlib
import json
import os
import stat

import pytest

from repro.core.curves import ServiceCurve
from repro.core.errors import SnapshotError
from repro.core.hierarchy import ClassSpec
from repro.persist.codec import (
    FORMAT,
    SCHEMA_VERSION,
    PacketTable,
    body_checksum,
    dumps_snapshot,
    load_snapshot,
    loads_snapshot,
    restore_packets,
    save_snapshot,
)
from repro.persist.manifest import write_manifest
from repro.serve.service import ServeService
from repro.sim.packet import Packet

BODY = {"kind": "drive", "x": 1.5, "nested": {"a": [1, 2, 3]}}


class TestEnvelope:
    def test_round_trip(self):
        assert loads_snapshot(dumps_snapshot(BODY)) == BODY

    def test_envelope_fields(self):
        doc = json.loads(dumps_snapshot(BODY))
        assert set(doc) == {"format", "schema", "checksum", "body"}
        assert doc["format"] == FORMAT
        assert doc["schema"] == SCHEMA_VERSION
        assert doc["checksum"] == body_checksum(BODY)

    def test_not_json(self):
        with pytest.raises(SnapshotError) as err:
            loads_snapshot("{nope")
        assert err.value.reason == "bad-json"

    def test_wrong_format(self):
        doc = json.loads(dumps_snapshot(BODY))
        doc["format"] = "other-tool"
        with pytest.raises(SnapshotError) as err:
            loads_snapshot(json.dumps(doc))
        assert err.value.reason == "bad-format"

    def test_version_skew_refused(self):
        doc = json.loads(dumps_snapshot(BODY))
        doc["schema"] = SCHEMA_VERSION + 1
        with pytest.raises(SnapshotError) as err:
            loads_snapshot(json.dumps(doc))
        assert err.value.reason == "schema-version"

    # ``True == 1.0 == 1`` in Python: equal-comparing non-ints must not
    # pass for the version.
    @pytest.mark.parametrize("bad", [True, 1.0, "1", None],
                             ids=["bool", "float", "str", "null"])
    def test_non_int_schema_refused(self, bad):
        doc = json.loads(dumps_snapshot(BODY))
        doc["schema"] = bad
        with pytest.raises(SnapshotError) as err:
            loads_snapshot(json.dumps(doc))
        assert err.value.reason == "schema-version"

    def test_checksum_tamper(self):
        doc = json.loads(dumps_snapshot(BODY))
        doc["body"]["x"] = 2.5
        with pytest.raises(SnapshotError) as err:
            loads_snapshot(json.dumps(doc))
        assert err.value.reason == "checksum-mismatch"

    def test_unknown_envelope_field(self):
        doc = json.loads(dumps_snapshot(BODY))
        doc["extra"] = True
        with pytest.raises(SnapshotError) as err:
            loads_snapshot(json.dumps(doc))
        assert err.value.reason == "unknown-field"

    def test_missing_envelope_field(self):
        doc = json.loads(dumps_snapshot(BODY))
        del doc["checksum"]
        with pytest.raises(SnapshotError) as err:
            loads_snapshot(json.dumps(doc))
        assert err.value.reason == "missing-field"

    def test_float_precision_survives(self):
        body = {"f": [0.1 + 0.2, 1e-309, float("inf"), -0.0, 8.31813072173728]}
        restored = loads_snapshot(dumps_snapshot(body))
        assert [repr(x) for x in restored["f"]] == [repr(x) for x in body["f"]]


def _older_layout(body):
    """An envelope as earlier writers laid it out: the whole document
    through ``json.dumps(sort_keys=True)``, default separators."""
    return json.dumps({
        "format": FORMAT,
        "schema": SCHEMA_VERSION,
        "checksum": body_checksum(body),
        "body": body,
    }, sort_keys=True)


class TestLayout:
    def test_older_layout_still_loads(self, tmp_path):
        text = _older_layout(BODY)
        assert '"x": 1.5' in text  # really the spaced layout
        assert loads_snapshot(text) == BODY
        path = tmp_path / "old.json"
        path.write_text(text + "\n")
        assert load_snapshot(str(path)) == BODY

    def test_written_body_bytes_are_the_hashed_bytes(self, tmp_path):
        path = tmp_path / "snap.json"
        save_snapshot(str(path), BODY)
        raw = path.read_bytes()
        canonical = json.dumps(BODY, sort_keys=True,
                               separators=(",", ":")).encode()
        assert raw.startswith(b'{"body":' + canonical + b',"checksum":')
        doc = json.loads(raw)
        assert doc["checksum"] == (
            "sha256:" + hashlib.sha256(canonical).hexdigest())
        assert doc == json.loads(_older_layout(BODY))


class TestFileIO:
    def test_save_and_load(self, tmp_path):
        path = tmp_path / "snap.json"
        save_snapshot(str(path), BODY)
        assert load_snapshot(str(path)) == BODY

    def test_save_is_atomic(self, tmp_path):
        path = tmp_path / "snap.json"
        save_snapshot(str(path), BODY)
        save_snapshot(str(path), {"kind": "drive", "x": 2})
        assert load_snapshot(str(path))["x"] == 2
        assert os.listdir(tmp_path) == ["snap.json"]  # no tmp leftovers

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError) as err:
            load_snapshot(str(tmp_path / "absent.json"))
        assert err.value.reason == "io-error"

    def test_load_corrupt_file(self, tmp_path):
        path = tmp_path / "snap.json"
        save_snapshot(str(path), BODY)
        text = path.read_text()
        # Flip one digit of the body's value, whatever the separators;
        # "1.5" cannot occur in the hex checksum.
        corrupt = text.replace("1.5", "9.5", 1)
        assert corrupt != text
        path.write_text(corrupt)
        with pytest.raises(SnapshotError) as err:
            load_snapshot(str(path))
        assert err.value.reason == "checksum-mismatch"


class TestDirectorySync:
    """Every atomic write fsyncs its directory after the last rename, so
    a power loss cannot bring the old directory entry back."""

    @pytest.fixture
    def events(self, monkeypatch):
        """``("replace", target name)`` and ``("dirsync", inode)`` in call
        order."""
        real_fsync, real_replace = os.fsync, os.replace
        seen = []

        def fsync(fd):
            info = os.fstat(fd)
            if stat.S_ISDIR(info.st_mode):
                seen.append(("dirsync", info.st_ino))
            real_fsync(fd)

        def replace(src, dst):
            real_replace(src, dst)
            seen.append(("replace", os.path.basename(dst)))

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        return seen

    @staticmethod
    def assert_synced_last(events, directory, name):
        assert events[-2:] == [("replace", name),
                               ("dirsync", os.stat(directory).st_ino)]

    def test_save_snapshot(self, tmp_path, events):
        save_snapshot(str(tmp_path / "snap.json"), BODY)
        self.assert_synced_last(events, tmp_path, "snap.json")

    def test_manifest_write(self, tmp_path, events):
        save_snapshot(str(tmp_path / "shard-0.snap"), BODY)
        write_manifest(str(tmp_path), ring_params={"shards": 1},
                       backend="hfsc", link_rate=1000.0)
        self.assert_synced_last(events, tmp_path, "manifest.json")

    def test_checkpoint_rotation(self, tmp_path, events):
        service = ServeService(
            [ClassSpec("only", sc=ServiceCurve.linear(1000.0))], 1000.0,
            watchdog_period=0)
        path = str(tmp_path / "svc.snap")
        service.checkpoint(path)
        service.checkpoint(path)  # save .next, rotate, rename into place
        assert ("replace", "svc.snap.prev") in events
        self.assert_synced_last(events, tmp_path, "svc.snap")


class TestPacketTable:
    def test_round_trip(self):
        table = PacketTable()
        p = Packet("audio", 160.0, created=1.25)
        p.enqueued = 1.25
        p.dequeued = 1.5
        p.departed = 1.75
        p.deadline = 2.0
        p.via_realtime = True
        uid = table.add(p)
        assert table.add(p) == uid  # interning
        doc = json.loads(json.dumps(table.to_doc()))
        get_packet = restore_packets(doc)
        q = get_packet(uid)
        assert (q.class_id, q.size, q.created) == ("audio", 160.0, 1.25)
        assert (q.enqueued, q.dequeued, q.departed) == (1.25, 1.5, 1.75)
        assert (q.deadline, q.via_realtime) == (2.0, True)

    def test_payload_refused(self):
        table = PacketTable()
        with pytest.raises(SnapshotError) as err:
            table.add(Packet("a", 100.0, payload=object()))
        assert err.value.reason == "unsupported-payload"

    def test_exotic_class_id_refused(self):
        table = PacketTable()
        with pytest.raises(SnapshotError) as err:
            table.add(Packet(("tuple", "id"), 100.0))
        assert err.value.reason == "unsupported-name"

    def test_unknown_uid(self):
        get_packet = restore_packets(PacketTable().to_doc())
        with pytest.raises(SnapshotError) as err:
            get_packet(7)
        assert err.value.reason == "unknown-packet"

    def test_restored_uids_do_not_collide(self):
        table = PacketTable()
        uid = table.add(Packet("a", 100.0))
        get_packet = restore_packets(table.to_doc())
        restored = get_packet(uid)
        fresh = Packet("b", 10.0)
        assert fresh.uid > restored.uid

"""The snapshot row memo: reused rows never change a byte of the envelope.

``HFSC.snapshot_state`` hands out an idle class's row (and its canonical
text) again while its slot's change stamp has not advanced and the
row's few non-column objects are the same objects, and
``dumps_snapshot`` splices those texts instead of re-encoding them.
These tests pin what that must never change: the envelope is
byte-identical to one encoded in full, every cell of a row reaches its
text, any class name is safe, and a handed-out row cannot be edited
behind the text's back.
"""

from __future__ import annotations

import copy
import hashlib
import json

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule,
)

from repro.core.curves import ServiceCurve
from repro.core.flatstate import curve_clear, curve_set
from repro.core.hfsc import HFSC, ROOT
from repro.persist import codec
from repro.persist.codec import (
    PacketTable, dumps_snapshot, loads_snapshot, restore_packets,
)
from repro.sim.packet import Packet

LINK = 10_000.0


def lin(rate):
    return ServiceCurve.linear(rate)


def body_of(sched):
    table = PacketTable()
    doc = sched.snapshot_state(table.add)
    return {"scheduler": doc, "packets": table.to_doc()}


def plain_envelope(body):
    """The envelope as a plain ``json.dumps`` of ``body`` writes it."""
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    checksum = "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()
    return (f'{{"body":{text},"checksum":"{checksum}",'
            f'"format":"{codec.FORMAT}","schema":{codec.SCHEMA_VERSION}}}')


def restore(text):
    body = loads_snapshot(text)
    return HFSC.restore_state(body["scheduler"],
                              restore_packets(body["packets"]))


def assert_memo_transparent(sched):
    """Memo on == memo off == plain ``json.dumps``; the text restores."""
    memo = sched._snapshot_rows
    sched._snapshot_rows = {}
    cold = body_of(sched)
    sched._snapshot_rows = memo
    body = body_of(sched)
    text = dumps_snapshot(body)
    assert text == plain_envelope(body)
    assert text == dumps_snapshot(cold)
    restored = restore(text)
    assert dumps_snapshot(body_of(restored)) == text
    return text


# -- the state machine --------------------------------------------------------


rt_curves = st.one_of(
    st.builds(lin, st.floats(100.0, 4000.0)),
    st.builds(ServiceCurve, m1=st.floats(0.0, 4000.0),
              d=st.sampled_from((0.01, 0.05, 0.2)),
              m2=st.floats(0.0, 4000.0)),
)


class SnapshotMemoMachine(RuleBasedStateMachine):
    """Live add / update / force-remove / rate flaps under ``scale-rt``,
    traffic in and out, and restore-then-continue; after every step the
    memoized envelope is the fully encoded one."""

    @initialize()
    def setup(self):
        self.sched = HFSC(LINK, overload_policy="scale-rt")
        self.groups = [ROOT]
        self.leaves = []
        self.count = 0
        self.now = 0.0
        for _ in range(2):
            self.add_group()
        for parent in self.groups[1:]:
            for _ in range(2):
                self._add_leaf(parent, lin(500.0))

    def _name(self, prefix):
        self.count += 1
        return f"{prefix}{self.count}"

    def _add_leaf(self, parent, rt):
        name = self._name("c")
        self.sched.add_class(name, parent=parent, rt_sc=rt,
                             ls_sc=lin(LINK / 8))
        self.leaves.append(name)

    @rule()
    def add_group(self):
        name = self._name("g")
        self.sched.add_class(name, ls_sc=lin(LINK / 2))
        self.groups.append(name)

    @rule(data=st.data(), rt=st.one_of(st.none(), rt_curves))
    def add_leaf(self, data, rt):
        self._add_leaf(data.draw(st.sampled_from(self.groups)), rt)

    @precondition(lambda self: self.leaves)
    @rule(data=st.data(), rt=st.one_of(st.none(), rt_curves),
          ls=st.floats(100.0, LINK))
    def update_leaf(self, data, rt, ls):
        name = data.draw(st.sampled_from(self.leaves))
        self.sched.update_class(name, self.now, rt_sc=rt, ls_sc=lin(ls))

    @precondition(lambda self: len(self.leaves) > 1)
    @rule(data=st.data())
    def remove_subtree(self, data):
        name = data.draw(st.sampled_from(self.groups[1:] + self.leaves))
        self.sched.remove_class(name, force=True)
        alive = set(self.sched._classes)
        self.groups = [g for g in self.groups if g in alive]
        self.leaves = [c for c in self.leaves if c in alive]

    @rule(rate=st.floats(LINK / 4, 2 * LINK))
    def set_link_rate(self, rate):
        self.sched.set_link_rate(rate)

    @precondition(lambda self: self.leaves)
    @rule(data=st.data(), n=st.integers(1, 6))
    def enqueue(self, data, n):
        name = data.draw(st.sampled_from(self.leaves))
        for _ in range(n):
            self.now += 0.002
            self.sched.enqueue(Packet(name, 100.0), self.now)

    @rule(n=st.integers(1, 8), dt=st.floats(0.0, 0.1))
    def dequeue_batch(self, n, dt):
        self.now += dt
        self.sched.dequeue_batch(self.now, n)

    @rule()
    def restore_then_continue(self):
        self.sched = restore(dumps_snapshot(body_of(self.sched)))

    @invariant()
    def memo_is_transparent(self):
        if hasattr(self, "sched"):
            assert_memo_transparent(self.sched)


TestSnapshotMemoMachine = SnapshotMemoMachine.TestCase
TestSnapshotMemoMachine.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# -- every cell reaches the text ----------------------------------------------


def idle_tree():
    """Served and drained: every class idle, runtime curves set."""
    sched = HFSC(LINK, admission_control=False)
    sched.add_class("g", ls_sc=lin(6000.0))
    sched.add_class("a", parent="g", rt_sc=ServiceCurve(3000.0, 0.01, 1000.0),
                    ls_sc=lin(3000.0), ul_sc=lin(5000.0))
    sched.add_class("b", parent="g", ls_sc=lin(2000.0))
    now = 0.0
    for _ in range(5):
        for name in ("a", "b"):
            now += 0.001
            sched.enqueue(Packet(name, 100.0), now)
    while sched.dequeue_batch(now, 4):
        now += 0.05
    return sched


def bumped(value):
    return value + 0.5


CURVE_KEYS = {"deadline_curve": "dc", "eligible_curve": "ec",
              "virtual_curve": "vc", "ul_curve": "ul"}
SPEC_KEYS = ("rt_requested", "rt_spec", "ls_spec", "ul_spec")
SCALAR_KEYS = ("cumul_rt", "total_work", "bytes_rt", "bytes_ls", "eligible",
               "deadline", "vt", "fit_time", "vt_watermark")


def mutations(sched, key):
    """Yield ``(class name, expected row value)`` after each edit of a
    cell or object behind ``key``.  Cells are written the ways the
    scheduler writes them (properties, ``curve_set``, ``curve_clear``),
    each of which stamps the slot."""
    a = sched["a"]
    if key == "name":
        a.name = "a-renamed"
        yield "a", "a-renamed"
    elif key == "parent":
        sched["g"].name = "g-renamed"
        yield "a", "g-renamed"
    elif key == "index":
        a.index = 99
        yield "a", 99
    elif key == "rt_admitted":
        a.rt_admitted = False
        yield "a", False
    elif key in SPEC_KEYS:
        setattr(a, key, ServiceCurve(1.5, 0.25, 2.5))
        yield "a", [1.5, 0.25, 2.5]
    elif key == "queue":
        packet = Packet("a", 100.0)
        sched.enqueue(packet, 10.0)
        yield "a", [packet.uid]
    elif key == "active_order":
        sched.enqueue(Packet("b", 100.0), 10.0)
        yield "g", ["b"]
    elif key in SCALAR_KEYS:
        setattr(a, key, bumped(getattr(a, key)))
        yield "a", getattr(a, key)
    elif key in CURVE_KEYS:
        state, s = a.state, a.slot
        kind = CURVE_KEYS[key]
        fields = ("x0", "y0", "m1", "dx", "m2")
        if not getattr(state, f"{kind}_on")[s]:
            curve_set(state, kind, s, 3.0, 4.0, 5.0, 1.0, 2.0)
            yield "a", [1.0, 2.0, 3.0, 4.0, 5.0]
        for field in fields:
            cells = {f: getattr(state, f"{kind}_{f}")[s] for f in fields}
            cells[field] = bumped(cells[field])
            curve_set(state, kind, s, cells["m1"], cells["dx"], cells["m2"],
                      cells["x0"], cells["y0"])
            yield "a", [cells[f] for f in fields]
        curve_clear(state, kind, s)
        yield "a", None
    else:
        raise AssertionError(f"no mutation for class-document key {key!r}")


@pytest.mark.parametrize("key", sorted(HFSC._CLASS_DOC_KEYS))
def test_every_cell_reaches_the_text(key):
    sched = idle_tree()
    first = body_of(sched)["scheduler"]["classes"]
    order = [row["name"] for row in first]
    again = body_of(sched)["scheduler"]["classes"]
    assert all(x is y for x, y in zip(first, again)), "idle rows not reused"
    for name, expected in mutations(sched, key):
        body = body_of(sched)
        text = dumps_snapshot(body)
        assert text == plain_envelope(body)
        row = loads_snapshot(text)["scheduler"]["classes"][order.index(name)]
        assert row[key] == expected


def test_identity_not_equality():
    # 0.0 == -0.0 and 3 == 3.0, yet each prints differently.
    sched = idle_tree()
    a = sched["a"]
    a.fit_time = 0.0
    a.index = 3
    body_of(sched)
    a.fit_time = -0.0
    a.index = 3.0
    row = loads_snapshot(dumps_snapshot(body_of(sched)))["scheduler"]["classes"][1]
    assert json.dumps(row["fit_time"]) == "-0.0"
    assert json.dumps(row["index"]) == "3.0"


# -- any class name -----------------------------------------------------------


def test_class_named_like_the_placeholder():
    names = [codec._STUB.format(attempt) + "0" for attempt in range(3)]
    sched = HFSC(LINK, admission_control=False)
    for name in names:
        sched.add_class(name, ls_sc=lin(LINK / 4))
    sched.add_class("idle", ls_sc=lin(LINK / 8))
    body_of(sched)
    # Backlogged top-level leaves: their names land in the root's
    # active order and the packet table, outside the spliced rows.
    for name in names:
        sched.enqueue(Packet(name, 100.0), 0.0)
    text = assert_memo_transparent(sched)
    assert sum(text.count(json.dumps(name)) for name in names) > len(names)


# -- handed-out rows are read-only --------------------------------------------


def test_in_place_edit_of_a_returned_row_raises():
    sched = idle_tree()
    doc = sched.snapshot_state(PacketTable().add)
    rows = doc["classes"]
    row = rows[1]
    with pytest.raises(TypeError):
        row["vt"] = 1.0
    with pytest.raises(TypeError):
        row.update(vt=1.0)
    with pytest.raises(TypeError):
        del row["vt"]
    with pytest.raises(TypeError):
        row["rt_spec"][0] = 1.0
    with pytest.raises(TypeError):
        row["virtual_curve"][0] = 1.0
    with pytest.raises(TypeError):
        rows.append(dict(row))
    with pytest.raises(TypeError):
        rows[0] = dict(row)
    assert dumps_snapshot(doc) == plain_envelope(doc)
    # Copies are editable and encode to the same bytes.
    assert dumps_snapshot(copy.deepcopy(doc)) == dumps_snapshot(doc)
    # Replacing the list wholesale is the way to edit.
    doc["classes"] = [dict(r, vt=7.5) for r in rows]
    text = dumps_snapshot(doc)
    assert text == plain_envelope(doc)
    assert {r["vt"] for r in loads_snapshot(text)["classes"]} == {7.5}
    # ... and nothing of it leaks into the next snapshot.
    assert 7.5 not in {r["vt"] for r in
                       sched.snapshot_state(PacketTable().add)["classes"]}

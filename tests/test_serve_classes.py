"""The ``classes`` read: the same rows on every backend, served from a
per-row memo whose reply is byte-identical to encoding the rows afresh,
and an over-long control line answered instead of hung up on."""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.curves import ServiceCurve
from repro.core.hierarchy import ClassSpec
from repro.schedulers.registry import BACKENDS, guaranteed_rate, leaf_specs
from repro.serve.control import MAX_LINE, ControlServer
from repro.serve.hierarchy import hierarchy_preset
from repro.serve.service import ServeService
from repro.sim.packet import Packet

CLASSES = b'{"op": "classes"}'
lin = ServiceCurve.linear


def make_service(specs=None, link_rate=1000.0, **kwargs):
    if specs is None:
        specs = [ClassSpec("gold", sc=lin(600.0)),
                 ClassSpec("bronze", sc=lin(400.0))]
    return ServeService(specs, link_rate, time_scale=0.0, watchdog_period=0.0,
                        **kwargs)


def _curve_doc(curve):
    if curve is None:
        return None
    return {"m1": curve.m1, "d": curve.d, "m2": curve.m2}


def fresh_reply(sched) -> str:
    """The H-FSC reply built through the class façade and encoded whole."""
    rows = [{
        "name": cls.name,
        "parent": cls.parent.name,
        "leaf": cls.is_leaf,
        "queued": len(cls.queue),
        "rt_sc": _curve_doc(cls.rt_requested),
        "rt_effective": _curve_doc(cls.rt_spec),
        "ls_sc": _curve_doc(cls.ls_spec),
        "ul_sc": _curve_doc(cls.ul_spec),
    } for cls in sched.classes()]
    return json.dumps({"ok": True, "result": rows})


def call(server, request):
    return json.loads(server.dispatch_line(json.dumps(request).encode()))


class TestEveryBackend:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_rows_are_the_configured_classes(self, backend):
        specs = hierarchy_preset("e4", 45_000.0)
        server = ControlServer(make_service(specs, 45_000.0, backend=backend))
        reply = call(server, {"op": "classes"})
        assert reply["ok"], reply
        rows = {row["name"]: row for row in reply["result"]}
        if backend == "fifo":
            assert rows == {}
        elif BACKENDS[backend].hierarchical:
            assert set(rows) == {spec.name for spec in specs}
            for spec in specs:
                assert rows[spec.name]["parent"] == (spec.parent or "__root__")
        else:
            leaves = leaf_specs(specs)
            assert set(rows) == {spec.name for spec in leaves}
            assert {row["parent"] for row in rows.values()} == {"__root__"}
            if backend != "drr":  # DRR keeps quanta, not rates
                for spec in leaves:
                    assert rows[spec.name]["rate"] == guaranteed_rate(spec)
        assert all(row["queued"] == 0 for row in rows.values())

    @pytest.mark.parametrize("backend", ["hpfq", "wf2q"])
    def test_queue_depth_on_rate_backends(self, backend):
        svc = make_service(backend=backend)
        svc.scheduler.enqueue(Packet("gold", 100.0), 0.0)
        svc.scheduler.enqueue(Packet("gold", 100.0), 0.0)
        rows = {row["name"]: row
                for row in call(ControlServer(svc), {"op": "classes"})["result"]}
        assert rows["gold"]["queued"] == 2
        assert rows["bronze"]["queued"] == 0


class TestRowMemo:
    def test_reply_is_fresh_encoding_with_backlog(self):
        specs = hierarchy_preset("campus", 45_000.0)
        svc = make_service(specs, 45_000.0)
        server = ControlServer(svc)
        for i, cls in enumerate(svc.scheduler.leaf_classes()):
            for _ in range(i % 3):
                svc.scheduler.enqueue(Packet(cls.name, 100.0), 0.0)
        assert server.dispatch_line(CLASSES) == fresh_reply(svc.scheduler)
        svc.scheduler.dequeue(0.0)
        assert server.dispatch_line(CLASSES) == fresh_reply(svc.scheduler)

    def test_memo_holds_live_rows_only(self):
        svc = make_service()
        server = ControlServer(svc)
        for name in ("a", "b", "c"):
            assert call(server, {"op": "add_class", "name": name,
                                 "ls_sc": {"rate": 10.0}})["ok"]
        server.dispatch_line(CLASSES)
        assert len(server._rows) == 5
        for name in ("a", "c"):
            assert call(server, {"op": "remove_class", "name": name,
                                 "force": True})["ok"]
        assert server.dispatch_line(CLASSES) == fresh_reply(svc.scheduler)
        assert set(server._rows) == {"gold", "bronze", "b"}

    def test_direct_rt_spec_write_is_seen(self):
        svc = make_service()
        server = ControlServer(svc)
        server.dispatch_line(CLASSES)
        svc.scheduler["gold"].rt_spec = ServiceCurve(300.0, 0.02, 150.0)
        reply = server.dispatch_line(CLASSES)
        assert reply == fresh_reply(svc.scheduler)
        gold = json.loads(reply)["result"][0]
        assert gold["rt_effective"] == {"m1": 300.0, "d": 0.02, "m2": 150.0}
        assert gold["rt_sc"] == {"m1": 600.0, "d": 0.0, "m2": 600.0}

    def test_scale_rt_derating_is_seen(self):
        # Dropping the link overbooks eq. (1); the next enqueue derates the
        # effective curves in place, with no control op in between.
        svc = make_service(overload_policy="scale-rt")
        server = ControlServer(svc)
        assert call(server, {"op": "set_link_rate", "rate": 300.0})["ok"]
        server.dispatch_line(CLASSES)
        svc.scheduler.enqueue(Packet("gold", 100.0), svc.loop.now)
        reply = server.dispatch_line(CLASSES)
        assert reply == fresh_reply(svc.scheduler)
        gold = json.loads(reply)["result"][0]
        assert gold["rt_effective"]["m2"] < gold["rt_sc"]["m2"] == 600.0

    def test_equal_but_distinct_curve_is_re_encoded(self):
        # 600 == 600.0 and 0.0 == -0.0, but they print apart: the memo
        # compares by identity, so the reply follows the new object.
        svc = make_service()
        server = ControlServer(svc)
        server.dispatch_line(CLASSES)
        svc.scheduler["gold"].rt_spec = ServiceCurve(600, -0.0, 600)
        reply = server.dispatch_line(CLASSES)
        assert reply == fresh_reply(svc.scheduler)
        assert '"rt_effective": {"m1": 600, "d": -0.0, "m2": 600}' in reply

    def test_readded_class_shows_its_new_curves(self):
        svc = make_service()
        server = ControlServer(svc)
        assert call(server, {"op": "add_class", "name": "x",
                             "ls_sc": {"rate": 10.0}})["ok"]
        server.dispatch_line(CLASSES)
        assert call(server, {"op": "remove_class", "name": "x"})["ok"]
        assert call(server, {"op": "add_class", "name": "x",
                             "ls_sc": [40.0, 0.1, 20.0],
                             "ul_sc": {"rate": 50.0}})["ok"]
        reply = server.dispatch_line(CLASSES)
        assert reply == fresh_reply(svc.scheduler)
        row = json.loads(reply)["result"][-1]
        assert row["ls_sc"] == {"m1": 40.0, "d": 0.1, "m2": 20.0}
        assert row["ul_sc"] == {"m1": 50.0, "d": 0.0, "m2": 50.0}


# -- the memo under live reconfiguration ----------------------------------------

NAMES = ("a", "b", "c", "d")
SLOPES = (0.0, 10.0, 50.0, 120.0, 300.0)
#: -0.0 equals 0.0 but prints apart: a memo keyed by value would go stale.
KNEES = (0.0, -0.0, 0.05, 0.5)
curve_docs = st.one_of(
    st.none(),
    st.sampled_from(SLOPES[1:]),
    st.tuples(st.sampled_from(SLOPES), st.sampled_from(KNEES),
              st.sampled_from(SLOPES)).map(list),
)


class ClassesMemoMachine(RuleBasedStateMachine):
    """Control-plane add / update / forced remove / link-rate changes and
    enqueue bursts; after every step the ``classes`` reply equals, byte
    for byte, the rows built afresh through the façade."""

    @initialize(policy=st.sampled_from(("scale-rt", "linkshare-only")))
    def setup(self, policy):
        self.svc = make_service(overload_policy=policy)
        self.sched = self.svc.scheduler
        self.server = ControlServer(self.svc)

    def _live(self):
        return [cls.name for cls in self.sched.classes()]

    @rule(data=st.data(), name=st.sampled_from(NAMES), rt=curve_docs,
          ls=curve_docs)
    def add_class(self, data, name, rt, ls):
        parent = data.draw(st.sampled_from([None] + self._live()))
        request = {"op": "add_class", "name": name, "parent": parent}
        if rt is not None:
            request["rt_sc"] = rt
        if ls is not None:
            request["ls_sc"] = ls
        call(self.server, request)

    @precondition(lambda self: self._live())
    @rule(data=st.data(), roles=st.dictionaries(
        st.sampled_from(("rt_sc", "ls_sc", "ul_sc")), curve_docs, min_size=1))
    def update_class(self, data, roles):
        name = data.draw(st.sampled_from(self._live()))
        call(self.server, {"op": "update_class", "name": name, **roles})

    @precondition(lambda self: self._live())
    @rule(data=st.data())
    def remove_class(self, data):
        name = data.draw(st.sampled_from(self._live()))
        assert call(self.server, {"op": "remove_class", "name": name,
                                  "force": True})["ok"]

    @rule(rate=st.sampled_from((300.0, 700.0, 1000.0, 2500.0)))
    def set_link_rate(self, rate):
        assert call(self.server, {"op": "set_link_rate", "rate": rate})["ok"]

    @precondition(lambda self: self.sched.leaf_classes())
    @rule(data=st.data(), burst=st.integers(1, 4), served=st.integers(0, 3))
    def enqueue_burst(self, data, burst, served):
        leaf = data.draw(st.sampled_from(
            [cls.name for cls in self.sched.leaf_classes()]))
        now = self.svc.loop.now
        for _ in range(burst):
            self.sched.enqueue(Packet(leaf, 100.0), now)
        for _ in range(served):
            self.sched.dequeue(now)

    @invariant()
    def reply_is_fresh_encoding(self):
        if not hasattr(self, "sched"):
            return
        assert self.server.dispatch_line(CLASSES) == fresh_reply(self.sched)
        assert len(self.server._rows) == len(self._live())


TestClassesMemoMachine = ClassesMemoMachine.TestCase
TestClassesMemoMachine.settings = settings(
    max_examples=80, stateful_step_count=30, deadline=None
)


# -- the transport -----------------------------------------------------------------


class TestOverlongLine:
    def test_answered_with_an_error_then_closed(self, tmp_path):
        svc = make_service()
        path = str(tmp_path / "c.sock")

        async def scenario():
            await svc.start_control(path)
            reader, writer = await asyncio.open_unix_connection(path)
            # The tail past the reader's limit stays unread.
            writer.write(b"x" * (MAX_LINE + 64 * 1024) + b"\n")
            reply = await reader.readline()
            try:
                rest = await reader.read()
            except ConnectionResetError:  # the server hung up on unread data
                rest = b""
            writer.close()
            reader, writer = await asyncio.open_unix_connection(path)
            writer.write(b'{"op": "ping"}\n')
            pong = await reader.readline()
            writer.close()
            svc.close()
            return reply, rest, pong

        reply, rest, pong = asyncio.run(asyncio.wait_for(scenario(), 20.0))
        assert json.loads(reply) == {"ok": False, "error": {
            "type": "ControlError",
            "message": f"request line over {MAX_LINE} bytes"}}
        assert rest == b""
        assert json.loads(pong)["result"]["pong"] is True

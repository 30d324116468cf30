"""Pure and compiled kernels agree bit for bit, in one process.

Every kernel call a live scheduler makes runs twice: the compiled kernel
on the scheduler's own state, and the pure one (from
``flatstate.PURE_KERNELS``, its nested kernel calls routed to pure ones
too) on a clone taken just before.  The two states must then agree in
every column -- floats by their IEEE-754 bytes, so ``-0.0`` against
``0.0`` or a different NaN counts -- and the two calls must return the
same value or raise the same exception type.  Hypothesis drives random
hierarchies (real-time / link-sharing / upper-limit mixes, ``m1 = 0``,
convex and concave curves), bursts, and live ``add_class`` /
``update_class`` / ``remove_class(force=True)``; a second test drives
the eligible-set kernels directly on a bare state.

Skipped under ``REPRO_NO_COMPILED=1``: that leg has one set of kernels.
"""

from __future__ import annotations

import struct
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import _fastpath
from repro.core import flatstate
from repro.core.curves import ServiceCurve
from repro.core.errors import ConfigurationError, ReconfigurationError
from repro.core.flatstate import FlatState
from repro.core.hfsc import HFSC, ROOT
from repro.sim.packet import Packet

pytestmark = pytest.mark.skipif(
    not flatstate.COMPILED, reason="compiled kernels not loaded"
)

LINK = 10_000.0


#: Every FlatState field (the weak-reference slot is not state).
FIELDS = tuple(name for name in FlatState.__slots__ if name != "__weakref__")


def clone(state: FlatState) -> FlatState:
    """A deep copy the compiled kernels treat as a separate state."""
    twin = FlatState.__new__(FlatState)
    for name in FIELDS:
        value = getattr(state, name)
        if isinstance(value, list):
            value = [list(v) if isinstance(v, list) else v for v in value]
        setattr(twin, name, value)
    twin._ccache = None  # the capsule caches the original's lists
    return twin


def bits(value):
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, list):
        return [bits(v) for v in value]
    return (type(value).__name__, value)


def first_difference(a: FlatState, b: FlatState):
    for name in FIELDS:
        if name == "_ccache":
            continue
        if bits(getattr(a, name)) != bits(getattr(b, name)):
            return name
    return None


def outcome(kernel, state, args):
    """``(status, comparable, raw)`` for one call."""
    try:
        result = kernel(state, *args)
    except Exception as exc:  # noqa: BLE001 - compared, then re-raised
        return "raised", type(exc).__name__, exc
    return "ok", bits(result), result


class TwinKernels:
    """Swap every kernel in ``flatstate`` for a pure-vs-compiled check."""

    def __init__(self, monkeypatch):
        self.calls = Counter()
        self.compiled = {name: getattr(flatstate, name)
                         for name in _fastpath.KERNELS}
        self.checked = {name: self._checker(name)
                        for name in _fastpath.KERNELS}
        for name, checked in self.checked.items():
            monkeypatch.setattr(flatstate, name, checked)

    def _install(self, kernels):
        for name, kernel in kernels.items():
            setattr(flatstate, name, kernel)

    def _checker(self, name):
        def checked(state, *args):
            twin = clone(state)
            pure = dict(flatstate.PURE_KERNELS)
            self._install(pure)
            try:
                want = outcome(pure[name], twin, args)
            finally:
                self._install(self.checked)
            got = outcome(self.compiled[name], state, args)
            assert got[:2] == want[:2], f"{name}{args}: {got[:2]} != {want[:2]}"
            column = first_difference(state, twin)
            assert column is None, f"{name}{args}: column {column!r} differs"
            self.calls[name] += 1
            if got[0] == "raised":
                raise got[2]
            return got[2]

        return checked


@pytest.fixture
def twins(monkeypatch):
    return TwinKernels(monkeypatch)


# -- scheduler-driven fuzz ---------------------------------------------------

rates = st.floats(0.02, 0.4).map(lambda f: round(f * LINK, 3))


@st.composite
def curves(draw):
    """Linear, concave, convex, or convex with ``m1 = 0``."""
    m2 = draw(rates)
    shape = draw(st.sampled_from(["linear", "concave", "convex", "m1=0"]))
    if shape == "linear":
        return ServiceCurve.linear(m2)
    d = draw(st.floats(0.001, 0.2))
    if shape == "concave":
        return ServiceCurve(m2 * draw(st.floats(1.2, 4.0)), d, m2)
    if shape == "convex":
        return ServiceCurve(m2 * draw(st.floats(0.1, 0.9)), d, m2)
    return ServiceCurve(0.0, d, m2)


@st.composite
def leaf_curves(draw):
    """Keyword curves for a leaf: rt / ls / both, optionally capped."""
    mix = draw(st.sampled_from(["sc", "rt", "ls", "rt+ls"]))
    kwargs = {}
    if mix == "sc":
        kwargs["sc"] = draw(curves())
    if mix in ("rt", "rt+ls"):
        kwargs["rt_sc"] = draw(curves())
    if mix in ("ls", "rt+ls"):
        kwargs["ls_sc"] = draw(curves())
    if mix != "rt" and draw(st.booleans()):
        kwargs["ul_sc"] = draw(curves())
    return kwargs


ops = st.one_of(
    st.tuples(st.just("burst"), st.integers(0, 50), st.integers(1, 6),
              st.sampled_from([64.0, 200.0, 577.0, 1500.0])),
    st.tuples(st.just("serve"), st.integers(1, 8), st.booleans()),
    st.tuples(st.just("advance"), st.floats(0.0, 0.3)),
    st.tuples(st.just("update"), st.integers(0, 50), leaf_curves()),
    st.tuples(st.just("remove"), st.integers(0, 50)),
    st.tuples(st.just("add"), st.integers(0, 50), leaf_curves()),
)


@st.composite
def hierarchies(draw):
    """(interior ls curves, leaves as (parent index or None, curves))."""
    interiors = draw(st.lists(curves(), min_size=0, max_size=3))
    leaves = draw(st.lists(
        st.tuples(st.one_of(st.none(), st.integers(0, 2)), leaf_curves()),
        min_size=1, max_size=8,
    ))
    return interiors, leaves


def build(interiors, leaves):
    sched = HFSC(LINK, admission_control=False)
    for i, ls in enumerate(interiors):
        sched.add_class(f"i{i}", ls_sc=ls)
    for j, (parent, kwargs) in enumerate(leaves):
        parent_name = ROOT
        if parent is not None and interiors:
            parent_name = f"i{parent % len(interiors)}"
        sched.add_class(f"l{j}", parent=parent_name, **kwargs)
    return sched


def pick(items, index):
    return items[index % len(items)] if items else None


def apply(sched, op, clock, serial):
    kind = op[0]
    now = clock[0]
    leaves = [c for c in sched.classes() if c.is_leaf]
    if kind == "burst":
        leaf = pick(leaves, op[1])
        if leaf is not None:
            sched.enqueue_batch(
                [Packet(leaf.name, op[3]) for _ in range(op[2])], now)
    elif kind == "serve":
        if op[2]:
            for packet in sched.dequeue_batch(now, op[1]):
                clock[0] += packet.size / LINK
        else:
            for _ in range(op[1]):
                packet = sched.dequeue(clock[0])
                if packet is None:
                    ready = sched.next_ready_time(clock[0])
                    if ready is not None:
                        clock[0] = max(clock[0], ready)
                    break
                clock[0] += packet.size / LINK
    elif kind == "advance":
        clock[0] += op[1]
    elif kind == "update":
        leaf = pick(leaves, op[1])
        if leaf is not None:
            kwargs = dict(op[2])
            if "sc" in kwargs:
                kwargs["rt_sc"] = kwargs["ls_sc"] = kwargs.pop("sc")
            kwargs.setdefault("rt_sc", None)
            kwargs.setdefault("ls_sc", None)
            kwargs.setdefault("ul_sc", None)
            sched.update_class(leaf.name, now, **kwargs)
    elif kind == "remove":
        victim = pick(list(sched.classes()), op[1])
        if victim is not None:
            sched.remove_class(victim.name, force=True)
    elif kind == "add":
        parents = [sched.root] + [c for c in sched.classes() if c.children]
        serial[0] += 1
        sched.add_class(f"n{serial[0]}", parent=pick(parents, op[1]).name,
                        **op[2])


@given(hierarchies(), st.lists(ops, min_size=1, max_size=40))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
def test_scheduler_kernels_agree(twins, hierarchy, script):
    sched = build(*hierarchy)
    clock = [0.0]
    serial = [0]
    for op in script:
        try:
            apply(sched, op, clock, serial)
        except (ConfigurationError, ReconfigurationError):
            pass  # an invalid request, refused before any mutation
        sched.check_invariants()
    # Drain what is left so every backlog ends through serve_step.
    for _ in range(2000):
        if not len(sched):
            break
        packet = sched.dequeue(clock[0])
        if packet is None:
            ready = sched.next_ready_time(clock[0])
            clock[0] = ready if ready is not None else clock[0] + 0.01
        else:
            clock[0] += packet.size / LINK
    sched.check_invariants()


def test_fixed_script_reaches_every_scheduler_kernel(twins):
    """The checker really is in the loop, for every kernel a scheduler
    calls (``elig_requeue`` runs inside ``serve_step``)."""
    lin = ServiceCurve.linear
    sched = HFSC(LINK, admission_control=False)
    sched.add_class("agency", ls_sc=lin(6_000.0))
    sched.add_class("a", parent="agency", sc=ServiceCurve(9_000.0, 0.02,
                                                          2_000.0))
    sched.add_class("b", parent="agency", ls_sc=lin(3_000.0))
    sched.add_class("c", rt_sc=ServiceCurve(0.0, 0.05, 1_500.0),
                    ls_sc=lin(2_000.0))
    sched.enqueue_batch([Packet(c, 300.0) for c in "abcabc"], 0.0)
    sched.update_class("a", 0.0, sc=lin(2_500.0))  # re-key a request
    sched.update_class("c", 0.0, rt_sc=None)  # drop one
    sched.update_class("c", 0.0, rt_sc=lin(1_000.0))  # insert one
    sched.update_class("c", 0.0, ls_sc=None)  # passivate
    sched.update_class("c", 0.0, ls_sc=lin(2_000.0))  # re-activate
    now = 0.0
    while len(sched):
        packet = sched.dequeue(now)
        if packet is None:
            now = sched.next_ready_time(now)
        else:
            now += packet.size / LINK
    sched.check_invariants()
    assert set(twins.calls) == set(_fastpath.KERNELS) - {"elig_requeue"}


# -- eligible-set kernels on a bare state -----------------------------------

elig_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "remove", "update", "requeue", "query"]),
        st.integers(0, 9),
        st.floats(0, 20, allow_nan=False),
        st.floats(0, 20, allow_nan=False),
    ),
    max_size=120,
)


@given(elig_ops)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_eligible_set_kernels_agree(twins, script):
    """Including the calls that raise (duplicate insert, absent remove)
    and exact deadline ties, where seq order decides."""
    state = FlatState(10)
    slots = [state.alloc(None) for _ in range(10)]
    now = 0.0
    for op, index, eligible, deadline in script:
        slot = slots[index]
        deadline = float(round(deadline))  # coarse, so exact ties occur
        try:
            if op == "insert":
                flatstate.elig_insert(state, slot, eligible, deadline)
            elif op == "remove":
                flatstate.elig_remove(state, slot)
            elif op == "update":
                flatstate.elig_update(state, slot, eligible, deadline)
            elif op == "requeue":
                if flatstate.elig_contains(state, slot):
                    flatstate.elig_requeue(state, slot, now + eligible - 10.0,
                                           deadline, now)
            else:
                now += eligible / 10.0
                flatstate.elig_query(state, now)
        except (KeyError, ValueError):
            pass
        flatstate.elig_check(state)


def test_checker_catches_a_one_ulp_fault(twins, monkeypatch):
    """A pure serve_step that rounds one virtual time up by 1 ulp must
    be reported."""
    import math

    honest = flatstate.PURE_KERNELS["serve_step"]

    def off_by_one_ulp(state, slot, *args):
        honest(state, slot, *args)
        state.vt[slot] = math.nextafter(state.vt[slot], math.inf)

    monkeypatch.setitem(flatstate.PURE_KERNELS, "serve_step", off_by_one_ulp)
    sched = HFSC(LINK, admission_control=False)
    sched.add_class("a", ls_sc=ServiceCurve.linear(4_000.0))
    sched.add_class("b", ls_sc=ServiceCurve.linear(3_000.0))
    sched.enqueue_batch([Packet("a", 500.0), Packet("b", 500.0)], 0.0)
    with pytest.raises(AssertionError, match="column 'vt' differs"):
        sched.dequeue(0.0)

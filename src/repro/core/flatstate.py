"""Flat array-of-struct state for the H-FSC hot path.

The seed scheduler kept every per-class quantity on an ``HFSCClass``
object (``__slots__`` attributes) and every runtime curve on a
:class:`~repro.core.runtime_curves.RuntimeCurve` object.  Per packet the
hot path then chased dozens of attribute loads and bound-method calls --
pure interpreter overhead that dominated the measured per-packet cost
(``benchmarks/baselines/BENCH_2026-08-06.json``: H-FSC ~50-68k ops/s vs
FIFO's ~1.4M on the same harness).

This module flattens that state into parallel arrays indexed by a dense
*slot* id:

* per-class scalars (virtual time, eligible/deadline, cumulative service,
  byte counters, watermarks) live in ``array('d')`` buffers;
* the four runtime curves (deadline ``dc``, eligible ``ec``, virtual
  ``vc``, upper-limit ``ul``) are seven parallel arrays each -- anchor,
  slopes, first-segment length and the memoized knee -- with a presence
  flag, so curve updates are plain float arithmetic on array cells;
* service-curve *specs* (the configured two-piece shapes) are mirrored
  into arrays so the activation kernels never touch spec objects;
* each parent's active-children virtual-time heaps (the seed's two
  ``IndexedHeap`` instances per interior class) are flat parallel lists
  ``key/seq/slot`` plus one global position array per side.

The kernels in this module (:func:`serve_commit`, :func:`activate`,
:func:`passivate`, :func:`ls_descend`) re-implement the seed hot path
*operation for operation* over these arrays: every float expression and
every heap/tree mutation happens in the same order with the same
operands, so schedules are byte-identical -- the golden-digest suite
(``tests/test_golden_traces.py``) enforces that.

A compiled fast path (see :mod:`repro._fastpath`) provides the same
kernels as a C extension over the same buffers; import-time selection
happens in this module (``REPRO_NO_COMPILED=1`` forces pure Python).
:class:`CurveView` and :class:`HeapView` give the object façade in
:mod:`repro.core.hfsc` read/write access to the arrays under the seed's
attribute API, so persist codecs, telemetry taps, experiments and tests
are untouched.
"""

from __future__ import annotations

import heapq as _heapq
from typing import Any, Dict, Iterator, List, Optional, Tuple

INF = float("inf")
NAN = float("nan")

#: vt_policy codes (array-friendly stand-ins for the "mean"/"min"/"max"
#: strings; :mod:`repro.core.hfsc` converts at configuration time).
VT_MEAN, VT_MIN, VT_MAX = 0, 1, 2

#: Curve kinds, in blob order (see :meth:`FlatState.curve_arrays`).
CURVE_KINDS = ("dc", "ec", "vc", "ul")

#: Per-curve parallel arrays, in blob order.
CURVE_FIELDS = ("x0", "y0", "m1", "dx", "m2", "kx", "ky")

_SCALARS = (
    "cumul_rt", "total_work", "vt", "eligible", "deadline", "fit_time",
    "vt_watermark", "bytes_rt", "bytes_ls",
)

_SPECS = ("rt", "es", "ls", "ulsp")


class FlatState:
    """Parallel arrays for every hot per-class quantity, keyed by slot id.

    Slots are allocated densely and recycled through a free list; the
    object façade (:class:`repro.core.hfsc.HFSCClass`) holds ``(state,
    slot)`` and reads/writes through properties.  ``obj[slot]`` maps back
    to the façade object so flat kernels can return classes to the
    object-level shell.
    """

    __slots__ = (
        # scalars
        "cumul_rt", "total_work", "vt", "eligible", "deadline", "fit_time",
        "vt_watermark", "bytes_rt", "bytes_ls",
        # curves: dc/ec/vc/ul x (x0,y0,m1,dx,m2,kx,ky) + presence
        "dc_x0", "dc_y0", "dc_m1", "dc_dx", "dc_m2", "dc_kx", "dc_ky",
        "ec_x0", "ec_y0", "ec_m1", "ec_dx", "ec_m2", "ec_kx", "ec_ky",
        "vc_x0", "vc_y0", "vc_m1", "vc_dx", "vc_m2", "vc_kx", "vc_ky",
        "ul_x0", "ul_y0", "ul_m1", "ul_dx", "ul_m2", "ul_kx", "ul_ky",
        "dc_on", "ec_on", "vc_on", "ul_on",
        # spec mirrors: rt / es (eligible spec) / ls / ulsp x (m1,d,m2) + presence
        "rt_m1", "rt_d", "rt_m2", "rt_on",
        "es_m1", "es_d", "es_m2",
        "ls_m1", "ls_d", "ls_m2", "ls_on",
        "ulsp_m1", "ulsp_d", "ulsp_m2", "ulsp_on",
        # structure
        "parent", "index", "nactive", "ul_children", "ls_active", "rt_adm",
        # per-parent flat heaps (min over vt / max over -vt)
        "hmin_key", "hmin_seq", "hmin_slot", "hmin_pos", "hmin_ctr",
        "hmax_key", "hmax_seq", "hmax_slot", "hmax_pos", "hmax_ctr",
        # flat eligible set: recorded requests + future/ready heaps
        "req_e", "req_d",
        "efut_key", "efut_seq", "efut_slot", "efut_pos", "efut_ctr",
        "erdy_key", "erdy_seq", "erdy_slot", "erdy_pos", "erdy_ctr",
        # façade back-references
        "obj", "size", "_free",
        # per-state cache handle for the compiled kernels (a capsule
        # holding the list objects; None until first compiled call)
        "_ccache",
    )

    def __init__(self, capacity: int = 8) -> None:
        for name in _SCALARS:
            setattr(self, name, [])
        for kind in CURVE_KINDS:
            for field in CURVE_FIELDS:
                setattr(self, f"{kind}_{field}", [])
            setattr(self, f"{kind}_on", [])
        for spec in _SPECS:
            setattr(self, f"{spec}_m1", [])
            setattr(self, f"{spec}_d", [])
            setattr(self, f"{spec}_m2", [])
        self.rt_on: List[int] = []
        self.ls_on: List[int] = []
        self.ulsp_on: List[int] = []
        self.parent: List[int] = []
        self.index: List[int] = []
        self.nactive: List[int] = []
        self.ul_children: List[int] = []
        self.ls_active: List[int] = []
        self.rt_adm: List[int] = []
        self.hmin_key: List[List[float]] = []
        self.hmin_seq: List[List[int]] = []
        self.hmin_slot: List[List[int]] = []
        self.hmin_pos: List[int] = []
        self.hmin_ctr: List[int] = []
        self.hmax_key: List[List[float]] = []
        self.hmax_seq: List[List[int]] = []
        self.hmax_slot: List[List[int]] = []
        self.hmax_pos: List[int] = []
        self.hmax_ctr: List[int] = []
        self.req_e: List[float] = []
        self.req_d: List[float] = []
        self.efut_key: List[float] = []
        self.efut_seq: List[int] = []
        self.efut_slot: List[int] = []
        self.efut_pos: List[int] = []
        self.efut_ctr = 0
        self.erdy_key: List[float] = []
        self.erdy_seq: List[int] = []
        self.erdy_slot: List[int] = []
        self.erdy_pos: List[int] = []
        self.erdy_ctr = 0
        self.obj: List[Any] = []
        self.size = 0
        self._free: List[int] = []
        self._ccache = None
        if capacity:
            self._grow(capacity)

    # -- slot management ----------------------------------------------------

    def _grow(self, count: int) -> None:
        zeros_d = [0.0] * count
        zeros_b = [0] * count
        zeros_l = [0] * count
        minus_l = [-1] * count
        for name in _SCALARS:
            getattr(self, name).extend(zeros_d)
        for kind in CURVE_KINDS:
            for field in CURVE_FIELDS:
                getattr(self, f"{kind}_{field}").extend(zeros_d)
            getattr(self, f"{kind}_on").extend(zeros_b)
        for spec in _SPECS:
            getattr(self, f"{spec}_m1").extend(zeros_d)
            getattr(self, f"{spec}_d").extend(zeros_d)
            getattr(self, f"{spec}_m2").extend(zeros_d)
        self.rt_on.extend(zeros_b)
        self.ls_on.extend(zeros_b)
        self.ulsp_on.extend(zeros_b)
        self.parent.extend(minus_l)
        self.index.extend(zeros_l)
        self.nactive.extend(zeros_l)
        self.ul_children.extend(zeros_l)
        self.ls_active.extend(zeros_b)
        self.rt_adm.extend(zeros_b)
        self.hmin_pos.extend(minus_l)
        self.hmin_ctr.extend(zeros_l)
        self.hmax_pos.extend(minus_l)
        self.hmax_ctr.extend(zeros_l)
        self.req_e.extend(zeros_d)
        self.req_d.extend(zeros_d)
        self.efut_pos.extend(minus_l)
        self.erdy_pos.extend(minus_l)
        for _ in range(count):
            self.hmin_key.append([])
            self.hmin_seq.append([])
            self.hmin_slot.append([])
            self.hmax_key.append([])
            self.hmax_seq.append([])
            self.hmax_slot.append([])
            self.obj.append(None)
        self._free.extend(range(self.size + count - 1, self.size - 1, -1))
        self.size += count

    def alloc(self, obj: Any) -> int:
        """Claim a slot for ``obj`` (arrays zeroed) and return its id."""
        if not self._free:
            self._grow(max(8, self.size))
        slot = self._free.pop()
        self._reset_slot(slot)
        self.obj[slot] = obj
        return slot

    def free(self, slot: int) -> None:
        """Release a slot back to the pool (the façade detaches first)."""
        self.obj[slot] = None
        self._free.append(slot)

    def _reset_slot(self, slot: int) -> None:
        for name in _SCALARS:
            getattr(self, name)[slot] = 0.0
        for kind in CURVE_KINDS:
            for field in CURVE_FIELDS:
                getattr(self, f"{kind}_{field}")[slot] = 0.0
            getattr(self, f"{kind}_on")[slot] = 0
        for spec in _SPECS:
            getattr(self, f"{spec}_m1")[slot] = 0.0
            getattr(self, f"{spec}_d")[slot] = 0.0
            getattr(self, f"{spec}_m2")[slot] = 0.0
        self.rt_on[slot] = 0
        self.ls_on[slot] = 0
        self.ulsp_on[slot] = 0
        self.parent[slot] = -1
        self.index[slot] = 0
        self.nactive[slot] = 0
        self.ul_children[slot] = 0
        self.ls_active[slot] = 0
        self.rt_adm[slot] = 1
        self.hmin_key[slot].clear()
        self.hmin_seq[slot].clear()
        self.hmin_slot[slot].clear()
        self.hmin_pos[slot] = -1
        self.hmin_ctr[slot] = 0
        self.hmax_key[slot].clear()
        self.hmax_seq[slot].clear()
        self.hmax_slot[slot].clear()
        self.hmax_pos[slot] = -1
        self.hmax_ctr[slot] = 0
        self.req_e[slot] = 0.0
        self.req_d[slot] = 0.0
        self.efut_pos[slot] = -1
        self.erdy_pos[slot] = -1

    def adopt_slot(self, other: "FlatState", slot: int) -> int:
        """Copy ``other``'s per-slot values into a fresh slot of self.

        Used to *detach* a removed class: its façade keeps a one-slot
        private state so stale external handles still read the values the
        class died with, while the shared slot is recycled.  Heap
        membership and structure links are deliberately not copied (a
        detached class is passive by construction).
        """
        mine = self.alloc(None)
        for name in _SCALARS:
            getattr(self, name)[mine] = getattr(other, name)[slot]
        for kind in CURVE_KINDS:
            for field in CURVE_FIELDS:
                name = f"{kind}_{field}"
                getattr(self, name)[mine] = getattr(other, name)[slot]
            name = f"{kind}_on"
            getattr(self, name)[mine] = getattr(other, name)[slot]
        for spec in _SPECS:
            for field in ("m1", "d", "m2"):
                name = f"{spec}_{field}"
                getattr(self, name)[mine] = getattr(other, name)[slot]
        self.rt_on[mine] = other.rt_on[slot]
        self.ls_on[mine] = other.ls_on[slot]
        self.ulsp_on[mine] = other.ulsp_on[slot]
        self.index[mine] = other.index[slot]
        self.rt_adm[mine] = other.rt_adm[slot]
        return mine


# -- flat curve kernels (pure Python; the C fast path mirrors these) --------
#
# A curve is seven cells at ``slot`` in the arrays of one kind: anchor
# (x0, y0), first-segment slope m1 for dx units of x, then slope m2, plus
# the memoized knee (kx, ky).  ``ky`` uses NaN as the "not yet computed"
# sentinel -- the flat analogue of RuntimeCurve._ky is None -- and every
# mutating operation resets it.  All expressions are copied verbatim from
# repro.core.runtime_curves so results are bit-identical.


def curve_value(x0a, y0a, m1a, dxa, m2a, slot: int, x: float) -> float:
    """RuntimeCurve.value over array cells."""
    x0 = x0a[slot]
    y0 = y0a[slot]
    if x <= x0:
        return y0
    dx = dxa[slot]
    if x <= x0 + dx:
        return y0 + m1a[slot] * (x - x0)
    return y0 + m1a[slot] * dx + m2a[slot] * (x - x0 - dx)


def curve_inverse(x0a, y0a, m1a, dxa, m2a, kxa, kya, slot: int, y: float) -> float:
    """RuntimeCurve.inverse over array cells (knee memo included)."""
    y0 = y0a[slot]
    if y <= y0:
        return x0a[slot]
    knee_y = kya[slot]
    if knee_y != knee_y:  # NaN: memo invalid
        dx = dxa[slot]
        knee_x = kxa[slot] = x0a[slot] + dx
        knee_y = kya[slot] = y0 + m1a[slot] * dx
    else:
        knee_x = kxa[slot]
    if y <= knee_y:
        return x0a[slot] + (y - y0) / m1a[slot]
    m2 = m2a[slot]
    if m2 == 0:
        return INF
    return knee_x + (y - knee_y) / m2


def curve_min_with(
    x0a, y0a, m1a, dxa, m2a, kya,
    slot: int, sm1: float, sd: float, sm2: float, x: float, y: float,
) -> None:
    """RuntimeCurve.min_with over array cells; spec passed as floats."""
    y_here = curve_value(x0a, y0a, m1a, dxa, m2a, slot, x)
    if sm1 <= sm2:
        if y_here < y:
            return
        x0a[slot] = x
        y0a[slot] = y
        m1a[slot] = sm1
        dxa[slot] = sd
        m2a[slot] = sm2
        kya[slot] = NAN
        return
    if y > y_here:
        return
    knee_x = x0a[slot] + dxa[slot]
    knee_y = y0a[slot] + m1a[slot] * dxa[slot]
    dslope = sm1 - sm2
    cross = (knee_y - y + sm1 * x - sm2 * knee_x) / dslope
    cross = max(cross, x)
    if cross >= x + sd:
        x0a[slot] = x
        y0a[slot] = y
        m1a[slot] = sm1
        dxa[slot] = sd
        m2a[slot] = sm2
        kya[slot] = NAN
        return
    x0a[slot] = x
    y0a[slot] = y
    m1a[slot] = sm1
    dxa[slot] = cross - x
    m2a[slot] = sm2
    kya[slot] = NAN


def curve_set(state: FlatState, kind: str, slot: int,
              m1: float, d: float, m2: float, x: float, y: float) -> None:
    """RuntimeCurve.from_spec into the arrays (cold path)."""
    getattr(state, f"{kind}_x0")[slot] = x
    getattr(state, f"{kind}_y0")[slot] = y
    getattr(state, f"{kind}_m1")[slot] = m1
    getattr(state, f"{kind}_dx")[slot] = d
    getattr(state, f"{kind}_m2")[slot] = m2
    getattr(state, f"{kind}_ky")[slot] = NAN
    getattr(state, f"{kind}_on")[slot] = 1


# -- flat sibling heaps ------------------------------------------------------
#
# Port of util.heap.IndexedHeap specialised to float keys and int items
# (child slots), as three parallel lists per parent plus one global
# position array per side.  Tie-breaks (key, then insertion seq) and the
# remove/update movement rules match the original exactly, so the heap
# *layout* -- which snapshot order lists and iteration-based measurement
# read -- evolves identically.


def heap_sift_up(keys, seqs, slots, pos, i: int) -> None:
    key = keys[i]
    seq = seqs[i]
    slot = slots[i]
    while i > 0:
        pi = (i - 1) >> 1
        pk = keys[pi]
        if key < pk or (key == pk and seq < seqs[pi]):
            keys[i] = pk
            seqs[i] = seqs[pi]
            moved = slots[i] = slots[pi]
            pos[moved] = i
            i = pi
        else:
            break
    keys[i] = key
    seqs[i] = seq
    slots[i] = slot
    pos[slot] = i


def heap_sift_down(keys, seqs, slots, pos, i: int) -> None:
    size = len(keys)
    key = keys[i]
    seq = seqs[i]
    slot = slots[i]
    child = 2 * i + 1
    while child < size:
        ck = keys[child]
        right = child + 1
        if right < size:
            rk = keys[right]
            if rk < ck or (rk == ck and seqs[right] < seqs[child]):
                child = right
                ck = rk
        if ck < key or (ck == key and seqs[child] < seq):
            keys[i] = ck
            seqs[i] = seqs[child]
            moved = slots[i] = slots[child]
            pos[moved] = i
            i = child
            child = 2 * i + 1
        else:
            break
    keys[i] = key
    seqs[i] = seq
    slots[i] = slot
    pos[slot] = i


def heap_push(state: FlatState, side_min: bool, parent: int,
              slot: int, key: float) -> None:
    if side_min:
        keys, seqs, slots = (state.hmin_key[parent], state.hmin_seq[parent],
                             state.hmin_slot[parent])
        pos, ctr = state.hmin_pos, state.hmin_ctr
    else:
        keys, seqs, slots = (state.hmax_key[parent], state.hmax_seq[parent],
                             state.hmax_slot[parent])
        pos, ctr = state.hmax_pos, state.hmax_ctr
    if pos[slot] != -1:
        raise ValueError(f"slot already in heap: {slot}")
    seq = ctr[parent]
    ctr[parent] = seq + 1
    keys.append(key)
    seqs.append(seq)
    slots.append(slot)
    pos[slot] = len(keys) - 1
    heap_sift_up(keys, seqs, slots, pos, len(keys) - 1)


def heap_update(state: FlatState, side_min: bool, parent: int,
                slot: int, key: float) -> None:
    if side_min:
        keys, seqs, slots = (state.hmin_key[parent], state.hmin_seq[parent],
                             state.hmin_slot[parent])
        pos = state.hmin_pos
    else:
        keys, seqs, slots = (state.hmax_key[parent], state.hmax_seq[parent],
                             state.hmax_slot[parent])
        pos = state.hmax_pos
    i = pos[slot]
    if i < 0:
        raise KeyError(slot)
    old = keys[i]
    keys[i] = key
    if key < old:
        heap_sift_up(keys, seqs, slots, pos, i)
    else:
        heap_sift_down(keys, seqs, slots, pos, i)


def heap_remove(state: FlatState, side_min: bool, parent: int, slot: int) -> float:
    if side_min:
        keys, seqs, slots = (state.hmin_key[parent], state.hmin_seq[parent],
                             state.hmin_slot[parent])
        pos = state.hmin_pos
    else:
        keys, seqs, slots = (state.hmax_key[parent], state.hmax_seq[parent],
                             state.hmax_slot[parent])
        pos = state.hmax_pos
    i = pos[slot]
    if i < 0:
        raise KeyError(slot)
    pos[slot] = -1
    removed_key = keys[i]
    last_key = keys.pop()
    last_seq = seqs.pop()
    last_slot = slots.pop()
    if i < len(keys):
        keys[i] = last_key
        seqs[i] = last_seq
        slots[i] = last_slot
        pos[last_slot] = i
        heap_sift_up(keys, seqs, slots, pos, i)
        heap_sift_down(keys, seqs, slots, pos, pos[last_slot])
    return removed_key


def heap_push2(state: FlatState, parent: int, slot: int, key: float) -> None:
    """Push ``slot`` onto both sibling heaps (min: key, max: -key).

    Fused variant of two :func:`heap_push` calls with the sifts inlined;
    the kernels call this once per activation level.  Skips the
    already-present guard -- the caller (activation walk) owns the
    invariant.
    """
    keys = state.hmin_key[parent]
    seqs = state.hmin_seq[parent]
    slots = state.hmin_slot[parent]
    pos = state.hmin_pos
    seq = state.hmin_ctr[parent]
    state.hmin_ctr[parent] = seq + 1
    i = len(keys)
    keys.append(key)
    seqs.append(seq)
    slots.append(slot)
    while i > 0:
        pi = (i - 1) >> 1
        pk = keys[pi]
        if key < pk or (key == pk and seq < seqs[pi]):
            keys[i] = pk
            seqs[i] = seqs[pi]
            moved = slots[i] = slots[pi]
            pos[moved] = i
            i = pi
        else:
            break
    keys[i] = key
    seqs[i] = seq
    slots[i] = slot
    pos[slot] = i
    key = -key
    keys = state.hmax_key[parent]
    seqs = state.hmax_seq[parent]
    slots = state.hmax_slot[parent]
    pos = state.hmax_pos
    seq = state.hmax_ctr[parent]
    state.hmax_ctr[parent] = seq + 1
    i = len(keys)
    keys.append(key)
    seqs.append(seq)
    slots.append(slot)
    while i > 0:
        pi = (i - 1) >> 1
        pk = keys[pi]
        if key < pk or (key == pk and seq < seqs[pi]):
            keys[i] = pk
            seqs[i] = seqs[pi]
            moved = slots[i] = slots[pi]
            pos[moved] = i
            i = pi
        else:
            break
    keys[i] = key
    seqs[i] = seq
    slots[i] = slot
    pos[slot] = i


def heap_update2(state: FlatState, parent: int, slot: int, key: float) -> None:
    """Re-key ``slot`` in both sibling heaps (fused pair update).

    The sift loops are spelled out inline (same comparisons and moves as
    :func:`heap_sift_up` / :func:`heap_sift_down`, so the heap layout
    evolves identically): this runs once per serve per ancestor level
    and the helper-call overhead dominated the pure-Python profile.
    """
    for keys, seqs, slots, pos, key in (
        (state.hmin_key[parent], state.hmin_seq[parent],
         state.hmin_slot[parent], state.hmin_pos, key),
        (state.hmax_key[parent], state.hmax_seq[parent],
         state.hmax_slot[parent], state.hmax_pos, -key),
    ):
        i = pos[slot]
        old = keys[i]
        seq = seqs[i]
        if key < old:
            while i > 0:
                pi = (i - 1) >> 1
                pk = keys[pi]
                if key < pk or (key == pk and seq < seqs[pi]):
                    keys[i] = pk
                    seqs[i] = seqs[pi]
                    moved = slots[i] = slots[pi]
                    pos[moved] = i
                    i = pi
                else:
                    break
        else:
            size = len(keys)
            child = 2 * i + 1
            while child < size:
                ck = keys[child]
                right = child + 1
                if right < size:
                    rk = keys[right]
                    if rk < ck or (rk == ck and seqs[right] < seqs[child]):
                        child = right
                        ck = rk
                if ck < key or (ck == key and seqs[child] < seq):
                    keys[i] = ck
                    seqs[i] = seqs[child]
                    moved = slots[i] = slots[child]
                    pos[moved] = i
                    i = child
                    child = 2 * i + 1
                else:
                    break
        keys[i] = key
        seqs[i] = seq
        slots[i] = slot
        pos[slot] = i


def heap_remove2(state: FlatState, parent: int, slot: int) -> None:
    """Remove ``slot`` from both sibling heaps (fused pair removal)."""
    keys = state.hmin_key[parent]
    seqs = state.hmin_seq[parent]
    slots = state.hmin_slot[parent]
    pos = state.hmin_pos
    i = pos[slot]
    pos[slot] = -1
    last_key = keys.pop()
    last_seq = seqs.pop()
    last_slot = slots.pop()
    if i < len(keys):
        keys[i] = last_key
        seqs[i] = last_seq
        slots[i] = last_slot
        pos[last_slot] = i
        heap_sift_up(keys, seqs, slots, pos, i)
        heap_sift_down(keys, seqs, slots, pos, pos[last_slot])
    keys = state.hmax_key[parent]
    seqs = state.hmax_seq[parent]
    slots = state.hmax_slot[parent]
    pos = state.hmax_pos
    i = pos[slot]
    pos[slot] = -1
    last_key = keys.pop()
    last_seq = seqs.pop()
    last_slot = slots.pop()
    if i < len(keys):
        keys[i] = last_key
        seqs[i] = last_seq
        slots[i] = last_slot
        pos[last_slot] = i
        heap_sift_up(keys, seqs, slots, pos, i)
        heap_sift_down(keys, seqs, slots, pos, pos[last_slot])


def heap_iter_sorted(keys, seqs, slots) -> Iterator[Tuple[float, int]]:
    """Lazy ascending (key, seq) read of a flat heap; yields (key, slot).

    Port of IndexedHeap.iter_sorted (frontier exploration through heap
    children); used by the upper-limit descent's skip-scan.
    """
    if not keys:
        return
    heappush = _heapq.heappush
    heappop = _heapq.heappop
    frontier: List[Tuple[float, int, int]] = [(keys[0], seqs[0], 0)]
    size = len(keys)
    while frontier:
        key, _seq, i = heappop(frontier)
        yield key, slots[i]
        child = 2 * i + 1
        if child < size:
            heappush(frontier, (keys[child], seqs[child], child))
            child += 1
            if child < size:
                heappush(frontier, (keys[child], seqs[child], child))


def system_vt(state: FlatState, slot: int, policy: int) -> float:
    """HFSCClass.system_vt over the flat heaps."""
    if state.nactive[slot] == 0:
        return state.vt_watermark[slot]
    vmin = state.hmin_key[slot][0]
    vmax = -state.hmax_key[slot][0]
    if policy == VT_MIN:
        return vmin
    if policy == VT_MAX:
        return vmax
    return (vmin + vmax) / 2.0


# -- flat eligible set -------------------------------------------------------
#
# The "heap" eligible-set backend: the paper's calendar-queue variant
# (Section V: eligible times tracked separately, deadlines in a heap for
# the matured requests) rebuilt on flat indexed heaps over FlatState
# slots.  Requests whose eligible time has not arrived sit in a *future*
# heap keyed ``(eligible, insertion seq)``; a query at ``now`` first
# matures everything due into a *ready* heap keyed ``(deadline,
# maturation seq)`` and answers from its root.  Simulation time only
# advances between queries, so matured requests never move back --
# ``update`` re-inserts through the future heap, exactly like the
# calendar backend.
#
# Selection is identical to the tree/calendar backends away from exact
# deadline ties (the one place backends may legitimately differ, see
# tests/golden_scenarios.py); unlike the treap there is no RNG and no
# pointer chasing, so the per-serve remove+insert is two short list
# sifts.


def _eheap_delete(keys, seqs, slots, pos, i: int) -> None:
    """Remove entry ``i`` (pos already cleared) with the swap-last rule."""
    last_key = keys.pop()
    last_seq = seqs.pop()
    last_slot = slots.pop()
    if i < len(keys):
        keys[i] = last_key
        seqs[i] = last_seq
        slots[i] = last_slot
        pos[last_slot] = i
        heap_sift_up(keys, seqs, slots, pos, i)
        heap_sift_down(keys, seqs, slots, pos, pos[last_slot])


def elig_insert(state: FlatState, slot: int, eligible: float,
                deadline: float) -> None:
    """Add a request for ``slot`` (ValueError if already present)."""
    if state.efut_pos[slot] != -1 or state.erdy_pos[slot] != -1:
        raise ValueError(f"slot already present: {slot}")
    state.req_e[slot] = eligible
    state.req_d[slot] = deadline
    keys = state.efut_key
    seqs = state.efut_seq
    slots = state.efut_slot
    seq = state.efut_ctr
    state.efut_ctr = seq + 1
    i = len(keys)
    keys.append(eligible)
    seqs.append(seq)
    slots.append(slot)
    heap_sift_up(keys, seqs, slots, state.efut_pos, i)


def elig_remove(state: FlatState, slot: int) -> None:
    """Drop the request for ``slot`` (KeyError if absent)."""
    i = state.efut_pos[slot]
    if i >= 0:
        state.efut_pos[slot] = -1
        _eheap_delete(state.efut_key, state.efut_seq, state.efut_slot,
                      state.efut_pos, i)
        return
    i = state.erdy_pos[slot]
    if i < 0:
        raise KeyError(slot)
    state.erdy_pos[slot] = -1
    _eheap_delete(state.erdy_key, state.erdy_seq, state.erdy_slot,
                  state.erdy_pos, i)


def elig_update(state: FlatState, slot: int, eligible: float,
                deadline: float) -> None:
    """Re-key the request for ``slot`` (remove + insert, calendar-style)."""
    elig_remove(state, slot)
    elig_insert(state, slot, eligible, deadline)


def elig_query(state: FlatState, now: float) -> int:
    """Mature due requests, then return the min-deadline ready slot or -1."""
    fkeys = state.efut_key
    fseqs = state.efut_seq
    fslots = state.efut_slot
    fpos = state.efut_pos
    rkeys = state.erdy_key
    rseqs = state.erdy_seq
    rslots = state.erdy_slot
    rpos = state.erdy_pos
    req_d = state.req_d
    while fkeys and fkeys[0] <= now:
        slot = fslots[0]
        fpos[slot] = -1
        _eheap_delete(fkeys, fseqs, fslots, fpos, 0)
        seq = state.erdy_ctr
        state.erdy_ctr = seq + 1
        i = len(rkeys)
        rkeys.append(req_d[slot])
        rseqs.append(seq)
        rslots.append(slot)
        heap_sift_up(rkeys, rseqs, rslots, rpos, i)
    if not rkeys:
        return -1
    return rslots[0]


def elig_min_eligible(state: FlatState) -> Optional[float]:
    """Earliest eligible time, matching the calendar backend's answer."""
    if state.erdy_key:
        # Matured requests are eligible "now"; report the smallest
        # recorded eligible time for parity with the tree backend.
        req_e = state.req_e
        return min(req_e[slot] for slot in state.erdy_slot)
    if state.efut_key:
        return state.efut_key[0]
    return None


def elig_clear(state: FlatState) -> None:
    """Empty the eligible set (rebuild/restore start from scratch)."""
    for slot in state.efut_slot:
        state.efut_pos[slot] = -1
    for slot in state.erdy_slot:
        state.erdy_pos[slot] = -1
    state.efut_key.clear()
    state.efut_seq.clear()
    state.efut_slot.clear()
    state.efut_ctr = 0
    state.erdy_key.clear()
    state.erdy_seq.clear()
    state.erdy_slot.clear()
    state.erdy_ctr = 0


class FlatEligibleSet:
    """Eligible-set protocol over one scheduler's FlatState arrays.

    Items are the class façade objects (``(state, slot)`` handles); all
    storage lives in the shared FlatState so the kernels and a compiled
    fast path can reach it without touching Python objects.
    """

    __slots__ = ("_s",)

    def __init__(self, state: FlatState) -> None:
        self._s = state
        elig_clear(state)

    def __len__(self) -> int:
        s = self._s
        return len(s.efut_key) + len(s.erdy_key)

    def __bool__(self) -> bool:
        s = self._s
        return bool(s.efut_key) or bool(s.erdy_key)

    def __contains__(self, item: Any) -> bool:
        s = self._s
        if item.state is not s:
            return False
        slot = item.slot
        return s.efut_pos[slot] != -1 or s.erdy_pos[slot] != -1

    def _slot_of(self, item: Any) -> int:
        if item not in self:
            raise KeyError(item)
        return item.slot

    def eligible_of(self, item: Any) -> float:
        return self._s.req_e[self._slot_of(item)]

    def deadline_of(self, item: Any) -> float:
        return self._s.req_d[self._slot_of(item)]

    def insert(self, item: Any, eligible: float, deadline: float) -> None:
        s = self._s
        if item.state is not s:
            raise ValueError(f"item belongs to a different state: {item!r}")
        if s.efut_pos[item.slot] != -1 or s.erdy_pos[item.slot] != -1:
            raise ValueError(f"item already present: {item!r}")
        elig_insert(s, item.slot, eligible, deadline)

    def remove(self, item: Any) -> None:
        elig_remove(self._s, self._slot_of(item))

    def update(self, item: Any, eligible: float, deadline: float) -> None:
        elig_update(self._s, self._slot_of(item), eligible, deadline)

    def update_deadline(self, item: Any, deadline: float) -> None:
        slot = self._slot_of(item)
        elig_update(self._s, slot, self._s.req_e[slot], deadline)

    def min_eligible(self) -> Optional[float]:
        return elig_min_eligible(self._s)

    def min_deadline_eligible(
        self, now: float
    ) -> Optional[Tuple[Any, float, float]]:
        s = self._s
        slot = elig_query(s, now)
        if slot < 0:
            return None
        return s.obj[slot], s.req_e[slot], s.req_d[slot]

    def items(self) -> Iterator[Tuple[Any, float, float]]:
        """All requests in eligible-time order (mainly for tests).

        Exact eligible-time ties are ordered by deadline then slot index;
        like the backends' tie behaviour generally, this may differ from
        the treap's insertion-order rule.
        """
        s = self._s
        members = list(s.efut_slot) + list(s.erdy_slot)
        members.sort(key=lambda slot: (s.req_e[slot], s.req_d[slot],
                                       s.index[slot]))
        for slot in members:
            yield s.obj[slot], s.req_e[slot], s.req_d[slot]

    def check_invariants(self) -> None:
        """Verify heap order and position maps (for tests)."""
        s = self._s
        for keys, seqs, slots, pos in (
            (s.efut_key, s.efut_seq, s.efut_slot, s.efut_pos),
            (s.erdy_key, s.erdy_seq, s.erdy_slot, s.erdy_pos),
        ):
            assert len(keys) == len(seqs) == len(slots)
            for i in range(1, len(keys)):
                parent = (i - 1) >> 1
                assert (keys[parent], seqs[parent]) <= (keys[i], seqs[i]), (
                    "eligible heap order violated"
                )
            for i, slot in enumerate(slots):
                assert pos[slot] == i, "eligible position map stale"
        for slot in s.efut_slot:
            assert s.erdy_pos[slot] == -1, "slot in both eligible heaps"


# -- hot-path kernels --------------------------------------------------------
#
# One call per scheduler step; each mirrors the corresponding block of
# the seed implementation (repro.core.hfsc at the PR-5 revision) exactly.


def activate_ls(state: FlatState, slot: int, policy: int) -> None:
    """HFSC._activate_ls: walk up activating classes (eq. 12 per level)."""
    vc_x0 = state.vc_x0
    vc_y0 = state.vc_y0
    vc_m1 = state.vc_m1
    vc_dx = state.vc_dx
    vc_m2 = state.vc_m2
    vc_kx = state.vc_kx
    vc_ky = state.vc_ky
    vc_on = state.vc_on
    parent = state.parent
    nactive = state.nactive
    vt = state.vt
    total_work = state.total_work
    ls_active = state.ls_active
    watermark = state.vt_watermark
    s = slot
    while parent[s] >= 0:
        p = parent[s]
        parent_was_active = nactive[p] > 0
        if not parent_was_active:
            pvt = watermark[p]
        else:
            vmin = state.hmin_key[p][0]
            vmax = -state.hmax_key[p][0]
            if policy == VT_MIN:
                pvt = vmin
            elif policy == VT_MAX:
                pvt = vmax
            else:
                pvt = (vmin + vmax) / 2.0
        w = total_work[s]
        if not vc_on[s]:
            vc_x0[s] = pvt
            vc_y0[s] = w
            vc_m1[s] = state.ls_m1[s]
            vc_dx[s] = state.ls_d[s]
            vc_m2[s] = state.ls_m2[s]
            vc_ky[s] = NAN
            vc_on[s] = 1
        else:
            curve_min_with(vc_x0, vc_y0, vc_m1, vc_dx, vc_m2, vc_ky,
                           s, state.ls_m1[s], state.ls_d[s], state.ls_m2[s],
                           pvt, w)
        v = curve_inverse(vc_x0, vc_y0, vc_m1, vc_dx, vc_m2, vc_kx, vc_ky, s, w)
        vt[s] = v
        ls_active[s] = 1
        heap_push2(state, p, s, v)
        nactive[p] += 1
        if parent_was_active or parent[p] < 0:
            break
        s = p


def passivate_ls(state: FlatState, slot: int) -> None:
    """HFSC._passivate_ls: walk up detaching newly idle classes."""
    parent = state.parent
    nactive = state.nactive
    vt = state.vt
    watermark = state.vt_watermark
    s = slot
    while parent[s] >= 0:
        p = parent[s]
        heap_remove2(state, p, s)
        nactive[p] -= 1
        if vt[s] > watermark[p]:
            watermark[p] = vt[s]
        state.ls_active[s] = 0
        if nactive[p] > 0 or parent[p] < 0:
            break
        s = p


def activate(state: FlatState, slot: int, now: float, rt_tracked: bool,
             head_size: float, policy: int) -> None:
    """HFSC._activate: Fig. 5(a) update_ed + Fig. 6 update_v, flat.

    The shell is responsible for the eligible-set insert (when
    ``rt_tracked``) and the upper-limit wait-heap push (when the class
    has an ul spec), reading the freshly written ``eligible``,
    ``deadline`` and ``fit_time`` cells.
    """
    c = state.cumul_rt[slot]
    if rt_tracked:
        if not state.dc_on[slot]:
            curve_set(state, "dc", slot, state.rt_m1[slot], state.rt_d[slot],
                      state.rt_m2[slot], now, c)
            curve_set(state, "ec", slot, state.es_m1[slot], state.es_d[slot],
                      state.es_m2[slot], now, c)
        else:
            curve_min_with(state.dc_x0, state.dc_y0, state.dc_m1, state.dc_dx,
                           state.dc_m2, state.dc_ky, slot,
                           state.rt_m1[slot], state.rt_d[slot],
                           state.rt_m2[slot], now, c)
            curve_min_with(state.ec_x0, state.ec_y0, state.ec_m1, state.ec_dx,
                           state.ec_m2, state.ec_ky, slot,
                           state.es_m1[slot], state.es_d[slot],
                           state.es_m2[slot], now, c)
        state.eligible[slot] = curve_inverse(
            state.ec_x0, state.ec_y0, state.ec_m1, state.ec_dx, state.ec_m2,
            state.ec_kx, state.ec_ky, slot, c)
        state.deadline[slot] = curve_inverse(
            state.dc_x0, state.dc_y0, state.dc_m1, state.dc_dx, state.dc_m2,
            state.dc_kx, state.dc_ky, slot, c + head_size)
    if state.ulsp_on[slot]:
        w = state.total_work[slot]
        if not state.ul_on[slot]:
            curve_set(state, "ul", slot, state.ulsp_m1[slot],
                      state.ulsp_d[slot], state.ulsp_m2[slot], now, w)
        else:
            curve_min_with(state.ul_x0, state.ul_y0, state.ul_m1, state.ul_dx,
                           state.ul_m2, state.ul_ky, slot,
                           state.ulsp_m1[slot], state.ulsp_d[slot],
                           state.ulsp_m2[slot], now, w)
        state.fit_time[slot] = curve_inverse(
            state.ul_x0, state.ul_y0, state.ul_m1, state.ul_dx, state.ul_m2,
            state.ul_kx, state.ul_ky, slot, w)
    if state.ls_on[slot]:
        activate_ls(state, slot, policy)


def serve_commit(state: FlatState, slot: int, size: float, realtime: bool,
                 rt_tracked: bool, backlogged: bool, next_size: float) -> None:
    """The state mutation of HFSC._serve after the packet left the queue.

    Covers: real-time counters, the Fig. 6 ancestor virtual-time walk
    with its heap re-keying (or the dying-path skip), the upper-limit fit
    update, the Fig. 5 eligible/deadline advance for a still-backlogged
    leaf, and the link-sharing passivation walk otherwise.  The shell
    performs the eligible-set and ul-wait-heap mutations around this call
    (those structures hold façade objects).
    """
    if realtime:
        state.cumul_rt[slot] += size
        state.bytes_rt[slot] += size
    else:
        state.bytes_ls[slot] += size
    total_work = state.total_work
    if state.ls_on[slot]:
        vc_x0 = state.vc_x0
        vc_y0 = state.vc_y0
        vc_m1 = state.vc_m1
        vc_dx = state.vc_dx
        vc_m2 = state.vc_m2
        vc_kx = state.vc_kx
        vc_ky = state.vc_ky
        parent = state.parent
        nactive = state.nactive
        vt = state.vt
        s = slot
        dying = not backlogged
        while True:
            p = parent[s]
            if p < 0:
                total_work[s] += size
                break
            w = total_work[s] = total_work[s] + size
            # curve_inverse(vc_*, s, w) inlined: the walk runs for every
            # served packet and the call overhead dominates the math.
            y0 = vc_y0[s]
            if w <= y0:
                v = vc_x0[s]
            else:
                knee_y = vc_ky[s]
                if knee_y != knee_y:  # NaN: memo invalid
                    dx = vc_dx[s]
                    knee_x = vc_kx[s] = vc_x0[s] + dx
                    knee_y = vc_ky[s] = y0 + vc_m1[s] * dx
                else:
                    knee_x = vc_kx[s]
                if w <= knee_y:
                    v = vc_x0[s] + (w - y0) / vc_m1[s]
                else:
                    m2 = vc_m2[s]
                    v = INF if m2 == 0 else knee_x + (w - knee_y) / m2
            vt[s] = v
            if dying:
                dying = nactive[p] == 1 and parent[p] >= 0
            else:
                heap_update2(state, p, s, v)
            s = p
    else:
        total_work[slot] += size
    if state.ul_on[slot]:
        state.fit_time[slot] = curve_inverse(
            state.ul_x0, state.ul_y0, state.ul_m1, state.ul_dx, state.ul_m2,
            state.ul_kx, state.ul_ky, slot, total_work[slot])
    if backlogged:
        if rt_tracked:
            c = state.cumul_rt[slot]
            if realtime:
                # curve_inverse(ec_*, slot, c) inlined (see vt walk above).
                y0 = state.ec_y0[slot]
                if c <= y0:
                    state.eligible[slot] = state.ec_x0[slot]
                else:
                    knee_y = state.ec_ky[slot]
                    if knee_y != knee_y:  # NaN: memo invalid
                        dx = state.ec_dx[slot]
                        knee_x = state.ec_kx[slot] = state.ec_x0[slot] + dx
                        knee_y = state.ec_ky[slot] = y0 + state.ec_m1[slot] * dx
                    else:
                        knee_x = state.ec_kx[slot]
                    if c <= knee_y:
                        state.eligible[slot] = (
                            state.ec_x0[slot] + (c - y0) / state.ec_m1[slot]
                        )
                    else:
                        m2 = state.ec_m2[slot]
                        state.eligible[slot] = (
                            INF if m2 == 0 else knee_x + (c - knee_y) / m2
                        )
            # curve_inverse(dc_*, slot, c + next_size) inlined.
            y = c + next_size
            y0 = state.dc_y0[slot]
            if y <= y0:
                state.deadline[slot] = state.dc_x0[slot]
            else:
                knee_y = state.dc_ky[slot]
                if knee_y != knee_y:  # NaN: memo invalid
                    dx = state.dc_dx[slot]
                    knee_x = state.dc_kx[slot] = state.dc_x0[slot] + dx
                    knee_y = state.dc_ky[slot] = y0 + state.dc_m1[slot] * dx
                else:
                    knee_x = state.dc_kx[slot]
                if y <= knee_y:
                    state.deadline[slot] = (
                        state.dc_x0[slot] + (y - y0) / state.dc_m1[slot]
                    )
                else:
                    m2 = state.dc_m2[slot]
                    state.deadline[slot] = (
                        INF if m2 == 0 else knee_x + (y - knee_y) / m2
                    )
    elif state.ls_on[slot]:
        passivate_ls(state, slot)


def elig_requeue(state: FlatState, slot: int, eligible: float,
                 deadline: float, now: float) -> None:
    """Serve-path re-key: the calendar round trip collapsed when due.

    Semantically ``elig_update`` followed by the maturation the next
    query would perform: when the new eligible time is already due
    (``eligible <= now``) and the slot sits in the ready heap, the
    remove / future-insert / mature-back dance (four to five sifts) is
    replaced by one in-place re-key with a fresh maturation seq -- the
    exact state the next query would build, minus the churn.  The fresh
    seq orders exact deadline ties by *this* serve order rather than by
    the future heap's maturation order; deadline ties are the one point
    where eligible-set backends may legitimately differ (see
    tests/golden_scenarios.py), and every caller -- per-packet and
    batched, pure and compiled -- routes through this same rule.
    """
    if eligible <= now:
        i = state.erdy_pos[slot]
        if i >= 0:
            state.req_e[slot] = eligible
            state.req_d[slot] = deadline
            seq = state.erdy_ctr
            state.erdy_ctr = seq + 1
            keys = state.erdy_key
            seqs = state.erdy_seq
            slots = state.erdy_slot
            pos = state.erdy_pos
            old = keys[i]
            # The fresh seq is the largest in the heap, so a smaller key
            # can only rise and an equal-or-larger key can only sink.
            # Sift loops inlined (same moves as heap_sift_up/_down).
            if deadline < old:
                while i > 0:
                    pi = (i - 1) >> 1
                    pk = keys[pi]
                    if deadline < pk:
                        keys[i] = pk
                        seqs[i] = seqs[pi]
                        moved = slots[i] = slots[pi]
                        pos[moved] = i
                        i = pi
                    else:
                        break
            else:
                size = len(keys)
                child = 2 * i + 1
                while child < size:
                    ck = keys[child]
                    right = child + 1
                    if right < size:
                        rk = keys[right]
                        if rk < ck or (rk == ck and seqs[right] < seqs[child]):
                            child = right
                            ck = rk
                    # Generic tie-break is seqs[child] < seq, always true
                    # here (seq is the freshest), so <= is exact.
                    if ck <= deadline:
                        keys[i] = ck
                        seqs[i] = seqs[child]
                        moved = slots[i] = slots[child]
                        pos[moved] = i
                        i = child
                        child = 2 * i + 1
                    else:
                        break
            keys[i] = deadline
            seqs[i] = seq
            slots[i] = slot
            pos[slot] = i
            return
    elig_remove(state, slot)
    elig_insert(state, slot, eligible, deadline)


def serve_step(state: FlatState, slot: int, size: float, realtime: bool,
               rt_tracked: bool, backlogged: bool, next_size: float,
               now: float) -> None:
    """:func:`serve_commit` fused with the flat eligible-set maintenance.

    One kernel call per served packet instead of two or three: the
    serve bookkeeping runs first, then the request for a still-backlogged
    tracked leaf is re-keyed (:func:`elig_requeue`) or a drained leaf's
    request is dropped.  Only valid with the flat ("heap") eligible
    backend -- the legacy backends keep façade objects the shell must
    touch itself.
    """
    serve_commit(state, slot, size, realtime, rt_tracked, backlogged,
                 next_size)
    if rt_tracked:
        if backlogged:
            elig_requeue(state, slot, state.eligible[slot],
                         state.deadline[slot], now)
        else:
            elig_remove(state, slot)


def activate_step(state: FlatState, slot: int, now: float, rt_tracked: bool,
                  head_size: float, policy: int) -> None:
    """:func:`activate` fused with the flat eligible-set insert.

    The passive->active update writes ``eligible``/``deadline``; with the
    flat backend the request insert needs no façade, so the whole
    transition is one kernel call.  The upper-limit wait-heap push stays
    in the shell (that heap holds façade objects).
    """
    activate(state, slot, now, rt_tracked, head_size, policy)
    if rt_tracked:
        elig_insert(state, slot, state.eligible[slot], state.deadline[slot])


def ls_descend(state: FlatState, root_slot: int) -> int:
    """Smallest-virtual-time descent, no upper limits anywhere (fast path).

    Returns the chosen slot (== ``root_slot`` when nothing is active).
    """
    nactive = state.nactive
    hmin_slot = state.hmin_slot
    s = root_slot
    while nactive[s] > 0:
        s = hmin_slot[s][0]
    return s


# -- façade views ------------------------------------------------------------


class CurveView:
    """RuntimeCurve-compatible window onto one curve's array cells.

    Created on demand by the :class:`repro.core.hfsc.HFSCClass` curve
    properties; mutations write straight through to the flat arrays.
    Implements the full RuntimeCurve API (the persist codecs call
    ``to_doc``, the drift guard calls ``rebase``/``shift_x``, analysis
    reads the parameters).
    """

    __slots__ = ("_s", "_k", "_i")

    def __init__(self, state: FlatState, kind: str, slot: int):
        self._s = state
        self._k = kind
        self._i = slot

    def _arr(self, field: str):
        return getattr(self._s, f"{self._k}_{field}")

    # Parameter access, read/write.
    @property
    def x0(self) -> float:
        return self._arr("x0")[self._i]

    @x0.setter
    def x0(self, v: float) -> None:
        self._arr("x0")[self._i] = v

    @property
    def y0(self) -> float:
        return self._arr("y0")[self._i]

    @property
    def m1(self) -> float:
        return self._arr("m1")[self._i]

    @property
    def dx(self) -> float:
        return self._arr("dx")[self._i]

    @property
    def m2(self) -> float:
        return self._arr("m2")[self._i]

    @property
    def knee(self) -> Tuple[float, float]:
        return (self.x0 + self.dx, self.y0 + self.m1 * self.dx)

    def value(self, x: float) -> float:
        s = self._s
        k = self._k
        return curve_value(getattr(s, f"{k}_x0"), getattr(s, f"{k}_y0"),
                           getattr(s, f"{k}_m1"), getattr(s, f"{k}_dx"),
                           getattr(s, f"{k}_m2"), self._i, x)

    def inverse(self, y: float) -> float:
        s = self._s
        k = self._k
        return curve_inverse(getattr(s, f"{k}_x0"), getattr(s, f"{k}_y0"),
                             getattr(s, f"{k}_m1"), getattr(s, f"{k}_dx"),
                             getattr(s, f"{k}_m2"), getattr(s, f"{k}_kx"),
                             getattr(s, f"{k}_ky"), self._i, y)

    def min_with(self, spec, x: float, y: float) -> None:
        s = self._s
        k = self._k
        curve_min_with(getattr(s, f"{k}_x0"), getattr(s, f"{k}_y0"),
                       getattr(s, f"{k}_m1"), getattr(s, f"{k}_dx"),
                       getattr(s, f"{k}_m2"), getattr(s, f"{k}_ky"),
                       self._i, spec.m1, spec.d, spec.m2, x, y)

    def rebase(self, x: float) -> None:
        i = self._i
        x0a = self._arr("x0")
        step = x - x0a[i]
        if step <= 0.0:
            return
        y0a = self._arr("y0")
        m1a = self._arr("m1")
        dxa = self._arr("dx")
        m2a = self._arr("m2")
        if step < dxa[i]:
            y0a[i] += m1a[i] * step
            dxa[i] -= step
        else:
            y0a[i] += m1a[i] * dxa[i] + m2a[i] * (step - dxa[i])
            m1a[i] = m2a[i]
            dxa[i] = 0.0
        x0a[i] = x
        self._arr("ky")[i] = NAN

    def shift_x(self, delta: float) -> None:
        self._arr("x0")[self._i] += delta
        self._arr("ky")[self._i] = NAN

    def to_doc(self) -> Tuple[float, float, float, float, float]:
        return (self.x0, self.y0, self.m1, self.dx, self.m2)

    def copy(self):
        from repro.core.runtime_curves import RuntimeCurve
        return RuntimeCurve(self.x0, self.y0, self.m1, self.dx, self.m2)

    def __repr__(self) -> str:
        return (
            f"RuntimeCurve(x0={self.x0:g}, y0={self.y0:g}, m1={self.m1:g}, "
            f"dx={self.dx:g}, m2={self.m2:g})"
        )


class HeapView:
    """IndexedHeap-compatible window onto one parent's flat sibling heap.

    ``side_min=True`` is the virtual-time min-heap, ``False`` the negated
    max-heap.  Items are the child façade objects (``state.obj``), so
    existing callers -- snapshot order lists, ``virtual_times()``,
    invariant checks, tests -- see exactly the seed API.
    """

    __slots__ = ("_s", "_p", "_min")

    def __init__(self, state: FlatState, parent_slot: int, side_min: bool):
        self._s = state
        self._p = parent_slot
        self._min = side_min

    def _tri(self):
        s = self._s
        p = self._p
        if self._min:
            return s.hmin_key[p], s.hmin_seq[p], s.hmin_slot[p], s.hmin_pos
        return s.hmax_key[p], s.hmax_seq[p], s.hmax_slot[p], s.hmax_pos

    def __len__(self) -> int:
        return len(self._tri()[0])

    def __bool__(self) -> bool:
        return bool(self._tri()[0])

    def __contains__(self, item: Any) -> bool:
        state = self._s
        slot = item.slot
        if item.state is not state or state.parent[slot] != self._p:
            return False
        pos = state.hmin_pos if self._min else state.hmax_pos
        return pos[slot] != -1

    def __iter__(self) -> Iterator[Any]:
        obj = self._s.obj
        return (obj[slot] for slot in self._tri()[2])

    def key_of(self, item: Any) -> float:
        keys, _seqs, _slots, pos = self._tri()
        if item not in self:
            raise KeyError(item)
        return keys[pos[item.slot]]

    def peek_key(self) -> float:
        keys = self._tri()[0]
        if not keys:
            raise IndexError("peek from empty heap")
        return keys[0]

    def peek_item(self) -> Any:
        _keys, _seqs, slots, _pos = self._tri()
        if not slots:
            raise IndexError("peek from empty heap")
        return self._s.obj[slots[0]]

    def min_is_tied(self) -> bool:
        keys = self._tri()[0]
        key = keys[0]
        if len(keys) > 1 and keys[1] == key:
            return True
        return len(keys) > 2 and keys[2] == key

    def push(self, item: Any, key: float) -> None:
        heap_push(self._s, self._min, self._p, item.slot, key)

    def update(self, item: Any, key: float) -> None:
        heap_update(self._s, self._min, self._p, item.slot, key)

    def remove(self, item: Any) -> float:
        return heap_remove(self._s, self._min, self._p, item.slot)

    def clear(self) -> None:
        keys, seqs, slots, pos = self._tri()
        for slot in slots:
            pos[slot] = -1
        keys.clear()
        seqs.clear()
        slots.clear()
        ctr = self._s.hmin_ctr if self._min else self._s.hmax_ctr
        ctr[self._p] = 0

    def iter_sorted(self) -> Iterator[Tuple[float, Any]]:
        keys, seqs, slots, _pos = self._tri()
        obj = self._s.obj
        return ((key, obj[slot]) for key, slot in
                heap_iter_sorted(keys, seqs, slots))

    def iter_insertion(self) -> Iterator[Any]:
        keys, seqs, slots, _pos = self._tri()
        obj = self._s.obj
        order = sorted(range(len(seqs)), key=seqs.__getitem__)
        return (obj[slots[i]] for i in order)


# -- compiled fast-path selection -------------------------------------------
#
# repro._fastpath (a hand-built C extension, see repro/_fastpath/) can
# replace the hot kernels wholesale.  Selection happens once at import;
# REPRO_NO_COMPILED=1 forces the pure-Python definitions above.  The C
# kernels operate on the same FlatState arrays through the buffer
# protocol and mirror the Python expressions exactly, so the choice is
# digest-invisible (CI runs the golden suite under both).

from repro import _fastpath  # noqa: E402

_fast = _fastpath.load()  # never raises; says so on stderr when it falls back
COMPILED = _fast is not None
if COMPILED:  # pragma: no cover - exercised via the compiled CI leg
    for _name in _fastpath.KERNELS:
        globals()[_name] = getattr(_fast, _name)


def kernel_info() -> Dict[str, Any]:
    """Which kernels are live and, when the pure ones, why."""
    return {"compiled": COMPILED, "reason": _fastpath.LOAD_ERROR}

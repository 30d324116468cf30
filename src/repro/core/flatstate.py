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
  byte counters, watermarks) live in plain Python lists, one per field;
* the four runtime curves (deadline ``dc``, eligible ``ec``, virtual
  ``vc``, upper-limit ``ul``) are seven parallel arrays each -- anchor,
  slopes, first-segment length and the memoized knee -- with a presence
  flag, so curve updates are plain float arithmetic on array cells;
* service-curve *specs* (the configured two-piece shapes) are mirrored
  into arrays so the activation kernels never touch spec objects;
* each parent's active-children virtual-time heaps (the seed's two
  ``IndexedHeap`` instances per interior class) are flat parallel lists
  ``key/seq/slot`` plus one global position array per side; a slot with
  no children points all six at the shared :data:`EMPTY_HEAP`.

The kernels in this module (:func:`serve_step`, :func:`activate_step`,
:func:`passivate_ls`, :func:`ls_descend`) re-implement the seed hot path
*operation for operation* over these arrays: every float expression and
every heap/tree mutation happens in the same order with the same
operands, so schedules are byte-identical -- the golden-digest suite
(``tests/test_golden_traces.py``) enforces that.

A compiled fast path (see :mod:`repro._fastpath`) provides the same
kernels as a C extension over the same buffers; import-time selection
happens in this module (``REPRO_NO_COMPILED=1`` forces pure Python).
These columns are the only store of the per-class numbers.  The
object façade in :mod:`repro.core.hfsc` keeps scalar properties over
single cells for measurement code; its cold paths (reconfiguration,
rebuild, restore, renormalization) use the same curve, heap and
eligible-set functions as the kernels, so there is one way in.

Change stamps.  Every writer of a slot's *row cells* -- the cells a
snapshot row is made of: ``index``, ``rt_adm``, the nine scalars and the
``on/x0/y0/m1/dx/m2`` cells of the four curves -- also stores the
current epoch, ``epoch[0]``, into ``stamp[slot]`` (:func:`touch`).  The
snapshot advances the epoch once per call, so a row encoded at epoch
``E`` is still exact while ``stamp[slot] <= E``.  The writer stores the
epoch *object* itself, so a stamp costs no allocation; the knee memos
(``*_kx`` / ``*_ky``) are not row cells and never stamp.
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

#: The six per-parent sibling-heap columns (one list per slot in each).
HEAP_LISTS = ("hmin_key", "hmin_seq", "hmin_slot",
              "hmax_key", "hmax_seq", "hmax_slot")

#: The one list every childless slot's six sibling-heap entries point at.
#: Only parents are ever pushed into (a slot gets six lists of its own
#: with its first child, :func:`own_heaps`), so it stays empty; read
#: paths see an empty heap.  ``HFSC.check_invariants`` asserts both.
EMPTY_HEAP: List[Any] = []


class FlatState:
    """Parallel arrays for every hot per-class quantity, keyed by slot id.

    Slots are allocated densely and recycled through a free list.  The
    object façade (:class:`repro.core.hfsc.HFSCClass`) holds ``(state,
    slot)``; its scalar properties read and write single cells, and
    everything else (curves, sibling heaps, the eligible set) goes through
    the functions of this module.  ``obj[slot]`` maps back to the façade
    object so flat kernels can return classes to the object-level shell.
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
        # change stamps: per-slot epoch of the last row-cell write, and
        # the current epoch (one cell, advanced by the snapshot)
        "stamp", "epoch",
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
        "__weakref__",
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
        self.stamp: List[int] = []
        self.epoch: List[int] = [0]
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
        self.stamp.extend(zeros_l)
        self.hmin_pos.extend(minus_l)
        self.hmin_ctr.extend(zeros_l)
        self.hmax_pos.extend(minus_l)
        self.hmax_ctr.extend(zeros_l)
        self.req_e.extend(zeros_d)
        self.req_d.extend(zeros_d)
        self.efut_pos.extend(minus_l)
        self.erdy_pos.extend(minus_l)
        no_heap = [EMPTY_HEAP] * count
        for name in HEAP_LISTS:
            getattr(self, name).extend(no_heap)
        self.obj.extend([None] * count)
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
        """Release a slot back to the pool (its cells are reset on reuse)."""
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
        self.stamp[slot] = self.epoch[0]
        share_heaps(self, slot)
        self.hmin_pos[slot] = -1
        self.hmin_ctr[slot] = 0
        self.hmax_pos[slot] = -1
        self.hmax_ctr[slot] = 0
        self.req_e[slot] = 0.0
        self.req_d[slot] = 0.0
        self.efut_pos[slot] = -1
        self.erdy_pos[slot] = -1


def own_heaps(state: FlatState, slot: int) -> None:
    """Give ``slot`` its own six sibling-heap lists (on its first child)."""
    if state.hmin_key[slot] is EMPTY_HEAP:
        for name in HEAP_LISTS:
            getattr(state, name)[slot] = []


def share_heaps(state: FlatState, slot: int) -> None:
    """Return a childless ``slot``'s (empty) heap lists to :data:`EMPTY_HEAP`."""
    for name in HEAP_LISTS:
        getattr(state, name)[slot] = EMPTY_HEAP


def touch(state: FlatState, slot: int) -> None:
    """Stamp ``slot``: its row cells were written in the current epoch.

    Cold paths call this beside their direct cell writes; the kernels
    inline it.
    """
    state.stamp[slot] = state.epoch[0]


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
    """RuntimeCurve.min_with over array cells; spec passed as floats.

    It sees columns, not the state, so its callers stamp ``slot``.
    """
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
    """RuntimeCurve.from_spec into the arrays (stamps ``slot``)."""
    getattr(state, f"{kind}_x0")[slot] = x
    getattr(state, f"{kind}_y0")[slot] = y
    getattr(state, f"{kind}_m1")[slot] = m1
    getattr(state, f"{kind}_dx")[slot] = d
    getattr(state, f"{kind}_m2")[slot] = m2
    getattr(state, f"{kind}_ky")[slot] = NAN
    getattr(state, f"{kind}_on")[slot] = 1
    state.stamp[slot] = state.epoch[0]


def curve_clear(state: FlatState, kind: str, slot: int) -> None:
    """Drop one kind's curve (its cells stay, unread; stamps ``slot``)."""
    getattr(state, f"{kind}_on")[slot] = 0
    state.stamp[slot] = state.epoch[0]


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


def _eheap_delete(keys, seqs, slots, pos, i: int) -> None:
    """Remove entry ``i`` (pos already cleared) with the swap-last rule.

    Shared by the sibling heaps and the eligible heaps.
    """
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


def heap_push2(state: FlatState, parent: int, slot: int, key: float) -> None:
    """Push ``slot`` onto both sibling heaps (min: key, max: -key).

    The min-side push, then the max-side push, each taking the next
    number of its own side's sequence counter; the sifts are inlined.
    The kernels call this once per activation level.  There is no
    already-present guard: the caller owns that invariant.
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
    for keys, seqs, slots, pos in (
        (state.hmin_key[parent], state.hmin_seq[parent],
         state.hmin_slot[parent], state.hmin_pos),
        (state.hmax_key[parent], state.hmax_seq[parent],
         state.hmax_slot[parent], state.hmax_pos),
    ):
        i = pos[slot]
        pos[slot] = -1
        _eheap_delete(keys, seqs, slots, pos, i)


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
# The real-time request set: the paper's calendar-queue variant (Section
# V: eligible times tracked separately, deadlines in a heap for the
# matured requests) on flat indexed heaps over FlatState slots.  Requests
# whose eligible time has not arrived sit in a *future* heap keyed
# ``(eligible, insertion seq)``; a query at ``now`` first matures
# everything due into a *ready* heap keyed ``(deadline, maturation seq)``
# and answers from its root, so exact deadline ties go to the request
# that matured first.  Simulation time only advances between queries, so
# matured requests never move back -- ``update`` re-inserts through the
# future heap.  There is no RNG and no pointer chasing: the per-serve
# re-key is one or two short list sifts.


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
    """Earliest eligible time of a request, or None when the set is empty.

    While any request has matured the answer is the smallest eligible
    time recorded among the matured ones (each at or before the last
    query's ``now``, so a caller looking for a wakeup sees "ready");
    otherwise it is the future heap's root.
    """
    if state.erdy_key:
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


def elig_contains(state: FlatState, slot: int) -> bool:
    """Does ``slot`` hold a request, in either stage?"""
    return state.efut_pos[slot] != -1 or state.erdy_pos[slot] != -1


def elig_check(state: FlatState) -> None:
    """Assert the eligible heaps are well formed.

    Heap order on ``(key, seq)``, position maps exact in both directions,
    every key equal to the recorded request it stands for (eligible time
    in the future heap, deadline in the ready heap), and no slot in both
    heaps.
    """
    for keys, seqs, slots, pos, recorded in (
        (state.efut_key, state.efut_seq, state.efut_slot, state.efut_pos,
         state.req_e),
        (state.erdy_key, state.erdy_seq, state.erdy_slot, state.erdy_pos,
         state.req_d),
    ):
        assert len(keys) == len(seqs) == len(slots), (
            "eligible heap columns differ in length"
        )
        for i in range(1, len(keys)):
            parent = (i - 1) >> 1
            assert (keys[parent], seqs[parent]) <= (keys[i], seqs[i]), (
                "eligible heap order violated"
            )
        for i, slot in enumerate(slots):
            assert pos[slot] == i, "eligible position map stale"
            assert keys[i] == recorded[slot], (
                "eligible heap key differs from the recorded request"
            )
        assert len(pos) - pos.count(-1) == len(slots), (
            "eligible position map names a slot the heap does not hold"
        )
    erdy_pos = state.erdy_pos
    for slot in state.efut_slot:
        assert erdy_pos[slot] == -1, "slot in both eligible heaps"


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
    stamp = state.stamp
    epoch = state.epoch[0]
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
        stamp[s] = epoch
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
            state.stamp[p] = state.epoch[0]
        state.ls_active[s] = 0
        if nactive[p] > 0 or parent[p] < 0:
            break
        s = p


def activate_step(state: FlatState, slot: int, now: float, rt_tracked: bool,
                  head_size: float, policy: int) -> None:
    """A leaf's passive->active transition: Fig. 5(a) update_ed, the
    eligible-set insert and Fig. 6 update_v, in one call.

    The upper-limit wait-heap push stays in the shell (that heap holds
    façade objects); it reads the freshly written ``fit_time`` cell.
    """
    state.stamp[slot] = state.epoch[0]
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
    if rt_tracked:
        elig_insert(state, slot, state.eligible[slot], state.deadline[slot])


def serve_step(state: FlatState, slot: int, size: float, realtime: bool,
               rt_tracked: bool, backlogged: bool, next_size: float,
               now: float) -> None:
    """The state mutation of one serve, after the packet left the queue.

    Covers: real-time counters, the Fig. 6 ancestor virtual-time walk
    with its heap re-keying (or the dying-path skip), the upper-limit fit
    update, the Fig. 5 eligible/deadline advance and request re-key
    (:func:`elig_requeue`) for a still-backlogged leaf, and otherwise the
    request drop and the link-sharing passivation walk.  The shell
    updates the ul-wait heap after this call (it holds façade objects).
    """
    # The walk stamps every level it writes, ``slot`` first; without a
    # link-sharing curve only ``slot`` is written.
    stamp = state.stamp
    epoch = state.epoch[0]
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
            stamp[s] = epoch
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
        stamp[slot] = epoch
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
            elig_requeue(state, slot, state.eligible[slot],
                         state.deadline[slot], now)
    else:
        if state.ls_on[slot]:
            passivate_ls(state, slot)
        if rt_tracked:
            elig_remove(state, slot)


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
    the future heap's maturation order; every caller -- per-packet and
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
#: The pure-Python kernels, reachable even when the compiled ones are live
#: (the equivalence tests drive both in one process).
PURE_KERNELS = {name: globals()[name] for name in _fastpath.KERNELS}
if COMPILED:  # pragma: no cover - exercised via the compiled CI leg
    for _name in _fastpath.KERNELS:
        globals()[_name] = getattr(_fast, _name)


def kernel_info() -> Dict[str, Any]:
    """Which kernels are live and, when the pure ones, why."""
    return {"compiled": COMPILED, "reason": _fastpath.LOAD_ERROR}

"""Supporting data structures for the schedulers and the simulator.

* :class:`~repro.util.heap.IndexedHeap` -- a binary heap with an item
  position index, supporting O(log n) arbitrary update and removal.
* :func:`~repro.util.rng.make_rng` -- named, seeded random streams.
* :mod:`~repro.util.rowmemo` -- identity-keyed row memos for the
  ``classes`` reply and the scheduler snapshot.

The paper's two request sets (Section V) live with the H-FSC state in
:mod:`repro.core.flatstate`: the real-time requests in a future heap
keyed by eligible time feeding a ready heap keyed by deadline (the
calendar-queue variant), the link-sharing requests in per-parent
virtual-time heaps.
"""

from repro.util.heap import IndexedHeap
from repro.util.rng import make_rng

__all__ = ["IndexedHeap", "make_rng"]

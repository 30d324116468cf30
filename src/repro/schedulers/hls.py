"""HLS: hierarchical round-robin link sharing (Luangsomboon & Liebeherr).

The modern counterpoint to H-FSC's timestamp machinery: *A Round-Robin
Packet Scheduler for Hierarchical Max-Min Fairness* (arXiv:2108.09864)
shows that hierarchical max-min fair link sharing does not need virtual
times or per-packet heaps at all -- a round-robin schedule at every node
of the class tree, with per-child byte credits proportional to the
children's link-share weights, achieves the hierarchical max-min
allocation with O(1) amortized work per packet (O(depth), and the tree
depth is a configuration constant).

Mechanism (the deficit/quantum core, as in the paper's Section IV):

* every interior node keeps a **ring** of its currently backlogged
  children and serves them round-robin;
* each child holds a byte **credit**; when a child reaches the front of
  the ring it is granted its **quantum** (proportional to its weight
  within the sibling set), then transmits head packets -- selected
  recursively by its own subtree ring -- until its credit is exhausted;
* a packet is charged against every node on its root-to-leaf path, so
  service at *every* level is proportioned by the local weights;
* a child whose subtree drains leaves the ring (its credit is forfeit),
  which is exactly the redistribution step of hierarchical max-min:
  absent children simply do not take turns, and their capacity flows to
  the remaining siblings in weight proportion.

We run the credits in *surplus* style (charge after transmitting, rotate
when the balance reaches zero): a child with a positive balance forwards
at least one packet per visit with no head-fits peeking, at the cost of
letting a credit go at most one packet negative -- the same
bounded-unfairness trade Shreedhar & Varghese's DRR makes, one packet
per node per round.  A child that overdrew on a packet larger than its
quantum sits out whole turns until repeated grants bring its balance
positive again, which keeps the debt bounded by one max packet even for
sub-MTU quanta; each sat-out turn issues a quantum of credit, so the
per-packet work stays O(depth) amortized.

What HLS gives up versus H-FSC (see docs/ALGORITHM.md): no service
curves, so no decoupling of delay from bandwidth -- a leaf's worst-case
delay is a round length (the sum of sibling quanta at every level), not
a curve the operator chooses.  What it gains: per-packet cost that does
not grow with the class count, no floats-accumulate-forever virtual
times, and trivially exact snapshots.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.core.errors import (
    ConfigurationError,
    ReconfigurationError,
    SnapshotError,
)
from repro.obs.core import TELEMETRY as _TELEM
from repro.schedulers.base import Scheduler
from repro.sim.packet import Packet

ROOT = "__root__"

#: Bytes of credit a node hands out per round, split over its children in
#: weight proportion.  One MTU-ish packet per 10% of weight keeps rounds
#: short (low delay) while still letting a majority child clear a few
#: packets per visit.
DEFAULT_QUANTUM = 12_000.0


class HLSClass:
    """A node of the HLS tree: a ring member at its parent, a ring owner
    for its children."""

    __slots__ = (
        "name",
        "parent",
        "children",
        "weight",
        "quantum",
        "credit",
        "queue",
        "backlog_count",
        "ring",
        "fresh",
        "bytes_served",
    )

    def __init__(self, name: Any, parent: Optional["HLSClass"], weight: float):
        self.name = name
        self.parent = parent
        self.children: List["HLSClass"] = []
        self.weight = weight
        self.quantum = 0.0  # derived from sibling weights; see _requantize
        self.credit = 0.0
        self.queue: Deque[Packet] = deque()
        self.backlog_count = 0  # packets queued anywhere in this subtree
        self.ring: Deque["HLSClass"] = deque()  # backlogged children, RR order
        self.fresh = True  # front of ``ring`` has not been granted this visit
        self.bytes_served = 0.0

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def is_root(self) -> bool:
        return self.parent is None

    @property
    def depth(self) -> int:
        node, depth = self, 0
        while node.parent is not None:
            node = node.parent
            depth += 1
        return depth

    def __repr__(self) -> str:
        return f"HLSClass({self.name!r})"


class HLSScheduler(Scheduler):
    """Hierarchical round-robin over the class tree.

    ``add_class(name, parent, rate)`` mirrors the rate-based backends
    (H-PFQ, CBQ): the ``rate`` is the class's link-share weight -- only
    the *ratios* between siblings matter, so passing guaranteed rates
    (what :func:`repro.serve.hierarchy.build_scheduler` does) yields the
    same shares the curve-based backends aim for.

    ``quantum`` is the per-round byte budget each node splits over its
    children; smaller quanta mean shorter rounds (tighter delay, more
    rotations), larger quanta mean fewer ring operations per byte.
    """

    def __init__(self, link_rate: float, quantum: float = DEFAULT_QUANTUM):
        super().__init__(link_rate)
        if quantum <= 0:
            raise ConfigurationError("quantum must be positive")
        self.quantum = float(quantum)
        self.root = HLSClass(ROOT, None, link_rate)
        self._classes: Dict[Any, HLSClass] = {ROOT: self.root}
        self._max_packet = 0.0  # largest size accepted; bounds credit debt

    # -- hierarchy construction / live reconfiguration -----------------------

    def add_class(self, name: Any, parent: Any = ROOT, rate: float = 0.0) -> HLSClass:
        if name in self._classes:
            raise ConfigurationError(f"duplicate class name: {name!r}")
        if not 0 < rate < math.inf:
            raise ConfigurationError(
                f"class {name!r} needs a positive, finite rate")
        try:
            parent_cls = self._classes[parent]
        except KeyError:
            raise ConfigurationError(f"unknown parent class: {parent!r}") from None
        if parent_cls.queue:
            raise ConfigurationError(
                f"cannot add child to {parent!r}: it has queued packets"
            )
        cls = HLSClass(name, parent_cls, float(rate))
        parent_cls.children.append(cls)
        self._classes[name] = cls
        self._requantize(parent_cls)
        return cls

    def update_class(self, name: Any, now: float = 0.0,
                     rate: Optional[float] = None) -> HLSClass:
        """Change a live class's weight; takes effect from the next grant.

        Credits already granted are kept (capped at the new quantum), so
        the new weight shows up within a round and the operation stays
        O(children) with no service discontinuity.
        """
        cls = self._lookup(name)
        if cls.is_root:
            raise ReconfigurationError("cannot update the root class")
        if rate is not None:
            if not 0 < rate < math.inf:
                raise ReconfigurationError(
                    f"class {name!r} needs a positive, finite rate"
                )
            cls.weight = float(rate)
            self._requantize(cls.parent)
        if _TELEM.enabled:
            _TELEM.on_reconfig(now, "update_class", name)
        return cls

    def set_link_rate(self, rate: float) -> None:
        """Change the nominal output capacity.

        HLS distributes whatever the link offers by weight ratios, so no
        per-class state depends on the absolute rate; this only updates
        the bookkeeping the serving layer reads.
        """
        if not 0 < rate < math.inf:
            raise ReconfigurationError("link rate must be positive and finite")
        self.link_rate = float(rate)
        self.root.weight = float(rate)

    def remove_class(self, name: Any, force: bool = False) -> List[Packet]:
        """Remove a class; returns drained packets (``force`` only).

        Without ``force`` the class must be a childless leaf with an
        empty queue.  With ``force`` the whole subtree is removed even
        while backlogged: queued packets are handed back to the caller
        (counted in ``total_returned``), and every ancestor's backlog and
        ring membership is fixed up.
        """
        cls = self._lookup(name)
        if cls.is_root:
            raise ReconfigurationError("cannot remove the root class")
        if not force:
            if cls.children:
                raise ReconfigurationError(
                    f"class {name!r} has children; remove them first "
                    "or pass force=True"
                )
            if cls.queue:
                raise ReconfigurationError(
                    f"class {name!r} has queued packets; drain it first "
                    "or pass force=True"
                )
        # Collect the subtree (parents first) and its queued packets.
        subtree: List[HLSClass] = []
        stack = [cls]
        while stack:
            node = stack.pop()
            subtree.append(node)
            stack.extend(node.children)
        drained: List[Packet] = []
        for node in subtree:
            while node.queue:
                packet = node.queue.popleft()
                self._note_return(packet)
                drained.append(packet)
        removed_backlog = cls.backlog_count
        removed_work = cls.bytes_served
        # Detach from the parent: ring membership, then the tree itself.
        parent = cls.parent
        if parent.ring and cls in parent.ring:
            if parent.ring[0] is cls:
                parent.ring.popleft()
                parent.fresh = True
            else:
                parent.ring.remove(cls)
        parent.children.remove(cls)
        for node in subtree:
            del self._classes[node.name]
            node.parent = None
        self._requantize(parent)
        # Ancestors lose the removed backlog and the removed subtree's
        # served-bytes history (work_of stays the sum over the *current*
        # children); a drained ancestor leaves its own parent's ring
        # (front-removal refreshes the grant).
        node = parent
        while node is not None:
            node.backlog_count -= removed_backlog
            node.bytes_served -= removed_work
            if (
                node.backlog_count == 0
                and not node.is_root
                and node.parent.ring
                and node in node.parent.ring
            ):
                node.credit = 0.0
                if node.parent.ring[0] is node:
                    node.parent.ring.popleft()
                    node.parent.fresh = True
                else:
                    node.parent.ring.remove(node)
            node = node.parent
        if _TELEM.enabled:
            _TELEM.on_reconfig(None, "remove_class", name,
                               {"drained": len(drained)})
        return drained

    def __getitem__(self, name: Any) -> HLSClass:
        return self._classes[name]

    def _lookup(self, name: Any) -> HLSClass:
        try:
            return self._classes[name]
        except KeyError:
            raise ReconfigurationError(f"unknown class: {name!r}") from None

    def _requantize(self, node: HLSClass) -> None:
        """Re-derive the children's quanta from their weights.

        Each node splits :attr:`quantum` bytes per round over its
        children in weight proportion, so rounds are the same byte length
        at every level and shares are exactly the weight ratios.
        """
        total = sum(child.weight for child in node.children)
        if total <= 0:
            return
        scale = self.quantum / total
        for child in node.children:
            child.quantum = child.weight * scale
            if child.credit > child.quantum:
                # A reweight shrank the quantum below credit already
                # granted; cap it so one stale grant cannot outlast the
                # new share by more than a round.
                child.credit = child.quantum

    # -- scheduler interface --------------------------------------------------

    def enqueue(self, packet: Packet, now: float) -> None:
        try:
            leaf = self._classes[packet.class_id]
        except KeyError:
            raise ConfigurationError(
                f"packet for unknown class {packet.class_id!r}"
            ) from None
        if not leaf.is_leaf or leaf.is_root:
            raise ConfigurationError(
                f"packets may only be queued on leaf classes, not {leaf.name!r}"
            )
        self._note_enqueue(packet, now)
        if packet.size > self._max_packet:
            self._max_packet = packet.size
        leaf.queue.append(packet)
        node = leaf
        while node is not None:
            node.backlog_count += 1
            if node.backlog_count == 1 and not node.is_root:
                # Newly backlogged: join the parent's ring at the tail
                # with an empty balance (fresh grant on reaching front).
                node.credit = 0.0
                node.parent.ring.append(node)
                if len(node.parent.ring) == 1:
                    node.parent.fresh = True
            node = node.parent

    def dequeue(self, now: float) -> Optional[Packet]:
        if self.root.backlog_count == 0:
            return None
        # Descend the rings, granting each front child its quantum the
        # first time it is visited this turn.  A child still in debt
        # after its grant (it overdrew on a packet larger than its
        # quantum) sits the turn out; every rotation grants the next
        # sibling, so the walk terminates once any balance goes positive.
        path: List[HLSClass] = []
        node = self.root
        while not node.is_leaf:
            child = node.ring[0]
            if node.fresh:
                child.credit += child.quantum
                node.fresh = False
            if child.credit <= 0.0:
                node.ring.rotate(-1)
                node.fresh = True
                continue
            path.append(node)
            node = child
        leaf = node
        packet = leaf.queue.popleft()
        self._note_dequeue(packet, now)
        size = packet.size
        leaf.backlog_count -= 1
        leaf.bytes_served += size
        # Charge the packet bottom-up; drained children leave their ring,
        # exhausted children yield the turn to the next sibling.
        for parent in reversed(path):
            parent.backlog_count -= 1
            parent.bytes_served += size
            child = parent.ring[0]
            child.credit -= size
            if child.backlog_count == 0:
                parent.ring.popleft()
                child.credit = 0.0
                parent.fresh = True
            elif child.credit <= 0.0:
                parent.ring.rotate(-1)
                parent.fresh = True
        return packet

    # -- measurement hooks ----------------------------------------------------

    def work_of(self, name: Any) -> float:
        """Total bytes transmitted from the subtree rooted at ``name``."""
        return self._classes[name].bytes_served

    # -- invariants (Watchdog / property tests) -------------------------------

    def check_invariants(self) -> None:
        """Verify internal consistency.

        Checks: ring membership equals the backlogged children at every
        node, backlog counts sum up the subtree queues, credits stay
        within ``(-max_packet, quantum]`` (the surplus-round-robin
        bound), byte accounting is hierarchical, and the scheduler-level
        counters match the tree.
        """
        total_packets = 0
        total_bytes = 0.0
        for node in self._classes.values():
            if node.queue and node.children:
                raise AssertionError(
                    f"interior class {node.name!r} holds queued packets"
                )
            derived = len(node.queue) + sum(
                child.backlog_count for child in node.children
            )
            if node.backlog_count != derived:
                raise AssertionError(
                    f"backlog_count of {node.name!r} is {node.backlog_count}, "
                    f"queues say {derived}"
                )
            ring_members = list(node.ring)
            if len(set(id(c) for c in ring_members)) != len(ring_members):
                raise AssertionError(f"duplicate ring entry under {node.name!r}")
            backlogged = {
                id(child) for child in node.children if child.backlog_count > 0
            }
            if {id(c) for c in ring_members} != backlogged:
                raise AssertionError(
                    f"ring of {node.name!r} disagrees with its backlogged "
                    "children"
                )
            for child in node.children:
                if child.parent is not node:
                    raise AssertionError(
                        f"broken parent link at {child.name!r}"
                    )
                if child.credit > child.quantum + 1e-9:
                    raise AssertionError(
                        f"credit of {child.name!r} exceeds its quantum: "
                        f"{child.credit} > {child.quantum}"
                    )
                if self._max_packet and child.credit <= -self._max_packet:
                    raise AssertionError(
                        f"credit of {child.name!r} below the debt bound: "
                        f"{child.credit} <= -{self._max_packet}"
                    )
                if child.backlog_count == 0 and child.credit != 0.0:
                    raise AssertionError(
                        f"idle class {child.name!r} holds credit "
                        f"{child.credit}"
                    )
            if node.children:
                child_work = sum(c.bytes_served for c in node.children)
                if abs(child_work - node.bytes_served) > 1e-6:
                    raise AssertionError(
                        f"bytes_served of {node.name!r} ({node.bytes_served}) "
                        f"!= sum of children ({child_work})"
                    )
            total_packets += len(node.queue)
            total_bytes += sum(p.size for p in node.queue)
        if total_packets != self._backlog_packets:
            raise AssertionError(
                f"scheduler counts {self._backlog_packets} backlogged "
                f"packets, queues hold {total_packets}"
            )
        if abs(total_bytes - self._backlog_bytes) > 1e-6:
            raise AssertionError(
                f"scheduler counts {self._backlog_bytes} backlogged bytes, "
                f"queues hold {total_bytes}"
            )
        if self.total_enqueued != (
            self.total_dequeued + self.total_returned + self._backlog_packets
        ):
            raise AssertionError("packet conservation violated")

    # -- snapshot/restore (repro.persist) -------------------------------------
    #
    # Stored: weights, credits, queues, per-node ring order and the
    # ``fresh`` grant flag -- genuine history that cannot be re-derived.
    # Re-derived and validated: quanta (from the weights), backlog counts
    # and ring membership (from the restored queues).

    def snapshot_state(self, add_packet: Callable[[Packet], int]) -> Dict[str, Any]:
        for name in self._classes:
            if name != ROOT and not isinstance(name, (str, int)):
                raise SnapshotError(
                    f"class name {name!r} is not JSON-safe",
                    reason="unsupported-name",
                )
        classes = []
        for cls in self._classes.values():
            if cls.is_root:
                continue
            classes.append({
                "name": cls.name,
                "parent": ROOT if cls.parent.is_root else cls.parent.name,
                "weight": cls.weight,
                "credit": cls.credit,
                "bytes_served": cls.bytes_served,
                "queue": [add_packet(p) for p in cls.queue],
            })
        rings = {}
        for cls in self._classes.values():
            if cls.children:
                key = ROOT if cls.is_root else cls.name
                rings[str(key)] = {
                    "ring": [child.name for child in cls.ring],
                    "fresh": cls.fresh,
                }
        return {
            "type": "HLS",
            "config": {
                "link_rate": self.link_rate,
                "quantum": self.quantum,
            },
            "counters": self._counters_doc(),
            "max_packet": self._max_packet,
            "root_bytes_served": self.root.bytes_served,
            "classes": classes,
            "rings": rings,
        }

    _CLASS_DOC_KEYS = frozenset(
        ("name", "parent", "weight", "credit", "bytes_served", "queue")
    )

    @classmethod
    def restore_state(
        cls, doc: Dict[str, Any], get_packet: Callable[[int], Packet]
    ) -> "HLSScheduler":
        def check_keys(mapping, keys, what):
            if not isinstance(mapping, dict) or set(mapping) != set(keys):
                raise SnapshotError(
                    f"{what}: malformed document",
                    reason="unknown-field",
                    context={
                        "fields": sorted(map(str, mapping))
                        if isinstance(mapping, dict) else repr(mapping)
                    },
                )

        check_keys(
            doc,
            ("type", "config", "counters", "max_packet", "root_bytes_served",
             "classes", "rings"),
            "HLS snapshot",
        )
        if doc["type"] != "HLS":
            raise SnapshotError(
                f"scheduler type mismatch: expected 'HLS', got {doc['type']!r}",
                reason="scheduler-type",
            )
        check_keys(doc["config"], ("link_rate", "quantum"), "HLS config")
        try:
            sched = cls(doc["config"]["link_rate"],
                        quantum=doc["config"]["quantum"])
        except (ConfigurationError, ValueError) as exc:
            raise SnapshotError(
                f"snapshot carries an invalid configuration: {exc}",
                reason="bad-config",
            ) from exc
        for cdoc in doc["classes"]:
            check_keys(cdoc, cls._CLASS_DOC_KEYS, f"class {cdoc.get('name')!r}")
            try:
                node = sched.add_class(
                    cdoc["name"], parent=cdoc["parent"], rate=cdoc["weight"]
                )
            except ConfigurationError as exc:
                raise SnapshotError(
                    f"snapshot hierarchy is not constructible: {exc}",
                    reason="bad-hierarchy",
                ) from exc
            node.credit = float(cdoc["credit"])
            node.bytes_served = float(cdoc["bytes_served"])
            node.queue.extend(get_packet(uid) for uid in cdoc["queue"])
            sched._backlog_packets += len(node.queue)
            sched._backlog_bytes += sum(p.size for p in node.queue)
        for node in sched._classes.values():
            if node.queue and node.children:
                raise SnapshotError(
                    f"interior class {node.name!r} holds queued packets",
                    reason="bad-hierarchy",
                )
        # Re-derive backlog counts bottom-up, then rebuild each ring in
        # stored rotation order and validate its membership.
        for node in reversed(list(sched._classes.values())):
            node.backlog_count = len(node.queue) + sum(
                child.backlog_count for child in node.children
            )
        ring_docs = dict(doc["rings"])
        for node in sched._classes.values():
            if not node.children:
                continue
            key = str(ROOT if node.is_root else node.name)
            rdoc = ring_docs.pop(key, None)
            if rdoc is None:
                raise SnapshotError(
                    f"snapshot carries no ring for node {key!r}",
                    reason="ring-mismatch",
                )
            check_keys(rdoc, ("ring", "fresh"), f"ring of {key!r}")
            stored = list(rdoc["ring"])
            backlogged = {
                child.name for child in node.children
                if child.backlog_count > 0
            }
            if set(stored) != backlogged or len(set(stored)) != len(stored):
                raise SnapshotError(
                    f"stored ring of {key!r} disagrees with the restored "
                    "queues",
                    reason="ring-mismatch",
                    context={
                        "stored": sorted(map(str, stored)),
                        "derived": sorted(map(str, backlogged)),
                    },
                )
            node.ring = deque(sched._classes[name] for name in stored)
            node.fresh = bool(rdoc["fresh"])
        if ring_docs:
            raise SnapshotError(
                f"snapshot carries rings for unknown nodes: "
                f"{sorted(ring_docs)}",
                reason="ring-mismatch",
            )
        for node in sched._classes.values():
            if node.backlog_count == 0 and node.credit != 0.0:
                raise SnapshotError(
                    f"idle class {node.name!r} carries credit",
                    reason="counter-mismatch",
                )
        sched._max_packet = float(doc["max_packet"])
        sched.root.bytes_served = float(doc["root_bytes_served"])
        sched._restore_counters(doc["counters"])
        return sched

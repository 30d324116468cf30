"""H-PFQ: hierarchical packet fair queueing (Bennett & Zhang, ref. [3]).

The paper's main comparator: a class hierarchy where **every node is a PFQ
server** treating its children as sessions.  We use WF2Q+ as the node
algorithm (the choice reference [3] recommends, and the one whose fairness
makes hierarchical composition accurate).

Contrast with H-FSC (Section IV-A of the paper):

* H-PFQ supports only **linear** service curves (rates), so delay is
  coupled to bandwidth;
* scheduling is purely hierarchical -- the selection recurses from the
  root, so a leaf's delay bound **grows with its depth**, whereas H-FSC's
  real-time criterion looks at leaves directly (experiment E7).

Implementation notes.  Each class is simultaneously a *session* at its
parent node (with WF2Q+ start/finish tags) and a *server node* for its own
children.  A session's packet length at an interior node is the length of
the packet its subtree would transmit next; tags are recomputed whenever
that head packet changes (after each service, and on arrivals that change
a subtree head), mirroring the deadline update of H-FSC's Fig. 5(b).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.core.errors import ConfigurationError, SnapshotError
from repro.schedulers.base import Scheduler
from repro.sim.packet import Packet
from repro.util.heap import IndexedHeap

ROOT = "__root__"


class HPFQClass:
    """A node of the H-PFQ tree (session at its parent, server for children)."""

    __slots__ = (
        "name",
        "parent",
        "children",
        "rate",
        "queue",
        "backlog_count",
        "start",
        "finish",
        "last_finish",
        "tagged_size",
        "backlogged",
        "vtime",
        "waiting",
        "eligible",
        "bytes_served",
    )

    def __init__(self, name: Any, parent: Optional["HPFQClass"], rate: float):
        self.name = name
        self.parent = parent
        self.children: List["HPFQClass"] = []
        self.rate = rate
        self.queue: Deque[Packet] = deque()
        self.backlog_count = 0  # packets queued anywhere in this subtree
        # Session state at the parent node.
        self.start = 0.0
        self.finish = 0.0
        self.last_finish = 0.0
        self.tagged_size = 0.0
        self.backlogged = False
        # Server state for the children.
        self.vtime = 0.0
        self.waiting: IndexedHeap["HPFQClass"] = IndexedHeap()
        self.eligible: IndexedHeap["HPFQClass"] = IndexedHeap()
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
        return f"HPFQClass({self.name!r})"


class HPFQScheduler(Scheduler):
    """Hierarchy of PFQ servers.

    ``node_policy`` selects the per-node packet fair queueing algorithm:

    * ``"wf2q"`` (default) -- WF2Q+: SEFF, smallest finish tag among
      children whose start tag has been reached (the accurate choice the
      H-PFQ paper [3] recommends, H-WF2Q+);
    * ``"sfq"`` -- start-time fair queueing: smallest start tag,
      no eligibility gate (cheaper, looser delay; H-SFQ).
    """

    def __init__(self, link_rate: float, node_policy: str = "wf2q"):
        super().__init__(link_rate)
        if node_policy not in ("wf2q", "sfq"):
            raise ConfigurationError(f"unknown node_policy: {node_policy!r}")
        self.node_policy = node_policy
        self.root = HPFQClass(ROOT, None, link_rate)
        self._classes: Dict[Any, HPFQClass] = {ROOT: self.root}

    # -- hierarchy construction ---------------------------------------------

    def add_class(self, name: Any, parent: Any = ROOT, rate: float = 0.0) -> HPFQClass:
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
        cls = HPFQClass(name, parent_cls, rate)
        parent_cls.children.append(cls)
        self._classes[name] = cls
        return cls

    def __getitem__(self, name: Any) -> HPFQClass:
        return self._classes[name]

    # -- scheduler interface ---------------------------------------------------

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
        leaf.queue.append(packet)
        node: Optional[HPFQClass] = leaf
        while node is not None:
            node.backlog_count += 1
            node = node.parent
        self._propagate_backlog(leaf)

    def dequeue(self, now: float) -> Optional[Packet]:
        if self.root.backlog_count == 0:
            return None
        # Top-down selection: at every node, SEFF among the children.
        path: List[Tuple[HPFQClass, HPFQClass]] = []
        node = self.root
        while not node.is_leaf:
            child = self._select(node)
            path.append((node, child))
            node = child
        leaf = node
        packet = leaf.queue.popleft()
        self._note_dequeue(packet, now)
        walker: Optional[HPFQClass] = leaf
        while walker is not None:
            walker.backlog_count -= 1
            walker.bytes_served += packet.size
            walker = walker.parent
        # Bottom-up tag updates so that each parent retags with the child's
        # *new* next-packet length.
        for parent, child in reversed(path):
            self._remove_session(parent, child)
            child.last_finish = child.finish
            parent.vtime += packet.size / parent.rate
            if child.backlog_count > 0:
                self._tag_session(parent, child, chained=True)
            else:
                child.backlogged = False
        return packet

    # -- measurement hooks -------------------------------------------------------

    def work_of(self, name: Any) -> float:
        """Total bytes transmitted from the subtree rooted at ``name``."""
        return self._classes[name].bytes_served

    # -- snapshot/restore (repro.persist) -----------------------------------
    #
    # Stored: per-class WF2Q+ tags, node virtual times, queues and which
    # heap each backlogged child sits in (the lazy ``_promote`` split of
    # waiting vs eligible is genuine history -- it cannot be re-derived
    # from the tags alone).  Re-derived and validated: ``backlog_count``
    # and the backlogged flags, from the restored queues.

    def _node_doc(self, cls: HPFQClass) -> Dict[str, Any]:
        return {
            "vtime": cls.vtime,
            "bytes_served": cls.bytes_served,
            "backlog_count": cls.backlog_count,
            # Insertion order (see IndexedHeap.iter_insertion): re-pushing
            # in this order preserves how future exact-key ties will break.
            "waiting_order": [
                child.name for child in cls.waiting.iter_insertion()
            ],
            "eligible_order": [
                child.name for child in cls.eligible.iter_insertion()
            ],
        }

    def snapshot_state(self, add_packet: Callable[[Packet], int]) -> Dict[str, Any]:
        classes = []
        for cls in self._classes.values():
            if cls.is_root:
                continue
            in_waiting = cls in cls.parent.waiting
            in_eligible = cls in cls.parent.eligible
            classes.append({
                "name": cls.name,
                "parent": cls.parent.name,
                "rate": cls.rate,
                "queue": [add_packet(p) for p in cls.queue],
                "start": cls.start,
                "finish": cls.finish,
                "last_finish": cls.last_finish,
                "tagged_size": cls.tagged_size,
                "backlogged": cls.backlogged,
                "heap": (
                    "waiting" if in_waiting
                    else "eligible" if in_eligible
                    else None
                ),
                "node": self._node_doc(cls),
            })
        return {
            "type": "HPFQ",
            "config": {
                "link_rate": self.link_rate,
                "node_policy": self.node_policy,
            },
            "counters": self._counters_doc(),
            "root": self._node_doc(self.root),
            "classes": classes,
        }

    _CLASS_DOC_KEYS = frozenset((
        "name", "parent", "rate", "queue", "start", "finish", "last_finish",
        "tagged_size", "backlogged", "heap", "node",
    ))
    _NODE_DOC_KEYS = frozenset((
        "vtime", "bytes_served", "backlog_count", "waiting_order",
        "eligible_order",
    ))

    @classmethod
    def restore_state(
        cls, doc: Dict[str, Any], get_packet: Callable[[int], Packet]
    ) -> "HPFQScheduler":
        def check_keys(mapping, keys, what):
            if not isinstance(mapping, dict) or set(mapping) != set(keys):
                raise SnapshotError(
                    f"{what}: malformed document (fields "
                    f"{sorted(map(str, mapping)) if isinstance(mapping, dict) else mapping!r})",
                    reason="unknown-field",
                )

        check_keys(doc, ("type", "config", "counters", "root", "classes"),
                   "HPFQ snapshot")
        if doc["type"] != "HPFQ":
            raise SnapshotError(
                f"scheduler type mismatch: expected 'HPFQ', got {doc['type']!r}",
                reason="scheduler-type",
            )
        config = doc["config"]
        check_keys(config, ("link_rate", "node_policy"), "HPFQ config")
        try:
            sched = cls(config["link_rate"], node_policy=config["node_policy"])
        except (ConfigurationError, ValueError) as exc:
            raise SnapshotError(
                f"snapshot carries an invalid configuration: {exc}",
                reason="bad-config",
            ) from exc
        node_docs: Dict[Any, Dict[str, Any]] = {}
        for cdoc in doc["classes"]:
            check_keys(cdoc, cls._CLASS_DOC_KEYS, f"class {cdoc.get('name')!r}")
            check_keys(cdoc["node"], cls._NODE_DOC_KEYS,
                       f"class {cdoc.get('name')!r} node")
            try:
                node = sched.add_class(cdoc["name"], parent=cdoc["parent"],
                                       rate=cdoc["rate"])
            except ConfigurationError as exc:
                raise SnapshotError(
                    f"snapshot hierarchy is not constructible: {exc}",
                    reason="bad-hierarchy",
                ) from exc
            node.queue.extend(get_packet(uid) for uid in cdoc["queue"])
            node.start = cdoc["start"]
            node.finish = cdoc["finish"]
            node.last_finish = cdoc["last_finish"]
            node.tagged_size = cdoc["tagged_size"]
            node.vtime = cdoc["node"]["vtime"]
            node.bytes_served = cdoc["node"]["bytes_served"]
            node_docs[node.name] = cdoc
        check_keys(doc["root"], cls._NODE_DOC_KEYS, "HPFQ root")
        sched.root.vtime = doc["root"]["vtime"]
        sched.root.bytes_served = doc["root"]["bytes_served"]
        # Re-derive backlog counts / flags from the queues; validate the
        # stored values and rebuild each node's heaps in stored order.
        derived: Dict[Any, int] = {}
        for node in reversed(list(sched._classes.values())):
            count = len(node.queue) + sum(
                derived[child.name] for child in node.children
            )
            derived[node.name] = count
            stored = (doc["root"]["backlog_count"] if node.is_root
                      else node_docs[node.name]["node"]["backlog_count"])
            if stored != count:
                raise SnapshotError(
                    f"stored backlog_count of {node.name!r} disagrees with "
                    "the restored queues",
                    reason="backlog-mismatch",
                    context={"class": str(node.name), "stored": stored,
                             "derived": count},
                )
            node.backlog_count = count
            if not node.is_root:
                cdoc = node_docs[node.name]
                backlogged = count > 0
                if cdoc["backlogged"] != backlogged or (
                    (cdoc["heap"] is not None) != backlogged
                ):
                    raise SnapshotError(
                        f"stored backlog flags of {node.name!r} disagree with "
                        "the restored queues",
                        reason="backlog-mismatch",
                        context={"class": str(node.name)},
                    )
                node.backlogged = backlogged
        for node in sched._classes.values():
            ndoc = (doc["root"] if node.is_root else node_docs[node.name]["node"])
            members = set(ndoc["waiting_order"]) | set(ndoc["eligible_order"])
            expected = {c.name for c in node.children if c.backlogged}
            if members != expected or (
                len(ndoc["waiting_order"]) + len(ndoc["eligible_order"])
                != len(expected)
            ):
                raise SnapshotError(
                    f"stored heap orders of {node.name!r} disagree with the "
                    "re-derived backlogged children",
                    reason="heap-mismatch",
                    context={"class": str(node.name)},
                )
            for name in ndoc["waiting_order"]:
                child = sched._classes[name]
                if node_docs[name]["heap"] != "waiting":
                    raise SnapshotError(
                        f"class {name!r} heap tag disagrees with its parent's "
                        "waiting order",
                        reason="heap-mismatch",
                    )
                node.waiting.push(child, child.start)
            for name in ndoc["eligible_order"]:
                child = sched._classes[name]
                if node_docs[name]["heap"] != "eligible":
                    raise SnapshotError(
                        f"class {name!r} heap tag disagrees with its parent's "
                        "eligible order",
                        reason="heap-mismatch",
                    )
                node.eligible.push(child, child.finish)
        sched._backlog_packets = sched.root.backlog_count
        sched._backlog_bytes = sum(
            p.size
            for node in sched._classes.values()
            for p in node.queue
        )
        sched._restore_counters(doc["counters"])
        return sched

    # -- internals ----------------------------------------------------------------

    def _next_size(self, cls: HPFQClass) -> float:
        """Length of the packet this subtree would transmit next."""
        node = cls
        while not node.is_leaf:
            node = self._select(node)
        return node.queue[0].size

    def _select(self, node: HPFQClass) -> HPFQClass:
        """Child choice among the node's backlogged children.

        WF2Q+ nodes: SEFF with the virtual time floor.  SFQ nodes: the
        smallest start tag wins outright (children are kept in ``waiting``
        keyed by start; the ``eligible`` heap is unused).
        """
        if self.node_policy == "sfq":
            child = node.waiting.peek_item()
            node.vtime = child.start
            return child
        self._promote(node)
        if not node.eligible:
            # Virtual time floor: V = max(V, min start among backlogged).
            node.vtime = node.waiting.peek_key()
            self._promote(node)
        return node.eligible.peek_item()

    def _promote(self, node: HPFQClass) -> None:
        while node.waiting:
            child, start = node.waiting.peek()
            if start > node.vtime:
                break
            node.waiting.pop()
            node.eligible.push(child, child.finish)

    def _tag_session(self, parent: HPFQClass, child: HPFQClass, chained: bool) -> None:
        size = self._next_size(child)
        if chained:
            child.start = child.last_finish
        else:
            child.start = max(parent.vtime, child.last_finish)
        child.finish = child.start + size / child.rate
        child.tagged_size = size
        child.backlogged = True
        if self.node_policy == "sfq":
            parent.waiting.push(child, child.start)
        elif child.start <= parent.vtime:
            parent.eligible.push(child, child.finish)
        else:
            parent.waiting.push(child, child.start)

    def _remove_session(self, parent: HPFQClass, child: HPFQClass) -> None:
        if child in parent.eligible:
            parent.eligible.remove(child)
        else:
            parent.waiting.remove(child)

    def _propagate_backlog(self, leaf: HPFQClass) -> None:
        """After an arrival: activate newly backlogged ancestors, refresh tags.

        Walking from the leaf towards the root: a child that was idle gets
        fresh tags at its parent; a child that was already backlogged may
        have a new subtree head (the arrival pre-empted the old head in the
        child's own ordering), in which case only its finish tag is
        recomputed, as in H-FSC's Fig. 5(b) deadline update.
        """
        node = leaf
        while not node.is_root:
            parent = node.parent
            assert parent is not None
            if not node.backlogged:
                self._tag_session(parent, node, chained=False)
                node = parent
                continue
            size = self._next_size(node)
            if size != node.tagged_size:
                node.finish = node.start + size / node.rate
                node.tagged_size = size
                if node in parent.eligible:
                    parent.eligible.update(node, node.finish)
                # SFQ nodes key on the (unchanged) start tag: nothing to do.
            # The parent was already backlogged (it had this active child);
            # ancestors can still see a head change, so continue walking.
            node = parent

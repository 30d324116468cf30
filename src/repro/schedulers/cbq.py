"""Class-Based Queueing (Floyd & Jacobson, 1995) -- simplified.

CBQ is the link-sharing scheme the paper's related work (Section VIII) and
the H-PFQ paper position themselves against: hierarchical sharing driven
not by virtual times but by a per-class **estimator** that measures whether
a class is over- or under- its allocated rate, plus priority levels and a
weighted round-robin among sendable classes.

This implementation follows the ns-2 "top-level" variant at reduced
fidelity, which is sufficient for the link-sharing comparison (E4):

* each class has a rate, a priority level, and a borrow flag;
* the estimator tracks ``avgidle``, an EWMA of the difference between the
  actual inter-departure gap and the gap a dedicated ``rate`` link would
  produce; ``avgidle >= 0`` means the class is *underlimit*;
* a leaf may send when it is underlimit, or when it may borrow and some
  ancestor is underlimit;
* among sendable leaves, the highest priority level wins, weighted
  round-robin within a level;
* when no backlogged leaf is regulated-sendable, the scheduler stays
  work-conserving and sends from the highest-priority backlogged leaf
  (ns-2's behaviour when the root can lend).

The known weaknesses the paper attributes to CBQ-style estimators --
sluggish convergence to the configured shares and coupled delay/bandwidth
-- are visible in the E4/E5 results, which is precisely their role here.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.core.errors import ConfigurationError, SnapshotError
from repro.schedulers.base import Scheduler
from repro.sim.packet import Packet

ROOT = "__root__"


class CBQClass:
    __slots__ = (
        "name",
        "parent",
        "children",
        "rate",
        "priority",
        "borrow",
        "queue",
        "avgidle",
        "maxidle",
        "last_departure",
        "bytes_served",
        "quantum",
        "deficit",
    )

    def __init__(
        self,
        name: Any,
        parent: Optional["CBQClass"],
        rate: float,
        priority: int,
        borrow: bool,
        maxidle: float,
    ):
        self.name = name
        self.parent = parent
        self.children: List["CBQClass"] = []
        self.rate = rate
        self.priority = priority
        self.borrow = borrow
        self.queue: Deque[Packet] = deque()
        self.avgidle = maxidle
        self.maxidle = maxidle
        self.last_departure: Optional[float] = None
        self.bytes_served = 0.0
        # Weighted round robin within a priority level: quantum in bytes
        # proportional to the configured rate (set by the scheduler).
        self.quantum = 1.0
        self.deficit = 0.0

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def underlimit(self) -> bool:
        return self.avgidle >= 0.0

    def __repr__(self) -> str:
        return f"CBQClass({self.name!r})"


class CBQScheduler(Scheduler):
    """Simplified class-based queueing with ancestor borrowing.

    ``ewma_gain`` is the estimator's smoothing weight (ns-2 uses
    ``1/2**RM_FILTER_GAIN = 1/32``; we default to 1/16 for faster
    convergence at simulation time scales).  ``maxidle_seconds`` caps the
    credit a long-idle class can accumulate.
    """

    def __init__(
        self,
        link_rate: float,
        ewma_gain: float = 1.0 / 16.0,
        maxidle_seconds: float = 0.05,
        round_seconds: float = 0.02,
    ):
        super().__init__(link_rate)
        if not 0 < ewma_gain <= 1:
            raise ConfigurationError("ewma_gain must be in (0, 1]")
        if round_seconds <= 0:
            raise ConfigurationError("round_seconds must be positive")
        self._gain = ewma_gain
        self._maxidle = maxidle_seconds
        # Each WRR round hands every leaf `rate * round_seconds` bytes.
        self._round_seconds = round_seconds
        # One quantum grant per visit to the front of each priority ring.
        self._grant_pending: Dict[int, bool] = {}
        self.root = CBQClass(ROOT, None, link_rate, 0, False, maxidle_seconds)
        self._classes: Dict[Any, CBQClass] = {ROOT: self.root}
        # Round-robin lists of backlogged leaves, one per priority level.
        self._rounds: Dict[int, Deque[CBQClass]] = {}

    def add_class(
        self,
        name: Any,
        parent: Any = ROOT,
        rate: float = 0.0,
        priority: int = 1,
        borrow: bool = True,
    ) -> CBQClass:
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
        cls = CBQClass(name, parent_cls, rate, priority, borrow, self._maxidle)
        cls.quantum = max(1.0, rate * self._round_seconds)
        parent_cls.children.append(cls)
        self._classes[name] = cls
        return cls

    def __getitem__(self, name: Any) -> CBQClass:
        return self._classes[name]

    def work_of(self, name: Any) -> float:
        return self._classes[name].bytes_served

    # -- snapshot/restore (repro.persist) ----------------------------------------

    _CLASS_DOC_KEYS = frozenset(
        {
            "name",
            "parent",
            "rate",
            "priority",
            "borrow",
            "queue",
            "avgidle",
            "last_departure",
            "bytes_served",
            "deficit",
        }
    )

    @staticmethod
    def _estimator_doc(cls: "CBQClass") -> Dict[str, Any]:
        return {
            "avgidle": cls.avgidle,
            "last_departure": cls.last_departure,
            "bytes_served": cls.bytes_served,
        }

    def snapshot_state(self, add_packet: Callable[[Packet], int]) -> Dict[str, Any]:
        """Serialize the full CBQ runtime state.

        ``quantum`` and ``maxidle`` are pure functions of the config and
        are re-derived on restore; the estimator (``avgidle``,
        ``last_departure``), the DRR deficits, and the WRR ring
        rotations/grant flags are genuine history and are stored.
        """
        classes = []
        for cls in self._classes.values():
            if cls is self.root:
                continue
            if not isinstance(cls.name, (str, int)):
                raise SnapshotError(
                    f"class name {cls.name!r} is not JSON-safe",
                    reason="unsupported-name",
                )
            classes.append(
                {
                    "name": cls.name,
                    "parent": cls.parent.name if cls.parent is not None else None,
                    "rate": cls.rate,
                    "priority": cls.priority,
                    "borrow": cls.borrow,
                    "queue": [add_packet(p) for p in cls.queue],
                    "deficit": cls.deficit,
                    **self._estimator_doc(cls),
                }
            )
        return {
            "type": "CBQ",
            "config": {
                "link_rate": self.link_rate,
                "ewma_gain": self._gain,
                "maxidle_seconds": self._maxidle,
                "round_seconds": self._round_seconds,
            },
            "counters": self._counters_doc(),
            "root": self._estimator_doc(self.root),
            "grant_pending": [
                [priority, bool(flag)]
                for priority, flag in self._grant_pending.items()
            ],
            "rounds": [
                [priority, [leaf.name for leaf in ring]]
                for priority, ring in self._rounds.items()
            ],
            "classes": classes,
        }

    @classmethod
    def restore_state(
        cls, doc: Dict[str, Any], get_packet: Callable[[int], Packet]
    ) -> "CBQScheduler":
        def check_keys(d: Dict[str, Any], expected: frozenset, what: str) -> None:
            if set(d) != expected:
                extra = sorted(map(str, set(d) - expected))
                missing = sorted(map(str, expected - set(d)))
                raise SnapshotError(
                    f"malformed {what} document",
                    reason="unknown-field" if extra else "missing-field",
                    context={"extra": extra, "missing": missing},
                )

        check_keys(
            doc,
            frozenset(
                {"type", "config", "counters", "root", "grant_pending", "rounds", "classes"}
            ),
            "CBQ snapshot",
        )
        if doc["type"] != "CBQ":
            raise SnapshotError(
                f"scheduler type mismatch: expected CBQ, got {doc['type']!r}",
                reason="scheduler-type",
            )
        cfg = doc["config"]
        check_keys(
            cfg,
            frozenset({"link_rate", "ewma_gain", "maxidle_seconds", "round_seconds"}),
            "CBQ config",
        )
        try:
            sched = cls(
                cfg["link_rate"],
                ewma_gain=cfg["ewma_gain"],
                maxidle_seconds=cfg["maxidle_seconds"],
                round_seconds=cfg["round_seconds"],
            )
        except ConfigurationError as exc:
            raise SnapshotError(str(exc), reason="bad-config") from exc
        root_doc = doc["root"]
        check_keys(
            root_doc,
            frozenset({"avgidle", "last_departure", "bytes_served"}),
            "CBQ root",
        )
        for cdoc in doc["classes"]:
            check_keys(cdoc, cls._CLASS_DOC_KEYS, f"CBQ class {cdoc.get('name')!r}")
            try:
                node = sched.add_class(
                    cdoc["name"],
                    parent=ROOT if cdoc["parent"] is None else cdoc["parent"],
                    rate=cdoc["rate"],
                    priority=cdoc["priority"],
                    borrow=cdoc["borrow"],
                )
            except ConfigurationError as exc:
                raise SnapshotError(str(exc), reason="bad-hierarchy") from exc
            node.queue.extend(get_packet(uid) for uid in cdoc["queue"])
            node.avgidle = cdoc["avgidle"]
            node.last_departure = cdoc["last_departure"]
            node.bytes_served = cdoc["bytes_served"]
            node.deficit = cdoc["deficit"]
            sched._backlog_packets += len(node.queue)
            sched._backlog_bytes += sum(p.size for p in node.queue)
        sched.root.avgidle = root_doc["avgidle"]
        sched.root.last_departure = root_doc["last_departure"]
        sched.root.bytes_served = root_doc["bytes_served"]
        # WRR rings: membership must equal the backlogged leaves at each
        # priority; the stored rotation order itself is history we adopt.
        backlogged: Dict[int, set] = {}
        for node in sched._classes.values():
            if node is not sched.root and node.queue:
                backlogged.setdefault(node.priority, set()).add(node.name)
        seen_priorities = set()
        for priority, names in doc["rounds"]:
            if priority in seen_priorities:
                raise SnapshotError(
                    f"duplicate WRR ring for priority {priority}",
                    reason="ring-mismatch",
                )
            seen_priorities.add(priority)
            members = []
            for name in names:
                node = sched._classes.get(name)
                if node is None or node is sched.root:
                    raise SnapshotError(
                        f"WRR ring references unknown class {name!r}",
                        reason="ring-mismatch",
                    )
                members.append(node)
            if {m.name for m in members} != backlogged.get(priority, set()) or len(
                set(names)
            ) != len(names):
                raise SnapshotError(
                    f"stored WRR ring for priority {priority} disagrees with "
                    "the backlogged leaves derived from the restored queues",
                    reason="ring-mismatch",
                    context={
                        "stored": sorted(map(str, names)),
                        "derived": sorted(
                            map(str, backlogged.get(priority, set()))
                        ),
                    },
                )
            sched._rounds[priority] = deque(members)
        missing = set(backlogged) - seen_priorities
        if missing:
            raise SnapshotError(
                "backlogged priority levels missing from the stored WRR rings",
                reason="ring-mismatch",
                context={"priorities": sorted(missing)},
            )
        for priority, flag in doc["grant_pending"]:
            sched._grant_pending[priority] = bool(flag)
        sched._restore_counters(doc["counters"])
        return sched

    # -- scheduler interface -----------------------------------------------------

    def enqueue(self, packet: Packet, now: float) -> None:
        try:
            leaf = self._classes[packet.class_id]
        except KeyError:
            raise ConfigurationError(
                f"packet for unknown class {packet.class_id!r}"
            ) from None
        if not leaf.is_leaf or leaf is self.root:
            raise ConfigurationError(
                f"packets may only be queued on leaf classes, not {leaf.name!r}"
            )
        self._note_enqueue(packet, now)
        leaf.queue.append(packet)
        if len(leaf.queue) == 1:
            leaf.deficit = 0.0
            ring = self._rounds.setdefault(leaf.priority, deque())
            ring.append(leaf)
            if len(ring) == 1:
                self._grant_pending[leaf.priority] = True

    def dequeue(self, now: float) -> Optional[Packet]:
        if self._backlog_packets == 0:
            return None
        leaf = self._pick(regulated=True)
        if leaf is None:
            # Work-conserving fallback: the link never idles while
            # backlogged; borrow from the link itself.
            leaf = self._pick(regulated=False)
        assert leaf is not None
        packet = leaf.queue.popleft()
        leaf.deficit -= packet.size
        self._note_dequeue(packet, now)
        if not leaf.queue:
            leaf.deficit = 0.0
            ring = self._rounds[leaf.priority]
            at_front = ring and ring[0] is leaf
            ring.remove(leaf)
            if at_front:
                self._grant_pending[leaf.priority] = True
        self._account_departure(leaf, packet.size, now)
        return packet

    # -- internals ------------------------------------------------------------------

    def _pick(self, regulated: bool) -> Optional[CBQClass]:
        """Weighted round robin among sendable leaves, priority first.

        DRR-style byte-weighted rotation: each visit to the front of a
        ring grants the leaf one quantum; the leaf sends while its deficit
        covers the head packet, then yields its turn.
        """
        for priority in sorted(self._rounds):
            ring = self._rounds[priority]
            if not ring:
                continue
            # Bound the scan: enough rotations for the largest head packet
            # to accumulate its deficit, across all ring members.
            max_head = max(leaf.queue[0].size for leaf in ring)
            min_quantum = min(leaf.quantum for leaf in ring)
            max_visits = (len(ring) + 1) * (int(max_head / min_quantum) + 2)
            for _ in range(max_visits):
                leaf = ring[0]
                if regulated and not self._may_send(leaf):
                    ring.rotate(-1)
                    self._grant_pending[priority] = True
                    continue
                if self._grant_pending.get(priority, True):
                    leaf.deficit += leaf.quantum
                    self._grant_pending[priority] = False
                if leaf.deficit >= leaf.queue[0].size:
                    return leaf
                ring.rotate(-1)
                self._grant_pending[priority] = True
        return None

    def _may_send(self, leaf: CBQClass) -> bool:
        if leaf.underlimit():
            return True
        if not leaf.borrow:
            return False
        node = leaf.parent
        while node is not None:
            if node.underlimit():
                return True
            if not node.borrow and node is not self.root:
                return False
            node = node.parent
        return False

    def _account_departure(self, leaf: CBQClass, size: float, now: float) -> None:
        node: Optional[CBQClass] = leaf
        while node is not None:
            if node.last_departure is not None:
                gap = now - node.last_departure
                idle = gap - size / node.rate
                node.avgidle += self._gain * (idle - node.avgidle)
                node.avgidle = min(node.avgidle, node.maxidle)
            node.last_departure = now
            node.bytes_served += size
            node = node.parent

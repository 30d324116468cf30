"""The assembled ``repro serve`` service.

One :class:`ServeService` owns the whole dataplane + control-plane stack:

* the scheduler backend (built from a hierarchy preset or JSON file),
* the simulated :class:`~repro.sim.link.Link` it feeds,
* a :class:`~repro.serve.driver.RealTimeDriver` pacing the event loop
  against the wall clock,
* a :class:`~repro.serve.ingress.Dataplane` fed by UDP and/or
  unix-datagram sockets,
* a :class:`~repro.serve.control.ControlServer` on a unix stream socket,
* a :class:`~repro.sim.faults.Watchdog` running ``check_invariants``
  periodically on the live hierarchy,
* a :class:`~repro.persist.runtime.RunContext` so SIGTERM (and the
  ``snapshot`` control op) writes a crash-safe PR-4 snapshot: classes
  added live, queued packets, virtual times and the clock all survive a
  restart via ``repro serve --resume``.

Everything runs on one asyncio thread: socket callbacks inject events
through :meth:`RealTimeDriver.call_soon` and control operations apply
between pacing chunks, so scheduler state never sees concurrent access.
"""

from __future__ import annotations

import asyncio
import errno
import gc
import os
import resource
import signal
import socket as socket_module
import sys
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.errors import ReproError
from repro.core.flatstate import kernel_info
from repro.core.hierarchy import ClassSpec
from repro.persist.codec import load_snapshot, save_snapshot, sync_directory
from repro.persist.runtime import RunContext
from repro.serve.driver import RealTimeDriver
from repro.serve.hierarchy import build_scheduler, leaf_names
from repro.serve.ingress import Dataplane, DatagramIngressProtocol
from repro.serve.stalls import StallLog
from repro.serve.wire import Classifier, SuffixClassifier
from repro.sim.engine import EventLoop
from repro.sim.faults import Watchdog
from repro.sim.link import Link


class BindError(ReproError):
    """A dataplane/control socket could not be bound.

    Wraps the raw :class:`OSError` with the address and a hint, so
    ``repro serve`` reports "port taken" / "permission denied" as a
    structured one-line error (exit 2) instead of a traceback.
    """

    def __init__(self, address: str, exc: OSError):
        hint = ""
        if exc.errno == errno.EADDRINUSE:
            hint = " (address already in use -- is another shard or an old run still bound?)"
        elif exc.errno in (errno.EACCES, errno.EPERM):
            hint = " (permission denied -- privileged port or protected path?)"
        super().__init__(f"cannot bind {address}: {exc}{hint}")
        self.address = address
        self.errno = exc.errno


def process_usage() -> Dict[str, Any]:
    """What this process has cost so far.  Divide a delta by the packets
    served in between: minor faults per packet near 2 is an allocator
    trimming and regrowing the heap on every datagram."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "cpu_user_s": usage.ru_utime,
        "cpu_sys_s": usage.ru_stime,
        "minor_faults": usage.ru_minflt,
        "ctx_switches": usage.ru_nvcsw + usage.ru_nivcsw,
    }


class ServeService:
    """A long-lived scheduler service around the H-FSC (or any) core."""

    def __init__(
        self,
        specs: Sequence[ClassSpec],
        link_rate: float,
        backend: str = "hfsc",
        overload_policy: str = "raise",
        admission_control: bool = True,
        time_scale: float = 1.0,
        buffer_packets: int = 256,
        classifier: Optional[Classifier] = None,
        watchdog_period: float = 0.25,
        reflect: bool = True,
    ):
        self.specs = list(specs)
        self.backend = backend
        self.scheduler = build_scheduler(
            backend, link_rate, self.specs,
            overload_policy=overload_policy,
            admission_control=admission_control,
        )
        self.loop = EventLoop()
        self.link = Link(self.loop, self.scheduler)
        self.driver = RealTimeDriver(self.loop, time_scale=time_scale)
        if classifier is None:
            leaves = leaf_names(self.specs)
            classifier = SuffixClassifier(leaves)
        self.dataplane = Dataplane(
            self.driver, self.link, classifier,
            buffer_packets=buffer_packets, reflect=reflect,
        )
        self.watchdog: Optional[Watchdog] = None
        self.ctx = RunContext(self.loop, self.link)
        if watchdog_period > 0 and hasattr(self.scheduler, "check_invariants"):
            self.watchdog = Watchdog(self.loop, self.scheduler, watchdog_period)
            self.ctx.task("watchdog", self.watchdog._task)
        self._transports: List[Any] = []
        self._servers: List[Any] = []
        self._signal_snapshots = 0
        self._snapshot_error_reported = False
        self.snapshot_path: Optional[str] = None
        self.resumed_from: Optional[str] = None
        #: Wall-clock seconds between periodic checkpoints (None = only
        #: snapshot on SIGTERM/shutdown).  The cadence is an *asyncio*
        #: timer, not a sim-side periodic task: a sim task snapshotted
        #: from inside its own tick has no armed next event and would be
        #: dead on resume, whereas a wall timer is rebuilt fresh by the
        #: restarted process.
        self.checkpoint_every: Optional[float] = None
        #: Called with the snapshot path after every successful
        #: :meth:`checkpoint` (cluster workers re-pin their manifest
        #: entry here).  A hook failure fails the checkpoint.
        self.on_checkpoint: Optional[Callable[[str], None]] = None
        self.checkpoints_written = 0
        #: Per-cause stall times of the serving loop (``info.stalls``).
        self.stalls = StallLog()
        # What set-up built lives as long as the service: take it out of
        # the cyclic collector, so a full pass walks only what came after
        # (~7 ms on a 1056-class tree, every pass a dataplane stall).  No
        # collection first, and no freeze after a control op: the freeze
        # keeps whatever garbage exists for good (a refused op's
        # traceback cycles, say).
        gc.freeze()

    # -- snapshot / resume ----------------------------------------------------

    def restore_snapshot(self, path: str) -> None:
        """Adopt a crashed/terminated run's state (call before serving).

        The hierarchy, queued packets, virtual times and the simulated
        clock come from the snapshot (classes added live through the
        control plane are restored too -- the config file only seeds a
        *fresh* service).  Edge state that cannot survive a restart --
        who to reflect departures to -- is rebuilt empty.
        """
        body = load_snapshot(path)
        self.ctx.restore_body(body)
        self.scheduler = self.ctx.scheduler
        if self.watchdog is not None:
            self.watchdog.scheduler = self.scheduler
        self._rebuild_edge_backlog()
        self.resumed_from = path
        # The config-built scheduler was freed by reference counting
        # (HFSC cuts its own cycles); freeze what replaced it.
        gc.freeze()

    def write_snapshot(self, path: str) -> None:
        """Crash-safe snapshot of the whole run (atomic tmp+fsync+rename)."""
        self.driver.run_due()
        save_snapshot(path, self.ctx.snapshot_body())

    def checkpoint(self, path: Optional[str] = None) -> str:
        """Periodic snapshot with rotation: the previous good envelope
        survives as ``<path>.prev``.

        Write order is ``<path>.next`` (atomic) -> rotate the old
        envelope to ``.prev`` -> rename ``.next`` into place -> the
        ``on_checkpoint`` hook (manifest re-pin).  A crash at any point
        leaves at least one complete envelope whose checksum the
        manifest vouches for: before the final rename the manifest still
        points at the old content (now also at ``.prev``), after it the
        hook pins the new one.
        """
        path = path or self.snapshot_path
        if not path:
            raise ReproError("checkpoint needs a snapshot path")
        self.driver.run_due()
        staged = path + ".next"
        save_snapshot(staged, self.ctx.snapshot_body())
        if os.path.exists(path):
            os.replace(path, path + ".prev")
        os.replace(staged, path)
        sync_directory(path)
        self.checkpoints_written += 1
        if self.on_checkpoint is not None:
            self.on_checkpoint(path)
        return path

    async def _checkpoint_loop(self) -> None:
        """Checkpoint every ``checkpoint_every`` wall seconds.

        Runs on the service's own asyncio loop, so a checkpoint only
        fires between driver pacing chunks -- never concurrent with
        event processing.  A failed attempt (disk full, torn manifest
        lock) is reported once and retried next cadence.
        """
        while True:
            await asyncio.sleep(self.checkpoint_every)
            try:
                self.checkpoint()
            except Exception as exc:
                if not self._snapshot_error_reported:
                    self._snapshot_error_reported = True
                    print(
                        f"repro serve: periodic checkpoint to "
                        f"{self.snapshot_path!r} failed: {exc}",
                        file=sys.stderr,
                    )

    def _rebuild_edge_backlog(self) -> None:
        backlog: Dict[Any, int] = {}
        if hasattr(self.scheduler, "leaf_classes"):
            for cls in self.scheduler.leaf_classes():
                if cls.queue:
                    backlog[cls.name] = len(cls.queue)
        elif hasattr(self.scheduler, "_classes"):
            for name, cls in self.scheduler._classes.items():
                queue = getattr(cls, "queue", None)
                if queue:
                    backlog[name] = len(queue)
        # A restored in-flight packet is on the wire, not in a queue, but
        # it still occupies its class's edge buffer until it departs.
        in_flight = self.link._tx_packet
        if in_flight is not None:
            backlog[in_flight.class_id] = backlog.get(in_flight.class_id, 0) + 1
        self.dataplane.backlog = backlog
        self.dataplane.drop_reflect_state()

    # -- sockets --------------------------------------------------------------

    def _own_datagram_socket(
        self, family: int, address: Any, label: str, reuse_port: bool = False
    ) -> socket_module.socket:
        """Bind a non-blocking datagram socket the service owns and hang
        a burst-draining reader on it (closed again by :meth:`close`)."""
        sock = socket_module.socket(family, socket_module.SOCK_DGRAM)
        try:
            sock.setblocking(False)
            if reuse_port:
                sock.setsockopt(
                    socket_module.SOL_SOCKET, socket_module.SO_REUSEPORT, 1
                )
            sock.bind(address)
        except OSError as exc:
            sock.close()
            raise BindError(label, exc) from exc
        self._transports.append(DatagramIngressProtocol(self.dataplane, sock))
        return sock

    async def start_udp(
        self, host: str, port: int, reuse_port: bool = False
    ) -> Any:
        # Shard workers opt in to ``reuse_port`` so a cluster can also be
        # deployed behind one kernel-sprayed port (misroutes shed by the
        # shard classifier).
        label = f"udp://{host}:{port}"
        try:
            # Resolved inline: a bind address is numeric or in /etc/hosts,
            # and asyncio's resolver would start an executor thread
            # (~0.7 MB resident) for this one lookup.
            family, _, _, _, address = socket_module.getaddrinfo(
                host, port, type=socket_module.SOCK_DGRAM)[0]
        except OSError as exc:
            raise BindError(label, exc) from exc
        return self._own_datagram_socket(
            family, address, label, reuse_port).getsockname()

    async def start_unix_datagram(self, path: str) -> str:
        self._own_datagram_socket(
            socket_module.AF_UNIX, path, f"unix-dgram://{path}")
        return path

    async def start_control(self, path: str) -> str:
        from repro.serve.control import MAX_LINE, ControlServer

        try:
            server = await asyncio.start_unix_server(
                ControlServer(self).handle, path=path, limit=MAX_LINE,
            )
        except OSError as exc:
            raise BindError(f"ctl://{path}", exc) from exc
        self._servers.append(server)
        return path

    # -- lifecycle ------------------------------------------------------------

    def request_stop(self, snapshot: bool = True) -> None:
        """Stop serving; with a snapshot path configured, write it first.

        The write-once guard counts *successful* snapshots only: a failed
        attempt (disk full, bad path) must not disable the next SIGTERM's
        retry for the rest of the run.  The failure is surfaced once on
        stderr -- and never blocks shutdown.
        """
        if snapshot and self.snapshot_path and self._signal_snapshots == 0:
            try:
                if self.checkpoint_every or self.on_checkpoint is not None:
                    # Checkpointing services keep the rotation + manifest
                    # re-pin on the final snapshot too, so the last state
                    # is vouched for exactly like a periodic one.
                    self.checkpoint()
                else:
                    self.write_snapshot(self.snapshot_path)
            except Exception as exc:
                if not self._snapshot_error_reported:
                    self._snapshot_error_reported = True
                    print(
                        f"repro serve: snapshot to {self.snapshot_path!r} "
                        f"failed: {exc}",
                        file=sys.stderr,
                    )
            else:
                self._signal_snapshots += 1
        self.driver.stop()

    async def run(
        self,
        duration: Optional[float] = None,
        install_signals: bool = True,
        idle_poll: float = 0.25,
    ) -> None:
        """Serve until ``duration`` simulated seconds pass (or forever).

        SIGTERM/SIGINT trigger the PR-4 snapshot (when ``snapshot_path``
        is set) and a clean stop -- restart-without-amnesia.
        """
        if install_signals:
            aio = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    aio.add_signal_handler(signum, self.request_stop)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass
        until = None if duration is None else self.loop.now + duration
        checkpointer: Optional[asyncio.Task] = None
        if self.checkpoint_every and self.snapshot_path:
            checkpointer = asyncio.get_running_loop().create_task(
                self._checkpoint_loop()
            )
        try:
            with self.stalls.watch_gc():
                await self.driver.serve(until=until, idle_poll=idle_poll)
        finally:
            if checkpointer is not None:
                checkpointer.cancel()
                try:
                    await checkpointer
                except asyncio.CancelledError:
                    pass
            self.close()

    def close(self) -> None:
        for transport in self._transports:
            transport.close()
        self._transports = []
        for server in self._servers:
            server.close()
        self._servers = []

    # -- reporting ------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "backend": self.backend,
            "link_rate": self.link.rate,
            "time_scale": self.driver.time_scale,
            "sim_clock": self.loop.now,
            "events_processed": self.loop.events_processed,
            "max_lag": self.driver.max_lag,
            "dataplane": self.dataplane.summary(),
            "resumed_from": self.resumed_from,
            "kernel": kernel_info(),
            "process": process_usage(),
            "stalls": self.stalls.summary(),
        }
        if self.watchdog is not None:
            doc["watchdog"] = {
                "checks_run": self.watchdog.checks_run,
                "violations": [r.to_dict() for r in self.watchdog.reports],
            }
        if hasattr(self.scheduler, "overload_events"):
            doc["overload_events"] = list(self.scheduler.overload_events)
        return doc

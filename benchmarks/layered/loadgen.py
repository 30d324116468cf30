"""The benchmark's own open-loop load generator.

One process, one connected UDP socket, no asyncio: a tight loop that
sends every packet the schedule says is due, drains the departure
notices the service reflects, and -- when asked -- waits for a control
reply *without* stopping either.  Each datagram carries its **due** time
in the wire format's ``sent`` field, so latency counts the wait a stall
imposes on later packets, and how late the generator itself ran is
reported beside it (``loadgen.late_frac``).

``SO_RCVBUF`` is raised (and the granted value reported) so that a lost
notice is the service's failure, surfacing in ``fail_frac`` -- not a
quietly lower ``served_pps``; what the kernel still drops at this socket
it counts, and :meth:`Generator.drops` reads that count.
"""

from __future__ import annotations

import select
import socket
import struct
import time
from array import array
from typing import Any, Dict, List, Optional, Sequence, Tuple

from common import udp_socket
from repro.serve.wire import WireError, decode_departure, encode_packet

_STAMP = struct.Struct("!Id")  # seq, sent -- at offset 4 of a data packet
RCVBUF = 4 << 20
#: A packet sent more than this long after it was due counts as late.
LATE_AFTER = 0.002


class Generator:
    """Play one schedule against ``127.0.0.1:port``; keep what comes back.

    ``schedule`` is ``(offsets, flow_index, period)`` as :mod:`inputs`
    builds it; ``flows`` are the flow names the indices refer to.
    """

    def __init__(self, port: int, flows: Sequence[str], size: int,
                 schedule: Tuple[List[float], List[int], float]):
        self.flows = list(flows)
        self.size = size
        self.offsets, self.flow_index, self.period = schedule
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, RCVBUF)
        self.rcvbuf = self.sock.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF)
        self.sock.connect(("127.0.0.1", port))
        self.local_port = self.sock.getsockname()[1]
        self.sock.setblocking(False)
        self._packets = [bytearray(encode_packet(f, 0, 0.0, size))
                         for f in self.flows]
        self._flow_of = {f: i for i, f in enumerate(self.flows)}
        self._seq = [0] * len(self.flows)
        self._rbuf = bytearray(2048)
        self.clock = time.perf_counter
        self.t0: Optional[float] = None
        self.k = 0                # next schedule position
        self.sent = 0
        self.send_errors = 0
        self.late = 0
        self.decode_errors = 0
        # One entry per notice, parallel arrays (kept flat: a flood run
        # holds a few hundred thousand).
        self.n_time = array("d")   # receive time, seconds since t0
        self.n_wall = array("d")   # receive time minus due time
        self.n_sim = array("d")    # departed - enqueued inside the service
        self.n_enq = array("d")    # simulated arrival time at the scheduler
        self.n_flow = array("H")
        self.n_seq = array("L")
        self.sent_per_flow = [0] * len(self.flows)
        self.cpu0 = time.process_time()

    # -- the loop ---------------------------------------------------------------

    def start(self) -> None:
        self.t0 = self.clock()
        self.cpu0 = time.process_time()

    def _due(self, k: int) -> float:
        # ``q * period`` only once q > 0: a one-shot schedule has an
        # infinite period, and 0 * inf is not a time.
        q, r = divmod(k, len(self.offsets))
        return self.offsets[r] + q * self.period if q else self.offsets[r]

    def step(self, stop_sending: bool = False) -> float:
        """Send what is due, drain what has arrived; returns the seconds
        until the next packet is due (0 when already behind)."""
        clock = self.clock
        t0 = self.t0
        sock = self.sock
        wait = 0.25
        if not stop_sending:
            now = clock() - t0
            offsets = self.offsets
            n = len(offsets)
            period = self.period
            k = self.k
            budget = 64
            while budget:
                q, r = divmod(k, n)
                due = offsets[r] + q * period if q else offsets[r]
                if due > now:
                    break
                flow = self.flow_index[r]
                packet = self._packets[flow]
                _STAMP.pack_into(packet, 4, self._seq[flow] & 0xFFFFFFFF, t0 + due)
                self._seq[flow] += 1
                try:
                    sock.send(packet)
                    self.sent += 1
                    self.sent_per_flow[flow] += 1
                except (BlockingIOError, ConnectionRefusedError, OSError):
                    self.send_errors += 1
                if now - due > LATE_AFTER:
                    self.late += 1
                k += 1
                budget -= 1
            self.k = k
            wait = 0.0 if not budget else max(0.0, self._due(k) - (clock() - t0))
        rbuf = self._rbuf
        recv_into = sock.recv_into
        for _ in range(256):
            try:
                size = recv_into(rbuf)
            except BlockingIOError:
                break
            except ConnectionRefusedError:
                continue
            now = clock()
            try:
                notice = decode_departure(bytes(rbuf[:size]))
                flow = self._flow_of[notice["flow"]]
            except (WireError, KeyError, UnicodeDecodeError):
                self.decode_errors += 1
                continue
            self.n_time.append(now - t0)
            self.n_wall.append(now - notice["sent"])
            self.n_sim.append(notice["departed"] - notice["enqueued"])
            self.n_enq.append(notice["enqueued"])
            self.n_flow.append(flow)
            self.n_seq.append(notice["seq"])
        else:
            wait = 0.0  # more notices are waiting
        return wait

    def run_until(self, stop: float, stop_sending: bool = False) -> None:
        """Generate until ``stop`` (seconds since :meth:`start`)."""
        clock = self.clock
        t0 = self.t0
        sock = self.sock
        while True:
            wait = self.step(stop_sending)
            left = stop - (clock() - t0)
            if left <= 0:
                return
            if wait > 0.0:
                select.select([sock], [], [], min(wait, left))

    def call(self, control: Any, request: Dict[str, Any],
             timeout: float = 60.0) -> Tuple[Dict[str, Any], float]:
        """A control round trip with the data plane kept running; returns
        the reply and the round-trip time in seconds."""
        clock = self.clock
        began = clock()
        control.send(request)
        while True:
            reply = control.poll()
            if reply is not None:
                return reply, clock() - began
            if clock() - began > timeout:
                raise TimeoutError(f"control op {request.get('op')!r}")
            wait = self.step()
            if wait > 0.0:
                select.select([control.sock, self.sock], [], [], wait)

    def close(self) -> None:
        self.sock.close()

    # -- what came back ---------------------------------------------------------

    @property
    def notices(self) -> int:
        return len(self.n_time)

    def drops(self) -> int:
        """Notices the kernel dropped at this socket (the generator was
        not scheduled for longer than ``SO_RCVBUF`` lasts); 0 where the
        kernel keeps no count, so nothing is forgiven without evidence."""
        state = udp_socket(self.local_port)
        return state[1] if state else 0

    def cpu_util(self) -> float:
        wall = self.clock() - self.t0
        return (time.process_time() - self.cpu0) / wall if wall > 0 else 0.0

    def late_frac(self) -> float:
        return self.late / self.sent if self.sent else 0.0

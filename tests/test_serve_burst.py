"""The socket edge the service owns: burst drain, bounded, allocation-free.

Real UDP / unix-datagram sockets on loopback.  Datagrams are queued in the
kernel *before* the asyncio loop gets a turn, so what the reader does with
a backlog is deterministic: how many readiness callbacks it takes, what it
allocates, who else gets served in between.
"""

from __future__ import annotations

import asyncio
import gc
import json
import socket
import tracemalloc
import warnings

import pytest

from repro.core.curves import ServiceCurve
from repro.core.hierarchy import ClassSpec
from repro.serve import ingress
from repro.serve.ingress import DRAIN_MAX, DatagramIngressProtocol
from repro.serve.service import BindError, ServeService
from repro.serve.wire import decode_departure, encode_packet

LINK_RATE = 1e9  # never the bottleneck: a packet departs the turn it arrives


def make_service(**kwargs):
    specs = [ClassSpec("gold", sc=ServiceCurve.linear(0.6 * LINK_RATE)),
             ClassSpec("bronze", sc=ServiceCurve.linear(0.4 * LINK_RATE))]
    kwargs.setdefault("buffer_packets", 4096)
    return ServeService(specs, LINK_RATE, watchdog_period=0.0, **kwargs)


def udp_sender():
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    return sock


def queue_datagrams(sock, target, count, size=64):
    for seq in range(count):
        sock.sendto(encode_packet("gold#1", seq, 0.0, size), target)


async def serving(service, until, timeout=5.0):
    """Run ``service`` until ``until()`` holds, then stop it."""
    task = asyncio.ensure_future(
        service.run(install_signals=False, idle_poll=0.02))
    deadline = asyncio.get_running_loop().time() + timeout
    while not until() and asyncio.get_running_loop().time() < deadline:
        await asyncio.sleep(0.005)
    service.request_stop(snapshot=False)
    await task


class TestBurstDrain:
    def test_backlog_drains_in_bounded_callbacks_one_batch_each(self, monkeypatch):
        count = 2 * DRAIN_MAX + DRAIN_MAX // 2
        service = make_service()
        callbacks = []
        drain = DatagramIngressProtocol._on_readable
        monkeypatch.setattr(
            DatagramIngressProtocol, "_on_readable",
            lambda self: (callbacks.append(None), drain(self))[1])
        offers = []
        offer_batch = service.link.offer_batch
        service.link.offer_batch = lambda batch: (
            offers.append(len(batch)), offer_batch(batch))[1]
        sender = udp_sender()

        async def scenario():
            target = await service.start_udp("127.0.0.1", 0)
            queue_datagrams(sender, target, count)
            await serving(service, lambda: service.dataplane.departed == count)

        try:
            asyncio.run(scenario())
        finally:
            sender.close()
        plane = service.dataplane.summary()
        assert plane["received"] == plane["departed"] == count
        assert plane["shed"]["total"] == 0
        # ceil(count / DRAIN_MAX) callbacks empty the socket; one more may
        # fire to find it empty.
        assert -(-count // DRAIN_MAX) <= len(callbacks) <= -(-count // DRAIN_MAX) + 1
        # Every readiness is at most one coalesced scheduler call.
        assert sum(offers) == count
        assert len(offers) == plane["bursts"] <= len(callbacks)
        assert plane["burst_max"] == max(offers) >= DRAIN_MAX

    def test_control_ping_is_answered_between_drains(self, tmp_path, monkeypatch):
        # A small bound makes "between" unmistakable: 32 drains of backlog,
        # and the ping needs only a few loop turns.
        monkeypatch.setattr(ingress, "DRAIN_MAX", 8)
        count = 256
        service = make_service()
        sender = udp_sender()
        seen = {}

        async def scenario():
            target = await service.start_udp("127.0.0.1", 0)
            await service.start_control(str(tmp_path / "c.sock"))
            reader, writer = await asyncio.open_unix_connection(
                str(tmp_path / "c.sock"))
            queue_datagrams(sender, target, count)
            writer.write(b'{"op": "ping"}\n')

            async def ping():
                seen["reply"] = json.loads(await reader.readline())
                seen["received_at_pong"] = service.dataplane.received
                writer.close()

            pinger = asyncio.ensure_future(ping())
            await serving(service, lambda: service.dataplane.received == count)
            await pinger

        try:
            asyncio.run(scenario())
        finally:
            sender.close()
        assert seen["reply"]["ok"] and seen["reply"]["result"]["pong"]
        assert service.dataplane.received == count
        assert 0 < seen["received_at_pong"] < count

    def test_largest_udp_datagram_arrives_whole(self):
        service = make_service()
        sender = udp_sender()

        async def scenario():
            target = await service.start_udp("127.0.0.1", 0)
            sender.sendto(encode_packet("gold", 7, 0.0, 65507), target)
            await serving(service, lambda: service.dataplane.departed == 1)

        try:
            asyncio.run(scenario())
            notice = decode_departure(sender.recv(4096))
        finally:
            sender.close()
        assert service.dataplane.shed_total == 0
        assert service.dataplane.bytes_in == 65507.0
        assert (notice["seq"], notice["size"]) == (7, 65507.0)

    def test_a_burst_allocates_no_receive_buffers(self):
        """asyncio's transport asked for 256 KiB per datagram; the owned
        reader must stay under a quarter of *one* such buffer for a whole
        burst.  Reflection is off so that what remains is the queued
        packets alone, not who to answer."""
        service = make_service(reflect=False)
        sender = udp_sender()
        burst = 256
        peaks = []

        async def scenario():
            target = await service.start_udp("127.0.0.1", 0)
            task = asyncio.ensure_future(
                service.run(install_signals=False, idle_poll=0.02))
            for measured in (False, True):  # first burst warms every table
                done = service.dataplane.departed + burst
                if measured:
                    gc.collect()
                    tracemalloc.start()
                    baseline = tracemalloc.get_traced_memory()[0]
                queue_datagrams(sender, target, burst)
                while service.dataplane.departed < done:
                    await asyncio.sleep(0.005)
                if measured:
                    peaks.append(tracemalloc.get_traced_memory()[1] - baseline)
                    tracemalloc.stop()
            service.request_stop(snapshot=False)
            await task

        try:
            asyncio.run(asyncio.wait_for(scenario(), 10.0))
        finally:
            tracemalloc.stop()
            sender.close()
        assert service.dataplane.received == 2 * burst
        assert peaks[0] < 64 * 1024, peaks


class TestReflectDrops:
    def test_vanished_unix_peer_is_counted_and_service_keeps_serving(self, tmp_path):
        service = make_service()
        path = str(tmp_path / "in.sock")
        gone = socket.socket(socket.AF_UNIX, socket.SOCK_DGRAM)
        gone.bind(str(tmp_path / "gone.sock"))
        alive = socket.socket(socket.AF_UNIX, socket.SOCK_DGRAM)
        alive.bind(str(tmp_path / "alive.sock"))

        async def scenario():
            await service.start_unix_datagram(path)
            gone.sendto(encode_packet("gold", 1, 0.0, 64), path)
            gone.close()
            (tmp_path / "gone.sock").unlink()
            alive.sendto(encode_packet("bronze", 2, 0.0, 64), path)
            await serving(service, lambda: service.dataplane.departed == 2)

        try:
            asyncio.run(scenario())
            notice = decode_departure(alive.recv(4096))
        finally:
            alive.close()
        plane = service.dataplane.summary()
        assert (plane["reflected"], plane["reflect_dropped"]) == (1, 1)
        assert (notice["flow"], notice["seq"]) == ("bronze", 2)

    def test_full_peer_queue_drops_notices_instead_of_buffering(self, tmp_path):
        """A sender that never reads its notices fills its own receive
        queue; the non-blocking ``sendto`` then says EAGAIN and the notice
        is dropped and counted -- nothing piles up in the service."""
        service = make_service()
        path = str(tmp_path / "in.sock")
        with open("/proc/sys/net/unix/max_dgram_qlen") as fh:
            count = 4 * int(fh.read()) + 8
        deaf = socket.socket(socket.AF_UNIX, socket.SOCK_DGRAM)
        deaf.bind(str(tmp_path / "deaf.sock"))

        async def scenario():
            await service.start_unix_datagram(path)
            task = asyncio.ensure_future(
                service.run(install_signals=False, idle_poll=0.02))
            for seq in range(count):
                deaf.sendto(encode_packet("gold", seq, 0.0, 64), path)
                await asyncio.sleep(0)  # the service's own queue is short too
            while service.dataplane.departed < count:
                await asyncio.sleep(0.005)
            service.request_stop(snapshot=False)
            await task

        try:
            asyncio.run(asyncio.wait_for(scenario(), 10.0))
        finally:
            deaf.close()
        plane = service.dataplane.summary()
        assert plane["received"] == plane["departed"] == count
        assert plane["reflect_dropped"] > 0
        assert plane["reflected"] + plane["reflect_dropped"] == count
        assert service.dataplane._meta == {}


class TestSocketOwnership:
    def test_close_removes_readers_and_closes_fds(self, tmp_path):
        service = make_service()
        other = make_service()
        path = str(tmp_path / "in.sock")

        async def scenario():
            aio = asyncio.get_running_loop()
            await service.start_udp("127.0.0.1", 0)
            await service.start_unix_datagram(path)
            with pytest.raises(BindError) as refused:
                await other.start_unix_datagram(path)
            assert refused.value.address == f"unix-dgram://{path}"
            assert other._transports == []  # the refused socket was closed
            socks = [reader.sock for reader in service._transports]
            fds = [sock.fileno() for sock in socks]
            service.close()
            service.close()  # idempotent
            assert [sock.fileno() for sock in socks] == [-1, -1]
            # Nothing left on the selector for those descriptors.
            assert not any(aio.remove_reader(fd) for fd in fds)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            asyncio.run(scenario())
            del service, other
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

"""Start, reach and stop the service under test.

Two ways to host it, one handle to talk to it:

* :func:`spawn` -- ``python -m repro serve`` as a subprocess (every timed
  run): ephemeral UDP port, socket and file names relative to a private
  work directory, and a registry that kills whatever is still alive on
  *every* exit path (a leaked server from a failed run skews the next
  one's numbers).
* :func:`host_traced` -- the same ``ServeService`` inside this process
  with a :class:`~tracing.Tracer`'s wrappers on, and the client half of
  the workload in a forked child (traced runs only).
"""

from __future__ import annotations

import asyncio
import atexit
import contextlib
import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from common import SRC, CheckFailed, pin, proc_cpu, proc_status, unpin

_LIVE: List[subprocess.Popen] = []


def kill_all() -> None:
    for proc in list(_LIVE):
        if proc.poll() is None:
            proc.kill()
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            pass
    _LIVE.clear()


atexit.register(kill_all)


def _on_signal(signum, frame):  # noqa: ARG001 - signal handler signature
    kill_all()
    raise SystemExit(128 + signum)


def install_signal_cleanup() -> None:
    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)


@contextlib.contextmanager
def _cwd(path: str):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


class Control:
    """Newline-JSON client of the control socket; non-blocking reads so a
    load generator can keep sending while a reply is pending."""

    def __init__(self, workdir: str, name: str = "c.sock"):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        with _cwd(workdir):
            self.sock.connect(name)
        self.sock.setblocking(False)
        self._buf = b""

    def send(self, request: Dict[str, Any]) -> None:
        data = json.dumps(request).encode("utf-8") + b"\n"
        self.sock.setblocking(True)
        try:
            self.sock.sendall(data)
        finally:
            self.sock.setblocking(False)

    def poll(self) -> Optional[Dict[str, Any]]:
        """One complete reply if it has arrived, else ``None``."""
        while b"\n" not in self._buf:
            try:
                chunk = self.sock.recv(1 << 20)
            except BlockingIOError:
                return None
            if not chunk:
                raise CheckFailed("control connection closed by the service")
            self._buf += chunk
        line, _, self._buf = self._buf.partition(b"\n")
        return json.loads(line)

    def call(self, request: Dict[str, Any], timeout: float = 30.0) -> Dict[str, Any]:
        self.send(request)
        deadline = time.monotonic() + timeout
        while True:
            reply = self.poll()
            if reply is not None:
                return reply
            left = deadline - time.monotonic()
            if left <= 0:
                raise CheckFailed(f"control op {request.get('op')!r} timed out")
            select.select([self.sock], [], [], left)

    def close(self) -> None:
        self.sock.close()


class ServerHandle:
    """What a workload's client half needs to know about the service."""

    def __init__(self, pid: int, port: int, workdir: str,
                 proc: Optional[subprocess.Popen] = None):
        self.pid = pid
        self.port = port
        self.workdir = workdir
        self.proc = proc
        self.control = Control(workdir)

    def ctl(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return self.control.call(request)

    def result(self, request: Dict[str, Any]) -> Any:
        reply = self.ctl(request)
        if not reply.get("ok"):
            raise CheckFailed(f"control op {request.get('op')!r} failed: "
                              f"{reply.get('error')}")
        return reply["result"]

    def info(self) -> Dict[str, Any]:
        return self.result({"op": "info"})

    def cpu(self) -> float:
        return proc_cpu(self.pid)

    def status(self) -> Dict[str, float]:
        return proc_status(self.pid)

    def stop(self, snapshot: bool = False) -> Optional[Dict[str, Any]]:
        """Graceful shutdown; returns the exit summary of a subprocess."""
        try:
            self.ctl({"op": "shutdown", "snapshot": snapshot})
        except (CheckFailed, OSError):
            pass
        self.control.close()
        if self.proc is None:
            return None
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=5)
        if self.proc in _LIVE:
            _LIVE.remove(self.proc)
        path = os.path.join(self.workdir, "summary.json")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return json.load(fh)
        return None


def write_hierarchy(workdir: str, doc: Dict[str, Any]) -> None:
    with open(os.path.join(workdir, "h.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def spawn(workdir: str, extra: Tuple[str, ...] = ()) -> Tuple[ServerHandle, float]:
    """Start ``repro serve`` on ``workdir/h.json``; returns the handle and
    the seconds from spawn to the first answered ``ping``."""
    for stale in ("c.sock", "summary.json"):
        with contextlib.suppress(FileNotFoundError):
            os.unlink(os.path.join(workdir, stale))
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    log_path = os.path.join(workdir, "stderr.log")
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--hierarchy", "h.json",
             "--udp", "127.0.0.1:0", "--control", "c.sock",
             "--summary", "summary.json", *extra],
            cwd=workdir, env=env, stdout=subprocess.DEVNULL, stderr=log,
        )
    _LIVE.append(proc)
    pin(proc.pid, "server")
    port = None
    while port is None:
        if proc.poll() is not None:
            with open(log_path, encoding="utf-8", errors="replace") as fh:
                raise CheckFailed(f"repro serve exited {proc.returncode}: "
                                  f"{fh.read()[-2000:]}")
        if time.perf_counter() - t0 > 120:
            raise CheckFailed("repro serve did not come up within 120 s")
        with open(log_path, encoding="utf-8", errors="replace") as fh:
            banner = [line for line in fh
                      if line.endswith("\n") and "udp://" in line]
        if banner:
            port = int(banner[0].split("udp://")[1].split()[0].rsplit(":", 1)[1])
        else:
            time.sleep(0.001)
    handle = ServerHandle(proc.pid, port, workdir, proc)
    handle.result({"op": "ping"})
    return handle, time.perf_counter() - t0


def spawn_timed(workdir: str, samples: int, extra: Tuple[str, ...] = ()
                ) -> Tuple[ServerHandle, float, List[float], List[float]]:
    """Spawn the service ``1 + samples`` times (each is stopped again
    before the next); returns what :func:`calib.timed_setups` returns:
    the last handle and the seconds to first ``ping``."""
    from calib import timed_setups
    from common import _ALL_CORES

    return timed_setups(
        _ALL_CORES[-1] if len(_ALL_CORES) > 1 else None, samples,
        lambda: spawn(workdir, extra)[0], ServerHandle.stop)


def host_traced(workdir: str, tracer: Any,
                patches: Optional[Callable[[Any], None]],
                client: Callable[[ServerHandle], Dict[str, Any]],
                resume: Optional[str] = None) -> Dict[str, Any]:
    """Serve ``workdir/h.json`` in this process under ``tracer``; run
    ``client(handle)`` in a forked child and return what it returns.
    ``patches=None`` hosts the service the same way with no span on it --
    the reference a traced run's overhead is measured against.

    The child ends the run with the ``shutdown`` op; should it die first,
    a poller stops the service so the parent never hangs.
    """
    from repro.serve.hierarchy import hierarchy_from_file
    from repro.serve.service import ServeService
    from tracing import patch_transport

    config = hierarchy_from_file(os.path.join(workdir, "h.json"))
    if patches is not None:
        patches(tracer)
    read_fd, write_fd = os.pipe()
    child = 0
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        service = ServeService(
            config["specs"], config["link_rate"],
            backend=config["scheduler"],
            overload_policy=config["overload_policy"],
        )
        if resume:
            service.restore_snapshot(resume)

        async def main() -> None:
            nonlocal child
            sockname = await service.start_udp("127.0.0.1", 0)
            if patches is not None:
                patch_transport(tracer, service._transports[0])
            await service.start_control("c.sock")
            child = os.fork()
            if child == 0:
                code = 1
                try:
                    os.close(read_fd)
                    pin(0, "generator")
                    handle = ServerHandle(os.getppid(), sockname[1], ".")
                    try:
                        result = client(handle)
                    finally:
                        handle.stop()
                    with os.fdopen(write_fd, "w") as out:
                        json.dump(result, out)
                    code = 0
                except BaseException:  # the child must never return
                    import traceback
                    traceback.print_exc()
                finally:
                    os._exit(code)
            os.close(write_fd)

            async def reap() -> None:
                while os.waitpid(child, os.WNOHANG) == (0, 0):
                    await asyncio.sleep(0.2)
                service.request_stop(snapshot=False)

            reaper = asyncio.get_running_loop().create_task(reap())
            try:
                await service.run(install_signals=False)
            finally:
                reaper.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await reaper

        pin(0, "server")
        asyncio.run(main())
        with os.fdopen(read_fd) as pipe:
            text = pipe.read()
        if not text:
            raise CheckFailed("traced run: the client half died")
        return json.loads(text)
    finally:
        if child:
            # Reaped already unless the run failed half-way.
            with contextlib.suppress(ChildProcessError, ProcessLookupError):
                if os.waitpid(child, os.WNOHANG) == (0, 0):
                    os.kill(child, signal.SIGKILL)
                    os.waitpid(child, 0)
        os.chdir(previous)
        tracer.unpatch()
        unpin()

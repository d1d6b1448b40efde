"""The coordinator side of the ``tcp`` transport.

This module implements the ``tcp`` transport of
:mod:`repro.runtime.transport`: every worker is a *slot* that a
:class:`~repro.runtime.worker_host.WorkerHost` forks on its own
connection.  A slot is opened by dialing its host, answering the host's
HMAC-SHA256 challenge over the session ``authkey`` (it never crosses the
wire), sending the ``FHL1`` hello — the plan's fingerprint, the worker
config and this transport's session id, which every slot of one
coordinator shares — and uploading the plan as ``FPL1`` bytes when the
host's fingerprint cache lacks it, so a reattach (or a second pool)
never re-uploads.  The host forks the slot worker on that socket and
names its pid in an ``FCT1`` ``up`` frame.  From then on the socket is
the worker's channel, a :class:`~repro.runtime.transport.SocketChannel`
at both ends carrying one worker message per ``FMS1`` frame, just as a
pipe is a ``pipe`` worker's: every ciphertext still rides an ``ENV1``
envelope, faults are still ``FLT1``, spans still ``TRC1`` — so swapping
pipe for socket changes byte transport, never semantics.  Every layout
is defined in :mod:`repro.runtime.wire` (normative spec:
``docs/formats.md``).

What differs between hosts is only who starts them:

* ``"local"`` (an ``int`` count of them by default):
  :meth:`TcpTransport._fork_host` forks a ``WorkerHost`` on
  ``127.0.0.1:0`` with a per-transport random key in memory; the
  transport retires it the way an operator would — SIGTERM (drain),
  join, SIGKILL past the timeout — and it exits on its own if this
  process dies.
* ``"tcp://host:port"``: a host an operator started with
  ``python -m repro.runtime.worker_host``, possibly on another machine;
  both ends load the key from the same file.  A dead one is redialed
  for a window before :class:`~repro.runtime.faults.HostUnreachable`.

Fault model: a slot that dies — crashed, killed, or lost with its host —
is an EOF on its socket, which the executor's I/O loop handles with its
existing requeue/retry/quarantine machinery, as it does a pipe worker's;
the next spawn dials again, forking a fresh host when a local one is
gone.  Killing a slot is closing its socket: the host SIGKILLs a slot
whose coordinator hung up.  Requests are therefore never lost and never
duplicated across slot or host loss, exactly as for single-process
crashes.
"""

from __future__ import annotations

import itertools
import os
import socket
import threading
import time
import weakref
from contextlib import suppress

from repro.ckks.serialization import WireFormatError
from repro.runtime import wire
from repro.runtime.faults import HostUnreachable
from repro.runtime.transport import SocketChannel, Transport, WorkerEndpoint
from repro.runtime.worker_host import WorkerHost, parse_address
from repro.runtime.wire import (
    SESSION_ACK_MAGIC,
    SESSION_CONTROL_MAGIC,
    SESSION_HELLO_MAGIC,
    SESSION_PLAN_MAGIC,
    recv_session_frame,
    send_session_frame,
)

__all__ = [
    "TcpTransport",
    "parse_host_specs",
]

# How long spawn() keeps redialing a remote host before
# giving up with HostUnreachable.  A supervised host that was just
# killed needs interpreter-startup time to rebind its address; refusing
# instantly would turn every restart into a tripped breaker.
_REMOTE_REDIAL_WINDOW_S = 15.0
_REMOTE_REDIAL_INTERVAL_S = 0.25


def parse_host_specs(hosts) -> list[tuple[str, int] | None]:
    """Normalize ``ServingConfig.hosts`` into per-index host specs.

    ``int`` means that many forked hosts.  A sequence mixes ``"local"``
    (fork a loopback host) with ``"tcp://host:port"`` (dial a host
    started via ``python -m repro.runtime.worker_host``; the port must
    be one a host can listen on, 1..65535).
    """
    if isinstance(hosts, int):
        if hosts < 1:
            raise ValueError("tcp transport needs at least one host")
        return [None] * hosts
    specs: list[tuple[str, int] | None] = []
    for entry in hosts:
        if entry == "local":
            specs.append(None)
        elif isinstance(entry, str) and entry.startswith("tcp://"):
            specs.append(parse_address(entry[len("tcp://") :], dial=True))
        else:
            raise ValueError(
                f"unrecognized host spec {entry!r}; expected 'local' or "
                "'tcp://host:port'"
            )
    if not specs:
        raise ValueError("tcp transport needs at least one host")
    return specs


class _Slot(SocketChannel):
    """One slot worker as the executor sees it: its channel, and the
    ``proc`` duck type over that channel — alive until the socket
    closes, which is also how it is terminated."""

    def __init__(self, sock: socket.socket, pid: int) -> None:
        super().__init__(sock)
        self.pid = pid

    def is_alive(self) -> bool:
        return not self.closed

    def join(self, timeout: float | None = None) -> None:
        """Wait for the slot to hang up.  What it still sends is dropped:
        the executor joins only a slot it has stopped reading."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self.closed:
            left = None if deadline is None else deadline - time.monotonic()
            if (left is not None and left <= 0) or not self.poll(left):
                return
            try:
                self.recv_bytes()
            except wire.SESSION_ERRORS:
                self.close()

    def close(self) -> None:
        # The FIN goes out now, whatever copies of the socket a host
        # forked later inherited: closing is how a slot is killed.
        with suppress(OSError):
            self._sock.shutdown(socket.SHUT_RDWR)
        super().close()

    terminate = close


def _retire(host_proc) -> None:
    """Retire a forked host the way an operator retires one: SIGTERM
    drains it, SIGKILL past the timeout."""
    host_proc.terminate()
    host_proc.join(timeout=2.0)
    if host_proc.is_alive():
        host_proc.kill()
        host_proc.join(timeout=1.0)


class TcpTransport(Transport):
    """Socket transport: one connection per worker slot, to hosts this
    transport forks or dials (see module docstring)."""

    name = "tcp"

    def __init__(
        self,
        ctx,
        *,
        plan_blob: bytes,
        cfg,
        hosts=1,
        authkey: bytes | None = None,
    ) -> None:
        super().__init__()
        self._host_specs = parse_host_specs(hosts)
        num_hosts = len(self._host_specs)
        self._ctx = ctx
        self.plan_blob = plan_blob  # EPL1, uploaded to every host lacking it
        # What the hello names the plan by: hosts cache plans under it.
        self.fingerprint = wire.plan_fingerprint(plan_blob)
        self.cfg = cfg
        self.num_hosts = num_hosts
        if authkey is None and any(s is not None for s in self._host_specs):
            raise ValueError(
                "remote tcp hosts need a shared authkey file "
                "(ServingConfig.authkey_file) — a random per-run key "
                "cannot reach a host this process did not start"
            )
        # Per-transport session secret: a forked host gets it in memory,
        # so it authenticates slots without it ever crossing the wire
        # (see wire.auth_server/auth_client).  A remote host cannot —
        # both ends load the same keyfile (ServingConfig.authkey_file /
        # worker_host --authkey-file).
        self._authkey = authkey if authkey is not None else os.urandom(32)
        # Every hello carries it: a host serves one coordinator's slots
        # at a time and refuses another's as busy.
        self.session = int.from_bytes(os.urandom(8), "little")
        self._assign = 0
        self._lock = threading.Lock()
        # Per host index: (process, port) of the host this transport
        # forked there, and the pid the host last acked with.
        self._forked: list[tuple | None] = [None] * num_hosts
        self._host_pids: list[int | None] = [None] * num_hosts
        self.sessions_opened = 0  # one per slot connection
        self.hosts_spawned = 0
        self.plan_uploads = 0
        # Drop-finalizer over the concrete forked-host list: a pool that
        # is GC'd without close() still retires its host processes.
        # close() runs it (once) too.
        self._finalizer = weakref.finalize(
            self, TcpTransport._finalize_hosts, self._forked
        )

    @staticmethod
    def _finalize_hosts(forked: list) -> None:
        for index, entry in enumerate(forked):
            forked[index] = None
            if entry is not None:
                try:
                    _retire(entry[0])
                except Exception:  # noqa: BLE001 — finalizers must not raise
                    pass

    # -- hosts -----------------------------------------------------------

    def _fork_host(self, label: str):
        """Fork the host the CLI runs, on ``127.0.0.1:0``; returns
        ``(process, port)`` once it listens."""
        host = WorkerHost(
            ("127.0.0.1", 0), self._authkey, label=label, owner_pid=os.getpid()
        )
        report_r, report_w = self._ctx.Pipe(duplex=False)

        def publish(port: int) -> None:
            report_w.send_bytes(wire.encode_host_report(port, os.getpid()))

        # daemon=False: the host forks slot workers (daemonic processes
        # may not have children); it exits on its own once orphaned.
        proc = self._ctx.Process(target=host.run, args=(publish,), daemon=False)
        proc.start()
        report_w.close()
        if not report_r.poll(wire.HANDSHAKE_TIMEOUT_S):
            proc.kill()
            raise RuntimeError(f"worker host {label} never reported its port")
        port, _pid = wire.decode_host_report(report_r.recv_bytes())
        report_r.close()
        self.hosts_spawned += 1
        return proc, port

    def _drop_forked(self, index: int) -> None:
        with self._lock:
            entry, self._forked[index] = self._forked[index], None
        if entry is not None:
            _retire(entry[0])

    def _address(self, index: int) -> tuple[str, int]:
        """Where host ``index`` listens; a ``"local"`` host that is not
        running is forked first."""
        spec = self._host_specs[index]
        if spec is not None:
            return spec
        entry = self._forked[index]
        if entry is None or not entry[0].is_alive():
            self._drop_forked(index)
            entry = self._fork_host(f"host{index}")
            with self._lock:
                closed = self._closed
                if not closed:
                    self._forked[index] = entry
            if closed:
                # close() ran during the fork: retire the fresh host
                # instead of leaking it past the pool's lifetime.
                _retire(entry[0])
                raise RuntimeError("tcp transport is closed")
        return ("127.0.0.1", entry[1])

    def _dial(self, index: int) -> WorkerEndpoint:
        """Open one slot on host ``index``: dial, authenticate, hello,
        upload the plan if the host lacks it, then read the ``up`` frame
        naming the slot worker's pid."""
        address = self._address(index)
        sock = socket.create_connection(address, timeout=wire.HANDSHAKE_TIMEOUT_S)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            wire.auth_client(sock, self._authkey)
            hello = wire.encode_hello(self.fingerprint, self.session, self.cfg)
            send_session_frame(sock, SESSION_HELLO_MAGIC, hello)
            tag, payload = recv_session_frame(sock)
            if tag == SESSION_CONTROL_MAGIC:  # a typed refusal
                op, a, _ = wire.decode_control(payload)
                if op == "busy":
                    raise ConnectionError(
                        f"worker host at {address[0]}:{address[1]} is already "
                        "serving another coordinator"
                    )
                if op == "version":
                    raise wire.VersionMismatch(wire.SESSION_VERSION, a)
                raise WireFormatError(f"expected FHA1, got control op {op!r}")
            if tag != SESSION_ACK_MAGIC:
                raise WireFormatError(f"expected FHA1, got {tag!r}")
            need_plan, self._host_pids[index] = wire.decode_ack(payload)
            if need_plan:
                send_session_frame(sock, SESSION_PLAN_MAGIC, self.plan_blob)
            tag, payload = recv_session_frame(sock)
            if tag != SESSION_CONTROL_MAGIC:
                raise WireFormatError(f"expected FCT1 up, got {tag!r}")
            op, pid, _ = wire.decode_control(payload)
            if op != "up":
                raise WireFormatError(f"expected FCT1 up, got control op {op!r}")
        except BaseException:
            sock.close()
            raise
        sock.settimeout(None)
        self.sessions_opened += 1
        self.plan_uploads += need_plan
        slot = _Slot(sock, pid)
        return WorkerEndpoint(slot, slot, host=f"host{index}", on_kill=slot.close)

    # -- Transport surface ----------------------------------------------

    def spawn(self) -> WorkerEndpoint:
        with self._lock:
            if self._closed:
                raise RuntimeError("tcp transport is closed")
            index = self._assign % self.num_hosts
            self._assign += 1
        spec = self._host_specs[index]
        # Forked hosts get one immediate retry, on a freshly forked host.
        # Remote hosts get a redial *window*: a supervised remote host
        # that just crashed needs a moment to be restarted on the same
        # address, and "killed then brought back" is its normal
        # operating mode, not an edge case.
        deadline = time.monotonic() + (
            _REMOTE_REDIAL_WINDOW_S if spec is not None else 0.0
        )
        last_error: Exception | None = None
        for attempts in itertools.count(1):
            try:
                return self._dial(index)
            except wire.VersionMismatch:
                raise  # redialing cannot change what the peer speaks
            except (OSError, WireFormatError) as exc:
                last_error = exc
                if spec is None:
                    self._drop_forked(index)  # broken or dead: fork anew
            if self._closed or (attempts >= 2 and time.monotonic() >= deadline):
                break
            if spec is not None and self._interrupted.wait(_REMOTE_REDIAL_INTERVAL_S):
                break
        if spec is not None:
            raise HostUnreachable(
                f"remote worker host tcp://{spec[0]}:{spec[1]} is "
                f"unreachable: {last_error}"
            )
        raise RuntimeError(
            f"could not open a worker slot on host index {index}: {last_error}"
        )

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._finalizer()  # retires every forked host, once

    def host_pids(self) -> list[int]:
        return [pid for pid in self._host_pids if pid is not None]

    def stats(self) -> dict:
        return {
            "transport": self.name,
            "hosts": self.num_hosts,
            "remote_hosts": sum(
                1 for spec in self._host_specs if spec is not None
            ),
            "hosts_spawned": self.hosts_spawned,
            "sessions_opened": self.sessions_opened,
            "plan_uploads": self.plan_uploads,
        }

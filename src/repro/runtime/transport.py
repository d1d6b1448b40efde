"""Pluggable worker-boundary transports for the serving fabric.

:class:`~repro.runtime.executor.ShardedExecutor` talks to its workers
through a *transport seam*: a :class:`Transport` spawns
:class:`WorkerEndpoint` objects, each exposing the same two duck-typed
handles the executor's I/O loop always used — a ``conn``
(``send_bytes`` / ``recv_bytes`` / ``poll`` / ``fileno`` / ``close``,
carrying the worker messages of :mod:`repro.runtime.wire`, one byte
string each) and a ``proc`` (``pid`` / ``is_alive`` / ``join`` /
``terminate``).  Transports move those bytes opaquely and never
interpret them — which is what makes them interchangeable without
touching the fault or telemetry semantics.

Two implementations, which differ only in who forks the worker and
what its channel is — every worker runs the same
:func:`repro.runtime.executor._worker_loop`:

* :class:`PipeTransport` — the default: fork one child per worker with
  a duplex :func:`multiprocessing.Pipe`; workers inherit the warm plan.
* ``tcp`` (:class:`~repro.runtime.coordinator.TcpTransport`, in
  :mod:`repro.runtime.coordinator`) — each worker is a slot that a
  worker host forks on its own authenticated socket, a
  :class:`SocketChannel` at both ends; every host is sent the plan as
  ``EPL1`` bytes.  The only one that runs across machines.

Lifecycle contract (the leak-proofing the serving tests rely on): every
transport registers itself in a process-wide registry swept by
:mod:`atexit` (interpreter exit), and a transport that owns OS
resources additionally registers a :func:`weakref.finalize` over the
*concrete* resources — the forked-host list for ``tcp`` — never over a
weakref to the transport itself (a finalizer that dereferences its own
dying object always sees ``None`` and silently does nothing).  So a
crashed test run cannot leak bound ports even when
:meth:`ShardedExecutor.close` never ran.  ``close()`` is idempotent
everywhere.

Contract (see ``docs/architecture.md``): transports are parent-owned;
the worker side only ever sees its pre-fork channel object.  Nothing in
this module caches ciphertext bytes beyond the in-flight message.
"""

from __future__ import annotations

import atexit
import os
import signal
import socket
import threading
import time
import weakref
from multiprocessing.connection import wait as connection_wait

from repro.ckks.serialization import WireFormatError, pack_frame
from repro.runtime import wire

__all__ = [
    "Transport",
    "PipeTransport",
    "SocketChannel",
    "WorkerEndpoint",
    "available_transports",
]


def available_transports() -> tuple[str, ...]:
    return ("pipe", "tcp")


# ---------------------------------------------------------------------------
# Process-wide teardown registry (no leaked host processes or bound
# ports when close() never runs).
# ---------------------------------------------------------------------------

_LIVE_TRANSPORTS: "weakref.WeakSet[Transport]" = weakref.WeakSet()
_OWNER_PID = os.getpid()


def _close_live_transports() -> None:
    # Forked children inherit the registry; only the creating process
    # may reap host processes.
    if os.getpid() != _OWNER_PID:
        return
    for transport in list(_LIVE_TRANSPORTS):
        try:
            transport.close()
        except Exception:  # noqa: BLE001 — best-effort interpreter-exit sweep
            pass


atexit.register(_close_live_transports)


# ---------------------------------------------------------------------------
# Endpoints and transports
# ---------------------------------------------------------------------------


class WorkerEndpoint:
    """One worker's parent-side handles, however it is reached.

    Attributes:
        proc: process-like handle (``pid`` / ``is_alive`` / ``join`` /
            ``terminate``) — a real :class:`multiprocessing.Process` for
            the pipe transport, the slot's channel for the socket one.
        conn: duplex byte-message channel carrying the worker protocol.
        host: stable host label for telemetry (``local`` for the pipe
            transport, ``host<N>`` for TCP worker hosts).
    """

    def __init__(self, proc, conn, *, host: str = "local", on_kill=None):
        self.proc = proc
        self.conn = conn
        self.host = host
        self._on_kill = on_kill

    def kill(self) -> None:
        """SIGKILL-equivalent: forcibly stop the worker this endpoint
        reaches (used for hang/deadline preemption and close
        escalation)."""
        if self._on_kill is not None:
            self._on_kill()
            return
        try:
            os.kill(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, OSError, TypeError):
            pass


class Transport:
    """Base class: spawn endpoints, account, tear down.  The executor
    builds its transport (``ShardedExecutor._make_transport``), so
    it stays the composition root and transports never reach into plan
    internals."""

    name = "?"

    def __init__(self) -> None:
        self._closed = False
        self._interrupted = threading.Event()
        # Interpreter-exit sweep.  Subclasses owning OS resources must
        # ALSO register a weakref.finalize over the concrete resources
        # (see the module docstring and TcpTransport's forked-host list).
        _LIVE_TRANSPORTS.add(self)

    def spawn(self) -> WorkerEndpoint:
        raise NotImplementedError

    def interrupt(self) -> None:
        """Make a spawn() waiting on another thread give up now: the
        owner is closing, and close() follows."""
        self._interrupted.set()

    def close(self) -> None:
        self._closed = True

    def stats(self) -> dict:
        return {"transport": self.name}


class PipeTransport(Transport):
    """Fork one child per worker with a duplex pipe (the default)."""

    name = "pipe"

    def __init__(self, ctx, target, plan, cfg) -> None:
        super().__init__()
        self._ctx = ctx
        self._target = target  # the worker loop: (plan, conn, cfg)
        self._plan = plan
        self._cfg = cfg

    def spawn(self) -> WorkerEndpoint:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=self._target,
            args=(self._plan, child_conn, self._cfg),
            daemon=True,
        )
        proc.start()
        # The parent's copy of the child end must close so worker death
        # surfaces as EOF on the parent connection.
        child_conn.close()
        return WorkerEndpoint(proc, parent_conn)


class SocketChannel:
    """A worker channel over one slot socket, the same class at both ends:
    the ``conn`` duck type a pipe offers, carrying one worker message per
    CRC-framed ``FMS1`` session frame, so the CRC and
    :data:`~repro.runtime.wire.MAX_SESSION_FRAME_BYTES` guard every read.

    ``chaos`` is set on a slot worker's end only: each reply it sends
    passes the ``host_relay`` fault site (:mod:`repro.runtime.chaos`).
    """

    def __init__(self, sock: socket.socket, chaos=None) -> None:
        self._sock = sock
        self._chaos = chaos
        self.closed = False

    def send_bytes(self, msg: bytes) -> None:
        frame = pack_frame(wire.SESSION_MESSAGE_MAGIC, msg)
        action = None
        if self._chaos is not None:
            kind, req_id, attempt, _ = wire.peek_message(msg)
            if kind in (wire.OK, wire.ERR):
                action = self._chaos.decide("host_relay", req_id, attempt)
        if action is None:
            self._sock.sendall(frame)
        elif action.kind in ("disconnect", "partial"):
            # The reply is lost with the connection; its request re-runs
            # under the executor's retry budget.
            if action.kind == "partial":
                self._sock.sendall(frame[: max(9, len(frame) // 2)])
            self._sock.shutdown(socket.SHUT_RDWR)
        else:  # slow: late; duplicate: twice, for the stale-attempt dedup
            time.sleep(action.duration_s)
            self._sock.sendall(frame * (2 if action.kind == "duplicate" else 1))

    def recv_bytes(self) -> bytes:
        tag, payload = wire.recv_session_frame(self._sock)
        if tag != wire.SESSION_MESSAGE_MAGIC:
            raise WireFormatError(f"expected FMS1, got {tag!r}")
        return payload

    def poll(self, timeout: float | None = 0.0) -> bool:
        return bool(connection_wait([self._sock], timeout))

    def fileno(self) -> int:
        return self._sock.fileno()

    def close(self) -> None:
        self.closed = True
        self._sock.close()

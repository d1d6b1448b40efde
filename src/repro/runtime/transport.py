"""Pluggable worker-boundary transports for the serving fabric.

:class:`~repro.runtime.executor.ShardedExecutor` talks to its workers
through a *transport seam*: a :class:`Transport` spawns
:class:`WorkerEndpoint` objects, each exposing the same two duck-typed
handles the executor's I/O loop always used — a ``conn`` (``send`` /
``recv`` / ``poll`` / ``fileno`` / ``close``, carrying the exact message
tuples of the worker protocol in ``docs/formats.md``) and a ``proc``
(``pid`` / ``is_alive`` / ``join`` / ``terminate``).  Every message
payload that crosses an endpoint is already boundary-framed upstream
(``ENV1`` ciphertext envelopes, ``FLT1`` faults, ``TRC1`` traces), so
transports move opaque bytes and never interpret ciphertext content —
which is what makes them interchangeable without touching the fault or
telemetry semantics.

Three implementations:

* :class:`PipeTransport` — the historical default: fork one child per
  worker with a duplex :func:`multiprocessing.Pipe`.  Zero new
  semantics; the seed of the seam.
* :class:`ShmTransport` — same fork+pipe control plane, but every large
  ``bytes`` payload (the packed residue blobs of an ``(L, N)`` reply)
  is written into a per-worker :class:`ShmRing` —
  a :mod:`multiprocessing.shared_memory` segment split into a
  parent→worker and a worker→parent half — and replaced in the pickled
  message by a tiny :class:`ShmRef` descriptor.  Large replies stop
  streaming through the 64 KiB pipe buffer; the pipe carries only
  control tuples and descriptors.  Payloads that do not fit the ring
  fall back inline, so correctness never depends on the ring size.
* ``tcp`` (:class:`~repro.runtime.coordinator.TcpTransport`, in
  :mod:`repro.runtime.coordinator`) — worker slots multiplexed over one
  length-prefixed CRC-framed socket session per worker host.

Lifecycle contract (the leak-proofing the serving tests rely on): every
transport registers itself in a process-wide registry swept by
:mod:`atexit` (interpreter exit), and every transport that owns OS
resources additionally registers a :func:`weakref.finalize` over the
*concrete* resources — the ring list for ``shm`` (each
:class:`ShmRing` also finalizes its own segment), the host-handle list
for ``tcp`` — never over a weakref to the transport itself (a
finalizer that dereferences its own dying object always sees ``None``
and silently does nothing).  So a crashed test run cannot leak
``/dev/shm`` segments or bound ports even when
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
import threading
import weakref
from dataclasses import dataclass

__all__ = [
    "ShmRef",
    "ShmRing",
    "ShmChannel",
    "Transport",
    "PipeTransport",
    "ShmTransport",
    "WorkerEndpoint",
    "available_transports",
    "create_transport",
]

# Payloads at or above this many bytes ride the shared-memory ring
# instead of the control pipe (descriptors + small tuples stay inline).
SHM_INLINE_THRESHOLD = 4096

# Default per-direction ring capacity; one worker holds at most one
# request *or* one reply per direction at a time, so the halves only
# need to fit the largest single message's payload set.
DEFAULT_RING_BYTES = 8 << 20


def available_transports() -> tuple[str, ...]:
    return ("pipe", "shm", "tcp")


# ---------------------------------------------------------------------------
# Process-wide teardown registry (satellite: no leaked /dev/shm segments
# or bound ports when close() never runs).
# ---------------------------------------------------------------------------

_LIVE_TRANSPORTS: "weakref.WeakSet[Transport]" = weakref.WeakSet()
_OWNER_PID = os.getpid()


def _close_live_transports() -> None:
    # Forked children inherit the registry; only the creating process
    # may unlink segments / reap host processes.
    if os.getpid() != _OWNER_PID:
        return
    for transport in list(_LIVE_TRANSPORTS):
        try:
            transport.close()
        except Exception:  # noqa: BLE001 — best-effort interpreter-exit sweep
            pass


atexit.register(_close_live_transports)


# ---------------------------------------------------------------------------
# Shared-memory ring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShmRef:
    """Descriptor that replaces a large payload inside a pipe message:
    ``length`` bytes live at ``offset`` in the sender's ring half."""

    offset: int
    length: int


class ShmRing:
    """One shared-memory segment split into two half-duplex regions.

    ``[0, capacity)`` carries parent→worker payloads, ``[capacity,
    2*capacity)`` carries worker→parent payloads.  The worker protocol
    admits at most one in-flight message per direction per worker, and
    the receiver copies every referenced byte out during ``recv`` —
    so each sender can simply restart its region cursor at every
    message with no further synchronization.
    """

    def __init__(self, capacity: int = DEFAULT_RING_BYTES) -> None:
        from multiprocessing import shared_memory

        if capacity < 1:
            raise ValueError("ring capacity must be positive")
        self.capacity = int(capacity)
        self._shm = shared_memory.SharedMemory(create=True, size=2 * self.capacity)
        self._owner_pid = os.getpid()
        self._closed = False
        # Object drop without close() must still unlink the segment.
        self._finalizer = weakref.finalize(
            self, ShmRing._unlink_by_name, self._shm, self._owner_pid
        )

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def buf(self) -> memoryview:
        return self._shm.buf

    @staticmethod
    def _unlink_by_name(shm, owner_pid: int) -> None:
        try:
            shm.close()
        except (OSError, BufferError):
            pass
        if os.getpid() == owner_pid:  # children only unmap, never unlink
            try:
                shm.unlink()
            except (FileNotFoundError, OSError):
                pass

    def close(self) -> None:
        """Unmap and (in the creating process) unlink; idempotent."""
        if self._closed:
            return
        self._closed = True
        self._finalizer()


class ShmChannel:
    """A pipe connection whose large payloads detour through a ring.

    ``send`` walks the message tuple/list structure, copies every
    ``bytes`` of at least :data:`SHM_INLINE_THRESHOLD` into this side's
    ring half, and substitutes a :class:`ShmRef`; ``recv`` resolves the
    descriptors back into (copied) bytes, so the region is free for the
    next message the moment ``recv`` returns.  Payloads that do not fit
    the remaining region stay inline — oversized messages degrade to
    pipe throughput instead of failing.
    """

    def __init__(self, conn, ring: ShmRing, *, tx_half: int) -> None:
        self._conn = conn
        self._ring = ring
        self._tx_base = tx_half * ring.capacity
        self._rx_base = (1 - tx_half) * ring.capacity
        self.shm_bytes = 0
        self.inline_bytes = 0

    # -- structural payload rewriting ----------------------------------

    def _swap_out(self, obj, cursor: list[int]):
        if isinstance(obj, bytes):
            if len(obj) >= SHM_INLINE_THRESHOLD:
                offset = cursor[0]
                end = offset + len(obj)
                if end <= self._tx_base + self._ring.capacity:
                    self._ring.buf[offset:end] = obj
                    cursor[0] = end
                    self.shm_bytes += len(obj)
                    return ShmRef(offset, len(obj))
            self.inline_bytes += len(obj)
            return obj
        if isinstance(obj, tuple):
            return tuple(self._swap_out(item, cursor) for item in obj)
        if isinstance(obj, list):
            return [self._swap_out(item, cursor) for item in obj]
        return obj

    def _swap_in(self, obj):
        if isinstance(obj, ShmRef):
            start = obj.offset
            return bytes(self._ring.buf[start : start + obj.length])
        if isinstance(obj, tuple):
            return tuple(self._swap_in(item) for item in obj)
        if isinstance(obj, list):
            return [self._swap_in(item) for item in obj]
        return obj

    # -- connection surface --------------------------------------------

    def send(self, msg) -> None:
        self._conn.send(self._swap_out(msg, [self._tx_base]))

    def recv(self):
        return self._swap_in(self._conn.recv())

    def poll(self, timeout=0.0) -> bool:
        return self._conn.poll(timeout)

    def fileno(self) -> int:
        return self._conn.fileno()

    def close(self) -> None:
        try:
            self._conn.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Endpoints and transports
# ---------------------------------------------------------------------------


class WorkerEndpoint:
    """One worker's parent-side handles, however it is reached.

    Attributes:
        proc: process-like handle (``pid`` / ``is_alive`` / ``join`` /
            ``terminate``) — a real :class:`multiprocessing.Process` for
            local transports, a slot shim for socket transports.
        conn: duplex message channel carrying the worker protocol.
        host: stable host label for telemetry (``local`` for same-host
            transports, ``host<N>`` for TCP worker hosts).
    """

    def __init__(self, proc, conn, *, host: str = "local", on_kill=None, on_release=None):
        self.proc = proc
        self.conn = conn
        self.host = host
        self._on_kill = on_kill
        self._on_release = on_release

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

    def release(self) -> None:
        """Free per-endpoint transport resources (e.g. its ring
        segment) once the executor has retired the worker."""
        if self._on_release is not None:
            self._on_release()


class Transport:
    """Base class: spawn endpoints, account, tear down.

    Subclasses get the worker *factory* from the executor — the loop
    callable plus its leading arguments (`` (plan,)`` for warm-fork,
    ``(plan_blob, evaluator)`` for the shipped-plan wire path) — so the
    transport layer needs no knowledge of plan internals and
    :mod:`repro.runtime.executor` stays the composition root.
    """

    name = "?"

    def __init__(self) -> None:
        self._closed = False
        # Interpreter-exit sweep.  Subclasses owning OS resources must
        # ALSO register a weakref.finalize over the concrete resources
        # (never over a weakref to self: by finalize time the object is
        # dead and the ref yields None) — see ShmTransport's ring list
        # and TcpTransport's host-handle list.
        _LIVE_TRANSPORTS.add(self)

    def spawn(self) -> WorkerEndpoint:
        raise NotImplementedError

    def close(self) -> None:
        self._closed = True

    def stats(self) -> dict:
        return {"transport": self.name}


class PipeTransport(Transport):
    """Fork one child per worker with a duplex pipe (the default)."""

    name = "pipe"

    def __init__(self, ctx, target, head, cfg) -> None:
        super().__init__()
        self._ctx = ctx
        self._target = target
        self._head = head
        self._cfg = cfg

    def _fork(self, conn_pair_factory):
        parent_conn, child_conn, child_channel = conn_pair_factory()
        proc = self._ctx.Process(
            target=self._target,
            args=(*self._head, child_channel, self._cfg),
            daemon=True,
        )
        proc.start()
        # The parent's copy of the child end must close so worker death
        # surfaces as EOF on the parent connection.
        child_conn.close()
        return proc, parent_conn

    def spawn(self) -> WorkerEndpoint:
        def plain_pipe():
            parent_conn, child_conn = self._ctx.Pipe()
            return parent_conn, child_conn, child_conn

        proc, conn = self._fork(plain_pipe)
        return WorkerEndpoint(proc, conn)


class ShmTransport(PipeTransport):
    """Fork+pipe control plane with a per-worker shared-memory ring for
    residue payloads (see :class:`ShmRing`)."""

    name = "shm"

    def __init__(self, ctx, target, head, cfg, *, ring_bytes: int = DEFAULT_RING_BYTES):
        super().__init__(ctx, target, head, cfg)
        self._ring_bytes = int(ring_bytes)
        self._rings: list[ShmRing] = []
        self._lock = threading.Lock()
        # Drop-finalizer over the concrete ring list (rings never refer
        # back to the transport, so this is not a cycle): a transport
        # GC'd without close() unlinks its segments deterministically
        # instead of waiting on each ring's own GC.  close() drains the
        # same list in place.
        self._finalizer = weakref.finalize(
            self, ShmTransport._finalize_rings, self._rings, self._lock
        )

    @staticmethod
    def _finalize_rings(rings: list, lock: threading.Lock) -> None:
        with lock:
            drained, rings[:] = list(rings), []
        for ring in drained:
            try:
                ring.close()
            except Exception:  # noqa: BLE001 — finalizers must not raise
                pass

    def spawn(self) -> WorkerEndpoint:
        ring = ShmRing(self._ring_bytes)
        with self._lock:
            self._rings.append(ring)

        def shm_pipe():
            parent_conn, child_conn = self._ctx.Pipe()
            # Both channel objects exist pre-fork; the child inherits
            # its side (and the mapped segment) copy-on-write.
            parent_channel = ShmChannel(parent_conn, ring, tx_half=0)
            child_channel = ShmChannel(child_conn, ring, tx_half=1)
            return parent_channel, child_conn, child_channel

        proc, conn = self._fork(shm_pipe)

        def release() -> None:
            with self._lock:
                if ring in self._rings:
                    self._rings.remove(ring)
            ring.close()

        return WorkerEndpoint(proc, conn, on_release=release)

    def close(self) -> None:
        if self._closed:
            return
        super().close()
        with self._lock:
            rings, self._rings[:] = list(self._rings), []
        for ring in rings:
            ring.close()
        self._finalizer.detach()

    def stats(self) -> dict:
        with self._lock:
            live = len(self._rings)
        return {
            "transport": self.name,
            "ring_bytes": self._ring_bytes,
            "live_rings": live,
        }


def create_transport(
    name: str,
    *,
    ctx,
    target,
    head,
    cfg,
    plan=None,
    plan_blob: bytes | None = None,
    signature: str = "",
    hosts=1,
    authkey: bytes | None = None,
    ring_bytes: int = DEFAULT_RING_BYTES,
    chaos=None,
) -> Transport:
    """Build a transport by name (``pipe`` / ``shm`` / ``tcp``)."""
    if name == "pipe":
        return PipeTransport(ctx, target, head, cfg)
    if name == "shm":
        return ShmTransport(ctx, target, head, cfg, ring_bytes=ring_bytes)
    if name == "tcp":
        from repro.runtime.coordinator import TcpTransport

        return TcpTransport(
            ctx,
            plan=plan,
            cfg=cfg,
            plan_blob=plan_blob,
            signature=signature,
            hosts=hosts,
            authkey=authkey,
            chaos=chaos,
        )
    raise ValueError(
        f"unknown transport {name!r}; known: {', '.join(available_transports())}"
    )

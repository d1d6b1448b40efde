"""The coordinator side of the ``tcp`` transport.

This module implements the ``tcp`` transport of
:mod:`repro.runtime.transport`: worker *slots* hosted by
:class:`~repro.runtime.worker_host.WorkerHost` processes and multiplexed
over one length-prefixed CRC-framed socket **session** per host.  Every
layout on that socket — the auth preamble, the frame container, the
``FHL1`` hello / ``FHA1`` ack / ``FPL1`` plan upload handshake, ``FBT1``
message batches, ``FCT1`` control ops — is defined in
:mod:`repro.runtime.wire` (normative spec: ``docs/formats.md``); this
module only moves the bytes.  The worker messages inside a session are
relayed opaque — every ciphertext still rides an ``ENV1`` envelope,
faults are still ``FLT1``, spans still ``TRC1`` — so swapping pipe for
socket changes byte transport, never semantics.

Every host is reached the same way: dial, answer the host's HMAC-SHA256
challenge over the session ``authkey`` (it never crosses the wire), send
the hello, and upload the plan as ``FPL1`` bytes when the host's
fingerprint cache lacks it — so a reconnect (or a second pool) never
re-uploads.  What differs is only who starts the host:

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

Fault model: the host relay consults the session chaos plan at the
``host_relay`` site (disconnect, partial frame, slow host).  Any
session loss — injected or real — closes every slot's parent-side
delivery pipe, which the executor's I/O loop observes as worker EOFs
and handles with its existing requeue/retry/quarantine machinery; the
transport then restarts the host (or reconnects) on the next spawn.
Requests are therefore never lost and never duplicated across host
loss, exactly as for single-process crashes.
"""

from __future__ import annotations

import os
import queue
import signal
import socket
import threading
import time
import weakref
from contextlib import suppress

from repro.ckks.serialization import WireFormatError
from repro.runtime import wire
from repro.runtime.transport import Transport, WorkerEndpoint
from repro.runtime.worker_host import WorkerHost
from repro.runtime.wire import (
    SESSION_ACK_MAGIC,
    SESSION_BATCH_MAGIC,
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

_SPAWN_ACK_TIMEOUT_S = 30.0

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
    started via ``python -m repro.runtime.worker_host``).
    """
    if isinstance(hosts, int):
        if hosts < 1:
            raise ValueError("tcp transport needs at least one host")
        return [None] * hosts
    specs: list[tuple[str, int] | None] = []
    for entry in hosts:
        if entry == "local":
            specs.append(None)
            continue
        if isinstance(entry, str) and entry.startswith("tcp://"):
            host, sep, port = entry[len("tcp://") :].rpartition(":")
            if sep and host and port.isdigit():
                specs.append((host, int(port)))
                continue
        raise ValueError(
            f"unrecognized host spec {entry!r}; expected 'local' or "
            "'tcp://host:port'"
        )
    if not specs:
        raise ValueError("tcp transport needs at least one host")
    return specs


class _SlotProc:
    """Process-like handle for a remote slot worker (the executor's
    ``worker.proc`` duck type)."""

    def __init__(self, delivery_w, terminate) -> None:
        self.pid: int | None = None
        self.up = threading.Event()
        self.down = threading.Event()
        self.delivery_w = delivery_w  # fed by the session reader thread
        self.terminate = terminate  # kills the slot through its host

    def is_alive(self) -> bool:
        return self.up.is_set() and not self.down.is_set()

    def mark_down(self) -> None:
        """The slot is gone: closing its delivery writer surfaces that
        to the executor as a worker EOF — its standard crash path."""
        self.down.set()
        try:
            self.delivery_w.close()
        except OSError:
            pass

    def join(self, timeout: float | None = None) -> None:
        self.down.wait(timeout)


class _SlotChannel:
    """Connection-like handle for a remote slot: sends enqueue into the
    host session's flusher; receives read a local delivery pipe fed by
    the session reader thread (so the executor's ``connection_wait``
    loop works unchanged)."""

    def __init__(self, handle: "_HostHandle", slot: int, delivery_r) -> None:
        self._handle = handle
        self._slot = slot
        self._delivery_r = delivery_r

    def send_bytes(self, msg_bytes: bytes) -> None:
        self._handle.enqueue(self._slot, msg_bytes)

    def recv_bytes(self) -> bytes:
        return self._delivery_r.recv_bytes()

    def poll(self, timeout=0.0) -> bool:
        return self._delivery_r.poll(timeout)

    def fileno(self) -> int:
        return self._delivery_r.fileno()

    def close(self) -> None:
        try:
            self._delivery_r.close()
        except OSError:
            pass


_FLUSH_SENTINEL = object()


class _HostHandle:
    """One live host process + one session socket + its pump threads."""

    def __init__(
        self,
        transport: "TcpTransport",
        host_id: int,
        spec: tuple[str, int] | None = None,
    ) -> None:
        # Weak: the transport's drop-finalizer strongly holds its host
        # handles (to close them), so a strong back-reference here would
        # keep the transport reachable forever and the finalizer dead.
        self._transport_ref = weakref.ref(transport)
        # Per-transport immutables, snapshotted so the pump threads and
        # teardown never need the transport object itself.
        self._slot_ids = transport._slot_ids
        self._authkey = transport._authkey
        self.host_id = host_id
        self.spec = spec  # None = forked by this transport; (host, port) = remote
        self.label = f"host{host_id}"
        self.dead = False
        self.host_proc = None
        self.host_pid: int | None = None
        self.port: int | None = None
        self.sock: socket.socket | None = None
        self.slots: dict[int, _SlotProc] = {}
        self.lock = threading.Lock()
        self.send_lock = threading.Lock()
        self.out_q: queue.SimpleQueue = queue.SimpleQueue()
        self.frames_sent = 0
        self.messages_sent = 0
        self.plan_uploaded = False
        self._threads: list[threading.Thread] = []

    @property
    def transport(self) -> "TcpTransport":
        t = self._transport_ref()
        if t is None:
            raise RuntimeError("tcp transport has been released")
        return t

    # -- bring-up -------------------------------------------------------

    def start(self, *, reuse: "_HostHandle | None" = None) -> None:
        """Dial the host — ``reuse``'s still-live forked process, a
        freshly forked one, or the spec's address — and open a session."""
        t = self.transport
        if self.spec is not None:
            # Remote host: dial its published address.  There is no
            # process to fork or reuse — "reconnect" IS a fresh dial,
            # and the host's plan cache makes it replan-free.
            address, self.port = self.spec, self.spec[1]
        else:
            if reuse is not None:
                self.host_proc, self.port = reuse.host_proc, reuse.port
            else:
                self.host_proc, self.port = t._fork_host(self.label)
            self.host_pid = self.host_proc.pid
            address = ("127.0.0.1", self.port)
        self.sock = socket.create_connection(
            address, timeout=wire.HANDSHAKE_TIMEOUT_S
        )
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        wire.auth_client(self.sock, self._authkey)
        send_session_frame(
            self.sock, SESSION_HELLO_MAGIC, wire.encode_hello(t.signature, t.cfg)
        )
        tag, payload = recv_session_frame(self.sock)
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
        need_plan, remote_pid = wire.decode_ack(payload)
        if self.host_pid is None:
            self.host_pid = remote_pid  # a remote host's own report
        if need_plan:
            send_session_frame(self.sock, SESSION_PLAN_MAGIC, t.plan_blob)
            self.plan_uploaded = True
        self.sock.settimeout(None)
        for name, target in (("reader", self._reader_loop), ("flusher", self._flush_loop)):
            thread = threading.Thread(
                target=target, name=f"fabric-{self.label}-{name}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    # -- outbound -------------------------------------------------------

    def enqueue(self, slot: int, msg_bytes: bytes) -> None:
        if self.dead:
            raise BrokenPipeError(f"session to {self.label} is down")
        self.out_q.put((slot, msg_bytes))

    def _flush_loop(self) -> None:
        while True:
            items = [self.out_q.get()]
            while True:
                try:
                    items.append(self.out_q.get(block=False))
                except queue.Empty:
                    break
            stop = _FLUSH_SENTINEL in items
            self._send_items([i for i in items if i is not _FLUSH_SENTINEL])
            if stop:
                return

    def _send_items(self, items) -> None:
        if not items or self.dead:
            return
        try:
            with self.send_lock:
                send_session_frame(
                    self.sock, SESSION_BATCH_MAGIC, wire.encode_batch(items)
                )
                self.frames_sent += 1
                self.messages_sent += len(items)
        except (OSError, BrokenPipeError):
            self._mark_dead()

    def send_control(self, op: str, slot: int = 0) -> None:
        if self.dead:
            raise BrokenPipeError(f"session to {self.label} is down")
        try:
            with self.send_lock:
                send_session_frame(
                    self.sock, SESSION_CONTROL_MAGIC, wire.encode_control(op, slot)
                )
        except (OSError, BrokenPipeError):
            self._mark_dead()
            raise BrokenPipeError(f"session to {self.label} is down") from None

    # -- inbound --------------------------------------------------------

    def _reader_loop(self) -> None:
        try:
            while True:
                tag, payload = recv_session_frame(self.sock)
                if tag == SESSION_BATCH_MAGIC:
                    for slot, msg_bytes in wire.decode_batch(payload):
                        with self.lock:
                            proc = self.slots.get(slot)
                        if proc is not None:
                            try:
                                proc.delivery_w.send_bytes(msg_bytes)
                            except (BrokenPipeError, OSError):
                                pass
                elif tag == SESSION_CONTROL_MAGIC:
                    op, slot, pid = wire.decode_control(payload)
                    if op == "up":
                        with self.lock:
                            proc = self.slots.get(slot)
                        if proc is not None:
                            proc.pid = pid
                            proc.up.set()
                    elif op == "down":
                        self._close_slot(slot)
        except wire.SESSION_ERRORS:
            # Includes a CRC-valid but malformed frame — the session
            # dies (finally:), the pump thread exits cleanly instead of
            # with a traceback.
            pass
        finally:
            self._mark_dead()

    def _close_slot(self, slot: int) -> None:
        with self.lock:
            proc = self.slots.pop(slot, None)
        if proc is not None:
            proc.mark_down()

    def _mark_dead(self) -> None:
        if self.dead:
            return
        self.dead = True
        with self.lock:
            procs = list(self.slots.values())
            self.slots.clear()
        for proc in procs:  # host loss = an EOF on every slot
            proc.mark_down()
        self.out_q.put(_FLUSH_SENTINEL)

    # -- slots ----------------------------------------------------------

    def open_slot(self, ctx):
        with self.lock:
            slot = next(self._slot_ids)
        delivery_r, delivery_w = ctx.Pipe(duplex=False)
        proc = _SlotProc(delivery_w, lambda: self._kill_slot(slot, proc))
        with self.lock:
            self.slots[slot] = proc
        self.send_control("spawn", slot)
        if not proc.up.wait(timeout=_SPAWN_ACK_TIMEOUT_S) or self.dead:
            self._close_slot(slot)
            raise BrokenPipeError(f"{self.label} never acked slot {slot}")
        channel = _SlotChannel(self, slot, delivery_r)
        return WorkerEndpoint(proc, channel, host=self.label, on_kill=proc.terminate)

    def _kill_slot(self, slot: int, proc: _SlotProc) -> None:
        # Loopback best effort first (prompt even if the relay is busy),
        # then the protocol kill so the host reaps and acks the slot.
        if proc.pid is not None:
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, OSError):
                pass
        try:
            self.send_control("kill", slot)
        except BrokenPipeError:
            self._close_slot(slot)

    # -- teardown -------------------------------------------------------

    def close(self, *, retire_host: bool) -> None:
        if not self.dead and self.sock is not None:
            try:
                self.send_control("bye")
            except BrokenPipeError:
                pass
        self._mark_dead()
        if self.sock is not None:
            # shutdown() first: it sends the FIN now, even while the
            # reader thread is still blocked in recv on this socket.
            with suppress(OSError):
                self.sock.shutdown(socket.SHUT_RDWR)
            with suppress(OSError):
                self.sock.close()
        if retire_host and self.host_proc is not None:
            # Retired the way an operator retires a host: SIGTERM drains
            # it, SIGKILL past the timeout.
            self.host_proc.terminate()
            self.host_proc.join(timeout=2.0)
            if self.host_proc.is_alive():
                self.host_proc.kill()
                self.host_proc.join(timeout=1.0)


class TcpTransport(Transport):
    """Socket transport: worker slots multiplexed over per-host
    sessions (see module docstring)."""

    name = "tcp"

    def __init__(
        self,
        ctx,
        *,
        plan_blob: bytes,
        signature: str,
        cfg,
        hosts=1,
        authkey: bytes | None = None,
    ) -> None:
        super().__init__()
        self._host_specs = parse_host_specs(hosts)
        num_hosts = len(self._host_specs)
        self._ctx = ctx
        self.plan_blob = plan_blob  # EPL1, uploaded to every host lacking it
        self.signature = signature
        self.cfg = cfg
        self.num_hosts = num_hosts
        if authkey is None and any(s is not None for s in self._host_specs):
            raise ValueError(
                "remote tcp hosts need a shared authkey file "
                "(ServingConfig.authkey_file) — a random per-run key "
                "cannot reach a host this process did not start"
            )
        self._hosts: list[_HostHandle | None] = [None] * num_hosts
        self._host_ids = iter(range(10**9))
        self._slot_ids = iter(range(10**9))
        self._assign = 0
        self._lock = threading.Lock()
        # Host bring-up (fork + TCP handshake + spawn-ack waits) runs
        # under a per-host lock, never the transport lock, so one hung
        # host can only stall spawns aimed at *its* index — close() and
        # other hosts' spawns stay responsive.
        self._index_locks = [threading.Lock() for _ in range(num_hosts)]
        # Per-transport session secret: a forked host gets it in memory,
        # so it authenticates sessions without ever crossing the wire
        # (see wire.auth_server/auth_client).  A remote host cannot —
        # both ends load the same keyfile (ServingConfig.authkey_file /
        # worker_host --authkey-file).
        self._authkey = authkey if authkey is not None else os.urandom(32)
        self.sessions_opened = 0
        self.hosts_spawned = 0
        self.plan_uploads = 0
        # Drop-finalizer over the concrete host-handle list (handles
        # hold only a weakref back, so this is not a cycle): a pool
        # that is GC'd without close() still retires its host processes
        # and sockets.  close() empties the same list in place.
        self._finalizer = weakref.finalize(
            self, TcpTransport._finalize_hosts, self._hosts
        )

    @staticmethod
    def _finalize_hosts(hosts: list) -> None:
        for index, handle in enumerate(hosts):
            hosts[index] = None
            if handle is not None:
                try:
                    handle.close(retire_host=True)
                except Exception:  # noqa: BLE001 — finalizers must not raise
                    pass

    # -- host lifecycle -------------------------------------------------

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

    def _ensure_host(self, index: int) -> _HostHandle:
        handle = self._hosts[index]
        if handle is not None and not handle.dead:
            return handle
        spec = self._host_specs[index]
        reuse = None
        if handle is not None:
            # Session died; reconnect to the host process when it is
            # still alive (plan cache warm — no re-upload), refork when
            # the host itself is gone.  A remote host has no local
            # process either way: reattach is always a fresh dial, and
            # a dead one surfaces as a dial failure below (falling
            # through the caller's requeue/retry/breaker path).
            if handle.host_proc is not None and handle.host_proc.is_alive():
                reuse = handle
            handle.close(retire_host=reuse is None)
        fresh = _HostHandle(self, next(self._host_ids), spec=spec)
        try:
            fresh.start(reuse=reuse)
        except (ConnectionError, OSError, WireFormatError):
            if reuse is None:
                raise
            # The host raced its own death: is_alive() said yes but the
            # listener is already gone (a SIGKILLed process is not
            # waitable for a moment).  Retire it and fork a fresh host.
            fresh.close(retire_host=True)
            fresh = _HostHandle(self, next(self._host_ids), spec=spec)
            fresh.start()
        self.sessions_opened += 1
        if fresh.plan_uploaded:
            self.plan_uploads += 1
        self._hosts[index] = fresh
        if self._closed:
            # close() ran while this bring-up held the index lock past
            # close()'s acquire timeout: tear the fresh host down
            # instead of leaking it past the pool's lifetime.
            self._hosts[index] = None
            fresh.close(retire_host=True)
            raise RuntimeError("tcp transport is closed")
        return fresh

    # -- Transport surface ----------------------------------------------

    def spawn(self):
        with self._lock:
            if self._closed:
                raise RuntimeError("tcp transport is closed")
            index = self._assign % self.num_hosts
            self._assign += 1
        # Bring-up happens under the per-index lock only: a hung host
        # blocks spawns for its own index, not close() or other hosts.
        with self._index_locks[index]:
            if self._closed:
                raise RuntimeError("tcp transport is closed")
            spec = self._host_specs[index]
            # Forked hosts get one immediate retry (a freshly dead
            # host).  Remote hosts get a redial *window*: a supervised
            # remote host that just crashed needs a moment to be
            # restarted on the same address, and "killed then brought
            # back" is its normal operating mode, not an edge case.
            deadline = time.monotonic() + (
                _REMOTE_REDIAL_WINDOW_S if spec is not None else 0.0
            )
            last_error: Exception | None = None
            attempts = 0
            while True:
                attempts += 1
                try:
                    handle = self._ensure_host(index)
                    return handle.open_slot(self._ctx)
                except wire.VersionMismatch:
                    raise  # redialing cannot change what the peer speaks
                except (
                    BrokenPipeError,
                    ConnectionError,
                    OSError,
                    WireFormatError,
                ) as exc:
                    last_error = exc
                    if self._hosts[index] is not None:
                        self._hosts[index]._mark_dead()
                if attempts >= 2 and time.monotonic() >= deadline:
                    break
                if self._closed:
                    break
                if spec is not None:
                    time.sleep(_REMOTE_REDIAL_INTERVAL_S)
            if spec is not None:
                from repro.runtime.faults import HostUnreachable

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
        for index, index_lock in enumerate(self._index_locks):
            # Best-effort acquire: a spawn stuck in bring-up holds this
            # lock for up to two handshake timeouts; _closed is already
            # set, so that spawn tears its own host down on completion
            # (see _ensure_host) and close() need not wait for it.
            acquired = index_lock.acquire(timeout=1.0)
            try:
                handle, self._hosts[index] = self._hosts[index], None
            finally:
                if acquired:
                    index_lock.release()
            if handle is not None:
                handle.close(retire_host=True)
        self._finalizer.detach()

    def host_pids(self) -> list[int]:
        return [
            h.host_pid
            for h in self._hosts
            if h is not None and h.host_pid is not None
        ]

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
            "frames_sent": sum(
                h.frames_sent for h in self._hosts if h is not None
            ),
            "messages_sent": sum(
                h.messages_sent for h in self._hosts if h is not None
            ),
        }

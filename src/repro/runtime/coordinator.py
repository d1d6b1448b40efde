"""TCP worker-host coordination for the serving fabric.

This module implements the ``tcp`` transport of
:mod:`repro.runtime.transport`: worker *slots* hosted by a
:class:`WorkerHostServer` process and multiplexed over one
length-prefixed CRC-framed socket **session** per host.  Every layout
on that socket — the frame container, the ``FHL1`` hello / ``FHA1`` ack
/ ``FPL1`` plan upload handshake, ``FBT1`` message batches, ``FCT1``
control ops — is defined in :mod:`repro.runtime.wire` (normative spec:
``docs/formats.md``); this module only moves the bytes.  The worker
messages inside a session are relayed opaque — every ciphertext still
rides an ``ENV1`` envelope, faults are still ``FLT1``, spans still
``TRC1`` — so swapping pipe for socket changes byte transport, never
semantics.

What this module owns is the session's *behaviour*: before any frame,
both directions answer an HMAC-SHA256 challenge over a per-transport
random ``authkey`` that the host inherits through fork (it never
crosses the wire), in the style of :mod:`multiprocessing.connection` —
another local user connecting to the loopback port is disconnected
before a single frame is parsed; and the host caches deserialized plans
by content fingerprint across sessions, so a reconnect (or a second
pool) never re-uploads a plan the host already holds.

Fault model: the host relay consults the session chaos plan at the
``host_relay`` site (disconnect, partial frame, slow host).  Any
session loss — injected or real — closes every slot's parent-side
delivery pipe, which the executor's I/O loop observes as worker EOFs
and handles with its existing requeue/retry/quarantine machinery; the
transport then restarts the host (or reconnects) on the next spawn.
Requests are therefore never lost and never duplicated across host
loss, exactly as for single-process crashes.

Hosts come in two flavours behind one session protocol:

* **fork-local** (the default): :meth:`TcpTransport._fork_host` forks a
  :class:`WorkerHostServer` that binds an ephemeral loopback port and
  inherits the plan, the evaluator, and the authkey through fork.
* **standalone** (:mod:`repro.runtime.worker_host`): a separate OS
  process with *no* fork relationship, started via its own CLI
  entrypoint, possibly on another machine.  It inherits nothing: the
  authkey comes from a file, the evaluator is rebuilt from the
  :class:`~repro.runtime.wire.HostEnv` shipped inside the ``FHL1``
  hello's worker config, and the plan always arrives as ``FPL1`` bytes
  (``ship_plan=True`` is mandatory — no fork-warmed plan to fall back to).
  ``ServingConfig(hosts=("tcp://host:port", ...))`` dials such hosts;
  reconnecting to a surviving one reuses its fingerprint-deduped plan
  cache, so a reattach never re-uploads the plan.

Contract (see ``docs/architecture.md``): a fork-local host can never
outlive the coordinator (it watches for re-parenting); slot workers
run the verbatim :func:`repro.runtime.executor._worker_loop`; nothing
host-side caches ciphertext bytes beyond the in-flight frame.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import queue
import signal
import socket
import threading
import time
import weakref
from multiprocessing.connection import wait as connection_wait

from repro.ckks.serialization import WireFormatError, pack_frame
from repro.runtime import wire
from repro.runtime.transport import Transport, WorkerEndpoint
from repro.runtime.wire import (
    SESSION_ACK_MAGIC,
    SESSION_BATCH_MAGIC,
    SESSION_CONTROL_MAGIC,
    SESSION_HELLO_MAGIC,
    SESSION_PLAN_MAGIC,
    recv_exact,
    recv_session_frame,
    send_session_frame,
)

__all__ = [
    "WorkerHostServer",
    "TcpTransport",
    "parse_host_specs",
]

_HANDSHAKE_TIMEOUT_S = 30.0
_SPAWN_ACK_TIMEOUT_S = 30.0

# How long spawn() keeps redialing a remote (standalone) host before
# giving up with HostUnreachable.  A supervised host that was just
# killed needs interpreter-startup time to rebind its address; refusing
# instantly would turn every restart into a tripped breaker.
_REMOTE_REDIAL_WINDOW_S = 15.0
_REMOTE_REDIAL_INTERVAL_S = 0.25

_AUTH_NONCE_BYTES = 32

# What ends a *session* — never the host process (its warm plan cache
# must survive), never a pump thread without marking the session dead:
# the socket failing (a handshake TimeoutError is an OSError too), or a
# CRC-valid frame that decodes malformed.
_SESSION_ERRORS = (OSError, EOFError, WireFormatError)


def parse_host_specs(hosts) -> list[tuple[str, int] | None]:
    """Normalize ``ServingConfig.hosts`` into per-index host specs.

    ``int`` means that many fork-local hosts.  A sequence mixes
    ``"local"`` (fork a loopback host) with ``"tcp://host:port"``
    (dial a standalone host started via
    ``python -m repro.runtime.worker_host``).
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


# ---------------------------------------------------------------------------
# Session authentication
#
# The listener is loopback-only, but loopback is shared with every
# other local user: without authentication, anyone who can connect to
# the port gets to spawn workers and feed the host's decoders.  So
# before a single frame is parsed, both sides must prove knowledge of a
# per-transport random
# authkey that the host inherited through fork — the same model as
# multiprocessing.connection's deliver/answer_challenge, mutual here.
# ---------------------------------------------------------------------------


def _auth_digest(authkey: bytes, role: bytes, nonce: bytes) -> bytes:
    return hmac.new(authkey, role + b":" + nonce, hashlib.sha256).digest()


def _auth_server(sock: socket.socket, authkey: bytes) -> bool:
    """Host side: challenge the connecting peer; returns False (never
    raises into frame parsing) when the peer fails to authenticate."""
    nonce = os.urandom(_AUTH_NONCE_BYTES)
    sock.sendall(nonce)
    reply = recv_exact(sock, 2 * _AUTH_NONCE_BYTES)
    digest = reply[:_AUTH_NONCE_BYTES]
    peer_nonce = reply[_AUTH_NONCE_BYTES:]
    if not hmac.compare_digest(digest, _auth_digest(authkey, b"coordinator", nonce)):
        return False
    sock.sendall(_auth_digest(authkey, b"host", peer_nonce))
    return True


def _auth_client(sock: socket.socket, authkey: bytes) -> None:
    """Coordinator side: answer the host's challenge, then verify the
    host's proof (mutual — a squatter on a recycled port fails too)."""
    nonce = recv_exact(sock, _AUTH_NONCE_BYTES)
    my_nonce = os.urandom(_AUTH_NONCE_BYTES)
    sock.sendall(_auth_digest(authkey, b"coordinator", nonce) + my_nonce)
    proof = recv_exact(sock, _AUTH_NONCE_BYTES)
    if not hmac.compare_digest(proof, _auth_digest(authkey, b"host", my_nonce)):
        raise WireFormatError("worker host failed session authentication")


# ---------------------------------------------------------------------------
# Worker host (child-process side)
# ---------------------------------------------------------------------------


class _SessionDrop(Exception):
    """Internal: tear the current session down (injected or real)."""


class WorkerHostServer:
    """One worker host: accepts coordinator sessions, forks slot workers.

    Runs as the body of a forked daemon process
    (:meth:`TcpTransport._fork_host` starts it) — or, with
    ``plan=None``, as the engine of a *standalone* host
    (:class:`repro.runtime.worker_host.StandaloneWorkerHost`) that
    rebuilds its evaluator from the hello's :class:`HostEnv` and only
    accepts shipped plans.  One session is served at a time; the plan
    cache (``fingerprint -> deserialized plan``) persists across
    sessions, which is what makes reconnect-after-drop cheap and keeps
    plan shipping once-per-host.
    """

    def __init__(self, plan, host_label: str, authkey: bytes) -> None:
        self.plan = plan  # fork-inherited (None for a standalone host)
        self.host_label = host_label
        self.authkey = authkey  # fork-inherited or loaded from a file
        self._plans_by_sig: dict[str, object] = {}
        self._listener: socket.socket | None = None
        # Session-scoped state the lifecycle hooks below consult: slots
        # with a request in flight, the drain flag (a standalone host's
        # SIGTERM sets it), and the last time the session moved bytes.
        self._busy: set[int] = set()
        self._draining = False
        self._last_activity = time.monotonic()

    # -- lifecycle hooks (no-ops for fork-local hosts) ------------------

    def _extra_wait_conns(self) -> list:
        """Extra waitables multiplexed into the session loop (a
        standalone host adds its listener so a second coordinator can be
        refused while a session is live)."""
        return []

    def _on_extra_ready(self, ready) -> None:
        """Handle one ready extra waitable."""

    def _session_tick(self) -> None:
        """Called once per session-loop iteration; raise
        :class:`_SessionDrop` to end the session (idle timeout, drain
        complete)."""

    # -- process body ---------------------------------------------------

    def run(self, report_conn) -> None:
        # The host forks slot workers, so it cannot be daemonic itself;
        # instead it watches for re-parenting (coordinator death) and
        # exits on its own — no orphaned hosts, no leaked ports.
        coordinator_pid = os.getppid()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)
        listener.settimeout(1.0)
        self._listener = listener
        report_conn.send_bytes(
            wire.encode_host_report(listener.getsockname()[1], os.getpid())
        )
        report_conn.close()
        try:
            while True:
                try:
                    sock, _ = listener.accept()
                except TimeoutError:
                    if os.getppid() != coordinator_pid:
                        break  # orphaned: the coordinator is gone
                    continue
                if self._serve_connection(sock):
                    break  # coordinator said bye: host retires
        finally:
            listener.close()

    # -- one session ----------------------------------------------------

    def _serve_connection(self, sock: socket.socket) -> bool:
        """Authenticate one accepted connection and serve its session;
        True on graceful bye.  An unauthenticated peer can hold the
        (one-session-at-a-time) accept loop for at most the handshake
        timeout, and is disconnected before any frame is parsed."""
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(_HANDSHAKE_TIMEOUT_S)
        try:
            return _auth_server(sock, self.authkey) and self._serve_session(sock)
        except _SESSION_ERRORS:
            return False
        finally:
            try:
                sock.close()
            except OSError:
                pass

    def _negotiate(self, sock: socket.socket):
        tag, payload = recv_session_frame(sock)
        if tag != SESSION_HELLO_MAGIC:
            raise WireFormatError(f"expected FHL1, got {tag!r}")
        try:
            ship_plan, sig, cfg = wire.decode_hello(payload)
        except wire.VersionMismatch as exc:
            # Rule 2 of docs/formats.md "Versioning": tell the peer both
            # versions before hanging up, so it can name them too.
            send_session_frame(
                sock,
                SESSION_CONTROL_MAGIC,
                wire.encode_control("version", exc.ours, exc.theirs),
            )
            raise
        if ship_plan:
            need_plan = sig not in self._plans_by_sig
            send_session_frame(
                sock, SESSION_ACK_MAGIC, wire.encode_ack(need_plan, os.getpid())
            )
            if need_plan:
                tag, blob = recv_session_frame(sock)
                if tag != SESSION_PLAN_MAGIC:
                    raise WireFormatError(f"expected FPL1, got {tag!r}")
                from repro.runtime.plan_io import deserialize_plan

                try:
                    self._plans_by_sig[sig] = deserialize_plan(
                        blob, self._session_evaluator(cfg)
                    )
                except WireFormatError:
                    raise
                except Exception as exc:  # noqa: BLE001 — a session boundary
                    # Crafted plan bytes (or a HostEnv no evaluator can
                    # be built from) can raise nearly anything: all of
                    # it ends the session, never the host.
                    raise WireFormatError(
                        f"undecodable plan upload: {exc!r}"
                    ) from exc
            session_plan = self._plans_by_sig[sig]
        else:
            # Warm-fork mode: serve the fork-inherited plan (loopback
            # only; a genuinely remote host requires ship_plan=True).
            if self.plan is None:
                raise WireFormatError(
                    "standalone worker host has no fork-inherited plan; "
                    "the coordinator must use ship_plan=True"
                )
            send_session_frame(
                sock, SESSION_ACK_MAGIC, wire.encode_ack(False, os.getpid())
            )
            session_plan = self.plan
        return session_plan, cfg

    def _session_evaluator(self, cfg):
        """The evaluator plans deserialize against: fork-inherited when
        the host was forked, rebuilt from the hello's :class:`HostEnv`
        on a standalone host (which inherited nothing)."""
        if self.plan is not None:
            return self.plan.evaluator
        if cfg.env is None:
            raise WireFormatError(
                "standalone worker host needs a HostEnv in the hello's "
                "worker config to rebuild its evaluator"
            )
        return cfg.env.build_evaluator()

    def _serve_session(self, sock: socket.socket) -> bool:
        """Serve one coordinator session; returns True on graceful bye."""
        import multiprocessing as mp

        from repro.runtime.executor import _worker_loop

        session_plan, cfg = self._negotiate(sock)
        sock.settimeout(None)  # steady state: blocking frame reads
        ctx = mp.get_context("fork")
        workers: dict[int, tuple] = {}  # slot -> (proc, conn)
        self._busy.clear()
        self._last_activity = time.monotonic()
        bye = False
        try:
            while True:
                self._session_tick()
                # A draining host stops reading coordinator frames (no
                # new requests) but keeps relaying in-flight replies.
                conns = [w[1] for w in workers.values()]
                if not self._draining:
                    conns = [sock, *conns]
                extra = self._extra_wait_conns()
                ready_list = connection_wait(conns + extra, timeout=0.2)
                out: list[tuple[int, bytes]] = []
                for ready in ready_list:
                    if ready is sock:
                        bye = self._on_session_frame(
                            sock, workers, ctx, session_plan, cfg, _worker_loop
                        )
                        if bye:
                            raise _SessionDrop()
                        continue
                    if any(ready is item for item in extra):
                        self._on_extra_ready(ready)
                        continue
                    slot = next(
                        (s for s, w in workers.items() if w[1] is ready), None
                    )
                    if slot is None:
                        continue
                    try:
                        msg_bytes = ready.recv_bytes()
                    except (EOFError, OSError):
                        self._reap_slot(workers, slot)
                        self._busy.discard(slot)
                        send_session_frame(
                            sock,
                            SESSION_CONTROL_MAGIC,
                            wire.encode_control("down", slot),
                        )
                        continue
                    if wire.peek_message(msg_bytes)[0] in (wire.OK, wire.ERR):
                        self._busy.discard(slot)  # reply for the request
                    out.append((slot, msg_bytes))
                if out:
                    self._relay_upstream(sock, out, cfg.chaos)
                    self._last_activity = time.monotonic()
        except _SessionDrop:
            pass
        except _SESSION_ERRORS:
            # Includes a CRC-valid but malformed frame: drop the
            # session, keep the host (and its warm plan cache) alive
            # for the reconnect.
            pass
        finally:
            self._busy.clear()
            for slot in list(workers):
                self._kill_slot(workers, slot)
        return bye

    def _on_session_frame(
        self, sock, workers, ctx, session_plan, cfg, worker_loop
    ) -> bool:
        tag, payload = recv_session_frame(sock)
        self._last_activity = time.monotonic()
        if tag == SESSION_BATCH_MAGIC:
            for slot, msg_bytes in wire.decode_batch(payload):
                entry = workers.get(slot)
                if entry is None:
                    continue
                is_request = wire.peek_message(msg_bytes)[0] == wire.REQUEST
                try:
                    entry[1].send_bytes(msg_bytes)
                except (BrokenPipeError, OSError):
                    self._reap_slot(workers, slot)
                    continue
                if is_request:
                    self._busy.add(slot)
            return False
        if tag == SESSION_CONTROL_MAGIC:
            op, slot, _ = wire.decode_control(payload)
            if op == "spawn":
                parent_conn, child_conn = ctx.Pipe()
                # Fork-inherited fds the slot worker must NOT keep: the
                # session socket and listener (a dead host's session
                # would otherwise never EOF at the coordinator while a
                # worker still holds them), its OWN parent-side pipe end
                # (holding both ends of one socketpair would mask the
                # host-death EOF forever), and the sibling workers'
                # parent ends (which would likewise mask sibling EOFs).
                inherited = [self._listener, sock, parent_conn]
                inherited += [w[1] for w in workers.values()]
                proc = ctx.Process(
                    target=_slot_entry,
                    args=(worker_loop, session_plan, child_conn, cfg, inherited),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                workers[slot] = (proc, parent_conn)
                send_session_frame(
                    sock,
                    SESSION_CONTROL_MAGIC,
                    wire.encode_control("up", slot, proc.pid),
                )
            elif op == "kill":
                if slot in workers:
                    self._kill_slot(workers, slot)
                    send_session_frame(
                        sock,
                        SESSION_CONTROL_MAGIC,
                        wire.encode_control("down", slot),
                    )
            elif op == "bye":
                return True
            return False
        raise WireFormatError(f"unexpected session frame {tag!r}")

    def _relay_upstream(self, sock, out, chaos) -> None:
        """Ship collected worker messages upstream as one batch,
        consulting the ``host_relay`` chaos site per reply."""
        clean: list[tuple[int, bytes]] = []
        deferred: list[tuple[int, bytes]] = []  # reorder: ship last
        for slot, msg_bytes in out:
            action = None
            if chaos is not None:
                kind, req_id, attempt, _ = wire.peek_message(msg_bytes)
                if kind in (wire.OK, wire.ERR):
                    action = chaos.decide("host_relay", req_id, attempt)
            if action is None:
                clean.append((slot, msg_bytes))
                continue
            if action.kind in ("slow", "asym"):
                # "asym" models asymmetric latency: only this upstream
                # relay is delayed, never the downstream dispatch.
                time.sleep(action.duration_s)
                clean.append((slot, msg_bytes))
                continue
            if action.kind == "reorder":
                # The reply is overtaken by everything else relayed this
                # round (and ships in its own trailing frame).
                deferred.append((slot, msg_bytes))
                continue
            if action.kind == "duplicate":
                # Delivered twice, intact: the executor's stale-attempt
                # dedup must drop the second copy.
                clean.append((slot, msg_bytes))
                clean.append((slot, msg_bytes))
                continue
            # disconnect / partial: flush what precedes the fault, then
            # break the session (the faulted reply is lost either way —
            # its request re-runs under the executor's retry budget).
            if clean:
                send_session_frame(
                    sock, SESSION_BATCH_MAGIC, wire.encode_batch(clean)
                )
            if action.kind == "partial":
                frame = pack_frame(
                    SESSION_BATCH_MAGIC, wire.encode_batch([(slot, msg_bytes)])
                )
                sock.sendall(frame[: max(9, len(frame) // 2)])
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            raise _SessionDrop()
        if clean:
            send_session_frame(sock, SESSION_BATCH_MAGIC, wire.encode_batch(clean))
        if deferred:
            send_session_frame(
                sock, SESSION_BATCH_MAGIC, wire.encode_batch(deferred)
            )

    @staticmethod
    def _reap_slot(workers: dict, slot: int) -> None:
        proc, conn = workers.pop(slot, (None, None))
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        if proc is not None:
            proc.join(timeout=1.0)

    @staticmethod
    def _kill_slot(workers: dict, slot: int) -> None:
        proc, conn = workers.pop(slot, (None, None))
        if proc is not None and proc.pid is not None:
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, OSError):
                pass
            proc.join(timeout=2.0)
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass


def _slot_entry(worker_loop, plan, conn, cfg, inherited) -> None:
    """Slot-worker process body: drop fork-inherited host fds (session
    socket, listener, sibling pipes) before entering the worker loop, so
    host death propagates as EOF instead of being masked by workers."""
    for obj in inherited:
        if obj is None:
            continue
        try:
            obj.close()
        except OSError:
            pass
    worker_loop(plan, conn, cfg)


def _host_main(plan, host_label: str, report_conn, authkey: bytes) -> None:
    WorkerHostServer(plan, host_label, authkey).run(report_conn)


# ---------------------------------------------------------------------------
# Coordinator (parent side)
# ---------------------------------------------------------------------------


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
        self.spec = spec  # None = fork-local; (host, port) = standalone
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

    def start(self, *, reuse_proc=None) -> None:
        t = self.transport
        if self.spec is not None:
            # Standalone host: dial its published address.  There is no
            # process to fork or reuse — "reconnect" IS a fresh dial,
            # and the host's plan cache makes it replan-free.
            address, self.port = self.spec, self.spec[1]
        elif reuse_proc is not None and reuse_proc.is_alive():
            self.host_proc = reuse_proc
            self.host_pid = reuse_proc.pid
            self.port = t._ports.get(id(reuse_proc))
            address = ("127.0.0.1", self.port)
        else:
            self.host_proc, self.port = t._fork_host(self.label)
            self.host_pid = self.host_proc.pid
            t._ports[id(self.host_proc)] = self.port
            address = ("127.0.0.1", self.port)
        self.sock = socket.create_connection(
            address, timeout=_HANDSHAKE_TIMEOUT_S
        )
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        _auth_client(self.sock, self._authkey)
        ship = t.plan_blob is not None
        send_session_frame(
            self.sock,
            SESSION_HELLO_MAGIC,
            wire.encode_hello(ship, t.signature, t.cfg),
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
            self.host_pid = remote_pid  # standalone host's own report
        if ship and need_plan:
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
        except _SESSION_ERRORS:
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
            try:
                self.sock.close()
            except OSError:
                pass
        if retire_host and self.host_proc is not None:
            self.host_proc.join(timeout=2.0)
            if self.host_proc.is_alive():
                try:
                    os.kill(self.host_proc.pid, signal.SIGKILL)
                except (ProcessLookupError, OSError):
                    pass
                self.host_proc.join(timeout=1.0)


class TcpTransport(Transport):
    """Socket transport: worker slots multiplexed over per-host
    sessions (see module docstring)."""

    name = "tcp"

    def __init__(
        self,
        ctx,
        *,
        plan,
        cfg,
        plan_blob: bytes | None = None,
        hosts=1,
        authkey: bytes | None = None,
    ) -> None:
        super().__init__()
        self._host_specs = parse_host_specs(hosts)
        num_hosts = len(self._host_specs)
        self._ctx = ctx
        self.plan = plan
        self.cfg = cfg
        self.plan_blob = plan_blob
        self.signature = getattr(plan, "signature", "")
        self.num_hosts = num_hosts
        if any(s is not None for s in self._host_specs):
            if authkey is None:
                raise ValueError(
                    "remote tcp hosts need a shared authkey file "
                    "(ServingConfig.authkey_file) — a fork-inherited "
                    "random key cannot cross a process-tree boundary"
                )
            if plan_blob is None:
                raise ValueError(
                    "remote tcp hosts need ship_plan=True: a standalone "
                    "host has no fork-inherited plan to fall back to"
                )
        self._hosts: list[_HostHandle | None] = [None] * num_hosts
        self._host_ids = iter(range(10**9))
        self._slot_ids = iter(range(10**9))
        self._assign = 0
        self._ports: dict[int, int] = {}
        self._lock = threading.Lock()
        # Host bring-up (fork + TCP handshake + spawn-ack waits) runs
        # under a per-host lock, never the transport lock, so one hung
        # host can only stall spawns aimed at *its* index — close() and
        # other hosts' spawns stay responsive.
        self._index_locks = [threading.Lock() for _ in range(num_hosts)]
        # Per-transport session secret; forked hosts inherit it through
        # process memory, so it authenticates sessions without ever
        # crossing the wire (see _auth_server/_auth_client).  Standalone
        # hosts cannot inherit — both ends load the same keyfile
        # (ServingConfig.authkey_file / worker_host --authkey-file).
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
        report_r, report_w = self._ctx.Pipe(duplex=False)
        # daemon=False: the host forks slot workers (daemonic processes
        # may not have children); it self-terminates when orphaned.
        proc = self._ctx.Process(
            target=_host_main,
            args=(self.plan, label, report_w, self._authkey),
            daemon=False,
        )
        proc.start()
        report_w.close()
        if not report_r.poll(_HANDSHAKE_TIMEOUT_S):
            proc.terminate()
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
            # the host itself is gone.  A standalone host has no local
            # process either way: reattach is always a fresh dial, and
            # a dead one surfaces as a dial failure below (falling
            # through the caller's requeue/retry/breaker path).
            if handle.host_proc is not None and handle.host_proc.is_alive():
                reuse = handle.host_proc
            handle.close(retire_host=reuse is None and spec is None)
        fresh = _HostHandle(self, next(self._host_ids), spec=spec)
        try:
            fresh.start(reuse_proc=reuse)
        except (ConnectionError, OSError, WireFormatError):
            if reuse is None:
                raise
            # The host raced its own death: is_alive() said yes but the
            # listener is already gone (a SIGKILLed process is not
            # waitable for a moment).  Retire it and fork a fresh host.
            fresh.close(retire_host=True)
            fresh = _HostHandle(self, next(self._host_ids), spec=spec)
            fresh.start(reuse_proc=None)
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
            # Fork-local hosts get one immediate retry (a freshly dead
            # host).  Remote hosts get a redial *window*: a supervised
            # standalone host that just crashed needs a moment to be
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

"""TCP worker-host coordination for the serving fabric.

This module implements the ``tcp`` transport of
:mod:`repro.runtime.transport`: worker *slots* hosted by a
:class:`WorkerHostServer` process and multiplexed over one
length-prefixed CRC-framed socket **session** per host.  The session
protocol reuses the repo's frame container
(:func:`repro.ckks.serialization.pack_frame`: ``tag(4) | u32 length |
payload | u32 crc32``) and carries the *unchanged* worker protocol
messages — every ciphertext still rides an ``ENV1`` envelope, faults
are still ``FLT1``, spans still ``TRC1`` — so swapping pipe for socket
changes byte transport, never semantics.

Session shape (documented normatively in ``docs/formats.md``):

0. both directions, before any frame: an HMAC-SHA256
   challenge/response over a per-transport random ``authkey`` that the
   host inherits through fork (it never crosses the wire), in the
   style of :mod:`multiprocessing.connection`.  The host refuses to
   parse a single session frame — in particular, to unpickle anything
   — from a peer that cannot answer the challenge, so another local
   user connecting to the loopback port gets silently disconnected
   instead of a pickle deserialization surface (CWE-502);
1. coordinator → host: ``FHL1`` HELLO (version, flags, plan
   fingerprint, pickled worker config);
2. host → coordinator: ``FHA1`` HELLO-ACK (``need_plan``, host pid) —
   the host caches deserialized plans by content fingerprint across
   sessions, so a reconnect (or a second pool) never re-uploads a plan
   the host already holds;
3. coordinator → host, only when asked: ``FPL1`` (the ``EPL1`` plan
   bytes);
4. both directions, steady state: ``FBT1`` batches (multiple worker
   messages per frame, amortizing framing + syscalls) and ``FCT1``
   control ops (slot spawn/kill, up/down notifications, session bye).

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
  :class:`HostEnv` shipped inside the ``FHL1`` hello's worker config,
  and the plan always arrives as ``FPL1`` bytes (``ship_plan=True`` is
  mandatory — there is no fork-warmed plan to fall back to).
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
import pickle
import queue
import signal
import socket
import struct
import threading
import time
import weakref
from dataclasses import dataclass
from multiprocessing.connection import wait as connection_wait

from repro.ckks.serialization import WireFormatError, pack_frame, read_frame

__all__ = [
    "SESSION_HELLO_MAGIC",
    "SESSION_ACK_MAGIC",
    "SESSION_PLAN_MAGIC",
    "SESSION_BATCH_MAGIC",
    "SESSION_CONTROL_MAGIC",
    "SESSION_VERSION",
    "MAX_SESSION_FRAME_BYTES",
    "HostEnv",
    "WorkerHostServer",
    "TcpTransport",
    "encode_batch",
    "decode_batch",
    "parse_host_specs",
    "recv_session_frame",
    "send_session_frame",
]

SESSION_HELLO_MAGIC = b"FHL1"
SESSION_ACK_MAGIC = b"FHA1"
SESSION_PLAN_MAGIC = b"FPL1"
SESSION_BATCH_MAGIC = b"FBT1"
SESSION_CONTROL_MAGIC = b"FCT1"
SESSION_VERSION = 1

_HELLO_FLAG_SHIP_PLAN = 1  # coordinator holds EPL1 bytes for this plan

_HANDSHAKE_TIMEOUT_S = 30.0
_SPAWN_ACK_TIMEOUT_S = 30.0

# How long spawn() keeps redialing a remote (standalone) host before
# giving up with HostUnreachable.  A supervised host that was just
# killed needs interpreter-startup time to rebind its address; refusing
# instantly would turn every restart into a tripped breaker.
_REMOTE_REDIAL_WINDOW_S = 15.0
_REMOTE_REDIAL_INTERVAL_S = 0.25

# Hard cap on one session frame's payload.  The length prefix is read
# before the CRC can vouch for it, so a corrupted u32 must not be able
# to demand a multi-GiB allocation; the largest legitimate frame is an
# FPL1 plan upload (tens of MiB), so 256 MiB is generous headroom.
MAX_SESSION_FRAME_BYTES = 256 << 20

_AUTH_NONCE_BYTES = 32

# Everything a malformed-but-CRC-valid (or simply hostile) session
# frame can raise while being sliced and unpickled.  Any of these ends
# the *session* — never the host process (its warm plan cache must
# survive) and never a pump thread without marking the session dead.
# WireFormatError subclasses ValueError.
_SESSION_ERRORS = (
    ConnectionError,
    OSError,
    EOFError,
    ValueError,
    IndexError,
    KeyError,
    struct.error,
    pickle.UnpicklingError,
)


@dataclass(frozen=True)
class HostEnv:
    """Everything a *standalone* worker host needs to rebuild an
    evaluator from scratch: the CKKS parameters and the exact RNS prime
    chain (both plain picklable values, a few hundred bytes total).

    Rides inside the ``FHL1`` hello's pickled worker config — the frame
    protocol is unchanged; fork-local hosts ignore it (their evaluator
    is fork-inherited).  The plan's backend is *not* here: ``EPL1``
    blobs carry their own backend in the META frame.
    """

    params: object  # CkksParameters
    primes: tuple  # tuple[NttFriendlyPrime, ...]

    def build_evaluator(self):
        from repro.ckks.evaluator import Evaluator
        from repro.rns.basis import RnsBasis

        basis = RnsBasis(degree=self.params.degree, primes=tuple(self.primes))
        return Evaluator(self.params, basis)


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
# Frame plumbing
# ---------------------------------------------------------------------------


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("session socket closed mid-frame")
        buf += chunk
    return bytes(buf)


def recv_session_frame(
    sock: socket.socket, max_bytes: int = MAX_SESSION_FRAME_BYTES
) -> tuple[bytes, bytes]:
    """Read one CRC-framed session frame; raises on EOF/truncation and
    :class:`WireFormatError` on CRC mismatch or an oversized length
    prefix (all end the session)."""
    header = _recv_exact(sock, 8)
    (length,) = struct.unpack_from("<I", header, 4)
    if length > max_bytes:
        raise WireFormatError(
            f"session frame claims {length} bytes, above the "
            f"{max_bytes}-byte cap (corrupt length prefix?)"
        )
    body = _recv_exact(sock, length + 4)
    tag, payload, _ = read_frame(header + body, 0)
    return tag, payload


def send_session_frame(sock: socket.socket, tag: bytes, payload: bytes) -> None:
    sock.sendall(pack_frame(tag, payload))


def _session_loads(data: bytes):
    """Unpickle a session message with a typed failure mode.

    ``pickle.loads`` on crafted (CRC-valid but malformed) bytes can
    raise nearly anything — ``AttributeError``, ``TypeError``,
    ``ImportError`` — not just ``UnpicklingError``.  Funneling every
    failure into :class:`WireFormatError` (a ``ValueError``, hence in
    ``_SESSION_ERRORS``) guarantees a malformed message ends the
    *session*, never the host process or a pump thread.
    """
    try:
        return pickle.loads(data)
    except Exception as exc:  # noqa: BLE001 — see docstring
        raise WireFormatError(f"undecodable session message: {exc!r}") from exc


def encode_batch(items: list[tuple[int, bytes]]) -> bytes:
    """``FBT1`` payload: ``u32 count | count x (u32 slot | u32 len |
    pickled worker message)``."""
    parts = [struct.pack("<I", len(items))]
    for slot, msg_bytes in items:
        parts.append(struct.pack("<II", slot, len(msg_bytes)))
        parts.append(msg_bytes)
    return b"".join(parts)


def decode_batch(payload: bytes) -> list[tuple[int, bytes]]:
    (count,) = struct.unpack_from("<I", payload, 0)
    offset = 4
    items: list[tuple[int, bytes]] = []
    for _ in range(count):
        slot, length = struct.unpack_from("<II", payload, offset)
        offset += 8
        items.append((slot, payload[offset : offset + length]))
        offset += length
    if offset != len(payload):
        raise WireFormatError("FBT1 batch payload has trailing bytes")
    return items


def _encode_hello(ship_plan: bool, signature: str, cfg) -> bytes:
    sig = signature.encode()
    cfg_blob = pickle.dumps(cfg)
    flags = _HELLO_FLAG_SHIP_PLAN if ship_plan else 0
    return (
        struct.pack("<HBH", SESSION_VERSION, flags, len(sig))
        + sig
        + struct.pack("<I", len(cfg_blob))
        + cfg_blob
    )


def _decode_hello(payload: bytes) -> tuple[int, int, str, object]:
    version, flags, sig_len = struct.unpack_from("<HBH", payload, 0)
    offset = 5
    sig = payload[offset : offset + sig_len].decode()
    offset += sig_len
    (cfg_len,) = struct.unpack_from("<I", payload, offset)
    offset += 4
    cfg = _session_loads(payload[offset : offset + cfg_len])
    return version, flags, sig, cfg


# ---------------------------------------------------------------------------
# Session authentication
#
# The listener is loopback-only, but loopback is shared with every
# other local user: without authentication, anyone who can connect to
# the port gets a pickle.loads of attacker bytes in the host process
# (arbitrary code execution, CWE-502).  So before a single frame is
# parsed, both sides must prove knowledge of a per-transport random
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
    reply = _recv_exact(sock, 2 * _AUTH_NONCE_BYTES)
    digest = reply[:_AUTH_NONCE_BYTES]
    peer_nonce = reply[_AUTH_NONCE_BYTES:]
    if not hmac.compare_digest(digest, _auth_digest(authkey, b"coordinator", nonce)):
        return False
    sock.sendall(_auth_digest(authkey, b"host", peer_nonce))
    return True


def _auth_client(sock: socket.socket, authkey: bytes) -> None:
    """Coordinator side: answer the host's challenge, then verify the
    host's proof (mutual — a squatter on a recycled port fails too)."""
    nonce = _recv_exact(sock, _AUTH_NONCE_BYTES)
    my_nonce = os.urandom(_AUTH_NONCE_BYTES)
    sock.sendall(_auth_digest(authkey, b"coordinator", nonce) + my_nonce)
    proof = _recv_exact(sock, _AUTH_NONCE_BYTES)
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
        report_conn.send((listener.getsockname()[1], os.getpid()))
        report_conn.close()
        try:
            while True:
                try:
                    sock, _ = listener.accept()
                except TimeoutError:
                    if os.getppid() != coordinator_pid:
                        break  # orphaned: the coordinator is gone
                    continue
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                # Bounded handshake: an unauthenticated peer can hold
                # the (one-session-at-a-time) accept loop for at most
                # the handshake timeout, and is disconnected before any
                # frame — hence any pickle — is parsed.
                sock.settimeout(_HANDSHAKE_TIMEOUT_S)
                try:
                    try:
                        authed = _auth_server(sock, self.authkey)
                    except (TimeoutError, *_SESSION_ERRORS):
                        authed = False
                    if authed and self._serve_session(sock):
                        break  # coordinator said bye: host retires
                finally:
                    try:
                        sock.close()
                    except OSError:
                        pass
        finally:
            listener.close()

    # -- one session ----------------------------------------------------

    def _negotiate(self, sock: socket.socket):
        tag, payload = recv_session_frame(sock)
        if tag != SESSION_HELLO_MAGIC:
            raise WireFormatError(f"expected FHL1, got {tag!r}")
        version, flags, sig, cfg = _decode_hello(payload)
        if version != SESSION_VERSION:
            raise WireFormatError(f"unsupported session version {version}")
        if flags & _HELLO_FLAG_SHIP_PLAN:
            need_plan = sig not in self._plans_by_sig
            send_session_frame(
                sock,
                SESSION_ACK_MAGIC,
                struct.pack("<BI", int(need_plan), os.getpid()),
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
                except Exception as exc:  # noqa: BLE001 — see _session_loads
                    # Crafted plan bytes or a crafted HostEnv can raise
                    # nearly anything; all of it is a wire error that
                    # ends the session, never the host.
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
                sock, SESSION_ACK_MAGIC, struct.pack("<BI", 0, os.getpid())
            )
            session_plan = self.plan
        return session_plan, cfg

    def _session_evaluator(self, cfg):
        """The evaluator plans deserialize against: fork-inherited when
        the host was forked, rebuilt from the hello's :class:`HostEnv`
        on a standalone host (which inherited nothing)."""
        if self.plan is not None:
            return self.plan.evaluator
        env = getattr(cfg, "env", None)
        if env is None:
            raise WireFormatError(
                "standalone worker host needs a HostEnv in the hello's "
                "worker config to rebuild its evaluator"
            )
        return env.build_evaluator()

    def _serve_session(self, sock: socket.socket) -> bool:
        """Serve one coordinator session; returns True on graceful bye."""
        import multiprocessing as mp

        from repro.runtime.executor import _worker_loop

        try:
            session_plan, cfg = self._negotiate(sock)
        except (TimeoutError, *_SESSION_ERRORS):
            return False
        sock.settimeout(None)  # steady state: blocking frame reads
        ctx = mp.get_context("fork")
        chaos = getattr(cfg, "chaos", None)
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
                        msg = ready.recv()
                    except (EOFError, OSError):
                        self._reap_slot(workers, slot)
                        self._busy.discard(slot)
                        out.append((slot, pickle.dumps(("down", slot))))
                        continue
                    if isinstance(msg, tuple) and len(msg) == 5:
                        self._busy.discard(slot)  # reply for the request
                    out.append((slot, pickle.dumps(msg)))
                if out:
                    self._relay_upstream(sock, out, chaos)
                    self._last_activity = time.monotonic()
        except _SessionDrop:
            pass
        except _SESSION_ERRORS:
            # Includes struct.error / UnpicklingError from a CRC-valid
            # but malformed frame: drop the session, keep the host (and
            # its warm plan cache) alive for the reconnect.
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
            for slot, msg_bytes in decode_batch(payload):
                entry = workers.get(slot)
                if entry is None:
                    continue
                msg = _session_loads(msg_bytes)
                try:
                    entry[1].send(msg)
                except (BrokenPipeError, OSError):
                    self._reap_slot(workers, slot)
                    continue
                if isinstance(msg, tuple) and len(msg) == 4:
                    self._busy.add(slot)  # a request is now in flight
            return False
        if tag == SESSION_CONTROL_MAGIC:
            op = _session_loads(payload)
            if not isinstance(op, tuple) or not op:
                raise WireFormatError(f"malformed session control op {op!r}")
            if op[0] == "spawn":
                slot = op[1]
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
                    pickle.dumps(("up", slot, proc.pid)),
                )
            elif op[0] == "kill":
                if op[1] in workers:
                    self._kill_slot(workers, op[1])
                    send_session_frame(
                        sock,
                        SESSION_CONTROL_MAGIC,
                        pickle.dumps(("down", op[1])),
                    )
            elif op[0] == "bye":
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
                msg = pickle.loads(msg_bytes)
                if isinstance(msg, tuple) and len(msg) == 5:
                    action = chaos.decide("host_relay", msg[1], msg[2])
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
                send_session_frame(sock, SESSION_BATCH_MAGIC, encode_batch(clean))
            if action.kind == "partial":
                frame = pack_frame(
                    SESSION_BATCH_MAGIC, encode_batch([(slot, msg_bytes)])
                )
                sock.sendall(frame[: max(9, len(frame) // 2)])
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            raise _SessionDrop()
        if clean:
            send_session_frame(sock, SESSION_BATCH_MAGIC, encode_batch(clean))
        if deferred:
            send_session_frame(sock, SESSION_BATCH_MAGIC, encode_batch(deferred))

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

    def __init__(self) -> None:
        self.pid: int | None = None
        self.up = threading.Event()
        self.down = threading.Event()

    def is_alive(self) -> bool:
        return self.up.is_set() and not self.down.is_set()

    def join(self, timeout: float | None = None) -> None:
        self.down.wait(timeout)

    def terminate(self) -> None:
        if self._kill is not None:
            self._kill()

    _kill = None  # bound by the host handle at slot-open time


class _SlotChannel:
    """Connection-like handle for a remote slot: sends enqueue into the
    host session's flusher; receives read a local delivery pipe fed by
    the session reader thread (so the executor's ``connection_wait``
    loop works unchanged)."""

    def __init__(self, handle: "_HostHandle", slot: int, delivery_r) -> None:
        self._handle = handle
        self._slot = slot
        self._delivery_r = delivery_r

    def send(self, msg) -> None:
        self._handle.enqueue(self._slot, msg)

    def recv(self):
        return self._delivery_r.recv()

    def poll(self, timeout=0.0) -> bool:
        return self._delivery_r.poll(timeout)

    def fileno(self) -> int:
        return self._delivery_r.fileno()

    def close(self) -> None:
        try:
            self._delivery_r.close()
        except OSError:
            pass


class _SlotState:
    __slots__ = ("proc", "delivery_w")

    def __init__(self, proc: _SlotProc, delivery_w) -> None:
        self.proc = proc
        self.delivery_w = delivery_w


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
        self.slots: dict[int, _SlotState] = {}
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
            _encode_hello(ship, t.signature, t.cfg),
        )
        tag, payload = recv_session_frame(self.sock)
        if tag == SESSION_CONTROL_MAGIC:
            op = _session_loads(payload)
            if isinstance(op, tuple) and op and op[0] == "busy":
                raise ConnectionError(
                    f"worker host at {address[0]}:{address[1]} is already "
                    "serving another coordinator"
                )
            raise WireFormatError(f"expected FHA1, got control op {op!r}")
        if tag != SESSION_ACK_MAGIC:
            raise WireFormatError(f"expected FHA1, got {tag!r}")
        need_plan, remote_pid = struct.unpack_from("<BI", payload, 0)
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

    def enqueue(self, slot: int, msg) -> None:
        if self.dead:
            raise BrokenPipeError(f"session to {self.label} is down")
        self.out_q.put((slot, pickle.dumps(msg)))

    def _flush_loop(self) -> None:
        while True:
            item = self.out_q.get()
            if item is _FLUSH_SENTINEL:
                return
            items = [item]
            while True:
                try:
                    nxt = self.out_q.get(block=False)
                except queue.Empty:
                    break
                if nxt is _FLUSH_SENTINEL:
                    items = [i for i in items if i is not _FLUSH_SENTINEL]
                    self._send_items(items)
                    return
                items.append(nxt)
            self._send_items(items)

    def _send_items(self, items) -> None:
        if not items or self.dead:
            return
        try:
            with self.send_lock:
                send_session_frame(
                    self.sock, SESSION_BATCH_MAGIC, encode_batch(items)
                )
                self.frames_sent += 1
                self.messages_sent += len(items)
        except (OSError, BrokenPipeError):
            self._mark_dead()

    def send_control(self, op: tuple) -> None:
        if self.dead:
            raise BrokenPipeError(f"session to {self.label} is down")
        try:
            with self.send_lock:
                send_session_frame(
                    self.sock, SESSION_CONTROL_MAGIC, pickle.dumps(op)
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
                    for slot, msg_bytes in decode_batch(payload):
                        msg = _session_loads(msg_bytes)
                        if (
                            isinstance(msg, tuple)
                            and len(msg) == 2
                            and msg[0] == "down"
                        ):
                            self._close_slot(msg[1])
                            continue
                        with self.lock:
                            state = self.slots.get(slot)
                        if state is not None:
                            try:
                                state.delivery_w.send(msg)
                            except (BrokenPipeError, OSError):
                                pass
                elif tag == SESSION_CONTROL_MAGIC:
                    op = _session_loads(payload)
                    if not isinstance(op, tuple) or not op:
                        raise WireFormatError(
                            f"malformed session control op {op!r}"
                        )
                    if op[0] == "up":
                        with self.lock:
                            state = self.slots.get(op[1])
                        if state is not None:
                            state.proc.pid = op[2]
                            state.proc.up.set()
                    elif op[0] == "down":
                        self._close_slot(op[1])
        except _SESSION_ERRORS:
            # Includes struct.error / UnpicklingError from a CRC-valid
            # but malformed frame — the session dies (finally:), the
            # pump thread exits cleanly instead of with a traceback.
            pass
        finally:
            self._mark_dead()

    def _close_slot(self, slot: int) -> None:
        with self.lock:
            state = self.slots.pop(slot, None)
        if state is None:
            return
        state.proc.down.set()
        try:
            state.delivery_w.close()
        except OSError:
            pass

    def _mark_dead(self) -> None:
        if self.dead:
            return
        self.dead = True
        # Closing every delivery writer surfaces host loss to the
        # executor as per-worker EOFs — its standard crash path.
        with self.lock:
            slots = list(self.slots.items())
            self.slots.clear()
        for _, state in slots:
            state.proc.down.set()
            try:
                state.delivery_w.close()
            except OSError:
                pass
        self.out_q.put(_FLUSH_SENTINEL)

    # -- slots ----------------------------------------------------------

    def open_slot(self, ctx):
        from repro.runtime.transport import WorkerEndpoint

        with self.lock:
            slot = next(self._slot_ids)
        delivery_r, delivery_w = ctx.Pipe(duplex=False)
        proc = _SlotProc()
        state = _SlotState(proc, delivery_w)
        with self.lock:
            self.slots[slot] = state
        proc._kill = lambda: self._kill_slot(slot, proc)
        self.send_control(("spawn", slot))
        if not proc.up.wait(timeout=_SPAWN_ACK_TIMEOUT_S) or self.dead:
            self._close_slot(slot)
            raise BrokenPipeError(f"{self.label} never acked slot {slot}")
        channel = _SlotChannel(self, slot, delivery_r)
        return WorkerEndpoint(
            proc,
            channel,
            host=self.label,
            on_kill=lambda: self._kill_slot(slot, proc),
        )

    def _kill_slot(self, slot: int, proc: _SlotProc) -> None:
        # Loopback best effort first (prompt even if the relay is busy),
        # then the protocol kill so the host reaps and acks the slot.
        if proc.pid is not None:
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, OSError):
                pass
        try:
            self.send_control(("kill", slot))
        except BrokenPipeError:
            self._close_slot(slot)

    # -- teardown -------------------------------------------------------

    def close(self, *, retire_host: bool) -> None:
        if not self.dead and self.sock is not None:
            try:
                self.send_control(("bye",))
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


class TcpTransport:
    """Socket transport: worker slots multiplexed over per-host
    sessions (see module docstring).  Duck-types
    :class:`repro.runtime.transport.Transport`."""

    name = "tcp"

    def __init__(
        self,
        ctx,
        *,
        plan,
        cfg,
        plan_blob: bytes | None = None,
        signature: str = "",
        hosts=1,
        chaos=None,
        authkey: bytes | None = None,
    ) -> None:
        from repro.runtime import transport as _transport

        self._host_specs = parse_host_specs(hosts)
        num_hosts = len(self._host_specs)
        self._ctx = ctx
        self.plan = plan
        self.cfg = cfg
        self.plan_blob = plan_blob
        self.signature = signature or getattr(plan, "signature", "")
        self.num_hosts = num_hosts
        self.chaos = chaos
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
        self._closed = False
        self.sessions_opened = 0
        self.hosts_spawned = 0
        self.plan_uploads = 0
        _transport._LIVE_TRANSPORTS.add(self)
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
        port, _pid = report_r.recv()
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

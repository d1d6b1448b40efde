"""Worker hosts: the process that owns slot workers behind a tcp session.

One class, :class:`WorkerHost`, is every worker host.  The ``tcp``
transport forks one per ``"local"`` host, bound to ``127.0.0.1:0``;
``python -m repro.runtime.worker_host --bind HOST:PORT --authkey-file
KEYFILE`` runs the same class for an operator, possibly on another
machine.  Either way the **plan** arrives through the session as
``FPL1`` bytes, is deserialized against an evaluator rebuilt from the
:class:`~repro.runtime.wire.HostEnv` in the ``FHL1`` hello's worker
config, lowered once (for a fused session) before any slot forks, and
cached by content fingerprint across sessions, so a coordinator that
reconnects never re-uploads.  The session **authkey** is a constructor
argument: a per-transport random key handed over in memory for a
forked host, a file both ends share (``ServingConfig(authkey_file=...)``)
for the CLI.

Lifecycle, the same for every host:

* a session ``bye`` ends the session, never the host;
* while one session is live, a second coordinator is authenticated and
  then refused with an ``FCT1`` ``busy`` control frame — one session at
  a time stays an invariant, and the refusal is explicit rather than a
  hang;
* ``--idle-timeout-s`` drops a session whose coordinator has gone
  quiet, freeing the host for the next attach;
* SIGTERM/SIGINT **drain**: the host stops reading new requests, keeps
  relaying in-flight replies until no slot is busy (bounded by
  ``--drain-timeout-s``), then closes the session and exits — how an
  operator stops a host, and how the coordinator retires one it forked;
* a host the coordinator forked also exits once orphaned
  (``owner_pid``), so it never outlives its coordinator.

Contract (see ``docs/serving.md``): one session at a time; slot workers
run the verbatim :func:`repro.runtime.executor._worker_loop`; nothing
host-side caches ciphertext bytes beyond the in-flight frame.
"""

from __future__ import annotations

import argparse
import errno
import multiprocessing as mp
import os
import signal
import socket
import sys
import time
from contextlib import suppress
from multiprocessing.connection import wait as connection_wait

from repro.ckks.serialization import WireFormatError, pack_frame
from repro.runtime import wire
from repro.runtime.wire import (
    SESSION_ACK_MAGIC,
    SESSION_BATCH_MAGIC,
    SESSION_CONTROL_MAGIC,
    SESSION_ERRORS,
    SESSION_HELLO_MAGIC,
    SESSION_PLAN_MAGIC,
    recv_session_frame,
    send_session_frame,
)

__all__ = [
    "MIN_AUTHKEY_BYTES",
    "WorkerHost",
    "load_authkey",
    "main",
]

# An HMAC key shorter than this is a typo, not a secret.
MIN_AUTHKEY_BYTES = 16


def load_authkey(path: str) -> bytes:
    """Read the shared session authkey from ``path``: the raw bytes
    minus one trailing newline (``\\n`` or ``\\r\\n``) and nothing else —
    a random key may begin or end with any byte, whitespace included."""
    with open(path, "rb") as fh:
        key = fh.read()
    if key.endswith(b"\n"):
        key = key[:-2] if key.endswith(b"\r\n") else key[:-1]
    if len(key) < MIN_AUTHKEY_BYTES:
        raise ValueError(
            f"authkey file {path!r} holds {len(key)} bytes; need at "
            f"least {MIN_AUTHKEY_BYTES}"
        )
    return key


class _SessionDrop(Exception):
    """Internal: tear the current session down (injected or real)."""


class WorkerHost:
    """A worker host: accepts coordinator sessions, forks slot workers
    (see module docstring).  The plan cache (``fingerprint -> lowered
    plan``) persists across sessions, which is what makes
    reconnect-after-drop cheap and keeps plan shipping once per host."""

    def __init__(
        self,
        bind: tuple[str, int],
        authkey: bytes,
        *,
        label: str | None = None,
        idle_timeout_s: float | None = None,
        drain_timeout_s: float = 10.0,
        owner_pid: int | None = None,
    ) -> None:
        self.label = label or f"{bind[0]}:{bind[1]}"
        self.authkey = authkey
        self.port: int | None = None
        self._bind_addr = bind
        self._idle_timeout_s = idle_timeout_s
        self._drain_timeout_s = drain_timeout_s
        self._owner_pid = owner_pid  # exit once re-parented away from it
        self._plans_by_sig: dict[str, object] = {}
        self._listener: socket.socket | None = None
        # Session-scoped state: slots with a request in flight, the drain
        # flag (SIGTERM sets it), and the last time the session moved bytes.
        self._busy: set[int] = set()
        self._draining = False
        self._drain_deadline: float | None = None
        self._last_activity = time.monotonic()

    # -- lifecycle -------------------------------------------------------

    def bind(self) -> int:
        """Bind the listener; returns the bound port.  Raises
        :class:`OSError` (e.g. ``EADDRINUSE``) untranslated — the CLI
        turns it into its user-facing message."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        # A supervised host restarting after a crash must be able to
        # rebind its published address while old connections sit in
        # TIME_WAIT; a *live* conflicting listener still raises
        # EADDRINUSE with SO_REUSEADDR set.
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind(self._bind_addr)
        except OSError:
            listener.close()
            raise
        listener.listen(4)
        listener.settimeout(0.5)
        self._listener = listener
        self.port = listener.getsockname()[1]
        return self.port

    def request_drain(self) -> None:
        """Begin a graceful exit: finish in-flight requests, relay their
        replies, then stop.  Safe from a signal handler or another
        thread: it sets a flag and shuts the listener, which wakes a
        blocked accept and refuses new dials."""
        self._draining = True
        if self._listener is not None:
            with suppress(OSError):
                self._listener.shutdown(socket.SHUT_RDWR)

    def run(self, publish=None) -> None:
        """A host process's body: drain on SIGTERM/SIGINT, then
        ``publish(port)`` once listening, then :meth:`serve_forever`."""
        if self._listener is None:
            self.bind()
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, lambda *_: self.request_drain())
        if publish is not None:
            publish(self.port)
        self.serve_forever()

    def serve_forever(self) -> None:
        """Accept and serve sessions one at a time until drained (or
        orphaned); ``bye`` ends a session, never the host."""
        if self._listener is None:
            self.bind()
        listener = self._listener
        try:
            while not self._draining:
                try:
                    sock, _ = listener.accept()
                except TimeoutError:
                    if self._owner_pid not in (None, os.getppid()):
                        break  # orphaned: the coordinator is gone
                    continue
                except OSError:
                    break  # shut by request_drain()
                self._serve_connection(sock)
        finally:
            listener.close()

    # -- one session ----------------------------------------------------

    def _serve_connection(self, sock: socket.socket) -> None:
        """Authenticate one accepted connection and serve its session.
        An unauthenticated peer can hold the (one-session-at-a-time)
        accept loop for at most the handshake timeout, and is
        disconnected before any frame is parsed."""
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(wire.HANDSHAKE_TIMEOUT_S)
        try:
            if wire.auth_server(sock, self.authkey):
                self._serve_session(sock)
        except SESSION_ERRORS:
            pass
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
            sig, cfg = wire.decode_hello(payload)
        except wire.VersionMismatch as exc:
            # Rule 2 of docs/formats.md "Versioning": tell the peer both
            # versions before hanging up, so it can name them too.
            send_session_frame(
                sock,
                SESSION_CONTROL_MAGIC,
                wire.encode_control("version", exc.ours, exc.theirs),
            )
            raise
        plan = self._plans_by_sig.get(sig)
        send_session_frame(
            sock, SESSION_ACK_MAGIC, wire.encode_ack(plan is None, os.getpid())
        )
        if plan is None:
            tag, blob = recv_session_frame(sock)
            if tag != SESSION_PLAN_MAGIC:
                raise WireFormatError(f"expected FPL1, got {tag!r}")
        if plan is None and cfg.env is None:
            raise WireFormatError("hello carries no HostEnv")
        try:
            if plan is None:
                from repro.runtime.plan_io import deserialize_plan

                evaluator = cfg.env.build_evaluator()
                plan = self._plans_by_sig[sig] = deserialize_plan(blob, evaluator)
            if cfg.fused:
                # Lower once, here, before any slot forks: every slot
                # (respawns too) inherits the replayer, so no request
                # pays lowering inside its deadline or evaluate span.
                plan.fused()
        except WireFormatError:
            raise
        except Exception as exc:  # noqa: BLE001 — a session boundary
            # Crafted plan bytes (or a HostEnv no evaluator can be
            # built from) can raise nearly anything:
            # all of it ends the session, never the host.
            raise WireFormatError(f"undecodable plan upload: {exc!r}") from exc
        return plan, cfg

    def _session_over(self) -> bool:
        """Whether the live session should end now: drained (or out of
        drain time), or its coordinator went quiet past the idle timeout."""
        now = time.monotonic()
        if self._draining:
            if self._drain_deadline is None:
                self._drain_deadline = now + self._drain_timeout_s
            return not self._busy or now >= self._drain_deadline
        idle = self._idle_timeout_s
        return idle is not None and now - self._last_activity > idle

    def _serve_session(self, sock: socket.socket) -> None:
        session_plan, cfg = self._negotiate(sock)
        sock.settimeout(None)  # steady state: blocking frame reads
        ctx = mp.get_context("fork")
        workers: dict[int, tuple] = {}  # slot -> (proc, conn)
        self._busy.clear()
        self._last_activity = time.monotonic()
        try:
            while not self._session_over():
                # A draining host stops reading coordinator frames (no
                # new requests) but keeps relaying in-flight replies.
                conns = [w[1] for w in workers.values()]
                if not self._draining:
                    conns += [sock, self._listener]
                ready_list = connection_wait(conns, timeout=0.2)
                out: list[tuple[int, bytes]] = []
                if sock in ready_list:
                    # Before the listener: a coordinator that said bye
                    # and redialed finds its new session accepted.
                    if self._on_session_frame(sock, workers, ctx, session_plan, cfg):
                        return
                for ready in ready_list:
                    if ready is sock:
                        continue
                    if ready is self._listener:
                        self._refuse_busy()
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
        finally:
            # Every way out — bye, drain, idle, a session error, which
            # includes a CRC-valid but malformed frame — keeps the host
            # (and its warm plan cache) alive for the next attach.
            self._busy.clear()
            for slot in list(workers):
                self._kill_slot(workers, slot)

    def _refuse_busy(self) -> None:
        """A second coordinator dialed in while a session is live: prove
        we share its key, then refuse explicitly.  Unauthenticated peers
        are dropped without a frame, exactly as in the accept loop."""
        try:
            intruder, _ = self._listener.accept()
        except OSError:
            return
        intruder.settimeout(wire.HANDSHAKE_TIMEOUT_S)
        try:
            if wire.auth_server(intruder, self.authkey):
                send_session_frame(
                    intruder,
                    SESSION_CONTROL_MAGIC,
                    wire.encode_control("busy", os.getpid()),
                )
        except SESSION_ERRORS:
            pass
        finally:
            try:
                intruder.close()
            except OSError:
                pass

    def _on_session_frame(self, sock, workers, ctx, session_plan, cfg) -> bool:
        """Handle one coordinator frame; True when it was ``bye``."""
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
        if tag != SESSION_CONTROL_MAGIC:
            raise WireFormatError(f"unexpected session frame {tag!r}")
        op, slot, _ = wire.decode_control(payload)
        if op == "spawn":
            from repro.runtime.executor import _worker_loop

            parent_conn, child_conn = ctx.Pipe()
            # Fork-inherited fds the slot worker must NOT keep: the
            # session socket and listener (a dead host's session would
            # otherwise never EOF at the coordinator while a worker
            # still holds them), its OWN parent-side pipe end (holding
            # both ends of one socketpair would mask the host-death EOF
            # forever), and the sibling workers' parent ends (which
            # would likewise mask sibling EOFs).
            inherited = [self._listener, sock, parent_conn]
            inherited += [w[1] for w in workers.values()]
            proc = ctx.Process(
                target=_slot_entry,
                args=(_worker_loop, session_plan, child_conn, cfg, inherited),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            workers[slot] = (proc, parent_conn)
            send_session_frame(
                sock, SESSION_CONTROL_MAGIC, wire.encode_control("up", slot, proc.pid)
            )
        elif op == "kill" and slot in workers:
            self._kill_slot(workers, slot)
            self._busy.discard(slot)  # its reply will never come: don't drain for it
            send_session_frame(
                sock, SESSION_CONTROL_MAGIC, wire.encode_control("down", slot)
            )
        return op == "bye"

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
    host death propagates as EOF instead of being masked by workers.
    The host's drain handler is dropped too: it would only flag this
    process's dead copy of the host.  SIGTERM kills the slot again; a
    terminal's Ctrl-C, which reaches the whole process group, is left
    to the host, whose drain still relays the slot's in-flight reply."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for obj in inherited:
        if obj is None:
            continue
        try:
            obj.close()
        except OSError:
            pass
    worker_loop(plan, conn, cfg)


def _parse_bind(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ValueError(
            f"--bind expects HOST:PORT (port 0 for ephemeral), got {text!r}"
        )
    return host, int(port)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.worker_host",
        description=(
            "Run a serving-fabric worker host (no fork relationship to "
            "the coordinator; see docs/serving.md)."
        ),
    )
    parser.add_argument(
        "--bind",
        default="127.0.0.1:0",
        help="address to listen on, HOST:PORT (port 0 = ephemeral; "
        "pair with --port-file so the coordinator can find it)",
    )
    parser.add_argument(
        "--authkey-file",
        required=True,
        help="file holding the shared session authkey (>= "
        f"{MIN_AUTHKEY_BYTES} raw bytes; the coordinator passes the "
        "same file as ServingConfig.authkey_file)",
    )
    parser.add_argument(
        "--port-file",
        default=None,
        help="write the bound port here (atomically) once listening",
    )
    parser.add_argument(
        "--label", default=None, help="host label for telemetry/logs"
    )
    parser.add_argument(
        "--idle-timeout-s",
        type=float,
        default=None,
        help="drop a session after this long without coordinator "
        "traffic (default: never)",
    )
    parser.add_argument(
        "--drain-timeout-s",
        type=float,
        default=10.0,
        help="on SIGTERM, wait at most this long for in-flight "
        "requests before exiting",
    )
    args = parser.parse_args(argv)
    try:
        bind = _parse_bind(args.bind)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        authkey = load_authkey(args.authkey_file)
    except (OSError, ValueError) as exc:
        print(f"worker-host: bad --authkey-file: {exc}", file=sys.stderr)
        return 2
    host = WorkerHost(
        bind,
        authkey,
        label=args.label,
        idle_timeout_s=args.idle_timeout_s,
        drain_timeout_s=args.drain_timeout_s,
    )
    try:
        host.bind()
    except OSError as exc:
        detail = (
            "address already in use"
            if exc.errno == errno.EADDRINUSE
            else str(exc)
        )
        print(
            f"worker-host: cannot bind {bind[0]}:{bind[1]}: {detail}",
            file=sys.stderr,
        )
        return 2

    def publish(port: int) -> None:
        print(f"worker-host: listening on {bind[0]}:{port}", flush=True)
        if args.port_file is not None:
            # Atomic write: a test (or launcher) polling for the file
            # never reads a half-written port.
            tmp = f"{args.port_file}.tmp"
            with open(tmp, "w") as fh:
                fh.write(f"{port}\n")
            os.replace(tmp, args.port_file)

    host.run(publish)
    return 0


if __name__ == "__main__":
    sys.exit(main())

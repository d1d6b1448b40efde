"""Worker hosts: the process that forks ``tcp`` slot workers.

One class, :class:`WorkerHost`, is every worker host.  The ``tcp``
transport forks one per ``"local"`` host, bound to ``127.0.0.1:0``;
``python -m repro.runtime.worker_host --bind HOST:PORT --authkey-file
KEYFILE`` runs the same class for an operator, possibly on another
machine.

Every worker slot is its own connection.  The host authenticates it
over the **authkey** (a constructor argument: a per-transport random
key handed over in memory for a forked host, a file both ends share —
``ServingConfig(authkey_file=...)`` — for the CLI) and reads its
``FHL1`` hello.  The **plan** arrives as ``FPL1`` bytes only when the
host's cache lacks the hello's fingerprint — the BLAKE2b of those
``EPL1`` bytes, checked on upload — so a coordinator that reconnects
never re-uploads, and two plans never share a name.  It is deserialized
against an evaluator rebuilt from the hello's
:class:`~repro.runtime.wire.HostEnv` and lowered once (for a fused
session) before any slot forks.  Then the host forks the slot worker on
the socket, names its pid in one ``FCT1`` ``up`` frame, and never reads
that connection again: the slot runs the verbatim
:func:`repro.runtime.executor._worker_loop` on it, as a ``pipe`` worker
does on its pipe.

Lifecycle, the same for every host:

* one coordinator at a time: every hello carries its coordinator's
  session id, and while slots of one session run, a dial carrying
  another is authenticated and then refused with an ``FCT1`` ``busy``
  frame — explicit rather than a hang;
* the host keeps its copy of each slot socket only to watch it for the
  coordinator's hang-up, on which it SIGKILLs and reaps the slot (a
  SIGSTOPped one too) — closing a slot's socket is how a coordinator
  kills it.  When a slot dies, the host closes its copy, which is what
  the coordinator reads as EOF; when the host dies, every slot exits;
* ``--idle-timeout-s`` is each slot socket's timeout: a slot whose
  coordinator has sent nothing for that long exits;
* SIGTERM/SIGINT **drain**: the host stops accepting and shuts the read
  side of every slot socket, so each slot finishes its in-flight
  request, sends the reply and exits; past ``--drain-timeout-s`` the
  rest are SIGKILLed — how an operator stops a host, and how the
  coordinator retires one it forked;
* a host the coordinator forked also exits once orphaned
  (``owner_pid``), so it never outlives its coordinator.

Contract (see ``docs/serving.md``): nothing host-side caches ciphertext
bytes; a handshake runs inline (bounded by ``HANDSHAKE_TIMEOUT_S``), so
a silent dial can delay new slot attaches, never the replies of slots
already running.
"""

from __future__ import annotations

import argparse
import errno
import multiprocessing as mp
import os
import select
import signal
import socket
import sys
import threading
import time
from contextlib import suppress

from repro.ckks.serialization import WireFormatError
from repro.runtime import wire
from repro.runtime.executor import _worker_loop
from repro.runtime.transport import SocketChannel
from repro.runtime.wire import (
    SESSION_ACK_MAGIC,
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
    "parse_address",
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


def parse_address(text: str, *, dial: bool = False) -> tuple[str, int]:
    """``"HOST:PORT"`` as ``(host, port)``; a port above 65535 — or port
    0 (ephemeral) in an address to ``dial`` — is a :class:`ValueError`."""
    host, sep, port = text.rpartition(":")
    lowest = 1 if dial else 0
    if not (sep and host and port.isdigit() and lowest <= int(port) <= 65535):
        raise ValueError(
            f"expected HOST:PORT with a port in {lowest}..65535, got {text!r}"
        )
    return host, int(port)


class WorkerHost:
    """A worker host: authenticates slot connections and forks a slot
    worker on each (see module docstring).  The plan cache
    (``fingerprint -> lowered plan``) persists across sessions, which is
    what makes reconnect-after-drop cheap and keeps plan shipping once
    per host."""

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
        self._plans: dict[str, object] = {}  # plan fingerprint -> plan
        self._listener: socket.socket | None = None
        self._slots: list[tuple] = []  # (process, this host's copy of its socket)
        self._session: int | None = None  # the live coordinator's session id
        self._draining = False
        self._drained: list[socket.socket] = []  # copies a drain holds open

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
        """Begin a graceful exit: every slot finishes its in-flight
        request and sends the reply, then the host stops.  Safe from a
        signal handler or another thread: it sets a flag the serve loop
        acts on within a poll period."""
        self._draining = True

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
        """Attach slots and watch them until drained (or orphaned)."""
        if self._listener is None:
            self.bind()
        listener = self._listener
        # Every slot closes its copy of the write end, so a slot's read
        # end sees EOF exactly when this process is gone.
        life_r, life_w = os.pipe()
        drain_deadline = None
        try:
            while True:
                if self._draining and drain_deadline is None:
                    drain_deadline = time.monotonic() + self._drain_timeout_s
                    listener.close()  # dials are refused from here on
                    for _, sock in self._slots:
                        with suppress(OSError):
                            sock.shutdown(socket.SHUT_RD)  # the slot reads EOF
                if drain_deadline is not None:
                    if not self._slots or time.monotonic() >= drain_deadline:
                        return
                elif self._owner_pid not in (None, os.getppid()):
                    return  # orphaned: the coordinator is gone
                poller = select.poll()
                watched = {}
                for slot in self._slots:
                    proc, sock = slot
                    watched[proc.sentinel] = slot  # readable once it exits
                    poller.register(proc.sentinel, select.POLLIN)
                    if drain_deadline is None:
                        # A draining host shut the read side itself.
                        watched[sock.fileno()] = slot
                        poller.register(sock, select.POLLRDHUP)
                if drain_deadline is None:
                    poller.register(listener, select.POLLIN)
                for fd, _ in poller.poll(200):
                    if fd in watched:
                        if watched[fd] in self._slots:
                            self._reap(watched[fd])
                    else:  # the listener
                        self._attach(life_r, life_w)
        finally:
            for slot in list(self._slots):
                self._reap(slot)
            for sock in self._drained:
                sock.close()
            listener.close()
            os.close(life_r)
            os.close(life_w)

    # -- one slot -------------------------------------------------------

    def _attach(self, life_r: int, life_w: int) -> None:
        """Accept one dial and, when it authenticates and joins the live
        session, fork its slot worker on it.  An unauthenticated peer
        holds the accept loop for at most the handshake timeout, and is
        disconnected before any frame is parsed."""
        try:
            sock, _ = self._listener.accept()
        except OSError:
            return
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(wire.HANDSHAKE_TIMEOUT_S)
            admitted = wire.auth_server(sock, self.authkey) and self._negotiate(sock)
            if admitted:
                proc = mp.get_context("fork").Process(
                    target=self._slot_entry,
                    args=(*admitted, sock, life_r, life_w),
                    daemon=True,
                )
                proc.start()
        except SESSION_ERRORS:
            admitted = None  # a hostile dial or a failed fork, never the host
        if not admitted:
            sock.close()
            return
        slot = (proc, sock)
        self._slots.append(slot)
        try:
            send_session_frame(
                sock, SESSION_CONTROL_MAGIC, wire.encode_control("up", proc.pid)
            )
        except OSError:
            self._reap(slot)

    def _negotiate(self, sock: socket.socket):
        """Hello, ack and (on a cache miss) upload; returns ``(plan,
        cfg)``, or ``None`` for a dial refused as busy."""
        tag, payload = recv_session_frame(sock)
        if tag != SESSION_HELLO_MAGIC:
            raise WireFormatError(f"expected FHL1, got {tag!r}")
        try:
            fingerprint, session, cfg = wire.decode_hello(payload)
        except wire.VersionMismatch as exc:
            # Rule 2 of docs/formats.md "Versioning": tell the peer both
            # versions before hanging up, so it can name them too.
            send_session_frame(
                sock,
                SESSION_CONTROL_MAGIC,
                wire.encode_control("version", exc.ours, exc.theirs),
            )
            raise
        if self._slots and session != self._session:
            send_session_frame(
                sock, SESSION_CONTROL_MAGIC, wire.encode_control("busy", os.getpid())
            )
            return None
        plan = self._plans.get(fingerprint)
        send_session_frame(
            sock, SESSION_ACK_MAGIC, wire.encode_ack(plan is None, os.getpid())
        )
        if plan is None:
            tag, blob = recv_session_frame(sock)
            if tag != SESSION_PLAN_MAGIC:
                raise WireFormatError(f"expected FPL1, got {tag!r}")
            if wire.plan_fingerprint(blob) != fingerprint:
                raise WireFormatError(
                    "FPL1 upload does not match the hello's fingerprint"
                )
        if plan is None and cfg.env is None:
            raise WireFormatError("hello carries no HostEnv")
        try:
            if plan is None:
                from repro.runtime.plan_io import deserialize_plan

                evaluator = cfg.env.build_evaluator()
                plan = self._plans[fingerprint] = deserialize_plan(blob, evaluator)
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
            # all of it ends the dial, never the host.
            raise WireFormatError(f"undecodable plan upload: {exc!r}") from exc
        self._session = session
        return plan, cfg

    def _reap(self, slot: tuple) -> None:
        """End a slot: SIGKILL it (a no-op once it exited), reap it, then
        close this host's copy of its socket — the EOF its coordinator
        reads.  A drain holds every copy until the last slot is done: a
        coordinator respawns on one slot's EOF, and must not block in that
        while another slot's reply is still on its way."""
        proc, sock = slot
        self._slots.remove(slot)
        with suppress(OSError):
            os.kill(proc.pid, signal.SIGKILL)
        proc.join()
        if self._draining:
            self._drained.append(sock)
        else:
            sock.close()

    def _slot_entry(self, plan, cfg, sock, life_r: int, life_w: int) -> None:
        """Slot-worker process body, in the fork (``self`` is this
        process's copy of the host): drop the host's descriptors, exit
        with the host, then serve the socket with the worker loop.  The
        host's drain handler is dropped too: it would only flag this
        process's dead copy of the host.  SIGTERM kills the slot again; a
        terminal's Ctrl-C, which reaches the whole process group, is left
        to the host, whose drain still lets the slot send its in-flight
        reply."""
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        # A copy of a sibling's socket would hide that sibling's death
        # from its coordinator, one of the life pipe's write end this
        # host's death from this slot.
        os.close(life_w)
        self._listener.close()
        for _, sibling in self._slots:
            sibling.close()
        threading.Thread(target=_exit_with_host, args=(life_r,), daemon=True).start()
        sock.settimeout(self._idle_timeout_s)
        # The slots this host serves, this one included, share its CPUs.
        workers = len(self._slots) + 1
        _worker_loop(plan, SocketChannel(sock, cfg.chaos), cfg, workers)


def _exit_with_host(life_r: int) -> None:
    """Return from the read only once the host is gone, then end the
    slot: its coordinator must read the host's death as this slot's EOF."""
    os.read(life_r, 1)
    os._exit(1)


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
        help="a slot worker exits after this long without a request "
        "from its coordinator (default: never)",
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
        bind = parse_address(args.bind)
    except ValueError as exc:
        parser.error(f"--bind: {exc} (port 0 for ephemeral)")
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

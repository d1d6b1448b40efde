"""Standalone worker hosts: the serving fabric's cross-machine half.

``python -m repro.runtime.worker_host --bind HOST:PORT --authkey-file
KEYFILE`` runs a :class:`StandaloneWorkerHost` — a
:class:`~repro.runtime.coordinator.WorkerHostServer` with **no fork
relationship to any coordinator**.  Everything a fork-local host
inherits through process memory arrives explicitly instead:

* the session **authkey** is loaded from a file both ends share
  (``ServingConfig(authkey_file=...)`` on the coordinator) instead of
  being fork-inherited; the mutual HMAC handshake itself is unchanged;
* the **evaluator** is rebuilt from the
  :class:`~repro.runtime.wire.HostEnv` shipped inside the
  ``FHL1`` hello's worker config;
* the **plan** always arrives as ``FPL1`` bytes (``ship_plan=True`` is
  mandatory; there is no fork-warmed plan to fall back to) and is
  cached by content fingerprint across sessions, so a coordinator that
  reconnects never re-uploads.

A coordinator reaches such a host with
``ServingConfig(transport="tcp", hosts=("tcp://host:port",),
ship_plan=True, authkey_file=...)``.

Lifecycle differences from a fork-local host (which the coordinator
owns outright):

* a session ``bye`` ends the session but never the host — a
  standalone host is operator-owned and keeps accepting;
* while one session is live, a second coordinator is authenticated and
  then refused with an ``FCT1`` ``busy`` control frame — one
  session at a time stays an invariant, and the refusal is explicit
  rather than a hang;
* ``--idle-timeout-s`` drops a session whose coordinator has gone
  quiet, freeing the host for the next attach;
* SIGTERM/SIGINT **drain**: the host stops reading new requests, keeps
  relaying in-flight replies until no slot is busy (bounded by
  ``--drain-timeout-s``), then closes the session and exits.

Contract (see ``docs/serving.md``): one session at a time; nothing
host-side caches ciphertext bytes beyond the in-flight frame; the
session protocol (FHL1…FCT1, ``docs/formats.md``) is byte-identical to
the fork-local path.
"""

from __future__ import annotations

import argparse
import errno
import os
import signal
import socket
import sys
import time

from repro.runtime import wire
from repro.runtime.coordinator import (
    _HANDSHAKE_TIMEOUT_S,
    _SESSION_ERRORS,
    WorkerHostServer,
    _auth_server,
    _SessionDrop,
)

__all__ = [
    "MIN_AUTHKEY_BYTES",
    "StandaloneWorkerHost",
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


class StandaloneWorkerHost(WorkerHostServer):
    """A worker host bound to a configured address, owned by its
    operator rather than a coordinator (see module docstring)."""

    def __init__(
        self,
        bind: tuple[str, int],
        authkey: bytes,
        *,
        label: str | None = None,
        idle_timeout_s: float | None = None,
        drain_timeout_s: float = 10.0,
    ) -> None:
        super().__init__(None, label or f"{bind[0]}:{bind[1]}", authkey)
        self._bind_addr = bind
        self._idle_timeout_s = idle_timeout_s
        self._drain_timeout_s = drain_timeout_s
        self._drain_deadline: float | None = None
        self._terminate = False
        self.port: int | None = None

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
        replies, then stop.  Async-signal-safe (only sets flags)."""
        self._terminate = True
        self._draining = True

    def serve_forever(self, *, port_file: str | None = None) -> None:
        """Accept-and-serve until :meth:`request_drain` (one session at
        a time; ``bye`` never retires the host)."""
        if self._listener is None:
            self.bind()
        listener = self._listener
        if port_file is not None:
            # Atomic write: a test (or launcher) polling for the file
            # never reads a half-written port.
            tmp = f"{port_file}.tmp"
            with open(tmp, "w") as fh:
                fh.write(f"{self.port}\n")
            os.replace(tmp, port_file)
        try:
            while not self._terminate:
                try:
                    sock, _ = listener.accept()
                except TimeoutError:
                    continue
                except OSError:
                    break
                # Unlike run(): bye ends the session, not the host —
                # the next coordinator may attach (and hit the warm
                # plan cache).
                self._serve_connection(sock)
        finally:
            listener.close()

    # -- hook overrides (see WorkerHostServer) --------------------------

    def _session_tick(self) -> None:
        now = time.monotonic()
        if self._draining:
            if self._drain_deadline is None:
                self._drain_deadline = now + self._drain_timeout_s
            if not self._busy or now >= self._drain_deadline:
                raise _SessionDrop()
            return
        if (
            self._idle_timeout_s is not None
            and now - self._last_activity > self._idle_timeout_s
        ):
            raise _SessionDrop()

    def _extra_wait_conns(self) -> list:
        return [] if self._listener is None else [self._listener]

    def _on_extra_ready(self, ready) -> None:
        # A second coordinator dialed in while a session is live: prove
        # we share its key, then refuse explicitly.  Unauthenticated
        # peers are dropped without a frame, exactly as in the accept
        # loop.
        try:
            intruder, _ = ready.accept()
        except OSError:
            return
        intruder.settimeout(_HANDSHAKE_TIMEOUT_S)
        try:
            if _auth_server(intruder, self.authkey):
                wire.send_session_frame(
                    intruder,
                    wire.SESSION_CONTROL_MAGIC,
                    wire.encode_control("busy", os.getpid()),
                )
        except _SESSION_ERRORS:
            pass
        finally:
            try:
                intruder.close()
            except OSError:
                pass


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
            "Run a standalone serving-fabric worker host (no fork "
            "relationship to the coordinator; see docs/serving.md)."
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
    host = StandaloneWorkerHost(
        bind,
        authkey,
        label=args.label,
        idle_timeout_s=args.idle_timeout_s,
        drain_timeout_s=args.drain_timeout_s,
    )
    try:
        port = host.bind()
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

    def _drain_handler(signum, frame):  # noqa: ARG001 — signal signature
        host.request_drain()

    signal.signal(signal.SIGTERM, _drain_handler)
    signal.signal(signal.SIGINT, _drain_handler)
    print(f"worker-host: listening on {bind[0]}:{port}", flush=True)
    host.serve_forever(port_file=args.port_file)
    return 0


if __name__ == "__main__":
    sys.exit(main())

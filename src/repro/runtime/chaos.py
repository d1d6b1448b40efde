"""Deterministic fault injection for the serving stack.

:class:`FaultPlan` is a *seeded, pure* description of which faults to
inject where: given a hook site, a request id, and an attempt number it
always returns the same decision, in every process, regardless of call
order.  The executor consults it at four well-defined hook points:

* ``pre_dispatch`` (parent, before the request is sent): byte-flips the
  outgoing request envelope — exercises worker-side CRC detection and
  the typed :class:`~repro.runtime.faults.WireCorruption` reply path;
* ``pre_evaluate`` (worker, after decoding inputs): ``crash`` (SIGKILL
  self), ``stop`` (SIGSTOP self — a genuinely stuck-not-dead worker, the
  hang detector's prey), ``hang`` (sleep with heartbeats suppressed),
  ``slow`` (sleep with heartbeats flowing — slow is *not* hung);
* ``post_evaluate`` (worker, after computing, before replying): ``crash``
  — exercises exactly-once delivery when work is lost after completion;
* ``reply_encode`` (worker, after encoding outputs): byte-flips the
  reply envelope — exercises parent-side CRC detection and retry;
* ``host_relay`` (worker host, before relaying a reply upstream over
  the TCP session — see :mod:`repro.runtime.coordinator`):
  ``disconnect`` (drop the session socket), ``partial`` (write half a
  frame, then drop), ``slow`` (delay the relay with heartbeats already
  through), ``asym`` (asymmetric latency: delay only the upstream
  direction, the shape loopback never exhibits), ``reorder`` (hold the
  reply back and ship it after the batch that follows it), ``duplicate``
  (deliver the reply twice — the executor's stale-attempt dedup must
  drop the extra copy) — exercises the coordinator's host-loss requeue
  path, frame-truncation detection, and delivery-order independence.

For faults below the frame level — delaying, reordering, or duplicating
whole *frames* on the wire rather than replies inside the host —
:class:`NetworkShaper` is a deterministic loopback proxy a test can park
between the coordinator and a worker host.

Decisions are rate-based (one hash draw per ``(seed, site, request_id,
attempt)``) and can be pinned exactly with ``scripted`` entries for
surgical tests.  Because retries carry a fresh attempt number, a request
that draws a crash on attempt 0 usually draws nothing on attempt 1 and
completes — which is exactly the recovery path under test.

Contract (see ``docs/architecture.md``): immutable value object; crosses
the worker boundary through fork, or field by field inside the ``FHL1``
hello's worker config (:mod:`repro.runtime.wire`); never consulted by
the inline degraded path (injecting a SIGKILL into the parent process
would defeat the purpose of graceful degradation).
"""

from __future__ import annotations

import hashlib
import socket
import struct
import threading
import time
from dataclasses import KW_ONLY, dataclass

__all__ = [
    "FaultAction",
    "FaultPlan",
    "NetworkShaper",
    "SITES",
    "flip_frame_byte",
]

SITES = (
    "pre_dispatch",
    "pre_evaluate",
    "post_evaluate",
    "reply_encode",
    "host_relay",
)

# Fixed draw order within a site: at most one fault fires per decision.
_PRE_EVALUATE_KINDS = ("crash", "stop", "hang", "slow")
_HOST_RELAY_KINDS = (
    "disconnect",
    "partial",
    "slow",
    "asym",
    "reorder",
    "duplicate",
)


@dataclass(frozen=True)
class FaultAction:
    """One injected fault: what to do, where, and any parameters."""

    kind: str  # "crash" | "stop" | "hang" | "slow" | "flip"
    site: str
    duration_s: float = 0.0  # for hang/slow
    salt: int = 0  # for flip: which byte of the frame payload


@dataclass(frozen=True)
class FaultPlan:
    """Seeded fault schedule, identical in parent and workers.

    Attributes:
        seed: the injection seed; two plans with equal seeds and rates
            make identical decisions everywhere.
        crash_rate / stop_rate / hang_rate / slow_rate: per-attempt
            probabilities at ``pre_evaluate`` (drawn in that order from
            one hash, so at most one fires).
        crash_after_rate: probability of a ``post_evaluate`` crash.
        request_flip_rate: probability of a ``pre_dispatch`` byte flip.
        reply_flip_rate: probability of a ``reply_encode`` byte flip.
        disconnect_rate / partial_frame_rate / slow_host_rate /
        asym_latency_rate / reorder_rate / duplicate_rate:
            per-reply probabilities at the TCP coordinator's
            ``host_relay`` site (drawn in that order from one hash, so
            at most one fires per relayed reply).
        hang_s / slow_s: sleep durations for hang/slow injections.
        slow_host_s: relay delay for a ``host_relay`` slow injection.
        asym_latency_s: upstream-only relay delay for an ``asym``
            injection (downstream dispatch is never delayed — the
            asymmetric shape loopback cannot produce).
        scripted: exact overrides — ``{(site, request_id, attempt):
            FaultAction | None}``; ``None`` pins "no fault" at that key.
    """

    seed: int
    _: KW_ONLY
    crash_rate: float = 0.0
    stop_rate: float = 0.0
    hang_rate: float = 0.0
    slow_rate: float = 0.0
    crash_after_rate: float = 0.0
    request_flip_rate: float = 0.0
    reply_flip_rate: float = 0.0
    disconnect_rate: float = 0.0
    partial_frame_rate: float = 0.0
    slow_host_rate: float = 0.0
    asym_latency_rate: float = 0.0
    reorder_rate: float = 0.0
    duplicate_rate: float = 0.0
    hang_s: float = 30.0
    slow_s: float = 0.05
    slow_host_s: float = 0.05
    asym_latency_s: float = 0.05
    scripted: dict[tuple[str, int, int], FaultAction | None] | None = None

    # The generated field-tuple hash would choke on the scripted dict.
    def __hash__(self) -> int:
        return hash((self.seed, tuple(self.scripted)))

    def __post_init__(self) -> None:
        pre_evaluate = (self.crash_rate, self.stop_rate, self.hang_rate, self.slow_rate)
        host_relay = (
            self.disconnect_rate,
            self.partial_frame_rate,
            self.slow_host_rate,
            self.asym_latency_rate,
            self.reorder_rate,
            self.duplicate_rate,
        )
        flips = (self.crash_after_rate, self.request_flip_rate, self.reply_flip_rate)
        if any(r < 0 or r > 1 for r in pre_evaluate + host_relay + flips):
            raise ValueError("fault rates must be in [0, 1]")
        if sum(pre_evaluate) > 1:
            raise ValueError("pre_evaluate rates must sum to <= 1")
        if sum(host_relay) > 1:
            raise ValueError("host_relay rates must sum to <= 1")
        object.__setattr__(self, "scripted", dict(self.scripted or {}))

    # ------------------------------------------------------------------

    def _draw(self, site: str, request_id: int, attempt: int) -> float:
        digest = hashlib.blake2b(
            f"{self.seed}|{site}|{request_id}|{attempt}".encode(),
            digest_size=8,
        ).digest()
        return int.from_bytes(digest, "big") / 2**64

    def decide(
        self, site: str, request_id: int, attempt: int
    ) -> FaultAction | None:
        """The (deterministic) fault to inject at this hook, if any."""
        if site not in SITES:
            raise ValueError(f"unknown fault site {site!r}")
        key = (site, request_id, attempt)
        if key in self.scripted:
            return self.scripted[key]
        u = self._draw(site, request_id, attempt)
        salt = int(self._draw(site + "#salt", request_id, attempt) * 2**31)
        if site == "pre_evaluate":
            edge = 0.0
            for kind, rate in zip(
                _PRE_EVALUATE_KINDS,
                (self.crash_rate, self.stop_rate, self.hang_rate, self.slow_rate),
            ):
                edge += rate
                if u < edge:
                    duration = (
                        self.hang_s
                        if kind == "hang"
                        else self.slow_s
                        if kind == "slow"
                        else 0.0
                    )
                    return FaultAction(kind, site, duration_s=duration, salt=salt)
            return None
        if site == "post_evaluate":
            if u < self.crash_after_rate:
                return FaultAction("crash", site, salt=salt)
            return None
        if site == "host_relay":
            edge = 0.0
            for kind, rate in zip(
                _HOST_RELAY_KINDS,
                (
                    self.disconnect_rate,
                    self.partial_frame_rate,
                    self.slow_host_rate,
                    self.asym_latency_rate,
                    self.reorder_rate,
                    self.duplicate_rate,
                ),
            ):
                edge += rate
                if u < edge:
                    if kind == "slow":
                        duration = self.slow_host_s
                    elif kind == "asym":
                        duration = self.asym_latency_s
                    else:
                        duration = 0.0
                    return FaultAction(kind, site, duration_s=duration, salt=salt)
            return None
        rate = (
            self.request_flip_rate
            if site == "pre_dispatch"
            else self.reply_flip_rate
        )
        if u < rate:
            return FaultAction("flip", site, salt=salt)
        return None


# ---------------------------------------------------------------------------
# Network shaper: deterministic frame-level delivery faults on the wire
# ---------------------------------------------------------------------------


class NetworkShaper:
    """A deterministic loopback proxy injecting *delivery* faults.

    Park it between a coordinator and a worker host: the coordinator
    dials ``shaper.port`` instead of the host, and the shaper relays the
    session — first the raw (unframed) mutual-auth preamble
    byte-for-byte, then whole CRC-framed session frames — while
    injecting the network misbehaviour loopback never exhibits:

    * **asymmetric latency** — ``up_delay_s`` / ``down_delay_s`` delay
      every frame of one direction only (``up`` = coordinator→host);
    * **reorder** — hold a frame back one slot, shipping it after its
      successor;
    * **duplicate** — deliver a frame twice (intact both times — the
      receiver's dedup, not its CRC check, is under test).

    Per-frame faults are drawn deterministically from ``seed`` per
    ``(direction, frame_index)``, or pinned exactly with
    ``scripted={("up"|"down", index): "reorder"|"duplicate"|None}``.
    The first ``grace_frames`` frames of each direction never draw a
    fault: holding back an ``FHL1``/``FHA1``/``FPL1`` negotiation frame
    would deadlock the handshake rather than exercise recovery
    (``scripted`` entries still override, for tests that want exactly
    that).
    Frame *bytes* are never mutated — corruption is the frame fuzzer's
    job; the shaper exercises delivery order and timing against intact
    frames, so every injected fault must be absorbed silently (no
    session loss, no wrong results).
    """

    def __init__(
        self,
        target: tuple[str, int],
        *,
        seed: int = 0,
        up_delay_s: float = 0.0,
        down_delay_s: float = 0.0,
        reorder_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        grace_frames: int = 3,
        scripted: dict[tuple[str, int], str | None] | None = None,
    ) -> None:
        if reorder_rate + duplicate_rate > 1:
            raise ValueError("shaper fault rates must sum to <= 1")
        self._target = target
        self.seed = seed
        self.grace_frames = grace_frames
        self.up_delay_s = up_delay_s
        self.down_delay_s = down_delay_s
        self.reorder_rate = reorder_rate
        self.duplicate_rate = duplicate_rate
        self.scripted = dict(scripted or {})
        self.frames_relayed = {"up": 0, "down": 0}
        self.injected = {"reorder": 0, "duplicate": 0}
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._conns: list[socket.socket] = []
        self._threads: list[threading.Thread] = []
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)
        listener.settimeout(0.2)
        self._listener = listener
        self.port = listener.getsockname()[1]
        accept = threading.Thread(
            target=self._accept_loop, name="network-shaper-accept", daemon=True
        )
        accept.start()
        self._threads.append(accept)

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        self._stop.set()
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            conns, self._conns = self._conns, []
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass
        for thread in self._threads:
            thread.join(timeout=2.0)

    def __enter__(self) -> "NetworkShaper":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- relay ----------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                client, _ = self._listener.accept()
            except TimeoutError:
                continue
            except OSError:
                return
            try:
                upstream = socket.create_connection(self._target, timeout=10.0)
            except OSError:
                client.close()
                continue
            for sock in (client, upstream):
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                self._conns += [client, upstream]
            worker = threading.Thread(
                target=self._serve,
                args=(client, upstream),
                name="network-shaper-session",
                daemon=True,
            )
            worker.start()
            self._threads.append(worker)

    def _serve(self, client: socket.socket, upstream: socket.socket) -> None:
        from repro.runtime.wire import AUTH_NONCE_BYTES, recv_exact

        # The mutual-auth preamble is raw unframed bytes (nonce down,
        # digest+nonce up, proof down); relay it verbatim before
        # switching to frame-granular pumping.
        try:
            client.sendall(recv_exact(upstream, AUTH_NONCE_BYTES))
            upstream.sendall(recv_exact(client, 2 * AUTH_NONCE_BYTES))
            client.sendall(recv_exact(upstream, AUTH_NONCE_BYTES))
        except (ConnectionError, OSError):
            for sock in (client, upstream):
                try:
                    sock.close()
                except OSError:
                    pass
            return
        up = threading.Thread(
            target=self._pump,
            args=(client, upstream, "up", self.up_delay_s),
            name="network-shaper-up",
            daemon=True,
        )
        up.start()
        self._threads.append(up)
        self._pump(upstream, client, "down", self.down_delay_s)

    def _read_session_frame(self, src: socket.socket) -> bytes:
        from repro.runtime.wire import MAX_SESSION_FRAME_BYTES, recv_exact

        header = recv_exact(src, 8)
        (length,) = struct.unpack_from("<I", header, 4)
        if length > MAX_SESSION_FRAME_BYTES:
            raise ConnectionError("shaper saw an oversized frame")
        return header + recv_exact(src, length + 4)

    def _decide(self, direction: str, index: int) -> str | None:
        key = (direction, index)
        if key in self.scripted:
            return self.scripted[key]
        if index < self.grace_frames:
            return None
        digest = hashlib.blake2b(
            f"{self.seed}|shaper|{direction}|{index}".encode(), digest_size=8
        ).digest()
        u = int.from_bytes(digest, "big") / 2**64
        if u < self.reorder_rate:
            return "reorder"
        if u < self.reorder_rate + self.duplicate_rate:
            return "duplicate"
        return None

    def _pump(self, src, dst, direction: str, delay_s: float) -> None:
        held: bytes | None = None
        index = 0
        try:
            while True:
                frame = self._read_session_frame(src)
                fault = self._decide(direction, index)
                index += 1
                self.frames_relayed[direction] += 1
                if delay_s:
                    time.sleep(delay_s)
                if fault == "reorder" and held is None:
                    # Hold this frame one slot; its successor overtakes.
                    held = frame
                    self.injected["reorder"] += 1
                    continue
                dst.sendall(frame)
                if fault == "duplicate":
                    dst.sendall(frame)
                    self.injected["duplicate"] += 1
                if held is not None:
                    dst.sendall(held)
                    held = None
        except (ConnectionError, OSError):
            # One side closed: flush any held frame, then mirror the
            # close to the other side so EOF semantics survive the hop.
            if held is not None:
                try:
                    dst.sendall(held)
                except OSError:
                    pass
            for sock in (src, dst):
                try:
                    sock.close()
                except OSError:
                    pass


def flip_frame_byte(frame: bytes, action: FaultAction) -> bytes:
    """Flip one byte inside a frame's *payload* region.

    The boundary envelope is ``tag(4) | u32 length | payload | crc32``
    (see docs/formats.md), so flipping inside the payload is guaranteed
    to trip the CRC check on the receiving side — a deterministic,
    detectable corruption.  Frames too short to carry a payload get
    their last byte flipped instead (caught as truncation/CRC anyway).
    """
    (length,) = struct.unpack_from("<I", frame, 4)
    mutated = bytearray(frame)
    if length > 0:
        index = 8 + (action.salt % length)
    else:
        index = len(frame) - 1
    mutated[index] ^= 0xFF
    return bytes(mutated)

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
  ``slow`` (sleep with heartbeats flowing — slow is *not* hung; how a
  test holds a worker busy);
* ``post_evaluate`` (worker, after computing, before replying): ``crash``
  — exercises exactly-once delivery when work is lost after completion;
* ``reply_encode`` (worker, after encoding outputs): byte-flips the
  reply envelope — exercises parent-side CRC detection and retry;
* ``host_relay`` (a ``tcp`` slot worker, as it sends a reply on its
  socket — :class:`~repro.runtime.transport.SocketChannel`; a pipe
  worker never reaches it): ``disconnect`` (drop the slot's
  connection), ``partial`` (write half a frame, then drop), ``slow``
  (send late, with heartbeats already through), ``duplicate`` (send the
  reply twice — the executor's stale-attempt dedup must drop the extra
  copy) — exercises the coordinator's slot-loss requeue path and
  frame-truncation detection.

Decisions are rate-based (one hash draw per ``(seed, site, request_id,
attempt)``) and can be pinned exactly with ``scripted`` entries for
surgical tests.  Because retries carry a fresh attempt number, a request
that draws a crash on attempt 0 usually draws nothing on attempt 1 and
completes — which is exactly the recovery path under test.

Contract (see ``docs/architecture.md``): immutable value object; crosses
the worker boundary through fork, or field by field inside the ``FHL1``
hello's worker config (:mod:`repro.runtime.wire`).
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import KW_ONLY, dataclass

__all__ = [
    "FaultAction",
    "FaultPlan",
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
_HOST_RELAY_KINDS = ("disconnect", "partial", "slow", "duplicate")


@dataclass(frozen=True)
class FaultAction:
    """One injected fault: what to do, where, and any parameters."""

    kind: str  # "crash" | "stop" | "hang" | "slow" | "flip"
    site: str
    duration_s: float = 0.0  # for hang/slow
    salt: int = 0  # for flip: which byte of the frame payload

    def __post_init__(self) -> None:
        if not 0 <= self.duration_s < math.inf:  # time.sleep cannot take it
            raise ValueError("fault durations must be finite and >= 0")


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
        duplicate_rate: per-reply probabilities at a ``tcp`` slot
            worker's ``host_relay`` site (drawn in that order from one
            hash, so at most one fires per reply).
        hang_s / slow_s: sleep durations for hang/slow injections.
        slow_host_s: reply delay for a ``host_relay`` slow injection.
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
    duplicate_rate: float = 0.0
    hang_s: float = 30.0
    slow_s: float = 0.05
    slow_host_s: float = 0.05
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
            self.duplicate_rate,
        )
        flips = (self.crash_after_rate, self.request_flip_rate, self.reply_flip_rate)
        # Each check states what a valid value satisfies, so NaN — which
        # fails every comparison — is rejected rather than waved through.
        if not all(0 <= r <= 1 for r in pre_evaluate + host_relay + flips):
            raise ValueError("fault rates must be in [0, 1]")
        durations = (self.hang_s, self.slow_s, self.slow_host_s)
        if not all(0 <= d < math.inf for d in durations):
            raise ValueError("fault durations must be finite and >= 0")
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
                    self.duplicate_rate,
                ),
            ):
                edge += rate
                if u < edge:
                    duration = self.slow_host_s if kind == "slow" else 0.0
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

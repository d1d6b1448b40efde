"""Typed failure taxonomy and fault policy for the serving stack.

Before this layer existed, every serving failure surfaced as a bare
``WorkerError`` string and the only recovery semantics were EOF-detected
crashes with an unconditional front-requeue.  This module makes the
failure model explicit and *typed* so callers (and, eventually, the
cross-machine socket fabric) can distinguish what happened and decide
what is safe to retry:

* :class:`WorkerCrash` — the worker process died (EOF on its pipe, e.g.
  SIGKILL/segfault).  The request is retried under the retry budget: a
  crash says nothing certain about the request itself.
* :class:`WorkerHang` — the worker stopped making progress (no heartbeat
  for :attr:`FaultPolicy.hang_timeout_s`) while a request was in flight.
  The worker is SIGKILLed and replaced; the request is retried.
* :class:`DeadlineExceeded` — the request's total time budget elapsed
  (queued + all attempts).  The request fails itself, typed, immediately;
  deadlines are *not* retried — the deadline already covered the retries.
* :class:`WireCorruption` — a serialization envelope failed its CRC or
  framing on either side of the worker boundary.  The payload bytes held
  by the parent are intact, so the request is retried.
* :class:`PoisonRequest` — the request exhausted its retry budget
  (:attr:`FaultPolicy.max_attempts`).  It is quarantined: it fails alone,
  with the per-attempt causes attached, while the pool keeps serving
  every other request.
* :class:`HostUnreachable` — a remote worker host (a standalone
  ``tcp://host:port`` spec) could not be dialed or re-dialed.  The
  requests it held are retried on surviving hosts; repeated dial
  failures trip the crash-loop breaker like any other respawn failure.

All of these subclass :class:`RequestError`, which subclasses the legacy
:class:`WorkerError`, so existing ``except WorkerError`` call sites keep
working unchanged.

:class:`FaultPolicy` is the knob set the pool's policy machine
(:mod:`repro.runtime.policy`) enforces: per-request deadlines,
heartbeat-based hang detection, a retry budget with deterministic
exponential backoff + jitter (seeded, so test runs are reproducible), a
pool-level crash budget, and the crash-loop breaker that stops the pool
instead of deadlocking when replacement forks keep dying.

Faults also have a wire form: :func:`serialize_fault` packs a typed
failure into an ``FLT1`` frame (the CRC-guarded frame container of
``docs/formats.md``) and :func:`deserialize_fault` rebuilds the typed
exception.  Workers reply with this frame instead of a bare string so
the parent — today across a pipe, tomorrow across a socket — recovers
the exact type.

Contract (see ``docs/architecture.md``): pure data — nothing here is
fork-shared or process-cached; policies and fault frames are immutable
values that cross the worker boundary by pickling/bytes.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

from repro.ckks.serialization import WireFormatError, pack_frame, read_frame

__all__ = [
    "WorkerError",
    "RequestError",
    "WorkerCrash",
    "WorkerHang",
    "DeadlineExceeded",
    "WireCorruption",
    "PoisonRequest",
    "HostUnreachable",
    "FaultPolicy",
    "FAULT_MAGIC",
    "serialize_fault",
    "deserialize_fault",
]

FAULT_MAGIC = b"FLT1"


class WorkerError(RuntimeError):
    """Legacy base: any failure surfaced by the serving engine.

    Kept as the root of the taxonomy so pre-existing ``except
    WorkerError`` handlers continue to catch every typed subtype.
    """


class RequestError(WorkerError):
    """A failure attributed to one request, carried through its Future.

    Attributes:
        request_id: the executor's request id, if known.
        attempts: dispatch attempts made before the failure was raised.
        retriable: whether the executor's policy engine may retry the
            request after this failure (class-level default).
    """

    code = 0
    retriable = False

    def __init__(
        self,
        message: str,
        *,
        request_id: int | None = None,
        attempts: int = 0,
    ) -> None:
        super().__init__(message)
        self.request_id = request_id
        self.attempts = attempts


class WorkerCrash(RequestError):
    """The worker process serving the request died (pipe EOF)."""

    code = 1
    retriable = True


class WorkerHang(RequestError):
    """The worker stopped heartbeating mid-request and was SIGKILLed."""

    code = 2
    retriable = True


class DeadlineExceeded(RequestError):
    """The request's total deadline elapsed (queued time + attempts)."""

    code = 3
    retriable = False


class WireCorruption(RequestError):
    """A boundary envelope failed CRC/framing; the source bytes are
    intact in the parent, so a retry re-sends them."""

    code = 4
    retriable = True


class PoisonRequest(RequestError):
    """Quarantined: the request exhausted its retry budget.

    ``causes`` lists one line per failed attempt (what failed and how),
    so the final typed error tells the whole story.
    """

    code = 5
    retriable = False

    def __init__(
        self,
        message: str,
        *,
        request_id: int | None = None,
        attempts: int = 0,
        causes: tuple[str, ...] = (),
    ) -> None:
        super().__init__(message, request_id=request_id, attempts=attempts)
        self.causes = tuple(causes)


class HostUnreachable(RequestError):
    """A remote worker host could not be dialed (or re-dialed after it
    dropped).  Retriable: the executor requeues the host's in-flight
    requests and brings the host back up — on a surviving address if
    the dead one stays down."""

    code = 6
    retriable = True


_FAULT_TYPES: dict[int, type[RequestError]] = {
    cls.code: cls
    for cls in (
        RequestError,
        WorkerCrash,
        WorkerHang,
        DeadlineExceeded,
        WireCorruption,
        PoisonRequest,
        HostUnreachable,
    )
}


def serialize_fault(exc: RequestError) -> bytes:
    """Pack a typed failure into one ``FLT1`` frame (see docs/formats.md).

    Payload: ``u8 code``, ``u32 attempts``, ``u32 message length``, the
    UTF-8 message.  The frame container adds the tag, length, and CRC-32.
    """
    message = str(exc).encode("utf-8")
    payload = struct.pack("<BI", exc.code, max(0, exc.attempts)) + struct.pack(
        "<I", len(message)
    ) + message
    return pack_frame(FAULT_MAGIC, payload)


def deserialize_fault(
    blob: bytes, *, request_id: int | None = None
) -> RequestError:
    """Rebuild the typed exception from an ``FLT1`` frame.

    Unknown codes degrade to the :class:`RequestError` base rather than
    failing, so a newer worker never wedges an older parent; a malformed
    frame is a :class:`WireFormatError`.
    """
    tag, payload, _ = read_frame(blob, 0)
    if tag != FAULT_MAGIC:
        raise WireFormatError(f"not a fault frame: tag {tag!r}")
    if len(payload) < 9:
        raise WireFormatError(f"FLT1 payload of {len(payload)} bytes has no header")
    code, attempts, msg_len = struct.unpack_from("<BII", payload, 0)
    if 9 + msg_len != len(payload):
        raise WireFormatError(
            f"FLT1 message is {len(payload) - 9} bytes, header says {msg_len}"
        )
    try:
        message = payload[9:].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireFormatError("FLT1 message is not UTF-8") from exc
    cls = _FAULT_TYPES.get(code, RequestError)
    return cls(message, request_id=request_id, attempts=attempts)


def check_timeout(name: str, value: float | None) -> None:
    """Refuse a time budget that is not ``None`` or finite and > 0."""
    if value is not None and not 0 < value < math.inf:
        raise ValueError(f"{name} must be None or finite and > 0, got {value!r}")


def check_count(name: str, value: int, minimum: int) -> None:
    """Refuse a count that is not an ``int`` (a ``bool`` is not one) >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValueError(f"{name} must be an int >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class FaultPolicy:
    """Per-pool fault-tolerance knobs, enforced by the pool's policy machine.

    Attributes:
        deadline_s: default per-request total deadline (queued time plus
            every attempt); ``None`` disables deadlines.  Overridable per
            request via ``submit(..., deadline_s=...)``.
        hang_timeout_s: no worker heartbeat for this long while a request
            is in flight declares the worker hung (SIGKILL + replace +
            retry).  ``None`` disables hang detection (and heartbeats).
        max_attempts: retry budget — total dispatch attempts per request
            before it is quarantined as a :class:`PoisonRequest`.
        backoff_base_s / backoff_factor / backoff_max_s: exponential
            backoff between attempts (attempt ``k`` waits roughly
            ``base * factor**(k-1)``, capped).
        backoff_jitter: fraction of the backoff added as deterministic
            jitter (seeded per request id and attempt).
        seed: jitter seed; fixed so recovery schedules are reproducible.
        crash_loop_threshold: this many *consecutive* worker crashes with
            no completed request in between trips the breaker, which fails
            all outstanding requests and stops the pool.
    """

    deadline_s: float | None = None
    hang_timeout_s: float | None = None
    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    backoff_jitter: float = 0.25
    seed: int = 0
    crash_loop_threshold: int = 5

    def __post_init__(self) -> None:
        # Each check states what a valid value satisfies, so NaN — which
        # fails every comparison — is rejected rather than waved through.
        check_count("max_attempts", self.max_attempts, 1)
        check_count("crash_loop_threshold", self.crash_loop_threshold, 1)
        check_timeout("deadline_s", self.deadline_s)
        check_timeout("hang_timeout_s", self.hang_timeout_s)
        backoff = (
            self.backoff_base_s,
            self.backoff_factor,
            self.backoff_max_s,
            self.backoff_jitter,
        )
        if not all(0 <= b < math.inf for b in backoff):
            raise ValueError("backoff fields must be finite and >= 0")

    def heartbeat_interval_s(self) -> float | None:
        """Worker-side heartbeat period: a quarter of the hang timeout,
        clamped to [20 ms, 1 s] — several beats must fit in one timeout
        window so a single delayed beat never looks like a hang."""
        if self.hang_timeout_s is None:
            return None
        return min(1.0, max(0.02, self.hang_timeout_s / 4.0))

    def backoff_s(self, attempt: int, request_id: int) -> float:
        """Delay before re-dispatching ``request_id`` attempt ``attempt``
        (1-based: the delay after the first failure is ``backoff_s(1, ...)``).

        Deterministic: the jitter is a pure function of ``(seed,
        request_id, attempt)``, so a seeded chaos run replays the exact
        same recovery schedule.
        """
        if attempt < 1:
            return 0.0
        base = min(
            self.backoff_max_s,
            self.backoff_base_s * self.backoff_factor ** (attempt - 1),
        )
        if self.backoff_jitter <= 0:
            return base
        digest = hashlib.blake2b(
            f"{self.seed}|{request_id}|{attempt}".encode(), digest_size=8
        ).digest()
        unit = int.from_bytes(digest, "big") / 2**64
        return base * (1.0 + self.backoff_jitter * unit)

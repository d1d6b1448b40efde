"""Every byte layout that crosses a worker or session channel.

One module owns the data format of the serving fabric (normative spec:
``docs/formats.md``, whose tables ``tests/runtime/test_wire.py`` checks
against :data:`MAGICS` and :data:`SUPPORTED_VERSIONS`): the ``ENV1``
envelope around every ciphertext/plaintext blob; the **worker message**
— a fixed, peekable header, then length-prefixed parts that are the
unchanged ``ENV1`` / ``FLT1`` / ``TRC1`` frames, so a fault site keys on
:func:`peek_message` and never decodes a part; the ``tcp`` transport's
**session** layouts (the mutual-auth preamble, CRC-framed socket I/O,
``FHL1`` hello, ``FHA1`` ack, ``FMS1`` message frames, ``FCT1`` control
ops, the forked host's port report); and the **worker config**, a JSON
object rebuilt field by field through the dataclass constructors.

No layout is a serialized Python object graph, and every decoder checks
each length against the bytes remaining and raises
:class:`WireFormatError` — nothing else — on malformed input: a peer can
end its *session* with bad bytes, never the process that parses them.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import math
import os
import socket
import struct
import typing
from dataclasses import dataclass, fields, is_dataclass
from typing import NamedTuple

from repro.ckks.containers import Ciphertext, Plaintext
from repro.ckks.params import CkksParameters
from repro.ckks.serialization import (
    CIPHERTEXT_MAGIC,
    PLAINTEXT_MAGIC,
    SEEDED_MAGIC,
    SWITCHING_KEY_MAGIC,
    Reader,
    WireFormatError,
    deserialize_ciphertext,
    deserialize_plaintext,
    pack_frame,
    read_frame,
    serialize_ciphertext,
    serialize_plaintext,
)
from repro.nums.primegen import NttFriendlyPrime
from repro.runtime.chaos import SITES, FaultPlan, flip_frame_byte
from repro.runtime.faults import FAULT_MAGIC, deserialize_fault, serialize_fault
from repro.runtime.plan_io import (
    CONSTSTORE_MAGIC,
    CONSTSTORE_VERSION,
    PLAN_MAGIC,
    PLAN_VERSION,
)
from repro.runtime.telemetry import (
    TRACE_MAGIC,
    deserialize_trace_frame,
    serialize_trace_context,
    serialize_worker_spans,
)

__all__ = [
    "MAGICS",
    "SUPPORTED_VERSIONS",
    "SESSION_VERSION",
    "MAX_SESSION_FRAME_BYTES",
    "ENVELOPE_MAGIC",
    "SESSION_HELLO_MAGIC",
    "SESSION_ACK_MAGIC",
    "SESSION_PLAN_MAGIC",
    "SESSION_MESSAGE_MAGIC",
    "SESSION_CONTROL_MAGIC",
    "FAULT_MAGIC",
    "TRACE_MAGIC",
    "SITES",
    "REQUEST",
    "OK",
    "ERR",
    "HEARTBEAT",
    "SHUTDOWN",
    "Message",
    "WorkerConfig",
    "HostEnv",
    "VersionMismatch",
    "encode_value",
    "decode_value",
    "encode_message",
    "decode_message",
    "peek_message",
    "encode_control",
    "decode_control",
    "plan_fingerprint",
    "encode_hello",
    "decode_hello",
    "encode_ack",
    "decode_ack",
    "encode_host_report",
    "decode_host_report",
    "encode_worker_config",
    "decode_worker_config",
    "AUTH_NONCE_BYTES",
    "HANDSHAKE_TIMEOUT_S",
    "SESSION_ERRORS",
    "auth_server",
    "auth_client",
    "recv_exact",
    "recv_session_frame",
    "send_session_frame",
    "serialize_fault",
    "deserialize_fault",
    "serialize_trace_context",
    "serialize_worker_spans",
    "deserialize_trace_frame",
    "flip_frame_byte",
]

ENVELOPE_MAGIC = b"ENV1"
SESSION_HELLO_MAGIC = b"FHL1"
SESSION_ACK_MAGIC = b"FHA1"
SESSION_PLAN_MAGIC = b"FPL1"
SESSION_MESSAGE_MAGIC = b"FMS1"
SESSION_CONTROL_MAGIC = b"FCT1"

# v1 shipped worker messages, control ops and the hello's config as
# serialized Python objects; v2's hello also carried a flags byte, and its
# config a packing width and a modeled link delay; v3 multiplexed every
# slot of a host over one session in FBT1 batches.  A peer of any of them
# is refused by version, not misparsed.
SESSION_VERSION = 4

# Every magic the library emits -> the constant that names it; the
# magic table of docs/formats.md is checked against this one.
MAGICS: dict[bytes, str] = {
    CIPHERTEXT_MAGIC: "repro.ckks.serialization.CIPHERTEXT_MAGIC",
    SEEDED_MAGIC: "repro.ckks.serialization.SEEDED_MAGIC",
    PLAINTEXT_MAGIC: "repro.ckks.serialization.PLAINTEXT_MAGIC",
    SWITCHING_KEY_MAGIC: "repro.ckks.serialization.SWITCHING_KEY_MAGIC",
    PLAN_MAGIC: "repro.runtime.plan_io.PLAN_MAGIC",
    CONSTSTORE_MAGIC: "repro.runtime.plan_io.CONSTSTORE_MAGIC",
    ENVELOPE_MAGIC: "repro.runtime.wire.ENVELOPE_MAGIC",
    FAULT_MAGIC: "repro.runtime.faults.FAULT_MAGIC",
    TRACE_MAGIC: "repro.runtime.telemetry.TRACE_MAGIC",
    SESSION_HELLO_MAGIC: "repro.runtime.wire.SESSION_HELLO_MAGIC",
    SESSION_ACK_MAGIC: "repro.runtime.wire.SESSION_ACK_MAGIC",
    SESSION_PLAN_MAGIC: "repro.runtime.wire.SESSION_PLAN_MAGIC",
    SESSION_MESSAGE_MAGIC: "repro.runtime.wire.SESSION_MESSAGE_MAGIC",
    SESSION_CONTROL_MAGIC: "repro.runtime.wire.SESSION_CONTROL_MAGIC",
}

# Families with a version field -> the versions this checkout reads
# (the rest are versioned by the trailing digit of their magic).
SUPPORTED_VERSIONS: dict[str, tuple[int, ...]] = {
    "session": (SESSION_VERSION,),
    "EPL1": tuple(range(1, PLAN_VERSION + 1)),
    "PCS1": tuple(range(1, CONSTSTORE_VERSION + 1)),
}

# Hard cap on one session frame's payload.  The length prefix is read
# before the CRC can vouch for it, so a corrupted u32 must not be able
# to demand a multi-GiB allocation; the largest legitimate frame is an
# FPL1 plan upload (tens of MiB), so 256 MiB is generous headroom.
MAX_SESSION_FRAME_BYTES = 256 << 20


class VersionMismatch(WireFormatError):
    """The two ends of a session speak different ``SESSION_VERSION``s."""

    def __init__(self, ours, theirs) -> None:
        super().__init__(
            f"session version mismatch: this end speaks {ours}, the peer "
            f"speaks {theirs} (are both ends from the same checkout?)"
        )
        self.ours = ours
        self.theirs = theirs


_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")

# ---------------------------------------------------------------------------
# ENV1 — the boundary envelope
# ---------------------------------------------------------------------------


def encode_value(value, coeff_bits: int) -> bytes:
    """One ciphertext/plaintext as a CRC-guarded ``ENV1`` frame."""
    if isinstance(value, Ciphertext):
        blob = serialize_ciphertext(value, coeff_bits=coeff_bits)
    elif isinstance(value, Plaintext):
        blob = serialize_plaintext(value, coeff_bits=coeff_bits)
    else:
        raise TypeError(
            f"plan inputs must be Ciphertext or Plaintext, got {type(value).__name__}"
        )
    return pack_frame(ENVELOPE_MAGIC, blob)


def decode_value(frame: bytes, basis):
    tag, blob, _ = read_frame(frame, 0)
    if tag != ENVELOPE_MAGIC:
        raise WireFormatError(f"unexpected boundary frame tag {tag!r}")
    if blob[:4] == PLAINTEXT_MAGIC:
        return deserialize_plaintext(blob, basis)
    return deserialize_ciphertext(blob, basis)


# ---------------------------------------------------------------------------
# Worker message
# ---------------------------------------------------------------------------

REQUEST, OK, ERR, HEARTBEAT, SHUTDOWN = 1, 2, 3, 4, 5
_MESSAGE_HEADER = struct.Struct("<BHIQ")  # kind, parts, attempt, req_id


class Message(NamedTuple):
    """A decoded worker message.  ``blobs`` are ``ENV1`` frames (or the
    one ``FLT1`` frame of an ``ERR``); ``trace`` is a ``TRC1`` frame, or
    ``None`` when the attempt is untraced."""

    kind: int
    req_id: int = 0
    attempt: int = 0
    blobs: tuple = ()
    trace: bytes | None = None


def encode_message(kind, req_id=0, attempt=0, blobs=(), trace=None) -> bytes:
    """Header, then the trace part (empty = untraced) and one part per
    blob; a message with neither (heartbeat, shutdown) has no parts."""
    parts = [trace or b"", *blobs] if (blobs or trace) else []
    out = [_MESSAGE_HEADER.pack(kind, len(parts), attempt, req_id)]
    for part in parts:
        out += (_U32.pack(len(part)), part)
    return b"".join(out)


def peek_message(data: bytes) -> tuple[int, int, int, int]:
    """``(kind, req_id, attempt, part count)`` from the fixed header —
    all a fault site needs, whatever the size of the parts behind it."""
    if len(data) < _MESSAGE_HEADER.size:
        raise WireFormatError(f"worker message of {len(data)} bytes has no header")
    kind, parts, attempt, req_id = _MESSAGE_HEADER.unpack_from(data)
    if not REQUEST <= kind <= SHUTDOWN:
        raise WireFormatError(f"unknown worker message kind {kind}")
    return kind, req_id, attempt, parts


def decode_message(data: bytes) -> Message:
    kind, req_id, attempt, count = peek_message(data)
    reader = Reader(data, "worker message", _MESSAGE_HEADER.size)
    parts = [reader.take(*reader.unpack(_U32)) for _ in range(count)]
    reader.finish()
    trace = (parts and parts[0]) or None
    return Message(kind, req_id, attempt, tuple(parts[1:]), trace)


# ---------------------------------------------------------------------------
# Session frames
# ---------------------------------------------------------------------------

# Both ends bound the auth preamble and the hello exchange with this
# socket timeout, so an unauthenticated peer can only briefly stall a
# host's one-at-a-time handshakes.
HANDSHAKE_TIMEOUT_S = 30.0

# What ends a slot's connection — never the host process (its warm plan
# cache must survive): the socket failing (a handshake TimeoutError is an
# OSError too), or a CRC-valid frame that decodes malformed.
SESSION_ERRORS = (OSError, EOFError, WireFormatError)

# The auth preamble, before any frame: a session can spawn processes and
# feed the host's decoders, and the listener may be reachable by every
# local user, so both sides prove knowledge of a shared authkey that
# never crosses the wire — multiprocessing.connection's challenge
# model, mutual here.
AUTH_NONCE_BYTES = 32


def _auth_digest(authkey: bytes, role: bytes, nonce: bytes) -> bytes:
    return hmac.new(authkey, role + b":" + nonce, hashlib.sha256).digest()


def auth_server(sock: socket.socket, authkey: bytes) -> bool:
    """Host side: challenge the connecting peer; returns False (never
    raises into frame parsing) when the peer fails to authenticate."""
    nonce = os.urandom(AUTH_NONCE_BYTES)
    sock.sendall(nonce)
    reply = recv_exact(sock, 2 * AUTH_NONCE_BYTES)
    digest = reply[:AUTH_NONCE_BYTES]
    peer_nonce = reply[AUTH_NONCE_BYTES:]
    if not hmac.compare_digest(digest, _auth_digest(authkey, b"coordinator", nonce)):
        return False
    sock.sendall(_auth_digest(authkey, b"host", peer_nonce))
    return True


def auth_client(sock: socket.socket, authkey: bytes) -> None:
    """Coordinator side: answer the host's challenge, then verify the
    host's proof (mutual — a squatter on a recycled port fails too)."""
    nonce = recv_exact(sock, AUTH_NONCE_BYTES)
    my_nonce = os.urandom(AUTH_NONCE_BYTES)
    sock.sendall(_auth_digest(authkey, b"coordinator", nonce) + my_nonce)
    proof = recv_exact(sock, AUTH_NONCE_BYTES)
    if not hmac.compare_digest(proof, _auth_digest(authkey, b"host", my_nonce)):
        raise WireFormatError("worker host failed session authentication")


def recv_exact(sock: socket.socket, n: int) -> bytes:
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
    header = recv_exact(sock, 8)
    (length,) = _U32.unpack_from(header, 4)
    if length > max_bytes:
        raise WireFormatError(
            f"session frame claims {length} bytes, above the "
            f"{max_bytes}-byte cap (corrupt length prefix?)"
        )
    tag, payload, _ = read_frame(header + recv_exact(sock, length + 4), 0)
    return tag, payload


def send_session_frame(sock: socket.socket, tag: bytes, payload: bytes) -> None:
    sock.sendall(pack_frame(tag, payload))


def _fixed(layout: struct.Struct, payload: bytes, what: str) -> tuple:
    if len(payload) != layout.size:
        raise WireFormatError(f"{what} is {len(payload)} bytes, not {layout.size}")
    return layout.unpack(payload)


# FCT1: ``u8 op | u32 a | u32 b``, host -> coordinator only: up(a=the
# slot worker's pid), busy(a=host pid), version(a=the host's
# SESSION_VERSION, b=the hello's).  The codes are v3's, so a v3 peer still
# reads a version refusal; v3's spawn, kill, bye and down (1, 2, 3, 5)
# are retired, never reused.
_CONTROL = struct.Struct("<BII")
_CONTROL_OPS = {"up": 4, "busy": 6, "version": 7}


def encode_control(op: str, a: int = 0, b: int = 0) -> bytes:
    return _CONTROL.pack(_CONTROL_OPS[op], a, b)


def decode_control(payload: bytes) -> tuple[str, int, int]:
    code, a, b = _fixed(_CONTROL, payload, "FCT1 control op")
    op = next((op for op, c in _CONTROL_OPS.items() if c == code), None)
    if op is None:
        raise WireFormatError(f"unknown FCT1 control op {code}")
    return op, a, b


_HELLO_HEAD = struct.Struct("<HQH")  # version, session id, fingerprint length


def plan_fingerprint(plan_blob: bytes) -> str:
    """The name a shipped plan goes by: the hex BLAKE2b-128 of the
    ``EPL1`` bytes its ``FPL1`` upload carries."""
    return hashlib.blake2b(plan_blob, digest_size=16).hexdigest()


def encode_hello(fingerprint: str, session: int, cfg: "WorkerConfig") -> bytes:
    """What every slot connection opens with: its coordinator's session
    id (one per transport, shared by all its slots), the plan's name and
    the worker config."""
    name = fingerprint.encode()
    blob = encode_worker_config(cfg)
    head = _HELLO_HEAD.pack(SESSION_VERSION, session, len(name))
    return head + name + _U32.pack(len(blob)) + blob


def decode_hello(payload: bytes) -> tuple[str, int, "WorkerConfig"]:
    """``(plan fingerprint, session id, worker config)``.  The version is
    judged before any later field is read, so a peer from another
    checkout gets a :class:`VersionMismatch`, never a misparse."""
    (version,) = Reader(payload, "FHL1 hello").unpack(_U16)
    if version not in SUPPORTED_VERSIONS["session"]:
        raise VersionMismatch(SESSION_VERSION, version)
    reader = Reader(payload, "FHL1 hello")
    _, session, name_len = reader.unpack(_HELLO_HEAD)
    fingerprint = reader.text(name_len)
    cfg = decode_worker_config(reader.take(*reader.unpack(_U32)))
    reader.finish()
    return fingerprint, session, cfg


_ACK = struct.Struct("<BI")  # need_plan, host pid
_HOST_REPORT = struct.Struct("<II")  # bound port, host pid


def encode_ack(need_plan: bool, pid: int) -> bytes:
    return _ACK.pack(int(need_plan), pid)


def decode_ack(payload: bytes) -> tuple[bool, int]:
    need_plan, pid = _fixed(_ACK, payload, "FHA1 ack")
    return bool(need_plan), pid


def encode_host_report(port: int, pid: int) -> bytes:
    """What a host the coordinator forked writes to its report pipe once
    listening."""
    return _HOST_REPORT.pack(port, pid)


def decode_host_report(payload: bytes) -> tuple[int, int]:
    return _fixed(_HOST_REPORT, payload, "host report")


# ---------------------------------------------------------------------------
# Worker config
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HostEnv:
    """Everything a worker host needs to rebuild an evaluator from
    scratch: the CKKS parameters and the exact RNS prime chain.  Every
    host builds the evaluator its ``FPL1`` plan loads against from it,
    whether the coordinator forked the host or an operator started it.
    The plan itself travels as ``EPL1`` bytes, not here."""

    params: CkksParameters
    primes: tuple[NttFriendlyPrime, ...]

    def build_evaluator(self):
        from repro.ckks.evaluator import Evaluator
        from repro.rns.basis import RnsBasis

        basis = RnsBasis(degree=self.params.degree, primes=tuple(self.primes))
        return Evaluator(self.params, basis)


@dataclass(frozen=True)
class WorkerConfig:
    """Per-worker knobs: handed to forked workers, sent once per session
    (inside the ``FHL1`` hello) to worker hosts.  What a worker can work
    out from the plan it holds — the reply packing width is
    ``wire_coeff_bits`` of its basis — is not here."""

    fused: bool
    chaos: FaultPlan | None
    heartbeat_s: float | None
    # Only the tcp transport sets it: the host rebuilds the evaluator
    # FPL1 plan bytes load against from it.
    env: HostEnv | None = None

    def __post_init__(self) -> None:
        # Event.wait() returns at once for a negative or NaN period: the
        # worker's heartbeat thread would spin, beating on every turn.
        if self.heartbeat_s is not None and not 0 < self.heartbeat_s < math.inf:
            raise ValueError("heartbeat_s must be finite and > 0")


def _to_json(value):
    """A config value as JSON: dataclass -> object, dict -> list of
    ``[key, value]`` pairs (JSON keys cannot be tuples), tuple -> list."""
    if is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return [[_to_json(k), _to_json(v)] for k, v in value.items()]
    if isinstance(value, tuple):
        return [_to_json(item) for item in value]
    return value


def _from_json(hint, obj, what: str):
    """``obj`` rebuilt as the annotated type ``hint``.  Scalars must have
    exactly that JSON type (an int widens to float; a bool is never an
    int), containers the annotated shape, and dataclasses exactly their
    fields — which then pass through the dataclass's own constructor."""
    args = typing.get_args(hint)
    if type(None) in args:  # X | None
        (hint,) = (arg for arg in args if arg is not type(None))
        return None if obj is None else _from_json(hint, obj, what)
    if hint is float and type(obj) is int:
        return float(obj)
    if hint in (int, float, str, bool):
        if type(obj) is not hint:
            raise WireFormatError(f"config field {what} is not {hint.__name__}")
        return obj
    if is_dataclass(hint):
        names = [f.name for f in fields(hint)]
        if not isinstance(obj, dict) or sorted(obj) != sorted(names):
            raise WireFormatError(f"config object {what} has the wrong keys")
        hints = typing.get_type_hints(hint)
        return hint(**{n: _from_json(hints[n], obj[n], f"{what}.{n}") for n in names})
    if not isinstance(obj, list):
        raise WireFormatError(f"config field {what} is not a list")
    if typing.get_origin(hint) is dict:
        if any(not isinstance(pair, list) or len(pair) != 2 for pair in obj):
            raise WireFormatError(f"config field {what} is not a list of pairs")
        return {
            _from_json(args[0], k, what): _from_json(args[1], v, what) for k, v in obj
        }
    if args[-1] is Ellipsis:  # tuple[X, ...]
        return tuple(_from_json(args[0], item, what) for item in obj)
    if len(obj) != len(args):  # tuple[X, Y, Z]
        raise WireFormatError(f"config field {what} is not a {len(args)}-tuple")
    return tuple(_from_json(arg, item, what) for arg, item in zip(args, obj))


def encode_worker_config(cfg: WorkerConfig) -> bytes:
    # NaN / Infinity are not JSON: refuse to write them, as the decoder
    # refuses to read them.
    obj = _to_json(cfg)
    return json.dumps(obj, separators=(",", ":"), allow_nan=False).encode("utf-8")


def _refuse_constant(token: str):
    raise WireFormatError(f"worker config holds the non-JSON number {token}")


def decode_worker_config(blob: bytes) -> WorkerConfig:
    """Rebuild a :class:`WorkerConfig` through the constructors of every
    value inside it: a wrong key, type or out-of-range value (``NaN`` and
    ``Infinity`` included) is a :class:`WireFormatError`."""
    try:
        obj = json.loads(blob.decode("utf-8"), parse_constant=_refuse_constant)
        return _from_json(WorkerConfig, obj, "config")
    except WireFormatError:
        raise
    except (ValueError, TypeError, RecursionError, OverflowError) as exc:
        raise WireFormatError(f"undecodable worker config: {exc!r}") from exc

"""Plan serialization: ship compiled ExecutionPlans across processes and hosts.

:func:`serialize_plan` gives a compiled
:class:`~repro.runtime.plan.ExecutionPlan` one self-contained, versioned
wire form — the ``EPL1`` framed binary format — and
:func:`deserialize_plan` rebuilds an executable plan from it with no
re-trace and no re-optimize.  The graph structure (input specs, op
schedule, outputs) rides in its own frames; every captured constant is
named in the ``CFPS`` table by a 16-byte content fingerprint and carried
once, in the ``CPAY`` frame, whose body is laid out as ``PCS1``.  The
``tcp`` transport ships exactly these bytes to each worker host
(``FPL1``).

Byte layouts and versioning/compat rules are specified normatively in
``docs/formats.md``; the framing primitives (:func:`pack_frame` /
:func:`read_frame`) and the bounds-checked :class:`Reader` every field
is read through are shared with :mod:`repro.ckks.serialization`.  A
malformed blob — truncated, bit-flipped, missing a frame, or describing
a graph the plan-time checks reject — raises :class:`PlanFormatError`
and nothing else.

Worker-boundary contract: nothing in this module is fork-shared or
process-cached — a serialized plan is a self-contained byte string, and
deserializing it in a fresh process rebuilds a plan whose batched
execution is bit-identical to the plan it was serialized from (pinned
by ``tests/integration/test_backend_identity.py``).
"""

from __future__ import annotations

import hashlib
import struct

from repro.ckks.containers import Plaintext
from repro.ckks.keys import SwitchingKey
from repro.ckks.serialization import (
    Reader,
    WireFormatError,
    deserialize_plaintext,
    deserialize_switching_key,
    pack_frame,
    read_frame,
    serialize_plaintext,
    serialize_switching_key,
    wire_coeff_bits,
)
from repro.runtime.graph import (
    CtSpec,
    Graph,
    PtSpec,
    check_input_spec,
    op_arities,
)
from repro.runtime.passes import PlanValidationError, check_alignment
from repro.runtime.plan import ExecutionPlan, params_fingerprint

__all__ = [
    "PLAN_MAGIC",
    "CONSTSTORE_MAGIC",
    "PLAN_VERSION",
    "CONSTSTORE_VERSION",
    "PlanFormatError",
    "serialize_plan",
    "deserialize_plan",
]

# Public: consumers that sniff blob types must dispatch on these, never
# on hardcoded copies (same rule as the ciphertext magics).  PCS1 is the
# layout of the CPAY frame's body.
PLAN_MAGIC = b"EPL1"
CONSTSTORE_MAGIC = b"PCS1"

PLAN_VERSION = 1
CONSTSTORE_VERSION = 1

#: Set in every EPL1 header: the CPAY constant payload is inline.
_FLAG_CONSTANTS_INLINE = 0x0001

_FINGERPRINT_BYTES = 16

# Stable opcode table (docs/formats.md "EPL1 / NODE").  Append-only:
# codes are part of the wire format and must never be renumbered.
OP_CODES = {
    "input": 0,
    "pt_input": 1,
    "add": 2,
    "sub": 3,
    "negate": 4,
    "add_plain": 5,
    "multiply_plain": 6,
    "multiply": 7,
    "relinearize": 8,
    "rescale": 9,
    "rotate": 10,
    "conjugate": 11,
    "apply_galois": 12,
}
_OP_NAMES = {code: name for name, code in OP_CODES.items()}

_KIND_CT = 0
_KIND_PT = 1

_CONST_PLAINTEXT = 0
_CONST_SWITCHING_KEY = 1

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_PLAN_HEADER = struct.Struct("<HH")  # version, flags
_META_HEAD = struct.Struct("<IHH")  # degree, moduli, backend length
#: ``META``'s backend field: frozen in the layout, always this reducer
#: name on write, read and ignored (``docs/formats.md``).
_META_BACKEND = b"barrett"
_SPEC = struct.Struct("<BHHd")  # kind, level, size, scale
_NODE_HEAD = struct.Struct("<BBHHdHHH")
_CFPS_ENTRY = struct.Struct(f"<B{_FINGERPRINT_BYTES}s")  # kind, fingerprint
_PCS1_HEAD = struct.Struct("<4sHHI")  # magic, version, reserved, count
_CNST_HEAD = struct.Struct(f"<{_FINGERPRINT_BYTES}sB")  # fingerprint, kind

_REQUIRED_FRAMES = (b"META", b"ISPC", b"NODE", b"OUTS", b"CFPS", b"CPAY")


class PlanFormatError(WireFormatError):
    """A plan blob is malformed: bad magic, unsupported version,
    truncated or corrupt frame, a constant that fails its fingerprint, or
    a graph the plan-time checks reject.

    Subclasses :class:`repro.ckks.serialization.WireFormatError`, so the
    serving stack's worker boundary surfaces a corrupt shipped plan as
    the same typed corruption signal as any other bad wire frame."""


def _fingerprint(body: bytes) -> bytes:
    return hashlib.blake2b(body, digest_size=_FINGERPRINT_BYTES).digest()


# ---------------------------------------------------------------------------
# Constants: the CFPS table and the CPAY (PCS1) payload
# ---------------------------------------------------------------------------


def _pack_constants(consts) -> tuple[bytes, bytes]:
    """``(CFPS, CPAY)`` payloads for a graph's constant table.

    Each constant is encoded once, in its canonical encoding (``PTX1`` at
    ``wire_coeff_bits`` of its basis, or ``SWK1`` at its default packing),
    and fingerprinted over exactly those bytes.  ``CPAY`` holds one
    ``CNST`` entry per distinct fingerprint, sorted, so value-identical
    constants ship once.
    """
    table = [_U32.pack(len(consts))]
    entries: dict[bytes, tuple[int, bytes]] = {}
    for obj in consts:
        if isinstance(obj, Plaintext):
            bits = wire_coeff_bits(obj.poly.basis)
            kind, body = _CONST_PLAINTEXT, serialize_plaintext(obj, coeff_bits=bits)
        elif isinstance(obj, SwitchingKey):
            kind, body = _CONST_SWITCHING_KEY, serialize_switching_key(obj)
        else:
            raise TypeError(
                f"plan constants must be Plaintext or SwitchingKey, got "
                f"{type(obj).__name__}"
            )
        fp = _fingerprint(body)
        table.append(_CFPS_ENTRY.pack(kind, fp))
        entries.setdefault(fp, (kind, body))
    payload = [_PCS1_HEAD.pack(CONSTSTORE_MAGIC, CONSTSTORE_VERSION, 0, len(entries))]
    for fp in sorted(entries):
        kind, body = entries[fp]
        payload.append(pack_frame(b"CNST", _CNST_HEAD.pack(fp, kind) + body))
    return b"".join(table), b"".join(payload)


def _unpack_fingerprints(payload: bytes) -> list[tuple[int, bytes]]:
    reader = Reader(payload, "EPL1 CFPS")
    (count,) = reader.unpack(_U32)
    table = [reader.unpack(_CFPS_ENTRY) for _ in range(count)]
    reader.finish()
    return table


def _unpack_constants(table: list[tuple[int, bytes]], payload: bytes, basis) -> list:
    """Decode the constants ``table`` names from a ``CPAY`` payload.

    Every ``CNST`` entry is re-fingerprinted before it is decoded, and
    each distinct fingerprint is decoded once (value-identical constants
    resolve to one object)."""
    magic, version, _, count = Reader(payload, "EPL1 CPAY").unpack(_PCS1_HEAD)
    if magic != CONSTSTORE_MAGIC:
        raise PlanFormatError("CPAY body is not a PCS1 payload")
    if version > CONSTSTORE_VERSION:
        raise PlanFormatError(
            f"PCS1 version {version} is newer than supported ({CONSTSTORE_VERSION})"
        )
    entries: dict[bytes, tuple[int, bytes]] = {}
    parsed = 0
    offset = _PCS1_HEAD.size
    while offset < len(payload):
        tag, frame, offset = read_frame(payload, offset)
        if tag != b"CNST":
            continue  # forward compat: skip unknown frames
        parsed += 1
        fp, kind = Reader(frame, "PCS1 CNST").unpack(_CNST_HEAD)
        body = frame[_CNST_HEAD.size :]
        if _fingerprint(body) != fp:
            raise PlanFormatError(f"CPAY entry fingerprint mismatch for {fp.hex()}")
        entries[fp] = (kind, body)
    if parsed != count:
        raise PlanFormatError(
            f"PCS1 payload declares {count} constant(s) but carries {parsed}"
        )
    missing = sorted({fp for _, fp in table if fp not in entries})
    if missing:
        raise PlanFormatError(
            f"{len(missing)} CFPS fingerprint(s) missing from CPAY: "
            + ", ".join(fp.hex() for fp in missing)
        )
    decoded: dict[bytes, object] = {}
    for kind, fp in table:
        entry_kind, body = entries[fp]
        if entry_kind != kind:
            raise PlanFormatError(
                f"constant {fp.hex()} is kind {kind} in CFPS, {entry_kind} in CPAY"
            )
        if fp not in decoded:
            if kind == _CONST_PLAINTEXT:
                decoded[fp] = deserialize_plaintext(body, basis)
            elif kind == _CONST_SWITCHING_KEY:
                decoded[fp] = deserialize_switching_key(body, basis)
            else:
                raise PlanFormatError(f"unknown constant kind {kind}")
    return [decoded[fp] for _, fp in table]


# ---------------------------------------------------------------------------
# Graph frames
# ---------------------------------------------------------------------------


def _pack_meta(plan: ExecutionPlan) -> bytes:
    basis = plan.evaluator.basis
    moduli = list(basis.moduli)
    signature = plan.signature.encode()
    return b"".join(
        [
            _META_HEAD.pack(basis.degree, len(moduli), len(_META_BACKEND)),
            struct.pack(f"<{len(moduli)}Q", *moduli),
            _META_BACKEND,
            _U16.pack(len(signature)),
            signature,
        ]
    )


def _unpack_meta(payload: bytes) -> tuple[int, tuple[int, ...], str]:
    reader = Reader(payload, "EPL1 META")
    degree, num_moduli, backend_len = reader.unpack(_META_HEAD)
    moduli = reader.array("Q", num_moduli)
    reader.text(backend_len)  # checked, then ignored
    signature = reader.text(*reader.unpack(_U16))
    reader.finish()
    return degree, moduli, signature


def _pack_input_specs(graph: Graph) -> bytes:
    out = [_U32.pack(len(graph.input_specs))]
    for spec in graph.input_specs:
        if isinstance(spec, CtSpec):
            out.append(_SPEC.pack(_KIND_CT, spec.level, spec.size, spec.scale))
        else:
            out.append(_SPEC.pack(_KIND_PT, spec.level, 1, spec.scale))
    return b"".join(out)


def _unpack_input_specs(payload: bytes, max_level: int) -> list[CtSpec | PtSpec]:
    reader = Reader(payload, "EPL1 ISPC")
    specs: list[CtSpec | PtSpec] = []
    for _ in range(*reader.unpack(_U32)):
        kind, level, size, scale = reader.unpack(_SPEC)
        if kind == _KIND_CT:
            spec = CtSpec(level=level, scale=scale, size=size)
        elif kind == _KIND_PT and size == 1:
            spec = PtSpec(level=level, scale=scale)
        else:
            raise PlanFormatError(f"input spec of kind {kind} with {size} part(s)")
        try:
            check_input_spec(spec, max_level)
        except ValueError as exc:
            raise PlanFormatError(str(exc)) from None
        specs.append(spec)
    reader.finish()
    return specs


def _pack_nodes(graph: Graph) -> bytes:
    out = [_U32.pack(len(graph.nodes))]
    for node in graph.nodes:
        code = OP_CODES.get(node.op)
        if code is None:
            raise PlanFormatError(f"op {node.op!r} has no wire opcode")
        kind = _KIND_CT if node.kind == "ct" else _KIND_PT
        out.append(
            _NODE_HEAD.pack(
                code,
                kind,
                node.level,
                node.size,
                node.scale,
                len(node.inputs),
                len(node.attrs),
                len(node.consts),
            )
        )
        if node.inputs:
            out.append(struct.pack(f"<{len(node.inputs)}I", *node.inputs))
        if node.attrs:
            out.append(struct.pack(f"<{len(node.attrs)}q", *node.attrs))
        if node.consts:
            out.append(struct.pack(f"<{len(node.consts)}I", *node.consts))
    return b"".join(out)


def _unpack_nodes(payload: bytes, graph: Graph, num_consts: int) -> None:
    """Append the ``NODE`` schedule to ``graph``, checking each entry's
    arity against its op's rule on the way; :func:`check_alignment`
    judges the metadata, leaves against their ``ISPC`` specs included."""
    reader = Reader(payload, "EPL1 NODE")
    for node_id in range(*reader.unpack(_U32)):
        code, kind, level, size, scale, n_in, n_attr, n_const = reader.unpack(
            _NODE_HEAD
        )
        op = _OP_NAMES.get(code)
        if op is None:
            raise PlanFormatError(f"unknown opcode {code} at node {node_id}")
        inputs = reader.array("I", n_in)
        attrs = reader.array("q", n_attr)
        consts = reader.array("I", n_const)
        where = f"node {node_id} ({op})"
        if (n_in, n_attr, n_const) not in op_arities(op):
            raise PlanFormatError(
                f"{where} carries {n_in} input(s), {n_attr} attr(s) and "
                f"{n_const} constant(s)"
            )
        if kind != (_KIND_PT if op == "pt_input" else _KIND_CT):
            raise PlanFormatError(f"{where} has kind code {kind}")
        if any(i >= node_id for i in inputs):
            raise PlanFormatError(f"{where} references a non-topological input")
        if any(c >= num_consts for c in consts):
            raise PlanFormatError(f"{where} references a constant past CFPS")
        graph.add_node(
            op,
            inputs=inputs,
            attrs=attrs,
            consts=consts,
            level=level,
            scale=scale,
            size=size,
            kind="pt" if kind == _KIND_PT else "ct",
        )
    reader.finish()


def _unpack_outputs(payload: bytes, num_nodes: int) -> tuple[int, ...]:
    reader = Reader(payload, "EPL1 OUTS")
    outputs = reader.array("I", *reader.unpack(_U32))
    reader.finish()
    if any(o >= num_nodes for o in outputs):
        raise PlanFormatError("plan output references a node past the schedule")
    return outputs


# ---------------------------------------------------------------------------
# EPL1
# ---------------------------------------------------------------------------


def serialize_plan(plan: ExecutionPlan) -> bytes:
    """Encode a compiled plan as one self-contained ``EPL1`` blob, every
    captured plaintext and switching key inline in its ``CPAY`` frame."""
    graph = plan.graph
    cfps, cpay = _pack_constants(graph.consts)
    return b"".join(
        [
            PLAN_MAGIC,
            _PLAN_HEADER.pack(PLAN_VERSION, _FLAG_CONSTANTS_INLINE),
            pack_frame(b"META", _pack_meta(plan)),
            pack_frame(b"ISPC", _pack_input_specs(graph)),
            pack_frame(b"NODE", _pack_nodes(graph)),
            pack_frame(
                b"OUTS",
                _U32.pack(len(graph.outputs))
                + struct.pack(f"<{len(graph.outputs)}I", *graph.outputs),
            ),
            pack_frame(b"CFPS", cfps),
            pack_frame(b"CPAY", cpay),
        ]
    )


def deserialize_plan(blob: bytes, evaluator) -> ExecutionPlan:
    """Rebuild an executable plan from an ``EPL1`` blob — no re-trace,
    no re-optimize.

    Raises :class:`PlanFormatError` — and nothing else — on a bad magic,
    a newer version, a truncated, corrupt or missing frame, a constant
    whose bytes fail their fingerprint or that ``CPAY`` lacks (every
    missing digest is named), a plan compiled for other parameters, or a
    graph that fails the plan-time alignment checks.
    """
    try:
        return _deserialize_plan(blob, evaluator)
    except PlanFormatError:
        raise
    except (WireFormatError, PlanValidationError) as exc:
        raise PlanFormatError(str(exc)) from exc


def _deserialize_plan(blob: bytes, evaluator) -> ExecutionPlan:
    if blob[:4] != PLAN_MAGIC:
        raise PlanFormatError("not an EPL1 plan blob")
    version, _flags = Reader(blob, "EPL1 header", 4).unpack(_PLAN_HEADER)
    if version > PLAN_VERSION:
        raise PlanFormatError(
            f"EPL1 version {version} is newer than supported ({PLAN_VERSION})"
        )
    frames: dict[bytes, bytes] = {}
    offset = 4 + _PLAN_HEADER.size
    while offset < len(blob):
        tag, payload, offset = read_frame(blob, offset)
        frames[tag] = payload  # unknown tags tolerated (forward compat)
    for required in _REQUIRED_FRAMES:
        if required not in frames:
            raise PlanFormatError(f"EPL1 blob missing required frame {required!r}")

    degree, moduli, signature = _unpack_meta(frames[b"META"])
    basis = evaluator.basis
    if (degree, moduli) != params_fingerprint(evaluator):
        raise PlanFormatError(
            f"plan compiled for degree {degree} / {len(moduli)}-prime chain; "
            f"evaluator has degree {basis.degree} / "
            f"{len(basis.moduli)}-prime chain"
        )
    graph = Graph(tuple(_unpack_input_specs(frames[b"ISPC"], len(moduli))), moduli)
    table = _unpack_fingerprints(frames[b"CFPS"])
    _unpack_nodes(frames[b"NODE"], graph, len(table))
    graph.set_outputs(_unpack_outputs(frames[b"OUTS"], len(graph.nodes)))
    # Arity, kind and id checks run above, before the (large) constant
    # payload is hashed and decoded; level, scale and part-count checks,
    # leaves included, run in check_alignment once the constants are in.
    graph.consts.extend(_unpack_constants(table, frames[b"CPAY"], basis))
    check_alignment(graph)
    return ExecutionPlan(graph=graph, evaluator=evaluator, signature=signature)

"""Plan serialization: EPL1 round trips, the constant payload, and
rejection of damaged blobs."""

from __future__ import annotations

import multiprocessing as mp
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from repro.ckks import CkksContext, toy_params
from repro.ckks.serialization import pack_frame, read_frame
from repro.runtime import (
    CtSpec,
    PlanFormatError,
    compile_fn,
    deserialize_plan,
    serialize_plan,
)
from repro.runtime.graph import _RULES, op_arities
from repro.runtime.plan_io import (
    _CONST_SWITCHING_KEY,
    CONSTSTORE_MAGIC,
    OP_CODES,
    PLAN_MAGIC,
)
from repro.runtime.trace import trace
from tests import BARRETT

PRIMES = 6
ROOT = Path(__file__).resolve().parents[2]
_NODE_HEAD = struct.Struct("<BBHHdHHH")  # opcode, kind, level, size, scale, counts


@pytest.fixture(scope="module")
def cjk(rctx):
    return rctx.keygen.gen_conjugation(rctx.secret_key, [PRIMES])


def _program(rctx, rlk, gks, cjk):
    half_pt = {}  # encode once so every trace captures the same object

    def model(ev, x, y):
        rot = ev.add(ev.rotate(x, 1, gks), ev.rotate(x, 2, gks))
        prod = ev.multiply_relin_rescale(rot, y, rlk)
        if "half" not in half_pt:
            half_pt["half"] = rctx.encoder.encode(
                np.full(rctx.params.slots, 0.5),
                level=prod.level,
                scale=prod.scale,
            )
        return ev.add_plain(prod, half_pt["half"]), ev.conjugate(rot, cjk)

    spec = CtSpec(level=PRIMES, scale=rctx.params.scale)
    return model, [spec, spec]


@pytest.fixture(scope="module")
def plan(rctx, rlk, gks, cjk):
    model, specs = _program(rctx, rlk, gks, cjk)
    return compile_fn(model, rctx.evaluator, specs)


@pytest.fixture(scope="module")
def inputs(rctx):
    rng = np.random.default_rng(17)
    return [
        rctx.encrypt(rng.uniform(-1, 1, rctx.params.slots)),
        rctx.encrypt(rng.uniform(-1, 1, rctx.params.slots)),
    ]


def _assert_outputs_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.scale == w.scale
        for gp, wp in zip(g.parts, w.parts):
            assert np.array_equal(gp.data, wp.data)


class TestRoundTrip:
    def test_structure_preserved(self, rctx, plan):
        blob = serialize_plan(plan)
        assert blob[:4] == PLAN_MAGIC
        back = deserialize_plan(blob, rctx.evaluator)
        assert back.signature == plan.signature
        assert back.input_specs == plan.input_specs
        assert back.graph.outputs == plan.graph.outputs
        assert back.fused().groups == plan.fused().groups
        assert len(back.graph.nodes) == len(plan.graph.nodes)
        for a, b in zip(plan.graph.nodes, back.graph.nodes):
            assert (a.op, a.inputs, a.attrs, a.consts) == (
                b.op,
                b.inputs,
                b.attrs,
                b.consts,
            )
            assert (a.level, a.scale, a.size, a.kind) == (
                b.level,
                b.scale,
                b.size,
                b.kind,
            )

    def test_reserialization_is_byte_identical(self, rctx, plan):
        blob = serialize_plan(plan)
        again = serialize_plan(deserialize_plan(blob, rctx.evaluator))
        assert again == blob

    def test_execution_bit_identical(self, rctx, plan, inputs):
        back = deserialize_plan(serialize_plan(plan), rctx.evaluator)
        _assert_outputs_equal(
            back.run_batch([inputs])[0], plan.run_batch([inputs])[0]
        )
        _assert_outputs_equal(back.run(inputs), plan.run(inputs))

    @BARRETT
    @pytest.mark.parametrize("seed", [3, 11])
    def test_roundtrip_under_every_backend(self, seed):
        """Seeded program round trips: deserialized execution must be
        bit-identical to the traced plan's."""
        ctx = CkksContext.create(toy_params(degree=128, num_primes=PRIMES), seed=seed)
        rlk = ctx.relin_keys(levels=[PRIMES])
        gks = ctx.galois_keys([1, 2], levels=[PRIMES])
        rng = np.random.default_rng(seed)

        def model(ev, x):
            s = ev.add(ev.rotate(x, 1, gks), ev.rotate(x, 2, gks))
            return ev.multiply_relin_rescale(s, s, rlk)

        plan = compile_fn(
            model,
            ctx.evaluator,
            [CtSpec(level=PRIMES, scale=ctx.params.scale)],
        )
        back = deserialize_plan(serialize_plan(plan), ctx.evaluator)
        batch = [[ctx.encrypt(rng.uniform(-1, 1, ctx.params.slots))]]
        _assert_outputs_equal(back.run_batch(batch)[0], plan.run_batch(batch)[0])

    def test_meta_backend_field_is_read_and_ignored(
        self, rctx, rlk, gks, cjk, plan, inputs
    ):
        """``META`` keeps its backend field (formats rule 3): the writer
        emits ``barrett``, and a blob naming ``montgomery`` — what an
        older writer emitted under that reducer — still loads and replays
        to the eager bytes."""
        blob = serialize_plan(plan)
        frames = _frames(blob)
        assert _meta_backend(frames[b"META"]) == b"barrett"
        meta = _with_meta_backend(frames[b"META"], b"montgomery")
        old = _reframe(blob, {**frames, b"META": meta})
        back = deserialize_plan(old, rctx.evaluator)
        model, _ = _program(rctx, rlk, gks, cjk)
        eager = list(model(rctx.evaluator, *inputs))
        _assert_outputs_equal(back.run_batch([inputs])[0], eager)

    def test_params_mismatch_rejected(self, plan):
        other = CkksContext.create(toy_params(degree=128, num_primes=4), seed=9)
        with pytest.raises(PlanFormatError, match="compiled for"):
            deserialize_plan(serialize_plan(plan), other.evaluator)


def _frames(blob: bytes) -> dict[bytes, bytes]:
    """Tag -> payload of every frame after the 8-byte EPL1 header."""
    frames, offset = {}, 8
    while offset < len(blob):
        tag, payload, offset = read_frame(blob, offset)
        frames[tag] = payload
    return frames


def _reframe(blob: bytes, frames: dict[bytes, bytes]) -> bytes:
    return blob[:8] + b"".join(pack_frame(t, p) for t, p in frames.items())


def _cfps(blob: bytes) -> list[bytes]:
    payload = _frames(blob)[b"CFPS"]
    (count,) = struct.unpack_from("<I", payload)
    return [payload[4 + 17 * i : 4 + 17 * (i + 1)] for i in range(count)]


def _poly3(rctx, rlk):
    """x^4 + x^2 + 1/2: relinearizations at two levels, one key."""

    def model(ev, x):
        def square(v):
            return ev.rescale(ev.relinearize(ev.multiply(v, v), rlk), times=2)

        encode, ones = rctx.encoder.encode, np.ones(rctx.params.slots)
        x2 = square(x)
        unity = encode(ones, level=x2.level, scale=x2.scale)
        y = ev.add(square(x2), ev.rescale(ev.multiply_plain(x2, unity), times=2))
        return [ev.add_plain(y, encode(0.5 * ones, level=y.level, scale=y.scale))]

    return model


class TestOneKeyAcrossLevels:
    """A plan relinearizing at two levels through one top-level key holds,
    ships and replays that key once."""

    def test_poly3_holds_and_ships_one_key(self, rctx, rlk):
        assert rlk[PRIMES] is rlk[PRIMES - 2]
        spec = CtSpec(level=PRIMES, scale=rctx.params.scale)
        plan = compile_fn(_poly3(rctx, rlk), rctx.evaluator, [spec])
        assert plan.graph.op_histogram()["relinearize"] == 2
        assert plan.stats()["consts"] == 3
        kinds = [entry[0] for entry in _cfps(serialize_plan(plan))]
        assert kinds.count(_CONST_SWITCHING_KEY) == 1

    def test_poly3_every_path_is_byte_identical(self, rctx, rlk, inputs):
        model = _poly3(rctx, rlk)
        spec = CtSpec(level=PRIMES, scale=rctx.params.scale)
        plan = compile_fn(model, rctx.evaluator, [spec])
        x = inputs[:1]
        eager = model(rctx.evaluator, *x)
        back = deserialize_plan(serialize_plan(plan), rctx.evaluator)
        _assert_outputs_equal(plan.run_batch([x])[0], eager)
        _assert_outputs_equal(plan.run(x), eager)
        _assert_outputs_equal(back.run_batch([x])[0], eager)


class TestConstantPayload:
    """The plan's constants: a CFPS fingerprint table plus the CPAY
    payload, laid out as PCS1, that carries each distinct one once."""

    def test_pcs1_roundtrip_and_dedup(self, plan):
        blob = serialize_plan(plan)
        cpay = _frames(blob)[b"CPAY"]
        assert cpay[:4] == CONSTSTORE_MAGIC
        version, _, count = struct.unpack_from("<HHI", cpay, 4)
        assert (version, count) == (1, len(plan.graph.consts))
        entries, offset = [], 12
        while offset < len(cpay):
            tag, payload, offset = read_frame(cpay, offset)
            assert tag == b"CNST"
            entries.append(payload[:16])
        # One CNST entry per distinct CFPS fingerprint, sorted.
        assert entries == sorted({entry[1:] for entry in _cfps(blob)})

    def test_missing_constants_listed(self, rctx, plan):
        blob = serialize_plan(plan)
        frames = _frames(blob)
        frames[b"CPAY"] = CONSTSTORE_MAGIC + struct.pack("<HHI", 1, 0, 0)
        with pytest.raises(PlanFormatError, match="missing from CPAY") as err:
            deserialize_plan(_reframe(blob, frames), rctx.evaluator)
        for entry in _cfps(blob):
            assert entry[1:].hex() in str(err.value)

    def test_content_signature_stable_across_copies(self, rctx, plan, rlk, gks, cjk):
        """Constants are named by content, not object identity: a plan
        rebuilt from bytes holds new constant objects, so its id-based
        graph signature differs, yet it fingerprints them identically."""
        model, specs = _program(rctx, rlk, gks, cjk)
        g1 = trace(model, rctx.evaluator, specs)
        g2 = trace(model, rctx.evaluator, specs)
        assert g1.signature() == g2.signature()  # same live objects
        blob = serialize_plan(plan)
        back = deserialize_plan(blob, rctx.evaluator)
        assert back.graph.signature() != plan.graph.signature()  # id-based
        assert _cfps(serialize_plan(back)) == _cfps(blob)


class TestDamagedArtifacts:
    def test_wrong_magic(self, rctx, plan):
        blob = bytearray(serialize_plan(plan))
        blob[:4] = b"NOPE"
        with pytest.raises(PlanFormatError, match="not an EPL1"):
            deserialize_plan(bytes(blob), rctx.evaluator)

    def test_newer_version_rejected(self, rctx, plan):
        blob = bytearray(serialize_plan(plan))
        blob[4:6] = struct.pack("<H", 99)
        with pytest.raises(PlanFormatError, match="newer than supported"):
            deserialize_plan(bytes(blob), rctx.evaluator)

    def test_truncated_blob_rejected(self, rctx, plan):
        blob = serialize_plan(plan)
        with pytest.raises(PlanFormatError, match="truncated"):
            deserialize_plan(blob[: len(blob) - 7], rctx.evaluator)

    def test_corrupt_frame_rejected(self, rctx, plan):
        blob = bytearray(serialize_plan(plan))
        # Flip one bit inside the NODE frame's payload: CRC must catch it.
        node_at = bytes(blob).index(b"NODE")
        blob[node_at + 20] ^= 0x01
        with pytest.raises(PlanFormatError, match="CRC"):
            deserialize_plan(bytes(blob), rctx.evaluator)

    def test_missing_required_frame_rejected(self, rctx, plan):
        blob = serialize_plan(plan)
        # Keep only the 8-byte header + the first (META) frame.
        _, _, end_of_meta = read_frame(blob, 8)
        with pytest.raises(PlanFormatError, match="missing required frame"):
            deserialize_plan(blob[:end_of_meta], rctx.evaluator)

    @pytest.mark.parametrize(
        "craft",
        [
            pytest.param(lambda blob: b"EPL1", id="magic-only"),
            pytest.param(lambda blob: blob[:6], id="six-byte-header"),
            *(
                pytest.param(
                    lambda blob, tag=tag: _reframe(
                        blob, {**_frames(blob), tag: _frames(blob)[tag][:3]}
                    ),
                    id=f"short-{tag.decode()}",
                )
                for tag in (b"META", b"ISPC", b"NODE", b"OUTS", b"CPAY")
            ),
            pytest.param(
                # META = degree, moduli, backend length, moduli, backend...
                lambda blob: _reframe(
                    blob, {**_frames(blob), b"META": _non_utf8_backend(blob)}
                ),
                id="non-utf8-backend",
            ),
        ],
    )
    def test_crafted_blob_raises_plan_format_error(self, rctx, plan, craft):
        """A CRC-valid but malformed blob is a PlanFormatError, never a
        struct.error or UnicodeDecodeError."""
        with pytest.raises(PlanFormatError):
            deserialize_plan(craft(serialize_plan(plan)), rctx.evaluator)


def _with_scale(blob: bytes, node_id: int, factor: float) -> bytes:
    """``blob`` with node ``node_id``'s recorded scale times ``factor``,
    the NODE frame's CRC re-stamped."""
    frames = _frames(blob)
    node = bytearray(frames[b"NODE"])
    at = 4
    for _ in range(node_id):
        *_, n_in, n_attr, n_const = _NODE_HEAD.unpack_from(node, at)
        at += _NODE_HEAD.size + 4 * n_in + 8 * n_attr + 4 * n_const
    (scale,) = struct.unpack_from("<d", node, at + 6)
    struct.pack_into("<d", node, at + 6, scale * factor)
    return _reframe(blob, {**frames, b"NODE": bytes(node)})


class TestForgedScale:
    """A decoded node's scale must be the one its op's rule derives: a
    doubled output scale, CRC re-stamped, would otherwise replay into a
    result that decodes to half (or twice) the right value."""

    @pytest.mark.parametrize("op", ["rescale", "add", "multiply_plain", "rotate"])
    def test_doubled_output_scale_rejected(self, rctx, gks, op):
        delta = rctx.params.scale
        half = rctx.encoder.encode(
            np.full(rctx.params.slots, 0.5), level=PRIMES, scale=delta
        )
        program = {
            "rescale": lambda ev, x: ev.rescale(x, 1),
            "add": lambda ev, x: ev.add(x, x),
            "multiply_plain": lambda ev, x: ev.multiply_plain(x, half),
            "rotate": lambda ev, x: ev.rotate(x, 1, gks),
        }[op]
        plan = compile_fn(program, rctx.evaluator, [CtSpec(level=PRIMES, scale=delta)])
        (out,) = plan.graph.outputs
        assert plan.graph.nodes[out].op == op
        blob = serialize_plan(plan)
        deserialize_plan(blob, rctx.evaluator)  # the honest blob decodes
        with pytest.raises(PlanFormatError, match="rule gives"):
            deserialize_plan(_with_scale(blob, out, 2.0), rctx.evaluator)


def _cell_items(cell: str) -> list[str]:
    """``"(ct, pt¹)"`` -> ``["ct", "pt¹"]``; ``"—"`` -> ``[]``."""
    return [item.strip() for item in cell.strip("()").split(",") if item.strip("— ")]


def test_docs_opcode_table_matches_the_rule_table():
    """docs/formats.md's NODE opcode table is ``OP_CODES`` and, row by
    row, the operand kinds, attribute count and constants of the op's rule
    (a ``¹`` item is the plaintext, carried as an operand or a constant)."""
    text = (ROOT / "docs" / "formats.md").read_text()
    section = text[text.index("### `NODE`") : text.index("### `OUTS`")]
    rows = [
        [cell.strip().strip("`") for cell in line.strip().strip("|").split("|")]
        for line in section.splitlines()
        if re.match(r"\|\s*\d+\s*\|", line)
    ]
    assert {op: int(code) for code, op, *_ in rows} == OP_CODES
    const_names = {"plaintext": "Plaintext", "switching key": "SwitchingKey"}
    for _code, op, inputs, attrs, consts in rows:
        ins, cs = _cell_items(inputs), _cell_items(consts)
        kinds = tuple(i.rstrip("¹") for i in ins if not i.endswith("¹"))
        types = tuple(const_names[c.rstrip("¹")] for c in cs if not c.endswith("¹"))
        forms = {(kinds, types)}
        if any(i.endswith("¹") for i in ins):
            forms = {
                (kinds + ("pt",), types),
                (kinds, types + tuple(const_names[c.rstrip("¹")] for c in cs)),
            }
        rule = _RULES[op]
        assert forms == {(k, tuple(t.__name__ for t in ts)) for k, ts in rule.forms}, op
        assert len(_cell_items(attrs)) == rule.attrs, op
        assert op_arities(op) == {
            (len(k), rule.attrs, len(t)) for k, t in forms
        }, op


def _meta_backend(meta: bytes) -> bytes:
    _, num_moduli, length = struct.unpack_from("<IHH", meta)
    start = 8 + 8 * num_moduli
    return meta[start : start + length]


def _with_meta_backend(meta: bytes, name: bytes) -> bytes:
    degree, num_moduli, length = struct.unpack_from("<IHH", meta)
    start = 8 + 8 * num_moduli
    head = struct.pack("<IHH", degree, num_moduli, len(name))
    return head + meta[8:start] + name + meta[start + length :]


def _non_utf8_backend(blob: bytes) -> bytes:
    meta = bytearray(_frames(blob)[b"META"])
    _, num_moduli, _ = struct.unpack_from("<IHH", meta)
    meta[8 + 8 * num_moduli] = 0xFF  # first byte of the backend name
    return bytes(meta)


def _fresh_process_serve(path, conn) -> None:
    """Child body for the cross-process smoke: rebuild a context (fresh
    caches, fresh everything), read the plan file — no re-trace — then
    serve request ciphertexts arriving over the wire."""
    from repro.ckks.serialization import (
        deserialize_ciphertext,
        serialize_ciphertext,
        wire_coeff_bits,
    )

    ctx = CkksContext.create(toy_params(degree=128, num_primes=PRIMES), seed=41)
    plan = deserialize_plan(path.read_bytes(), ctx.evaluator)
    bits = wire_coeff_bits(ctx.basis)
    batch = [deserialize_ciphertext(b, ctx.basis) for b in conn.recv()]
    outs = plan.run_batch([batch])[0]
    conn.send([serialize_ciphertext(o, coeff_bits=bits) for o in outs])
    conn.close()


@pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="requires fork"
)
def test_plan_serves_in_fresh_process(tmp_path, rctx, plan, inputs):
    """Serialize here, deserialize in another process, byte-compare."""
    from repro.ckks.serialization import serialize_ciphertext, wire_coeff_bits

    path = tmp_path / "shipped.epl1"
    path.write_bytes(serialize_plan(plan))
    bits = wire_coeff_bits(rctx.basis)
    ctx_mp = mp.get_context("fork")
    parent_conn, child_conn = ctx_mp.Pipe()
    proc = ctx_mp.Process(target=_fresh_process_serve, args=(path, child_conn))
    proc.start()
    child_conn.close()
    parent_conn.send(
        [serialize_ciphertext(ct, coeff_bits=bits) for ct in inputs]
    )
    remote_blobs = parent_conn.recv()
    proc.join(timeout=60)
    parent_conn.close()

    local = [
        serialize_ciphertext(o, coeff_bits=bits)
        for o in plan.run_batch([inputs])[0]
    ]
    assert remote_blobs == local

"""Wire bytes and decoded outputs pinned against a committed golden.

``golden_bytes.json`` holds SHA-256 digests of what a fixed seed puts on
the wire — an encoded plaintext (at Δ and at a rescaled, non-power-of-two
scale), a fresh ciphertext, a seeded upload, a switching key and two
key-switched outputs — generated on the commit *before* the client
upload path was re-expressed (limb-blocked NTT, three-transform encrypt,
mantissa/exponent Expand-RNS, word-level packing).  The ``decoded*``
digests are what the download half returns — ``decode(decrypt(.))`` of
the fresh ciphertext, of the multiplied one and of a level-2, scale-2^36
reply — generated the same way (``PYTHONPATH=<parent>/src``) on the commit
*before* Combine-CRT became word-level Garner.  The ``n16_l3`` shape —
the paper's N, where ``BatchNtt`` walks one limb per block — carries the
client digests only and was taken on the commit *before* the butterflies
were re-laid (buffer-scoped, transposed late stages) and encrypt streamed
limb by limb.  ``plan_frames`` pins the bytes ``serialize_plan`` writes
for a seeded plan with a rotate, a relinearize and a captured plaintext:
SHA-256 over the ``EPL1`` header and every frame except ``META`` (whose
signature is a process-local ``id()`` hash), taken on the commit *before*
the plan writer stopped encoding each constant twice.  "Byte-equal to
before" is therefore checked here rather than asserted in a commit
message.

Regenerate (only when a format change is intended and documented in
``docs/formats.md``)::

    PYTHONPATH=src python tests/integration/test_golden_bytes.py > \
        tests/integration/golden_bytes.json
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.ckks import (
    CkksContext,
    Plaintext,
    read_frame,
    serialize_ciphertext,
    serialize_plaintext,
    serialize_seeded,
    serialize_switching_key,
    toy_params,
)
from repro.runtime import (
    CtSpec,
    PlanFormatError,
    compile_fn,
    deserialize_plan,
    serialize_plan,
)
from tests import BARRETT

GOLDEN_FILE = pathlib.Path(__file__).with_name("golden_bytes.json")
SEED = 2025
SHAPES = {
    "toy": toy_params(),
    "n12_l6": toy_params(degree=1 << 12, num_primes=6),
    "n16_l3": toy_params(degree=1 << 16, num_primes=3),
}
CLIENT_ONLY = {"n16_l3"}  # no switching keys at N = 2^16: upload and download only


def plan_frames(blob: bytes) -> list[tuple[bytes, bytes]]:
    """``(tag, whole frame bytes)`` for every frame of an ``EPL1`` blob."""
    frames, offset = [], 8
    while offset < len(blob):
        tag, _, end = read_frame(blob, offset)
        frames.append((tag, blob[offset:end]))
        offset = end
    return frames


def plan_frames_digest(blob: bytes) -> str:
    """SHA-256 over the ``EPL1`` header and every frame but ``META``."""
    h = hashlib.sha256(blob[:8])
    for tag, frame in plan_frames(blob):
        if tag != b"META":
            h.update(frame)
    return h.hexdigest()


def seeded_plan(ctx, rlk, gks, plaintext):
    """``rotate -> multiply_relin_rescale -> add_plain(plaintext)`` over
    one top-level ciphertext input, compiled."""

    def model(ev, x):
        prod = ev.multiply_relin_rescale(ev.rotate(x, 1, gks), x, rlk)
        return ev.add_plain(prod, plaintext)

    spec = CtSpec(level=ctx.params.num_primes, scale=ctx.params.scale)
    return compile_fn(model, ctx.evaluator, [spec])


def wire_digests(params, client_only: bool = False) -> dict[str, str]:
    """SHA-256 of every wire form one seeded context produces."""
    ctx = CkksContext.create(params, seed=SEED)
    top = params.num_primes
    rng = np.random.default_rng(SEED)
    msg = rng.uniform(-1, 1, params.slots) + 1j * rng.uniform(-1, 1, params.slots)
    if not client_only:
        rlk = ctx.relin_keys(levels=[top])
        gks = ctx.galois_keys([1], levels=[top])

    plaintext = ctx.encode(msg)
    ct = ctx.encryptor.encrypt(plaintext)
    low = ctx.encryptor.encrypt(plaintext, level=top - 1)
    sym, seed = ctx.encryptor.encrypt_symmetric_seeded(plaintext, ctx.secret_key)
    if client_only:
        # The reply is encrypted after every upload above, so those keep
        # the randomness they were taken with.
        reply = ctx.encryptor.encrypt(ctx.encoder.encode(msg, level=2, scale=2.0**36))
        blobs = {
            "ciphertext": serialize_ciphertext(ct),
            "seeded": serialize_seeded(sym, seed),
            "fft_inverse": ctx.encoder.fft.inverse(msg).tobytes(),
            "decoded": ctx.decrypt_decode(ct).tobytes(),
            "decoded_reply": ctx.decrypt_decode(reply).tobytes(),
        }
        return {name: hashlib.sha256(blob).hexdigest() for name, blob in blobs.items()}
    prod = ctx.evaluator.multiply_relin_rescale(ct, ct, rlk)
    rescaled_scale = ctx.encoder.encode(msg, level=prod.level, scale=prod.scale)
    reply = ctx.encryptor.encrypt(ctx.encoder.encode(msg, level=2, scale=2.0**36))
    blobs = {
        "plaintext": serialize_plaintext(plaintext),
        "plaintext_rescaled_scale": serialize_plaintext(rescaled_scale),
        "ciphertext": serialize_ciphertext(ct),
        "ciphertext_below_top": serialize_ciphertext(low),
        "seeded": serialize_seeded(sym, seed),
        "switching_key": serialize_switching_key(rlk[top]),
        "rotated": serialize_ciphertext(ctx.evaluator.rotate(ct, 1, gks)),
        "multiplied": serialize_ciphertext(prod),
        # Not a wire form: the float IFFT the plaintext is rounded from.
        "fft_inverse": ctx.encoder.fft.inverse(msg).tobytes(),
        # Nor these: the complex slots the download half hands back.
        "decoded": ctx.decrypt_decode(ct).tobytes(),
        "decoded_multiplied": ctx.decrypt_decode(prod).tobytes(),
        "decoded_reply": ctx.decrypt_decode(reply).tobytes(),
    }
    digests = {name: hashlib.sha256(blob).hexdigest() for name, blob in blobs.items()}
    plan = seeded_plan(ctx, rlk, gks, rescaled_scale)
    digests["plan_frames"] = plan_frames_digest(serialize_plan(plan))
    digests.update(op_digests(ctx, ct, low, plaintext, gks))
    return digests


def op_digests(ctx, ct, low, plaintext, gks) -> dict[str, str]:
    """SHA-256 of each op's eager output: its scale, then every part's
    residues.  The extra keys are generated last, so every digest above
    keeps the randomness it was taken with."""
    ev = ctx.evaluator
    top = ctx.params.num_primes
    gks = {**gks, **ctx.galois_keys([2], levels=[top])}
    conj = ctx.keygen.gen_conjugation(ctx.secret_key, levels=[top])
    outs = {
        "op_sub": ev.sub(ct, low),
        "op_negate": ev.negate(ct),
        "op_add_mixed_levels": ev.add(low, ct),
        "op_add_plain": ev.add_plain(ct, plaintext),
        "op_multiply_plain": ev.multiply_plain(ct, plaintext),
        "op_multiply_unrelinearized": ev.multiply(ct, low),
        "op_rescale": ev.rescale(ct, times=1),
        "op_conjugate": ev.conjugate(ct, conj),
        # Named for the hoisted rotations they once were: a shared
        # decomposition gives the same bytes as a rotation's own.
        "op_hoisted_rotate_1": ev.rotate(ct, 1, gks),
        "op_hoisted_rotate_2": ev.rotate(ct, 2, gks),
    }
    return {
        name: hashlib.sha256(
            np.float64(out.scale).tobytes() + b"".join(p.data.tobytes() for p in out.parts)
        ).hexdigest()
        for name, out in outs.items()
    }


@BARRETT
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_wire_bytes_match_golden(shape):
    golden = json.loads(GOLDEN_FILE.read_text())[shape]
    got = wire_digests(SHAPES[shape], shape in CLIENT_ONLY)
    if got["fft_inverse"] != golden["fft_inverse"]:
        # Δ = 2^72 keeps every mantissa bit of the IFFT output, so a libm
        # whose exp() differs in the last place encodes other integers.
        pytest.skip("this platform's float FFT differs from the golden's")
    assert got == golden


@pytest.fixture(scope="module")
def twin_plaintext_plan():
    """A seeded toy plan adding two value-identical captured plaintexts —
    equal encodings, distinct objects — to one product."""
    ctx = CkksContext.create(SHAPES["toy"], seed=SEED)
    top = ctx.params.num_primes
    rlk = ctx.relin_keys(levels=[top])
    gks = ctx.galois_keys([1], levels=[top])
    half = np.full(ctx.params.slots, 0.5)

    def model(ev, x):
        prod = ev.multiply_relin_rescale(ev.rotate(x, 1, gks), x, rlk)
        twins = [
            ctx.encoder.encode(half, level=prod.level, scale=prod.scale)
            for _ in range(2)
        ]
        return [ev.add_plain(prod, pt) for pt in twins]

    spec = CtSpec(level=top, scale=ctx.params.scale)
    return compile_fn(model, ctx.evaluator, [spec])


def test_blob_without_cpay_is_rejected(twin_plaintext_plan):
    """What the deleted lean writer produced — every frame but ``CPAY``,
    header flags 0 — is malformed, not a plan awaiting its constants."""
    blob = serialize_plan(twin_plaintext_plan)
    lean = blob[:6] + b"\x00\x00" + b"".join(
        frame for tag, frame in plan_frames(blob) if tag != b"CPAY"
    )
    with pytest.raises(PlanFormatError, match="CPAY"):
        deserialize_plan(lean, twin_plaintext_plan.evaluator)


def test_value_identical_plaintexts_share_one_cnst_entry(twin_plaintext_plan):
    """Two value-identical captured plaintexts are two ``CFPS`` entries
    and one ``CNST`` frame."""
    consts = twin_plaintext_plan.graph.consts
    twins = [c for c in consts if isinstance(c, Plaintext)]
    assert len(twins) == 2 and twins[0] is not twins[1]
    frames = dict(plan_frames(serialize_plan(twin_plaintext_plan)))
    cfps, cpay = frames[b"CFPS"][8:-4], frames[b"CPAY"][8:-4]
    table = [cfps[4 + 17 * i : 21 + 17 * i] for i in range(len(consts))]
    plaintext_fps = [entry[1:] for entry in table if entry[0] == 0]
    assert len(plaintext_fps) == 2 and plaintext_fps[0] == plaintext_fps[1]
    cnst, offset = [], 12
    while offset < len(cpay):
        _, payload, offset = read_frame(cpay, offset)
        cnst.append(payload[:16])
    assert sorted(cnst) == sorted({entry[1:] for entry in table})
    assert len(cnst) == len(consts) - 1


if __name__ == "__main__":
    print(
        json.dumps(
            {name: wire_digests(p, name in CLIENT_ONLY) for name, p in SHAPES.items()},
            indent=2,
        )
    )

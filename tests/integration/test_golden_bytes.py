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
limb by limb.  "Byte-equal to before" is therefore checked here, under
every reducer backend, rather than asserted in a commit message.

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
    serialize_ciphertext,
    serialize_plaintext,
    serialize_seeded,
    serialize_switching_key,
    toy_params,
)
from repro.nums.kernels import available_backends, using_backend

GOLDEN_FILE = pathlib.Path(__file__).with_name("golden_bytes.json")
SEED = 2025
SHAPES = {
    "toy": toy_params(),
    "n12_l6": toy_params(degree=1 << 12, num_primes=6),
    "n16_l3": toy_params(degree=1 << 16, num_primes=3),
}
CLIENT_ONLY = {"n16_l3"}  # no switching keys at N = 2^16: upload and download only


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
        blobs = {
            "ciphertext": serialize_ciphertext(ct),
            "seeded": serialize_seeded(sym, seed),
            "fft_inverse": ctx.encoder.fft.inverse(msg).tobytes(),
            "decoded": ctx.decrypt_decode(ct).tobytes(),
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
    return {name: hashlib.sha256(blob).hexdigest() for name, blob in blobs.items()}


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_wire_bytes_match_golden(shape, backend):
    golden = json.loads(GOLDEN_FILE.read_text())[shape]
    with using_backend(backend):
        got = wire_digests(SHAPES[shape], shape in CLIENT_ONLY)
    if got["fft_inverse"] != golden["fft_inverse"]:
        # Δ = 2^72 keeps every mantissa bit of the IFFT output, so a libm
        # whose exp() differs in the last place encodes other integers.
        pytest.skip("this platform's float FFT differs from the golden's")
    assert got == golden


if __name__ == "__main__":
    print(
        json.dumps(
            {name: wire_digests(p, name in CLIENT_ONLY) for name, p in SHAPES.items()},
            indent=2,
        )
    )

"""Wire formats: bit-packing exactness, traffic-model agreement, and
round trips through the serving engine's forked-worker boundary."""

from __future__ import annotations

import multiprocessing as mp
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks import CkksContext, toy_params
from repro.ckks.containers import Ciphertext
from repro.ckks.serialization import (
    _HEADER_LEN,
    _PACK_PASS_VALUES,
    SEEDED_MAGIC,
    SWITCHING_KEY_MAGIC,
    WireFormatError,
    _pack_words,
    ciphertext_wire_bytes,
    deserialize_ciphertext,
    deserialize_plaintext,
    deserialize_seeded,
    deserialize_switching_key,
    pack_frame,
    pack_residues,
    read_frame,
    serialize_ciphertext,
    serialize_plaintext,
    serialize_seeded,
    serialize_switching_key,
    unpack_residues,
    wire_coeff_bits,
)
from repro.rns.poly import EVAL, RnsPolynomial
from tests import BARRETT


# Widths the pass and multi-array paths are compared against the oracle at:
# the extremes, an odd one, the toy chains' 36/37/41 bits, the datapath's 44.
ORACLE_WIDTHS = (1, 13, 36, 37, 41, 44, 63, 64)


def _random_values(rng, bits: int, count: int) -> np.ndarray:
    vals = rng.integers(0, 1 << 63, count, dtype=np.uint64)
    return (vals * np.uint64(2) + np.uint64(1)) >> np.uint64(64 - bits)


def _packbits_oracle(values: np.ndarray, bits: int) -> bytes:
    """The bit-matrix packing the word-level codec replaced."""
    shifts = np.arange(bits, dtype=np.uint64)
    bitmat = ((values[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bitmat.ravel(), bitorder="little").tobytes()


@pytest.fixture(scope="module")
def sctx():
    return CkksContext.create(toy_params(degree=128, num_primes=4), seed=55)


def _put(blob: bytes, offset: int, layout: str, value) -> bytes:
    out = bytearray(blob)
    struct.pack_into(layout, out, offset, value)
    return bytes(out)


def _encoded(ctx, form: str):
    """``(blob, decoder)`` of one object in wire form ``form``."""
    pt = ctx.encode(np.linspace(-1, 1, ctx.params.slots))
    if form == "ciphertext":
        return serialize_ciphertext(ctx.encryptor.encrypt(pt)), deserialize_ciphertext
    if form == "plaintext":
        return serialize_plaintext(pt), deserialize_plaintext
    if form == "seeded":
        ct, seed = ctx.encryptor.encrypt_symmetric_seeded(pt, ctx.secret_key)
        return serialize_seeded(ct, seed), deserialize_seeded
    key = ctx.relin_keys(levels=[2])[2]
    return serialize_switching_key(key), deserialize_switching_key


class TestPacking:
    def test_roundtrip_36_bits(self, rng):
        vals = rng.integers(0, 1 << 36, 1000).astype(np.uint64)
        blob = pack_residues(vals, 36)
        assert len(blob) == (36 * 1000 + 7) // 8
        assert np.array_equal(unpack_residues(blob, 36, 1000), vals)

    def test_roundtrip_odd_width(self, rng):
        vals = rng.integers(0, 1 << 13, 257).astype(np.uint64)
        assert np.array_equal(unpack_residues(pack_residues(vals, 13), 13, 257), vals)

    def test_overflow_rejected(self):
        with pytest.raises(ValueError, match="does not fit"):
            pack_residues(np.array([1 << 40], dtype=np.uint64), 36)

    def test_bad_width(self):
        with pytest.raises(ValueError, match="bits must be"):
            pack_residues(np.array([1], dtype=np.uint64), 0)

    def test_short_blob_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            unpack_residues(b"\x00", 36, 100)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=63),
        st.lists(st.integers(min_value=0), min_size=1, max_size=64),
    )
    def test_hypothesis_roundtrip(self, bits, raw):
        vals = np.array([v % (1 << bits) for v in raw], dtype=np.uint64)
        assert np.array_equal(
            unpack_residues(pack_residues(vals, bits), bits, len(vals)), vals
        )

    @pytest.mark.parametrize("bits", range(1, 65))
    def test_word_packing_is_the_packbits_stream(self, bits, rng):
        """Every width, counts on and off the word period: the bytes are
        the little-endian bitstream ``docs/formats.md`` specifies."""
        period = 64 // np.gcd(bits, 64)
        for count in (0, 1, period - 1, period, period + 1, 3 * period + 5, 257):
            vals = rng.integers(0, 1 << 63, count, dtype=np.uint64)
            vals = (vals * np.uint64(2) + np.uint64(1)) >> np.uint64(64 - bits)
            blob = pack_residues(vals, bits)
            assert blob == _packbits_oracle(vals, bits)
            assert np.array_equal(unpack_residues(blob, bits, count), vals)
            # Trailing bytes and the pad bits of the last byte are ignored.
            assert np.array_equal(unpack_residues(blob + b"\xff", bits, count), vals)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_hypothesis_matches_packbits_oracle(self, data):
        bits = data.draw(st.integers(min_value=1, max_value=64))
        raw = data.draw(
            st.lists(st.integers(min_value=0, max_value=(1 << bits) - 1), max_size=200)
        )
        vals = np.array(raw, dtype=np.uint64)
        blob = pack_residues(vals, bits)
        assert blob == _packbits_oracle(vals, bits)
        assert np.array_equal(unpack_residues(blob, bits, len(vals)), vals)
        if bits < 64 and raw:
            with pytest.raises(ValueError, match="does not fit"):
                pack_residues(vals | np.uint64(1 << bits), bits)
        if blob:
            with pytest.raises(WireFormatError, match="too short"):
                unpack_residues(blob[:-1], bits, len(vals))

    @pytest.mark.parametrize("bits", ORACLE_WIDTHS)
    def test_passes_match_packbits_oracle(self, bits, rng):
        """Two pass boundaries and a partial period: the pass walk joins
        its blocks into the one stream."""
        period = 64 // np.gcd(bits, 64)
        count = 2 * _PACK_PASS_VALUES + period + period // 2
        vals = _random_values(rng, bits, count)
        blob = pack_residues(vals, bits)
        assert blob == _packbits_oracle(vals, bits)
        assert np.array_equal(unpack_residues(blob, bits, count), vals)

    @pytest.mark.parametrize("bits", ORACLE_WIDTHS)
    def test_arrays_pack_as_their_concatenation(self, bits, rng):
        """``_blob``'s path: several arrays, each its own rows of one word
        matrix, are one bitstream."""
        period = 64 // np.gcd(bits, 64)
        arrays = [
            _random_values(rng, bits, size)
            for size in (_PACK_PASS_VALUES + 3 * period, 5 * period, 2 * period)
        ]
        words, size = _pack_words(arrays, bits)
        stream = words.reshape(-1).view(np.uint8)[:size].tobytes()
        assert stream == _packbits_oracle(np.concatenate(arrays), bits)

    def test_matrix_packs_as_its_rows(self, rng):
        mat = rng.integers(0, 1 << 37, (5, 64), dtype=np.uint64)
        rows = b"".join(pack_residues(row, 37) for row in mat)
        assert pack_residues(mat, 37) == rows

    def test_bad_width_from_the_wire_is_typed(self):
        for bits in (0, 65):
            with pytest.raises(WireFormatError, match="bits must be"):
                unpack_residues(b"\x00" * 16, bits, 1)


class TestFullCiphertext:
    def test_roundtrip(self, sctx):
        msg = np.linspace(-1, 1, sctx.params.slots)
        ct = sctx.encrypt(msg)
        back = deserialize_ciphertext(serialize_ciphertext(ct), sctx.basis)
        assert back.level == ct.level
        assert back.scale == pytest.approx(ct.scale)
        assert np.array_equal(back.c0.data, ct.c0.data)
        assert np.array_equal(back.c1.data, ct.c1.data)

    def test_decrypts_after_roundtrip(self, sctx):
        msg = np.array([2.5, -1.25])
        ct = sctx.encrypt(msg)
        back = deserialize_ciphertext(serialize_ciphertext(ct), sctx.basis)
        assert np.max(np.abs(sctx.decrypt_decode(back)[:2] - msg)) < 1e-6

    def test_size_prediction_exact(self, sctx):
        ct = sctx.encrypt(np.ones(4))
        blob = serialize_ciphertext(ct, coeff_bits=44)
        assert len(blob) == ciphertext_wire_bytes(
            sctx.params.degree, ct.level, ct.size, 44
        )

    def test_rejects_wrong_magic(self, sctx):
        with pytest.raises(ValueError, match="not a full-ciphertext"):
            deserialize_ciphertext(b"XXXX" + b"\x00" * 64, sctx.basis)

    def test_rejects_coeff_domain(self, sctx):
        from repro.ckks.containers import Ciphertext

        ct = sctx.encrypt(np.ones(2))
        bad = Ciphertext.__new__(Ciphertext)
        bad.parts = [p.to_coeff() for p in ct.parts]
        bad.scale = ct.scale
        with pytest.raises(ValueError, match="NTT-domain"):
            serialize_ciphertext(bad)

    @pytest.mark.parametrize("bits", ORACLE_WIDTHS)
    def test_parts_decode_in_one_unpack_as_one_by_one(self, sctx, bits, rng):
        """A three-part body is one bitstream: its one-unpack decode is
        each part's own unpack at its offset."""
        basis, level, n = sctx.basis, 3, sctx.params.degree
        tops = [min(int(q), 1 << bits) for q in basis.moduli[:level]]
        parts = [
            RnsPolynomial(
                basis,
                np.stack([rng.integers(0, top, n, dtype=np.uint64) for top in tops]),
                EVAL,
            )
            for _ in range(3)
        ]
        blob = serialize_ciphertext(Ciphertext(parts=parts, scale=2.0**30), bits)
        decoded = deserialize_ciphertext(blob, basis)
        part_bytes = level * n * bits // 8
        for i, part in enumerate(decoded.parts):
            body = blob[_HEADER_LEN + i * part_bytes :]
            alone = unpack_residues(body, bits, level * n).reshape(level, n)
            assert np.array_equal(part.data, alone)
            assert np.array_equal(part.data, parts[i].data)


class TestSeededCiphertext:
    def test_roundtrip_halves_size(self, sctx):
        msg = np.linspace(0, 1, sctx.params.slots)
        pt = sctx.encode(msg)
        ct, seed = sctx.encryptor.encrypt_symmetric_seeded(pt, sctx.secret_key)
        seeded = serialize_seeded(ct, seed)
        full = serialize_ciphertext(ct)
        assert len(seeded) < 0.55 * len(full)
        back = deserialize_seeded(seeded, sctx.basis)
        assert np.max(np.abs(sctx.decrypt_decode(back) - msg)) < 1e-6

    def test_size_prediction_exact(self, sctx):
        pt = sctx.encode([1.0])
        ct, seed = sctx.encryptor.encrypt_symmetric_seeded(pt, sctx.secret_key)
        blob = serialize_seeded(ct, seed, coeff_bits=44)
        assert len(blob) == ciphertext_wire_bytes(
            sctx.params.degree, ct.level, 2, 44, seeded=True
        )

    def test_matches_traffic_model_accounting(self, sctx):
        """The performance model's per-poly bytes equal the real wire
        payload (minus the fixed header)."""
        from repro.accel.memory import TrafficModel
        from repro.accel.workload import ClientWorkload
        from repro.accel.config import abc_fhe

        w = ClientWorkload(degree=sctx.params.degree, enc_levels=4, dec_levels=2)
        traffic = TrafficModel(config=abc_fhe(), workload=w).encode_encrypt()
        pt = sctx.encode([1.0])
        ct, seed = sctx.encryptor.encrypt_symmetric_seeded(pt, sctx.secret_key)
        wire = len(serialize_seeded(ct, seed, coeff_bits=44))
        assert traffic.ciphertext_bytes == wire - _HEADER_LEN

    def test_three_part_rejected(self, sctx):
        ct = sctx.encrypt(np.ones(2))
        prod = sctx.evaluator.multiply(ct, ct)
        with pytest.raises(ValueError, match="exactly"):
            serialize_seeded(prod, b"\x00" * 16)


class TestPlaintext:
    def test_roundtrip_coeff_domain(self, sctx):
        pt = sctx.encode(np.linspace(-1, 1, sctx.params.slots))
        bits = wire_coeff_bits(sctx.basis)
        back = deserialize_plaintext(serialize_plaintext(pt, bits), sctx.basis)
        assert back.scale == pt.scale
        assert back.poly.domain == pt.poly.domain
        assert np.array_equal(back.poly.data, pt.poly.data)

    def test_roundtrip_eval_domain(self, sctx):
        pt = sctx.encode(np.linspace(0, 1, sctx.params.slots))
        pt.poly = pt.poly.to_eval()
        bits = wire_coeff_bits(sctx.basis)
        back = deserialize_plaintext(serialize_plaintext(pt, bits), sctx.basis)
        assert back.poly.domain == pt.poly.domain
        assert np.array_equal(back.poly.data, pt.poly.data)

    def test_rejects_wrong_magic(self, sctx):
        ct = sctx.encrypt(np.ones(2))
        with pytest.raises(ValueError, match="not a plaintext"):
            deserialize_plaintext(serialize_ciphertext(ct), sctx.basis)


class TestScaleExactness:
    def test_rescaled_scale_survives_roundtrip_bit_exact(self, sctx):
        """A rescaled ciphertext's scale is Δ²/q — not a power of two.
        The raw-double header must carry it back exactly, or sharded
        serving could never be bit-identical to in-process execution."""
        ct = sctx.encrypt(np.linspace(-1, 1, sctx.params.slots))
        rlk = sctx.relin_keys(levels=[ct.level])
        prod = sctx.evaluator.multiply_relin_rescale(ct, ct, rlk)
        assert prod.scale != 2.0 ** round(np.log2(prod.scale))
        back = deserialize_ciphertext(serialize_ciphertext(prod), sctx.basis)
        assert back.scale == prod.scale


def _child_roundtrip(conn, basis) -> None:
    """Forked-worker body: decode whatever arrives, send a full-form
    re-serialization back (exactly what the serving pool does)."""
    blob = conn.recv()
    bits = wire_coeff_bits(basis)
    if blob[:4] == SEEDED_MAGIC:
        ct = deserialize_seeded(blob, basis)
    else:
        ct = deserialize_ciphertext(blob, basis)
    conn.send(serialize_ciphertext(ct, coeff_bits=bits))
    conn.close()


@pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="requires fork"
)
class TestWorkerBoundary:
    """Seeded and full wire forms crossing a real fork boundary (the
    transport of repro.runtime.executor)."""

    def _through_fork(self, blob, basis) -> bytes:
        ctx_mp = mp.get_context("fork")
        parent_conn, child_conn = ctx_mp.Pipe()
        proc = ctx_mp.Process(target=_child_roundtrip, args=(child_conn, basis))
        proc.start()
        child_conn.close()
        parent_conn.send(blob)
        out = parent_conn.recv()
        proc.join(timeout=30)
        parent_conn.close()
        return out

    @BARRETT
    def test_full_form_bit_exact_across_fork(self):
        ctx = CkksContext.create(toy_params(degree=128, num_primes=4), seed=60)
        ct = ctx.encrypt(np.linspace(-1, 1, ctx.params.slots))
        bits = wire_coeff_bits(ctx.basis)
        blob = serialize_ciphertext(ct, coeff_bits=bits)
        echoed = self._through_fork(blob, ctx.basis)
        # decode -> re-encode in the child reproduces the bytes.
        assert echoed == blob
        back = deserialize_ciphertext(echoed, ctx.basis)
        assert back.scale == ct.scale
        for got, want in zip(back.parts, ct.parts):
            assert np.array_equal(got.data, want.data)

    @BARRETT
    def test_seeded_form_expands_identically_across_fork(self):
        ctx = CkksContext.create(toy_params(degree=128, num_primes=4), seed=61)
        pt = ctx.encode(np.linspace(0, 1, ctx.params.slots))
        ct, seed = ctx.encryptor.encrypt_symmetric_seeded(pt, ctx.secret_key)
        bits = wire_coeff_bits(ctx.basis)
        seeded_blob = serialize_seeded(ct, seed, coeff_bits=bits)
        echoed = self._through_fork(seeded_blob, ctx.basis)
        # The child re-expanded c1 from the 16-byte seed; its full
        # form must equal the parent's full form of the same ct.
        assert echoed == serialize_ciphertext(ct, coeff_bits=bits)


class TestSwitchingKey:
    def test_roundtrip_bit_exact(self, sctx):
        key = sctx.relin_keys(levels=[4])[4]
        blob = serialize_switching_key(key)
        assert blob[:4] == SWITCHING_KEY_MAGIC
        back = deserialize_switching_key(blob, sctx.basis)
        assert back.level == key.level
        assert len(back.pairs) == len(key.pairs)
        for (b0, a0), (b1, a1) in zip(key.pairs, back.pairs):
            assert np.array_equal(b0.data, b1.data)
            assert np.array_equal(a0.data, a1.data)
            assert b1.domain == "eval" and a1.domain == "eval"

    def test_reencode_is_byte_identical(self, sctx):
        key = sctx.galois_keys([1], levels=[4])[(1, 4)]
        blob = serialize_switching_key(key)
        back = deserialize_switching_key(blob, sctx.basis)
        assert serialize_switching_key(back) == blob

    def test_wrong_magic_rejected(self, sctx):
        ct = sctx.encrypt(np.zeros(sctx.params.slots))
        blob = serialize_ciphertext(ct, coeff_bits=wire_coeff_bits(sctx.basis))
        with pytest.raises(ValueError, match="switching-key"):
            deserialize_switching_key(blob, sctx.basis)

    def test_degree_mismatch_rejected(self, sctx):
        key = sctx.relin_keys(levels=[4])[4]
        blob = serialize_switching_key(key)
        other = CkksContext.create(toy_params(degree=64, num_primes=4), seed=1)
        with pytest.raises(ValueError, match="degree mismatch"):
            deserialize_switching_key(blob, other.basis)


class TestFrames:
    def test_roundtrip(self):
        blob = pack_frame(b"ABCD", b"payload") + pack_frame(b"WXYZ", b"")
        tag, payload, offset = read_frame(blob, 0)
        assert (tag, payload) == (b"ABCD", b"payload")
        tag, payload, offset = read_frame(blob, offset)
        assert (tag, payload) == (b"WXYZ", b"")
        assert offset == len(blob)

    def test_bad_tag_length_rejected(self):
        with pytest.raises(ValueError, match="4 bytes"):
            pack_frame(b"TOOLONG", b"")

    def test_truncated_header_rejected(self):
        with pytest.raises(ValueError, match="truncated"):
            read_frame(pack_frame(b"ABCD", b"xy")[:6], 0)

    def test_truncated_payload_rejected(self):
        blob = pack_frame(b"ABCD", b"x" * 100)
        with pytest.raises(ValueError, match="truncated"):
            read_frame(blob[:50], 0)

    def test_corrupt_payload_rejected(self):
        blob = bytearray(pack_frame(b"ABCD", b"sensitive-bytes"))
        blob[10] ^= 0x40
        with pytest.raises(ValueError, match="CRC"):
            read_frame(bytes(blob), 0)


class TestTypedWireErrors:
    """Every decode-path rejection is a WireFormatError so the serving
    engine can map corruption to a typed, retriable failure — while
    staying a ValueError for pre-existing handlers."""

    def test_wire_format_error_is_a_value_error(self):
        from repro.ckks import WireFormatError

        assert issubclass(WireFormatError, ValueError)

    def test_frame_corruption_is_typed(self):
        from repro.ckks import WireFormatError

        blob = bytearray(pack_frame(b"ABCD", b"payload-bytes"))
        blob[9] ^= 0x01
        with pytest.raises(WireFormatError):
            read_frame(bytes(blob), 0)
        with pytest.raises(WireFormatError):
            read_frame(blob[:6], 0)

    @pytest.mark.parametrize(
        "form", ["ciphertext", "plaintext", "seeded", "switching_key"]
    )
    def test_non_canonical_residue_rejected(self, sctx, form):
        """A field holding a value >= its modulus would silently corrupt
        every kernel downstream (they assume canonical residues)."""
        msg = np.linspace(-1, 1, sctx.params.slots)
        pt = sctx.encode(msg)
        bits = 44
        if form == "ciphertext":
            blob, header = serialize_ciphertext(sctx.encrypt(msg), bits), _HEADER_LEN
            decode = deserialize_ciphertext
        elif form == "plaintext":
            blob, header = serialize_plaintext(pt, bits), _HEADER_LEN
            decode = deserialize_plaintext
        elif form == "seeded":
            ct, seed = sctx.encryptor.encrypt_symmetric_seeded(pt, sctx.secret_key)
            blob, header = serialize_seeded(ct, seed, bits), _HEADER_LEN
            decode = deserialize_seeded
        else:
            key = sctx.relin_keys(levels=[4])[4]
            blob, header = serialize_switching_key(key, bits), 12
            decode = deserialize_switching_key
        decode(blob, sctx.basis)  # intact
        n, level = sctx.params.degree, 4
        # Overwrite one residue of the last limb of the first polynomial
        # with q (the smallest non-canonical value), in place on the wire.
        first_poly = np.array(
            unpack_residues(blob[header:], bits, level * n), dtype=np.uint64
        )
        first_poly[(level - 1) * n + 5] = sctx.basis.moduli[level - 1]
        forged = blob[:header] + pack_residues(first_poly, bits) + blob[
            header + level * n * bits // 8 :
        ]
        assert len(forged) == len(blob)
        with pytest.raises(WireFormatError, match="not below its modulus"):
            decode(forged, sctx.basis)

    def test_header_level_outside_basis_is_typed(self, sctx):
        blob = bytearray(serialize_ciphertext(sctx.encrypt(np.ones(2))))
        blob[12:14] = (sctx.basis.num_primes + 1).to_bytes(2, "little")  # level field
        with pytest.raises(WireFormatError, match="level"):
            deserialize_ciphertext(bytes(blob), sctx.basis)

    @pytest.mark.parametrize(
        "form, field, forge",
        [
            ("ciphertext", "part count", lambda b: _put(b, 24, "<H", 0)),
            ("ciphertext", "part count", lambda b: _put(b, 24, "<H", 1)),
            ("switching_key", "level", lambda b: _put(b, 8, "<H", 0)[:12]),
            ("plaintext", "domain flag", lambda b: _put(b, 24, "<H", 2)),
            ("ciphertext", "length", lambda b: b + b"\x00"),
            ("seeded", "length", lambda b: b + b"\x00"),
            ("plaintext", "length", lambda b: b + b"\x00"),
            ("switching_key", "length", lambda b: b + b"\x00"),
            ("ciphertext", "scale", lambda b: _put(b, 16, "<d", float("nan"))),
            ("ciphertext", "scale", lambda b: _put(b, 16, "<d", float("inf"))),
            ("seeded", "scale", lambda b: _put(b, 16, "<d", 0.0)),
            ("plaintext", "scale", lambda b: _put(b, 16, "<d", -(2.0**40))),
        ],
        ids=[
            "ctf2-no-parts",
            "ctf2-one-part",
            "swk1-level-0",
            "ptx1-domain-2",
            "ctf2-trailing",
            "cts2-trailing",
            "ptx1-trailing",
            "swk1-trailing",
            "scale-nan",
            "scale-inf",
            "scale-zero",
            "scale-negative",
        ],
    )
    def test_layout_formats_md_rules_out_is_typed(self, sctx, form, field, forge):
        """A header or length that ``docs/formats.md`` rules out is refused
        by name — never a decoded object, never a bare ``ValueError``."""
        blob, decode = _encoded(sctx, form)
        decode(blob, sctx.basis)  # intact
        with pytest.raises(WireFormatError, match=field):
            decode(forge(blob), sctx.basis)

    def test_truncated_payload_and_seed_are_typed(self, sctx):
        pt = sctx.encode([1.0])
        ct, seed = sctx.encryptor.encrypt_symmetric_seeded(pt, sctx.secret_key)
        blob = serialize_seeded(ct, seed)
        with pytest.raises(WireFormatError, match="truncated seed"):
            deserialize_seeded(blob[:-1], sctx.basis)
        with pytest.raises(WireFormatError, match="too short"):
            deserialize_ciphertext(serialize_ciphertext(ct)[:-1], sctx.basis)
        key = serialize_switching_key(sctx.relin_keys(levels=[2])[2])
        with pytest.raises(WireFormatError, match="truncated SWK1 header"):
            deserialize_switching_key(key[:6], sctx.basis)

    def test_container_magic_mismatch_is_typed(self, sctx):
        from repro.ckks import WireFormatError

        ct = sctx.encrypt(np.full(sctx.params.slots, 0.5))
        blob = bytearray(serialize_ciphertext(ct))
        blob[:4] = b"XXXX"
        with pytest.raises(WireFormatError):
            deserialize_ciphertext(bytes(blob), sctx.evaluator.basis)

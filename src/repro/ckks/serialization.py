"""Wire formats for ciphertexts and keys, with residue bit-packing.

Every format this module emits is specified normatively — field tables,
byte layouts, versioning rules — in ``docs/formats.md``; keep the two in
sync.  The accelerator's DRAM-traffic accounting (Section IV-B, Fig. 6b)
counts residues at their *datapath width* — 44 bits — not at a lazy 64
bits, and fresh uploads ship ``(c0, seed)`` instead of two full
polynomials.  This module implements exactly those formats so the byte
counts the performance model charges are the byte counts the library
really emits:

* :func:`pack_residues` / :func:`unpack_residues` — arbitrary-width bit
  packing of uint64 residue arrays;
* :func:`serialize_ciphertext` / :func:`deserialize_ciphertext` — full
  ciphertexts (``CTF2``, any number of parts);
* :func:`serialize_seeded` / :func:`deserialize_seeded` — the compressed
  ``(c0, seed)`` upload format (``CTS2``, halves the client's write
  traffic);
* :func:`serialize_plaintext` / :func:`deserialize_plaintext` — encoded
  plaintexts (``PTX1``, either domain), so symbolic plan inputs can cross
  the multi-process worker boundary alongside ciphertexts;
* :func:`serialize_switching_key` / :func:`deserialize_switching_key` —
  relinearization / Galois keys (``SWK1``), the constants a shipped
  :class:`~repro.runtime.plan.ExecutionPlan` resolves by fingerprint;
* :func:`pack_frame` / :func:`read_frame` — the length-prefixed,
  CRC-guarded frame container the plan format (``EPL1``, its ``CPAY``
  body laid out as ``PCS1``; :mod:`repro.runtime.plan_io`) is built
  from, and :class:`Reader`, the bounds-checked cursor the plan and
  session decoders read every field through.

These formats are also the transport between the serving engine's parent
process and its forked workers (:mod:`repro.runtime.executor`); the
header carries the exact scale as a raw double so a round trip is
bit-exact even for the non-power-of-two scales a rescale produces, and
:func:`wire_coeff_bits` picks the narrowest packing that fits a basis.

Integration tests assert these sizes equal the
:class:`repro.accel.memory.TrafficModel` predictions.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

from repro.ckks.containers import Ciphertext, Plaintext
from repro.ckks.keys import SwitchingKey, expand_uniform_poly
from repro.prng.xof import Xof
from repro.rns.basis import RnsBasis
from repro.rns.poly import COEFF, EVAL, RnsPolynomial

__all__ = [
    "WireFormatError",
    "pack_residues",
    "unpack_residues",
    "pack_frame",
    "read_frame",
    "Reader",
    "serialize_ciphertext",
    "deserialize_ciphertext",
    "serialize_seeded",
    "deserialize_seeded",
    "serialize_plaintext",
    "deserialize_plaintext",
    "serialize_switching_key",
    "deserialize_switching_key",
    "ciphertext_wire_bytes",
    "wire_coeff_bits",
    "CIPHERTEXT_MAGIC",
    "SEEDED_MAGIC",
    "PLAINTEXT_MAGIC",
    "SWITCHING_KEY_MAGIC",
]

# Public: consumers that sniff blob types (the serving-engine worker
# boundary, the plan constant payload) must dispatch on these, never on
# hardcoded copies.
CIPHERTEXT_MAGIC = b"CTF2"
SEEDED_MAGIC = b"CTS2"
PLAINTEXT_MAGIC = b"PTX1"
SWITCHING_KEY_MAGIC = b"SWK1"


class WireFormatError(ValueError):
    """A wire blob failed decoding: wrong magic, truncation, or CRC
    mismatch.

    Subclasses :class:`ValueError` for backward compatibility, but gives
    the serving stack a *typed* corruption signal: the worker boundary
    maps it to :class:`repro.runtime.faults.WireCorruption` (a per-request
    typed reply) instead of letting a corrupt frame take a process down.
    """

_MAGIC_FULL = CIPHERTEXT_MAGIC
_MAGIC_SEED = SEEDED_MAGIC
_MAGIC_PLAIN = PLAINTEXT_MAGIC


def _word_layout(bits: int) -> tuple[int, int]:
    """``(values, words)`` of one packing period at ``bits`` bits per value.

    ``64 / gcd(bits, 64)`` values fill ``bits / gcd(bits, 64)`` uint64
    words exactly (16 values -> 11 words at 44 bits), so value ``j`` of
    every period sits at the same word and shift.
    """
    unit = math.gcd(bits, 64)
    return 64 // unit, bits // unit


# Values one pass of the packer walks (8 bytes each).  A period's columns
# are strided views, so every column of a pass re-reads the same cache
# lines: half a megabyte of values and the ~0.7 of it they pack into stay
# in a 2 MiB L2 for all of a period's shifts (4x faster at 2 x 24 x 65536
# than walking whole matrices column by column).
_PACK_PASS_VALUES = 1 << 16


def _pack_words(arrays, bits: int) -> tuple[np.ndarray, int]:
    """One little-endian bitstream over the values of ``arrays``, in order,
    as a matrix of uint64 words plus the stream's length in bytes.

    The stream is assembled a word at a time: the values are laid out as a
    ``(periods, values per period)`` matrix and each column is shifted
    into the word column(s) it lands in — assigned where it is the first
    to land there, OR-ed after, so the words are never zero-filled.  Every
    array packs into its own rows of the one word matrix; only a toy
    array whose size is no multiple of the period is concatenated first.
    """
    if bits < 1 or bits > 64:
        raise ValueError(f"bits must be in [1, 64], got {bits}")
    arrays = [np.asarray(a, dtype=np.uint64).ravel() for a in arrays]
    for values in arrays:
        if len(values) and int(values.max()).bit_length() > bits:
            raise ValueError(f"value {values.max()} does not fit in {bits} bits")
    period, width = _word_layout(bits)
    count = sum(len(values) for values in arrays)
    if any(len(values) % period for values in arrays[:-1]) or count % period:
        pad = np.zeros(-count % period, dtype=np.uint64)
        arrays = [np.concatenate([*arrays, pad])]
    # (column, word, shift, shift right?, first into its word?) per landing;
    # a straddling value lands twice, and stream order fills words in order.
    landings = []
    for j in range(period):
        word, shift = divmod(j * bits, 64)
        landings.append((j, word, np.uint64(shift), False, shift == 0))
        if shift + bits > 64:
            landings.append((j, word + 1, np.uint64(64 - shift), True, True))
    step = max(1, _PACK_PASS_VALUES // period)
    words = np.empty((-(-count // period), width), dtype="<u8")
    shifted = np.empty(step, dtype=np.uint64)
    row = 0
    for values in arrays:
        columns = values.reshape(-1, period)
        for lo in range(0, len(columns), step):
            source = columns[lo : lo + step]
            target = words[row + lo : row + lo + len(source)]
            for j, word, shift, right, first in landings:
                move = np.right_shift if right else np.left_shift
                if first:
                    move(source[:, j], shift, out=target[:, word])
                else:
                    move(source[:, j], shift, out=shifted[: len(source)])
                    target[:, word] |= shifted[: len(source)]
        row += len(columns)
    return words, (bits * count + 7) // 8


def pack_residues(values: np.ndarray, bits: int) -> bytes:
    """Pack uint64 residues at ``bits`` bits each (little-endian bitstream).

    The bytes are those of ``np.packbits(..., bitorder="little")`` over
    the values' bits — ``docs/formats.md`` stays the normative layout;
    :func:`_pack_words` assembles them.
    """
    words, size = _pack_words([values], bits)
    return words.tobytes()[:size]


def unpack_residues(blob: bytes, bits: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_residues`."""
    if bits < 1 or bits > 64:
        raise WireFormatError(f"bits must be in [1, 64], got {bits}")
    used = (bits * count + 7) // 8
    if len(blob) < used:
        raise WireFormatError(
            f"blob too short: {8 * len(blob)} bits < {bits * count}"
        )
    period, width = _word_layout(bits)
    periods = -(-count // period)
    words = np.zeros((periods, width), dtype="<u8")
    words.reshape(-1).view(np.uint8)[:used] = np.frombuffer(blob, np.uint8, used)
    mask = np.uint64((1 << bits) - 1)
    values = np.empty((periods, period), dtype=np.uint64)
    for j in range(period):
        word, shift = divmod(j * bits, 64)
        column = words[:, word] >> np.uint64(shift)
        if shift + bits > 64:
            column |= words[:, word + 1] << np.uint64(64 - shift)
        np.bitwise_and(column, mask, out=values[:, j])
    return values.reshape(-1)[:count]


def _blob(
    header: bytes, polys: list[RnsPolynomial], bits: int, trailer: bytes = b""
) -> bytes:
    """``header + packed residues of polys, back to back + trailer``.

    When rows end on byte boundaries the polynomials are one bitstream:
    they pack into one word buffer and the join below is the only
    full-size copy.  Otherwise every row is padded to a byte on its own.
    """
    if bits * polys[0].degree % 8 == 0:
        words, size = _pack_words([poly.data for poly in polys], bits)
        body = [words.reshape(-1).view(np.uint8)[:size]]
    else:
        body = [pack_residues(row, bits) for poly in polys for row in poly.data]
    return b"".join([header, *body, trailer])


def _poly_from_payload(
    basis: RnsBasis, blob: bytes, offset: int, level: int, bits: int, domain: str
) -> tuple[RnsPolynomial, int]:
    if not 1 <= level <= basis.num_primes:
        raise WireFormatError(
            f"level {level} outside the basis's 1..{basis.num_primes}"
        )
    n = basis.degree
    row_bytes = (bits * n + 7) // 8
    end = offset + level * row_bytes
    payload = memoryview(blob)[offset:end]
    if bits * n % 8 == 0:
        data = unpack_residues(payload, bits, level * n).reshape(level, n)
    else:
        data = np.stack(
            [
                unpack_residues(payload[i * row_bytes : (i + 1) * row_bytes], bits, n)
                for i in range(level)
            ]
        )
    # Every kernel assumes canonical residues; a wider field can carry more.
    moduli = np.array(basis.moduli[:level], dtype=np.uint64).reshape(-1, 1)
    if (data >= moduli).any():
        raise WireFormatError("residue not below its modulus")
    return RnsPolynomial(basis, data, domain), end


def _header(magic: bytes, ct, bits: int, size: int) -> bytes:
    # The scale ships as a raw double: rescaled ciphertexts carry
    # scale/q factors that a log2 round trip would perturb by an ulp,
    # and the worker boundary requires bit-exact transport.
    return magic + _HEADER.pack(
        ct.poly.degree if isinstance(ct, Plaintext) else ct.parts[0].degree,
        0,
        ct.level,
        bits,
        float(ct.scale),
        size,
    )


_HEADER = struct.Struct("<IIHHdH")  # degree, reserved, level, bits, scale, size
_HEADER_LEN = 4 + _HEADER.size


def _read_header(blob: bytes, magic: bytes, what: str, basis: RnsBasis):
    """``(level, coeff_bits, scale, size/domain)`` of a common header."""
    if blob[:4] != magic:
        raise WireFormatError(f"not a {what} blob")
    if len(blob) < _HEADER_LEN:
        raise WireFormatError(f"truncated {what} header ({len(blob)} bytes)")
    degree, _, level, bits, scale, size = _HEADER.unpack_from(blob, 4)
    if degree != basis.degree:
        raise WireFormatError(
            f"degree mismatch: blob {degree}, basis {basis.degree}"
        )
    return level, bits, scale, size


def serialize_ciphertext(ct: Ciphertext, coeff_bits: int = 44) -> bytes:
    """Full ciphertext: header + every part's packed residues."""
    for part in ct.parts:
        if part.domain != EVAL:
            raise ValueError("serialize NTT-domain ciphertexts (the wire form)")
    return _blob(_header(_MAGIC_FULL, ct, coeff_bits, ct.size), ct.parts, coeff_bits)


def deserialize_ciphertext(blob: bytes, basis: RnsBasis) -> Ciphertext:
    level, bits, scale, size = _read_header(
        blob, _MAGIC_FULL, "full-ciphertext", basis
    )
    offset = _HEADER_LEN
    parts = []
    for _ in range(size):
        poly, offset = _poly_from_payload(basis, blob, offset, level, bits, EVAL)
        parts.append(poly)
    return Ciphertext(parts=parts, scale=scale)


def serialize_seeded(ct: Ciphertext, seed: bytes, coeff_bits: int = 44) -> bytes:
    """Compressed upload: header + packed c0 + 16-byte seed for c1."""
    if ct.size != 2:
        raise ValueError("seeded format carries exactly (c0, seed)")
    if len(seed) != 16:
        raise ValueError("seed must be 16 bytes")
    header = _header(_MAGIC_SEED, ct, coeff_bits, ct.size)
    return _blob(header, [ct.c0], coeff_bits, seed)


def deserialize_seeded(blob: bytes, basis: RnsBasis) -> Ciphertext:
    """Rebuild the full ciphertext server-side, re-expanding c1."""
    level, bits, scale, _ = _read_header(
        blob, _MAGIC_SEED, "seeded-ciphertext", basis
    )
    offset = _HEADER_LEN
    c0, offset = _poly_from_payload(basis, blob, offset, level, bits, EVAL)
    seed = blob[offset : offset + 16]
    if len(seed) != 16:
        raise WireFormatError("truncated seed")
    c1 = expand_uniform_poly(basis, level, Xof(seed), b"sym-c1")
    return Ciphertext(parts=[c0, c1], scale=scale)


def serialize_plaintext(pt: Plaintext, coeff_bits: int = 44) -> bytes:
    """Encoded plaintext: header + packed residues, either domain.

    The size field doubles as the domain flag (0 = coefficient,
    1 = NTT/evaluation), since a plaintext is always one polynomial.
    """
    domain_flag = 1 if pt.poly.domain == EVAL else 0
    header = _header(_MAGIC_PLAIN, pt, coeff_bits, domain_flag)
    return _blob(header, [pt.poly], coeff_bits)


def deserialize_plaintext(blob: bytes, basis: RnsBasis) -> Plaintext:
    level, bits, scale, domain_flag = _read_header(
        blob, _MAGIC_PLAIN, "plaintext", basis
    )
    domain = EVAL if domain_flag else COEFF
    poly, _ = _poly_from_payload(basis, blob, _HEADER_LEN, level, bits, domain)
    return Plaintext(poly=poly, scale=scale)


_SWK_HEADER = struct.Struct("<IHH")  # degree, level, bits


def serialize_switching_key(key: SwitchingKey, coeff_bits: int | None = None) -> bytes:
    """Key-switching key: ``SWK1`` header + ``level`` packed (b_j, a_j) pairs.

    Defaults to :func:`wire_coeff_bits` packing (the widest modulus of the
    key's basis), so any chain round-trips losslessly.  This is the
    canonical encoding plan constants are fingerprinted over
    (:mod:`repro.runtime.plan_io`).
    """
    basis = key.pairs[0][0].basis
    bits = coeff_bits if coeff_bits is not None else wire_coeff_bits(basis)
    header = SWITCHING_KEY_MAGIC + _SWK_HEADER.pack(basis.degree, key.level, bits)
    return _blob(header, [poly for pair in key.pairs for poly in pair], bits)


def deserialize_switching_key(blob: bytes, basis: RnsBasis) -> SwitchingKey:
    if blob[:4] != SWITCHING_KEY_MAGIC:
        raise WireFormatError("not a switching-key blob")
    degree, level, bits = Reader(blob, "SWK1 header", 4).unpack(_SWK_HEADER)
    if degree != basis.degree:
        raise WireFormatError(
            f"degree mismatch: blob {degree}, basis {basis.degree}"
        )
    offset = 4 + _SWK_HEADER.size
    pairs: list[tuple[RnsPolynomial, RnsPolynomial]] = []
    for _ in range(level):
        b_j, offset = _poly_from_payload(basis, blob, offset, level, bits, EVAL)
        a_j, offset = _poly_from_payload(basis, blob, offset, level, bits, EVAL)
        pairs.append((b_j, a_j))
    return SwitchingKey(level=level, pairs=pairs)


# ---------------------------------------------------------------------------
# Frame container (shared by the plan formats, docs/formats.md "Frames")
# ---------------------------------------------------------------------------

_FRAME_OVERHEAD = 4 + 4 + 4  # tag + u32 length + u32 crc32


def pack_frame(tag: bytes, payload: bytes) -> bytes:
    """One frame: 4-byte tag, u32 payload length, payload, u32 CRC-32.

    The CRC covers only the payload; truncation is caught by the length
    prefix, corruption by the checksum.  Readers must skip frames whose
    tag they do not recognize (forward compatibility).
    """
    if len(tag) != 4:
        raise ValueError(f"frame tag must be 4 bytes, got {tag!r}")
    return tag + struct.pack("<I", len(payload)) + payload + struct.pack(
        "<I", zlib.crc32(payload)
    )


def read_frame(blob: bytes, offset: int) -> tuple[bytes, bytes, int]:
    """Read one frame at ``offset``; returns (tag, payload, next_offset).

    Raises :class:`WireFormatError` on truncation (declared length runs
    past the blob) or corruption (CRC mismatch).
    """
    if offset + 8 > len(blob):
        raise WireFormatError(
            f"truncated frame header at offset {offset} ({len(blob)} bytes total)"
        )
    tag = blob[offset : offset + 4]
    (length,) = struct.unpack_from("<I", blob, offset + 4)
    start = offset + 8
    end = start + length
    if end + 4 > len(blob):
        raise WireFormatError(
            f"truncated frame {tag!r}: payload of {length} bytes runs past "
            f"the end of the {len(blob)}-byte blob"
        )
    payload = blob[start:end]
    (crc,) = struct.unpack_from("<I", blob, end)
    if zlib.crc32(payload) != crc:
        raise WireFormatError(f"corrupt frame {tag!r}: CRC mismatch")
    return tag, payload, end + 4


class Reader:
    """Bounds-checked cursor over one payload: every read that would run
    past its end, and text that is not UTF-8, is a
    :class:`WireFormatError`."""

    __slots__ = ("data", "pos", "what")

    def __init__(self, data: bytes, what: str, pos: int = 0) -> None:
        self.data = data
        self.pos = pos
        self.what = what

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise WireFormatError(
                f"truncated {self.what}: need {n} bytes at offset {self.pos}, "
                f"{len(self.data) - self.pos} remain"
            )
        chunk = self.data[self.pos : end]
        self.pos = end
        return chunk

    def unpack(self, layout: struct.Struct) -> tuple:
        return layout.unpack(self.take(layout.size))

    def array(self, code: str, count: int) -> tuple:
        """``count`` little-endian values of ``struct`` type ``code``."""
        return self.unpack(struct.Struct(f"<{count}{code}"))

    def text(self, n: int) -> str:
        try:
            return self.take(n).decode()
        except UnicodeDecodeError as exc:
            raise WireFormatError(f"{self.what}: text is not UTF-8") from exc

    def finish(self) -> None:
        if self.pos != len(self.data):
            raise WireFormatError(
                f"{self.what} has {len(self.data) - self.pos} trailing bytes"
            )


def wire_coeff_bits(basis: RnsBasis) -> int:
    """Narrowest per-residue packing that fits every modulus in ``basis``.

    The 44-bit default models the accelerator datapath; the worker
    boundary instead packs at exactly the widest modulus so any basis —
    including toy test chains with >44-bit primes — round-trips losslessly.
    """
    return max(int(q).bit_length() for q in basis.moduli)


def ciphertext_wire_bytes(
    degree: int, level: int, parts: int, coeff_bits: int = 44, seeded: bool = False
) -> int:
    """Predicted wire size — must match TrafficModel's accounting."""
    row = (coeff_bits * degree + 7) // 8
    if seeded:
        return _HEADER_LEN + level * row + 16
    return _HEADER_LEN + parts * level * row

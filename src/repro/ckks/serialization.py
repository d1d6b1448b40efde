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

import functools
import math
import struct
import zlib
from typing import NamedTuple

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


def _word_layout(bits: int) -> tuple[int, int]:
    """``(values, words)`` of one packing period at ``bits`` bits per value.

    ``64 / gcd(bits, 64)`` values fill ``bits / gcd(bits, 64)`` uint64
    words exactly (16 values -> 11 words at 44 bits), so value ``j`` of
    every period sits at the same word and shift.
    """
    unit = math.gcd(bits, 64)
    return 64 // unit, bits // unit


# Values one pass of the codec walks (8 bytes each).  A pass's block, its
# transposed scratch, its words and the shift tiles (about half a MiB
# together) stay in L2 while the pass's handful of numpy calls run.
_PACK_PASS_VALUES = 1 << 14


class _Period(NamedTuple):
    """Where the values of one packing period land, as index arrays.

    Value ``j`` starts at bit ``shift_j`` of word ``word_of[j]``; the words
    are filled in stream order, so word ``w`` takes the starts of columns
    ``first[w]..`` plus, for ``w >= 1``, the high bits of the one value
    that straddles in from word ``w - 1`` — the last to start there
    (``carry[w - 1]``).  Every inner word boundary is straddled, since no
    value but the period's first starts on one.  ``shifts`` and
    ``carry_shifts`` are the per-column shifts repeated over a pass's
    rows, so each shift is one contiguous elementwise call.
    """

    period: int
    width: int
    rows: int  # periods per pass
    word_of: np.ndarray
    first: np.ndarray
    later: tuple  # per start rank after the first: (words that have one, its column)
    carry: np.ndarray
    shifts: np.ndarray  # (period, rows): shift_j
    carry_shifts: np.ndarray  # (width - 1, rows): 64 - shift_j of each straddler


@functools.lru_cache(maxsize=8)
def _period(bits: int) -> _Period:
    period, width = _word_layout(bits)
    rows = max(1, _PACK_PASS_VALUES // period)
    word_of, shift = np.divmod(np.arange(period) * bits, 64)
    first = np.searchsorted(word_of, np.arange(width))
    last = np.searchsorted(word_of, np.arange(width), side="right") - 1
    later = []
    for k in range(1, int((last - first).max()) + 1):
        words = np.flatnonzero(first + k <= last)
        later.append((words, first[words] + k))
    carry = last[:-1]

    def tile(column):
        return np.repeat(column.astype(np.uint64)[:, None], rows, axis=1)

    plan = _Period(
        period,
        width,
        rows,
        word_of,
        first,
        tuple(later),
        carry,
        tile(shift),
        tile(64 - shift[carry]),
    )
    # Every caller shares the cached arrays: none may write them.
    for array in (word_of, first, carry, plan.shifts, plan.carry_shifts):
        array.flags.writeable = False
    for targets, sources in later:
        targets.flags.writeable = sources.flags.writeable = False
    return plan


def _pack_words(arrays, bits: int) -> tuple[np.ndarray, int]:
    """One little-endian bitstream over the values of ``arrays``, in order,
    as a matrix of uint64 words plus the stream's length in bytes.

    The values are laid out as a ``(periods, values per period)`` matrix
    and packed a pass of rows at a time: the pass is copied once into a
    transposed scratch, so each column is a contiguous row; one call
    shifts every column to its place, one gather assigns each word its
    first start, one OR per further start lands the rest and one OR the
    straddlers' high bits, and the transposed word block is copied back
    once.  Every array packs into its own rows of the one word matrix;
    only a toy array whose size is no multiple of the period is
    concatenated first.
    """
    if bits < 1 or bits > 64:
        raise ValueError(f"bits must be in [1, 64], got {bits}")
    arrays = [np.asarray(a, dtype=np.uint64).ravel() for a in arrays]
    plan = _period(bits)
    period, width = plan.period, plan.width
    count = sum(len(values) for values in arrays)
    if any(len(values) % period for values in arrays[:-1]) or count % period:
        pad = np.zeros(-count % period, dtype=np.uint64)
        arrays = [np.concatenate([*arrays, pad])]
    words = np.empty((-(-count // period), width), dtype="<u8")
    columns = np.empty((period, plan.rows), dtype=np.uint64)
    block_words = np.empty((width, plan.rows), dtype=np.uint64)
    row = 0
    for values in arrays:
        matrix = values.reshape(-1, period)
        for lo in range(0, len(matrix), plan.rows):
            block = matrix[lo : lo + plan.rows]
            n = len(block)
            # One sequential read checks the fit and brings the block into
            # cache for the strided one that transposes it.
            top = int(block.max())
            if top.bit_length() > bits:
                raise ValueError(f"value {top} does not fit in {bits} bits")
            cols, out = columns[:, :n], block_words[:, :n]
            np.copyto(cols, block.T)
            high = cols[plan.carry]
            high >>= plan.carry_shifts[:, :n]
            cols <<= plan.shifts[:, :n]
            out[...] = cols[plan.first]
            for targets, sources in plan.later:
                out[targets] |= cols[sources]
            out[1:] |= high
            np.copyto(words[row + lo : row + lo + n], out.T)
        row += len(matrix)
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
    """Inverse of :func:`pack_residues`.

    A pass of word rows is copied once into a transposed scratch; one
    gather-and-shift reads every column's low word, one shift-and-OR the
    straddlers' high words, and one mask drops the neighbours' bits.
    """
    if bits < 1 or bits > 64:
        raise WireFormatError(f"bits must be in [1, 64], got {bits}")
    used = (bits * count + 7) // 8
    if len(blob) < used:
        raise WireFormatError(
            f"blob too short: {8 * len(blob)} bits < {bits * count}"
        )
    plan = _period(bits)
    period, width = plan.period, plan.width
    periods = -(-count // period)
    words = np.empty((periods, width), dtype="<u8")
    stream = words.reshape(-1).view(np.uint8)
    stream[:used] = np.frombuffer(blob, np.uint8, used)
    stream[used:] = 0
    mask = np.uint64((1 << bits) - 1)
    values = np.empty((periods, period), dtype=np.uint64)
    scratch = np.empty((width, plan.rows), dtype=np.uint64)
    for lo in range(0, periods, plan.rows):
        block = words[lo : lo + plan.rows]
        n = len(block)
        word_rows = scratch[:, :n]
        np.copyto(word_rows, block.T)
        cols = word_rows[plan.word_of]
        cols >>= plan.shifts[:, :n]
        cols[plan.carry] |= word_rows[1:] << plan.carry_shifts[:, :n]
        cols &= mask
        np.copyto(values[lo : lo + n], cols.T)
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


def _polys_from_payload(
    basis: RnsBasis,
    blob: bytes,
    offset: int,
    count: int,
    level: int,
    bits: int,
    domain: str,
    trailer: int = 0,
) -> tuple[list[RnsPolynomial], int]:
    """The ``count`` polynomials at ``level`` packed back to back from
    ``offset`` — as :func:`_blob` wrote them, one bitstream and so one
    unpack whenever rows end on byte boundaries — and the offset past them.

    The blob must end ``trailer`` bytes after them: a longer one is a
    :class:`WireFormatError` before anything is unpacked.
    """
    what = bytes(blob[:4]).decode(errors="replace")
    if not 1 <= level <= basis.num_primes:
        raise WireFormatError(
            f"{what} level {level} outside the basis's 1..{basis.num_primes}"
        )
    n = basis.degree
    row_bytes = (bits * n + 7) // 8
    end = offset + count * level * row_bytes
    if len(blob) > end + trailer:
        raise WireFormatError(
            f"{what} length {len(blob)}: {len(blob) - end - trailer} bytes "
            f"past the body"
        )
    payload = memoryview(blob)[offset:end]
    rows = count * level
    if bits * n % 8 == 0:
        data = unpack_residues(payload, bits, rows * n)
    else:
        data = np.concatenate(
            [
                unpack_residues(payload[i * row_bytes : (i + 1) * row_bytes], bits, n)
                for i in range(rows)
            ]
        )
    data = data.reshape(count, level, n)
    # Every kernel assumes canonical residues; a wider field can carry more.
    moduli = np.array(basis.moduli[:level], dtype=np.uint64).reshape(-1, 1)
    if (data >= moduli).any():
        raise WireFormatError("residue not below its modulus")
    return [RnsPolynomial(basis, limbs, domain) for limbs in data], end


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
    if not (math.isfinite(scale) and scale > 0):
        raise WireFormatError(f"{magic.decode()} scale {scale!r} is not positive")
    return level, bits, scale, size


def serialize_ciphertext(ct: Ciphertext, coeff_bits: int = 44) -> bytes:
    """Full ciphertext: header + every part's packed residues."""
    for part in ct.parts:
        if part.domain != EVAL:
            raise ValueError("serialize NTT-domain ciphertexts (the wire form)")
    header = _header(CIPHERTEXT_MAGIC, ct, coeff_bits, ct.size)
    return _blob(header, ct.parts, coeff_bits)


def deserialize_ciphertext(blob: bytes, basis: RnsBasis) -> Ciphertext:
    level, bits, scale, size = _read_header(
        blob, CIPHERTEXT_MAGIC, "full-ciphertext", basis
    )
    if size < 2:
        raise WireFormatError(f"CTF2 part count {size}: a ciphertext has c0 and c1")
    parts, _ = _polys_from_payload(basis, blob, _HEADER_LEN, size, level, bits, EVAL)
    return Ciphertext(parts=parts, scale=scale)


def serialize_seeded(ct: Ciphertext, seed: bytes, coeff_bits: int = 44) -> bytes:
    """Compressed upload: header + packed c0 + 16-byte seed for c1."""
    if ct.size != 2:
        raise ValueError("seeded format carries exactly (c0, seed)")
    if len(seed) != 16:
        raise ValueError("seed must be 16 bytes")
    header = _header(SEEDED_MAGIC, ct, coeff_bits, ct.size)
    return _blob(header, [ct.c0], coeff_bits, seed)


def deserialize_seeded(blob: bytes, basis: RnsBasis) -> Ciphertext:
    """Rebuild the full ciphertext server-side, re-expanding c1."""
    level, bits, scale, _ = _read_header(
        blob, SEEDED_MAGIC, "seeded-ciphertext", basis
    )
    (c0,), offset = _polys_from_payload(
        basis, blob, _HEADER_LEN, 1, level, bits, EVAL, trailer=16
    )
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
    header = _header(PLAINTEXT_MAGIC, pt, coeff_bits, domain_flag)
    return _blob(header, [pt.poly], coeff_bits)


def deserialize_plaintext(blob: bytes, basis: RnsBasis) -> Plaintext:
    level, bits, scale, domain_flag = _read_header(
        blob, PLAINTEXT_MAGIC, "plaintext", basis
    )
    if domain_flag not in (0, 1):
        raise WireFormatError(f"PTX1 domain flag {domain_flag} is neither 0 nor 1")
    domain = EVAL if domain_flag else COEFF
    (poly,), _ = _polys_from_payload(basis, blob, _HEADER_LEN, 1, level, bits, domain)
    return Plaintext(poly=poly, scale=scale)


_SWK_HEADER = struct.Struct("<IHH")  # degree, level, bits


def serialize_switching_key(key: SwitchingKey, coeff_bits: int | None = None) -> bytes:
    """Key-switching key: ``SWK1`` header + ``level`` packed (b_j, a_j) pairs.

    Defaults to :func:`wire_coeff_bits` packing (the widest modulus of the
    key's basis), so any chain round-trips losslessly.  This is the
    canonical encoding plan constants are fingerprinted over
    (:mod:`repro.runtime.plan_io`).
    """
    basis = key.basis
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
    if level < 1:
        raise WireFormatError("SWK1 level 0: a key has at least one digit")
    polys, _ = _polys_from_payload(
        basis, blob, 4 + _SWK_HEADER.size, 2 * level, level, bits, EVAL
    )
    b, a = (np.stack([poly.data for poly in polys[k::2]]) for k in (0, 1))
    return SwitchingKey(basis, b, a)


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

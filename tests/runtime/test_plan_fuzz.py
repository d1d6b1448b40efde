"""Seeded mutation battery over ``deserialize_plan``.

A small compiled plan — rotate, relinearize, and add_plain of a captured
plaintext — is serialized once, then damaged under a fixed seed:
truncations, bit flips with the enclosing frame's CRC re-stamped (so the
payload decoders, not the checksum, must hold; flips inside a ``CPAY``
constant entry re-stamp both CRCs), dropped frames, swapped frames, and
forged scales: one non-leaf ``NODE`` entry's ``f64 scale`` rewritten
(one ulp up or a power of two away) with the CRC re-stamped.

The invariant is rule 4 of ``docs/formats.md``: every mutant either
raises :class:`PlanFormatError` — nothing else, no ``struct.error``, no
``UnicodeDecodeError``, no ``IndexError`` — or deserializes into a plan
that replays.  Frame order carries no meaning, so a swapped blob must
replay to the original's exact bytes, and a forged scale must be
rejected: a plan that replayed it would decode to a wrong value.

The battery's size (at least 300) and the share of each outcome are
asserted, so a refactor cannot silently shrink it or make it vacuous.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.ckks.serialization import pack_frame, read_frame
from repro.runtime import (
    CtSpec,
    PlanFormatError,
    compile_fn,
    deserialize_plan,
    serialize_plan,
)

N_MUTATIONS = 320
FUZZ_SEED = 0xE91
_NODE_HEAD = struct.Struct("<BBHHdHHH")  # opcode, kind, level, size, scale, counts
_SCALE_AT = 6  # the scale's offset inside a NODE entry


def _split(blob: bytes) -> list[tuple[bytes, bytes]]:
    frames, offset = [], 8
    while offset < len(blob):
        tag, payload, offset = read_frame(blob, offset)
        frames.append((tag, payload))
    return frames


def _join(header: bytes, frames) -> bytes:
    return header + b"".join(pack_frame(tag, payload) for tag, payload in frames)


def _flip(rng: np.random.Generator, data: bytes) -> bytes:
    buf = bytearray(data)
    bit = int(rng.integers(0, 8 * len(buf)))
    buf[bit // 8] ^= 1 << (bit % 8)
    return bytes(buf)


def _flip_cnst_entry(rng: np.random.Generator, cpay: bytes) -> bytes:
    """Flip a bit inside one CNST entry of a CPAY payload, re-stamping
    that entry's CRC (the caller re-stamps CPAY's)."""
    header, entries = cpay[:12], []
    offset = 12
    while offset < len(cpay):
        tag, payload, offset = read_frame(cpay, offset)
        entries.append((tag, payload))
    i = int(rng.integers(0, len(entries)))
    entries[i] = (entries[i][0], _flip(rng, entries[i][1]))
    return _join(header, entries)


def _inner_entries(node: bytes) -> list[int]:
    """Offsets of the non-leaf entries (opcode > 1) of a NODE payload."""
    (count,) = struct.unpack_from("<I", node)
    offsets, at = [], 4
    for _ in range(count):
        opcode, *_, n_in, n_attr, n_const = _NODE_HEAD.unpack_from(node, at)
        if opcode > 1:
            offsets.append(at)
        at += _NODE_HEAD.size + 4 * n_in + 8 * n_attr + 4 * n_const
    return offsets


def _forge_scale(rng: np.random.Generator, node: bytes) -> tuple[int, bytes]:
    """Rewrite one non-leaf entry's scale: one ulp up, or times 2^k."""
    buf = bytearray(node)
    entries = _inner_entries(node)
    pick = int(rng.integers(0, len(entries)))
    at = entries[pick] + _SCALE_AT
    (scale,) = struct.unpack_from("<d", buf, at)
    k = int(rng.integers(-8, 9))
    forged = np.nextafter(scale, np.inf) if k == 0 else scale * 2.0**k
    struct.pack_into("<d", buf, at, forged)
    return pick, bytes(buf)


def _mutate(rng: np.random.Generator, blob: bytes) -> tuple[str, bytes]:
    header, frames = blob[:8], _split(blob)
    kind = int(rng.integers(0, 9))
    if kind == 0:
        return "truncate", blob[: int(rng.integers(0, len(blob)))]
    if kind == 1:
        frames.pop(int(rng.integers(0, len(frames))))
        return "drop", _join(header, frames)
    if kind == 2:
        i, j = rng.choice(len(frames), size=2, replace=False)
        frames[i], frames[j] = frames[j], frames[i]
        return "swap", _join(header, frames)
    if kind == 3:
        at = [tag for tag, _ in frames].index(b"CPAY")
        frames[at] = (b"CPAY", _flip_cnst_entry(rng, frames[at][1]))
        return "flip", _join(header, frames)
    if kind == 4:
        at = [tag for tag, _ in frames].index(b"NODE")
        pick, node = _forge_scale(rng, frames[at][1])
        frames[at] = (b"NODE", node)
        return f"scale@{pick}", _join(header, frames)
    # Flip a bit of the header or of one frame's payload, uniformly by
    # frame so the small structure frames get as many flips as CPAY.
    at = int(rng.integers(-1, len(frames)))
    if at < 0:
        return "flip", _join(_flip(rng, header), frames)
    tag, payload = frames[at]
    frames[at] = (tag, _flip(rng, payload))
    return "flip", _join(header, frames)


@pytest.fixture(scope="module")
def fuzz_plan(rctx, rlk, gks):
    def program(ev, x, y):
        prod = ev.multiply_relin_rescale(ev.rotate(x, 1, gks), y, rlk)
        half = np.full(rctx.params.slots, 0.5)
        return ev.add_plain(
            prod, rctx.encoder.encode(half, level=prod.level, scale=prod.scale)
        )

    spec = CtSpec(level=rctx.params.num_primes, scale=rctx.params.scale)
    return compile_fn(program, rctx.evaluator, [spec, spec])


def test_mutated_plans_reject_typed_or_replay(rctx, fuzz_plan):
    rng = np.random.default_rng(FUZZ_SEED)
    blob = serialize_plan(fuzz_plan)
    inputs = [rctx.encrypt(rng.uniform(-1, 1, rctx.params.slots)) for _ in range(2)]
    reference = [
        [p.data.tobytes() for p in ct.parts] for ct in fuzz_plan.run_batch([inputs])[0]
    ]
    outcomes: dict[tuple[str, str], int] = {}
    for _ in range(N_MUTATIONS):
        kind, mutant = _mutate(rng, blob)
        try:
            plan = deserialize_plan(mutant, rctx.evaluator)
        except PlanFormatError:
            outcome = "rejected"
        else:
            outs = plan.run_batch([inputs])[0]
            assert len(outs) == plan.num_outputs
            if kind == "swap":
                assert [[p.data.tobytes() for p in ct.parts] for ct in outs] == reference
            outcome = "replayed"
        outcomes[kind, outcome] = outcomes.get((kind, outcome), 0) + 1
    assert sum(outcomes.values()) == N_MUTATIONS >= 300
    # Every class ran, and the battery reached both outcomes.
    for kind in ("truncate", "drop", "swap", "flip"):
        assert any(k == kind for k, _ in outcomes), outcomes
    # A forged scale never replays, and every non-leaf entry was forged.
    forged = [(k, o) for k, o in outcomes if k.startswith("scale@")]
    assert all(o == "rejected" for _, o in forged), outcomes
    inner = _inner_entries(dict(_split(blob))[b"NODE"])
    assert len({k for k, _ in forged}) == len(inner), outcomes
    assert outcomes.get(("flip", "rejected"), 0) > 100, outcomes
    assert outcomes.get(("swap", "replayed"), 0) > 10, outcomes

"""Seeded frame fuzzer over the serving fabric's wire formats.

Every layout the fabric parses — session-version-4 frames (FHL1 hello
with its worker-config blob, FHA1 ack, FPL1 plan, FMS1 message, FCT1
control), the worker message riding inside an FMS1 frame (header and
parts), and the boundary frames riding inside worker messages (ENV1
envelopes, FLT1 faults, TRC1 traces) — is mutated under a fixed seed:
flipped bytes, corrupted length prefixes, zeroed CRCs, swapped magics,
truncations, junk tails, and CRC-*valid* malformed payloads (mutate,
then re-frame).

The invariant under test is the contract in ``docs/formats.md``: every
mutation yields a **typed rejection** — :class:`WireFormatError` or a
connection-level error, full stop — **or a dropped session**: never a
hung host, never a dead host process, and never a decode of bytes whose
CRC did not check out.

Tier-1 acceptance requires at least 500 seeded mutations; the counts
below are asserted so a refactor cannot silently shrink the battery.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
import zlib

import numpy as np
import pytest

from repro.ckks.serialization import WireFormatError, pack_frame
from repro.runtime import CtSpec, FaultAction, FaultPlan, compile_fn
from repro.runtime import wire
from repro.runtime.faults import WorkerCrash
from repro.runtime.plan_io import serialize_plan
from repro.runtime.telemetry import TraceContext
from repro.runtime.wire import (
    SESSION_ACK_MAGIC,
    SESSION_CONTROL_MAGIC,
    SESSION_HELLO_MAGIC,
    SESSION_MESSAGE_MAGIC,
    SESSION_PLAN_MAGIC,
    auth_client,
    recv_session_frame,
)
from repro.runtime.worker_host import WorkerHost

# Exceptions that count as a *typed rejection*: exactly the set the
# host treats as the end of a dial — the decoders' one error type,
# or the connection failing (ConnectionError / TimeoutError, both
# OSErrors, for reads that outlive a dropped peer).  Anything else —
# struct.error, KeyError, a bare ValueError — would be a decoder that
# forgot a bounds check.
ALLOWED = (WireFormatError, EOFError, OSError)

N_DECODE_MUTATIONS = 520
N_LIVE_MUTATIONS = 48
FUZZ_SEED = 0xF0CC


def _crc_ok(frame: bytes) -> bool:
    """Whether ``frame`` still parses as one intact frame container."""
    if len(frame) < 12:
        return False
    (length,) = struct.unpack_from("<I", frame, 4)
    if len(frame) != 12 + length:
        return False
    (crc,) = struct.unpack_from("<I", frame, 8 + length)
    # The container CRC covers the payload only (see pack_frame).
    return zlib.crc32(frame[8 : 8 + length]) & 0xFFFFFFFF == crc


def _mutate(rng: np.random.Generator, frame: bytes) -> bytes:
    """One seeded mutation drawn from the battery's mutation classes."""
    kind = int(rng.integers(0, 7))
    buf = bytearray(frame)
    if kind == 0:  # flip one byte anywhere (magic, length, payload, CRC)
        pos = int(rng.integers(0, len(buf)))
        buf[pos] ^= int(rng.integers(1, 256))
        return bytes(buf)
    if kind == 1:  # truncate
        return bytes(buf[: int(rng.integers(0, len(buf)))])
    if kind == 2:  # junk tail
        return bytes(buf) + rng.bytes(int(rng.integers(1, 64)))
    if kind == 3:  # huge length prefix (must reject from the header)
        struct.pack_into("<I", buf, 4, 0xFFFF_FF00)
        return bytes(buf)
    if kind == 4:  # zeroed CRC
        buf[-4:] = b"\x00\x00\x00\x00"
        return bytes(buf)
    if kind == 5:  # swapped magic
        buf[:4] = rng.bytes(4)
        return bytes(buf)
    # kind == 6: CRC-valid malformed payload — mutate, then re-frame, so
    # the container checks out and the *payload decoder* must hold.
    tag = bytes(buf[:4])
    payload = bytearray(buf[8:-4])
    if payload:
        pos = int(rng.integers(0, len(payload)))
        payload[pos] ^= int(rng.integers(1, 256))
    return pack_frame(tag, bytes(payload))


@pytest.fixture(scope="module")
def fuzz_plan(rctx, rlk):
    def program(ev, x, y):
        return (ev.multiply_relin_rescale(ev.add(x, y), y, rlk),)

    spec = CtSpec(level=rctx.params.num_primes, scale=rctx.params.scale)
    return compile_fn(program, rctx.evaluator, [spec, spec])


def _worker_cfg(plan):
    env = wire.HostEnv(
        params=plan.evaluator.params, primes=tuple(plan.evaluator.basis.primes)
    )
    chaos = FaultPlan(
        5,
        crash_rate=0.25,
        scripted={("host_relay", 1, 0): FaultAction("slow", "host_relay", 0.5)},
    )
    return wire.WorkerConfig(fused=False, chaos=chaos, heartbeat_s=0.5, env=env)


def _reply_message() -> bytes:
    return wire.encode_message(wire.OK, 7, 0, [b"payload-bytes" * 17])


class TestDecodeFuzz:
    """Mutation battery against the decoders themselves (no processes):
    feeds each mutated session frame through a socketpair into
    ``recv_session_frame`` and — when the container survives — through
    the same payload decoder the host dispatch uses."""

    def _corpus(self, fuzz_plan):
        blob = serialize_plan(fuzz_plan)
        fingerprint = wire.plan_fingerprint(blob)
        hello = wire.encode_hello(fingerprint, 3, _worker_cfg(fuzz_plan))
        assert struct.unpack_from("<H", hello) == (4,)  # the layout fuzzed
        return [
            ("FHL1", pack_frame(SESSION_HELLO_MAGIC, hello), wire.decode_hello),
            (
                "FMS1",
                pack_frame(SESSION_MESSAGE_MAGIC, _reply_message()),
                wire.decode_message,
            ),
            (
                # A heartbeat is header only, so a payload mutation
                # lands in the message header.
                "FMS1-header",
                pack_frame(
                    SESSION_MESSAGE_MAGIC, wire.encode_message(wire.HEARTBEAT, 7, 1)
                ),
                wire.decode_message,
            ),
            (
                "FCT1",
                pack_frame(SESSION_CONTROL_MAGIC, wire.encode_control("up", 4321)),
                wire.decode_control,
            ),
            (
                "FHA1",
                pack_frame(SESSION_ACK_MAGIC, wire.encode_ack(True, 4321)),
                wire.decode_ack,
            ),
        ]

    @staticmethod
    def _feed_session(mutant: bytes):
        """Run one mutant through recv_session_frame over a socketpair;
        returns (tag, payload) or raises what a reader would see."""
        a, b = socket.socketpair()
        try:
            a.sendall(mutant)
            a.close()
            b.settimeout(10)
            return recv_session_frame(b)
        finally:
            b.close()

    def test_session_frame_mutations_reject_typed(self, fuzz_plan):
        rng = np.random.default_rng(FUZZ_SEED)
        session_corpus = self._corpus(fuzz_plan)
        ran = 0
        decoded_bad_crc = 0
        for _ in range(N_DECODE_MUTATIONS - 120):
            name, frame, decoder = session_corpus[
                int(rng.integers(0, len(session_corpus)))
            ]
            mutant = _mutate(rng, frame)
            ran += 1
            try:
                tag, payload = self._feed_session(mutant)
            except ALLOWED:
                continue  # typed rejection at the container layer
            # Container accepted: the mutation must have preserved the
            # CRC (identity, tail-junk after a full frame, or a
            # re-framed payload) — never a corrupt container.
            if not _crc_ok(mutant[: 12 + struct.unpack_from("<I", mutant, 4)[0]]):
                decoded_bad_crc += 1
            try:
                decoder(payload)
            except ALLOWED:
                continue  # typed rejection at the payload layer
        assert ran == N_DECODE_MUTATIONS - 120
        # The no-decode-of-unverified-bytes invariant: a frame whose
        # CRC does not check out never surfaces a payload.
        assert decoded_bad_crc == 0

    def test_boundary_frame_mutations_reject_typed(self, rctx, fuzz_plan):
        from repro.ckks.serialization import serialize_ciphertext

        rng = np.random.default_rng(FUZZ_SEED + 1)
        env_frame = pack_frame(
            b"ENV1", serialize_ciphertext(rctx.encrypt(np.zeros(rctx.params.slots)), 44)
        )
        flt_frame = wire.serialize_fault(WorkerCrash("worker died", attempts=2))
        trc_frames = [
            wire.serialize_trace_context(TraceContext(12345, 678, True)),
            wire.serialize_worker_spans([{"name": "op", "dur_us": 3}]),
        ]
        basis = rctx.evaluator.basis
        corpus = [
            ("ENV1", env_frame, lambda blob: wire.decode_value(blob, basis)),
            ("FLT1", flt_frame, wire.deserialize_fault),
            ("TRC1", trc_frames[0], wire.deserialize_trace_frame),
            ("TRC1", trc_frames[1], wire.deserialize_trace_frame),
            # The two unframed layouts, mutated bare: the message
            # (traced, so the part table is exercised too) and the
            # hello's worker-config blob.
            (
                "message",
                wire.encode_message(wire.ERR, 7, 2, [flt_frame], trc_frames[1]),
                wire.decode_message,
            ),
            (
                "config",
                wire.encode_worker_config(_worker_cfg(fuzz_plan)),
                wire.decode_worker_config,
            ),
        ]
        ran = 0
        for _ in range(120):
            name, frame, decoder = corpus[int(rng.integers(0, len(corpus)))]
            mutant = _mutate(rng, frame)
            ran += 1
            try:
                decoder(mutant)
            except ALLOWED:
                continue
        assert ran == 120

    def test_battery_size_meets_floor(self):
        assert N_DECODE_MUTATIONS + N_LIVE_MUTATIONS >= 500


class TestLiveHostFuzz:
    """The same mutation battery against a *live* worker host: after
    every hostile session the host must still be serving (a hung handshake
    would wedge the one-session-at-a-time accept loop and time the next
    round out; an escaped exception would kill the serve thread)."""

    def test_mutated_sessions_never_kill_or_hang_the_host(
        self, rctx, fuzz_plan
    ):
        import os

        rng = np.random.default_rng(FUZZ_SEED + 2)
        key = os.urandom(32)
        host = WorkerHost(("127.0.0.1", 0), key)
        port = host.bind()
        thread = threading.Thread(target=host.serve_forever, daemon=True)
        thread.start()
        cfg = _worker_cfg(fuzz_plan)
        blob = serialize_plan(fuzz_plan)
        hello_frame = pack_frame(
            SESSION_HELLO_MAGIC,
            wire.encode_hello(wire.plan_fingerprint(blob), 3, cfg),
        )
        # What a slot worker reads once forked: a request (its junk input
        # earns a typed WireCorruption reply) and a stray reply.
        steady_frames = [
            pack_frame(
                SESSION_MESSAGE_MAGIC,
                wire.encode_message(wire.REQUEST, 0, 0, [b"not-an-envelope"]),
            ),
            pack_frame(SESSION_MESSAGE_MAGIC, _reply_message()),
        ]
        plan_frame = pack_frame(SESSION_PLAN_MAGIC, blob)
        deadline = time.monotonic() + 240
        try:
            for round_no in range(N_LIVE_MUTATIONS):
                assert time.monotonic() < deadline, "live fuzz wedged"
                scenario = round_no % 3
                with socket.create_connection(
                    ("127.0.0.1", port), timeout=10
                ) as sock:
                    sock.settimeout(10)
                    auth_client(sock, key)
                    if scenario == 0:
                        # Mutated hello as the first frame.
                        sock.sendall(_mutate(rng, hello_frame))
                    elif scenario == 1:
                        # Valid hello, mutated plan upload.
                        sock.sendall(hello_frame)
                        tag, payload = recv_session_frame(sock)
                        assert tag == SESSION_ACK_MAGIC
                        if payload[0]:
                            sock.sendall(_mutate(rng, plan_frame))
                        else:
                            # Plan cached from an earlier clean round:
                            # fuzz what the forked slot worker reads.
                            for frame in steady_frames:
                                sock.sendall(_mutate(rng, frame))
                    else:
                        # Raw seeded junk, no framing at all.
                        sock.sendall(rng.bytes(int(rng.integers(1, 512))))
                    # Half-close: a mutant that left the host mid-frame
                    # resolves as EOF instead of a handshake timeout.
                    # ENOTCONN just means the host already hung up.
                    try:
                        sock.shutdown(socket.SHUT_WR)
                    except OSError:
                        pass
                    # The host must end the session (EOF) or answer with
                    # a well-formed frame — bounded either way.
                    try:
                        while sock.recv(65536):
                            pass
                    except (ConnectionError, OSError, TimeoutError):
                        pass
                assert thread.is_alive(), f"host died on round {round_no}"
            # After the whole battery: a genuine session still works,
            # warm plan cache included.
            with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
                sock.settimeout(10)
                auth_client(sock, key)
                sock.sendall(hello_frame)
                tag, payload = recv_session_frame(sock)
                assert tag == SESSION_ACK_MAGIC
                if payload[0]:
                    sock.sendall(plan_frame)
                tag, payload = recv_session_frame(sock)
                assert (tag, wire.decode_control(payload)[0]) == (
                    SESSION_CONTROL_MAGIC,
                    "up",
                )
                sock.shutdown(socket.SHUT_RDWR)
            assert thread.is_alive()
        finally:
            host.request_drain()
            thread.join(timeout=10)
            assert not thread.is_alive()

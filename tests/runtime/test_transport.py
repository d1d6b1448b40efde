"""Transport seam: TCP worker-host slots.

Every transport must be *invisible* — bit-identical outputs, identical
ordering, identical fault semantics — while differing only in how bytes
cross the worker boundary.  These tests drive the tcp implementation
through the same serving surface the pipe transport uses, including
host loss mid-batch and the seeded chaos matrix's ``host_relay`` site.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.runtime import (
    CtSpec,
    FaultAction,
    FaultPlan,
    FaultPolicy,
    ServingConfig,
    ShardedExecutor,
    compile_fn,
    get_telemetry,
    serve,
)
from repro.runtime.plan_io import serialize_plan
from repro.runtime.transport import available_transports
from repro.runtime.wire import HostEnv, WorkerConfig

RESULT_TIMEOUT = 120.0


def _assert_outputs_equal(got, want, what=""):
    assert len(got) == len(want), what
    for i, (g, w) in enumerate(zip(got, want)):
        assert g.scale == w.scale, f"{what} output {i} scale"
        for j, (pg, pw) in enumerate(zip(g.parts, w.parts)):
            assert np.array_equal(pg.data, pw.data), (
                f"{what} output {i} part {j} differs"
            )


def _assert_batches_equal(got, want, what=""):
    assert len(got) == len(want), what
    for i, (g, w) in enumerate(zip(got, want)):
        _assert_outputs_equal(g, w, f"{what} entry {i}")


@pytest.fixture(scope="module")
def fabric_plan(rctx, gks, rlk):
    def program(ev, x, y):
        rot = ev.rotate(x, 1, gks)
        prod = ev.multiply_relin_rescale(ev.add(rot, y), y, rlk)
        return prod, ev.multiply(x, y)

    spec = CtSpec(level=rctx.params.num_primes, scale=rctx.params.scale)
    return compile_fn(program, rctx.evaluator, [spec, spec])


def _batches(rctx, n, seed=9):
    rng = np.random.default_rng(seed)
    return [
        [
            rctx.encrypt(rng.uniform(-1, 1, rctx.params.slots)),
            rctx.encrypt(rng.uniform(-1, 1, rctx.params.slots)),
        ]
        for _ in range(n)
    ]


def test_transport_registry_lists_both():
    assert available_transports() == ("pipe", "tcp")


class TestTcpTransport:
    def test_bit_identity_single_host(self, rctx, fabric_plan):
        batches = _batches(rctx, 5)
        reference = fabric_plan.run_batch(batches)
        cfg = ServingConfig(num_workers=2, transport="tcp")
        with ShardedExecutor(fabric_plan, config=cfg) as pool:
            sharded = pool.run_batch(batches, timeout=RESULT_TIMEOUT)
            stats = pool.stats()
            assert stats["transport_stats"]["hosts_spawned"] == 1
            # One connection per slot.
            assert stats["transport_stats"]["sessions_opened"] == 2
        _assert_batches_equal(sharded, reference)

    def test_plan_ships_once_per_host(self, rctx, fabric_plan):
        # Two hosts, four slots: the serialized plan crosses the wire
        # exactly twice (content-fingerprint dedup is per host).
        batches = _batches(rctx, 6, seed=12)
        reference = fabric_plan.run_batch(batches)
        cfg = ServingConfig(
            num_workers=4, transport="tcp", hosts=2
        )
        host_procs = []
        with ShardedExecutor(fabric_plan, config=cfg) as pool:
            sharded = pool.run_batch(batches, timeout=RESULT_TIMEOUT)
            stats = pool.stats()
            ts = stats["transport_stats"]
            assert ts["hosts_spawned"] == 2
            assert ts["plan_uploads"] == 2
            host_procs = [proc for proc, _port in pool._transport._forked]
        _assert_batches_equal(sharded, reference)
        # close() retires each forked host with a SIGTERM drain; exit
        # code 0 means the drain finished it, not the SIGKILL fallback.
        assert [p.exitcode for p in host_procs] == [0] * len(host_procs)


class TestHostLoss:
    def test_scripted_disconnect_reconnects_without_replan(
        self, rctx, fabric_plan
    ):
        """A host_relay disconnect drops one slot's connection; the
        executor requeues its request, the transport dials the *same*
        host process for a new slot, and the warm plan cache means the
        plan is not shipped again."""
        batches = _batches(rctx, 6, seed=14)
        reference = fabric_plan.run_batch(batches)
        chaos = FaultPlan(
            0,
            scripted={
                ("host_relay", 2, 0): FaultAction("disconnect", "host_relay")
            },
        )
        cfg = ServingConfig(
            num_workers=2,
            transport="tcp",
            chaos=chaos,
            fault_policy=FaultPolicy(backoff_base_s=0.01),
        )
        with ShardedExecutor(fabric_plan, config=cfg) as pool:
            sharded = pool.run_batch(batches, timeout=RESULT_TIMEOUT)
            stats = pool.stats()
            ts = stats["transport_stats"]
            assert ts["sessions_opened"] >= 3  # two slots, then the redial
            assert ts["hosts_spawned"] == 1  # same host process
            assert ts["plan_uploads"] == 1  # fingerprint cache hit
            assert stats["worker_crashes"] >= 1
        _assert_batches_equal(sharded, reference)

    def test_host_sigkill_mid_batch_loses_nothing(self, rctx, fabric_plan):
        """Kill the worker-host process while requests are in flight:
        every request completes exactly once (order preserved,
        bit-identical), the crash surfaces as typed WorkerCrash events
        labelled with the host, and a replacement host is forked."""
        telemetry = get_telemetry()
        telemetry.enable()
        batches = _batches(rctx, 10, seed=15)
        reference = fabric_plan.run_batch(batches)
        cfg = ServingConfig(
            num_workers=2,
            transport="tcp",
            chaos=FaultPlan(0, slow_rate=1.0, slow_s=0.15),
            fault_policy=FaultPolicy(backoff_base_s=0.01),
        )
        try:
            with serve(fabric_plan, cfg) as session:
                futures = [session.submit(b) for b in batches]
                time.sleep(0.4)  # several in flight, more queued
                [host_pid] = session._transport.host_pids()
                os.kill(host_pid, signal.SIGKILL)
                outputs = [f.result(timeout=RESULT_TIMEOUT) for f in futures]
                stats = session.stats()
            assert stats["completed"] == len(batches)
            assert stats["errors"] == 0
            assert stats["worker_crashes"] >= 1
            assert stats["transport_stats"]["hosts_spawned"] >= 2
            _assert_batches_equal(outputs, reference)
            crash_events = [
                e
                for e in telemetry.export_events()
                if e["event"] == "worker_crash"
            ]
            assert crash_events
            assert all(e["host"].startswith("host") for e in crash_events)
        finally:
            telemetry.disable()


def _bare_config(plan):
    evaluator = plan.evaluator
    return WorkerConfig(
        fused=False,
        chaos=None,
        heartbeat_s=None,
        env=HostEnv(evaluator.params, tuple(evaluator.basis.primes)),
    )


class TestSessionSecurity:
    """The session socket is loopback but loopback is multi-user: no
    frame may be parsed from an unauthenticated peer, and no hostile
    bytes may crash the host or allocate GiBs."""

    @staticmethod
    def _bare_host(fabric_plan):
        from repro.runtime.coordinator import TcpTransport

        transport = TcpTransport(
            mp.get_context("fork"),
            plan_blob=serialize_plan(fabric_plan),
            cfg=_bare_config(fabric_plan),
        )
        proc, port = transport._fork_host("sec-test")
        return transport, proc, port

    @staticmethod
    def _retire(transport, proc):
        proc.terminate()
        proc.join(timeout=5)
        transport.close()

    def test_mutual_auth_round_trip_and_wrong_key(self):
        from repro.ckks.serialization import WireFormatError
        from repro.runtime.wire import auth_client, auth_server

        key = os.urandom(32)

        def handshake(server_key, client_key):
            a, b = socket.socketpair()
            outcome = {}

            def server():
                outcome["ok"] = auth_server(a, server_key)
                if not outcome["ok"]:
                    a.close()  # what the host's accept loop does

            thread = threading.Thread(target=server)
            thread.start()
            try:
                auth_client(b, client_key)
            finally:
                thread.join()
                a.close()
                b.close()
            return outcome["ok"]

        assert handshake(key, key) is True
        with pytest.raises((WireFormatError, ConnectionError, OSError)):
            handshake(key, os.urandom(32))

    def test_unauthenticated_peer_disconnected_before_any_frame(
        self, fabric_plan
    ):
        from repro.runtime.wire import auth_client, recv_exact

        transport, proc, port = self._bare_host(fabric_plan)
        try:
            # Wrong key: the host issues its challenge, sees a bad
            # digest, and hangs up without parsing a single frame.
            with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
                sock.settimeout(10)
                nonce = recv_exact(sock, 32)
                assert len(nonce) == 32
                sock.sendall(b"\x00" * 64)
                assert sock.recv(1) == b""
            # The host survives and still serves the genuine key.
            with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
                sock.settimeout(10)
                auth_client(sock, transport._authkey)
        finally:
            self._retire(transport, proc)

    def test_oversized_length_prefix_rejected_before_read(self):
        from repro.ckks.serialization import WireFormatError
        from repro.runtime.wire import recv_session_frame

        a, b = socket.socketpair()
        with a, b:
            # A corrupted u32 claiming ~4 GiB: rejected from the 8-byte
            # header alone — no body allocation, no blocking read.
            a.sendall(b"FMS1" + struct.pack("<I", 0xFFFF_FF00))
            b.settimeout(10)
            with pytest.raises(WireFormatError):
                recv_session_frame(b)

    def test_malformed_frame_drops_session_not_host(self, fabric_plan):
        from repro.runtime.wire import (
            SESSION_ACK_MAGIC,
            SESSION_CONTROL_MAGIC,
            SESSION_HELLO_MAGIC,
            SESSION_MESSAGE_MAGIC,
            SESSION_PLAN_MAGIC,
            auth_client,
            decode_ack,
            decode_control,
            encode_hello,
            recv_session_frame,
            send_session_frame,
        )

        transport, proc, port = self._bare_host(fabric_plan)

        def attach():
            """Dial, authenticate, say hello; returns (socket, need_plan)."""
            sock = socket.create_connection(("127.0.0.1", port), timeout=10)
            sock.settimeout(10)
            auth_client(sock, transport._authkey)
            hello = encode_hello(transport.fingerprint, 1, transport.cfg)
            send_session_frame(sock, SESSION_HELLO_MAGIC, hello)
            tag, payload = recv_session_frame(sock)
            assert tag == SESSION_ACK_MAGIC
            return sock, decode_ack(payload)[0]

        try:
            sock, need_plan = attach()
            with sock:
                assert need_plan  # a fresh host: complete the handshake
                send_session_frame(sock, SESSION_PLAN_MAGIC, transport.plan_blob)
                tag, payload = recv_session_frame(sock)
                assert tag == SESSION_CONTROL_MAGIC
                assert decode_control(payload)[0] == "up"
                # Steady state.  A CRC-valid but malformed message: a
                # header cut short after its kind byte.
                send_session_frame(sock, SESSION_MESSAGE_MAGIC, b"\x01")
                assert sock.recv(1) == b""  # session dropped…
            time.sleep(0.2)
            assert proc.is_alive()  # …but the host lives,
            sock, need_plan = attach()
            with sock:
                assert not need_plan  # its plan cache too
        finally:
            self._retire(transport, proc)


class TestChaosMatrix:
    @pytest.mark.parametrize("transport", ["tcp"])
    def test_seeded_chaos_completes_bit_identical(
        self, rctx, fabric_plan, transport
    ):
        """The seeded matrix — worker crashes plus slot disconnects,
        partial frames, and slow replies — must finish every request
        exactly once with byte-identical outputs."""
        batches = _batches(rctx, 8, seed=16)
        reference = fabric_plan.run_batch(batches)
        chaos = FaultPlan(
            23,
            crash_rate=0.1,
            disconnect_rate=0.15,
            partial_frame_rate=0.1,
            slow_host_rate=0.2,
            slow_host_s=0.01,
        )
        # Give the retry budget headroom: the invariant under test is
        # exactly-once results, not retry count.
        cfg = ServingConfig(
            num_workers=2,
            transport=transport,
            chaos=chaos,
            fault_policy=FaultPolicy(
                backoff_base_s=0.01, max_attempts=8, crash_loop_threshold=32
            ),
            max_crash_respawns=64,
        )
        with ShardedExecutor(fabric_plan, config=cfg) as pool:
            sharded = pool.run_batch(batches, timeout=RESULT_TIMEOUT)
            stats = pool.stats()
        assert stats["completed"] == len(batches)
        _assert_batches_equal(sharded, reference)

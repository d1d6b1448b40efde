"""Worker-host lifecycle: the half of the fabric that owns slot workers.

A ``WorkerHost`` — the class ``python -m repro.runtime.worker_host``
runs, and the one the tcp transport forks — must refuse stale keys
without dying, report a bound address clearly, time out sessions whose
coordinator went quiet, refuse a second coordinator explicitly while
serving a first, take and lower the plan once, and drain in-flight work
on SIGTERM instead of dropping it.
"""

from __future__ import annotations

import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.ckks.serialization import WireFormatError
from repro.runtime import (
    CtSpec,
    FaultAction,
    FaultPlan,
    FaultPolicy,
    ServingConfig,
    compile_fn,
    serve,
)
from repro.runtime.plan_io import serialize_plan
from repro.runtime.wire import (
    SESSION_ACK_MAGIC,
    SESSION_CONTROL_MAGIC,
    SESSION_HELLO_MAGIC,
    SESSION_PLAN_MAGIC,
    SESSION_VERSION,
    HostEnv,
    VersionMismatch,
    WorkerConfig,
    auth_client,
    auth_server,
    decode_control,
    encode_control,
    encode_hello,
    plan_fingerprint,
    recv_session_frame,
    send_session_frame,
)
from repro.runtime.worker_host import (
    MIN_AUTHKEY_BYTES,
    WorkerHost,
    load_authkey,
    main,
)

RESULT_TIMEOUT = 120.0


@pytest.fixture(scope="module")
def host_plan(rctx, rlk):
    def program(ev, x, y):
        return (ev.multiply_relin_rescale(ev.add(x, y), y, rlk),)

    spec = CtSpec(level=rctx.params.num_primes, scale=rctx.params.scale)
    return compile_fn(program, rctx.evaluator, [spec, spec])


def _batches(rctx, n, seed=21):
    rng = np.random.default_rng(seed)
    return [
        [
            rctx.encrypt(rng.uniform(-1, 1, rctx.params.slots)),
            rctx.encrypt(rng.uniform(-1, 1, rctx.params.slots)),
        ]
        for _ in range(n)
    ]


def _assert_batches_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for a, b in zip(g, w):
            assert a.scale == b.scale
            for pa, pb in zip(a.parts, b.parts):
                assert np.array_equal(pa.data, pb.data)


def _write_key(tmp_path, name="authkey"):
    """A fresh random keyfile; the returned key is what the *file*
    means (``load_authkey``), so both ends of a session agree even when
    the random bytes end in a newline."""
    path = tmp_path / name
    path.write_bytes(os.urandom(32))
    return str(path), load_authkey(str(path))


def _threaded_host(authkey, **kwargs):
    """An in-process WorkerHost serving on an ephemeral port from a
    daemon thread; returns (host, port, thread)."""
    host = WorkerHost(("127.0.0.1", 0), authkey, **kwargs)
    port = host.bind()
    thread = threading.Thread(target=host.serve_forever, daemon=True)
    thread.start()
    return host, port, thread


def _stop_host(host, thread):
    host.request_drain()
    thread.join(timeout=10)
    assert not thread.is_alive()


def _negotiate_session(port, authkey, host_plan, fused=False):
    """Dial + authenticate + complete a hello (uploading the plan if the
    host asks), leaving the host inside its session loop.  Returns the
    connected socket."""
    env = HostEnv(
        params=host_plan.evaluator.params,
        primes=tuple(host_plan.evaluator.basis.primes),
    )
    cfg = WorkerConfig(fused=fused, chaos=None, heartbeat_s=None, env=env)
    blob = serialize_plan(host_plan)
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    sock.settimeout(10)
    auth_client(sock, authkey)
    send_session_frame(
        sock, SESSION_HELLO_MAGIC, encode_hello(plan_fingerprint(blob), cfg)
    )
    tag, payload = recv_session_frame(sock)
    assert tag == SESSION_ACK_MAGIC
    if payload[0]:  # need_plan
        send_session_frame(sock, SESSION_PLAN_MAGIC, blob)
    return sock


class TestCliEntrypoint:
    def test_bind_address_in_use_message(self, tmp_path, capsys):
        keyfile, _ = _write_key(tmp_path)
        blocker = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            rc = main(
                ["--bind", f"127.0.0.1:{port}", "--authkey-file", keyfile]
            )
        finally:
            blocker.close()
        assert rc == 2
        err = capsys.readouterr().err
        assert f"cannot bind 127.0.0.1:{port}" in err
        assert "address already in use" in err

    def test_short_authkey_file_rejected(self, tmp_path, capsys):
        keyfile = tmp_path / "short"
        keyfile.write_bytes(b"tiny")
        rc = main(["--authkey-file", str(keyfile)])
        assert rc == 2
        assert "bad --authkey-file" in capsys.readouterr().err
        with pytest.raises(ValueError, match=str(MIN_AUTHKEY_BYTES)):
            load_authkey(str(keyfile))

    def test_trailing_newline_in_keyfile_tolerated(self, tmp_path):
        key = bytes(range(1, 33))
        keyfile = tmp_path / "key"
        for newline in (b"\n", b"\r\n"):
            keyfile.write_bytes(key + newline)
            assert load_authkey(str(keyfile)) == key

    @pytest.mark.parametrize("edge", [0x09, 0x0A, 0x0B, 0x0C, 0x0D, 0x20])
    def test_whitespace_edge_bytes_are_key_material(self, tmp_path, edge):
        """Raw key bytes that happen to be ASCII whitespace are kept: a
        ``strip()`` here shortened ~4.6 % of ``os.urandom(32)`` keys and
        made the two ends of a session disagree."""
        body = bytes(range(0x40, 0x5E))
        keyfile = tmp_path / "key"
        leading = bytes([edge, edge]) + body
        keyfile.write_bytes(leading)
        assert load_authkey(str(keyfile)) == leading
        trailing = body + bytes([edge, edge])
        keyfile.write_bytes(trailing + b"\n")
        # Exactly one newline sequence goes — which after a "\r" is "\r\n".
        want = trailing[:-1] if edge == 0x0D else trailing
        assert load_authkey(str(keyfile)) == want


class TestSessionLifecycle:
    def test_stale_authkey_rejected_host_survives(self, tmp_path):
        _, key = _write_key(tmp_path)
        host, port, thread = _threaded_host(key)
        try:
            # A coordinator holding yesterday's key fails the handshake.
            with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
                sock.settimeout(10)
                with pytest.raises((WireFormatError, ConnectionError, OSError)):
                    auth_client(sock, os.urandom(32))
            # The host neither died nor wedged: the real key still works.
            with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
                sock.settimeout(10)
                auth_client(sock, key)
            assert thread.is_alive()
        finally:
            _stop_host(host, thread)

    def test_idle_session_times_out(self, tmp_path, host_plan):
        _, key = _write_key(tmp_path)
        host, port, thread = _threaded_host(key, idle_timeout_s=0.5)
        try:
            sock = _negotiate_session(port, key, host_plan)
            # Quiet coordinator: the host drops the session (EOF here)
            # instead of staying attached forever.
            start = time.monotonic()
            assert sock.recv(1) == b""
            assert time.monotonic() - start < 10
            sock.close()
            # The host itself keeps accepting.
            sock = _negotiate_session(port, key, host_plan)
            sock.close()
        finally:
            _stop_host(host, thread)

    def test_double_attach_second_refused_cleanly(self, tmp_path, host_plan):
        _, key = _write_key(tmp_path)
        host, port, thread = _threaded_host(key)
        first = None
        try:
            first = _negotiate_session(port, key, host_plan)
            # Second coordinator: authenticated, then told "busy" in a
            # typed FCT1 control frame — not a hang, not a silent drop.
            with socket.create_connection(("127.0.0.1", port), timeout=10) as second:
                second.settimeout(10)
                auth_client(second, key)
                tag, payload = recv_session_frame(second)
                assert tag == SESSION_CONTROL_MAGIC
                # (op, a=the threaded host's pid, b unused)
                assert decode_control(payload) == ("busy", os.getpid(), 0)
                assert second.recv(1) == b""  # then disconnected
            # The first session is untouched by the refusal.
            send_session_frame(first, SESSION_CONTROL_MAGIC, encode_control("bye"))
            assert thread.is_alive()
        finally:
            if first is not None:
                first.close()
            _stop_host(host, thread)

    def test_bye_ends_session_not_host(self, tmp_path, host_plan):
        _, key = _write_key(tmp_path)
        host, port, thread = _threaded_host(key)
        try:
            for _ in range(2):  # the second attach proves the host stayed
                sock = _negotiate_session(port, key, host_plan)
                send_session_frame(
                    sock, SESSION_CONTROL_MAGIC, encode_control("bye")
                )
                sock.close()
            assert thread.is_alive()
        finally:
            _stop_host(host, thread)

    def test_shipped_plan_is_lowered_once_in_the_host(self, tmp_path, host_plan):
        """A fused session's plan is lowered in the host, before any slot
        forks — so no slot, respawned or not, lowers inside a request."""
        _, key = _write_key(tmp_path)
        host, port, thread = _threaded_host(key)
        try:
            sock = _negotiate_session(port, key, host_plan, fused=True)
            # The spawn ack comes after negotiation: the plan is cached.
            send_session_frame(sock, SESSION_CONTROL_MAGIC, encode_control("spawn", 0))
            tag, payload = recv_session_frame(sock)
            assert (tag, decode_control(payload)[0]) == (SESSION_CONTROL_MAGIC, "up")
            [cached] = host._plans.values()
            assert cached is not host_plan  # rebuilt from the FPL1 bytes
            assert cached._fused is not None
            send_session_frame(sock, SESSION_CONTROL_MAGIC, encode_control("bye"))
            sock.close()
        finally:
            _stop_host(host, thread)

    def test_an_upload_must_be_the_plan_its_hello_names(self, tmp_path, host_plan):
        """Plans are cached across sessions under the hello's fingerprint,
        so an upload whose bytes hash to another name ends the session
        uncached — and the host serves the next one."""
        _, key = _write_key(tmp_path)
        host, port, thread = _threaded_host(key)
        evaluator = host_plan.evaluator
        env = HostEnv(evaluator.params, tuple(evaluator.basis.primes))
        cfg = WorkerConfig(fused=False, chaos=None, heartbeat_s=None, env=env)
        hello = encode_hello(plan_fingerprint(b"some other plan"), cfg)
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
                sock.settimeout(10)
                auth_client(sock, key)
                send_session_frame(sock, SESSION_HELLO_MAGIC, hello)
                tag, payload = recv_session_frame(sock)
                assert tag == SESSION_ACK_MAGIC and payload[0]  # need_plan
                send_session_frame(sock, SESSION_PLAN_MAGIC, serialize_plan(host_plan))
                assert sock.recv(1) == b""  # the session is dropped
            assert host._plans == {}
            _negotiate_session(port, key, host_plan).close()
            assert thread.is_alive()
        finally:
            _stop_host(host, thread)


# The worker config each older checkout put after its hello head: v1 a
# *pickled* object (opaque here), v2 JSON with two fields v3 dropped.
_OLD_CONFIGS = {
    1: b"\x80\x04N.",  # pickle.dumps(None), spelled out
    2: b'{"coeff_bits":44,"io_s":0.0,"fused":false,"chaos":null,'
    b'"heartbeat_s":null,"env":null}',
}


def _old_hello(version: int, signature: str) -> bytes:
    """The FHL1 payload a SESSION_VERSION 1 or 2 checkout sent: ``u16
    version | u8 flags (bit 0 set) | u16 sig_len``, the signature, then
    its config — a host must refuse on the version field without reading
    further."""
    sig = signature.encode()
    blob = _OLD_CONFIGS[version]
    head = struct.pack("<HBH", version, 1, len(sig))
    return head + sig + struct.pack("<I", len(blob)) + blob


class TestVersionMismatch:
    """Rule 2 of docs/formats.md "Versioning": a peer from another
    checkout is rejected with an error naming both versions — in both
    directions — never misparsed and never a bare closed socket."""

    @pytest.mark.parametrize("peer_version", [1, 2])
    def test_host_refuses_a_v1_hello_naming_both_versions(
        self, tmp_path, host_plan, peer_version
    ):
        _, key = _write_key(tmp_path)
        host, port, thread = _threaded_host(key)
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
                sock.settimeout(10)
                auth_client(sock, key)
                hello = _old_hello(peer_version, host_plan.signature)
                send_session_frame(sock, SESSION_HELLO_MAGIC, hello)
                tag, payload = recv_session_frame(sock)
                assert tag == SESSION_CONTROL_MAGIC
                want = ("version", SESSION_VERSION, peer_version)
                assert decode_control(payload) == want
                assert sock.recv(1) == b""  # then disconnected
            # The refusal cost the host nothing: a current session attaches.
            _negotiate_session(port, key, host_plan).close()
            assert thread.is_alive()
        finally:
            _stop_host(host, thread)

    def test_coordinator_names_both_versions_when_refused(self, tmp_path, host_plan):
        """A v1 host cannot be run from this checkout, so stand one in:
        authenticate, read the hello, answer as a host that speaks only
        version 1 would under rule 2."""
        keyfile, key = _write_key(tmp_path)
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]

        def v1_host():
            sock, _ = listener.accept()
            with sock:
                sock.settimeout(10)
                assert auth_server(sock, key)
                tag, payload = recv_session_frame(sock)
                assert tag == SESSION_HELLO_MAGIC
                (peer_version,) = struct.unpack_from("<H", payload)
                send_session_frame(
                    sock,
                    SESSION_CONTROL_MAGIC,
                    encode_control("version", 1, peer_version),
                )

        thread = threading.Thread(target=v1_host, daemon=True)
        thread.start()
        cfg = ServingConfig(
            num_workers=1,
            transport="tcp",
            hosts=(f"tcp://127.0.0.1:{port}",),
            authkey_file=keyfile,
        )
        try:
            start = time.monotonic()
            speaks = rf"speaks {SESSION_VERSION}.*speaks 1"
            with pytest.raises(VersionMismatch, match=speaks):
                serve(host_plan, cfg).start()
            # Deterministic, so raised at once — not after the redial window.
            assert time.monotonic() - start < 10
        finally:
            thread.join(timeout=10)
            listener.close()
        assert not thread.is_alive()


class TestCliHostServing:
    @staticmethod
    def _spawn_cli_host(tmp_path, keyfile, extra_args=()):
        portfile = tmp_path / "port"
        env = dict(os.environ)
        root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.runtime.worker_host",
                "--bind",
                "127.0.0.1:0",
                "--authkey-file",
                keyfile,
                "--port-file",
                str(portfile),
                *extra_args,
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        deadline = time.monotonic() + 30
        while not portfile.exists():
            if proc.poll() is not None or time.monotonic() > deadline:
                stderr = proc.stderr.read().decode(errors="replace")
                proc.kill()
                raise AssertionError(f"worker host never published a port: {stderr}")
            time.sleep(0.05)
        return proc, int(portfile.read_text().strip())

    def test_scripted_disconnect_reattaches_without_replan(
        self, tmp_path, rctx, host_plan
    ):
        """The acceptance pin for remote hosts: a scripted host_relay
        disconnect drops the session mid-batch, the coordinator redials
        the *same* CLI-spawned process, and the host's fingerprint-keyed
        plan cache answers need_plan=0 — plan_uploads stays at the one
        cold upload."""
        keyfile, _ = _write_key(tmp_path)
        proc, port = self._spawn_cli_host(tmp_path, keyfile)
        try:
            batches = _batches(rctx, 6, seed=23)
            reference = host_plan.run_batch(batches)
            chaos = FaultPlan(
                0,
                scripted={
                    ("host_relay", 2, 0): FaultAction("disconnect", "host_relay")
                },
            )
            cfg = ServingConfig(
                num_workers=2,
                transport="tcp",
                hosts=(f"tcp://127.0.0.1:{port}",),
                authkey_file=keyfile,
                chaos=chaos,
                fault_policy=FaultPolicy(backoff_base_s=0.01),
            )
            with serve(host_plan, cfg) as session:
                outputs = session.run_batch(batches, timeout=RESULT_TIMEOUT)
                stats = session.stats()
            ts = stats["transport_stats"]
            assert ts["remote_hosts"] == 1
            assert ts["sessions_opened"] >= 2  # the scripted drop + redial
            assert ts["plan_uploads"] == 1  # reconnect never re-uploads
            _assert_batches_equal(outputs, reference)
            assert proc.poll() is None  # the host process survived it all
        finally:
            if proc.poll() is None:
                proc.terminate()
            proc.wait(timeout=30)

    def test_sigterm_drains_in_flight_batch(self, tmp_path, rctx, host_plan):
        keyfile, _ = _write_key(tmp_path)
        proc, port = self._spawn_cli_host(tmp_path, keyfile)
        try:
            batches = _batches(rctx, 2, seed=22)
            reference = host_plan.run_batch(batches)
            cfg = ServingConfig(
                num_workers=2,
                transport="tcp",
                hosts=(f"tcp://127.0.0.1:{port}",),
                authkey_file=keyfile,
                chaos=FaultPlan(0, slow_rate=1.0, slow_s=0.5),
            )
            with serve(host_plan, cfg) as session:
                futures = [session.submit(b) for b in batches]
                time.sleep(0.2)  # both requests in flight inside the host
                proc.send_signal(signal.SIGTERM)
                # Drain: the in-flight replies are relayed before exit —
                # nothing is lost, nothing retried.
                outputs = [f.result(timeout=RESULT_TIMEOUT) for f in futures]
            _assert_batches_equal(outputs, reference)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

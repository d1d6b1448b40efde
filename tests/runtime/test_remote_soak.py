"""Nightly soak: remote-host kill/reattach under the seeded chaos matrix.

Ten rounds against a genuinely remote (CLI-spawned, no fork
relationship) worker host.  Each round serves a batch under seeded
chaos — worker crashes, duplicated replies, slow replies —
and on alternating rounds the host process is SIGKILLed mid-batch and
restarted on the same address by a supervisor thread, exercising the
dial → requeue → reattach path end to end.  The invariant is the
fabric's contract: zero lost results, zero duplicated results, and
bit-identical outputs every round.

Marked ``slow``: runs in the nightly CI job (``pytest -m slow``), not
tier-1.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.runtime import (
    CtSpec,
    FaultPlan,
    FaultPolicy,
    ServingConfig,
    compile_fn,
    serve,
)

pytestmark = pytest.mark.slow

RESULT_TIMEOUT = 180.0
ROUNDS = 10


@pytest.fixture(scope="module")
def soak_plan(rctx, gks, rlk):
    def program(ev, x, y):
        rot = ev.rotate(x, 1, gks)
        return (ev.multiply_relin_rescale(ev.add(rot, y), y, rlk), ev.multiply(x, y))

    spec = CtSpec(level=rctx.params.num_primes, scale=rctx.params.scale)
    return compile_fn(program, rctx.evaluator, [spec, spec])


def _batches(rctx, n, seed):
    rng = np.random.default_rng(seed)
    return [
        [
            rctx.encrypt(rng.uniform(-1, 1, rctx.params.slots)),
            rctx.encrypt(rng.uniform(-1, 1, rctx.params.slots)),
        ]
        for _ in range(n)
    ]


def _assert_batches_equal(got, want, what=""):
    assert len(got) == len(want), what
    for i, (g, w) in enumerate(zip(got, want)):
        for j, (a, b) in enumerate(zip(g, w)):
            assert a.scale == b.scale, f"{what} entry {i} output {j} scale"
            for pa, pb in zip(a.parts, b.parts):
                assert np.array_equal(pa.data, pb.data), (
                    f"{what} entry {i} output {j} differs"
                )


class _HostSupervisor:
    """Runs the worker-host CLI on a fixed address and restarts it
    whenever it dies, so a killed host 'comes back' the way a
    supervised fleet host would."""

    def __init__(self, tmp_path):
        self.keyfile = str(tmp_path / "authkey")
        with open(self.keyfile, "wb") as fh:
            fh.write(os.urandom(32))
        self._portfile = tmp_path / "port"
        self._lock = threading.Lock()
        self._stop = False
        self.proc = None
        self.restarts = 0
        root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        self._env = dict(os.environ)
        self._env["PYTHONPATH"] = (
            os.path.join(root, "src") + os.pathsep + self._env.get("PYTHONPATH", "")
        )
        # First launch on an ephemeral port; restarts re-bind the same
        # port so the coordinator's host spec stays valid.
        self.port = self._launch(0)

    def _launch(self, port: int) -> int:
        try:
            self._portfile.unlink()
        except FileNotFoundError:
            pass
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.runtime.worker_host",
                "--bind",
                f"127.0.0.1:{port}",
                "--authkey-file",
                self.keyfile,
                "--port-file",
                str(self._portfile),
            ],
            env=self._env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 60
        while not self._portfile.exists():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise AssertionError("soak worker host failed to come up")
            time.sleep(0.05)
        return int(self._portfile.read_text().strip())

    def kill(self) -> None:
        with self._lock:
            if self.proc is not None and self.proc.poll() is None:
                self.proc.send_signal(signal.SIGKILL)
                self.proc.wait(timeout=30)

    def ensure_up(self) -> None:
        with self._lock:
            if self._stop or (self.proc is not None and self.proc.poll() is None):
                return
            # The port just freed (the old process is reaped), so
            # re-binding the same address is reliable on loopback.
            self._launch(self.port)
            self.restarts += 1

    def close(self) -> None:
        with self._lock:
            self._stop = True
            if self.proc is not None and self.proc.poll() is None:
                self.proc.terminate()
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait(timeout=10)


@pytest.mark.slow
def test_ten_round_kill_reattach_soak(tmp_path, rctx, soak_plan):
    supervisor = _HostSupervisor(tmp_path)
    watcher_stop = threading.Event()

    def watcher():
        while not watcher_stop.wait(0.25):
            supervisor.ensure_up()

    watcher_thread = threading.Thread(target=watcher, daemon=True)
    watcher_thread.start()
    try:
        for round_no in range(ROUNDS):
            batches = _batches(rctx, 6, seed=100 + round_no)
            reference = soak_plan.run_batch(batches)
            chaos = FaultPlan(
                1000 + round_no,
                crash_rate=0.05,
                slow_rate=0.95,
                slow_s=0.05,
                duplicate_rate=0.15,
                slow_host_rate=0.2,
                slow_host_s=0.01,
            )
            cfg = ServingConfig(
                num_workers=2,
                transport="tcp",
                hosts=(f"tcp://127.0.0.1:{supervisor.port}",),
                authkey_file=supervisor.keyfile,
                chaos=chaos,
                fault_policy=FaultPolicy(
                    backoff_base_s=0.05,
                    max_attempts=10,
                    crash_loop_threshold=64,
                ),
                max_crash_respawns=256,
            )
            with serve(soak_plan, cfg) as session:
                futures = [session.submit(b) for b in batches]
                if round_no % 2 == 0:
                    time.sleep(0.3)  # some requests in flight
                    supervisor.kill()  # the watcher brings it back
                outputs = [f.result(timeout=RESULT_TIMEOUT) for f in futures]
                stats = session.stats()
            # Zero lost, zero duplicated, bit-identical.
            assert stats["completed"] == len(batches), f"round {round_no}"
            assert stats["errors"] == 0, f"round {round_no}"
            _assert_batches_equal(outputs, reference, f"round {round_no}")
        assert supervisor.restarts >= ROUNDS // 2 - 1
    finally:
        watcher_stop.set()
        watcher_thread.join(timeout=10)
        supervisor.close()

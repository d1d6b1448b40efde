"""ShardedExecutor: bit-identity with the single-process batched
executor, deterministic ordering, worker-crash recovery, error
propagation, and a close() that is final."""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import time

import numpy as np
import pytest

from repro.runtime import (
    CtSpec,
    FaultPlan,
    FaultPolicy,
    PoisonRequest,
    PtSpec,
    ServingConfig,
    ShardedExecutor,
    WorkerError,
    compile_fn,
)

RESULT_TIMEOUT = 120.0


def _spec(rctx):
    return CtSpec(level=rctx.params.num_primes, scale=rctx.params.scale)


def _assert_ct_equal(a, b, what=""):
    assert a.scale == b.scale, f"{what}: scale {a.scale} != {b.scale}"
    assert a.size == b.size, what
    for i, (pa, pb) in enumerate(zip(a.parts, b.parts)):
        assert np.array_equal(pa.data, pb.data), f"{what} part {i} differs"


def _assert_outputs_equal(got, want, what=""):
    assert len(got) == len(want), what
    for i, (g, w) in enumerate(zip(got, want)):
        _assert_ct_equal(g, w, f"{what} output {i}")


@pytest.fixture(scope="module")
def serving_plan(rctx, gks, rlk):
    """Rotate / multiply / relinearize / rescale — and one raw 3-part
    tensor output, so the boundary moves both ciphertext shapes and a
    non-power-of-two rescaled scale."""

    def program(ev, x, y):
        rot = ev.rotate(x, 1, gks)
        prod = ev.multiply_relin_rescale(ev.add(rot, y), y, rlk)
        raw = ev.multiply(x, y)  # 3 parts, scale Δ²
        return prod, raw

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


class TestShardedBitIdentity:
    def test_matches_single_process_run_batch(self, rctx, serving_plan):
        batches = _batches(rctx, 5)
        reference = serving_plan.run_batch(batches)
        with ShardedExecutor(
            serving_plan,
            config=ServingConfig(num_workers=2),
            warm_inputs=batches[0],
        ) as pool:
            sharded = pool.run_batch(batches, timeout=RESULT_TIMEOUT)
        for i, (got, want) in enumerate(zip(sharded, reference)):
            _assert_outputs_equal(got, want, f"entry {i}")

    def test_ordering_is_deterministic_across_workers(self, rctx, serving_plan):
        # More workers than a single entry needs: completion order is up
        # to the scheduler, result order must stay submission order.
        batches = _batches(rctx, 6, seed=10)
        reference = serving_plan.run_batch(batches)
        with ShardedExecutor(
            serving_plan, config=ServingConfig(num_workers=3)
        ) as pool:
            sharded = pool.run_batch(batches, timeout=RESULT_TIMEOUT)
        for i, (got, want) in enumerate(zip(sharded, reference)):
            _assert_outputs_equal(got, want, f"entry {i}")

    def test_plaintext_inputs_cross_the_boundary(self, rctx):
        def program(ev, x, p):
            return (ev.multiply_plain(x, p),)

        plan = compile_fn(
            program,
            rctx.evaluator,
            [
                _spec(rctx),
                PtSpec(level=rctx.params.num_primes, scale=rctx.params.scale),
            ],
        )
        rng = np.random.default_rng(11)
        entries = [
            [
                rctx.encrypt(rng.uniform(-1, 1, rctx.params.slots)),
                rctx.encode(rng.uniform(-1, 1, rctx.params.slots)),
            ]
            for _ in range(3)
        ]
        reference = plan.run_batch(entries)
        with ShardedExecutor(plan, config=ServingConfig(num_workers=2)) as pool:
            sharded = pool.run_batch(entries, timeout=RESULT_TIMEOUT)
        for got, want in zip(sharded, reference):
            _assert_outputs_equal(got, want, "plaintext-input entry")


class TestCrashRecovery:
    def test_killed_worker_is_respawned_and_no_request_lost(
        self, rctx, serving_plan
    ):
        batches = _batches(rctx, 6, seed=12)
        reference = serving_plan.run_batch(batches)
        with ShardedExecutor(
            serving_plan,
            config=ServingConfig(
                num_workers=2, chaos=FaultPlan(0, slow_rate=1.0, slow_s=0.3)
            ),
            warm_inputs=batches[0],
        ) as pool:
            futures = [pool.submit(entry) for entry in batches]
            time.sleep(0.05)  # let both workers take a request
            victim = pool.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            results = [f.result(timeout=RESULT_TIMEOUT) for f in futures]
            stats = pool.stats()
        for i, (got, want) in enumerate(zip(results, reference)):
            _assert_outputs_equal(got, want, f"post-crash entry {i}")
        assert stats["worker_crashes"] >= 1
        assert stats["respawns"] >= 1
        assert stats["completed"] == len(batches)

    def test_exhausted_crash_budget_fails_fast(self, rctx, serving_plan):
        batches = _batches(rctx, 4, seed=15)
        with ShardedExecutor(
            serving_plan,
            config=ServingConfig(
                num_workers=2,
                chaos=FaultPlan(0, slow_rate=1.0, slow_s=0.5),
                max_crash_respawns=0,
            ),
        ) as pool:
            futures = [pool.submit(entry) for entry in batches]
            time.sleep(0.05)
            for pid in pool.worker_pids():
                os.kill(pid, signal.SIGKILL)
            with pytest.raises(WorkerError, match="crash"):
                for fut in futures:
                    fut.result(timeout=RESULT_TIMEOUT)
            # The pool shut itself down; new submissions must fail fast
            # instead of queueing forever.
            with pytest.raises(RuntimeError, match="stopped"):
                pool.submit(batches[0])

    def test_sigstopped_worker_is_hang_killed_and_request_retried(
        self, rctx, serving_plan
    ):
        # A worker that is stopped (not dead) mid-request: no pipe EOF
        # ever arrives, so only heartbeat-based hang detection can save
        # the request.  The parent must SIGKILL + replace the worker and
        # retry, and the output must stay bit-identical.
        batches = _batches(rctx, 4, seed=16)
        reference = serving_plan.run_batch(batches)
        policy = FaultPolicy(hang_timeout_s=1.0, backoff_base_s=0.01)
        with ShardedExecutor(
            serving_plan,
            config=ServingConfig(
                num_workers=2,
                chaos=FaultPlan(0, slow_rate=1.0, slow_s=0.4),
                fault_policy=policy,
            ),
            warm_inputs=batches[0],
        ) as pool:
            futures = [pool.submit(entry) for entry in batches]
            time.sleep(0.1)  # let both workers take a request
            victim = pool.worker_pids()[0]
            os.kill(victim, signal.SIGSTOP)
            results = [f.result(timeout=RESULT_TIMEOUT) for f in futures]
            stats = pool.stats()
        for i, (got, want) in enumerate(zip(results, reference)):
            _assert_outputs_equal(got, want, f"post-hang entry {i}")
        assert stats["hang_kills"] >= 1
        assert stats["respawns"] >= 1
        assert stats["worker_crashes"] == 0  # stopped, never crashed
        assert stats["retries"] >= 1
        assert stats["completed"] == len(batches)
        # The stopped worker was SIGKILLed, not leaked.
        with pytest.raises(OSError):
            os.kill(victim, 0)

    def test_repeat_worker_killer_gets_typed_failure_queue_drains(
        self, rctx, serving_plan
    ):
        # Regression for the crash-loop starvation bug: the old engine
        # front-requeued a crashed request forever.  Submit first a
        # request that SIGKILLs its worker on every attempt (simulated by
        # killing whichever worker picks it up), then normal requests —
        # the poison one must fail typed, the rest must complete.
        batches = _batches(rctx, 3, seed=17)
        reference = serving_plan.run_batch(batches[1:])
        policy = FaultPolicy(max_attempts=2, backoff_base_s=0.01)
        with ShardedExecutor(
            serving_plan,
            config=ServingConfig(
                num_workers=1,
                chaos=FaultPlan(0, slow_rate=1.0, slow_s=0.6),
                fault_policy=policy,
                max_crash_respawns=10,
            ),
            warm_inputs=batches[0],
        ) as pool:
            poison = pool.submit(batches[0])
            for crashes_so_far in range(2):  # kill whoever serves it, twice
                deadline = time.monotonic() + 30
                # Wait for the (re)dispatch of the only queued request,
                # then strike inside its slow window.
                while (
                    pool.stats()["worker_crashes"] < crashes_so_far
                    or not pool.worker_pids()
                ):
                    assert time.monotonic() < deadline, "pool never respawned"
                    time.sleep(0.01)
                time.sleep(0.25)
                os.kill(pool.worker_pids()[0], signal.SIGKILL)
            with pytest.raises(PoisonRequest, match="quarantined"):
                poison.result(timeout=RESULT_TIMEOUT)
            # The queue drains: later requests are served bit-identically.
            results = pool.run_batch(batches[1:], timeout=RESULT_TIMEOUT)
            stats = pool.stats()
        for i, (got, want) in enumerate(zip(results, reference)):
            _assert_outputs_equal(got, want, f"post-poison entry {i}")
        assert stats["poisoned"] == 1
        assert stats["completed"] == len(batches) - 1

    def test_bad_input_fails_its_future_not_the_pool(self, rctx, serving_plan):
        good = _batches(rctx, 1, seed=13)[0]
        wrong_level = [rctx.evaluator.rescale(good[0], times=1), good[1]]
        with ShardedExecutor(
            serving_plan, config=ServingConfig(num_workers=2)
        ) as pool:
            bad_future = pool.submit(wrong_level)
            with pytest.raises(WorkerError, match="level"):
                bad_future.result(timeout=RESULT_TIMEOUT)
            # The worker that saw the bad request must still serve.
            results = pool.run_batch([good], timeout=RESULT_TIMEOUT)
            stats = pool.stats()
        _assert_outputs_equal(results[0], serving_plan.run_batch([good])[0])
        assert stats["errors"] == 1
        assert stats["worker_crashes"] == 0


class TestStartFailure:
    def test_failed_start_leaks_no_worker_transport_or_fd(
        self, serving_plan, monkeypatch
    ):
        """A spawn that raises part-way through ``start()`` takes down what
        the start already built: ``close()`` cannot, as nothing started."""
        transports, endpoints = [], []
        make_transport = ShardedExecutor._make_transport

        def second_spawn_raises(pool):
            transport = make_transport(pool)
            spawn = transport.spawn

            def flaky_spawn():
                if endpoints:
                    raise OSError("spawn refused")
                endpoints.append(spawn())
                return endpoints[-1]

            transport.spawn = flaky_spawn
            transports.append(transport)
            return transport

        monkeypatch.setattr(ShardedExecutor, "_make_transport", second_spawn_raises)
        pool = ShardedExecutor(serving_plan, config=ServingConfig(num_workers=2))
        mp.active_children()  # reap what earlier tests left to the collector
        fds = len(os.listdir("/proc/self/fd"))
        with pytest.raises(OSError, match="spawn refused"):
            pool.start()
        pool.close()  # still a no-op, and must not raise
        assert [e.proc.is_alive() for e in endpoints] == [False]
        assert [t._closed for t in transports] == [True]
        assert pool._transport is None
        endpoints.clear()  # the test's own handles hold the process's fds
        mp.active_children()
        assert len(os.listdir("/proc/self/fd")) == fds


class TestCloseIsFinal:
    @pytest.mark.parametrize("started", [True, False])
    def test_submit_after_close_raises_and_forks_nothing(
        self, rctx, serving_plan, started
    ):
        batches = _batches(rctx, 1, seed=15)
        pool = ShardedExecutor(serving_plan, config=ServingConfig(num_workers=1))
        if started:
            pool.run_batch(batches, timeout=RESULT_TIMEOUT)
        pool.close()
        mp.active_children()  # reap the retired worker
        children = set(mp.active_children())
        for call in (lambda: pool.submit(batches[0]), pool.start):
            with pytest.raises(RuntimeError, match="executor closed"):
                call()
        assert pool.worker_pids() == []
        assert set(mp.active_children()) == children
        pool.close()  # still idempotent


class TestSubmitValidation:
    def test_rejects_non_container_inputs(self, rctx, serving_plan):
        # The inputs are encoded on the caller's thread, before they queue.
        with ShardedExecutor(serving_plan, config=ServingConfig(num_workers=1)) as pool:
            with pytest.raises(TypeError, match="Ciphertext or Plaintext"):
                pool.submit([np.zeros(4), np.zeros(4)])

"""Fault tolerance: typed failure taxonomy, FLT1 wire frames, the
FaultPolicy engine (deadlines, hang detection, retry budget, quarantine,
the crash-loop breaker), and the deterministic chaos harness.

The seeded chaos matrix at the bottom is the acceptance test: under
injected crashes, stops, byte-flips, and slow replies, every surviving
request's output must be byte-identical to the fault-free run, with zero
requests lost and zero duplicated.
"""

from __future__ import annotations

import math
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from repro.ckks.serialization import WireFormatError, pack_frame, read_frame
from repro.runtime import (
    CtSpec,
    DeadlineExceeded,
    FaultAction,
    FaultPlan,
    FaultPolicy,
    PoisonRequest,
    RequestError,
    ServingConfig,
    ShardedExecutor,
    WireCorruption,
    WorkerCrash,
    WorkerError,
    WorkerHang,
    compile_fn,
)
from repro.runtime.wire import deserialize_fault, flip_frame_byte, serialize_fault

RESULT_TIMEOUT = 120.0


# ----------------------------------------------------------------------
# Taxonomy + FLT1 wire form
# ----------------------------------------------------------------------


class TestTaxonomy:
    def test_every_typed_failure_is_a_worker_error(self):
        for cls in (WorkerCrash, WorkerHang, DeadlineExceeded, WireCorruption,
                    PoisonRequest):
            assert issubclass(cls, RequestError)
            assert issubclass(cls, WorkerError)

    def test_codes_are_distinct(self):
        classes = (RequestError, WorkerCrash, WorkerHang, DeadlineExceeded,
                   WireCorruption, PoisonRequest)
        assert len({cls.code for cls in classes}) == len(classes)

    def test_retriable_flags(self):
        assert WorkerCrash.retriable
        assert WorkerHang.retriable
        assert WireCorruption.retriable
        assert not DeadlineExceeded.retriable
        assert not PoisonRequest.retriable
        assert not RequestError.retriable

    @pytest.mark.parametrize(
        "cls", [RequestError, WorkerCrash, WorkerHang, DeadlineExceeded,
                WireCorruption, PoisonRequest]
    )
    def test_fault_frame_round_trip(self, cls):
        exc = cls("it broke: details", request_id=7, attempts=2)
        back = deserialize_fault(serialize_fault(exc), request_id=7)
        assert type(back) is cls
        assert str(back) == "it broke: details"
        assert back.request_id == 7
        assert back.attempts == 2

    def test_unknown_code_degrades_to_request_error(self):
        blob = serialize_fault(WorkerCrash("x", attempts=1))
        tag, payload, _ = read_frame(blob, 0)
        mutated = bytearray(payload)
        mutated[0] = 200  # a code this parent has never heard of
        back = deserialize_fault(pack_frame(tag, bytes(mutated)))
        assert type(back) is RequestError

    def test_fault_frame_is_crc_guarded(self):
        blob = bytearray(serialize_fault(WorkerCrash("x")))
        blob[10] ^= 0xFF
        with pytest.raises(WireFormatError):
            deserialize_fault(bytes(blob))


class TestFaultPolicy:
    def test_backoff_is_deterministic_and_capped(self):
        policy = FaultPolicy(backoff_base_s=0.1, backoff_factor=2.0,
                             backoff_max_s=0.5, backoff_jitter=0.25, seed=3)
        first = [policy.backoff_s(k, request_id=9) for k in range(1, 6)]
        again = [policy.backoff_s(k, request_id=9) for k in range(1, 6)]
        assert first == again
        assert all(d <= 0.5 * 1.25 + 1e-12 for d in first)
        # Jitter differs across requests, base schedule still grows.
        other = [policy.backoff_s(k, request_id=10) for k in range(1, 6)]
        assert other != first
        no_jitter = FaultPolicy(backoff_base_s=0.1, backoff_factor=2.0,
                                backoff_max_s=10.0, backoff_jitter=0.0)
        assert [no_jitter.backoff_s(k, 0) for k in (1, 2, 3)] == [0.1, 0.2, 0.4]

    def test_heartbeat_interval_tracks_hang_timeout(self):
        assert FaultPolicy().heartbeat_interval_s() is None
        assert FaultPolicy(hang_timeout_s=1.0).heartbeat_interval_s() == 0.25
        assert FaultPolicy(hang_timeout_s=100.0).heartbeat_interval_s() == 1.0
        assert FaultPolicy(hang_timeout_s=0.01).heartbeat_interval_s() == 0.02

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            FaultPolicy(deadline_s=0.0)
        with pytest.raises(ValueError):
            FaultPolicy(hang_timeout_s=-1.0)
        with pytest.raises(ValueError):
            FaultPolicy(crash_loop_threshold=0)
        # NaN fails every comparison, so each check must state what a valid
        # value satisfies; infinity is no time budget either.
        for field in ("deadline_s", "hang_timeout_s"):
            for bad in (math.nan, math.inf):
                with pytest.raises(ValueError, match=field):
                    FaultPolicy(**{field: bad})
        for field in ("base_s", "factor", "max_s", "jitter"):
            for bad in (math.nan, math.inf, -1.0):
                with pytest.raises(ValueError, match="backoff"):
                    FaultPolicy(**{f"backoff_{field}": bad})
        # The machine compares counts with < and >=: a NaN threshold never
        # trips the breaker, an infinite budget retries forever.
        for field in ("max_attempts", "crash_loop_threshold"):
            for bad in (math.nan, math.inf, 2.5, 3.0, True):
                with pytest.raises(ValueError, match=field):
                    FaultPolicy(**{field: bad})


class TestFaultPlan:
    def test_decisions_are_deterministic(self):
        a = FaultPlan(5, crash_rate=0.3, slow_rate=0.3, reply_flip_rate=0.4)
        b = FaultPlan(5, crash_rate=0.3, slow_rate=0.3, reply_flip_rate=0.4)
        keys = [(site, req, att)
                for site in ("pre_evaluate", "reply_encode")
                for req in range(20) for att in range(3)]
        assert [a.decide(*k) for k in keys] == [b.decide(*k) for k in keys]

    def test_seeds_change_the_schedule(self):
        a = FaultPlan(1, crash_rate=0.5)
        b = FaultPlan(2, crash_rate=0.5)
        keys = [("pre_evaluate", req, 0) for req in range(40)]
        assert [a.decide(*k) for k in keys] != [b.decide(*k) for k in keys]

    def test_rates_hit_roughly_their_frequency(self):
        plan = FaultPlan(7, crash_rate=0.25)
        hits = sum(
            plan.decide("pre_evaluate", req, 0) is not None for req in range(400)
        )
        assert 60 <= hits <= 140  # 0.25 +/- generous slack on 400 draws

    def test_scripted_overrides_win(self):
        action = FaultAction("crash", "pre_evaluate")
        plan = FaultPlan(0, crash_rate=1.0,
                         scripted={("pre_evaluate", 3, 0): None,
                                   ("post_evaluate", 4, 1): action})
        assert plan.decide("pre_evaluate", 3, 0) is None  # pinned "no fault"
        assert plan.decide("post_evaluate", 4, 1) is action
        assert plan.decide("pre_evaluate", 5, 0).kind == "crash"

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(0, crash_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(0, crash_rate=0.6, stop_rate=0.6)
        with pytest.raises(ValueError):
            FaultPlan(0).decide("nowhere", 0, 0)

    def test_pickle_round_trip(self):
        import pickle

        plan = FaultPlan(9, crash_rate=0.2, slow_rate=0.1, slow_s=0.42,
                         scripted={("pre_evaluate", 0, 0): None})
        back = pickle.loads(pickle.dumps(plan))
        keys = [("pre_evaluate", req, att) for req in range(10) for att in range(2)]
        assert [back.decide(*k) for k in keys] == [plan.decide(*k) for k in keys]

    def test_flip_frame_byte_trips_the_crc(self):
        frame = pack_frame(b"ENV1", b"some payload bytes")
        for salt in range(8):
            flipped = flip_frame_byte(frame, FaultAction("flip", "reply_encode",
                                                         salt=salt))
            assert flipped != frame
            with pytest.raises(WireFormatError):
                read_frame(flipped, 0)


# ----------------------------------------------------------------------
# Policy engine on a live pool
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def fault_plan_program(rctx, gks, rlk):
    def program(ev, x, y):
        rot = ev.rotate(x, 1, gks)
        return (ev.multiply_relin_rescale(ev.add(rot, y), y, rlk),)

    spec = CtSpec(level=rctx.params.num_primes, scale=rctx.params.scale)
    return compile_fn(program, rctx.evaluator, [spec, spec])


def _batches(rctx, n, seed=77):
    rng = np.random.default_rng(seed)
    return [
        [
            rctx.encrypt(rng.uniform(-1, 1, rctx.params.slots)),
            rctx.encrypt(rng.uniform(-1, 1, rctx.params.slots)),
        ]
        for _ in range(n)
    ]


def _assert_outputs_equal(got, want, what=""):
    assert len(got) == len(want), what
    for i, (g, w) in enumerate(zip(got, want)):
        assert g.scale == w.scale, f"{what} output {i}"
        assert g.size == w.size, f"{what} output {i}"
        for j, (pg, pw) in enumerate(zip(g.parts, w.parts)):
            assert np.array_equal(pg.data, pw.data), f"{what} output {i} part {j}"


def _crash_attempts(req_id, attempts):
    return {("pre_evaluate", req_id, a): FaultAction("crash", "pre_evaluate")
            for a in range(attempts)}


class TestRetryBudget:
    def test_crash_is_retried_transparently(self, rctx, fault_plan_program):
        batches = _batches(rctx, 2)
        reference = fault_plan_program.run_batch(batches)
        chaos = FaultPlan(0, scripted=_crash_attempts(0, 1))
        with ShardedExecutor(
            fault_plan_program,
            config=ServingConfig(num_workers=2, chaos=chaos),
            warm_inputs=batches[0],
        ) as pool:
            futures = [pool.submit(b) for b in batches]
            results = [f.result(timeout=RESULT_TIMEOUT) for f in futures]
            stats = pool.stats()
            assert futures[0].attempts == 2
            assert futures[1].attempts == 1
        _assert_outputs_equal(results[0], reference[0], "retried request")
        _assert_outputs_equal(results[1], reference[1], "untouched request")
        # One injected crash costs exactly one respawn and one retry.
        assert stats["worker_crashes"] == 1
        assert stats["respawns"] == 1
        assert stats["retries"] == 1
        assert stats["completed"] == 2

    def test_poison_request_is_quarantined_not_starving(
        self, rctx, fault_plan_program
    ):
        # Regression for the crash-loop bug: a request that kills its
        # worker on every attempt must fail *itself* with a typed error
        # while later requests still complete.
        batches = _batches(rctx, 3, seed=78)
        reference = fault_plan_program.run_batch(batches[1:])
        chaos = FaultPlan(0, scripted=_crash_attempts(0, 2))
        policy = FaultPolicy(max_attempts=2, backoff_base_s=0.01)
        with ShardedExecutor(
            fault_plan_program,
            config=ServingConfig(
                num_workers=2,
                chaos=chaos,
                fault_policy=policy,
                max_crash_respawns=10,
            ),
            warm_inputs=batches[0],
        ) as pool:
            poison = pool.submit(batches[0])
            rest = [pool.submit(b) for b in batches[1:]]
            with pytest.raises(PoisonRequest) as info:
                poison.result(timeout=RESULT_TIMEOUT)
            results = [f.result(timeout=RESULT_TIMEOUT) for f in rest]
            stats = pool.stats()
        assert info.value.attempts == 2
        assert len(info.value.causes) == 2
        assert all("crash" in c for c in info.value.causes)
        for got, want in zip(results, reference):
            _assert_outputs_equal(got, want, "request after poison")
        assert stats["poisoned"] == 1
        assert stats["completed"] == 2
        assert stats["errors"] == 1

    def test_crash_after_compute_stays_exactly_once(
        self, rctx, fault_plan_program
    ):
        # Work lost *after* evaluation but before the reply: the retry
        # re-executes and the caller still sees exactly one result.
        batches = _batches(rctx, 1, seed=79)
        reference = fault_plan_program.run_batch(batches)
        chaos = FaultPlan(
            0, scripted={("post_evaluate", 0, 0): FaultAction("crash",
                                                              "post_evaluate")}
        )
        with ShardedExecutor(
            fault_plan_program,
            config=ServingConfig(num_workers=1, chaos=chaos),
            warm_inputs=batches[0],
        ) as pool:
            fut = pool.submit(batches[0])
            result = fut.result(timeout=RESULT_TIMEOUT)
            stats = pool.stats()
        _assert_outputs_equal(result, reference[0], "post-compute crash")
        assert stats["completed"] == 1
        assert stats["worker_crashes"] == 1


class TestWireCorruption:
    def test_reply_flip_is_detected_and_retried(self, rctx, fault_plan_program):
        batches = _batches(rctx, 1, seed=80)
        reference = fault_plan_program.run_batch(batches)
        chaos = FaultPlan(
            0, scripted={("reply_encode", 0, 0): FaultAction("flip",
                                                             "reply_encode",
                                                             salt=5)}
        )
        with ShardedExecutor(
            fault_plan_program,
            config=ServingConfig(num_workers=1, chaos=chaos),
            warm_inputs=batches[0],
        ) as pool:
            result = pool.submit(batches[0]).result(timeout=RESULT_TIMEOUT)
            stats = pool.stats()
        _assert_outputs_equal(result, reference[0], "reply flip")
        assert stats["wire_corruptions"] == 1
        assert stats["retries"] == 1
        assert stats["worker_crashes"] == 0  # corruption never kills a worker

    def test_request_flip_is_detected_worker_side(self, rctx, fault_plan_program):
        batches = _batches(rctx, 1, seed=81)
        reference = fault_plan_program.run_batch(batches)
        chaos = FaultPlan(
            0, scripted={("pre_dispatch", 0, 0): FaultAction("flip",
                                                             "pre_dispatch",
                                                             salt=11)}
        )
        with ShardedExecutor(
            fault_plan_program,
            config=ServingConfig(num_workers=1, chaos=chaos),
            warm_inputs=batches[0],
        ) as pool:
            result = pool.submit(batches[0]).result(timeout=RESULT_TIMEOUT)
            stats = pool.stats()
        _assert_outputs_equal(result, reference[0], "request flip")
        assert stats["wire_corruptions"] == 1
        assert stats["worker_crashes"] == 0


class TestHangsAndDeadlines:
    def test_stopped_worker_is_declared_hung_and_replaced(
        self, rctx, fault_plan_program
    ):
        batches = _batches(rctx, 1, seed=82)
        reference = fault_plan_program.run_batch(batches)
        chaos = FaultPlan(
            0, scripted={("pre_evaluate", 0, 0): FaultAction("stop",
                                                             "pre_evaluate")}
        )
        policy = FaultPolicy(hang_timeout_s=0.8, backoff_base_s=0.01)
        with ShardedExecutor(
            fault_plan_program,
            config=ServingConfig(num_workers=1, chaos=chaos, fault_policy=policy),
            warm_inputs=batches[0],
        ) as pool:
            fut = pool.submit(batches[0])
            result = fut.result(timeout=RESULT_TIMEOUT)
            stats = pool.stats()
            assert fut.attempts == 2
        _assert_outputs_equal(result, reference[0], "post-hang retry")
        assert stats["hang_kills"] == 1
        assert stats["respawns"] == 1
        assert stats["worker_crashes"] == 0  # hangs are not crashes
        assert stats["completed"] == 1

    def test_slow_worker_is_not_hung(self, rctx, fault_plan_program):
        batches = _batches(rctx, 1, seed=83)
        reference = fault_plan_program.run_batch(batches)
        chaos = FaultPlan(
            0, scripted={("pre_evaluate", 0, 0): FaultAction("slow",
                                                             "pre_evaluate",
                                                             duration_s=1.0)}
        )
        # Timeout shorter than the injected slowness: only heartbeats
        # tell the parent this worker is alive and making progress.
        policy = FaultPolicy(hang_timeout_s=0.5)
        with ShardedExecutor(
            fault_plan_program,
            config=ServingConfig(num_workers=1, chaos=chaos, fault_policy=policy),
            warm_inputs=batches[0],
        ) as pool:
            result = pool.submit(batches[0]).result(timeout=RESULT_TIMEOUT)
            stats = pool.stats()
        _assert_outputs_equal(result, reference[0], "slow request")
        assert stats["hang_kills"] == 0
        assert stats["retries"] == 0

    def test_deadline_fails_in_flight_request_typed(
        self, rctx, fault_plan_program
    ):
        batches = _batches(rctx, 2, seed=84)
        reference = fault_plan_program.run_batch(batches[1:])
        chaos = FaultPlan(
            0, scripted={("pre_evaluate", 0, 0): FaultAction("hang",
                                                             "pre_evaluate",
                                                             duration_s=30.0)}
        )
        with ShardedExecutor(
            fault_plan_program,
            config=ServingConfig(num_workers=1, chaos=chaos),
            warm_inputs=batches[0],
        ) as pool:
            doomed = pool.submit(batches[0], deadline_s=0.5)
            follow = pool.submit(batches[1])
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=RESULT_TIMEOUT)
            result = follow.result(timeout=RESULT_TIMEOUT)
            stats = pool.stats()
        _assert_outputs_equal(result, reference[0], "request after deadline")
        assert stats["deadline_failures"] == 1
        assert stats["worker_crashes"] == 0  # deadline kills are not crashes
        assert stats["completed"] == 1

    def test_deadline_covers_queue_wait(self, rctx, fault_plan_program):
        # One worker, head-of-line blocked by a slow request: the queued
        # request's deadline fires without it ever being dispatched.
        batches = _batches(rctx, 2, seed=85)
        chaos = FaultPlan(
            0, scripted={("pre_evaluate", 0, 0): FaultAction("slow",
                                                             "pre_evaluate",
                                                             duration_s=1.5)}
        )
        with ShardedExecutor(
            fault_plan_program,
            config=ServingConfig(num_workers=1, chaos=chaos),
            warm_inputs=batches[0],
        ) as pool:
            slow = pool.submit(batches[0])
            queued = pool.submit(batches[1], deadline_s=0.3)
            with pytest.raises(DeadlineExceeded) as info:
                queued.result(timeout=RESULT_TIMEOUT)
            slow.result(timeout=RESULT_TIMEOUT)  # the slow one still lands
            stats = pool.stats()
        assert info.value.attempts == 0  # never dispatched
        assert stats["deadline_failures"] == 1
        assert stats["completed"] == 1

    def test_submit_refuses_a_deadline_the_policy_would(self, rctx, fault_plan_program):
        batches = _batches(rctx, 1, seed=89)
        pool = ShardedExecutor(fault_plan_program, config=ServingConfig(num_workers=1))
        for bad in (math.nan, math.inf, 0.0):
            with pytest.raises(ValueError, match="deadline_s"):
                pool.submit(batches[0], deadline_s=bad)
        assert pool.worker_pids() == []  # refused before anything forked
        pool.close()


class TestCrashLoopBreaker:
    def test_crash_loop_stops_the_pool(self, rctx, fault_plan_program):
        batches = _batches(rctx, 2, seed=87)
        chaos = FaultPlan(0, crash_rate=1.0)
        policy = FaultPolicy(max_attempts=20, crash_loop_threshold=2,
                             backoff_base_s=0.01)
        with ShardedExecutor(
            fault_plan_program,
            config=ServingConfig(
                num_workers=2,
                chaos=chaos,
                fault_policy=policy,
                max_crash_respawns=50,
            ),
            warm_inputs=batches[0],
        ) as pool:
            futures = [pool.submit(b) for b in batches]
            with pytest.raises(WorkerCrash, match="crash loop"):
                for fut in futures:
                    fut.result(timeout=RESULT_TIMEOUT)
            with pytest.raises(RuntimeError, match="stopped"):
                pool.submit(batches[0])


class TestBatchTimeoutAndClose:
    def test_run_batch_timeout_cancels_and_pool_is_reusable(
        self, rctx, fault_plan_program
    ):
        batches = _batches(rctx, 4, seed=88)
        reference = fault_plan_program.run_batch(batches)
        chaos = FaultPlan(
            0,
            scripted={
                ("pre_evaluate", req, 0): FaultAction(
                    "slow", "pre_evaluate", duration_s=0.6
                )
                for req in range(4)
            },
        )
        with ShardedExecutor(
            fault_plan_program,
            config=ServingConfig(num_workers=1, chaos=chaos),
            warm_inputs=batches[0],
        ) as pool:
            with pytest.raises(TimeoutError, match="remains serviceable"):
                pool.run_batch(batches, timeout=0.3)
            stats_after_timeout = pool.stats()
            # ``pending`` is the I/O thread's to publish: give it a moment.
            settled = time.monotonic() + RESULT_TIMEOUT
            while pool.stats()["pending"] and time.monotonic() < settled:
                time.sleep(0.01)
            pending_after_timeout = pool.stats()["pending"]
            # Same pool, fresh batch (request ids beyond the scripted
            # faults): everything completes and matches bit-for-bit.
            results = pool.run_batch(batches, timeout=RESULT_TIMEOUT)
            stats = pool.stats()
        assert stats_after_timeout["cancelled"] >= 1
        # Cancelled requests leave the queue when the cancel is read, not
        # when a worker frees up: nothing is pending behind the one slow
        # request still draining on the worker.
        assert pending_after_timeout == 0
        for got, want in zip(results, reference):
            _assert_outputs_equal(got, want, "post-timeout batch")
        assert stats["completed"] >= len(batches)

    def test_concurrent_submits_and_cancels_each_get_their_one_answer(
        self, rctx, fault_plan_program
    ):
        """Submitters and cancellers only post to the I/O thread's mailbox.
        Interleaved mid-call (more threads than cores, a 10 us switch
        interval), every future still gets its own answer or its own
        cancellation, no id is shared, and the counters add up."""
        clients, rounds = 3, 8
        batches = _batches(rctx, clients, seed=91)
        reference = fault_plan_program.run_batch(batches)
        futures: dict[int, list] = {}
        with ShardedExecutor(
            fault_plan_program,
            config=ServingConfig(num_workers=2),
            warm_inputs=batches[0],
        ) as pool:

            def client(i):
                mine = futures.setdefault(i, [])
                for k in range(rounds):
                    mine.append(pool.submit(batches[i]))
                    if k % clients == i:
                        pool.cancel(mine[-1])

            threads = [
                threading.Thread(target=client, args=(i,), daemon=True)
                for i in range(clients)
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=RESULT_TIMEOUT)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            for i, mine in futures.items():
                for fut in mine:
                    if not fut.cancelled():
                        got = fut.result(timeout=RESULT_TIMEOUT)
                        _assert_outputs_equal(got, reference[i], f"client {i}")
            stats = pool.stats()
        everyone = [fut for mine in futures.values() for fut in mine]
        assert sorted(f.request_id for f in everyone) == list(range(clients * rounds))
        cancelled = sum(f.cancelled() for f in everyone)
        assert cancelled >= 1
        assert stats["submitted"] == clients * rounds
        assert stats["cancelled"] == cancelled
        # (a reply can land between a cancel() and the I/O thread reading it)
        assert clients * rounds - cancelled <= stats["completed"] <= clients * rounds

    def test_close_is_idempotent_and_loud_on_stuck_workers(
        self, rctx, fault_plan_program
    ):
        batches = _batches(rctx, 1, seed=89)
        pool = ShardedExecutor(
            fault_plan_program,
            config=ServingConfig(num_workers=2),
            warm_inputs=batches[0],
        )
        pool.start()
        pids = pool.worker_pids()
        os.kill(pids[0], signal.SIGSTOP)  # ignores the shutdown sentinel
        with pytest.warns(RuntimeWarning, match=rf"SIGKILL.*{pids[0]}"):
            pool.close()
        pool.close()  # second close must be a silent no-op
        for pid in pids:
            # Every worker is gone — none leaked.
            with pytest.raises(OSError):
                os.kill(pid, 0)


# ----------------------------------------------------------------------
# Seeded chaos matrix (acceptance)
# ----------------------------------------------------------------------


class TestChaosMatrix:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_surviving_outputs_are_bit_identical_under_chaos(
        self, rctx, fault_plan_program, seed
    ):
        batches = _batches(rctx, 8, seed=100 + seed)
        reference = fault_plan_program.run_batch(batches)
        chaos = FaultPlan(
            seed,
            crash_rate=0.12,
            stop_rate=0.08,
            slow_rate=0.15,
            crash_after_rate=0.08,
            request_flip_rate=0.10,
            reply_flip_rate=0.10,
            slow_s=0.05,
        )
        policy = FaultPolicy(hang_timeout_s=1.0, max_attempts=8,
                             backoff_base_s=0.01, backoff_max_s=0.1)
        with ShardedExecutor(
            fault_plan_program,
            config=ServingConfig(
                num_workers=2,
                chaos=chaos,
                fault_policy=policy,
                max_crash_respawns=100,
            ),
            warm_inputs=batches[0],
        ) as pool:
            results = pool.run_batch(batches, timeout=RESULT_TIMEOUT)
            stats = pool.stats()
        # Zero lost, zero duplicated: exactly one result per request, in
        # submission order, byte-identical to the fault-free replay.
        assert len(results) == len(batches)
        assert stats["completed"] == len(batches)
        assert stats["errors"] == 0
        for i, (got, want) in enumerate(zip(results, reference)):
            _assert_outputs_equal(got, want, f"chaos seed {seed} entry {i}")

    def test_chaos_schedule_is_identical_across_runs(self):
        plans = [
            FaultPlan(4, crash_rate=0.2, stop_rate=0.1, slow_rate=0.2,
                      request_flip_rate=0.1, reply_flip_rate=0.1)
            for _ in range(2)
        ]
        keys = [(site, req, att)
                for site in ("pre_dispatch", "pre_evaluate", "post_evaluate",
                             "reply_encode")
                for req in range(30) for att in range(4)]
        assert [plans[0].decide(*k) for k in keys] == [
            plans[1].decide(*k) for k in keys
        ]

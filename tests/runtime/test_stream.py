"""StreamingServer: backpressure bounds, phase overlap, ordered results,
latency/queue-depth statistics, typed failure outcomes, deadline
plumbing, and the dual-RSC scheduler comparison."""

from __future__ import annotations

import asyncio
from concurrent.futures import Future

import numpy as np
import pytest

from repro.runtime import (
    CtSpec,
    FaultAction,
    FaultPlan,
    FaultPolicy,
    PoisonRequest,
    ServingConfig,
    ShardedExecutor,
    StreamingServer,
    compile_fn,
)


class StubExecutor:
    """Hand-resolvable pool: lets tests control completion order/timing."""

    plan = None

    def __init__(self):
        self.submissions: list[tuple[list, Future]] = []

    def start(self):
        return self

    def close(self):
        pass

    def stats(self):
        return {"inline": True}

    def submit(self, inputs, *, deadline_s=None, trace=None) -> Future:
        fut: Future = Future()
        self.submissions.append((inputs, fut))
        return fut


class DeadlineRecordingStub(StubExecutor):
    """Stub that records the per-request deadline kwarg."""

    def __init__(self):
        super().__init__()
        self.deadlines: list[float | None] = []

    def submit(self, inputs, *, deadline_s=None, trace=None) -> Future:
        self.deadlines.append(deadline_s)
        return super().submit(inputs)


@pytest.fixture(scope="module")
def square_plan(rctx, rlk):
    def program(ev, x):
        return (ev.multiply_relin_rescale(x, x, rlk),)

    return compile_fn(
        program,
        rctx.evaluator,
        [CtSpec(level=rctx.params.num_primes, scale=rctx.params.scale)],
    )


class TestBackpressure:
    def test_admission_is_bounded_by_max_pending(self):
        async def scenario():
            stub = StubExecutor()
            async with StreamingServer(
                stub, config=ServingConfig(max_pending=2)
            ) as server:
                tasks = [
                    asyncio.create_task(server.submit([i])) for i in range(5)
                ]
                await asyncio.sleep(0.02)
                # Only two requests may be inside the engine; the other
                # three producers are blocked on admission.
                assert len(stub.submissions) == 2
                stub.submissions[0][1].set_result(["r0"])
                await asyncio.sleep(0.02)
                assert len(stub.submissions) == 3  # one slot freed, one admitted
                while not all(t.done() for t in tasks):
                    for _, fut in stub.submissions:
                        if not fut.done():
                            fut.set_result(["r"])
                    await asyncio.sleep(0.01)
                results = await asyncio.gather(*tasks)
                stats = server.stats()
            assert len(results) == 5
            assert stats["max_queue_depth"] <= 2
            assert stats["completed"] == 5
            return True

        assert asyncio.run(scenario())

    def test_submit_outside_context_raises(self):
        server = StreamingServer(StubExecutor(), config=ServingConfig(max_pending=2))
        with pytest.raises(RuntimeError, match="async with"):
            asyncio.run(server.submit([0]))

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError, match="max_pending"):
            StreamingServer(StubExecutor(), config=ServingConfig(max_pending=0))


class TestStreamingPipeline:
    def test_results_ordered_and_correct_through_real_pool(self, rctx, square_plan):
        slots = rctx.params.slots
        payloads = [np.full(slots, 0.1 * (i + 1)) for i in range(5)]

        def encrypt(values):
            return [rctx.encrypt(values)]

        def decrypt(outputs):
            return rctx.decrypt_decode(outputs[0]).real

        async def scenario():
            pool = ShardedExecutor(
                square_plan,
                config=ServingConfig(
                    num_workers=2, chaos=FaultPlan(0, slow_rate=1.0, slow_s=0.01)
                ),
            )
            async with StreamingServer(
                pool, config=ServingConfig(max_pending=3)
            ) as server:
                results = await server.serve(
                    payloads, encrypt=encrypt, decrypt=decrypt
                )
                return results, server.stats(), server.records

        results, stats, records = asyncio.run(scenario())
        for i, (payload, result) in enumerate(zip(payloads, results)):
            assert np.max(np.abs(result - payload**2)) < 1e-4, f"request {i}"
        assert stats["completed"] == len(payloads)
        assert 0 < stats["max_queue_depth"] <= 3
        assert stats["time_to_first_result_s"] <= stats["makespan_s"]
        assert stats["throughput_rps"] > 0
        latency = stats["latency"]
        assert latency["count"] == len(payloads)
        assert 0 < latency["p50_s"] <= latency["p95_s"] <= latency["max_s"]
        for record in records:
            assert record.encrypt_s > 0
            assert record.service_s > 0
            assert record.total_s >= record.service_s

    def test_phase_overlap_beats_serial_sum(self, rctx, square_plan):
        """Streaming must finish faster than strictly serializing every
        request's slow time — i.e. the pool actually hides per-request
        latency behind other requests' phases."""
        slow_s = 0.06
        n = 6

        def encrypt(values):
            return [rctx.encrypt(values)]

        def decrypt(outputs):
            return rctx.decrypt_decode(outputs[0]).real

        async def scenario():
            pool = ShardedExecutor(
                square_plan,
                config=ServingConfig(
                    num_workers=2, chaos=FaultPlan(0, slow_rate=1.0, slow_s=slow_s)
                ),
            )
            async with StreamingServer(
                pool, config=ServingConfig(max_pending=4)
            ) as server:
                await server.serve(
                    [np.full(rctx.params.slots, 0.2)] * n,
                    encrypt=encrypt,
                    decrypt=decrypt,
                )
                return server.stats()

        stats = asyncio.run(scenario())
        assert stats["makespan_s"] < n * slow_s

    def test_deadline_is_plumbed_to_the_executor(self):
        async def scenario():
            stub = DeadlineRecordingStub()
            async with StreamingServer(
                stub, config=ServingConfig(max_pending=2)
            ) as server:
                tasks = [
                    asyncio.create_task(server.submit([0], deadline_s=1.5)),
                    asyncio.create_task(server.submit([1])),
                ]
                await asyncio.sleep(0.02)
                for _, fut in stub.submissions:
                    fut.set_result(["r"])
                await asyncio.gather(*tasks)
            return stub.deadlines

        assert sorted(asyncio.run(scenario()), key=str) == [1.5, None]

    def test_failed_requests_get_typed_records_and_stats(
        self, rctx, square_plan
    ):
        # Request 0 crashes its worker on every attempt and is
        # quarantined; the later requests complete.  The server must
        # surface the typed error, record the failure, and keep failed
        # requests out of the latency/throughput statistics.
        chaos = FaultPlan(
            0,
            scripted={
                ("pre_evaluate", 0, a): FaultAction("crash", "pre_evaluate")
                for a in range(2)
            },
        )
        policy = FaultPolicy(max_attempts=2, backoff_base_s=0.01)

        def encrypt(values):
            return [rctx.encrypt(values)]

        def decrypt(outputs):
            return rctx.decrypt_decode(outputs[0]).real

        payload = np.full(rctx.params.slots, 0.25)

        async def scenario():
            pool = ShardedExecutor(
                square_plan,
                config=ServingConfig(
                    num_workers=1,
                    chaos=chaos,
                    fault_policy=policy,
                    max_crash_respawns=10,
                ),
            )
            async with StreamingServer(
                pool, config=ServingConfig(max_pending=1)
            ) as server:
                with pytest.raises(PoisonRequest):
                    await server.serve_one(
                        payload, encrypt=encrypt, decrypt=decrypt
                    )
                results = await server.serve(
                    [payload] * 2, encrypt=encrypt, decrypt=decrypt
                )
                return results, server.stats(), server.records

        results, stats, records = asyncio.run(scenario())
        for result in results:
            assert np.max(np.abs(result - payload**2)) < 1e-4
        assert stats["completed"] == 2
        assert stats["failed"] == 1
        assert stats["failures_by_type"] == {"PoisonRequest": 1}
        assert stats["latency"]["count"] == 2  # failures excluded
        failed = [r for r in records if r.outcome == "failed"]
        assert len(failed) == 1
        assert failed[0].error == "PoisonRequest"
        assert failed[0].attempts == 2

    def test_retried_requests_are_counted_with_latency_contribution(
        self, rctx, square_plan
    ):
        chaos = FaultPlan(
            0,
            scripted={
                ("pre_evaluate", 0, 0): FaultAction("crash", "pre_evaluate")
            },
        )

        def encrypt(values):
            return [rctx.encrypt(values)]

        def decrypt(outputs):
            return rctx.decrypt_decode(outputs[0]).real

        payload = np.full(rctx.params.slots, 0.3)

        async def scenario():
            pool = ShardedExecutor(
                square_plan, config=ServingConfig(num_workers=1, chaos=chaos)
            )
            async with StreamingServer(
                pool, config=ServingConfig(max_pending=2)
            ) as server:
                results = await server.serve(
                    [payload] * 3, encrypt=encrypt, decrypt=decrypt
                )
                return results, server.stats(), server.records

        results, stats, records = asyncio.run(scenario())
        for result in results:
            assert np.max(np.abs(result - payload**2)) < 1e-4
        assert stats["completed"] == 3
        assert stats["failed"] == 0
        assert stats["retried"] == 1
        assert stats["retry_latency_s"] > 0
        retried = [r for r in records if r.attempts > 1]
        assert len(retried) == 1
        assert retried[0].retry_s > 0
        assert retried[0].outcome == "ok"

    def test_schedule_comparison_covers_all_policies(self, rctx, square_plan):
        async def scenario():
            pool = ShardedExecutor(square_plan, 0)
            async with StreamingServer(
                pool, config=ServingConfig(max_pending=2)
            ) as server:
                await server.submit(
                    [rctx.encrypt(np.zeros(rctx.params.slots))]
                )
                return server.schedule_comparison()

        comparison = asyncio.run(scenario())
        assert [r.policy for r in comparison] != []
        assert {r.policy for r in comparison} == {
            "static_split",
            "dual_batched",
            "dynamic",
        }
        makespans = [r.makespan_cycles for r in comparison]
        assert makespans == sorted(makespans)

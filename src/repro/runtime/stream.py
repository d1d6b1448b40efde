"""Streaming ingestion for the serving engine: async, bounded, measured.

:class:`StreamingServer` feeds a :class:`~repro.runtime.executor.ShardedExecutor`
from a bounded request queue instead of a materialized batch.  Admission
is a semaphore of ``max_pending`` slots covering a request's whole
lifetime, so producers feel backpressure the moment the engine is
saturated and memory stays bounded; each admitted request is dispatched
to the worker pool and awaited without blocking the event loop, which
lets the three phases of different requests overlap — request *k+1*
encrypts (on a dedicated phase thread, so client callables need not be
thread-safe) while request *k* evaluates in a worker process and
request *k-1* decrypts.

Every request is timed (queue wait, service, total) and the queue depth
is sampled at each admission and completion, so :meth:`stats` /
:meth:`latency_summary` quantify exactly what streaming buys over a
materialized ``run_batch``: time-to-first-result and per-request latency
drop while throughput stays pool-bound.  :meth:`schedule_comparison`
projects the same served queue onto the paper's dual-RSC scheduling
policies through the :mod:`repro.runtime.bridge` workload forms, putting
measured software serving and modeled accelerator scheduling side by
side.

Failure semantics ride through unchanged from the executor (see
``docs/architecture.md``): ``serve``/``serve_one``/``submit`` accept a
per-request ``deadline_s`` that is plumbed to
:meth:`ShardedExecutor.submit`, and a request that fails gets a
:class:`RequestRecord` with ``outcome="failed"`` and the typed error
name — the typed :class:`~repro.runtime.faults.RequestError` itself
propagates to the caller.  :meth:`stats` separates succeeded / retried /
failed requests and reports the retry latency contribution, and
:meth:`schedule_comparison` projects only *successful* service onto the
accelerator queue (failed requests contribute their encrypt leg via the
bridge's ``failures`` parameter), so scheduling numbers are never
flattered by requests that returned nothing.

Contract (see ``docs/architecture.md``): the server is parent-process
state only — records, depth samples, and the admission semaphore never
cross the worker boundary and are not fork-shared (the pool is started
*by* this class, after construction).  Everything a request sends to or
receives from a worker goes through the executor's serialization
boundary; this module never touches ciphertext bytes itself.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial

from repro.runtime.bridge import plan_schedule_comparison
from repro.runtime.faults import WorkerError
from repro.runtime.serving import ServingConfig
from repro.runtime.telemetry import get_telemetry
from repro.runtime.telemetry import now as _now

__all__ = ["RequestRecord", "StreamingServer"]


@dataclass
class RequestRecord:
    """Timings and outcome for one served request (times in seconds).

    Every duration is sourced from the telemetry monotonic clock
    (:func:`repro.runtime.telemetry.now`) — no ``time.time`` /
    ``perf_counter`` mixing — so records are directly comparable with
    executor- and worker-side span timestamps.
    """

    index: int
    wait_s: float = 0.0
    encrypt_s: float = 0.0
    service_s: float = 0.0
    decrypt_s: float = 0.0
    total_s: float = 0.0
    done_at_s: float = 0.0  # relative to server start
    outcome: str = "ok"  # "ok" | "failed"
    error: str | None = None  # taxonomy class name when failed
    error_code: int | None = None  # stable faults.py code when typed
    attempts: int = 1  # dispatch attempts the executor made
    retry_s: float = 0.0  # latency added by retries (first->last dispatch)
    trace_id: int = 0  # telemetry trace id (0 == untraced)

    def to_dict(self) -> dict:
        """JSON-ready form; typed errors ride as (name, stable code)."""
        return asdict(self)


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


class StreamingServer:
    """Bounded-queue streaming front end over a sharded worker pool.

    Attributes:
        executor: what serves the requests — anything with
            ``submit(inputs, *, deadline_s=None, trace=None) ->
            concurrent.futures.Future``, ``start()``, ``close()``,
            ``stats()`` and a ``plan`` (a :class:`ShardedExecutor`,
            inline or pooled; a hand-resolved stub in tests).
        max_pending: admission bound — at most this many requests are
            inside the engine (queued or in flight) at once; taken from
            ``config.max_pending`` (``None`` = :class:`ServingConfig`
            defaults).
    """

    def __init__(self, executor, *, config: ServingConfig | None = None) -> None:
        self.executor = executor
        self.max_pending = (config or ServingConfig()).max_pending
        self._sem: asyncio.Semaphore | None = None
        self._phase_pool: ThreadPoolExecutor | None = None
        self._depth = 0
        self._depth_samples: list[int] = []
        self._records: list[RequestRecord] = []
        self._started_at: float | None = None
        self._index = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def __aenter__(self) -> "StreamingServer":
        self.executor.start()
        self._sem = asyncio.Semaphore(self.max_pending)
        # CPU-side phases run on ONE dedicated thread: encrypt/decrypt
        # callables need not be thread-safe (Encryptor mutates XOF
        # state), and serializing them costs nothing — the overlap that
        # matters is against the worker pool, not between two encrypts.
        self._phase_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="stream-phase"
        )
        self._started_at = _now()
        return self

    async def __aexit__(self, *exc) -> None:
        self.executor.close()
        if self._phase_pool is not None:
            self._phase_pool.shutdown(wait=True)
            self._phase_pool = None
        self._sem = None

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    async def submit(self, inputs, *, deadline_s: float | None = None) -> list:
        """Admit one request (awaiting a slot under backpressure), serve
        it on the pool, and return its output ciphertexts."""
        return await self._serve_request(inputs, None, None, deadline_s)

    async def serve_one(self, payload, *, encrypt, decrypt, deadline_s=None):
        """Full client pipeline for one request: encrypt -> evaluate ->
        decrypt, with the CPU phases off the event loop so they overlap
        other requests' pool evaluation.  ``deadline_s`` bounds the
        request's time inside the *pool* (executor deadline semantics);
        a typed :class:`~repro.runtime.faults.DeadlineExceeded` reaches
        the caller when it fires."""
        return await self._serve_request(payload, encrypt, decrypt, deadline_s)

    async def serve(self, payloads, *, encrypt, decrypt, deadline_s=None) -> list:
        """Stream a sequence of request payloads through the pipeline,
        returning results in request order."""
        return list(
            await asyncio.gather(
                *(
                    self.serve_one(
                        p, encrypt=encrypt, decrypt=decrypt, deadline_s=deadline_s
                    )
                    for p in payloads
                )
            )
        )

    async def _serve_request(self, payload, encrypt, decrypt, deadline_s=None):
        """One request, entirely inside the admission bound: at most
        ``max_pending`` requests are in *any* phase at once, so memory
        stays O(max_pending) however long the payload stream is."""
        if self._sem is None:
            raise RuntimeError("use 'async with StreamingServer(...)'")
        loop = asyncio.get_running_loop()
        telemetry = get_telemetry()
        record = RequestRecord(self._next_index())
        # The trace is minted at streaming ingress; the executor parents
        # its queue/attempt/worker spans under our service span via the
        # ``trace=`` kwarg.
        root = telemetry.start_trace(
            "request", category="stream", index=record.index
        )
        record.trace_id = root.ctx.trace_id
        enqueue = _now()
        await self._sem.acquire()
        self._admit()
        record.wait_s = _now() - enqueue
        telemetry.record_span(
            "admission_wait", root.ctx, enqueue, enqueue + record.wait_s,
            category="stream",
        )
        try:
            if encrypt is None:
                inputs = payload
            else:
                t0 = _now()
                inputs = await loop.run_in_executor(
                    self._phase_pool, encrypt, payload
                )
                record.encrypt_s = _now() - t0
                telemetry.record_span(
                    "encrypt", root.ctx, t0, t0 + record.encrypt_s,
                    category="stream",
                )
            t0 = _now()
            # executor.submit serializes the inputs before returning its
            # future — run it on the phase thread, not the event loop.
            service = telemetry.child_span("service", root.ctx, category="stream")
            submit_call = partial(
                self.executor.submit, inputs, deadline_s=deadline_s, trace=service.ctx
            )
            try:
                pool_future = await loop.run_in_executor(
                    self._phase_pool, submit_call
                )
                try:
                    outputs = await asyncio.wrap_future(pool_future)
                except WorkerError as exc:
                    record.outcome = "failed"
                    record.error = type(exc).__name__
                    record.error_code = getattr(exc, "code", None)
                    record.attempts = max(1, getattr(exc, "attempts", 0) or 1)
                    record.service_s = _now() - t0
                    raise
            finally:
                service.end(status=record.outcome)
            record.service_s = _now() - t0
            record.attempts = max(1, getattr(pool_future, "attempts", 1))
            record.retry_s = getattr(pool_future, "retry_s", 0.0)
            if decrypt is None:
                result = outputs
            else:
                t0 = _now()
                result = await loop.run_in_executor(
                    self._phase_pool, decrypt, outputs
                )
                record.decrypt_s = _now() - t0
                telemetry.record_span(
                    "decrypt", root.ctx, t0, t0 + record.decrypt_s,
                    category="stream",
                )
        except Exception as exc:
            if record.outcome == "ok":  # phase failures, cancellation, ...
                record.outcome = "failed"
                record.error = type(exc).__name__
                record.error_code = getattr(exc, "code", None)
            raise
        finally:
            self._finish()
            self._sem.release()
            record.total_s = _now() - enqueue
            record.done_at_s = _now() - self._started_at
            self._records.append(record)
            root.end(status=record.outcome)
        return result

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    @property
    def records(self) -> list[RequestRecord]:
        return list(self._records)

    def latency_summary(self) -> dict[str, float]:
        """Latency percentiles over *successful* requests only — failed
        requests returned nothing, so mixing their (often deadline-
        truncated) timings in would corrupt the service-time picture."""
        totals = sorted(r.total_s for r in self._records if r.outcome == "ok")
        return {
            "count": len(totals),
            "mean_s": sum(totals) / len(totals) if totals else 0.0,
            "p50_s": _percentile(totals, 0.50),
            "p95_s": _percentile(totals, 0.95),
            "max_s": totals[-1] if totals else 0.0,
        }

    def stats(self) -> dict:
        ok = [r for r in self._records if r.outcome == "ok"]
        failed = [r for r in self._records if r.outcome != "ok"]
        retried = [r for r in ok if r.attempts > 1]
        failures_by_type: dict[str, int] = {}
        for r in failed:
            name = r.error or "unknown"
            failures_by_type[name] = failures_by_type.get(name, 0) + 1
        done = [r.done_at_s for r in ok]
        makespan = max(done) if done else 0.0
        return {
            "completed": len(ok),
            "failed": len(failed),
            "retried": len(retried),
            "retry_latency_s": sum(r.retry_s for r in ok),
            "failures_by_type": failures_by_type,
            "max_queue_depth": max(self._depth_samples, default=0),
            "mean_queue_depth": (
                sum(self._depth_samples) / len(self._depth_samples)
                if self._depth_samples
                else 0.0
            ),
            "time_to_first_result_s": min(done) if done else 0.0,
            "makespan_s": makespan,
            "throughput_rps": len(done) / makespan if makespan else 0.0,
            "latency": self.latency_summary(),
            "executor": self.executor.stats(),
        }

    def to_dict(self) -> dict:
        """JSON-round-trippable snapshot: :meth:`stats` plus every
        :class:`RequestRecord` (typed errors already rendered as stable
        name/code pairs).  ``json.loads(json.dumps(server.to_dict()))``
        reproduces the same structure bit-for-bit."""
        return {
            "stats": self.stats(),
            "records": [r.to_dict() for r in self._records],
        }

    def schedule_comparison(self, config=None, degree: int | None = None):
        """The served queue on the accelerator's dual-RSC policies (via
        the bridge's workload forms), best makespan first.  Only
        successful requests count as served; failed ones contribute just
        their client-side encrypt leg."""
        ok = sum(1 for r in self._records if r.outcome == "ok")
        failed = len(self._records) - ok
        return plan_schedule_comparison(
            self.executor.plan,
            requests=max(1, ok),
            config=config,
            degree=degree,
            failures=failed,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _next_index(self) -> int:
        index = self._index
        self._index += 1
        return index

    def _admit(self) -> None:
        self._depth += 1
        self._depth_samples.append(self._depth)

    def _finish(self) -> None:
        self._depth -= 1
        self._depth_samples.append(self._depth)

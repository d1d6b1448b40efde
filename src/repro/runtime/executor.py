"""Multi-process plan serving: a fork-shared persistent worker pool.

:class:`ShardedExecutor` scales :meth:`ExecutionPlan.run_batch` past one
core.  Compiled plans are immutable, evaluation keys are read-only, and
every process-level cache (the fused replayer, stacked key tensors, NTT
twiddle pre-forms, Galois permutation tables) is warmed *before* the pool
starts — so forked workers inherit all of it copy-on-write and execute
with zero per-process recompilation.  Only the per-request ciphertexts
move between processes, through the exact wire formats of
:mod:`repro.ckks.serialization` (packed at :func:`wire_coeff_bits`, with
raw-double scales, so a round trip is bit-exact and sharded output is
bit-identical to single-process ``plan.run_batch``).  Every blob is
wrapped in a CRC-guarded ``ENV1`` envelope frame at the boundary, so a
flipped byte anywhere in transit is *detected* — and surfaces as a typed
per-request :class:`~repro.runtime.faults.WireCorruption`, never as a
silent wrong answer or a dead worker.

**Failure semantics** (see ``docs/architecture.md`` "Failure semantics"
and :mod:`repro.runtime.faults`): the parent I/O loop enforces a
:class:`~repro.runtime.faults.FaultPolicy` — per-request deadlines,
heartbeat-based hang detection (a hung worker is SIGKILLed and replaced
like a crashed one; a slow worker keeps heartbeating and is left alone),
a retry budget with deterministic exponential backoff + jitter, and
quarantine: a request that keeps killing workers fails *itself* with a
typed :class:`~repro.runtime.faults.PoisonRequest` while the pool keeps
serving everything else.  If replacement forks keep dying, the
crash-loop breaker either fails outstanding requests loudly (default) or
— with ``FaultPolicy(degrade_to_inline=True)`` — drains the queue
through the inline single-process path with a warning instead of
deadlocking.  Deterministic fault injection for all of these paths is
provided by :class:`~repro.runtime.chaos.FaultPlan` via the ``chaos=``
constructor knob.

``ship_plan=True`` selects the **wire path** instead of the warm-fork
path: the parent serializes the compiled plan once
(:func:`repro.runtime.plan_io.serialize_plan`, constants inline) and each
worker deserializes its own copy from bytes — no reliance on fork-shared
plan state, exactly what a cross-machine pool will do.  Outputs are
byte-identical either way (pinned in
``tests/integration/test_backend_identity.py``); the warm-fork default
stays cheaper on one host because workers inherit the fused replayer
and stacked key tensors copy-on-write instead of rebuilding them.

Topology: one duplex pipe per worker, at most one request in flight per
worker, a single parent-side I/O thread multiplexing dispatch,
collection, heartbeats, and timers with
:func:`multiprocessing.connection.wait`.  Because the parent always
knows which request (and which attempt) each worker holds, a crashed
worker is detected by pipe EOF, its in-flight request is re-queued under
the retry budget, and a replacement is forked — requests are never lost
and never duplicated.

``num_workers=0`` (or a platform without ``fork``) degrades to an inline
executor that still routes every request through the serialization
boundary, so codec behaviour is identical everywhere.  The inline path
never consults the chaos plan and cannot preempt, so deadlines/hangs do
not apply there (documented degradation ladder).

``modeled_request_io_s`` optionally charges each request a client-link
transfer delay inside the worker (upload before evaluation, download
after).  The serving benchmarks derive it from the serialization layer's
exact wire byte counts, making the pool's latency-hiding measurable even
on a single core; it defaults to zero and is never used by the library
itself.

Contract summary (see ``docs/architecture.md``): fork-shared — plans,
keys, every warmed cache, and the (immutable) policy/chaos values;
crossing the worker boundary — per-request ciphertexts/plaintexts always
(``ENV1``-framed ``CTF2``/``PTX1``), typed failures as ``FLT1`` frames,
the compiled plan itself only under ``ship_plan=True`` (``EPL1``);
process-cached in the parent — request table, futures, retry/backoff
schedule, and crash accounting.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing as mp
import os
import signal
import threading
import time
import warnings
from collections import deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as _FuturesTimeout
from multiprocessing.connection import wait as connection_wait

from repro.ckks.serialization import WireFormatError, wire_coeff_bits
from repro.runtime import wire
from repro.runtime.chaos import flip_frame_byte
from repro.runtime.faults import (
    DeadlineExceeded,
    FaultPolicy,
    PoisonRequest,
    RequestError,
    WireCorruption,
    WorkerCrash,
    WorkerError,
    WorkerHang,
    deserialize_fault,
    serialize_fault,
)
from repro.runtime.plan import ExecutionPlan
from repro.runtime.serving import ServingConfig
from repro.runtime.telemetry import (
    WorkerSpanRecorder,
    deserialize_trace_frame,
    get_telemetry,
    serialize_trace_context,
)
from repro.runtime.telemetry import now as _mono
from repro.runtime.transport import create_transport

__all__ = ["ShardedExecutor", "WorkerError"]

# Distinguishes the metric label set of concurrently-live pools in one
# process (test suites build dozens); monotone so exports stay stable.
_POOL_IDS = itertools.count()


def _wire_worker_loop(
    plan_blob: bytes, evaluator, conn, cfg: wire.WorkerConfig
) -> None:
    """Child process body for the shipped-plan path: rebuild the plan
    from its EPL1 bytes (constants resolved from the inline PCS1
    payload, no re-trace, no fork-shared plan state), then serve.  The
    fused replayer is lowered here, before the first request arrives, so
    no request pays lowering inside its deadline or ``evaluate`` span."""
    from repro.runtime.plan_io import deserialize_plan

    plan = deserialize_plan(plan_blob, evaluator)
    if cfg.fused:
        plan.fused()
    _worker_loop(plan, conn, cfg)


def _heartbeat_loop(conn, send_lock, state, stop, interval: float) -> None:
    """Worker-side progress beacon: while a request is being served (and
    not chaos-suppressed), tell the parent we are alive every
    ``interval`` seconds.  A SIGSTOPped worker stops beating — which is
    exactly how the parent tells hung from slow."""
    while not stop.wait(interval):
        req_id = state.get("req")
        if req_id is None or state.get("suspend"):
            continue
        beat = wire.encode_message(wire.HEARTBEAT, req_id, state.get("attempt", 0))
        try:
            with send_lock:
                conn.send_bytes(beat)
        except (BrokenPipeError, OSError):
            return


def _inject(action, state) -> None:
    """Apply one worker-side chaos action at its hook point."""
    if action.kind == "crash":
        os.kill(os.getpid(), signal.SIGKILL)
    elif action.kind == "stop":
        # Genuinely stuck-not-dead: the whole process (heartbeat thread
        # included) freezes until the parent SIGKILLs it.
        os.kill(os.getpid(), signal.SIGSTOP)
    elif action.kind == "hang":
        state["suspend"] = True  # stop heartbeating: look hung, not slow
        time.sleep(action.duration_s)
    elif action.kind == "slow":
        time.sleep(action.duration_s)


def _serve_request(
    plan, basis, cfg: wire.WorkerConfig, state, req_id, attempt, blobs, rec
) -> bytes:
    """Serve one request in the worker; always returns an encoded reply.

    Wire corruption in the incoming frames becomes a typed
    ``WireCorruption`` reply; any evaluation error becomes a typed
    ``RequestError`` reply — the worker itself never dies for a bad
    request, only for injected/real process faults.  ``rec`` is the
    attempt's :class:`WorkerSpanRecorder`; when the attempt is traced,
    deserialize/evaluate/serialize spans ship back in the reply's TRC1
    part (on a crash the worker dies with its spans — the parent's
    attempt span still records the attempt's extent and outcome).
    """
    chaos = cfg.chaos
    upload_s = download_s = cfg.io_s / 2.0

    def failed(fault: RequestError) -> bytes:
        frames = [serialize_fault(fault)]
        return wire.encode_message(wire.ERR, req_id, attempt, frames, rec.payload())

    try:
        try:
            with rec.span("deserialize", blobs=len(blobs)):
                inputs = [wire.decode_value(b, basis) for b in blobs]
        except WireFormatError as exc:
            return failed(
                WireCorruption(
                    f"request frame corrupt: {exc}",
                    request_id=req_id,
                    attempts=attempt + 1,
                )
            )
        action = chaos.decide("pre_evaluate", req_id, attempt) if chaos else None
        if action is not None:
            _inject(action, state)
        if upload_s:
            with rec.span("upload_wait"):
                time.sleep(upload_s)
        with rec.span("evaluate"):
            outputs = plan.run_batch([inputs], fused=cfg.fused)[0]
        action = chaos.decide("post_evaluate", req_id, attempt) if chaos else None
        if action is not None:
            _inject(action, state)
        with rec.span("serialize"):
            payload = [wire.encode_value(o, cfg.coeff_bits) for o in outputs]
        action = chaos.decide("reply_encode", req_id, attempt) if chaos else None
        if action is not None and action.kind == "flip":
            payload[0] = flip_frame_byte(payload[0], action)
        if download_s:
            with rec.span("download_wait"):
                time.sleep(download_s)
        return wire.encode_message(wire.OK, req_id, attempt, payload, rec.payload())
    except Exception as exc:  # noqa: BLE001 — forwarded to the parent, typed
        return failed(
            RequestError(
                f"{type(exc).__name__}: {exc}", request_id=req_id, attempts=attempt + 1
            )
        )


def _worker_loop(plan: ExecutionPlan, conn, cfg: wire.WorkerConfig) -> None:
    """Child process body: recv request -> replay plan -> send reply."""
    basis = plan.evaluator.basis
    send_lock = threading.Lock()
    state: dict = {"req": None, "attempt": 0, "suspend": False}
    hb_stop = threading.Event()
    if cfg.heartbeat_s:
        threading.Thread(
            target=_heartbeat_loop,
            args=(conn, send_lock, state, hb_stop, cfg.heartbeat_s),
            daemon=True,
        ).start()
    while True:
        try:
            msg = wire.decode_message(conn.recv_bytes())
        except (EOFError, OSError, WireFormatError):
            break
        if msg.kind != wire.REQUEST:
            break  # SHUTDOWN (or anything a worker cannot serve)
        _, req_id, attempt, blobs, trace_blob = msg
        ctx = None
        if trace_blob is not None:
            try:
                kind, ctx = deserialize_trace_frame(trace_blob)
                if kind != "ctx":
                    ctx = None
            except WireFormatError:
                ctx = None  # a corrupt trace frame never fails the request
        rec = WorkerSpanRecorder(ctx, attempt)
        state["attempt"] = attempt
        state["suspend"] = False
        state["req"] = req_id
        reply = _serve_request(
            plan, basis, cfg, state, req_id, attempt, blobs, rec
        )
        state["req"] = None
        try:
            with send_lock:
                conn.send_bytes(reply)
        except (BrokenPipeError, OSError):
            break
    hb_stop.set()
    conn.close()


class _Request:
    __slots__ = (
        "id",
        "blobs",
        "future",
        "attempts",
        "causes",
        "deadline_at",
        "submitted_at",
        "first_dispatch_at",
        "last_dispatch_at",
        "cancelled",
        "trace",
        "root_span",
        "attempt_span",
        "backoff_from",
    )

    def __init__(self, req_id: int, blobs, future: Future, deadline_at):
        self.id = req_id
        self.blobs = blobs
        self.future = future
        self.attempts = 0  # dispatches so far; attempt index is 0-based
        self.causes: list[str] = []
        self.deadline_at = deadline_at
        self.submitted_at = time.monotonic()
        self.first_dispatch_at: float | None = None
        self.last_dispatch_at: float | None = None
        self.cancelled = False
        self.trace = None  # TraceContext spans parent under (None=untraced)
        self.root_span = None  # executor-owned root handle, if we minted it
        self.attempt_span = None  # open span for the in-flight attempt
        self.backoff_from: float | None = None  # retry scheduled at (mono)


class _Worker:
    __slots__ = (
        "endpoint",
        "proc",
        "conn",
        "host",
        "busy",
        "busy_attempt",
        "dispatched_at",
        "last_beat",
    )

    def __init__(self, endpoint):
        self.endpoint = endpoint
        self.proc = endpoint.proc
        self.conn = endpoint.conn
        self.host = endpoint.host
        self.busy: int | None = None  # request id in flight, if any
        self.busy_attempt = 0
        self.dispatched_at = 0.0
        self.last_beat = 0.0


def _resolve(fut: Future, *, result=None, exc=None) -> None:
    """Resolve a future exactly once; cancelled futures are left alone."""
    if fut.done():
        return
    try:
        if exc is not None:
            fut.set_exception(exc)
        else:
            fut.set_result(result)
    except Exception:  # noqa: BLE001 — lost a race with cancel()
        pass


class ShardedExecutor:
    """Shards plan replays across a persistent pool of forked workers.

    Attributes:
        plan: the compiled :class:`ExecutionPlan` every worker replays.
        num_workers: pool size; ``0`` selects the inline (single-process)
            fallback that still crosses the serialization boundary.
        policy: the :class:`~repro.runtime.faults.FaultPolicy` enforced by
            the parent I/O loop (deadlines, hang detection, retry budget,
            quarantine, breaker behaviour).
        chaos: optional :class:`~repro.runtime.chaos.FaultPlan` consulted
            at the documented hook points for deterministic fault
            injection (tests/benches only; ``None`` in production).
        fused: replay through the arena-backed
            :class:`~repro.runtime.plan.FusedExecutor` (``False``: the
            reference interpreter; same bits).  The fused warm (arena +
            stacked keys) happens in the parent before the first fork
            so workers inherit it copy-on-write.
    """

    def __init__(
        self,
        plan: ExecutionPlan,
        num_workers: int | None = None,
        *,
        config: ServingConfig | None = None,
        warm_inputs=None,
    ) -> None:
        # A bare positional pool size is ServingConfig(num_workers=...).
        cfg = config if config is not None else ServingConfig()
        if num_workers is not None:
            if config is not None:
                raise TypeError(
                    "pass the pool size inside ServingConfig when using config="
                )
            cfg = cfg.replace(num_workers=num_workers)
        self.config = cfg
        num_workers = cfg.num_workers
        self.plan = plan
        self.num_workers = num_workers
        self.ship_plan = cfg.ship_plan
        self.fused = cfg.fused
        self.policy = (
            cfg.fault_policy if cfg.fault_policy is not None else FaultPolicy()
        )
        self.chaos = cfg.chaos
        self._plan_blob: bytes | None = None
        self._coeff_bits = cfg.coeff_bits or wire_coeff_bits(plan.evaluator.basis)
        self._io_s = float(cfg.modeled_request_io_s)
        self._max_crashes = (
            cfg.max_crash_respawns
            if cfg.max_crash_respawns is not None
            else 3 + 2 * max(num_workers, 1)
        )
        self._transport = None
        self._inline = num_workers == 0 or "fork" not in mp.get_all_start_methods()
        if self._inline and num_workers > 0:
            warnings.warn(
                "fork start method unavailable; ShardedExecutor degrades to "
                "the inline single-process executor",
                RuntimeWarning,
                stacklevel=2,
            )
        self._ctx = None if self._inline else mp.get_context("fork")
        self._workers: list[_Worker] = []
        self._io_thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._pending: deque[int] = deque()
        self._delayed: list[tuple[float, int]] = []  # (ready_at, req_id) heap
        self._requests: dict[int, _Request] = {}
        self._consecutive_crashes = 0
        self._degraded = False
        self._has_deadlines = self.policy.deadline_s is not None
        self._req_ids = itertools.count()
        self._started = False
        # Single source of truth for pool accounting: a telemetry counter
        # group (unique per pool instance); stats() stays a dict view.
        self._telemetry = get_telemetry()
        self._m = self._telemetry.group(
            "executor", pool=str(next(_POOL_IDS))
        ).declare(
            "submitted",
            "completed",
            "errors",
            "worker_crashes",
            "respawns",
            "retries",
            "hang_kills",
            "deadline_failures",
            "wire_corruptions",
            "poisoned",
            "cancelled",
            "busy_s",
        )
        self._staleness_gauge = self._telemetry.gauge(
            "executor_heartbeat_staleness_s", **self._m.labels
        )
        # Warm every fork-shared cache in the parent: lowering the fused
        # replayer (arena layout, fused closures, bound constants), plus
        # (optionally) one real replay so the stacked key tensors
        # (``SwitchingKey.stacked``, one copy per key instead of one per
        # worker) and permutation tables exist before the first fork.
        plan.run_batch(
            [warm_inputs] if warm_inputs is not None else [], fused=self.fused
        )
        if self.ship_plan and not self._inline:
            # Serialize once; every (re)spawned worker deserializes the
            # same artifact instead of relying on the fork-warmed plan.
            from repro.runtime.plan_io import serialize_plan

            self._plan_blob = serialize_plan(plan)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "ShardedExecutor":
        with self._lock:  # concurrent first submits must not double-fork
            if self._started or self._inline:
                self._started = True
                return self
            self._stop.clear()
            self._wake_r, self._wake_w = self._ctx.Pipe(duplex=False)
            self._transport = self._make_transport()
            for _ in range(self.num_workers):
                self._workers.append(self._spawn())
            self._io_thread = threading.Thread(
                target=self._io_loop, name="sharded-executor-io", daemon=True
            )
            self._io_thread.start()
            self._started = True
        return self

    def close(self) -> None:
        """Stop the pool; outstanding futures fail.  Idempotent, and loud
        (warns with pids) when a worker has to be escalated or leaks
        instead of joining."""
        if self._inline or not self._started:
            self._started = False
            return
        self._started = False  # flip first: a second close() is a no-op
        self._stop.set()
        self._wake()
        if self._io_thread is not None:
            self._io_thread.join(timeout=5.0)
            if self._io_thread.is_alive():
                warnings.warn(
                    "ShardedExecutor I/O thread failed to stop within 5s",
                    RuntimeWarning,
                    stacklevel=2,
                )
            self._io_thread = None
        for worker in self._workers:
            try:
                worker.conn.send_bytes(wire.encode_message(wire.SHUTDOWN))
            except (BrokenPipeError, OSError):
                pass
        escalated: list[int] = []
        leaked: list[int] = []
        for worker in self._workers:
            worker.proc.join(timeout=2.0)
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(timeout=1.0)
            if worker.proc.is_alive():
                # A SIGSTOPped (or otherwise wedged) worker ignores the
                # sentinel and holds SIGTERM pending; SIGKILL (locally,
                # or the transport's kill-slot escalation) is the only
                # path guaranteed to reap it.
                escalated.append(worker.proc.pid)
                worker.endpoint.kill()
                worker.proc.join(timeout=1.0)
            if worker.proc.is_alive():
                leaked.append(worker.proc.pid)
            worker.conn.close()
        if escalated:
            warnings.warn(
                f"ShardedExecutor.close(): worker(s) failed to join and were "
                f"SIGKILLed: pids {escalated}",
                RuntimeWarning,
                stacklevel=2,
            )
        if leaked:
            warnings.warn(
                f"ShardedExecutor.close(): worker(s) leaked (still alive after "
                f"SIGKILL): pids {leaked}",
                RuntimeWarning,
                stacklevel=2,
            )
        self._workers.clear()
        # Transport teardown frees everything workers rode on — sockets
        # and host processes.  Transports also register atexit/finalize
        # hooks, so even a run that never reaches this line cannot leak
        # host processes or bound ports.
        if self._transport is not None:
            self._transport.close()
            self._transport = None
        for pipe_end in (self._wake_r, self._wake_w):
            try:
                pipe_end.close()
            except OSError:
                pass
        with self._lock:
            requests = list(self._requests.values())
            self._requests.clear()
            self._pending.clear()
            self._delayed.clear()
        for req in requests:
            self._close_attempt(req, "closed")
            self._finish_trace(req, "closed")
            _resolve(req.future, exc=RuntimeError("executor closed"))

    def __enter__(self) -> "ShardedExecutor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(
        self, inputs, *, deadline_s: float | None = None, trace=None
    ) -> Future:
        """Queue one plan replay; resolves to its output ciphertexts.

        ``deadline_s`` bounds the request's *total* time in the engine
        (queue wait plus every attempt); past it the request fails with a
        typed :class:`~repro.runtime.faults.DeadlineExceeded`.  ``None``
        falls back to the policy default.

        ``trace`` optionally parents this request's spans under a caller
        :class:`~repro.runtime.telemetry.TraceContext` (the streaming
        front end passes its service span); otherwise the executor mints
        a fresh trace at ingress when tracing is enabled.
        """
        if not self._started:
            self.start()
        if not self._inline and not self._degraded and self._stop.is_set():
            # The pool exceeded its crash budget and shut itself down;
            # fail fast instead of queueing requests nobody will serve.
            raise RuntimeError("executor stopped (crash budget exceeded)")
        blobs = [wire.encode_value(v, self._coeff_bits) for v in inputs]
        fut: Future = Future()
        if self._inline or self._degraded:
            self._run_inline(blobs, fut, trace=trace)
            return fut
        deadline = deadline_s if deadline_s is not None else self.policy.deadline_s
        deadline_at = None if deadline is None else time.monotonic() + deadline
        with self._lock:
            req_id = next(self._req_ids)
            fut.request_id = req_id
            self._m.inc("submitted")
            req = _Request(req_id, blobs, fut, deadline_at)
            # Trace minting happens under the lock so trace ids follow
            # request ids deterministically under concurrent submitters.
            if trace is not None and trace.sampled:
                req.trace = trace
            else:
                root = self._telemetry.start_trace(
                    "request", category="serve", request=req_id
                )
                if root:
                    req.root_span = root
                    req.trace = root.ctx
            self._requests[req_id] = req
            self._pending.append(req_id)
            if deadline_at is not None:
                self._has_deadlines = True
        self._wake()
        return fut

    def cancel(self, fut: Future) -> bool:
        """Cancel one submitted request.

        Pending (queued or backoff-delayed) requests are dropped
        immediately; an in-flight request is *drained* — its worker is
        left to finish and the result is discarded, so the pool stays
        healthy.  Returns whether the future was cancelled.
        """
        req_id = getattr(fut, "request_id", None)
        if req_id is None:
            return False
        with self._lock:
            req = self._requests.get(req_id)
            if req is None or req.cancelled:
                return False
            in_flight = any(w.busy == req_id for w in self._workers)
            req.cancelled = True
            if not in_flight:
                self._requests.pop(req_id, None)
            self._m.inc("cancelled")
        self._close_attempt(req, "cancelled")
        self._finish_trace(req, "cancelled")
        return fut.cancel()

    def run_batch(
        self, batches, timeout: float | None = None, *, deadline_s: float | None = None
    ):
        """Shard a materialized batch across the pool, order-preserving.

        Bit-identical to ``plan.run_batch(batches)``: every entry is the
        same plan replay, inputs/outputs round-trip losslessly through the
        wire format, and results are returned in submission order no
        matter which worker finished first.

        ``timeout`` bounds the whole batch; on expiry every unfinished
        request is cancelled (queued entries dropped, in-flight entries
        drained and discarded), ``TimeoutError`` is raised, and the pool
        remains fully serviceable for the next batch.
        """
        futures = [self.submit(entry, deadline_s=deadline_s) for entry in batches]
        budget = None if timeout is None else time.monotonic() + timeout
        results = []
        try:
            for fut in futures:
                remaining = None if budget is None else budget - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise _FuturesTimeout()
                results.append(fut.result(timeout=remaining))
        except (_FuturesTimeout, TimeoutError):
            dropped = sum(
                1 for f in futures if not f.done() and self.cancel(f)
            )
            raise TimeoutError(
                f"run_batch timed out after {timeout:g}s; cancelled {dropped} "
                "outstanding request(s) (queued dropped, in-flight drained); "
                "the pool remains serviceable"
            ) from None
        return results

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            out = self._m.to_dict()  # view over the telemetry registry
            out["pending"] = len(self._pending) + len(self._delayed)
        out["num_workers"] = self.num_workers
        out["inline"] = self._inline
        out["plan_wire"] = self._plan_blob is not None
        out["fused"] = self.fused
        out["degraded"] = self._degraded
        out["transport"] = self.config.transport
        transport = self._transport
        if transport is not None:
            out["transport_stats"] = transport.stats()
        return out

    def worker_pids(self) -> list[int]:
        return [w.proc.pid for w in self._workers]

    # ------------------------------------------------------------------
    # Inline / degraded path
    # ------------------------------------------------------------------

    def _run_inline(self, blobs, fut: Future, trace=None) -> None:
        basis = self.plan.evaluator.basis
        self._m.inc("submitted")
        if trace is not None and trace.sampled:
            span = self._telemetry.child_span(
                "inline_evaluate", trace, category="serve"
            )
        else:
            span = self._telemetry.start_trace("inline_evaluate", category="serve")
        try:
            if self._io_s:  # parity with the worker-side link model
                time.sleep(self._io_s)
            inputs = [wire.decode_value(b, basis) for b in blobs]
            outputs = self.plan.run_batch([inputs], fused=self.fused)[0]
            round_tripped = [
                wire.decode_value(wire.encode_value(o, self._coeff_bits), basis)
                for o in outputs
            ]
        except Exception as exc:  # noqa: BLE001 — mirror the pool contract
            span.end(status="error")
            self._m.inc("errors")
            fut.attempts = 1
            _resolve(
                fut, exc=RequestError(f"{type(exc).__name__}: {exc}", attempts=1)
            )
            return
        span.end(status="ok")
        self._m.inc("completed")
        fut.attempts = 1
        fut.retry_s = 0.0
        _resolve(fut, result=round_tripped)

    # ------------------------------------------------------------------
    # Telemetry plumbing
    # ------------------------------------------------------------------

    @staticmethod
    def _close_attempt(req: _Request, status: str, **attrs) -> None:
        """Close the in-flight attempt span (idempotent): the parent
        records the attempt's extent and outcome even when the worker
        died and its own spans never came back."""
        span, req.attempt_span = req.attempt_span, None
        if span is not None:
            span.end(status=status, **attrs)

    @staticmethod
    def _finish_trace(req: _Request, status: str) -> None:
        """Close the request root span iff this executor minted it (a
        caller-provided trace context is closed by the caller)."""
        span, req.root_span = req.root_span, None
        if span is not None:
            span.end(status=status)

    def _accrue_busy(self, worker: _Worker, now: float) -> None:
        """Fold one finished (or terminated) attempt's wall time into
        the pool's busy-seconds counter — worker utilization is
        ``busy_s / (workers * pool uptime)``."""
        if worker.dispatched_at:
            self._m.inc("busy_s", max(0.0, now - worker.dispatched_at))
            worker.dispatched_at = 0.0

    def _ingest_worker_spans(self, span_blob) -> None:
        if span_blob is None:
            return
        try:
            kind, spans = deserialize_trace_frame(span_blob)
        except WireFormatError:
            return  # corrupt telemetry never fails a request
        if kind == "spans":
            try:
                self._telemetry.ingest_spans(spans)
            except (TypeError, KeyError):
                pass

    # ------------------------------------------------------------------
    # Pool internals (parent I/O thread unless noted)
    # ------------------------------------------------------------------

    def _make_transport(self):
        """Build the worker-boundary transport from the serving config.

        The executor stays the composition root: it hands the transport
        the worker loop callable and its leading arguments (the wire
        path's plan blob + evaluator, or the warm-fork plan object), so
        transports never reach into plan internals themselves.
        """
        env = None
        authkey = None
        if self.config.transport == "tcp":
            evaluator = self.plan.evaluator
            env = wire.HostEnv(
                params=evaluator.params,
                primes=tuple(evaluator.basis.primes),
            )
            if self.config.authkey_file is not None:
                from repro.runtime.worker_host import load_authkey

                authkey = load_authkey(self.config.authkey_file)
        cfg = wire.WorkerConfig(
            coeff_bits=self._coeff_bits,
            io_s=self._io_s,
            fused=self.fused,
            chaos=self.chaos,
            heartbeat_s=self.policy.heartbeat_interval_s(),
            env=env,
        )
        if self._plan_blob is not None:
            target, head = _wire_worker_loop, (self._plan_blob, self.plan.evaluator)
        else:
            target, head = _worker_loop, (self.plan,)
        return create_transport(
            self.config.transport,
            ctx=self._ctx,
            target=target,
            head=head,
            cfg=cfg,
            plan=self.plan,
            plan_blob=self._plan_blob,
            hosts=self.config.hosts,
            authkey=authkey,
        )

    def _spawn(self) -> _Worker:
        return _Worker(self._transport.spawn())

    def _respawn(self, reason: str) -> None:
        """Replace a retired worker, accounting the respawn; a spawn
        failure (e.g. an unreachable worker host) trips the breaker
        instead of killing the I/O thread."""
        if self._stop.is_set():
            return  # closing: late EOFs must not refork workers/hosts
        try:
            worker = self._spawn()
        except Exception as exc:  # noqa: BLE001 — any spawn failure trips
            self._trip_breaker(f"respawn after {reason} failed: {exc}")
            return
        self._workers.append(worker)
        self._m.inc("respawns")
        self._telemetry.event(
            "respawn", pool=self._m.labels["pool"], reason=reason, host=worker.host
        )

    def _wake(self) -> None:
        try:
            self._wake_w.send_bytes(b"x")
        except (BrokenPipeError, OSError, AttributeError):
            pass

    def _io_loop(self) -> None:
        while not self._stop.is_set():
            now = time.monotonic()
            self._promote_delayed(now)
            self._check_deadlines(now)
            self._check_hangs(now)
            if self._stop.is_set():  # a breaker may have tripped above
                break
            self._dispatch()
            conns = [w.conn for w in self._workers] + [self._wake_r]
            timeout = 0.05 if self._timers_active() else 0.2
            for ready in connection_wait(conns, timeout=timeout):
                if ready is self._wake_r:
                    while self._wake_r.poll():
                        self._wake_r.recv_bytes()
                    continue
                worker = next(
                    (w for w in self._workers if w.conn is ready), None
                )
                if worker is None:  # retired earlier in this very loop
                    continue
                try:
                    msg = wire.decode_message(ready.recv_bytes())
                except (EOFError, OSError):
                    self._on_worker_death(worker)
                    continue
                except WireFormatError:
                    # Bytes no worker of ours writes: stop trusting the
                    # process and take the standard crash path.
                    worker.endpoint.kill()
                    self._on_worker_death(worker)
                    continue
                self._on_message(worker, msg)

    def _timers_active(self) -> bool:
        return bool(
            self._delayed
            or self._has_deadlines
            or (
                self.policy.hang_timeout_s is not None
                and any(w.busy is not None for w in self._workers)
            )
        )

    def _promote_delayed(self, now: float) -> None:
        """Move backoff-expired retries to the *front* of the queue."""
        due: list[int] = []
        with self._lock:
            while self._delayed and self._delayed[0][0] <= now:
                _, req_id = heapq.heappop(self._delayed)
                req = self._requests.get(req_id)
                if req is not None and not req.cancelled:
                    due.append(req_id)
            if due:
                self._pending.extendleft(reversed(due))

    def _check_deadlines(self, now: float) -> None:
        if not self._has_deadlines:
            return
        in_flight = {w.busy: w for w in self._workers if w.busy is not None}
        with self._lock:
            expired = [
                req
                for req in self._requests.values()
                if req.deadline_at is not None
                and now > req.deadline_at
                and not req.cancelled
            ]
        for req in expired:
            worker = in_flight.get(req.id)
            if worker is not None:
                # The worker is stuck on this request past its budget;
                # the only way to reclaim it is to replace the process.
                self._accrue_busy(worker, now)
                self._kill_and_retire(worker)
                self._respawn("deadline")
            with self._lock:
                self._requests.pop(req.id, None)
            self._m.inc("deadline_failures")
            self._m.inc("errors")
            elapsed = now - req.submitted_at
            self._close_attempt(req, "deadline")
            self._finish_trace(req, "deadline")
            self._telemetry.event(
                "deadline_failure",
                request=req.id,
                attempts=req.attempts,
                code=DeadlineExceeded.code,
            )
            req.future.attempts = req.attempts
            _resolve(
                req.future,
                exc=DeadlineExceeded(
                    f"request {req.id} exceeded its {elapsed:.3f}s "
                    f"deadline after {req.attempts} attempt(s)",
                    request_id=req.id,
                    attempts=req.attempts,
                ),
            )

    def _check_hangs(self, now: float) -> None:
        hang_timeout = self.policy.hang_timeout_s
        if hang_timeout is None:
            return
        staleness = 0.0
        for worker in list(self._workers):
            if worker.busy is None:
                continue
            stale = now - worker.last_beat
            if stale > staleness:
                staleness = stale
            if stale <= hang_timeout:
                continue
            req_id = worker.busy
            pid = worker.proc.pid
            host = worker.host
            self._accrue_busy(worker, now)
            self._kill_and_retire(worker)
            self._m.inc("hang_kills")
            with self._lock:
                req = self._requests.get(req_id)
                if req is not None and req.cancelled:
                    self._requests.pop(req_id, None)
                    req = None
            self._telemetry.event(
                "hang_kill",
                pool=self._m.labels["pool"],
                worker_pid=pid,
                host=host,
                request=req_id,
                code=WorkerHang.code,
            )
            if req is not None:
                self._close_attempt(req, "hang", worker_pid=pid)
                self._retry_or_fail(
                    req,
                    f"worker pid {pid} hung (no heartbeat for "
                    f"{hang_timeout:g}s) on attempt {req.attempts}",
                    kind=WorkerHang,
                )
            self._respawn("hang")
        self._staleness_gauge.set(staleness)

    def _dispatch(self) -> None:
        for worker in list(self._workers):
            if worker.busy is not None:
                continue
            req = self._next_ready_request()
            if req is None:
                return
            blobs = req.blobs
            if self.chaos is not None:
                action = self.chaos.decide("pre_dispatch", req.id, req.attempts)
                if action is not None and action.kind == "flip":
                    blobs = [flip_frame_byte(blobs[0], action), *blobs[1:]]
            trace_blob = None
            if req.trace is not None and req.trace.sampled:
                now = _mono()
                if req.backoff_from is not None:
                    self._telemetry.record_span(
                        "backoff",
                        req.trace,
                        req.backoff_from,
                        now,
                        category="serve",
                        after_attempt=req.attempts - 1,
                    )
                if req.first_dispatch_at is None:
                    self._telemetry.record_span(
                        "queue_wait", req.trace, req.submitted_at, now,
                        category="serve",
                    )
                req.attempt_span = self._telemetry.child_span(
                    f"attempt-{req.attempts}",
                    req.trace,
                    category="serve",
                    worker_pid=worker.proc.pid,
                )
                trace_blob = serialize_trace_context(req.attempt_span.ctx)
            req.backoff_from = None
            request = wire.encode_message(
                wire.REQUEST, req.id, req.attempts, blobs, trace_blob
            )
            try:
                worker.conn.send_bytes(request)
            except (BrokenPipeError, OSError):
                self._close_attempt(req, "send_failed")
                with self._lock:
                    self._pending.appendleft(req.id)
                self._on_worker_death(worker)
                continue
            now = time.monotonic()
            req.attempts += 1
            if req.first_dispatch_at is None:
                req.first_dispatch_at = now
            req.last_dispatch_at = now
            worker.busy = req.id
            worker.busy_attempt = req.attempts - 1
            worker.dispatched_at = now
            worker.last_beat = now

    def _next_ready_request(self) -> _Request | None:
        with self._lock:
            while self._pending:
                req_id = self._pending.popleft()
                req = self._requests.get(req_id)
                if req is not None and not req.cancelled:
                    return req
        return None

    def _on_message(self, worker: _Worker, msg: wire.Message) -> None:
        kind, req_id, attempt, payload, span_blob = msg
        if worker.busy != req_id or worker.busy_attempt != attempt:
            return  # stale beat or reply from a superseded attempt; drop it
        if kind == wire.HEARTBEAT:
            worker.last_beat = time.monotonic()
            return
        if kind not in (wire.OK, wire.ERR):
            return  # not something a worker says
        worker.busy = None
        self._accrue_busy(worker, _mono())
        with self._lock:
            req = self._requests.get(req_id)
            if req is not None and req.cancelled:
                self._requests.pop(req_id, None)
                req = None
        if req is None:
            return
        self._ingest_worker_spans(span_blob)
        if kind == wire.ERR:
            try:
                (flt_frame,) = payload
                fault = deserialize_fault(flt_frame, request_id=req_id)
            except ValueError as exc:  # WireFormatError, or not one part
                fault = WireCorruption(f"fault frame corrupt: {exc}")
            if isinstance(fault, WireCorruption):
                self._m.inc("wire_corruptions")
                self._close_attempt(req, "wire_corruption")
                self._telemetry.event(
                    "wire_corruption", request=req_id, code=WireCorruption.code
                )
                self._retry_or_fail(req, str(fault), kind=WireCorruption)
                return
            fault.attempts = req.attempts
            with self._lock:
                self._requests.pop(req_id, None)
            self._m.inc("errors")
            self._close_attempt(req, "error", code=getattr(fault, "code", None))
            self._finish_trace(req, "error")
            req.future.attempts = req.attempts
            _resolve(req.future, exc=fault)
            return
        basis = self.plan.evaluator.basis
        decode_from = _mono()
        try:
            outputs = [wire.decode_value(b, basis) for b in payload]
        except (WireFormatError, ValueError) as exc:
            self._m.inc("wire_corruptions")
            self._close_attempt(req, "wire_corruption")
            self._telemetry.event(
                "wire_corruption", request=req_id, code=WireCorruption.code
            )
            self._retry_or_fail(req, f"reply frame corrupt: {exc}", kind=WireCorruption)
            return
        with self._lock:
            self._requests.pop(req_id, None)
        self._m.inc("completed")
        self._consecutive_crashes = 0
        if req.trace is not None and req.trace.sampled:
            self._telemetry.record_span(
                "reply_decode", req.trace, decode_from, _mono(), category="serve"
            )
        self._close_attempt(req, "ok")
        self._finish_trace(req, "ok")
        req.future.attempts = req.attempts
        req.future.retry_s = (
            (req.last_dispatch_at or 0.0) - (req.first_dispatch_at or 0.0)
            if req.attempts > 1
            else 0.0
        )
        _resolve(req.future, result=outputs)

    def _retry_or_fail(self, req: _Request, cause: str, *, kind) -> None:
        """Apply the retry budget to one failed attempt.

        Either schedules a backoff-delayed re-dispatch or quarantines the
        request as a typed :class:`PoisonRequest` carrying every cause.
        The caller has already freed/replaced the worker.
        """
        req.causes.append(cause)
        if req.attempts >= self.policy.max_attempts:
            with self._lock:
                self._requests.pop(req.id, None)
            self._m.inc("poisoned")
            self._m.inc("errors")
            self._telemetry.event(
                "quarantine",
                request=req.id,
                attempts=req.attempts,
                code=PoisonRequest.code,
                causes=len(req.causes),
            )
            self._finish_trace(req, "poisoned")
            req.future.attempts = req.attempts
            _resolve(
                req.future,
                exc=PoisonRequest(
                    f"request {req.id} quarantined after {req.attempts} "
                    f"attempt(s): " + "; ".join(req.causes),
                    request_id=req.id,
                    attempts=req.attempts,
                    causes=tuple(req.causes),
                ),
            )
            return
        if kind is not None and not kind.retriable:
            raise AssertionError(f"{kind.__name__} must not reach the retry path")
        delay = self.policy.backoff_s(req.attempts, req.id)
        self._m.inc("retries")
        self._telemetry.event(
            "retry",
            request=req.id,
            attempt=req.attempts,
            code=None if kind is None else kind.code,
            backoff_s=delay,
        )
        req.backoff_from = _mono()
        with self._lock:
            heapq.heappush(self._delayed, (time.monotonic() + delay, req.id))

    def _kill_and_retire(self, worker: _Worker) -> None:
        """Forcibly stop a worker the parent has given up on
        (hang/deadline) and remove it from the pool without touching
        crash accounting.  ``kill`` goes through the transport endpoint
        (a SIGKILL locally, a kill-slot control op on a worker host)."""
        if worker in self._workers:
            self._workers.remove(worker)
        worker.endpoint.kill()
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.proc.join(timeout=2.0)

    def _retire(self, worker: _Worker) -> None:
        if worker in self._workers:
            self._workers.remove(worker)
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.proc.join(timeout=1.0)

    def _on_worker_death(self, worker: _Worker) -> None:
        """An unexpected EOF: account the crash, retry its request under
        the budget, and either respawn or trip the breaker."""
        if worker not in self._workers:
            return
        pid = worker.proc.pid
        self._accrue_busy(worker, _mono())
        self._retire(worker)
        self._m.inc("worker_crashes")
        self._consecutive_crashes += 1
        req_id = worker.busy
        self._telemetry.event(
            "worker_crash",
            pool=self._m.labels["pool"],
            worker_pid=pid,
            host=worker.host,
            request=req_id,
            code=WorkerCrash.code,
        )
        if req_id is not None:
            with self._lock:
                req = self._requests.get(req_id)
                if req is not None and req.cancelled:
                    self._requests.pop(req_id, None)
                    req = None
            if req is not None:
                self._close_attempt(req, "crash", worker_pid=pid)
                self._retry_or_fail(
                    req,
                    f"worker pid {pid} crashed on attempt {req.attempts}",
                    kind=WorkerCrash,
                )
        budget_blown = self._m.get("worker_crashes") > self._max_crashes
        crash_loop = self._consecutive_crashes >= self.policy.crash_loop_threshold
        if budget_blown or crash_loop:
            reason = (
                f"pool exceeded {self._max_crashes} worker crashes"
                if budget_blown
                else f"{self._consecutive_crashes} consecutive worker crashes "
                "with no completed request (crash loop)"
            )
            self._trip_breaker(reason)
            return
        self._respawn("crash")

    def _trip_breaker(self, reason: str) -> None:
        """Replacement forks keep dying: stop forking.  Either degrade to
        the inline path (serve the queue in-process, keep accepting) or
        fail everything outstanding and stop the pool."""
        for worker in list(self._workers):
            self._kill_and_retire(worker)
        if self.policy.degrade_to_inline:
            warnings.warn(
                f"ShardedExecutor crash-loop breaker tripped ({reason}); "
                "degrading to the inline single-process executor — worker "
                "fault injection and preemption no longer apply",
                RuntimeWarning,
                stacklevel=2,
            )
            self._degraded = True
            with self._lock:
                queued = sorted(self._requests.items())
                self._requests.clear()
                self._pending.clear()
                self._delayed.clear()
            for _, req in queued:
                if req.cancelled:
                    continue
                self._close_attempt(req, "breaker")
                self._finish_trace(req, "degraded_inline")
                # Inline drain double-counts "submitted"; undo it so the
                # counter keeps meaning "requests entering the engine".
                self._run_inline(req.blobs, req.future)
                self._m.inc("submitted", -1)
            self._stop.set()
            return
        with self._lock:
            requests = list(self._requests.values())
            self._requests.clear()
            self._pending.clear()
            self._delayed.clear()
        for req in requests:
            self._close_attempt(req, "breaker")
            self._finish_trace(req, "breaker")
            _resolve(
                req.future,
                exc=WorkerCrash(reason, request_id=req.id, attempts=req.attempts),
            )
        self._stop.set()

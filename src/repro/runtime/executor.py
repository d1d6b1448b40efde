"""Multi-process plan serving: a fork-shared persistent worker pool.

:class:`ShardedExecutor` scales :meth:`ExecutionPlan.run_batch` past one
core.  Compiled plans are immutable, evaluation keys are read-only, and
every process-level cache (the fused replayer, NTT twiddle pre-forms,
Galois permutation tables) is warmed *before* the pool starts — so
forked workers inherit all of it copy-on-write and execute with zero
per-process recompilation.  Only the per-request ciphertexts
move between processes, through the exact wire formats of
:mod:`repro.ckks.serialization` (packed at :func:`wire_coeff_bits`, with
raw-double scales, so a round trip is bit-exact and sharded output is
bit-identical to single-process ``plan.run_batch``).  Every blob is
wrapped in a CRC-guarded ``ENV1`` envelope frame at the boundary, so a
flipped byte anywhere in transit is *detected* — and surfaces as a typed
per-request :class:`~repro.runtime.faults.WireCorruption`, never as a
silent wrong answer or a dead worker.

**Failure semantics** (see ``docs/architecture.md`` "Failure semantics"
and :mod:`repro.runtime.faults`) are one pure state machine,
:mod:`repro.runtime.policy`, enforcing the pool's
:class:`~repro.runtime.faults.FaultPolicy` — deadlines, heartbeat-based
hang detection, the retry budget and its backoff, quarantine, the
crash-loop breaker that stops the pool; this module is its driver.
Every one of those paths is reachable deterministically:
:class:`~repro.runtime.chaos.FaultPlan`, ``ServingConfig(chaos=...)``.

How the plan reaches a worker is the transport's to decide: ``pipe``
workers inherit the warm plan through fork; ``tcp`` serializes it once
(:func:`repro.runtime.plan_io.serialize_plan`, constants inline) and
ships it as ``FPL1`` bytes to every worker host, which deserializes,
lowers and caches it by content fingerprint before forking its slot
workers — exactly what a cross-machine pool does.  Outputs are
byte-identical either way (pinned in
``tests/integration/test_backend_identity.py``).

Topology: one duplex channel per worker (a pipe, or a ``tcp`` slot's
socket), at most one request in flight per worker, a single parent-side
I/O thread waiting on every channel, its mailbox and the next timer
with :func:`multiprocessing.connection.wait`.
That thread alone owns the pool's :class:`~repro.runtime.policy.PoolMachine`:
it tells the machine what happened (``submit()`` / ``cancel()`` post
events; a reply, a heartbeat, an EOF, a timer) and carries out the
actions it answers with.  The machine knows which request (and which
attempt) each worker holds, so a crashed worker — a pipe EOF — costs its
request one attempt: requests are never lost and never duplicated.
Every request is served by a worker, so every request gets the same
contract: deadline, cancel, retry, hang detection and chaos.

Contract summary (see ``docs/architecture.md``): fork-shared (``pipe``)
— plans, keys, every warmed cache, and the (immutable) policy/chaos
values; crossing the worker boundary — per-request
ciphertexts/plaintexts always (``ENV1``-framed ``CTF2``/``PTX1``), typed
failures as ``FLT1`` frames, the compiled plan itself only to ``tcp``
worker hosts (``EPL1``);
parent-only — the machine's request/worker tables, retry/backoff schedule
and crash accounting (touched by the I/O thread only), and this driver's
futures, spans, endpoints and processes.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import multiprocessing as mp
import os
import signal
import threading
import time
import warnings
from collections import deque
from concurrent.futures import Future, InvalidStateError
from concurrent.futures import TimeoutError as _FuturesTimeout
from contextlib import suppress
from multiprocessing.connection import wait as connection_wait

from repro.ckks.serialization import WireFormatError, wire_coeff_bits
from repro.nums.kernels import share_lanes
from repro.runtime import wire
from repro.runtime.chaos import flip_frame_byte
from repro.runtime.faults import (
    FaultPolicy,
    RequestError,
    WireCorruption,
    WorkerCrash,
    WorkerError,
    WorkerHang,
    check_timeout,
    deserialize_fault,
    serialize_fault,
)
from repro.runtime.plan import ExecutionPlan
from repro.runtime.policy import PoolMachine
from repro.runtime.serving import ServingConfig
from repro.runtime.telemetry import (
    WorkerSpanRecorder,
    deserialize_trace_frame,
    get_telemetry,
    serialize_trace_context,
)
from repro.runtime.telemetry import now as _mono
from repro.runtime.transport import PipeTransport

__all__ = ["ShardedExecutor", "WorkerError"]

# Distinguishes the metric label set of concurrently-live pools in one
# process (test suites build dozens); monotone so exports stay stable.
_POOL_IDS = itertools.count()


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
    plan, basis, coeff_bits, cfg: wire.WorkerConfig, state, req_id, attempt, blobs, rec
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
        with rec.span("evaluate"):
            outputs = plan.run_batch([inputs], fused=cfg.fused)[0]
        action = chaos.decide("post_evaluate", req_id, attempt) if chaos else None
        if action is not None:
            _inject(action, state)
        with rec.span("serialize"):
            payload = [wire.encode_value(o, coeff_bits) for o in outputs]
        action = chaos.decide("reply_encode", req_id, attempt) if chaos else None
        if action is not None and action.kind == "flip":
            payload[0] = flip_frame_byte(payload[0], action)
        return wire.encode_message(wire.OK, req_id, attempt, payload, rec.payload())
    except Exception as exc:  # noqa: BLE001 — forwarded to the parent, typed
        return failed(
            RequestError(
                f"{type(exc).__name__}: {exc}", request_id=req_id, attempts=attempt + 1
            )
        )


def _worker_loop(
    plan: ExecutionPlan, conn, cfg: wire.WorkerConfig, workers: int = 1
) -> None:
    """Child process body: recv request -> replay plan -> send reply.
    ``workers``: the processes serving side by side with this one, whose
    CPUs its lanes share (:func:`~repro.nums.kernels.share_lanes`)."""
    share_lanes(workers)
    basis = plan.evaluator.basis
    coeff_bits = wire_coeff_bits(basis)
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
            plan, basis, coeff_bits, cfg, state, req_id, attempt, blobs, rec
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
    """What the driver keeps of one request: bytes, future, spans.  Where
    it stands (queued, in flight, which attempt) is the machine's to know."""

    def __init__(self, blobs, future: Future, deadline_s) -> None:
        self.id: int | None = None  # minted when queued
        self.blobs = blobs
        self.future = future
        self.deadline_s = deadline_s
        self.outputs = None  # the decoded reply, once one arrived intact
        self.submitted_at = _mono()
        self.delivered = 0  # attempts that reached a worker
        # TraceContext spans parent under (None=untraced): the root minted
        # when the request is queued, and its handle.
        self.trace = None
        self.root_span = None
        self.attempt_span = None  # open span for the in-flight attempt
        self.backoff_from: float | None = None  # retry scheduled at (mono)


class _Worker:
    def __init__(self, endpoint):
        self.endpoint = endpoint
        self.proc = endpoint.proc
        self.conn = endpoint.conn
        self.host = endpoint.host
        self.dispatched_at = 0.0  # start of the attempt it is serving, if any

    def __str__(self) -> str:  # how the machine names it in failure causes
        return f"pid {self.proc.pid}"


# How a request ends, by ``Finish.status``: the counters bumped, the
# fault-taxonomy event recorded; the status also closes the attempt span (if
# open) and the root span.  ``cancelled`` is counted by ``cancel()``.
_ENDINGS: dict[str, tuple[tuple[str, ...], str | None]] = {
    "ok": (("completed",), None),
    "error": (("errors",), None),
    "deadline": (("deadline_failures", "errors"), "deadline_failure"),
    "poisoned": (("poisoned", "errors"), "quarantine"),
    "breaker": ((), None),
    "closed": ((), None),
    "cancelled": ((), None),
}

# Retiring a worker as ``crash`` / ``hang`` is a fault too: counter, event, class.
_WORKER_FAULTS = {
    "crash": ("worker_crashes", "worker_crash", WorkerCrash),
    "hang": ("hang_kills", "hang_kill", WorkerHang),
}


class ShardedExecutor:
    """Shards plan replays across a persistent pool of forked workers.

    The one serving object — what :func:`~repro.runtime.serving.serve`
    returns: ``start`` / ``submit`` / ``run_batch`` / ``stats`` /
    ``close``, and ``with``.

    Attributes:
        config: the :class:`~repro.runtime.serving.ServingConfig` it was
            built from (``None`` at construction = the defaults).
        plan: the compiled :class:`ExecutionPlan` every worker replays.
        num_workers: pool size (>= 1).
        policy: the :class:`~repro.runtime.faults.FaultPolicy` the pool's
            :class:`~repro.runtime.policy.PoolMachine` enforces.
        chaos: optional :class:`~repro.runtime.chaos.FaultPlan` consulted
            at the documented hook points for deterministic fault
            injection (tests/benches only; ``None`` in production).
        fused: replay through the arena-backed
            :class:`~repro.runtime.plan.FusedExecutor` (``False``: the
            reference interpreter; same bits).  The fused warm (arena,
            bound constants) happens in the parent before the first fork
            so workers inherit it copy-on-write.
    """

    def __init__(
        self,
        plan: ExecutionPlan,
        *,
        config: ServingConfig | None = None,
        warm_inputs=None,
    ) -> None:
        self.config = cfg = config if config is not None else ServingConfig()
        num_workers = cfg.num_workers
        self.plan = plan
        self.num_workers = num_workers
        self.fused = cfg.fused
        self.policy = cfg.fault_policy or FaultPolicy()
        self.chaos = cfg.chaos
        self._coeff_bits = wire_coeff_bits(plan.evaluator.basis)
        self._max_crashes = (
            cfg.max_crash_respawns
            if cfg.max_crash_respawns is not None
            else 3 + 2 * num_workers
        )
        self._transport = None
        self._ctx = mp.get_context("fork")
        self._workers: list[_Worker] = []
        self._io_thread: threading.Thread | None = None
        self._lock = threading.Lock()
        # The I/O thread's mailbox, its machine, and the requests the
        # machine has not finished yet: once started, that thread's alone.
        self._events: deque = deque()
        self._machine: PoolMachine | None = None
        self._live: dict[int, _Request] = {}
        self._pending = 0  # the machine's, as of the I/O thread's last sleep
        self._req_ids = itertools.count()
        self._state = "new"  # -> "running" -> "closed", each move under the lock
        # Single source of truth for pool accounting: a telemetry counter
        # group (unique per pool instance); stats() stays a dict view.
        self._telemetry = get_telemetry()
        self._m = self._telemetry.group("executor", pool=str(next(_POOL_IDS))).declare(
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
        # Warm every fork-shared cache in the parent: lowering the fused
        # replayer (arena layout, fused closures, bound constants), plus
        # (optionally) one real replay so the permutation tables exist
        # before the first fork.
        plan.run_batch(
            [warm_inputs] if warm_inputs is not None else [], fused=self.fused
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "ShardedExecutor":
        with self._lock:  # concurrent first submits must not double-fork
            if self._state == "closed":
                raise RuntimeError("executor closed")
            if self._state == "running":
                return self
            self._machine = PoolMachine(self.policy, self._max_crashes)
            self._wake_r, self._wake_w = self._ctx.Pipe(duplex=False)
            try:
                self._transport = self._make_transport()
                for _ in range(self.num_workers):
                    self._workers.append(_Worker(self._transport.spawn()))
                    self._machine.spawned(_mono(), self._workers[-1])
                self._io_thread = threading.Thread(
                    target=self._io_loop, name="sharded-executor-io", daemon=True
                )
                self._io_thread.start()
            except BaseException:
                # Not started, so close() would be a no-op: undo it all here.
                for worker in list(self._workers):
                    self._do_kill(worker, "closed", None, kill=True)
                self._close_transport()
                self._machine = None  # it holds the dead workers' handles
                raise
            self._state = "running"
        return self

    def close(self) -> None:
        """Stop the pool for good; outstanding futures fail, and a later
        ``start()`` or ``submit()`` raises.  Idempotent, and loud (warns with
        pids) when a worker has to be escalated or leaks instead of joining."""
        # The I/O thread fails what is outstanding and exits on this event.  A
        # pool never started, a second close(): nobody to post to.
        if not self._post("close"):
            return
        self._transport.interrupt()  # a respawn redialing a host gives up
        self._io_thread.join(timeout=5.0)
        if self._io_thread.is_alive():
            warnings.warn(
                "ShardedExecutor I/O thread failed to stop within 5s",
                RuntimeWarning,
                stacklevel=2,
            )
        for worker in self._workers:
            with suppress(OSError):  # a dead pipe: that worker is gone already
                worker.conn.send_bytes(wire.encode_message(wire.SHUTDOWN))
        escalated, leaked = [], []  # pids
        for worker in list(self._workers):
            worker.proc.join(timeout=2.0)
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(timeout=1.0)
            if worker.proc.is_alive():
                # A SIGSTOPped (or otherwise wedged) worker ignores the
                # sentinel and holds SIGTERM pending; SIGKILL (locally,
                # or by its host once the slot's socket closes) is the
                # only path guaranteed to reap it.
                escalated.append(worker.proc.pid)
            self._do_kill(worker, "closed", None, kill=worker.proc.is_alive())
            if worker.proc.is_alive():
                leaked.append(worker.proc.pid)
        for pids, what in (
            (escalated, "failed to join and were SIGKILLed"),
            (leaked, "leaked (still alive after SIGKILL)"),
        ):
            if pids:
                warnings.warn(
                    f"ShardedExecutor.close(): worker(s) {what}: pids {pids}",
                    RuntimeWarning,
                    stacklevel=2,
                )
        self._close_transport()

    def _close_transport(self) -> None:
        """Free everything workers rode on — sockets, host processes, the
        wake pipe.  Transports also register atexit/finalize hooks, so even
        a run that never gets here cannot leak host processes or bound ports."""
        if self._transport is not None:
            self._transport.close()
            self._transport = None
        for pipe_end in (self._wake_r, self._wake_w):
            with suppress(OSError):
                pipe_end.close()

    def __enter__(self) -> "ShardedExecutor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Submission (any thread)
    # ------------------------------------------------------------------

    def _post(self, kind: str, payload=None, mint=None) -> bool:
        """Hand one event to the I/O thread, the machine's only owner
        (``False``: no pool is running to read it).  ``mint`` runs under the
        lock, so request ids, trace ids and queue order agree under concurrent
        submitters; ``close`` ends the pool there, for good: nothing queues
        behind it, and nothing starts it again."""
        with self._lock:
            running = self._state == "running"
            if kind == "close":
                self._state = "closed"
            if not running:
                return False
            if mint is not None:
                mint()
            self._events.append((kind, payload))
        with suppress(OSError):
            self._wake_w.send_bytes(b"x")
        return True

    def submit(self, inputs, *, deadline_s: float | None = None) -> Future:
        """Queue one plan replay; resolves to its output ciphertexts.

        ``deadline_s`` bounds the request's *total* time in the engine
        (queue wait plus every attempt); past it the request fails with a
        typed :class:`~repro.runtime.faults.DeadlineExceeded`.  ``None``
        falls back to the policy default.  When tracing is enabled the
        request's spans nest under a ``request`` root minted here.
        """
        check_timeout("deadline_s", deadline_s)
        if self._state != "running":
            self.start()  # raises once closed
        # ``mode``: the one thing read off the machine from outside its thread.
        if self._machine.mode == "stopped":
            # The pool exceeded its crash budget and shut itself down: fail fast
            # (a submit that raced the breaker is failed by the machine).
            raise RuntimeError("executor stopped (crash budget exceeded)")
        blobs = [wire.encode_value(v, self._coeff_bits) for v in inputs]
        req = _Request(blobs, Future(), deadline_s)

        def mint() -> None:
            req.id = req.future.request_id = next(self._req_ids)
            self._m.inc("submitted")
            root = self._telemetry.start_trace(
                "request", category="serve", request=req.id
            )
            if root:
                req.root_span = root
                req.trace = root.ctx

        if not self._post("submit", req, mint):
            raise RuntimeError("executor closed")
        return req.future

    def cancel(self, fut: Future) -> bool:
        """Cancel one submitted request.

        Pending (queued or backoff-delayed) requests are dropped
        immediately; an in-flight request is *drained* — its worker is
        left to finish and the result is discarded, so the pool stays
        healthy.  Returns whether the future was cancelled.
        """
        req_id = getattr(fut, "request_id", None)
        if req_id is None or fut.cancelled() or not fut.cancel():
            return False
        self._m.inc("cancelled")  # here, so it shows once this returns
        self._post("cancel", req_id)
        return True

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
        budget = None if timeout is None else _mono() + timeout
        try:
            return [
                fut.result(None if budget is None else max(0.0, budget - _mono()))
                for fut in futures
            ]
        except (_FuturesTimeout, TimeoutError):
            dropped = sum(1 for f in futures if not f.done() and self.cancel(f))
            raise TimeoutError(
                f"run_batch timed out after {timeout:g}s; cancelled {dropped} "
                "outstanding request(s) (queued dropped, in-flight drained); "
                "the pool remains serviceable"
            ) from None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        out = self._m.to_dict()  # view over the telemetry registry
        out["pending"] = self._pending
        out["num_workers"] = self.num_workers
        out["fused"] = self.fused
        out["transport"] = self.config.transport
        transport = self._transport
        if transport is not None:
            out["transport_stats"] = transport.stats()
        return out

    def worker_pids(self) -> list[int]:
        return [w.proc.pid for w in self._workers]

    # ------------------------------------------------------------------
    # The one ending of a request
    # ------------------------------------------------------------------

    def _finish(self, req: _Request, status: str, attempts: int, causes=(), error=None):
        """End ``req`` as ``status``.  Every ending goes through here:
        counters, event, spans, then the future — exactly once."""
        counters, event = _ENDINGS[status]
        for name in counters:
            self._m.inc(name)
        if event is not None:
            self._telemetry.event(
                event,
                request=req.id,
                attempts=attempts,
                code=error.code,
                causes=len(causes),
            )
        self._close_attempt(req, status)
        if req.root_span is not None:
            req.root_span.end(status=status)
        fut = req.future
        fut.attempts = attempts
        with suppress(InvalidStateError):  # cancelled by its owner: left alone
            if error is not None:
                fut.set_exception(error)
            else:
                fut.set_result(req.outputs)

    # ------------------------------------------------------------------
    # Telemetry plumbing
    # ------------------------------------------------------------------

    def _span(self, req: _Request, name: str, start: float, **attrs) -> None:
        """Record a leg of ``req`` that ends now (a no-op when untraced)."""
        if req.trace is not None:
            self._telemetry.record_span(
                name, req.trace, start, _mono(), category="serve", **attrs
            )

    @staticmethod
    def _close_attempt(req: _Request, status: str, **attrs) -> None:
        """Close the in-flight attempt span (idempotent): the parent
        records the attempt's extent and outcome even when the worker
        died and its own spans never came back."""
        span, req.attempt_span = req.attempt_span, None
        if span is not None:
            span.end(status=status, **attrs)

    def _ingest_worker_spans(self, span_blob) -> None:
        if span_blob is None:
            return
        # Corrupt telemetry never fails a request.
        with suppress(WireFormatError, TypeError, KeyError):
            kind, spans = deserialize_trace_frame(span_blob)
            if kind == "spans":
                self._telemetry.ingest_spans(spans)

    # ------------------------------------------------------------------
    # The driver (I/O thread): tell the machine what happened, do what it says
    # ------------------------------------------------------------------

    def _make_transport(self):
        """Build the worker-boundary transport from the serving config:
        ``pipe`` workers run :func:`_worker_loop` over the fork-inherited
        plan; ``tcp`` hosts get the plan as ``EPL1`` bytes and rebuild
        the evaluator it loads against from a :class:`wire.HostEnv`."""
        cfg = wire.WorkerConfig(
            fused=self.fused,
            chaos=self.chaos,
            heartbeat_s=self.policy.heartbeat_interval_s(),
        )
        if self.config.transport == "pipe":
            loop = functools.partial(_worker_loop, workers=self.config.num_workers)
            return PipeTransport(self._ctx, loop, self.plan, cfg)
        from repro.runtime.coordinator import TcpTransport
        from repro.runtime.plan_io import serialize_plan
        from repro.runtime.worker_host import load_authkey

        evaluator = self.plan.evaluator
        env = wire.HostEnv(evaluator.params, tuple(evaluator.basis.primes))
        keyfile = self.config.authkey_file
        return TcpTransport(
            self._ctx,
            plan_blob=serialize_plan(self.plan),
            cfg=dataclasses.replace(cfg, env=env),
            hosts=self.config.hosts,
            authkey=None if keyfile is None else load_authkey(keyfile),
        )

    def _io_loop(self) -> None:
        machine = self._machine
        while True:
            self._apply(machine.tick(_mono()))
            self._pending = machine.pending  # what stats() reads, lock-free
            if machine.mode == "closed":
                return
            # Sleep until a worker, a submitter or the machine's next timer needs
            # the thread — a millisecond *past* the timer: expiries compare
            # strictly, and waking on the dot would spin until the clock moves.
            delay = machine.next_wake(_mono())
            conns = [w.conn for w in self._workers] + [self._wake_r]
            timeout = None if delay is None else delay + 0.001
            for ready in connection_wait(conns, timeout=timeout):
                if ready is self._wake_r:
                    while self._wake_r.poll():
                        self._wake_r.recv_bytes()
                    continue
                worker = next((w for w in self._workers if w.conn is ready), None)
                if worker is None:  # retired earlier in this very loop
                    continue
                try:
                    msg = wire.decode_message(ready.recv_bytes())
                except (EOFError, OSError, WireFormatError) as exc:
                    if isinstance(exc, WireFormatError):
                        # Bytes no worker of ours writes: stop trusting the
                        # process and take the standard crash path.
                        worker.endpoint.kill()
                    self._apply(machine.worker_lost(_mono(), worker))
                    continue
                self._apply(self._on_message(worker, msg))
            while self._events:
                kind, payload = self._events.popleft()
                if kind == "submit":
                    req = self._live[payload.id] = payload
                    # The deadline counts from the submit() call, so it
                    # covers the wait in this mailbox too.
                    since = req.submitted_at
                    self._apply(machine.submit(_mono(), req.id, req.deadline_s, since))
                elif kind == "cancel":
                    self._apply(machine.cancel(_mono(), payload))
                else:  # close: the last event there is
                    self._apply(machine.close(_mono()))

    def _on_message(self, worker: _Worker, msg: wire.Message) -> list:
        kind, req_id, attempt, payload, span_blob = msg
        now = _mono()
        if kind == wire.HEARTBEAT:
            return self._machine.heartbeat(now, worker, req_id, attempt)
        stale = self._machine.in_flight(worker) != (req_id, attempt)
        if stale or kind not in (wire.OK, wire.ERR):
            # A superseded attempt's reply (the machine would drop it too;
            # asked first so it costs no decode and leaves ``busy_s`` and the
            # trace alone), or not something a worker says.
            return []
        self._m.inc("busy_s", max(0.0, now - worker.dispatched_at))
        req = self._live.get(req_id)
        if req is None:  # cancelled in flight: the reply is discarded unread
            return self._machine.reply(now, worker, req_id, attempt)
        self._ingest_worker_spans(span_blob)
        decode_from = _mono()
        try:
            if kind == wire.ERR:
                (flt_frame,) = payload
                fault = deserialize_fault(flt_frame, request_id=req_id)
            else:
                basis = self.plan.evaluator.basis
                req.outputs = [wire.decode_value(b, basis) for b in payload]
                fault = None
        except ValueError as exc:  # WireFormatError, or not one fault part
            what = "fault" if kind == wire.ERR else "reply"
            fault = WireCorruption(f"{what} frame corrupt: {exc}")
        if isinstance(fault, WireCorruption):
            self._m.inc("wire_corruptions")
            self._close_attempt(req, "wire_corruption")
            self._telemetry.event(
                "wire_corruption", request=req_id, code=WireCorruption.code
            )
        elif fault is not None:
            self._close_attempt(req, "error", code=fault.code)
        else:
            self._span(req, "reply_decode", decode_from)
        return self._machine.reply(now, worker, req_id, attempt, fault)

    def _do_kill(self, worker: _Worker, status: str, req_id, kill=None) -> None:
        """Carry out a :class:`~repro.runtime.policy.Kill` (or the end of
        ``close()``): drop ``worker`` from the pool — by force unless it died on
        its own: a SIGKILL locally, closing the slot's socket on a worker host —
        recording why and closing the attempt it was serving."""
        if kill is None:
            kill = status != "crash"
        pid = worker.proc.pid
        if req_id is not None:  # worker utilization = busy_s / (workers * uptime)
            self._m.inc("busy_s", max(0.0, _mono() - worker.dispatched_at))
        if worker in self._workers:
            self._workers.remove(worker)
        if kill:
            worker.endpoint.kill()
        with suppress(OSError):
            worker.conn.close()
        worker.proc.join(timeout=2.0 if kill else 1.0)
        if status in _WORKER_FAULTS:
            counter, event, kind = _WORKER_FAULTS[status]
            self._m.inc(counter)
            self._telemetry.event(
                event,
                pool=self._m.labels["pool"],
                worker_pid=pid,
                host=worker.host,
                request=req_id,
                code=kind.code,
            )
        if req_id in self._live:
            self._close_attempt(self._live[req_id], status, worker_pid=pid)

    def _apply(self, actions) -> None:
        """Carry out the machine's actions, each by its ``_do_`` method, in the
        order it produced them: what one reports back (a dead pipe under a
        dispatch, a spawn's outcome) may trip the breaker, and the answer to
        that presumes every earlier action done — it queues behind the rest."""
        todo = deque(actions)
        while todo:
            action = todo.popleft()
            do = getattr(self, "_do_" + type(action).__name__.lower())
            todo.extend(do(*action) or ())

    def _do_dispatch(self, worker: _Worker, req_id: int, attempt: int):
        req = self._live[req_id]
        blobs = req.blobs
        if self.chaos is not None:
            action = self.chaos.decide("pre_dispatch", req_id, attempt)
            if action is not None and action.kind == "flip":
                blobs = [flip_frame_byte(blobs[0], action), *blobs[1:]]
        trace_blob = None
        if req.backoff_from is not None:
            self._span(req, "backoff", req.backoff_from, after_attempt=attempt - 1)
        if not req.delivered:
            self._span(req, "queue_wait", req.submitted_at)
        if req.trace is not None:
            req.attempt_span = self._telemetry.child_span(
                f"attempt-{attempt}",
                req.trace,
                category="serve",
                worker_pid=worker.proc.pid,
            )
            trace_blob = serialize_trace_context(req.attempt_span.ctx)
        req.backoff_from = None
        request = wire.encode_message(wire.REQUEST, req_id, attempt, blobs, trace_blob)
        try:
            worker.conn.send_bytes(request)
        except (BrokenPipeError, OSError):
            self._close_attempt(req, "send_failed")
            return self._machine.worker_lost(_mono(), worker, delivered=False)
        worker.dispatched_at = _mono()
        req.delivered += 1

    def _do_spawn(self, reason: str):
        """Replace a retired worker, accounting the respawn; a failure (e.g.
        an unreachable worker host) is the machine's to judge, not fatal here."""
        try:
            worker = _Worker(self._transport.spawn())
        except Exception as exc:  # noqa: BLE001 — any spawn failure is reported
            why = f"respawn after {reason} failed: {exc}"
            return self._machine.spawn_failed(_mono(), why)
        self._workers.append(worker)
        self._m.inc("respawns")
        self._telemetry.event(
            "respawn", pool=self._m.labels["pool"], reason=reason, host=worker.host
        )
        return self._machine.spawned(_mono(), worker)

    def _do_retry(self, req_id: int, attempt: int, delay: float, code: int) -> None:
        self._m.inc("retries")
        self._telemetry.event(
            "retry", request=req_id, attempt=attempt, code=code, backoff_s=delay
        )
        self._live[req_id].backoff_from = _mono()

    def _do_finish(self, req_id: int, status: str, *ending) -> None:
        self._finish(self._live.pop(req_id), status, *ending)

    def _do_stop(self, reason: str) -> None:
        """Nothing to carry out: a ``Finish`` refuses each request."""

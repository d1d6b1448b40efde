"""Telemetry layer: registry semantics, TRC1 wire frames, cross-process
trace propagation through the sharded pool, and deterministic span
structure under seeded chaos."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.ckks.serialization import WireFormatError
from repro.runtime import (
    CtSpec,
    FaultPlan,
    FaultPolicy,
    ServingConfig,
    ShardedExecutor,
    compile_fn,
    get_telemetry,
)
from repro.runtime.chaos import FaultAction
from repro.runtime.telemetry import Telemetry, TraceContext, WorkerSpanRecorder
from repro.runtime.wire import (
    deserialize_trace_frame,
    serialize_trace_context,
    serialize_worker_spans,
)

RESULT_TIMEOUT = 120.0


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Every test sees the process-wide registry zeroed and disabled."""
    telemetry = get_telemetry()
    telemetry.reset()
    telemetry.disable()
    yield telemetry
    telemetry.reset()
    telemetry.disable()


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_counters_gauges_histograms(self):
        t = Telemetry()
        t.counter("reqs", pool="a").inc()
        t.counter("reqs", pool="a").inc(2)
        t.counter("reqs", pool="b").inc()
        assert t.counter("reqs", pool="a").value == 3
        assert t.counter("reqs", pool="b").value == 1
        t.gauge("depth").set(7)
        assert t.gauge("depth").value == 7
        h = t.histogram("lat_s")
        for v in (0.001, 0.002, 0.5):
            h.observe(v)
        assert h.count == 3
        assert h.summary()["max_s"] == 0.5
        assert h.summary()["min_s"] == 0.001

    def test_metrics_always_on_when_tracing_disabled(self):
        t = Telemetry()  # enabled=False
        t.counter("n").inc()
        assert t.counter("n").value == 1
        assert t.start_trace("x").ctx.sampled is False
        assert t.spans() == []

    def test_group_is_a_view_and_reset_keeps_cells(self):
        t = Telemetry()
        g = t.group("exec", pool="0").declare("submitted", "completed")
        g.inc("submitted", 5)
        assert g.to_dict() == {"submitted": 5, "completed": 0}
        # registry and group see the same cell
        assert t.counter("exec_submitted", pool="0").value == 5
        t.reset()
        assert g.to_dict() == {"submitted": 0, "completed": 0}
        g.inc("submitted")  # the cell is still live after reset
        assert t.counter("exec_submitted", pool="0").value == 1

    def test_prometheus_exposition(self):
        t = Telemetry()
        t.counter("hits", store="s1").inc(4)
        t.gauge("depth").set(2)
        t.histogram("lat_s").observe(0.002)
        text = t.export_prometheus()
        assert "# TYPE hits counter" in text
        assert 'hits{store="s1"} 4' in text
        assert "depth 2" in text
        assert 'lat_s_bucket{le="+Inf"} 1' in text
        assert "lat_s_count 1" in text

    def test_sampling_gates_spans_not_counters(self):
        t = Telemetry(enabled=True, sample_rate=0.0)
        span = t.start_trace("req")
        assert not span  # no-op handle
        span.end()
        t.counter("n").inc()
        assert t.spans() == []
        assert t.counter("n").value == 1

    def test_events_record_only_when_enabled(self):
        t = Telemetry()
        t.event("retry", code=1)
        assert t.export_events() == []
        t.enable()
        t.event("retry", code=1)
        [event] = t.export_events()
        assert event["event"] == "retry" and event["code"] == 1


# ---------------------------------------------------------------------------
# Spans + exports
# ---------------------------------------------------------------------------


class TestSpans:
    def test_nesting_and_structure(self):
        t = Telemetry(enabled=True)
        root = t.start_trace("request")
        with t.child_span("phase1", root.ctx):
            pass
        child = t.child_span("phase2", root.ctx)
        with t.child_span("inner", child.ctx):
            pass
        child.end()
        root.end()
        [trace_id] = t.trace_ids()
        structure = t.span_structure(trace_id)
        assert structure == [
            {
                "name": "request",
                "category": "request",
                "children": [
                    {"name": "phase1", "category": "request", "children": []},
                    {
                        "name": "phase2",
                        "category": "request",
                        "children": [
                            {
                                "name": "inner",
                                "category": "request",
                                "children": [],
                            }
                        ],
                    },
                ],
            }
        ]

    def test_span_end_is_idempotent(self):
        t = Telemetry(enabled=True)
        span = t.start_trace("x")
        span.end()
        span.end()
        assert len(t.spans()) == 1

    def test_chrome_export_shape(self, tmp_path):
        t = Telemetry(enabled=True)
        with t.start_trace("request") as root:
            t.record_span("leg", root.ctx, 1.0, 2.0)
        path = tmp_path / "trace.json"
        doc = t.export_chrome_trace(path)
        assert json.loads(path.read_text()) == doc
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        metadata = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert len(complete) == 2
        assert any(m["name"] == "process_name" for m in metadata)
        for e in complete:
            assert e["ts"] >= 0 and e["dur"] >= 0
            assert {"trace_id", "span_id", "parent_id"} <= set(e["args"])


# ---------------------------------------------------------------------------
# TRC1 wire format
# ---------------------------------------------------------------------------


class TestTrc1:
    def test_context_round_trip(self):
        ctx = TraceContext(trace_id=71, span_id=13, sampled=True)
        kind, out = deserialize_trace_frame(serialize_trace_context(ctx))
        assert kind == "ctx" and out == ctx

    def test_worker_span_batch_round_trip(self):
        rec = WorkerSpanRecorder(TraceContext(5, 9, True), attempt=2)
        with rec.span("evaluate"):
            pass
        kind, spans = deserialize_trace_frame(rec.payload())
        assert kind == "spans"
        [span] = spans
        assert span["trace_id"] == 5 and span["parent_id"] == 9
        assert span["name"] == "evaluate"
        assert span["attrs"]["status"] == "ok"

    def test_worker_ids_are_deterministic(self):
        def ids():
            rec = WorkerSpanRecorder(TraceContext(5, 9, True), attempt=1)
            with rec.span("a"):
                pass
            with rec.span("b"):
                pass
            return [s["span_id"] for s in rec.spans]

        assert ids() == ids()
        assert len(set(ids())) == 2

    def test_inactive_recorder_is_inert(self):
        rec = WorkerSpanRecorder(None, attempt=0)
        with rec.span("evaluate"):
            pass
        assert rec.spans == [] and rec.payload() is None

    def test_corrupt_frames_raise(self):
        blob = bytearray(serialize_trace_context(TraceContext(1, 2, True)))
        blob[-1] ^= 0xFF  # break the CRC
        with pytest.raises(WireFormatError):
            deserialize_trace_frame(bytes(blob))
        with pytest.raises(WireFormatError):
            deserialize_trace_frame(serialize_worker_spans([])[:8])


# ---------------------------------------------------------------------------
# Cross-process propagation through the pool
# ---------------------------------------------------------------------------


def _make_plan(rctx, rlk):
    spec = CtSpec(level=rctx.params.num_primes, scale=rctx.params.scale)

    def program(ev, x, y):
        return (ev.multiply_relin_rescale(ev.add(x, y), y, rlk),)

    return compile_fn(program, rctx.evaluator, [spec, spec])


def _encrypt(rctx, rng):
    level = rctx.params.num_primes
    values = rng.standard_normal(rctx.params.degree // 2)
    return rctx.encryptor.encrypt(rctx.encoder.encode(values, level=level))


def _serve(plan, rctx, *, chaos, n_requests, telemetry):
    rng = np.random.default_rng(11)
    batches = [[_encrypt(rctx, rng), _encrypt(rctx, rng)] for _ in range(n_requests)]
    pool = ShardedExecutor(
        plan,
        config=ServingConfig(
            num_workers=2,
            chaos=chaos,
            fault_policy=FaultPolicy(max_attempts=5),
        ),
    )
    with pool:
        pool.run_batch(batches, timeout=RESULT_TIMEOUT)
    return {
        trace_id: telemetry.span_structure(trace_id)
        for trace_id in sorted(telemetry.trace_ids())
    }


class TestFusedReplaySpanBudget:
    """What tracing adds to the fused hot loop is exact: one root span per
    replay plus one child per fused dispatch when sampled in, nothing
    when off or sampled out.  (Its *time* cost has no timing gate until a
    paired ``bench/`` workload exists — see docs/observability.md.)"""

    def test_span_count_per_mode(self, rctx, rlk, clean_telemetry):
        telemetry = clean_telemetry
        plan = _make_plan(rctx, rlk)
        rng = np.random.default_rng(5)
        batch = [[_encrypt(rctx, rng), _encrypt(rctx, rng)] for _ in range(3)]
        want = plan.run_batch(batch, fused=True)
        assert telemetry.spans() == []  # disabled: the plain loop ran

        telemetry.enable(sample_rate=0.0)
        plan.run_batch(batch, fused=True)
        assert telemetry.spans() == []  # hooks reached, every trace sampled out

        telemetry.enable(sample_rate=1.0)
        got = plan.run_batch(batch, fused=True)
        dispatches = plan.stats()["dispatch_count_fused"]
        assert len(telemetry.spans()) == len(batch) * (1 + dispatches)
        assert len(telemetry.trace_ids()) == len(batch)
        for (w,), (g,) in zip(want, got):  # tracing never touches the bits
            assert all(np.array_equal(a.data, b.data) for a, b in zip(w.parts, g.parts))


class TestCrossProcess:
    def test_crash_retry_yields_one_nested_trace(self, rctx, rlk, clean_telemetry):
        telemetry = clean_telemetry
        telemetry.enable()
        plan = _make_plan(rctx, rlk)
        chaos = FaultPlan(
            seed=7,
            scripted={
                ("pre_evaluate", 0, 0): FaultAction(
                    kind="crash", site="pre_evaluate"
                )
            },
        )
        structures = _serve(plan, rctx, chaos=chaos, n_requests=3, telemetry=telemetry)
        telemetry.disable()

        # Request 0 is the crash-retried one; find its trace by shape.
        retried = []
        for trace_id, structure in structures.items():
            spans = telemetry.spans(trace_id)
            attempts = [s for s in spans if s.name.startswith("attempt-")]
            if len(attempts) >= 2:
                retried.append((trace_id, structure, spans, attempts))
        assert len(retried) == 1
        trace_id, structure, spans, attempts = retried[0]

        names = [s.name for s in spans]
        assert names.count("attempt-0") == 1
        assert names.count("attempt-1") == 1
        assert names.count("backoff") == 1
        # Exactly one success span: the retry's worker-side evaluate.
        successes = [
            s
            for s in spans
            if s.name == "evaluate" and s.attrs.get("status") == "ok"
        ]
        assert len(successes) == 1
        # ... and it crossed the process boundary under the same trace id.
        parent_pids = {s.pid for s in spans if s.name.startswith("attempt-")}
        worker_pids = {s.pid for s in spans if s.category == "worker"}
        assert worker_pids and worker_pids.isdisjoint(parent_pids)
        # Attempt spans are children of the request root; worker spans
        # are children of their attempt span.
        [root] = structure
        assert root["name"] == "request"
        child_names = [c["name"] for c in root["children"]]
        assert "attempt-0" in child_names and "attempt-1" in child_names
        retry_children = [
            c["name"]
            for c in root["children"]
            if c["name"] == "attempt-1"
            for c in c["children"]
        ]
        assert retry_children == ["deserialize", "evaluate", "serialize"]
        # The crashed attempt's worker spans died with the worker.
        first_attempt = next(
            c for c in root["children"] if c["name"] == "attempt-0"
        )
        assert first_attempt["children"] == []
        # Outcome attrs recorded on the parent-side attempt spans.
        by_name = {s.name: s for s in attempts}
        assert by_name["attempt-0"].attrs["status"] == "crash"
        assert by_name["attempt-1"].attrs["status"] == "ok"

    def test_seeded_chaos_span_structure_is_reproducible(
        self, rctx, rlk, clean_telemetry
    ):
        telemetry = clean_telemetry
        plan = _make_plan(rctx, rlk)

        def run():
            telemetry.reset()
            telemetry.enable()
            chaos = FaultPlan(
                seed=5,
                crash_rate=0.25,
                scripted={
                    ("pre_evaluate", 1, 0): FaultAction(
                        kind="crash", site="pre_evaluate"
                    )
                },
            )
            structures = _serve(
                plan, rctx, chaos=chaos, n_requests=4, telemetry=telemetry
            )
            telemetry.disable()
            return json.dumps(structures, sort_keys=True)

        first, second = run(), run()
        assert first == second
        assert "attempt-1" in first  # the chaos actually retried something

    def test_disabled_pool_records_no_spans(self, rctx, rlk, clean_telemetry):
        telemetry = clean_telemetry
        plan = _make_plan(rctx, rlk)
        rng = np.random.default_rng(3)
        with ShardedExecutor(plan, config=ServingConfig(num_workers=1)) as pool:
            pool.run_batch(
                [[_encrypt(rctx, rng), _encrypt(rctx, rng)]],
                timeout=RESULT_TIMEOUT,
            )
            stats = pool.stats()
        assert telemetry.spans() == []
        assert telemetry.export_events() == []
        assert stats["completed"] == 1  # counters still flow when disabled

"""Lazy computation-graph runtime: trace, optimize, and batch-execute
CKKS programs.

Instead of driving the eager :class:`~repro.ckks.evaluator.Evaluator` one
op at a time, write the program once against the shared surface and let
the runtime plan it::

    from repro.runtime import CtSpec, compile_fn

    def model(ev, x):
        sq = ev.multiply_relin_rescale(x, x, relin_keys)
        return ev.add(ev.rotate(sq, 1, galois_keys), sq)

    plan = compile_fn(model, ctx.evaluator, [CtSpec(level=6, scale=delta)])
    [out] = plan.run([ct])                  # bit-identical to eager
    outs = plan.run_batch([[ct] for ct in requests])   # throughput serving

Pipeline: :func:`trace` records an op DAG over symbolic handles
(:mod:`repro.runtime.trace`); optimizer passes eliminate common
subexpressions and dead nodes, merge stacked rescales, and validate
level/scale alignment at plan time (:mod:`repro.runtime.passes`); the
resulting :class:`~repro.runtime.plan.ExecutionPlan` belongs to the
caller and is executed two ways: ``plan.run`` is the reference
interpreter (one eager call per node), and ``plan.run_batch`` is the
fused replayer — an arena-backed :class:`~repro.runtime.plan.FusedExecutor`
that preassigns every intermediate to a slot in one preallocated pool and
collapses MAC/sum trees and rotation families into single kernel
dispatches (both run each op through its one row function in
:mod:`repro.ckks.evaluator`).  A rotation family's one batched gadget
decomposition is the only place rotations share one (hoisting).
:mod:`repro.runtime.bridge` converts traced plans into accelerator
workload/queue form for scheduler experiments.

For serving, the stable surface is :func:`~repro.runtime.serving.serve`,
which takes a compiled plan, plus a frozen
:class:`~repro.runtime.serving.ServingConfig`::

    from repro.runtime import ServingConfig, serve

    with serve(plan, ServingConfig(num_workers=4, transport="tcp")) as pool:
        outputs = pool.run_batch(batches)        # or pool.submit(inputs)

What ``serve`` returns is the :class:`~repro.runtime.executor.ShardedExecutor`
itself: it shards requests across a worker pool (bit-identical,
crash-recovering, order-preserving) reached through a pluggable
transport — fork+pipe or TCP worker-host sessions
(:mod:`repro.runtime.transport` / :mod:`repro.runtime.coordinator`,
``docs/serving.md``); every byte that crosses that boundary is laid out
in :mod:`repro.runtime.wire`.  ``submit`` returns a future per request,
so a caller overlaps its own encrypt/decrypt with the pool's evaluation
by keeping a few requests in flight.

Compiled plans travel as bytes: :func:`~repro.runtime.plan_io.serialize_plan`
encodes an :class:`~repro.runtime.plan.ExecutionPlan` as one
self-contained ``EPL1`` blob (each distinct constant inline once, named
by content fingerprint), :func:`~repro.runtime.plan_io.deserialize_plan`
rebuilds it without re-tracing, and ``ServingConfig(transport="tcp")``
sends exactly those bytes to each worker host instead of relying on
fork-shared state.  See ``docs/architecture.md`` for the layer map and
``docs/formats.md`` for the wire formats.

Observability: :mod:`repro.runtime.telemetry` is the process-wide
metric registry and cross-process tracer behind every layer — compiler
passes, fused replay and the executor all report into it,
and per-request trace contexts ride the worker pipe as ``TRC1`` frames
so one request's spans nest into a single Perfetto-loadable timeline
across processes and retries (see
``docs/observability.md``).
"""

from repro.runtime.bridge import (
    plan_op_counts,
    plan_schedule_comparison,
    plan_to_workload,
)
from repro.runtime.arena import ArenaLayout, BufferArena
from repro.runtime.chaos import FaultAction, FaultPlan
from repro.runtime.executor import ShardedExecutor, WorkerError
from repro.runtime.faults import (
    DeadlineExceeded,
    FaultPolicy,
    HostUnreachable,
    PoisonRequest,
    RequestError,
    WireCorruption,
    WorkerCrash,
    WorkerHang,
)
from repro.runtime.graph import CtSpec, Graph, Node, PtSpec
from repro.runtime.passes import (
    PlanValidationError,
    check_alignment,
    fusion_groups,
    optimize,
)
from repro.runtime.plan import (
    ExecutionPlan,
    FusedExecutor,
    compile_fn,
)
from repro.runtime.plan_io import PlanFormatError, deserialize_plan, serialize_plan
from repro.runtime.serving import ServingConfig, serve
from repro.runtime.transport import Transport
from repro.runtime.telemetry import (
    Span,
    Telemetry,
    TraceContext,
    WorkerSpanRecorder,
    get_telemetry,
)
from repro.runtime.trace import LazyEvaluator, TraceError, trace

__all__ = [
    "CtSpec",
    "PtSpec",
    "Graph",
    "Node",
    "TraceError",
    "LazyEvaluator",
    "trace",
    "PlanValidationError",
    "optimize",
    "fusion_groups",
    "check_alignment",
    "ExecutionPlan",
    "FusedExecutor",
    "ArenaLayout",
    "BufferArena",
    "compile_fn",
    "PlanFormatError",
    "serialize_plan",
    "deserialize_plan",
    "plan_op_counts",
    "plan_to_workload",
    "plan_schedule_comparison",
    "ShardedExecutor",
    "WorkerError",
    "RequestError",
    "WorkerCrash",
    "HostUnreachable",
    "WorkerHang",
    "DeadlineExceeded",
    "WireCorruption",
    "PoisonRequest",
    "FaultPolicy",
    "FaultAction",
    "FaultPlan",
    "serve",
    "ServingConfig",
    "Transport",
    "Telemetry",
    "TraceContext",
    "Span",
    "WorkerSpanRecorder",
    "get_telemetry",
]

# Names the frozen benchmark API surface (bench/api_surface.json)
# resolves; not part of the public surface.
ServingSession = ShardedExecutor


def clear_plan_cache() -> None:
    """Nothing to clear: a compiled plan belongs to its caller."""

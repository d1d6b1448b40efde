"""Unified telemetry: metrics registry, cross-process tracing, timelines.

One process-wide :class:`Telemetry` object (reachable via
:func:`get_telemetry`) is the single source of truth for everything the
pipeline measures:

* **Metrics** — named counters / gauges / histograms with sorted label
  sets.  These are *always on*: they are plain dict-slot updates, cheap
  enough that `ShardedExecutor.stats()` and `plan_cache_info()` are
  thin views over this registry instead of parallel hand-kept dicts.  :class:`MetricGroup` bundles the
  counters of one subsystem under a shared prefix + label set.
* **Traces** — monotonic-clock spans grouped by a per-request trace ID,
  minted at `ShardedExecutor.submit` ingress and propagated
  across the worker process boundary as a ``TRC1`` frame riding the
  request tuple next to the ``ENV1`` payload blobs.  A request's spans —
  queue wait, backoff sleeps, per-attempt dispatch, worker-side
  deserialize/evaluate/serialize, reply decode — nest into one causally
  ordered timeline even across crash/retry/hang-kill, because every
  attempt span carries the same trace ID and worker-side spans are
  shipped back in the reply and re-parented under their attempt span.
  Tracing is **disabled by default** (`enabled=False`) and additionally
  gated by a deterministic ``sample_rate`` knob for high-QPS runs; when
  off, every tracing entry point returns a shared no-op handle.
* **Events** — a structured JSON-ready log of discrete occurrences
  (retries, quarantines, hang kills, respawns), each tagged with the
  stable :mod:`repro.runtime.faults` code where one applies.

Exports: :meth:`Telemetry.export_chrome_trace` emits Chrome trace-event
JSON (``ph:"X"`` complete events, microsecond timestamps, one process
row per OS pid and one thread row per trace) that loads directly in
Perfetto; :meth:`Telemetry.export_prometheus` emits a text-exposition
snapshot of the metric registry; :meth:`Telemetry.export_events` returns
the event log.  :meth:`Telemetry.span_structure` reduces a trace to its
canonical nested ``(name, category, children)`` shape — the form the
determinism tests compare byte-for-byte across seeded chaos repeats.

Clock discipline: :func:`now` is ``time.monotonic`` — CLOCK_MONOTONIC on
Linux, which forked workers share with the parent, so parent- and
worker-recorded span timestamps are directly comparable and every
latency field in the stack is sourced from this one helper.  IDs are
deterministic: trace/span IDs come from per-process counters,
worker-side span IDs are derived by hashing
``(trace_id, attempt, seq)`` — so a seeded chaos run produces an
identical span structure on every repeat.

Wire format (``TRC1``, documented in ``docs/formats.md``): the payload
of a standard :func:`repro.ckks.serialization.pack_frame` container,
first byte a *kind* discriminator — kind 0 is a trace context
(``<u64 trace_id, u64 parent_span_id, u8 sampled>``, parent→worker),
kind 1 is a worker span batch (``u32`` length + UTF-8 JSON list,
worker→parent).  A missing/None field means "not traced" and costs the
hot path one ``is None`` check.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import struct
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.ckks.serialization import WireFormatError, pack_frame, read_frame

__all__ = [
    "TRACE_MAGIC",
    "now",
    "TraceContext",
    "Span",
    "SpanHandle",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricGroup",
    "Telemetry",
    "WorkerSpanRecorder",
    "get_telemetry",
    "serialize_trace_context",
    "serialize_worker_spans",
    "deserialize_trace_frame",
]

# Trace-context / worker-span frames riding the worker pipe next to the
# ENV1 payload blobs (see docs/formats.md, "TRC1").
TRACE_MAGIC = b"TRC1"

_CTX_STRUCT = struct.Struct("<QQB")  # trace_id, parent_span_id, sampled

#: The one clock every latency field in the stack reads.  CLOCK_MONOTONIC
#: is shared across forked processes on Linux, so worker span timestamps
#: are directly comparable with the parent's.
now = time.monotonic


def _hash_id(*parts) -> int:
    """Deterministic 63-bit id from a tuple of ints/strings."""
    h = hashlib.blake2b(repr(parts).encode(), digest_size=8)
    return int.from_bytes(h.digest(), "little") >> 1


@dataclass(frozen=True)
class TraceContext:
    """What crosses a boundary: enough to parent remote spans."""

    trace_id: int
    span_id: int
    sampled: bool


NOOP_CTX = TraceContext(0, 0, False)


@dataclass
class Span:
    """One closed (complete) span in the in-memory trace buffer."""

    trace_id: int
    span_id: int
    parent_id: int  # 0 == root
    name: str
    category: str
    start_s: float
    end_s: float
    pid: int
    attrs: dict = field(default_factory=dict)


class Counter:
    """Monotonically *intended* numeric cell (nothing checks the sign of
    a delta; float deltas accumulate seconds, e.g. ``busy_s``)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: tuple) -> None:
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, n=1) -> None:
        self.value += n


class Gauge:
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: tuple) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, v) -> None:
        self.value = v


class Histogram:
    """Fixed log-spaced latency buckets + count/sum/min/max."""

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "count", "sum", "min", "max")

    DEFAULT_BOUNDS = (
        1e-5, 1e-4, 1e-3, 4e-3, 1.6e-2, 6.4e-2, 2.56e-1, 1.024, 4.096,
    )

    def __init__(self, name: str, labels: tuple, bounds=None) -> None:
        self.name = name
        self.labels = labels
        self.bounds = tuple(bounds) if bounds is not None else self.DEFAULT_BOUNDS
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = 0.0

    def observe(self, v: float) -> None:
        self.count += 1
        self.sum += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        for i, bound in enumerate(self.bounds):
            if v <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    def summary(self) -> dict:
        return {
            "count": self.count,
            "sum_s": self.sum,
            "mean_s": self.sum / self.count if self.count else 0.0,
            "min_s": self.min if self.count else 0.0,
            "max_s": self.max,
        }


class MetricGroup:
    """One subsystem's counters under a shared prefix + label set.

    The executor's ``stats()`` and ``plan_cache_info()`` are dict views
    over groups like this — the registry is the single source of truth,
    the old accessors stay as thin projections.
    """

    __slots__ = ("_telemetry", "prefix", "labels", "_cells")

    def __init__(self, telemetry: "Telemetry", prefix: str, labels: dict) -> None:
        self._telemetry = telemetry
        self.prefix = prefix
        self.labels = dict(labels)
        self._cells: dict[str, Counter] = {}

    def declare(self, *names: str) -> "MetricGroup":
        for name in names:
            self.counter(name)
        return self

    def counter(self, name: str) -> Counter:
        cell = self._cells.get(name)
        if cell is None:
            cell = self._telemetry.counter(f"{self.prefix}_{name}", **self.labels)
            self._cells[name] = cell
        return cell

    def inc(self, name: str, n=1) -> None:
        self.counter(name).inc(n)

    def get(self, name: str):
        return self.counter(name).value

    def to_dict(self) -> dict:
        return {name: cell.value for name, cell in self._cells.items()}

    def reset(self) -> None:
        for cell in self._cells.values():
            cell.value = 0


class SpanHandle:
    """An open span; close with :meth:`end` or as a context manager."""

    __slots__ = ("_telemetry", "name", "category", "ctx", "parent_id", "start_s", "attrs")

    def __init__(self, telemetry, name, category, ctx, parent_id, attrs) -> None:
        self._telemetry = telemetry
        self.name = name
        self.category = category
        self.ctx = ctx
        self.parent_id = parent_id
        self.start_s = now()
        self.attrs = attrs

    def end(self, **attrs) -> None:
        if self._telemetry is None:  # already closed
            return
        telemetry, self._telemetry = self._telemetry, None
        if attrs:
            self.attrs = {**self.attrs, **attrs}
        telemetry._append_span(
            Span(
                trace_id=self.ctx.trace_id,
                span_id=self.ctx.span_id,
                parent_id=self.parent_id,
                name=self.name,
                category=self.category,
                start_s=self.start_s,
                end_s=now(),
                pid=os.getpid(),
                attrs=self.attrs,
            )
        )

    def __enter__(self) -> "SpanHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.end()


class _NoopSpan:
    """Shared do-nothing handle returned whenever tracing is off."""

    __slots__ = ()
    ctx = NOOP_CTX
    name = ""
    category = ""

    def end(self, **attrs) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def __bool__(self) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class Telemetry:
    """Process-wide metric registry + opt-in trace/event recorder."""

    def __init__(self, *, enabled: bool = False, sample_rate: float = 1.0) -> None:
        self.enabled = enabled
        self.sample_rate = float(sample_rate)
        self._lock = threading.RLock()
        self._counters: dict[tuple, Counter] = {}
        self._gauges: dict[tuple, Gauge] = {}
        self._histograms: dict[tuple, Histogram] = {}
        self._spans: list[Span] = []
        self._events: list[dict] = []
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)

    # -- lifecycle -----------------------------------------------------

    def configure(self, *, enabled: bool | None = None, sample_rate=None) -> None:
        if enabled is not None:
            self.enabled = bool(enabled)
        if sample_rate is not None:
            self.sample_rate = float(sample_rate)

    def enable(self, sample_rate: float = 1.0) -> None:
        self.configure(enabled=True, sample_rate=sample_rate)

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Zero every metric and drop spans/events — but keep the metric
        *objects*, so subsystems holding a :class:`MetricGroup` keep
        writing to live cells after a test-suite reset."""
        with self._lock:
            for counter in self._counters.values():
                counter.value = 0
            for gauge in self._gauges.values():
                gauge.value = 0.0
            for hist in self._histograms.values():
                hist.bucket_counts = [0] * (len(hist.bounds) + 1)
                hist.count = 0
                hist.sum = 0.0
                hist.min = float("inf")
                hist.max = 0.0
            self._spans.clear()
            self._events.clear()
            self._trace_ids = itertools.count(1)
            self._span_ids = itertools.count(1)

    # -- metrics (always on) -------------------------------------------

    @staticmethod
    def _key(name: str, labels: dict) -> tuple:
        return (name, tuple(sorted(labels.items())))

    def counter(self, name: str, **labels) -> Counter:
        key = self._key(name, labels)
        cell = self._counters.get(key)
        if cell is None:
            with self._lock:
                cell = self._counters.setdefault(key, Counter(name, key[1]))
        return cell

    def gauge(self, name: str, **labels) -> Gauge:
        key = self._key(name, labels)
        cell = self._gauges.get(key)
        if cell is None:
            with self._lock:
                cell = self._gauges.setdefault(key, Gauge(name, key[1]))
        return cell

    def histogram(self, name: str, bounds=None, **labels) -> Histogram:
        key = self._key(name, labels)
        cell = self._histograms.get(key)
        if cell is None:
            with self._lock:
                cell = self._histograms.setdefault(
                    key, Histogram(name, key[1], bounds)
                )
        return cell

    def group(self, prefix: str, **labels) -> MetricGroup:
        return MetricGroup(self, prefix, labels)

    # -- tracing (gated on enabled + sampling) -------------------------

    def _sampled(self, trace_id: int) -> bool:
        rate = self.sample_rate
        if rate >= 1.0:
            return True
        if rate <= 0.0:
            return False
        # Deterministic per-trace decision: same id -> same verdict.
        return _hash_id("sample", trace_id) % 10_000 < int(rate * 10_000)

    def start_trace(self, name: str, *, category: str = "request", **attrs):
        """Mint a new trace and open its root span.  Returns the shared
        no-op handle when tracing is disabled or the trace is unsampled."""
        if not self.enabled:
            return NOOP_SPAN
        with self._lock:
            trace_id = next(self._trace_ids)
            if not self._sampled(trace_id):
                return NOOP_SPAN
            span_id = next(self._span_ids)
        ctx = TraceContext(trace_id, span_id, True)
        return SpanHandle(self, name, category, ctx, 0, attrs)

    def child_span(self, name: str, parent: TraceContext, *, category="request", **attrs):
        """Open a span under ``parent`` (a :class:`TraceContext`)."""
        if not self.enabled or not parent.sampled:
            return NOOP_SPAN
        with self._lock:
            span_id = next(self._span_ids)
        ctx = TraceContext(parent.trace_id, span_id, True)
        return SpanHandle(self, name, category, ctx, parent.span_id, attrs)

    def record_span(
        self,
        name: str,
        parent: TraceContext,
        start_s: float,
        end_s: float,
        *,
        category: str = "request",
        **attrs,
    ) -> int:
        """Record an already-elapsed span post hoc (e.g. queue wait,
        measured by timestamps rather than an open handle)."""
        if not self.enabled or not parent.sampled:
            return 0
        with self._lock:
            span_id = next(self._span_ids)
        self._append_span(
            Span(
                trace_id=parent.trace_id,
                span_id=span_id,
                parent_id=parent.span_id,
                name=name,
                category=category,
                start_s=start_s,
                end_s=end_s,
                pid=os.getpid(),
                attrs=attrs,
            )
        )
        return span_id

    def ingest_spans(self, span_dicts) -> None:
        """Adopt spans recorded in another process (a worker's TRC1
        reply batch); they keep their own pid and deterministic ids."""
        if not span_dicts:
            return
        spans = [
            Span(
                trace_id=d["trace_id"],
                span_id=d["span_id"],
                parent_id=d["parent_id"],
                name=d["name"],
                category=d.get("cat", "worker"),
                start_s=d["start_s"],
                end_s=d["end_s"],
                pid=d.get("pid", 0),
                attrs=d.get("attrs", {}),
            )
            for d in span_dicts
        ]
        with self._lock:
            self._spans.extend(spans)

    def _append_span(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    # -- events --------------------------------------------------------

    def event(self, name: str, **fields) -> None:
        """Append one structured occurrence to the event log (enabled
        runs only; events are not subject to trace sampling)."""
        if not self.enabled:
            return
        record = {"ts_s": now(), "event": name, **fields}
        with self._lock:
            self._events.append(record)

    # -- queries -------------------------------------------------------

    def spans(self, trace_id: int | None = None) -> list[Span]:
        with self._lock:
            spans = list(self._spans)
        if trace_id is None:
            return spans
        return [s for s in spans if s.trace_id == trace_id]

    def trace_ids(self) -> list[int]:
        with self._lock:
            seen: dict[int, None] = {}
            for s in self._spans:
                seen.setdefault(s.trace_id, None)
        return list(seen)

    def span_structure(self, trace_id: int) -> list[dict]:
        """Canonical nested shape of one trace: ``(name, category,
        children)`` sorted by start time, ids/timestamps/pids stripped.
        Two runs with identical causal structure produce byte-identical
        JSON dumps of this form — the determinism tests rely on it."""
        spans = sorted(
            self.spans(trace_id), key=lambda s: (s.start_s, s.span_id)
        )
        by_id = {s.span_id: s for s in spans}
        children: dict[int, list[Span]] = {}
        roots: list[Span] = []
        for s in spans:
            if s.parent_id and s.parent_id in by_id:
                children.setdefault(s.parent_id, []).append(s)
            else:
                roots.append(s)

        def build(s: Span) -> dict:
            return {
                "name": s.name,
                "category": s.category,
                "children": [build(c) for c in children.get(s.span_id, [])],
            }

        return [build(r) for r in roots]

    # -- exports -------------------------------------------------------

    def export_chrome_trace(self, path=None) -> dict:
        """Chrome trace-event JSON (Perfetto-loadable): one ``ph:"X"``
        complete event per span, process rows per OS pid, thread rows per
        trace, timestamps rebased to the earliest span."""
        spans = self.spans()
        t0 = min((s.start_s for s in spans), default=0.0)
        parent_pid = os.getpid()
        events: list[dict] = []
        seen_rows: set[tuple[int, int]] = set()
        for pid in sorted({s.pid for s in spans}):
            role = "server" if pid == parent_pid else "worker"
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": f"{role} (pid {pid})"},
                }
            )
        for s in sorted(spans, key=lambda s: (s.start_s, s.span_id)):
            row = (s.pid, s.trace_id)
            if row not in seen_rows:
                seen_rows.add(row)
                events.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": s.pid,
                        "tid": s.trace_id,
                        "args": {"name": f"trace {s.trace_id}"},
                    }
                )
            events.append(
                {
                    "name": s.name,
                    "cat": s.category,
                    "ph": "X",
                    "ts": (s.start_s - t0) * 1e6,
                    "dur": max(0.0, (s.end_s - s.start_s) * 1e6),
                    "pid": s.pid,
                    "tid": s.trace_id,
                    "args": {
                        "trace_id": s.trace_id,
                        "span_id": s.span_id,
                        "parent_id": s.parent_id,
                        **s.attrs,
                    },
                }
            )
        doc = {"traceEvents": events, "displayTimeUnit": "ms"}
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1)
        return doc

    def export_prometheus(self) -> str:
        """Prometheus-style text exposition of the metric registry."""

        def fmt_labels(labels: tuple, extra: tuple = ()) -> str:
            items = [*labels, *extra]
            if not items:
                return ""
            inner = ",".join(f'{k}="{v}"' for k, v in items)
            return "{" + inner + "}"

        lines: list[str] = []
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            hists = sorted(self._histograms.items())
        typed: set[str] = set()
        for (name, labels), cell in counters:
            if name not in typed:
                typed.add(name)
                lines.append(f"# TYPE {name} counter")
            lines.append(f"{name}{fmt_labels(labels)} {cell.value}")
        for (name, labels), cell in gauges:
            if name not in typed:
                typed.add(name)
                lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name}{fmt_labels(labels)} {cell.value}")
        for (name, labels), hist in hists:
            if name not in typed:
                typed.add(name)
                lines.append(f"# TYPE {name} histogram")
            cumulative = 0
            for bound, n in zip(hist.bounds, hist.bucket_counts):
                cumulative += n
                lines.append(
                    f"{name}_bucket"
                    f"{fmt_labels(labels, (('le', f'{bound:g}'),))} {cumulative}"
                )
            cumulative += hist.bucket_counts[-1]
            lines.append(
                f"{name}_bucket{fmt_labels(labels, (('le', '+Inf'),))} {cumulative}"
            )
            lines.append(f"{name}_sum{fmt_labels(labels)} {hist.sum}")
            lines.append(f"{name}_count{fmt_labels(labels)} {hist.count}")
        return "\n".join(lines) + "\n"

    def export_events(self) -> list[dict]:
        with self._lock:
            return [dict(e) for e in self._events]


class WorkerSpanRecorder:
    """Worker-side span buffer for one request attempt.

    Created from the TRC1 context that rode in with the request; inert
    (zero-cost spans) when the attempt is untraced.  Span ids are
    ``blake2b(trace_id, attempt, seq)`` so they are deterministic,
    collision-free against the parent's counter-minted ids, and
    reproducible across seeded chaos repeats.  The recorded batch ships
    back in the reply tuple and is re-parented under the attempt span by
    :meth:`Telemetry.ingest_spans`.
    """

    __slots__ = ("ctx", "attempt", "spans", "_seq")

    def __init__(self, ctx: TraceContext | None, attempt: int) -> None:
        self.ctx = ctx if ctx is not None and ctx.sampled else None
        self.attempt = attempt
        self.spans: list[dict] = []
        self._seq = 0

    @property
    def active(self) -> bool:
        return self.ctx is not None

    @contextmanager
    def span(self, name: str, **attrs):
        if self.ctx is None:
            yield
            return
        start = now()
        try:
            yield
        except BaseException:
            self._record(name, start, {**attrs, "status": "error"})
            raise
        else:
            self._record(name, start, {"status": "ok", **attrs})

    def _record(self, name: str, start: float, attrs: dict) -> None:
        self._seq += 1
        self.spans.append(
            {
                "trace_id": self.ctx.trace_id,
                "span_id": _hash_id(
                    self.ctx.trace_id, self.attempt, self._seq, name
                ),
                "parent_id": self.ctx.span_id,
                "name": name,
                "cat": "worker",
                "start_s": start,
                "end_s": now(),
                "pid": os.getpid(),
                "attrs": attrs,
            }
        )

    def payload(self) -> bytes | None:
        if not self.spans:
            return None
        return serialize_worker_spans(self.spans)


# ----------------------------------------------------------------------
# TRC1 wire helpers
# ----------------------------------------------------------------------


def serialize_trace_context(ctx: TraceContext) -> bytes:
    """Parent→worker TRC1 frame (kind 0): the attempt's trace context."""
    body = _CTX_STRUCT.pack(ctx.trace_id, ctx.span_id, 1 if ctx.sampled else 0)
    return pack_frame(TRACE_MAGIC, b"\x00" + body)


def serialize_worker_spans(spans: list[dict]) -> bytes:
    """Worker→parent TRC1 frame (kind 1): a closed-span batch."""
    blob = json.dumps(spans, separators=(",", ":")).encode("utf-8")
    return pack_frame(TRACE_MAGIC, b"\x01" + struct.pack("<I", len(blob)) + blob)


def deserialize_trace_frame(frame: bytes):
    """Decode either TRC1 kind.  Returns ``("ctx", TraceContext)`` or
    ``("spans", list[dict])``; raises :class:`WireFormatError` on a
    malformed frame (CRC, tag, kind, or length mismatch)."""
    tag, payload, _ = read_frame(frame, 0)
    if tag != TRACE_MAGIC:
        raise WireFormatError(f"expected TRC1 frame, got tag {tag!r}")
    if not payload:
        raise WireFormatError("empty TRC1 payload")
    kind = payload[0]
    body = payload[1:]
    if kind == 0:
        if len(body) != _CTX_STRUCT.size:
            raise WireFormatError(
                f"TRC1 context payload is {len(body)} bytes, "
                f"expected {_CTX_STRUCT.size}"
            )
        trace_id, span_id, sampled = _CTX_STRUCT.unpack(body)
        return ("ctx", TraceContext(trace_id, span_id, bool(sampled)))
    if kind == 1:
        if len(body) < 4:
            raise WireFormatError("truncated TRC1 span batch header")
        (length,) = struct.unpack_from("<I", body, 0)
        blob = body[4 : 4 + length]
        if len(blob) != length:
            raise WireFormatError(
                f"TRC1 span batch is {len(blob)} bytes, header says {length}"
            )
        try:
            spans = json.loads(blob.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            raise WireFormatError(f"TRC1 span batch is not JSON: {exc}") from exc
        if not isinstance(spans, list):
            raise WireFormatError("TRC1 span batch must decode to a list")
        return ("spans", spans)
    raise WireFormatError(f"unknown TRC1 payload kind {kind}")


# ----------------------------------------------------------------------
# Process-wide singleton
# ----------------------------------------------------------------------

_TELEMETRY = Telemetry()


def get_telemetry() -> Telemetry:
    """The process-wide registry every subsystem writes to."""
    return _TELEMETRY

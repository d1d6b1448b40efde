#!/usr/bin/env python3
"""`obs` — the telemetry CLI: demo a traced chaos run, summarize traces.

Subcommands:

``demo``
    Run a chaos-seeded 2-worker serve with tracing enabled — requests
    kept in flight a window at a time through ``submit()`` futures, one
    of them *scripted* to crash its first attempt's worker, so
    the exported timeline always contains a crash→backoff→retry→success
    trace spanning parent and worker processes — then export the three
    telemetry artifacts into ``--out-dir``:

    * ``trace.json``   — Chrome trace-event JSON (open in Perfetto:
      https://ui.perfetto.dev → "Open trace file")
    * ``metrics.prom`` — Prometheus-style text exposition snapshot
    * ``events.json``  — structured event log (retries, respawns, ...)

    The CI telemetry-smoke job runs this and validates ``trace.json``
    with ``scripts/check_trace.py``.

``summarize <trace.json>``
    Print per-trace span trees and per-category time totals for an
    exported Chrome trace file.

Usage::

    PYTHONPATH=src python scripts/obs.py demo --out-dir obs-demo
    PYTHONPATH=src python scripts/obs.py summarize obs-demo/trace.json
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict, deque
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # running from a bare checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from repro.ckks import CkksContext, toy_params
from repro.runtime import (
    CtSpec,
    FaultAction,
    FaultPlan,
    FaultPolicy,
    ServingConfig,
    compile_fn,
    get_telemetry,
    serve,
)

DEGREE = 256
PRIMES = 6
SEED = 23
WINDOW = 4  # requests the demo keeps in flight


def _build_plan(ctx: CkksContext):
    rlk = ctx.relin_keys(levels=[PRIMES, PRIMES - 2])
    gks = ctx.galois_keys([1], levels=[PRIMES])
    spec = CtSpec(level=PRIMES, scale=ctx.params.scale)

    def program(ev, x, y):
        rot = ev.rotate(x, 1, gks)
        return (ev.multiply_relin_rescale(ev.add(rot, y), y, rlk),)

    return compile_fn(program, ctx.evaluator, [spec, spec])


def cmd_demo(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    telemetry = get_telemetry()
    telemetry.reset()
    telemetry.enable(sample_rate=args.sample_rate)

    ctx = CkksContext.create(
        toy_params(degree=DEGREE, num_primes=PRIMES), seed=SEED
    )
    plan = _build_plan(ctx)  # traced under telemetry: compile spans too
    rng = np.random.default_rng(SEED)

    def encrypt(payload):
        return [
            ctx.encryptor.encrypt(ctx.encoder.encode(v, level=PRIMES))
            for v in payload
        ]

    def decrypt(outputs):
        return [
            ctx.encoder.decode(ctx.decryptor.decrypt(o))[: DEGREE // 4]
            for o in outputs
        ]

    payloads = [
        [rng.standard_normal(DEGREE // 2), rng.standard_normal(DEGREE // 2)]
        for _ in range(args.requests)
    ]
    # Scripted crash on request 0's first attempt guarantees the trace
    # the acceptance criteria ask for; the seeded rates add background
    # chaos on top of it.
    chaos = FaultPlan(
        seed=args.chaos_seed,
        crash_rate=args.crash_rate,
        scripted={
            ("pre_evaluate", 0, 0): FaultAction(kind="crash", site="pre_evaluate")
        },
    )
    config = ServingConfig(
        num_workers=args.workers,
        chaos=chaos,
        fault_policy=FaultPolicy(max_attempts=6),
    )
    window = deque()  # up to WINDOW requests in flight, oldest first
    with serve(plan, config) as pool:
        for payload in payloads:
            window.append(pool.submit(encrypt(payload)))
            if len(window) == WINDOW:
                decrypt(window.popleft().result())
        for future in window:
            decrypt(future.result())
        stats = pool.stats()
    telemetry.disable()

    telemetry.export_chrome_trace(out_dir / "trace.json")
    (out_dir / "metrics.prom").write_text(telemetry.export_prometheus())
    (out_dir / "events.json").write_text(
        json.dumps(telemetry.export_events(), indent=1)
    )

    traces = telemetry.trace_ids()
    retried = [
        t
        for t in traces
        if sum(s.name.startswith("attempt-") for s in telemetry.spans(t)) >= 2
    ]
    print(
        f"served {stats['completed']} request(s) on {args.workers} workers "
        f"(failed={stats['errors']}, crashes={stats['worker_crashes']})"
    )
    print(
        f"exported {len(telemetry.spans())} span(s) across {len(traces)} "
        f"trace(s) ({len(retried)} crash-retried) -> {out_dir}/trace.json"
    )
    print(f"metrics -> {out_dir}/metrics.prom; events -> {out_dir}/events.json")
    if not retried:
        print("error: no crash-retried trace in the export", file=sys.stderr)
        return 1
    return 0


def cmd_summarize(args: argparse.Namespace) -> int:
    doc = json.loads(Path(args.trace).read_text())
    spans = [e for e in doc.get("traceEvents", []) if e.get("ph") == "X"]
    if not spans:
        print("no complete spans in trace", file=sys.stderr)
        return 1
    by_trace: dict[int, list[dict]] = defaultdict(list)
    by_category: dict[str, float] = defaultdict(float)
    for e in spans:
        by_trace[e["args"]["trace_id"]].append(e)
        by_category[e.get("cat", "?")] += e["dur"]
    print(f"{len(spans)} spans, {len(by_trace)} traces")
    for cat, total_us in sorted(by_category.items(), key=lambda kv: -kv[1]):
        print(f"  {cat:>10}: {total_us / 1e3:9.2f} ms total")
    for trace_id in sorted(by_trace):
        events = sorted(by_trace[trace_id], key=lambda e: e["ts"])
        by_id = {e["args"]["span_id"]: e for e in events}
        children: dict[int, list[dict]] = defaultdict(list)
        roots = []
        for e in events:
            parent = e["args"].get("parent_id", 0)
            if parent and parent in by_id:
                children[parent].append(e)
            else:
                roots.append(e)

        def show(e, depth):
            print(
                f"  {'  ' * depth}{e['name']:<20} {e['dur'] / 1e3:8.2f} ms "
                f"(pid {e['pid']})"
            )
            for c in children.get(e["args"]["span_id"], []):
                show(c, depth + 1)

        print(f"trace {trace_id}:")
        for root in roots:
            show(root, 1)
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)

    demo = sub.add_parser("demo", help="traced chaos serving run + exports")
    demo.add_argument("--out-dir", default="obs-demo")
    demo.add_argument("--workers", type=int, default=2)
    demo.add_argument("--requests", type=int, default=8)
    demo.add_argument("--chaos-seed", type=int, default=3)
    demo.add_argument("--crash-rate", type=float, default=0.08)
    demo.add_argument("--sample-rate", type=float, default=1.0)
    demo.set_defaults(fn=cmd_demo)

    summ = sub.add_parser("summarize", help="span trees for a trace.json")
    summ.add_argument("trace")
    summ.set_defaults(fn=cmd_summarize)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())

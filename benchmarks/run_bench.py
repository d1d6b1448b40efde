#!/usr/bin/env python3
"""Standalone performance runner: kernels, runtime, serving, plan I/O,
fault-recovery overhead, telemetry overhead, and the transport fabric.

Seven sections, selectable with ``--sections``:

* ``core`` — the hot primitives (mulmod, batched NTT, key switching,
  rotation plain/hoisted, BSGS, a bootstrap step) against the pre-PR
  reference paths, written to ``BENCH_keyswitch.json``;
* ``runtime`` — eager one-op-at-a-time dispatch vs. a compiled
  ``ExecutionPlan`` through the interpreter vs. fused plan replay,
  written to ``BENCH_runtime.json``;
* ``serving`` — the multi-process serving engine: 1/2/4-worker sharded
  ``run_batch`` scaling and streaming vs. materialized-batch latency,
  with each request charged a client-link transfer delay derived from
  the serialization layer's exact wire byte counts (``--link-mbps``),
  written to ``BENCH_serving.json`` next to the dual-RSC scheduler's
  policy makespans for the same queue;
* ``planio`` — plan-artifact costs on the BSGS matmul program:
  trace+optimize (cold compile) vs. trace+disk-store load vs. raw
  EPL1 deserialization, plus serialize time and blob size, written to
  ``BENCH_planio.json``;
* ``chaos`` — fault-recovery overhead: the same served batch under
  seeded injected worker crashes (5/10/20% per-attempt rates), with
  zero-lost/zero-duplicated and bit-identity hard-asserted and the
  fault-free/faulted wall-clock ratio gated, written to
  ``BENCH_chaos.json``;
* ``telemetry`` — observability overhead: fused BSGS replay and a
  2-worker serve under telemetry off / enabled-but-sampled-out / full
  tracing, hard-asserting in-run that disabled hooks cost <= 2% and
  full tracing <= 10% on the fused replay, written to
  ``BENCH_telemetry.json``;
* ``fabric`` — the cross-machine serving fabric: the same served batch
  through the pipe, shared-memory-ring, and loopback-TCP transports
  (bit-identity hard-asserted on each), plus two gated micro-benches —
  large-reply shipping through the shm ring vs. a plain pipe, and
  batched vs. per-message ``FBT1`` session framing — written to
  ``BENCH_fabric.json``.

Every output JSON carries a ``trajectory`` list: by default the history
already in the file is preserved and this run appended, so the per-PR
bench record accumulates instead of being overwritten (the CI
regression gate matches against it); ``--reset-trajectory`` restarts
the history.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py            # full run
    PYTHONPATH=src python benchmarks/run_bench.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/run_bench.py --quick \
        --sections serving --serving-workers 1,2             # serving smoke

Runs from a checkout without installation (``src`` is added to the path).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # running from a bare checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from repro.ckks import (
    BootstrapConfig,
    Bootstrapper,
    Ciphertext,
    CkksContext,
    HomomorphicLinearTransform,
    Plaintext,
    ciphertext_wire_bytes,
    toy_params,
    wire_coeff_bits,
)
from repro.ckks.keys import rotation_galois_elt
from repro.nums.kernels import default_backend_name
from repro.runtime import (
    CtSpec,
    ServingConfig,
    ShardedExecutor,
    StreamingServer,
    compile_fn,
    plan_schedule_comparison,
)


def _time(fn, repeats: int, warmup: int = 1) -> dict:
    """Best-of-``repeats`` wall-clock seconds for one call of ``fn``."""
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return {"best_s": min(samples), "mean_s": sum(samples) / len(samples)}


# ---------------------------------------------------------------------------
# Pre-PR reference paths (per-digit loop, coeff-domain automorphisms)
# ---------------------------------------------------------------------------


def _rotate_reference(ev, ct: Ciphertext, steps: int, galois_keys) -> Ciphertext:
    """The seed rotation: two coeff-domain automorphism round trips plus
    the per-digit key-switch loop.

    Decrypts to the same message as the engine's rotation but encodes a
    different (equally valid) noise representative: the engine permutes
    already-decomposed digits, the seed decomposed the permuted
    polynomial (see ``KeySwitchEngine.permute``).
    """
    key = galois_keys[(steps, ct.level)]
    galois_elt = rotation_galois_elt(steps, ev.params.slots, 2 * ev.basis.degree)
    c0r = ct.parts[0].to_coeff().automorphism(galois_elt).to_eval()
    c1r = ct.parts[1].to_coeff().automorphism(galois_elt).to_eval()
    ks0, ks1 = ev.keyswitch.switch_reference(c1r, key)
    return Ciphertext(parts=[c0r + ks0, ks1], scale=ct.scale)


def _bsgs_reference(
    hlt: HomomorphicLinearTransform, ct, galois_keys, coeff_diagonals
) -> Ciphertext:
    """The seed BSGS loop: one full rotation (no hoisting) per baby step
    and coefficient-domain diagonals (one forward NTT per multiply)."""
    ev = hlt.ctx.evaluator
    bs = hlt.baby_steps
    rotated = {0: ct}
    for j in sorted({j for _, j in hlt._nonzero if j != 0}):
        rotated[j] = _rotate_reference(ev, ct, j, galois_keys)
    by_giant: dict[int, list[int]] = {}
    for g, j in hlt._nonzero:
        by_giant.setdefault(g, []).append(j)
    acc = None
    for g, js in sorted(by_giant.items()):
        inner = None
        for j in js:
            term = ev.multiply_plain(rotated[j], coeff_diagonals[(g, j)])
            inner = term if inner is None else ev.add(inner, term)
        if g != 0:
            inner = _rotate_reference(ev, inner, g * bs, galois_keys)
        acc = inner if acc is None else ev.add(acc, inner)
    return acc


# ---------------------------------------------------------------------------
# Benches
# ---------------------------------------------------------------------------


def bench_kernels(ctx, repeats: int) -> dict:
    lvl = ctx.params.num_primes
    kern = ctx.basis.kernel(lvl)
    bn = ctx.basis.batch_ntt(lvl)
    rng = np.random.default_rng(11)
    q_col = np.array(ctx.basis.moduli[:lvl], dtype=np.uint64).reshape(-1, 1)
    a = rng.integers(0, 1 << 41, (lvl, ctx.basis.degree)).astype(np.uint64) % q_col
    b = rng.integers(0, 1 << 41, (lvl, ctx.basis.degree)).astype(np.uint64) % q_col
    fwd = bn.forward(a)
    return {
        "mulmod": _time(lambda: kern.mul(a, b), repeats),
        "ntt_forward": _time(lambda: bn.forward(a), repeats),
        "ntt_inverse": _time(lambda: bn.inverse(fwd), repeats),
    }


def bench_key_switch(ctx, repeats: int) -> dict:
    lvl = ctx.params.num_primes
    rlk = ctx.relin_keys(levels=[lvl])
    key = rlk[lvl]
    rng = np.random.default_rng(12)
    msg = rng.uniform(-1, 1, ctx.params.slots)
    poly = ctx.encrypt(msg).parts[1]
    engine = ctx.evaluator.keyswitch
    key.stacked()  # build the tensor cache outside the timed region
    return {
        "key_switch_loop": _time(lambda: engine.switch_reference(poly, key), repeats),
        "key_switch_batched": _time(lambda: engine.switch(poly, key), repeats),
    }


HOIST_BATCH = 8  # rotations amortized per hoisted decomposition


def bench_rotate(ctx, repeats: int) -> dict:
    lvl = ctx.params.num_primes
    steps = list(range(1, HOIST_BATCH + 1))
    gks = ctx.galois_keys(steps, levels=[lvl])
    rng = np.random.default_rng(13)
    ct = ctx.encrypt(rng.uniform(-1, 1, ctx.params.slots))
    ev = ctx.evaluator
    for (r, l) in gks:
        gks[(r, l)].stacked()
    ev.rotate(ct, 1, gks)  # warm permutation/kernel caches

    def hoisted_batch():
        dec = ev.decompose(ct)
        for s in steps:
            ev.rotate(ct, s, gks, decomposed=dec)

    def reference_batch():
        for s in steps:
            _rotate_reference(ev, ct, s, gks)

    return {
        "rotate_reference": _time(lambda: _rotate_reference(ev, ct, 1, gks), repeats),
        "rotate": _time(lambda: ev.rotate(ct, 1, gks), repeats),
        f"rotate_x{HOIST_BATCH}_reference": _time(reference_batch, repeats),
        f"rotate_x{HOIST_BATCH}_hoisted": _time(hoisted_batch, repeats),
    }


def bench_bsgs(ctx, repeats: int) -> dict:
    lvl = ctx.params.num_primes
    slots = ctx.params.slots
    rng = np.random.default_rng(14)
    matrix = rng.uniform(-1, 1, (slots, slots)) + 1j * rng.uniform(-1, 1, (slots, slots))
    hlt = HomomorphicLinearTransform(ctx, matrix, level=lvl)
    gks = ctx.galois_keys(hlt.required_rotations(), levels=[lvl])
    ct = ctx.encrypt(rng.uniform(-1, 1, slots))
    # Pre-PR state: diagonals stored coefficient-domain, transformed on
    # every multiply (the engine path caches them in the NTT domain).
    coeff_diagonals = {
        key: Plaintext(poly=pt.poly.to_coeff(), scale=pt.scale)
        for key, pt in hlt._diagonals.items()
    }
    hlt.apply(ct, gks)  # warm caches
    return {
        "bsgs_matmul_reference": _time(
            lambda: _bsgs_reference(hlt, ct, gks, coeff_diagonals), repeats
        ),
        "bsgs_matmul_hoisted": _time(lambda: hlt.apply(ct, gks), repeats),
    }


RUNTIME_BATCH = 8  # ciphertexts replayed per cached plan in the fused bench


def bench_runtime(ctx, repeats: int) -> tuple[dict, dict]:
    """Eager vs. planned (interpreter) vs. fused plan replay.

    Returns ``(timings, fused_stats)`` — the second dict holds each
    plan's :meth:`ExecutionPlan.stats` payload (arena slots/bytes, fused
    group and dispatch counts), recorded alongside the timings so the
    committed bench JSON documents *why* the fused path is faster.
    """
    lvl = ctx.params.num_primes
    slots = ctx.params.slots
    rng = np.random.default_rng(21)
    results: dict[str, dict] = {}
    fused_stats: dict[str, dict] = {}

    # --- BSGS matmul -----------------------------------------------------
    matrix = rng.uniform(-1, 1, (slots, slots)) + 1j * rng.uniform(-1, 1, (slots, slots))
    hlt = HomomorphicLinearTransform(ctx, matrix, level=lvl)
    gks = ctx.galois_keys(hlt.required_rotations(), levels=[lvl])
    ct = ctx.encrypt(rng.uniform(-1, 1, slots))
    batch = [[ctx.encrypt(rng.uniform(-1, 1, slots))] for _ in range(RUNTIME_BATCH)]
    plan = hlt.plan_for(ct.scale, gks)
    plan.run([ct])  # compile + warm every cache outside the timed region
    # Fused warm is the expensive one: arena layout, fused closures, and
    # the per-key pre-formed tensors (SwitchingKey.stacked_pre) all build
    # here, once, so the timed region measures steady-state replay.
    plan.run_batch(batch[:1], fused=True)
    results["bsgs_eager_dispatch"] = _time(
        lambda: hlt.emit(ctx.evaluator, ct, gks), repeats
    )
    results["bsgs_planned"] = _time(lambda: hlt.apply(ct, gks), repeats)
    per_batch = _time(lambda: plan.run_batch(batch, fused=True), repeats)
    results["bsgs_fused_replay_per_ct"] = {
        k: v / RUNTIME_BATCH for k, v in per_batch.items()
    }
    fused_stats["bsgs"] = plan.stats()

    # --- three-level polynomial pipeline: x^4 + x^2 + 1/2 ----------------
    # The ciphertext visits three levels (L, L-2, L-4); the x^2 term is
    # scale-aligned onto x^4's track with a unity multiply_plain, the
    # standard CKKS bridging trick.  Written against the shared surface,
    # so the same callable runs eagerly and traces.
    rlk = ctx.relin_keys(levels=[lvl, lvl - 2])
    ones = np.ones(slots)

    def poly3(ev, x):
        x2 = ev.multiply_relin_rescale(x, x, rlk)
        x4 = ev.multiply_relin_rescale(x2, x2, rlk)
        unity = ctx.encoder.encode(ones, level=x2.level, scale=x2.scale)
        bridge = ev.rescale(ev.multiply_plain(x2, unity), times=2)
        y = ev.add(x4, bridge)
        half = ctx.encoder.encode(0.5 * ones, level=y.level, scale=y.scale)
        return ev.add_plain(y, half)

    spec = CtSpec(level=lvl, scale=ctx.params.scale)
    pplan = compile_fn(poly3, ctx.evaluator, [spec])
    pplan.run([ct])
    pplan.run_batch(batch[:1], fused=True)
    results["poly3_eager_dispatch"] = _time(
        lambda: poly3(ctx.evaluator, ct), repeats
    )
    results["poly3_planned"] = _time(lambda: pplan.run([ct]), repeats)
    per_batch = _time(lambda: pplan.run_batch(batch, fused=True), repeats)
    results["poly3_fused_replay_per_ct"] = {
        k: v / RUNTIME_BATCH for k, v in per_batch.items()
    }
    fused_stats["poly3"] = pplan.stats()
    return results, fused_stats


def bench_bootstrap_step(repeats: int) -> dict:
    params = replace(toy_params(degree=64, num_primes=22), secret_hamming_weight=8)
    ctx = CkksContext.create(params, seed=77)
    bs = Bootstrapper(
        ctx, BootstrapConfig(input_scale_bits=25, eval_mod_degree=63, wraps=7)
    )
    rng = np.random.default_rng(15)
    ct = ctx.encryptor.encrypt(
        ctx.encoder.encode(
            rng.uniform(-1, 1, ctx.params.slots),
            level=1,
            scale=bs.config.input_scale,
        )
    )
    raised = bs.mod_raise(ct)
    return {"bootstrap_coeff_to_slot": _time(lambda: bs.coeff_to_slot(raised), repeats)}


def bench_plan_io(ctx, repeats: int) -> dict:
    """Plan-artifact costs (plan-serialization PR): what a serving fleet
    pays to compile, persist, and rehydrate the BSGS matmul program.

    ``trace_compile`` is the cold path every process pays without plan
    shipping (trace + optimizer passes).  ``trace_store_load`` traces
    only to derive the content key, then loads the optimized plan from
    an on-disk PlanStore (constants resolved from the live graph — no
    copies).  ``deserialize`` rebuilds a fully self-contained plan from
    EPL1 bytes, constants included — the shipped-worker cold start.
    """
    import tempfile

    from repro.runtime import (
        ConstantStore,
        PlanStore,
        clear_plan_cache,
        compile_fn,
        deserialize_plan,
        serialize_plan,
        set_plan_store,
    )

    lvl = ctx.params.num_primes
    slots = ctx.params.slots
    rng = np.random.default_rng(51)
    matrix = rng.uniform(-1, 1, (slots, slots)) + 1j * rng.uniform(
        -1, 1, (slots, slots)
    )
    hlt = HomomorphicLinearTransform(ctx, matrix, level=lvl)
    gks = ctx.galois_keys(hlt.required_rotations(), levels=[lvl])
    spec = CtSpec(level=lvl, scale=ctx.params.scale)

    def model(ev, x):
        return hlt.emit(ev, x, gks)

    def compile_cold():
        clear_plan_cache()
        return compile_fn(model, ctx.evaluator, [spec])

    results: dict[str, dict] = {}
    results["bsgs_trace_compile"] = _time(compile_cold, repeats)
    plan = compile_fn(model, ctx.evaluator, [spec])
    blob = serialize_plan(plan)

    with tempfile.TemporaryDirectory() as tmp:
        set_plan_store(PlanStore(tmp))
        try:

            def store_load():
                clear_plan_cache()
                return compile_fn(model, ctx.evaluator, [spec])

            store_load()  # populate the store outside the timed region
            results["bsgs_trace_store_load"] = _time(store_load, repeats)
        finally:
            set_plan_store(None)
            clear_plan_cache()

    results["bsgs_serialize"] = _time(lambda: serialize_plan(plan), repeats)
    results["bsgs_deserialize_cold"] = _time(
        lambda: deserialize_plan(blob, ctx.evaluator), repeats
    )
    # The fleet hot path: constants (keys, tables) distributed once as a
    # PCS1 payload, per-plan artifacts lean, resolver pre-populated.
    lean = serialize_plan(plan, include_constants=False)
    resolver = ConstantStore.from_graph(plan.graph)
    results["bsgs_deserialize_lean"] = _time(
        lambda: deserialize_plan(lean, ctx.evaluator, constants=resolver),
        repeats,
    )

    def ratio(slow: str, fast: str) -> float:
        return results[slow]["best_s"] / results[fast]["best_s"]

    return {
        "results": results,
        "artifact_bytes": len(blob),
        "lean_artifact_bytes": len(lean),
        "nodes": len(plan.graph.nodes),
        "constants": len(plan.graph.consts),
        "speedups_x": {
            "plan_store_load_vs_compile": ratio(
                "bsgs_trace_compile", "bsgs_trace_store_load"
            ),
            "plan_lean_deserialize_vs_compile": ratio(
                "bsgs_trace_compile", "bsgs_deserialize_lean"
            ),
        },
    }


# ---------------------------------------------------------------------------
# Serving section: sharded worker-pool scaling + streaming ingestion
# ---------------------------------------------------------------------------


def _inference_plan(ctx):
    """The private-inference model (W2 * (W1*x + b1)^2) compiled once —
    the same program ``examples/private_inference_client.py`` serves."""
    rng = np.random.default_rng(31)
    slots = ctx.params.slots
    lpm = ctx.params.levels_per_multiplication
    w1_pt = ctx.encode(rng.uniform(-0.5, 0.5, slots))
    b1 = rng.uniform(-0.1, 0.1, slots)
    w2 = rng.uniform(-0.5, 0.5, slots)
    rlk = ctx.relin_keys(levels=[ctx.params.num_primes - lpm])

    def model(ev, x):
        hidden = ev.rescale(ev.multiply_plain(x, w1_pt), times=lpm)
        b1_pt = ctx.encoder.encode(b1, level=hidden.level, scale=hidden.scale)
        hidden = ev.add_plain(hidden, b1_pt)
        squared = ev.multiply_relin_rescale(hidden, hidden, rlk)
        if squared.level <= lpm:  # short quick-mode chains stop at (W1*x+b1)^2
            return (squared,)
        w2_pt = ctx.encoder.encode(w2, level=squared.level, scale=squared.scale)
        return (ev.rescale(ev.multiply_plain(squared, w2_pt), times=lpm),)

    spec = CtSpec(level=ctx.params.num_primes, scale=ctx.params.scale)
    return compile_fn(model, ctx.evaluator, [spec])


def _assert_bit_identical(got, want, what: str) -> None:
    for g_outs, w_outs in zip(got, want):
        for g, w in zip(g_outs, w_outs):
            assert g.scale == w.scale, f"{what}: scale diverged"
            for gp, wp in zip(g.parts, w.parts):
                assert np.array_equal(gp.data, wp.data), f"{what}: bits diverged"


def bench_serving(
    ctx, repeats: int, workers: list[int], n_requests: int, link_mbps: float
) -> dict:
    """Worker-pool scaling and streaming-vs-batch latency.

    Each request is charged the transfer time of its exact wire bytes
    (upload at the input level, download at the output level) over a
    ``link_mbps`` client link, slept inside the worker — so the pool's
    ability to hide client-link latency behind computation is measured,
    not assumed.  Sharded outputs are asserted bit-identical to
    single-process ``plan.run_batch`` on every pool size.
    """
    rng = np.random.default_rng(41)
    slots = ctx.params.slots
    plan = _inference_plan(ctx)
    features = [rng.uniform(-1, 1, slots) for _ in range(n_requests)]
    batches = [[ctx.encrypt(f)] for f in features]
    reference = plan.run_batch(batches)  # warms every fork-shared cache

    bits = wire_coeff_bits(ctx.basis)
    degree = ctx.params.degree
    upload_bytes = ciphertext_wire_bytes(degree, batches[0][0].level, 2, bits)
    download_bytes = sum(
        ciphertext_wire_bytes(degree, o.level, o.size, bits) for o in reference[0]
    )
    io_s = (upload_bytes + download_bytes) * 8.0 / (link_mbps * 1e6)

    results: dict[str, dict] = {
        "single_process_run_batch": _time(
            lambda: plan.run_batch(batches), repeats
        )
    }
    throughput: dict[int, float] = {}
    for w in workers:
        with ShardedExecutor(
            plan,
            config=ServingConfig(num_workers=w, modeled_request_io_s=io_s),
            warm_inputs=batches[0],
        ) as pool:
            sharded = pool.run_batch(batches, timeout=600)
            _assert_bit_identical(sharded, reference, f"sharded w={w}")
            row = _time(
                lambda: pool.run_batch(batches, timeout=600), repeats, warmup=0
            )
        results[f"sharded_run_batch_w{w}"] = row
        throughput[w] = n_requests / row["best_s"]

    # Streaming vs. materialized batch, both through the widest pool and
    # both covering the full encrypt -> evaluate -> decrypt pipeline.
    # The materialized path encrypts every request, evaluates the whole
    # batch, then decrypts every result — so each request's latency is
    # the entire makespan.  Streaming overlaps the phases across
    # requests and delivers each result as it finishes.
    w_max = max(workers)

    def encrypt(values):
        return [ctx.encrypt(values)]

    def decrypt(outputs):
        return ctx.decrypt_decode(outputs[0]).real

    with ShardedExecutor(
        plan,
        config=ServingConfig(num_workers=w_max, modeled_request_io_s=io_s),
        warm_inputs=batches[0],
    ) as pool:

        def materialized_pipeline():
            cts = [encrypt(f) for f in features]
            outs = pool.run_batch(cts, timeout=600)
            return [decrypt(o) for o in outs]

        results["materialized_pipeline"] = _time(materialized_pipeline, repeats)
    batch_makespan = results["materialized_pipeline"]["best_s"]

    async def run_stream():
        pool = ShardedExecutor(
            plan,
            config=ServingConfig(num_workers=w_max, modeled_request_io_s=io_s),
            warm_inputs=batches[0],
        )
        async with StreamingServer(
            pool, config=ServingConfig(max_pending=2 * w_max)
        ) as server:
            await server.serve(features, encrypt=encrypt, decrypt=decrypt)
            return server.stats()

    stream_stats = asyncio.run(run_stream())

    policies = {
        r.policy: r.makespan_seconds
        for r in plan_schedule_comparison(plan, requests=n_requests)
    }

    base_w = min(workers)
    speedups = {
        f"serving_scale_x{w}": throughput[w] / throughput[base_w]
        for w in workers
        if w != base_w
    }
    speedups["streaming_vs_batch_mean_latency"] = (
        batch_makespan / stream_stats["latency"]["mean_s"]
    )
    return {
        "results": results,
        "throughput_rps": {str(w): throughput[w] for w in workers},
        "streaming": {
            "mean_latency_s": stream_stats["latency"]["mean_s"],
            "p95_latency_s": stream_stats["latency"]["p95_s"],
            "time_to_first_result_s": stream_stats["time_to_first_result_s"],
            "makespan_s": stream_stats["makespan_s"],
            "max_queue_depth": stream_stats["max_queue_depth"],
            "throughput_rps": stream_stats["throughput_rps"],
        },
        "batch_mean_latency_s": batch_makespan,
        "accel_policy_makespan_s": policies,
        "io_model": {
            "link_mbps": link_mbps,
            "upload_bytes": upload_bytes,
            "download_bytes": download_bytes,
            "modeled_io_s": io_s,
            "coeff_bits": bits,
        },
        "speedups_x": speedups,
    }


def _fabric_large_reply_roundtrips(
    use_shm: bool, reply_bytes: int, n_replies: int
) -> float:
    """Wall-clock for ``n_replies`` request→large-reply round trips to a
    forked echo worker, over a plain pipe or a shared-memory ring."""
    import multiprocessing as mp

    from repro.runtime.transport import ShmChannel, ShmRing

    fork = mp.get_context("fork")
    parent_conn, child_conn = fork.Pipe()
    ring = ShmRing(capacity=reply_bytes + 4096) if use_shm else None

    def echo_loop():
        parent_conn.close()
        ch = (
            ShmChannel(child_conn, ring, tx_half=1) if use_shm else child_conn
        )
        reply = b"\xa5" * reply_bytes
        while True:
            msg = ch.recv()
            if msg is None:
                break
            ch.send(("reply", reply))

    proc = fork.Process(target=echo_loop, daemon=True)
    proc.start()
    child_conn.close()
    ch = ShmChannel(parent_conn, ring, tx_half=0) if use_shm else parent_conn
    ch.send(("ping", 0))  # warm the worker before the timed window
    ch.recv()
    t0 = time.perf_counter()
    for i in range(n_replies):
        ch.send(("ping", i))
        tag, payload = ch.recv()
        assert tag == "reply" and len(payload) == reply_bytes
    elapsed = time.perf_counter() - t0
    ch.send(None)
    proc.join(timeout=30)
    ch.close()
    if ring is not None:
        ring.close()
    return elapsed


def _fabric_framing_drain(
    payloads: list[bytes], messages_per_frame: int
) -> tuple[float, int]:
    """Wall-clock to push ``payloads`` through a loopback socket as
    ``FBT1`` session frames of ``messages_per_frame`` messages each (the
    receiver decodes and counts every message), plus the frame count."""
    import socket
    import threading

    from repro.runtime.coordinator import (
        SESSION_BATCH_MAGIC,
        decode_batch,
        encode_batch,
        recv_session_frame,
        send_session_frame,
    )

    tx, rx = socket.socketpair()
    total = len(payloads)
    got = []

    def drain():
        while len(got) < total:
            tag, payload = recv_session_frame(rx)
            assert tag == SESSION_BATCH_MAGIC
            got.extend(decode_batch(payload))

    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    frames = 0
    t0 = time.perf_counter()
    for start in range(0, total, messages_per_frame):
        chunk = payloads[start : start + messages_per_frame]
        send_session_frame(
            tx, SESSION_BATCH_MAGIC, encode_batch(list(enumerate(chunk, start)))
        )
        frames += 1
    reader.join(timeout=30)
    elapsed = time.perf_counter() - t0
    assert len(got) == total and not reader.is_alive()
    tx.close()
    rx.close()
    return elapsed, frames


def _fabric_remote_attach(plan, batch, reference, repeats: int) -> dict:
    """Cold start vs. reattach against a genuinely remote worker host.

    Cold start: launch the ``repro.runtime.worker_host`` CLI from
    nothing and serve one request through it — process start, mutual
    auth, ``FHL1`` negotiation, ``FPL1`` plan upload, slot spawn.
    Reattach: a *second* coordinator dials the same (still-live) host —
    the host's fingerprint-keyed plan cache answers ``need_plan = 0``,
    so no plan crosses the wire.  Both runs hard-assert the
    ``plan_uploads`` counter (1 cold, 0 reattach — the
    reconnect-without-replan contract, checked deterministically rather
    than by timing) and bit-identical output; the gated
    ``fabric_remote_attach`` ratio is cold / reattach wall-clock.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

    def _launch(tmp):
        portfile = os.path.join(tmp, "port")
        try:
            os.unlink(portfile)
        except FileNotFoundError:
            pass
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.runtime.worker_host",
                "--bind",
                "127.0.0.1:0",
                "--authkey-file",
                os.path.join(tmp, "authkey"),
                "--port-file",
                portfile,
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 60
        while not os.path.exists(portfile):
            if proc.poll() is not None or time.monotonic() > deadline:
                proc.kill()
                raise RuntimeError("bench worker host failed to start")
            time.sleep(0.02)
        with open(portfile) as fh:
            return proc, int(fh.read().strip())

    def _attach_and_serve(tmp, port, expect_uploads):
        cfg = ServingConfig(
            num_workers=1,
            transport="tcp",
            hosts=(f"tcp://127.0.0.1:{port}",),
            ship_plan=True,
            authkey_file=os.path.join(tmp, "authkey"),
        )
        with ShardedExecutor(plan, config=cfg) as pool:
            out = pool.run_batch([batch], timeout=600)
            uploads = pool.stats()["transport_stats"]["plan_uploads"]
        assert uploads == expect_uploads, (
            f"remote attach expected {expect_uploads} plan upload(s), "
            f"saw {uploads} — the fingerprint cache contract broke"
        )
        _assert_bit_identical(out, reference, "fabric remote attach")

    cold_samples, reattach_samples = [], []
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "authkey"), "wb") as fh:
            fh.write(os.urandom(32))
        for _ in range(repeats):
            t0 = time.perf_counter()
            proc, port = _launch(tmp)
            try:
                _attach_and_serve(tmp, port, 1)
                cold_samples.append(time.perf_counter() - t0)
                t1 = time.perf_counter()
                _attach_and_serve(tmp, port, 0)
                reattach_samples.append(time.perf_counter() - t1)
            finally:
                proc.terminate()
                proc.wait(timeout=30)
    cold_s, reattach_s = min(cold_samples), min(reattach_samples)
    assert cold_s / reattach_s > 1.0, (
        f"reattaching to a live host lost to a full cold start "
        f"({reattach_s:.4f}s vs {cold_s:.4f}s)"
    )
    return {"cold_s": cold_s, "reattach_s": reattach_s}


def bench_fabric(ctx, repeats: int, workers: int, n_requests: int, quick: bool) -> dict:
    """The cross-machine serving fabric: pipe vs. tcp vs. shm.

    Three measurements:

    * the same served batch through all three transports, each asserted
      bit-identical to the single-process replay (end-to-end transport
      overhead, reported as throughput, not gated — the loopback-TCP
      coordinator pays real framing/session costs by design);
    * large-reply shipping through the shared-memory ring vs. a plain
      pipe (forked echo worker, request→1 MiB-reply ping-pong) —
      **hard-asserts the ring wins** and gates the ratio as
      ``fabric_shm_large_reply``;
    * ``FBT1`` session framing batched vs. one-frame-per-message over a
      loopback socket — **hard-asserts batching wins** and gates the
      ratio as ``fabric_tcp_batched_framing``;
    * cold start vs. reattach against a CLI-spawned **remote** worker
      host — hard-asserts the reconnect-without-replan contract
      (``plan_uploads``: 1 cold, 0 reattach) and gates the cold /
      reattach wall-clock ratio as ``fabric_remote_attach``.
    """
    rng = np.random.default_rng(41)
    slots = ctx.params.slots
    plan = _inference_plan(ctx)
    batches = [
        [ctx.encrypt(rng.uniform(-1, 1, slots))] for _ in range(n_requests)
    ]
    reference = plan.run_batch(batches)  # warms every fork-shared cache

    results: dict[str, dict] = {}
    throughput: dict[str, float] = {}
    for transport in ("pipe", "shm", "tcp"):
        cfg = ServingConfig(num_workers=workers, transport=transport)
        with ShardedExecutor(plan, config=cfg) as pool:
            sharded = pool.run_batch(batches, timeout=600)
            _assert_bit_identical(sharded, reference, f"fabric {transport}")
            row = _time(
                lambda: pool.run_batch(batches, timeout=600), repeats, warmup=0
            )
        results[f"serve_{transport}_w{workers}"] = row
        throughput[transport] = n_requests / row["best_s"]

    # -- shared-memory ring vs. pipe on large replies ------------------
    reply_bytes = 1 << 20
    n_replies = 8 if quick else 32
    pipe_s = min(
        _fabric_large_reply_roundtrips(False, reply_bytes, n_replies)
        for _ in range(repeats)
    )
    shm_s = min(
        _fabric_large_reply_roundtrips(True, reply_bytes, n_replies)
        for _ in range(repeats)
    )
    results["large_reply_pipe"] = {"best_s": pipe_s, "mean_s": pipe_s}
    results["large_reply_shm_ring"] = {"best_s": shm_s, "mean_s": shm_s}
    shm_ratio = pipe_s / shm_s
    assert shm_ratio > 1.0, (
        f"shared-memory ring lost to the pipe on {reply_bytes}-byte replies "
        f"({shm_s:.4f}s vs {pipe_s:.4f}s)"
    )

    # -- batched vs. per-message FBT1 framing --------------------------
    n_messages = 256 if quick else 1024
    msg_bytes = 2048
    group = 32
    payloads = [rng.bytes(msg_bytes) for _ in range(n_messages)]
    per_msg_s, per_msg_frames = min(
        (_fabric_framing_drain(payloads, 1) for _ in range(repeats)),
        key=lambda r: r[0],
    )
    batched_s, batched_frames = min(
        (_fabric_framing_drain(payloads, group) for _ in range(repeats)),
        key=lambda r: r[0],
    )
    results["framing_per_message"] = {"best_s": per_msg_s, "mean_s": per_msg_s}
    results["framing_batched"] = {"best_s": batched_s, "mean_s": batched_s}
    framing_ratio = per_msg_s / batched_s
    assert framing_ratio > 1.0, (
        f"batched framing lost to per-message frames "
        f"({batched_s:.4f}s vs {per_msg_s:.4f}s)"
    )

    # -- remote-host cold start vs. reattach ---------------------------
    remote = _fabric_remote_attach(
        plan, batches[0], reference[:1], repeats
    )
    results["remote_cold_attach"] = {
        "best_s": remote["cold_s"],
        "mean_s": remote["cold_s"],
    }
    results["remote_reattach"] = {
        "best_s": remote["reattach_s"],
        "mean_s": remote["reattach_s"],
    }
    remote_ratio = remote["cold_s"] / remote["reattach_s"]

    return {
        "results": results,
        "throughput_rps": throughput,
        "large_reply": {
            "reply_bytes": reply_bytes,
            "replies": n_replies,
            "pipe_s": pipe_s,
            "shm_s": shm_s,
        },
        "framing": {
            "messages": n_messages,
            "message_bytes": msg_bytes,
            "messages_per_frame": group,
            "frames_batched": batched_frames,
            "frames_per_message": per_msg_frames,
        },
        "remote_attach": remote,
        "speedups_x": {
            "fabric_shm_large_reply": shm_ratio,
            "fabric_tcp_batched_framing": framing_ratio,
            "fabric_remote_attach": remote_ratio,
        },
    }


def bench_chaos(
    ctx, workers: int, n_requests: int, crash_rates: list[float], seed: int
) -> dict:
    """Recovery overhead of the fault-tolerant serving engine.

    One fresh pool per fault level (chaos decisions key on request ids,
    so reusing a pool would shift the injected schedule), each serving
    the same ``n_requests``-request batch.  At every level the run must
    complete with **zero lost and zero duplicated requests** and outputs
    byte-identical to the fault-free single-process replay — the bench
    hard-fails otherwise; the timing rows then quantify what the crash
    recovery (worker respawn + retry) costs.

    Gated ratios (``chaos_recovery_efficiency_p<pct>``): fault-free
    wall-clock / faulted wall-clock, higher is better (1.0 = recovery is
    free).  The 10% level additionally hard-asserts the acceptance bound
    ``faulted <= 2 x fault-free``.
    """
    from repro.runtime import FaultPlan, FaultPolicy

    rng = np.random.default_rng(43)
    slots = ctx.params.slots
    plan = _inference_plan(ctx)
    batches = [[ctx.encrypt(rng.uniform(-1, 1, slots))] for _ in range(n_requests)]
    reference = plan.run_batch(batches)  # warms every fork-shared cache

    # Generous budgets: the bench measures recovery cost, so no request
    # may be lost to a retry/crash budget at the rates swept here.
    policy = FaultPolicy(
        max_attempts=10,
        backoff_base_s=0.01,
        backoff_max_s=0.1,
        crash_loop_threshold=100,
    )

    def run_level(crash_rate: float) -> tuple[float, dict]:
        chaos = (
            FaultPlan(seed, crash_rate=crash_rate) if crash_rate > 0 else None
        )
        with ShardedExecutor(
            plan,
            config=ServingConfig(
                num_workers=workers,
                chaos=chaos,
                fault_policy=policy,
                max_crash_respawns=10_000,
            ),
            warm_inputs=batches[0],
        ) as pool:
            t0 = time.perf_counter()
            outs = pool.run_batch(batches, timeout=600)
            elapsed = time.perf_counter() - t0
            stats = pool.stats()
        label = f"{crash_rate:.0%} crash rate"
        assert len(outs) == n_requests, f"{label}: lost/duplicated requests"
        assert stats["completed"] == n_requests, f"{label}: incomplete batch"
        assert stats["errors"] == 0, f"{label}: requests failed"
        _assert_bit_identical(outs, reference, f"chaos {label}")
        return elapsed, stats

    results: dict[str, dict] = {}
    fault_free_s, _ = run_level(0.0)
    results["chaos_fault_free"] = {"best_s": fault_free_s, "mean_s": fault_free_s}
    speedups: dict[str, float] = {}
    recovery = {}
    for rate in crash_rates:
        faulted_s, stats = run_level(rate)
        pct = int(round(rate * 100))
        results[f"chaos_crash_p{pct}"] = {
            "best_s": faulted_s,
            "mean_s": faulted_s,
        }
        speedups[f"chaos_recovery_efficiency_p{pct}"] = fault_free_s / faulted_s
        recovery[f"p{pct}"] = {
            "worker_crashes": stats["worker_crashes"],
            "respawns": stats["respawns"],
            "retries": stats["retries"],
            "overhead_x": faulted_s / fault_free_s,
        }
        if pct == 10:
            assert faulted_s <= 2.0 * fault_free_s, (
                f"10% crash-rate batch took {faulted_s:.3f}s, more than 2x "
                f"the fault-free {fault_free_s:.3f}s"
            )
    return {
        "results": results,
        "fault_free_s": fault_free_s,
        "recovery": recovery,
        "speedups_x": speedups,
    }


def bench_telemetry(ctx, repeats: int, workers: int, n_requests: int) -> dict:
    """Observability overhead: the same work under three telemetry modes.

    * ``off``            — tracing disabled (the default state);
    * ``disabled_hooks`` — tracing enabled with ``sample_rate=0.0``, so
      every instrumentation site is reached but no span is recorded;
    * ``on``             — tracing enabled at ``sample_rate=1.0``, full
      span capture.

    Two workloads: the fused BSGS replay (single-process hot loop, where
    per-step span hooks would hurt most) and a ``workers``-worker sharded
    serve (where TRC1 frames ride the worker pipe).  The fused replay is
    measured best-of-N with the three modes *interleaved* round-robin —
    each round times off, then disabled, then on — so clock drift
    (thermal, cache, noisy neighbors) lands on every mode equally instead
    of masquerading as instrumentation overhead; the acceptance bounds
    are hard-asserted in-run: disabled hooks cost <= 2% and full tracing
    <= 10% over off.  The serving runs (one fresh pool per mode,
    wall-clock once per mode) get a looser 1.5x sanity bound;
    multi-process wall-clock is too noisy for a 2% gate.

    Gated ratios (``telemetry_*_efficiency``): off / mode wall-clock,
    higher is better (1.0 = instrumentation is free).
    """
    from repro.runtime import get_telemetry

    telemetry = get_telemetry()
    slots = ctx.params.slots
    lvl = ctx.params.num_primes
    rng = np.random.default_rng(47)
    fused_repeats = max(repeats, 5)

    matrix = rng.uniform(-1, 1, (slots, slots)) + 1j * rng.uniform(
        -1, 1, (slots, slots)
    )
    hlt = HomomorphicLinearTransform(ctx, matrix, level=lvl)
    gks = ctx.galois_keys(hlt.required_rotations(), levels=[lvl])
    batch = [[ctx.encrypt(rng.uniform(-1, 1, slots))] for _ in range(RUNTIME_BATCH)]
    plan = hlt.plan_for(batch[0][0].scale, gks)
    plan.run_batch(batch[:1], fused=True)  # arena + fused closures build here

    serve_plan = _inference_plan(ctx)
    serve_batches = [
        [ctx.encrypt(rng.uniform(-1, 1, slots))] for _ in range(n_requests)
    ]

    def fused_replay():
        plan.run_batch(batch, fused=True)

    def serve_once() -> float:
        with ShardedExecutor(
            serve_plan, workers, warm_inputs=serve_batches[0]
        ) as pool:
            t0 = time.perf_counter()
            pool.run_batch(serve_batches, timeout=600)
            return time.perf_counter() - t0

    fused_modes = (
        ("off", telemetry.disable),
        ("disabled_hooks", lambda: telemetry.enable(sample_rate=0.0)),
        ("on", lambda: telemetry.enable(sample_rate=1.0)),
    )
    results: dict[str, dict] = {}
    span_counts: dict[str, int] = {}
    try:
        telemetry.disable()
        telemetry.reset()
        fused_replay()  # shared warmup outside the timed rounds
        samples: dict[str, list[float]] = {mode: [] for mode, _ in fused_modes}
        for _ in range(fused_repeats):
            for mode, arm in fused_modes:
                arm()
                t0 = time.perf_counter()
                fused_replay()
                samples[mode].append(time.perf_counter() - t0)
                telemetry.disable()
        span_counts["on"] = len(telemetry.spans())
        for mode, rows in samples.items():
            results[f"telemetry_fused_{mode}"] = {
                "best_s": min(rows),
                "mean_s": sum(rows) / len(rows),
            }

        telemetry.reset()
        serve_s = serve_once()
        results["telemetry_serving_off"] = {"best_s": serve_s, "mean_s": serve_s}
        for mode, arm in fused_modes[1:]:
            telemetry.reset()
            arm()
            serve_s = serve_once()
            results[f"telemetry_serving_{mode}"] = {
                "best_s": serve_s,
                "mean_s": serve_s,
            }
            if mode == "disabled_hooks":
                span_counts[mode] = len(telemetry.spans())
            telemetry.disable()
    finally:
        telemetry.disable()
        telemetry.reset()

    fused_off = results["telemetry_fused_off"]["best_s"]
    fused_disabled = results["telemetry_fused_disabled_hooks"]["best_s"]
    fused_on = results["telemetry_fused_on"]["best_s"]
    assert fused_disabled <= 1.02 * fused_off, (
        f"disabled-hooks fused replay {fused_disabled:.4f}s exceeds 2% over "
        f"the telemetry-off baseline {fused_off:.4f}s"
    )
    assert fused_on <= 1.10 * fused_off, (
        f"full-tracing fused replay {fused_on:.4f}s exceeds 10% over the "
        f"telemetry-off baseline {fused_off:.4f}s"
    )
    serve_off = results["telemetry_serving_off"]["best_s"]
    for mode, _ in fused_modes[1:]:
        serve_mode = results[f"telemetry_serving_{mode}"]["best_s"]
        assert serve_mode <= 1.5 * serve_off, (
            f"serving with telemetry {mode} took {serve_mode:.3f}s, more "
            f"than 1.5x the telemetry-off {serve_off:.3f}s"
        )

    speedups = {
        "telemetry_fused_disabled_efficiency": fused_off / fused_disabled,
        "telemetry_fused_enabled_efficiency": fused_off / fused_on,
        "telemetry_serving_disabled_efficiency": serve_off
        / results["telemetry_serving_disabled_hooks"]["best_s"],
        "telemetry_serving_enabled_efficiency": serve_off
        / results["telemetry_serving_on"]["best_s"],
    }
    overhead = {
        "fused_disabled_x": fused_disabled / fused_off,
        "fused_enabled_x": fused_on / fused_off,
        "spans_recorded_on": span_counts.get("on", 0),
        "spans_recorded_disabled": span_counts.get("disabled_hooks", 0),
    }
    return {"results": results, "overhead": overhead, "speedups_x": speedups}


# ---------------------------------------------------------------------------


def _finalize(payload: dict, path: Path, append: bool) -> None:
    """Write a bench JSON, accumulating the per-run trajectory.

    With ``append`` the history already in the file is preserved and
    this run appended; otherwise the trajectory restarts at this run.
    """
    entry = {
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "meta": payload["meta"],
        "speedups_x": payload["speedups_x"],
    }
    history: list = []
    if append and path.exists():
        try:
            history = json.loads(path.read_text()).get("trajectory", [])
        except (json.JSONDecodeError, OSError):
            history = []
    full = {**payload, "trajectory": [*history, entry]}
    path.write_text(json.dumps(full, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path} (trajectory: {len(full['trajectory'])} run(s))")


def _print_section(title: str, results: dict, speedups: dict, legend: str) -> None:
    width = max(len(k) for k in [*results, *speedups])
    print(title)
    for name, row in results.items():
        print(f"  {name:<{width}}  best {row['best_s']*1e3:9.3f} ms")
    print(f"speedups ({legend}):")
    for name, x in speedups.items():
        print(f"  {name:<{width}}  {x:5.2f}x")


KNOWN_SECTIONS = (
    "core",
    "runtime",
    "serving",
    "planio",
    "chaos",
    "telemetry",
    "fabric",
)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="CI smoke sizes")
    ap.add_argument(
        "--sections",
        default="core,runtime,serving,planio,chaos,telemetry,fabric",
        help=f"comma list of sections to run: {', '.join(KNOWN_SECTIONS)}",
    )
    ap.add_argument("--out", default="BENCH_keyswitch.json", help="output JSON path")
    ap.add_argument(
        "--runtime-out",
        default="BENCH_runtime.json",
        help="runtime-section output JSON path",
    )
    ap.add_argument(
        "--serving-out",
        default="BENCH_serving.json",
        help="serving-section output JSON path",
    )
    ap.add_argument(
        "--planio-out",
        default="BENCH_planio.json",
        help="planio-section output JSON path",
    )
    ap.add_argument(
        "--serving-workers",
        default="1,2,4",
        help="comma list of pool sizes for the serving scaling sweep",
    )
    ap.add_argument(
        "--chaos-out",
        default="BENCH_chaos.json",
        help="chaos-section output JSON path",
    )
    ap.add_argument(
        "--telemetry-out",
        default="BENCH_telemetry.json",
        help="telemetry-section output JSON path",
    )
    ap.add_argument(
        "--telemetry-workers",
        type=int,
        default=2,
        help="pool size for the telemetry serving overhead bench",
    )
    ap.add_argument(
        "--telemetry-requests",
        type=int,
        default=None,
        help="requests per telemetry serving measurement "
        "(default 8 quick / 16 full)",
    )
    ap.add_argument(
        "--fabric-out",
        default="BENCH_fabric.json",
        help="fabric-section output JSON path",
    )
    ap.add_argument(
        "--fabric-workers",
        type=int,
        default=2,
        help="pool size for the fabric transport benches",
    )
    ap.add_argument(
        "--fabric-requests",
        type=int,
        default=None,
        help="requests per fabric transport measurement "
        "(default 8 quick / 16 full)",
    )
    ap.add_argument(
        "--chaos-workers",
        type=int,
        default=2,
        help="pool size for the chaos recovery bench",
    )
    ap.add_argument(
        "--chaos-requests",
        type=int,
        default=None,
        help="requests per chaos measurement (default 16 quick / 64 full)",
    )
    ap.add_argument(
        "--chaos-seed",
        type=int,
        default=1,
        help="fault-injection seed for the chaos bench",
    )
    ap.add_argument(
        "--serving-requests",
        type=int,
        default=None,
        help="requests per serving measurement (default 8 quick / 16 full)",
    )
    ap.add_argument(
        "--link-mbps",
        type=float,
        default=10.0,
        help="modeled client-link bandwidth for per-request transfer time",
    )
    ap.add_argument(
        "--append-trajectory",
        dest="append_trajectory",
        action="store_true",
        default=True,
        help="(default) preserve the bench history in the output files and "
        "append this run",
    )
    ap.add_argument(
        "--reset-trajectory",
        dest="append_trajectory",
        action="store_false",
        help="restart the bench history at this run (drops the committed "
        "trajectory the CI regression gate matches against)",
    )
    ap.add_argument("--degree", type=int, default=None, help="override ring degree")
    ap.add_argument("--primes", type=int, default=None, help="override chain length")
    args = ap.parse_args(argv)

    sections = {s.strip() for s in args.sections.split(",") if s.strip()}
    unknown = sections - set(KNOWN_SECTIONS)
    if unknown:
        ap.error(
            f"unknown section(s): {', '.join(sorted(unknown))}; "
            f"known sections: {', '.join(KNOWN_SECTIONS)}"
        )
    if not sections:
        ap.error(
            f"no sections selected; known sections: {', '.join(KNOWN_SECTIONS)}"
        )

    degree = args.degree or (256 if args.quick else 1024)
    primes = args.primes or (6 if args.quick else 10)
    repeats = 3 if args.quick else 5

    ctx = CkksContext.create(toy_params(degree=degree, num_primes=primes), seed=2025)
    meta_common = {
        "degree": degree,
        "num_primes": primes,
        "backend": default_backend_name(),
        "quick": bool(args.quick),
        "repeats": repeats,
    }

    if "core" in sections:
        results: dict[str, dict] = {}
        results.update(bench_kernels(ctx, repeats))
        results.update(bench_key_switch(ctx, repeats))
        results.update(bench_rotate(ctx, repeats))
        results.update(bench_bsgs(ctx, repeats))
        if not args.quick:
            results.update(bench_bootstrap_step(max(1, repeats - 3)))

        def ratio(slow: str, fast: str) -> float:
            return results[slow]["best_s"] / results[fast]["best_s"]

        speedups = {
            "key_switch": ratio("key_switch_loop", "key_switch_batched"),
            "rotate": ratio("rotate_reference", "rotate"),
            f"rotate_hoisted_x{HOIST_BATCH}": ratio(
                f"rotate_x{HOIST_BATCH}_reference", f"rotate_x{HOIST_BATCH}_hoisted"
            ),
            "bsgs_matmul": ratio("bsgs_matmul_reference", "bsgs_matmul_hoisted"),
        }
        payload = {
            "meta": {"bench": "keyswitch-engine", **meta_common},
            "results_s": results,
            "speedups_x": speedups,
        }
        _print_section(
            f"key-switch engine bench  (N=2^{degree.bit_length()-1}, L={primes}, "
            f"backend={meta_common['backend']})",
            results,
            speedups,
            "reference / engine",
        )
        _finalize(payload, Path(args.out), args.append_trajectory)

    if "runtime" in sections:
        rt_results, rt_fused_stats = bench_runtime(ctx, repeats)

        def rt_ratio(slow: str, fast: str) -> float:
            return rt_results[slow]["best_s"] / rt_results[fast]["best_s"]

        rt_speedups = {
            "bsgs_planned": rt_ratio("bsgs_eager_dispatch", "bsgs_planned"),
            "bsgs_fused_replay": rt_ratio(
                "bsgs_eager_dispatch", "bsgs_fused_replay_per_ct"
            ),
            "poly3_planned": rt_ratio("poly3_eager_dispatch", "poly3_planned"),
            "poly3_fused_replay": rt_ratio(
                "poly3_eager_dispatch", "poly3_fused_replay_per_ct"
            ),
        }
        rt_payload = {
            "meta": {"bench": "lazy-runtime", **meta_common, "batch": RUNTIME_BATCH},
            "results_s": rt_results,
            "fused_stats": rt_fused_stats,
            "speedups_x": rt_speedups,
        }
        _print_section(
            f"\nlazy-runtime bench  (N=2^{degree.bit_length()-1}, L={primes}, "
            f"batch={RUNTIME_BATCH})",
            rt_results,
            rt_speedups,
            "eager dispatch / runtime",
        )
        _finalize(rt_payload, Path(args.runtime_out), args.append_trajectory)

    if "serving" in sections:
        workers = sorted(
            {int(w) for w in args.serving_workers.split(",") if w.strip()}
        )
        n_requests = args.serving_requests or (8 if args.quick else 16)
        serving = bench_serving(ctx, repeats, workers, n_requests, args.link_mbps)
        sv_payload = {
            "meta": {
                "bench": "serving-engine",
                **meta_common,
                "requests": n_requests,
                "workers": workers,
                "link_mbps": args.link_mbps,
            },
            **{k: v for k, v in serving.items() if k != "results"},
            "results_s": serving["results"],
            "speedups_x": serving["speedups_x"],
        }
        _print_section(
            f"\nserving-engine bench  (N=2^{degree.bit_length()-1}, L={primes}, "
            f"{n_requests} requests, workers={workers}, "
            f"modeled link {args.link_mbps:g} Mbps "
            f"-> {serving['io_model']['modeled_io_s']*1e3:.1f} ms/request)",
            serving["results"],
            serving["speedups_x"],
            "scaling vs smallest pool; batch latency / streaming latency",
        )
        st = serving["streaming"]
        print(
            f"  streaming: mean latency {st['mean_latency_s']*1e3:.1f} ms, "
            f"p95 {st['p95_latency_s']*1e3:.1f} ms, first result "
            f"{st['time_to_first_result_s']*1e3:.1f} ms, max queue depth "
            f"{st['max_queue_depth']}, {st['throughput_rps']:.1f} req/s"
        )
        print(
            "  dual-RSC policies (modeled): "
            + ", ".join(
                f"{p} {s*1e3:.3f} ms"
                for p, s in sorted(
                    serving["accel_policy_makespan_s"].items(), key=lambda kv: kv[1]
                )
            )
        )
        _finalize(sv_payload, Path(args.serving_out), args.append_trajectory)

    if "chaos" in sections:
        chaos_requests = args.chaos_requests or (16 if args.quick else 64)
        crash_rates = [0.05, 0.10, 0.20]
        chaos = bench_chaos(
            ctx, args.chaos_workers, chaos_requests, crash_rates, args.chaos_seed
        )
        ch_payload = {
            "meta": {
                "bench": "chaos-recovery",
                **meta_common,
                "requests": chaos_requests,
                "workers": args.chaos_workers,
                "crash_rates": crash_rates,
                "chaos_seed": args.chaos_seed,
            },
            **{k: v for k, v in chaos.items() if k != "results"},
            "results_s": chaos["results"],
            "speedups_x": chaos["speedups_x"],
        }
        _print_section(
            f"\nchaos-recovery bench  (N=2^{degree.bit_length()-1}, L={primes}, "
            f"{chaos_requests} requests, {args.chaos_workers} workers, "
            f"seed {args.chaos_seed}; surviving outputs asserted "
            "bit-identical, zero lost/duplicated)",
            chaos["results"],
            chaos["speedups_x"],
            "fault-free / faulted wall-clock (1.0 = recovery is free)",
        )
        for level, row in chaos["recovery"].items():
            print(
                f"  {level}: {row['worker_crashes']} crashes, "
                f"{row['respawns']} respawns, {row['retries']} retries, "
                f"overhead {row['overhead_x']:.2f}x"
            )
        _finalize(ch_payload, Path(args.chaos_out), args.append_trajectory)

    if "telemetry" in sections:
        tel_requests = args.telemetry_requests or (8 if args.quick else 16)
        tel = bench_telemetry(ctx, repeats, args.telemetry_workers, tel_requests)
        tel_payload = {
            "meta": {
                "bench": "telemetry-overhead",
                **meta_common,
                "requests": tel_requests,
                "workers": args.telemetry_workers,
                "batch": RUNTIME_BATCH,
            },
            **{k: v for k, v in tel.items() if k != "results"},
            "results_s": tel["results"],
            "speedups_x": tel["speedups_x"],
        }
        _print_section(
            f"\ntelemetry-overhead bench  (N=2^{degree.bit_length()-1}, "
            f"L={primes}, fused batch={RUNTIME_BATCH}, {tel_requests} "
            f"requests on {args.telemetry_workers} workers; in-run bounds: "
            "disabled hooks <=2%, full tracing <=10% on fused replay)",
            tel["results"],
            tel["speedups_x"],
            "telemetry off / mode wall-clock (1.0 = instrumentation is free)",
        )
        ov = tel["overhead"]
        print(
            f"  fused overhead: disabled {ov['fused_disabled_x']:.3f}x, "
            f"enabled {ov['fused_enabled_x']:.3f}x "
            f"({ov['spans_recorded_on']} spans recorded when on, "
            f"{ov['spans_recorded_disabled']} when sampled out)"
        )
        _finalize(tel_payload, Path(args.telemetry_out), args.append_trajectory)

    if "fabric" in sections:
        fabric_requests = args.fabric_requests or (8 if args.quick else 16)
        fabric = bench_fabric(
            ctx, repeats, args.fabric_workers, fabric_requests, args.quick
        )
        fb_payload = {
            "meta": {
                "bench": "serving-fabric",
                **meta_common,
                "requests": fabric_requests,
                "workers": args.fabric_workers,
            },
            **{k: v for k, v in fabric.items() if k != "results"},
            "results_s": fabric["results"],
            "speedups_x": fabric["speedups_x"],
        }
        lr = fabric["large_reply"]
        fr = fabric["framing"]
        _print_section(
            f"\nserving-fabric bench  (N=2^{degree.bit_length()-1}, L={primes}, "
            f"{fabric_requests} requests on {args.fabric_workers} workers; "
            "all transports asserted bit-identical; shm ring and batched "
            "framing asserted to win their micro-benches)",
            fabric["results"],
            fabric["speedups_x"],
            "pipe / shm large-reply time; per-message / batched framing time",
        )
        print(
            "  transports: "
            + ", ".join(
                f"{t} {rps:.1f} req/s"
                for t, rps in fabric["throughput_rps"].items()
            )
        )
        print(
            f"  large replies: {lr['replies']} x {lr['reply_bytes']>>20} MiB — "
            f"pipe {lr['pipe_s']*1e3:.1f} ms, shm ring {lr['shm_s']*1e3:.1f} ms"
        )
        print(
            f"  framing: {fr['messages']} x {fr['message_bytes']} B — "
            f"{fr['frames_per_message']} frames per-message vs "
            f"{fr['frames_batched']} batched "
            f"({fr['messages_per_frame']} msgs/frame)"
        )
        ra = fabric["remote_attach"]
        print(
            f"  remote host: cold start {ra['cold_s']*1e3:.0f} ms vs "
            f"reattach {ra['reattach_s']*1e3:.0f} ms "
            "(plan_uploads asserted 1 cold / 0 reattach)"
        )
        _finalize(fb_payload, Path(args.fabric_out), args.append_trajectory)

    if "planio" in sections:
        planio = bench_plan_io(ctx, repeats)
        pio_payload = {
            "meta": {"bench": "plan-io", **meta_common},
            **{k: v for k, v in planio.items() if k != "results"},
            "results_s": planio["results"],
        }
        _print_section(
            f"\nplan-io bench  (N=2^{degree.bit_length()-1}, L={primes}, "
            f"BSGS program: {planio['nodes']} nodes, "
            f"{planio['constants']} constants, "
            f"{planio['artifact_bytes']/1e6:.2f} MB artifact)",
            planio["results"],
            planio["speedups_x"],
            "cold compile / artifact path",
        )
        _finalize(pio_payload, Path(args.planio_out), args.append_trajectory)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

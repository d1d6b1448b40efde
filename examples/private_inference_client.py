"""Private inference served end to end — the workload that motivates the paper.

Clients hold feature vectors; a server holds a tiny model
(linear layer -> square activation -> linear layer, the classic
CKKS-friendly network).  Clients encrypt, the server computes blind, the
clients decrypt.  The server side is written once against the shared
evaluator surface, traced, compiled to a cached
:class:`~repro.runtime.plan.ExecutionPlan`, and **served by the
multi-process engine** through the unified surface: ``serve(plan,
ServingConfig(...))`` opens a session whose worker pool runs behind a
``tcp`` worker host — the compiled plan crosses to it as one
self-contained ``EPL1`` blob (each constant inline once, named by its
content fingerprint, the cross-machine path; see docs/formats.md) — and
``session.streaming()`` feeds it from a bounded
request queue so each client's encrypt -> evaluate -> decrypt pipeline
overlaps the others'.  Ciphertexts cross the worker boundary through the
wire formats of :mod:`repro.ckks.serialization`, and the streamed
outputs are asserted bit-identical to eager one-op-at-a-time evaluation.

Afterwards the accelerator model reports what each client phase would
cost on ABC-FHE vs a CPU at bootstrappable parameters — reproducing the
Fig. 1 story end to end — and the engine's own served queue is projected
onto the dual-RSC scheduling policies through the runtime bridge.

Run:  python examples/private_inference_client.py
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.accel import ClientSimulator, CpuModel, abc_fhe
from repro.accel import calibration as cal
from repro.ckks import CkksContext, toy_params
from repro.runtime import (
    CtSpec,
    ServingConfig,
    compile_fn,
    plan_to_workload,
    serve,
)

NUM_CLIENTS = 4
# tcp: the worker host rebuilds the plan from its EPL1 bytes instead of
# inheriting the compiled object through fork, and its workers replay it
# through the arena-backed fused executor (the default) — same bits as
# eager, fewer dispatches.  max_pending bounds the streaming admission queue.
SERVING = ServingConfig(num_workers=2, max_pending=3, transport="tcp")


def server_side_model(ev, ct, ctx, weights1, bias1, weights2, relin_keys):
    """Evaluate bias2-free  W2 * (W1 * x + b1)^2  against any evaluator.

    Element-wise weights keep the example compact (a diagonal linear
    layer); the structure — multiply_plain, add_plain, square with
    relinearize + double rescale — is exactly the CKKS inference recipe.
    ``ct`` may be a live ciphertext (eager) or a symbolic handle (traced):
    both carry the level/scale metadata the plaintext encodings need.
    """
    hidden = ev.multiply_plain(ct, weights1)
    hidden = ev.rescale(hidden, times=ctx.params.levels_per_multiplication)
    b1 = ctx.encoder.encode(bias1, level=hidden.level, scale=hidden.scale)
    hidden = ev.add_plain(hidden, b1)

    squared = ev.multiply_relin_rescale(hidden, hidden, relin_keys)

    w2 = ctx.encoder.encode(weights2, level=squared.level, scale=squared.scale)
    out = ev.multiply_plain(squared, w2)
    return ev.rescale(out, times=ctx.params.levels_per_multiplication)


def main() -> None:
    rng = np.random.default_rng(42)
    params = toy_params(degree=1 << 10, num_primes=10)
    ctx = CkksContext.create(params, seed=7)
    slots = params.slots

    features = [rng.uniform(-1, 1, slots) for _ in range(NUM_CLIENTS)]
    w1 = rng.uniform(-0.5, 0.5, slots)
    b1 = rng.uniform(-0.1, 0.1, slots)
    w2 = rng.uniform(-0.5, 0.5, slots)

    # --- server: trace + compile the model once ------------------------
    rlk = ctx.relin_keys(levels=[params.num_primes - 2])
    w1_pt = ctx.encode(w1)
    plan = compile_fn(
        lambda ev, x: server_side_model(ev, x, ctx, w1_pt, b1, w2, rlk),
        ctx.evaluator,
        [CtSpec(level=params.num_primes, scale=params.scale)],
    )
    print(plan.summary())
    fstats = plan.stats()
    print(f"  fused replay: {fstats['nodes']} node dispatches -> "
          f"{fstats['dispatch_count_fused']} fused "
          f"({fstats['fused_groups']} groups covering "
          f"{fstats['fused_nodes']} nodes); arena {fstats['arena_slots']} slots, "
          f"peak {fstats['arena_peak_bytes'] / 1024:.0f} KiB")

    # --- clients encrypt, then the streaming engine serves --------------
    # Each request: enter the bounded queue (backpressure at
    # SERVING.max_pending), evaluate on a forked worker, decrypt in the
    # thread pool — phases overlap across clients.
    cts = [ctx.encrypt(f) for f in features]

    def as_request(ct):
        return [ct]

    def decrypt(outputs):
        return ctx.decrypt_decode(outputs[0]).real, outputs[0]

    async def serve_all():
        session = serve(plan, SERVING, warm_inputs=[cts[0]])
        async with session.streaming() as server:
            served = await server.serve(cts, encrypt=as_request, decrypt=decrypt)
            return served, server.stats(), server.schedule_comparison()

    served, stats, policies = asyncio.run(serve_all())
    predictions = [pred for pred, _ in served]
    output_cts = [out_ct for _, out_ct in served]

    # The sharded, streamed path must be bit-identical to eager dispatch.
    eager = server_side_model(ctx.evaluator, cts[0], ctx, w1_pt, b1, w2, rlk)
    for i, (a, b) in enumerate(zip(eager.parts, output_cts[0].parts)):
        assert np.array_equal(a.data, b.data), f"part {i} diverged from eager"
    assert eager.scale == output_cts[0].scale
    print("  streamed sharded replay is bit-identical to eager evaluation")
    worst = 0.0
    for f, pred in zip(features, predictions):
        expected = w2 * (w1 * f + b1) ** 2
        worst = max(worst, float(np.max(np.abs(pred - expected))))

    latency = stats["latency"]
    print(f"private inference: W2 * (W1*x + b1)^2, {NUM_CLIENTS} clients, "
          f"{SERVING.num_workers} forked workers, queue bound "
          f"{SERVING.max_pending}")
    print(f"  ciphertext levels: {params.num_primes} -> {output_cts[0].level} "
          "(server consumed levels, as in Fig. 2a)")
    print(f"  max error vs plaintext model: {worst:.2e}")
    print(f"  per-request latency: mean {latency['mean_s']*1e3:.1f} ms, "
          f"p95 {latency['p95_s']*1e3:.1f} ms; max queue depth "
          f"{stats['max_queue_depth']}; {stats['throughput_rps']:.1f} req/s")
    print(f"  pool: {stats['executor']['completed']} served, "
          f"{stats['executor']['worker_crashes']} crashes\n")

    # --- the Fig. 1 projection at bootstrappable parameters ------------
    # The client workload comes from the traced plan's I/O boundary,
    # projected onto the paper's N = 2^16 ring.
    workload = plan_to_workload(plan, degree=1 << 16)
    sim = ClientSimulator(config=abc_fhe(), workload=workload)
    abc_client = (
        sim.encode_encrypt().latency_seconds + sim.decode_decrypt().latency_seconds
    )
    cpu = CpuModel()
    cpu_client = cpu.encode_encrypt_seconds(workload) + cpu.decode_decrypt_seconds(
        workload
    )
    server = cal.SERVER_ASIC_EVAL_SECONDS

    print("projected per-inference breakdown at N = 2^16 (server = [9]-class ASIC):")
    for name, client in (("CPU client", cpu_client), ("ABC-FHE client", abc_client)):
        total = client + server
        print(f"  {name:15s} client {client*1e3:8.2f} ms ({client/total*100:5.1f}%)   "
              f"server {server*1e3:6.2f} ms ({server/total*100:5.1f}%)")
    print("  -> with ABC-FHE the client stops being the bottleneck (Fig. 1)")

    # --- the engine's served queue on the two RSCs ----------------------
    print(f"\nscheduling the engine's served queue ({NUM_CLIENTS} requests) "
          "on the dual RSCs:")
    for result in policies:
        print(f"  {result.policy:13s} {result.makespan_seconds*1e3:8.3f} ms")


if __name__ == "__main__":
    main()

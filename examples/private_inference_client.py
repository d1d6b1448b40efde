"""Private inference served end to end — the workload that motivates the paper.

Clients hold feature vectors; a server holds a tiny model
(linear layer -> square activation -> linear layer, the classic
CKKS-friendly network).  Clients encrypt, the server computes blind, the
clients decrypt.  The server side is written once against the shared
evaluator surface, traced, compiled to a cached
:class:`~repro.runtime.plan.ExecutionPlan`, and **served by the
multi-process engine** through the unified surface: ``serve(plan,
ServingConfig(...))`` returns a worker pool running behind a ``tcp``
worker host — the compiled plan crosses to it as one self-contained
``EPL1`` blob (each constant inline once, named by its content
fingerprint, the cross-machine path; see docs/formats.md).  The clients
keep a small window of requests in flight through ``pool.submit()``
futures, so one client's encrypt and another's decrypt overlap the
pool's evaluation.  Ciphertexts cross the worker boundary through the
wire formats of :mod:`repro.ckks.serialization`, and the served outputs
are asserted bit-identical to eager one-op-at-a-time evaluation.

Afterwards the accelerator model reports what each client phase would
cost on ABC-FHE vs a CPU at bootstrappable parameters — reproducing the
Fig. 1 story end to end — and the served run is projected onto the
dual-RSC scheduling policies through the runtime bridge.

Run:  python examples/private_inference_client.py
"""

from __future__ import annotations

import time
from collections import deque

import numpy as np

from repro.accel import ClientSimulator, CpuModel, abc_fhe
from repro.accel import calibration as cal
from repro.ckks import CkksContext, toy_params
from repro.runtime import (
    CtSpec,
    ServingConfig,
    compile_fn,
    plan_schedule_comparison,
    plan_to_workload,
    serve,
)

NUM_CLIENTS = 4
WINDOW = 3  # requests in flight at once
# tcp: the worker host rebuilds the plan from its EPL1 bytes instead of
# inheriting the compiled object through fork, and its workers replay it
# through the arena-backed fused executor (the default) — same bits as
# eager, fewer dispatches.
SERVING = ServingConfig(num_workers=2, transport="tcp")


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

    # --- clients encrypt, the pool serves, a window at a time -----------
    # Each client encrypts and submits; once WINDOW requests are in
    # flight, the oldest is decrypted before the next is sent, so client
    # phases overlap the workers' evaluation and results arrive in order.
    cts, output_cts, predictions, latencies = [], [], [], []
    window = deque()  # (future, time the client started the request)

    def collect():
        future, started = window.popleft()
        (out_ct,) = future.result()
        predictions.append(ctx.decrypt_decode(out_ct).real)
        output_cts.append(out_ct)
        latencies.append(time.perf_counter() - started)

    with serve(plan, SERVING, warm_inputs=[ctx.encrypt(features[0])]) as pool:
        began = time.perf_counter()
        for f in features:
            started = time.perf_counter()
            cts.append(ctx.encrypt(f))
            window.append((pool.submit([cts[-1]]), started))
            if len(window) == WINDOW:
                collect()
        while window:
            collect()
        wall = time.perf_counter() - began
        stats = pool.stats()
    policies = plan_schedule_comparison(
        plan, requests=stats["completed"], failures=stats["errors"]
    )

    # The sharded path must be bit-identical to eager dispatch.
    eager = server_side_model(ctx.evaluator, cts[0], ctx, w1_pt, b1, w2, rlk)
    for i, (a, b) in enumerate(zip(eager.parts, output_cts[0].parts)):
        assert np.array_equal(a.data, b.data), f"part {i} diverged from eager"
    assert eager.scale == output_cts[0].scale
    print("  sharded replay is bit-identical to eager evaluation")
    worst = 0.0
    for f, pred in zip(features, predictions):
        expected = w2 * (w1 * f + b1) ** 2
        worst = max(worst, float(np.max(np.abs(pred - expected))))

    print(f"private inference: W2 * (W1*x + b1)^2, {NUM_CLIENTS} clients, "
          f"{SERVING.num_workers} workers, {WINDOW} requests in flight")
    print(f"  ciphertext levels: {params.num_primes} -> {output_cts[0].level} "
          "(server consumed levels, as in Fig. 2a)")
    print(f"  max error vs plaintext model: {worst:.2e}")
    print(f"  per-request latency (encrypt to decrypted): mean "
          f"{np.mean(latencies)*1e3:.1f} ms, max {max(latencies)*1e3:.1f} ms; "
          f"{len(latencies) / wall:.1f} req/s")
    print(f"  pool: {stats['completed']} served, {stats['errors']} failed, "
          f"{stats['worker_crashes']} crashes\n")

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
    print(f"\nscheduling the served queue ({stats['completed']} requests) "
          "on the dual RSCs:")
    for result in policies:
        print(f"  {result.policy:13s} {result.makespan_seconds*1e3:8.3f} ms")


if __name__ == "__main__":
    main()

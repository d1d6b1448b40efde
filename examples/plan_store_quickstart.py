"""Plan store quickstart: compile once, save, reload cold, serve shipped.

The loop a serving fleet runs (see README "Plan store" and
docs/formats.md for the EPL1/PCS1 artifact formats):

1. trace + compile a CKKS program and let an installed ``PlanStore``
   persist the artifact automatically;
2. simulate a fresh process (cleared in-memory plan cache): the same
   ``compile_fn`` call now resolves to the on-disk artifact — the
   optimizer never runs;
3. serve through a ``tcp`` worker pool, whose worker host is sent the
   EPL1 bytes (once) and deserializes them instead of inheriting the
   compiled plan via fork — the cross-machine path;
4. assert every path's outputs are byte-identical.

Run:  python examples/plan_store_quickstart.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # running from a bare checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from repro.ckks import CkksContext, toy_params
from repro.runtime import (
    CtSpec,
    PlanStore,
    ServingConfig,
    ShardedExecutor,
    clear_plan_cache,
    compile_fn,
    plan_cache_info,
    serialize_plan,
    set_plan_store,
)


def assert_identical(got, want, what: str) -> None:
    for g, w in zip(got, want):
        assert g.scale == w.scale, f"{what}: scale diverged"
        for gp, wp in zip(g.parts, w.parts):
            assert np.array_equal(gp.data, wp.data), f"{what}: bits diverged"
    print(f"  {what}: byte-identical")


def main() -> None:
    ctx = CkksContext.create(toy_params(degree=256, num_primes=6), seed=11)
    rlk = ctx.relin_keys(levels=[6])
    gks = ctx.galois_keys([1, 2], levels=[6])

    def model(ev, x):
        s = ev.add(ev.rotate(x, 1, gks), ev.rotate(x, 2, gks))
        return ev.multiply_relin_rescale(s, s, rlk)

    spec = CtSpec(level=6, scale=ctx.params.scale)
    rng = np.random.default_rng(3)
    requests = [[ctx.encrypt(rng.uniform(-1, 1, ctx.params.slots))] for _ in range(4)]

    with tempfile.TemporaryDirectory() as store_dir:
        # --- 1. compile with a plan store installed: saved automatically
        set_plan_store(PlanStore(store_dir))
        plan = compile_fn(model, ctx.evaluator, [spec])
        reference = plan.run_batch(requests)
        store = PlanStore(store_dir)
        [key] = store.keys()
        blob = serialize_plan(plan)
        print(f"compiled: {plan.summary()}")
        print(f"saved artifact {key}.epl1 ({len(blob) / 1e3:.1f} kB serialized)")

        # --- 2. "fresh process": cold cache, same store -> disk hit
        clear_plan_cache()
        reloaded = compile_fn(model, ctx.evaluator, [spec])
        stats = plan_cache_info()
        assert stats["disk_hits"] == 1, stats
        print(f"cold-cache recompile became a disk hit: {stats}")
        assert_identical(reloaded.run_batch(requests)[0], reference[0],
                         "disk-loaded plan")

        # --- 3. or load an artifact directly, no tracing at all (the
        # .pcs1 sidecar supplies the constants on a fresh host)
        direct = store.load_path(store.path_for(key), ctx.evaluator)
        assert_identical(direct.run_batch(requests)[0], reference[0],
                         "load_path (no trace)")

        # --- 4. serve with workers whose host deserializes the shipped plan
        config = ServingConfig(num_workers=2, transport="tcp")
        with ShardedExecutor(plan, config=config) as pool:
            shipped = pool.run_batch(requests, timeout=120)
            stats = pool.stats()
            assert stats["inline"] or stats["transport_stats"]["plan_uploads"] == 1
        for i, (got, want) in enumerate(zip(shipped, reference)):
            assert_identical(got, want, f"shipped-plan worker replay #{i}")

        set_plan_store(None)
    print("plan store quickstart: all paths byte-identical")


if __name__ == "__main__":
    main()

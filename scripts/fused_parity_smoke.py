#!/usr/bin/env python3
"""Fused-replay parity smoke: eager / interpreter / fused bits, every backend.

The acceptance loop for the fused plan replayer, run by CI:

1. for each installed reducer backend (generic-split / barrett /
   montgomery), run a rotate + MAC + multiply/relin/rescale program and
   a dense BSGS linear transform (default split: hoisted baby rotations,
   giant rotations, one long plaintext MAC per giant step) eagerly,
   through the reference interpreter, and through the arena-backed
   fused replayer — all three must agree byte-for-byte;
2. replay the same plan through a numpy-backed *stub* array namespace
   registered under a non-default name, which drives the fused
   executor's host-staging branches (the exact path a GPU namespace
   takes) — bits must again be identical.

Exit code 0 means every executed combination was bit-identical.

Usage::

    PYTHONPATH=src python scripts/fused_parity_smoke.py [--degree 256]
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # running from a bare checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from repro.ckks import CkksContext, HomomorphicLinearTransform, toy_params
from repro.nums.backend import get_array_namespace, register_array_namespace
from repro.nums.kernels import available_backends, using_backend
from repro.runtime import CtSpec, compile_fn


def _assert_same(tag: str, want, got) -> None:
    assert want.scale == got.scale, f"{tag}: scale diverged"
    for i, (a, b) in enumerate(zip(want.parts, got.parts)):
        assert np.array_equal(a.data, b.data), f"{tag}: part {i} diverged"


def _run_one(backend: str, degree: int, primes: int, array_backends) -> None:
    with using_backend(backend):
        ctx = CkksContext.create(
            toy_params(degree=degree, num_primes=primes), seed=97
        )
        lvl = ctx.params.num_primes
        gks = ctx.galois_keys([1, 2], levels=[lvl])
        rlk = ctx.relin_keys(levels=[lvl])
        pts = [
            ctx.encoder.encode(
                np.full(ctx.params.slots, 0.2 * (i + 1)),
                level=lvl,
                scale=ctx.params.scale,
            )
            for i in range(3)
        ]

        def program(ev, x):
            rot = ev.add(ev.rotate(x, 1, gks), ev.rotate(x, 2, gks))
            mac = ev.add(
                ev.add(ev.multiply_plain(x, pts[0]), ev.multiply_plain(x, pts[1])),
                ev.multiply_plain(x, pts[2]),
            )
            return ev.multiply_relin_rescale(rot, x, rlk), mac

        rng = np.random.default_rng(5)
        ct = ctx.encrypt(rng.uniform(-1, 1, ctx.params.slots))
        spec = CtSpec(level=lvl, scale=ctx.params.scale)

        slots = ctx.params.slots
        hlt = HomomorphicLinearTransform(
            ctx, rng.uniform(-1, 1, (slots, slots)) / slots, level=lvl
        )
        bsgs_keys = ctx.galois_keys(hlt.required_rotations(), levels=[lvl])

        def bsgs(ev, x):
            return (hlt.emit(ev, x, bsgs_keys),)

        for name, fn in (("program", program), ("bsgs", bsgs)):
            eager = fn(ctx.evaluator, ct)
            plan = compile_fn(fn, ctx.evaluator, [spec])
            for want, got in zip(eager, plan.run([ct])):
                _assert_same(f"{backend}/{name}/interpreter", want, got)

            for array_backend in array_backends:
                (fused,) = plan.run_batch(
                    [[ct]], fused=True, array_backend=array_backend
                )
                tag = f"{backend}/{name}/fused[{array_backend}]"
                for want, got in zip(eager, fused):
                    _assert_same(tag, want, got)
                stats = plan.stats()
                print(
                    f"  {tag}: OK "
                    f"({stats['nodes']} -> "
                    f"{stats['dispatch_count_fused']} dispatches, "
                    f"arena {stats['arena_slots']} slots)"
                )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--degree", type=int, default=256, help="ring degree")
    ap.add_argument("--primes", type=int, default=6, help="chain length")
    args = ap.parse_args(argv)

    # The stub namespace: numpy under another name, so is_host is False
    # and the fused replayer exercises its device-staging branches.
    register_array_namespace(
        dataclasses.replace(get_array_namespace("numpy"), name="stub-host")
    )
    array_backends = ["numpy", "stub-host"]

    for backend in available_backends():
        _run_one(backend, args.degree, args.primes, array_backends)

    print(
        f"fused parity smoke: {len(available_backends())} reducer backend(s) x "
        f"{len(array_backends)} array namespace(s), all bit-identical to eager"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Engine-vs-reference ratio benches at one shape: N=2^10, L=10.

``bench/`` + ``BENCHMARK.json`` judge everything end to end — client,
fused replay, serving, codec, transport.  What stays here are the ratios
that have signal at this shape and that no ``bench/`` workload isolates.
Three sections, selectable with ``--sections``:

* ``core`` → ``BENCH_keyswitch.json``: key switching, rotation (plain and
  hoisted x8) and the BSGS matmul against the seed reference paths
  (per-digit loop, coeff-domain automorphisms, unhoisted BSGS);
* ``runtime`` → ``BENCH_runtime.json``: eager one-op-at-a-time dispatch
  vs. a compiled ``ExecutionPlan`` through the interpreter vs. fused plan
  replay, on the BSGS matmul and a three-level polynomial, with each
  plan's arena/dispatch stats;
* ``fabric`` → ``BENCH_fabric.json``: reattach vs. cold start against a
  CLI-spawned remote worker host.

Every ratio is measured by :func:`_interleaved`: each round samples the
reference and then the engine back to back, so host drift lands on
numerator and denominator alike.  A file stores ``speedups_x[name]``
(best reference / best engine) beside ``noise_x[name]``, the spread of
the per-round ratios, which ``check_regression.py`` takes as the ratio's
own noise band.  Nothing here asserts on a clock — the gate is the only
timing judge; counters and output bits are asserted exactly.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py                 # ~1 min
    PYTHONPATH=src python benchmarks/run_bench.py --sections core

Runs from a checkout without installation (``src`` is added to the path).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

try:
    import repro  # noqa: F401
except ImportError:  # running from a bare checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from repro.ckks import (
    Ciphertext,
    CkksContext,
    HomomorphicLinearTransform,
    Plaintext,
    toy_params,
)
from repro.ckks.keys import rotation_galois_elt
from repro.nums.kernels import default_backend_name
from repro.runtime import CtSpec, ServingConfig, ShardedExecutor, compile_fn

DEGREE = 1024
PRIMES = 10
ROUNDS = 5  # interleaved rounds per ratio
ROUND_S = 0.5  # a round keeps alternating its timers until this is spent

Timer = Callable[[], float]  # runs its workload once, returns seconds


def _wall(fn: Callable[[], object]) -> Timer:
    """A timer that charges ``fn`` its whole wall-clock."""

    def timer() -> float:
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    return timer


def _interleaved(
    timers: dict[str, Timer], ratios: dict[str, tuple[str, str]], payload: dict
) -> None:
    """Round-robin ``timers`` and fold rows, ratios and noise into ``payload``.

    One warm pass, then ``ROUNDS`` rounds.  A round calls every timer
    once in dict order — list a ratio's reference right before its
    engine — and keeps alternating for ``ROUND_S``, sampling each timer's
    best call: numerator and denominator share every host phase longer
    than one pass, and millisecond rows are not at the mercy of one
    preemption.  ``ratios`` maps a ratio name to its ``(slow, fast)``
    rows; ``noise_x`` is ``(max - min) / median`` of the per-round
    slow/fast ratios.
    """
    for timer in timers.values():
        timer()
    samples: dict[str, list[float]] = {name: [] for name in timers}
    for _ in range(ROUNDS):
        best = dict.fromkeys(timers, float("inf"))
        deadline = time.perf_counter() + ROUND_S
        while True:
            for name, timer in timers.items():
                best[name] = min(best[name], timer())
            if time.perf_counter() >= deadline:
                break
        for name, seconds in best.items():
            samples[name].append(seconds)
    for name, rows in samples.items():
        payload["results_s"][name] = {
            "best_s": min(rows),
            "mean_s": sum(rows) / len(rows),
        }
    for name, (slow, fast) in ratios.items():
        per_round = [s / f for s, f in zip(samples[slow], samples[fast])]
        payload["speedups_x"][name] = min(samples[slow]) / min(samples[fast])
        payload["noise_x"][name] = (
            max(per_round) - min(per_round)
        ) / statistics.median(per_round)


# --- Seed reference paths (per-digit loop, coeff-domain automorphisms) ---


def _rotate_reference(ev, ct: Ciphertext, steps: int, galois_keys) -> Ciphertext:
    """The seed rotation: two coeff-domain automorphism round trips plus
    the per-digit key-switch loop.

    Decrypts to the same message as the engine's rotation but encodes a
    different (equally valid) noise representative: the engine permutes
    already-decomposed digits, the seed decomposed the permuted
    polynomial (see ``repro.ckks.evaluator.galois_rows``).
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


def _dense_matmul(ctx, rng):
    """A dense slots x slots BSGS transform with its rotation keys."""
    lvl = ctx.params.num_primes
    slots = ctx.params.slots
    matrix = rng.uniform(-1, 1, (slots, slots)) + 1j * rng.uniform(
        -1, 1, (slots, slots)
    )
    hlt = HomomorphicLinearTransform(ctx, matrix, level=lvl)
    return hlt, ctx.galois_keys(hlt.required_rotations(), levels=[lvl])


# --- core: key switch, rotation, BSGS vs. the seed paths ---

HOIST_STEPS = range(1, 9)  # rotations amortized per hoisted decomposition


def section_core(ctx, payload: dict) -> None:
    lvl = ctx.params.num_primes
    rng = np.random.default_rng(12)
    ev = ctx.evaluator
    ct = ctx.encrypt(rng.uniform(-1, 1, ctx.params.slots))

    key = ctx.relin_keys(levels=[lvl])[lvl]
    poly = ct.parts[1]
    _interleaved(
        {
            "key_switch_loop": _wall(lambda: ev.keyswitch.switch_reference(poly, key)),
            "key_switch_batched": _wall(lambda: ev.keyswitch.switch(poly, key)),
        },
        {"key_switch": ("key_switch_loop", "key_switch_batched")},
        payload,
    )

    gks = ctx.galois_keys(list(HOIST_STEPS), levels=[lvl])

    def reference_batch():
        for s in HOIST_STEPS:
            _rotate_reference(ev, ct, s, gks)

    def hoisted_batch():
        dec = ev.decompose(ct)
        for s in HOIST_STEPS:
            ev.rotate(ct, s, gks, decomposed=dec)

    _interleaved(
        {
            "rotate_reference": _wall(lambda: _rotate_reference(ev, ct, 1, gks)),
            "rotate": _wall(lambda: ev.rotate(ct, 1, gks)),
            "rotate_x8_reference": _wall(reference_batch),
            "rotate_x8_hoisted": _wall(hoisted_batch),
        },
        {
            "rotate": ("rotate_reference", "rotate"),
            "rotate_hoisted_x8": ("rotate_x8_reference", "rotate_x8_hoisted"),
        },
        payload,
    )

    hlt, bsgs_keys = _dense_matmul(ctx, rng)
    # The seed stored diagonals coefficient-domain and transformed them
    # on every multiply (the engine caches them in the NTT domain).
    coeff_diagonals = {
        key: Plaintext(poly=pt.poly.to_coeff(), scale=pt.scale)
        for key, pt in hlt._diagonals.items()
    }
    _interleaved(
        {
            "bsgs_matmul_reference": _wall(
                lambda: _bsgs_reference(hlt, ct, bsgs_keys, coeff_diagonals)
            ),
            "bsgs_matmul_hoisted": _wall(lambda: hlt.apply(ct, bsgs_keys)),
        },
        {"bsgs_matmul": ("bsgs_matmul_reference", "bsgs_matmul_hoisted")},
        payload,
    )


# --- runtime: eager dispatch vs. interpreter vs. fused replay ---

RUNTIME_BATCH = 8  # ciphertexts replayed per cached plan in the fused rows


def _runtime_rows(name: str, eager, plan, ct, batch, payload: dict) -> None:
    """Eager vs. planned vs. fused-per-ciphertext rows for one program.

    The warm pass compiles the plan, lays out the arena and builds the
    per-key pre-formed tensors, so the rounds measure steady state.
    """
    fused_batch = _wall(lambda: plan.run_batch(batch, fused=True))
    _interleaved(
        {
            f"{name}_eager_dispatch": _wall(eager),
            f"{name}_planned": _wall(lambda: plan.run([ct])),
            f"{name}_fused_replay_per_ct": lambda: fused_batch() / RUNTIME_BATCH,
        },
        {
            f"{name}_planned": (f"{name}_eager_dispatch", f"{name}_planned"),
            f"{name}_fused_replay": (
                f"{name}_eager_dispatch",
                f"{name}_fused_replay_per_ct",
            ),
        },
        payload,
    )
    # Recorded beside the timings so the file documents *why* fused wins.
    payload["fused_stats"][name] = plan.stats()


def _poly3(ctx):
    """``x^4 + x^2 + 1/2`` over levels L, L-2, L-4, and its compiled plan.

    The x^2 term is scale-aligned onto x^4's track with a unity
    multiply_plain (the standard CKKS bridging trick); the one callable
    runs eagerly and traces.
    """
    lvl = ctx.params.num_primes
    rlk = ctx.relin_keys(levels=[lvl, lvl - 2])
    ones = np.ones(ctx.params.slots)

    def poly3(ev, x):
        x2 = ev.multiply_relin_rescale(x, x, rlk)
        x4 = ev.multiply_relin_rescale(x2, x2, rlk)
        unity = ctx.encoder.encode(ones, level=x2.level, scale=x2.scale)
        bridge = ev.rescale(ev.multiply_plain(x2, unity), times=2)
        y = ev.add(x4, bridge)
        half = ctx.encoder.encode(0.5 * ones, level=y.level, scale=y.scale)
        return ev.add_plain(y, half)

    spec = CtSpec(level=lvl, scale=ctx.params.scale)
    return poly3, compile_fn(poly3, ctx.evaluator, [spec])


def section_runtime(ctx, payload: dict) -> None:
    slots = ctx.params.slots
    rng = np.random.default_rng(21)
    payload["meta"]["batch"] = RUNTIME_BATCH
    payload["fused_stats"] = {}
    ct = ctx.encrypt(rng.uniform(-1, 1, slots))
    batch = [[ctx.encrypt(rng.uniform(-1, 1, slots))] for _ in range(RUNTIME_BATCH)]

    hlt, gks = _dense_matmul(ctx, rng)
    bsgs_plan = hlt.plan_for(ct.scale, gks)
    _runtime_rows(
        "bsgs", lambda: hlt.emit(ctx.evaluator, ct, gks), bsgs_plan, ct, batch, payload
    )
    poly3, poly3_plan = _poly3(ctx)
    _runtime_rows(
        "poly3", lambda: poly3(ctx.evaluator, ct), poly3_plan, ct, batch, payload
    )


# --- fabric: remote reattach ---


def _remote_attach_timers(plan, request, reference, tmp: str):
    """Cold start vs. reattach against a genuinely remote worker host.

    ``remote_cold_attach`` launches the ``repro.runtime.worker_host`` CLI
    and serves one request through it (process start, mutual auth, plan
    upload, slot spawn), leaving the host up; ``remote_reattach`` dials
    that live host with a fresh coordinator, whose plan the host's
    fingerprint cache already holds.  Both hard-assert ``plan_uploads``
    (1 cold, 0 reattach — reconnect-without-replan, checked by count)
    and bit-identical output.  Returns ``(timers, stop)``: call ``stop``
    at the end so no host outlives the bench.
    """
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    authkey = os.path.join(tmp, "authkey")
    portfile = os.path.join(tmp, "port")
    with open(authkey, "wb") as fh:
        fh.write(os.urandom(32))
    host: dict = {}

    def stop() -> None:
        proc = host.pop("proc", None)
        if proc is not None:
            proc.terminate()
            proc.wait(timeout=30)

    def launch() -> None:
        host["proc"] = proc = subprocess.Popen(
            [sys.executable, "-m", "repro.runtime.worker_host"]
            + ["--bind", "127.0.0.1:0", "--authkey-file", authkey]
            + ["--port-file", portfile],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 60
        while not os.path.exists(portfile):
            if proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("bench worker host failed to start")
            time.sleep(0.02)
        with open(portfile) as fh:
            host["port"] = int(fh.read().strip())

    def attach_and_serve(expect_uploads: int) -> None:
        cfg = ServingConfig(
            num_workers=1,
            transport="tcp",
            hosts=(f"tcp://127.0.0.1:{host['port']}",),
            authkey_file=authkey,
        )
        with ShardedExecutor(plan, config=cfg) as pool:
            ((got,),) = pool.run_batch([request], timeout=600)
            uploads = pool.stats()["transport_stats"]["plan_uploads"]
        assert uploads == expect_uploads, (
            f"remote attach expected {expect_uploads} plan upload(s), "
            f"saw {uploads} — the fingerprint cache contract broke"
        )
        assert got.scale == reference.scale, "remote attach: scale diverged"
        for gp, wp in zip(got.parts, reference.parts):
            assert np.array_equal(gp.data, wp.data), "remote attach: bits diverged"

    def cold() -> float:
        stop()  # the previous round's host, outside the timed window
        if os.path.exists(portfile):
            os.unlink(portfile)
        t0 = time.perf_counter()
        launch()
        attach_and_serve(1)
        return time.perf_counter() - t0

    timers = {
        "remote_cold_attach": cold,
        "remote_reattach": _wall(lambda: attach_and_serve(0)),
    }
    return timers, stop


def section_fabric(ctx, payload: dict) -> None:
    rng = np.random.default_rng(41)
    _, plan = _poly3(ctx)
    request = [ctx.encrypt(rng.uniform(-1, 1, ctx.params.slots))]
    (reference,) = plan.run(request)
    with tempfile.TemporaryDirectory() as tmp:
        timers, stop_host = _remote_attach_timers(plan, request, reference, tmp)
        try:
            _interleaved(
                timers,
                {"fabric_remote_attach": ("remote_cold_attach", "remote_reattach")},
                payload,
            )
        finally:
            stop_host()


# section -> (meta.bench, output-path flag, its default, runner)
SECTIONS = {
    "core": ("keyswitch-engine", "--out", "BENCH_keyswitch.json", section_core),
    "runtime": ("lazy-runtime", "--runtime-out", "BENCH_runtime.json", section_runtime),
    "fabric": ("serving-fabric", "--fabric-out", "BENCH_fabric.json", section_fabric),
}


def _print_section(payload: dict) -> None:
    meta = payload["meta"]
    rows, speedups = payload["results_s"], payload["speedups_x"]
    width = max(len(k) for k in [*rows, *speedups])
    print(
        f"\n{meta['bench']} bench  (N=2^{meta['degree'].bit_length() - 1}, "
        f"L={meta['num_primes']}, backend={meta['backend']}, "
        f"{meta['rounds']} interleaved rounds)"
    )
    for name, row in rows.items():
        print(f"  {name:<{width}}  best {row['best_s'] * 1e3:9.3f} ms")
    print("speedups (reference / engine, ± spread of the per-round ratios):")
    for name, x in speedups.items():
        print(f"  {name:<{width}}  {x:5.2f}x ± {payload['noise_x'][name]:.0%}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--sections",
        default=",".join(SECTIONS),
        help=f"comma list of sections to run: {', '.join(SECTIONS)}",
    )
    for name, (_, flag, default, _) in SECTIONS.items():
        ap.add_argument(
            flag, dest=name, default=default, help=f"{name}-section output JSON path"
        )
    args = ap.parse_args(argv)

    sections = {s.strip() for s in args.sections.split(",") if s.strip()}
    unknown = sections - set(SECTIONS)
    if unknown or not sections:
        ap.error(
            f"unknown or empty --sections {args.sections!r}; "
            f"known sections: {', '.join(SECTIONS)}"
        )

    ctx = CkksContext.create(toy_params(degree=DEGREE, num_primes=PRIMES), seed=2025)
    for name, (bench, _, _, run) in SECTIONS.items():
        if name not in sections:
            continue
        payload = {
            "meta": {
                "bench": bench,
                "degree": DEGREE,
                "num_primes": PRIMES,
                "backend": default_backend_name(),
                "rounds": ROUNDS,
                "round_s": ROUND_S,
            },
            "results_s": {},
            "speedups_x": {},
            "noise_x": {},
        }
        run(ctx, payload)
        _print_section(payload)
        path = Path(getattr(args, name))
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Genuine software-kernel benchmarks of the library's hot paths.

These are the operations the accelerator replaces; their wall-clock times
make the CPU bars of Fig. 5(a) tangible.  The reducer benches are the
software shadow of Table I: same math, different instruction mix — the
seed's split product (``seed_mulmod_vec`` below, the denominator and
nowhere else) pays six uint64 divisions, while the Barrett kernel
replaces them with a multiply/subtract/conditional-subtract pipeline
(see ``repro.nums.kernels``).
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from contextlib import ExitStack
from math import prod
from unittest import mock

import numpy as np
import pytest

from repro.ckks import CkksContext, bootstrappable_params, toy_params
from repro.ckks.containers import Ciphertext
from repro.ckks.evaluator import Evaluator
from repro.ckks.linear import HomomorphicLinearTransform
from repro.ckks.serialization import (
    _word_layout,
    deserialize_ciphertext,
    serialize_ciphertext,
    wire_coeff_bits,
)
from repro.nums import find_primes, kernels
from repro.nums.kernels import ReducerKernel, ufunc_buffer
from repro.rns import RnsBasis
from repro.rns.poly import EVAL, RnsPolynomial
from repro.transforms.fft import SpecialFft
from repro.transforms.ntt import BatchNtt, NttContext, galois_permutation
from tests import oracle

PRIME = find_primes(36, 1 << 16)[0].value

# ---------------------------------------------------------------------------
# The pre-refactor reference implementations ("seed path"), kept verbatim so
# the reducer's speedups stay measured against a fixed baseline.
# ---------------------------------------------------------------------------

_SPLIT_BITS = np.uint64(18)
_SPLIT_MASK = np.uint64((1 << 18) - 1)


def seed_mulmod_vec(a, b, q):
    """The seed's 18-bit-split mulmod: six uint64 ``%`` per product."""
    qq = np.uint64(q)
    a = np.asarray(a, dtype=np.uint64) % qq
    b_arr = np.asarray(b, dtype=np.uint64) % qq
    b_hi = b_arr >> _SPLIT_BITS
    b_lo = b_arr & _SPLIT_MASK
    hi = (a * b_hi) % qq
    hi = (hi << _SPLIT_BITS) % qq
    lo = (a * b_lo) % qq
    return (hi + lo) % qq


def seed_ntt_forward(psi_rev, n, q, coeffs):
    """The seed's forward NTT: full ``%`` reduction after every op."""
    a = np.asarray(coeffs, dtype=np.uint64) % np.uint64(q)
    m = 1
    t = n
    while m < n:
        t //= 2
        view = a.reshape(m, 2, t)
        factors = psi_rev[m : 2 * m].reshape(m, 1)
        u = view[:, 0, :].copy()
        v = seed_mulmod_vec(view[:, 1, :], factors, q)
        view[:, 0, :] = (u + v) % np.uint64(q)
        view[:, 1, :] = (u + np.uint64(q) - v) % np.uint64(q)
        m *= 2
    return a


def _min_time_pair(f_ref, f_new, reps: int = 15) -> tuple[float, float]:
    """Best-of-N wall times for two thunks, rounds interleaved.

    Interleaving makes the *ratio* robust against CPU frequency drift:
    both implementations sample the same thermal/turbo conditions, and
    the min filters scheduler noise.
    """
    f_ref()
    f_new()
    best_ref = best_new = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        f_ref()
        best_ref = min(best_ref, time.perf_counter() - t0)
        t0 = time.perf_counter()
        f_new()
        best_new = min(best_new, time.perf_counter() - t0)
    return best_ref, best_new


@pytest.fixture(scope="module")
def ckks_ctx():
    return CkksContext.create(toy_params(degree=1 << 12, num_primes=8), seed=9)


# ---------------------------------------------------------------------------
# Transform / kernel micro-benchmarks
# ---------------------------------------------------------------------------


def _one_limb(n: int, rows: int = 1) -> tuple[BatchNtt, list[np.ndarray]]:
    """A one-limb :class:`BatchNtt` — the transform every caller runs —
    and ``rows`` random ``(1, N)`` coefficient rows for it."""
    rng = np.random.default_rng(0)
    polys = [rng.integers(0, PRIME, (1, n), dtype=np.uint64) for _ in range(rows)]
    return BatchNtt.create(n, (PRIME,)), polys


@pytest.mark.parametrize("log_n", [12, 14, 16])
def test_ntt_forward(benchmark, log_n):
    bn, (a,) = _one_limb(1 << log_n)
    benchmark(bn.forward, a)


def test_ntt_forward_backend(benchmark):
    """Forward NTT at 2^14 on the Barrett reducer."""
    bn, (a,) = _one_limb(1 << 14)
    benchmark(bn.forward, a)


def test_ntt_negacyclic_mul(benchmark):
    """A ring product through the transform: two forwards, the pointwise
    product, one inverse."""
    bn, (a, b) = _one_limb(1 << 14, rows=2)

    def negacyclic_mul():
        return bn.inverse(bn.kernel.mul(bn.forward(a), bn.forward(b)))

    benchmark(negacyclic_mul)


def _residue_poly(limbs: int, log_n: int) -> RnsPolynomial:
    basis = RnsBasis.create(1 << log_n, limbs)
    rng = np.random.default_rng(0)
    rows = [rng.integers(0, q, basis.degree) for q in basis.moduli]
    return RnsPolynomial(basis, np.stack(rows).astype(np.uint64))


@pytest.mark.parametrize("limbs, log_n", [(8, 12), (24, 16)], ids=["8x2^12", "24x2^16"])
def test_batch_ntt_forward(benchmark, limbs, log_n):
    """All limbs of a polynomial in one batched transform: one block at
    (8, 2^12), one 512 KiB limb per block at the paper's (24, 2^16)."""
    poly = _residue_poly(limbs, log_n)
    benchmark(lambda: poly.to_eval())


def _stage_times(bn, transform, x, opener) -> tuple[float, list[float], float]:
    """``(total, per stage, other)`` seconds of one ``BatchNtt`` transform.

    Nothing in the library is instrumented: the kernel entry points,
    ``np.copyto`` and ``opener`` — the ``(owner, name)`` of the call a
    butterfly stage opens with — are wrapped for the duration of the
    call, and the time from one wrapped call to the next belongs to the
    first.  A stage runs from its opener to the next copy, transpose,
    renormalization or stage; everything else (and the inverse's 1/N
    multiply) is ``other``.  Stages are summed over blocks, in execution
    order.
    """
    kernel = type(bn.kernel)
    stages = len(bn._forward_plan)
    marks: list[tuple[bool, float]] = []
    depth = 0

    def marking(is_stage, real):
        def call(*args, **kwargs):
            nonlocal depth
            if not depth and is_stage is not None:
                marks.append((is_stage, time.perf_counter()))
            depth += 1  # calls made inside a wrapped call are its own
            try:
                return real(*args, **kwargs)
            finally:
                depth -= 1

        return call

    wrapped = {(kernel, "mul_pre_raw"): None, (kernel, "reduce"): False}
    wrapped.update({(kernel, "mul_pre"): False, (np, "copyto"): False, opener: True})
    with ExitStack() as stack:
        for (owner, name), is_stage in wrapped.items():
            real = getattr(owner, name)
            stack.enter_context(mock.patch.object(owner, name, marking(is_stage, real)))
        start = time.perf_counter()
        transform(x)
        end = time.perf_counter()
    per_stage = [0.0] * stages
    other = marks[0][1] - start
    seen = 0
    for (is_stage, at), (_, until) in zip(marks, marks[1:] + [(False, end)]):
        if is_stage:
            per_stage[seen % stages] += until - at
            seen += 1
        else:
            other += until - at
    return end - start, per_stage, other


def _one_lane():
    """Patch the CPU count ``in_lanes`` reads to one: every block on the
    caller's thread."""
    return mock.patch.object(kernels, "_cpu_count", return_value=1)


def test_batch_ntt_stage_table(report):
    """Report only: ms per butterfly stage of the (24, 2^16) transforms.

    Every stage moves the same 24 x 32768 butterflies, so a stage that
    costs a multiple of the cheapest is walking short runs the slow way
    (numpy's buffered iterator): before the stages were re-laid the
    forward read 2.3-2.8 ms for runs >= 4096 and 4.7-8.0 ms below.
    Taken at one lane: ``_stage_times`` keeps one timeline, which the
    blocks of several lanes would interleave.
    """
    with _one_lane():
        _stage_table(report)


def _stage_table(report) -> None:
    poly = _residue_poly(24, 16)
    bn = poly.basis.batch_ntt(poly.level)
    evals = bn.forward(poly.data)
    lines = []
    # A forward stage opens with its raw product, an inverse one with its sum.
    cases = (
        ("forward", bn.forward, poly.data, (type(bn.kernel), "mul_pre_raw")),
        ("inverse", bn.inverse, evals, (np, "add")),
    )
    for name, transform, x, opener in cases:
        runs = [_stage_times(bn, transform, x, opener) for _ in range(3)]
        total, stages, other = min(runs)
        spans = [poly.degree >> (s + 1) for s in range(len(stages))]
        if name == "inverse":
            spans.reverse()
        lines.append(
            f"{name}: total {total*1e3:6.1f} ms, other {other*1e3:5.1f} ms, "
            f"dearest/cheapest stage {max(stages)/min(stages):4.2f}x"
        )
        lines.append("  run t:    " + " ".join(f"{t:5d}" for t in spans))
        lines.append("  stage ms: " + " ".join(f"{v*1e3:5.2f}" for v in stages))
    report("BatchNtt (24, 2^16) per-stage cost, barrett", lines)


def test_giant_limb_stage_table(report):
    """Report only: ms per butterfly stage of one limb of ``eval_bsgs``'s
    giant-step decomposition (N = 2^10, 36-bit prime, one lane, best of
    30), in the two layouts ``BatchNtt`` has: the row layout's one-limb
    block of the ``(150, 10, 1024)`` forward, ``(150, 1, N)`` — stage
    ``s`` pairs runs of ``t = N / 2^(s+1)``, its last ``log2 K`` stages
    on the transposed copy — beside the column layout's ``(N, 135)``
    block of the limb's off-diagonal digits, whose stage ``s`` pairs
    runs of ``t·R`` in place.  ``other`` is the rest of the call: the
    transposed copy, the closing reduce and its strided write-back."""
    with _one_lane():
        _giant_limb_stage_table(report)


def _giant_limb_stage_table(report) -> None:
    poly = _residue_poly(1, 10)
    n, q = poly.degree, int(poly.basis.moduli[0])
    bn = poly.basis.batch_ntt(1)
    rng = np.random.default_rng(0)
    opener = (type(bn.kernel), "mul_pre_raw")
    spans = [n >> (s + 1) for s in range(len(bn._forward_plan))]
    lines = []
    for name, rows in (("row", 150), ("column", 135)):
        x = rng.integers(0, q, (rows, 1, n), dtype=np.uint64)
        if name == "row":
            run, runs = bn.forward, spans
        else:
            x = np.ascontiguousarray(x.reshape(rows, n).T)

            def run(x):  # in place: its output is a valid input again
                bn.forward_columns(x, slice(0, 1))

            runs = [t * rows for t in spans]
        total, stages, other = min(_stage_times(bn, run, x, opener) for _ in range(30))
        lines.append(
            f"{name} layout, {rows} rows: total {total*1e3:5.2f} ms, "
            f"other {other*1e3:5.2f} ms"
        )
        label = "t" if name == "row" else "t*R"
        lines.append(f"  run {label:3}:   " + " ".join(f"{t:6d}" for t in runs))
        lines.append("  stage ms:  " + " ".join(f"{v*1e3:6.3f}" for v in stages))
    report("One limb of the giant decomposition per stage, N=2^10, one lane", lines)


def test_lanes_table(report):
    """Report only: best-of-5 ms of the limb-block loops that run in
    lanes (``repro.nums.kernels.in_lanes``) at the paper's (24, 2^16)
    shape — the batched forward and inverse transforms, Expand-RNS
    (``from_float_coeffs``) and a whole public-key ``encrypt`` — at one
    lane and at one lane per CPU, the two timed alternately."""
    from repro.ckks import bootstrappable_params

    ctx = CkksContext.create(bootstrappable_params(), seed=1)
    basis, level = ctx.basis, ctx.params.top_level
    rng = np.random.default_rng(0)
    coeffs = np.stack([rng.integers(0, q, basis.degree) for q in basis.moduli])
    coeffs = coeffs[:level].astype(np.uint64)
    bn = basis.batch_ntt(level)
    evals = bn.forward(coeffs)
    values = np.rint(rng.normal(size=basis.degree) * 2.0**60)
    plain = ctx.encode(rng.normal(size=ctx.params.slots))
    cases = {
        "forward": lambda: bn.forward(coeffs),
        "inverse": lambda: bn.inverse(evals),
        "expand": lambda: RnsPolynomial.from_float_coeffs(basis, level, values),
        "encrypt": lambda: ctx.encryptor.encrypt(plain),
    }
    configs = {"1 lane": _one_lane, f"all {kernels._cpu_count()}": ExitStack}
    best = {(config, name): float("inf") for config in configs for name in cases}
    for _ in range(5):
        for config, scope in configs.items():
            with scope():
                for name, run in cases.items():
                    t0 = time.perf_counter()
                    run()
                    elapsed = time.perf_counter() - t0
                    best[config, name] = min(best[config, name], elapsed)
    lines = ["config    " + "".join(f"{name:>10}" for name in cases)]
    for config in configs:
        cells = "".join(f"{best[config, name] * 1e3:10.1f}" for name in cases)
        lines.append(f"{config:10}{cells}")
    one, every = configs
    ratios = "".join(f"{best[one, k] / best[every, k]:9.2f}x" for k in cases)
    lines.append(f"{'speed-up':10}{ratios}")
    report(f"In lanes at (24, 2^16), ms, best of 5, {os.cpu_count()} CPUs", lines)


def test_rescale_table(report):
    """Report only: ms per eager ``Evaluator.rescale`` of a 2-part
    ciphertext by one and by two primes, at the bench shape (2^10, L =
    10) and the paper's (2^16, L = 24), and within it the remainder
    ``[x]_P`` on the kept limbs (``_dropped_remainder``, from the
    inverse-transformed dropped rows).  A rescale inverse-transforms the
    2 x times dropped rows and forward-transforms the 2 x (L - times)
    kept ones."""
    from repro.rns.poly import _dropped_remainder

    lines = []
    for log_n, limbs, reps in ((10, 10, 50), (16, 24, 5)):
        poly = _residue_poly(limbs, log_n)
        basis = poly.basis
        ev = Evaluator(toy_params(degree=basis.degree, num_primes=limbs), basis)
        part = RnsPolynomial(basis, poly.data, EVAL)  # any canonical rows
        ct = Ciphertext(parts=[part, part.copy()], scale=2.0**72)
        for times in (1, 2):
            tail = np.stack([p.data[limbs - times :] for p in ct.parts])
            basis.batch_ntt(limbs).inverse_block(tail, slice(limbs - times, limbs))
            ev.rescale(ct, times=times)  # tables built outside the timing
            best = remainder = float("inf")
            for _ in range(reps):
                t0 = time.perf_counter()
                ev.rescale(ct, times=times)
                best = min(best, time.perf_counter() - t0)
                block = tail.copy()
                with ufunc_buffer():
                    t0 = time.perf_counter()
                    _dropped_remainder(basis, block, limbs)
                    remainder = min(remainder, time.perf_counter() - t0)
            rows = 2 * times + 2 * (limbs - times)
            lines.append(
                f"N=2^{log_n}, L={limbs:2d}, {times} prime(s): {best*1e3:7.2f} ms, "
                f"remainder {remainder*1e3:6.2f} ms ({rows} NTT rows, best of {reps})"
            )
    report("Evaluator.rescale, 2 parts, eager", lines)


def test_decomposition_table(report):
    """Report only: one source's gadget decomposition at the bench shape
    (2^10, L = 10), best of 100 interleaved, in the two layouts — the
    row layout's one forward over the broadcast ``(10, 10, 1024)`` digit
    tensor beside the column layout ``decompose_rows`` takes there: the
    limbs' 90 off-diagonal digits as one multi-limb ``(1024, 90)`` block
    (scatter, ``forward_columns``, write-back and diagonal copy), and
    ``forward_columns`` alone.  The shared inverse is timed once."""
    from repro.ckks.keyswitch import KeySwitchEngine

    basis = RnsBasis.create(1 << 10, 10)
    lvl, n = basis.num_primes, basis.degree
    engine = KeySwitchEngine(basis)
    bat = basis.batch_ntt(lvl)
    rng = np.random.default_rng(0)
    q_col = np.array(basis.moduli, dtype=np.uint64).reshape(-1, 1)
    data = rng.integers(0, 1 << 62, (1, lvl, n), dtype=np.uint64) % q_col
    coeff = bat.inverse(data)
    blocks = BatchNtt.row_blocks(lvl, n * (lvl - 1) * 8)
    assert blocks == [slice(0, lvl)]
    digits = np.broadcast_to(coeff[..., None, :], (1, lvl, lvl, n))
    block = rng.integers(0, int(q_col.min()), (n, lvl * (lvl - 1)), dtype=np.uint64)
    ways = {
        "inverse (shared)": lambda: bat.inverse(data),
        "rows: forward (10, 10, 1024)": lambda: bat.forward(digits),
        "columns: one (1024, 90) block": lambda: engine._decompose_columns(
            bat, data, coeff, blocks
        ),
        "  of which forward_columns": lambda: bat.forward_columns(block, slice(0, lvl)),
    }
    best = {name: float("inf") for name in ways}
    for _ in range(100):
        for name, fn in ways.items():
            t0 = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - t0)
    lines = [f"{name:30}: {t * 1e3:6.3f} ms" for name, t in best.items()]
    report("One source's decomposition, N=2^10, L=10, best of 100", lines)


def test_bsgs_step_table(report):
    """Report only: one ``eval_bsgs``-shaped fused replay (2^10, L = 10, a
    dense 512 x 512 matrix) split by fused step — the hoisted baby-step
    family, the merged MAC, the giant-step family and the sum — as
    best-of-5 ms per step at one lane and at one lane per CPU, the two
    timed alternately so a saving can be traced to its step; then the
    replay's dispatch count, the giant family's one batched
    decomposition at both lane counts, and one of the replay's 46
    ``(10, 10, 1024)`` Galois contractions (one thread, median of 300)."""
    ctx = CkksContext.create(toy_params(degree=1 << 10, num_primes=10), seed=1)
    slots, level = ctx.params.slots, ctx.params.num_primes
    rng = np.random.default_rng(1)
    draw = rng.uniform(-1, 1, (2, slots, slots))
    matrix = (draw[0] + 1j * draw[1]) / np.sqrt(slots)
    hlt = HomomorphicLinearTransform(ctx, matrix, level=level)
    keys = ctx.galois_keys(hlt.required_rotations(), levels=[level])
    ct = ctx.encrypt(rng.uniform(-1, 1, slots))
    plan = hlt.plan_for(ct.scale, keys)
    plan.run_batch([[ct]])  # lowers the fused executor
    ex = plan.fused()
    names = {}
    for grp in ex.groups:
        if grp.kind == "automorphisms":
            what = "hoisted family" if len(grp.sources) == 1 else "giant family"
            shape = f"{len(grp.sources)} source(s), {len(grp.members)} rotations"
        elif grp.kind == "mac":
            what = "MAC"
            shape = f"{len(grp.outputs)} outputs over {len(grp.sources)} sources"
        else:
            what, shape = grp.kind, f"{len(grp.sources)} terms"
        names[f"{grp.kind}@{grp.anchor}"] = f"{what:15} ({shape})"
    configs = {"1 lane": _one_lane, f"{kernels._cpu_count()} lanes": ExitStack}
    best: dict[str, dict[str, float]] = {config: {} for config in configs}
    for _ in range(5):
        for config, scope in configs.items():
            env = ex._template.copy()
            spent: dict[str, float] = {}
            with scope(), ufunc_buffer():
                for fn, label in zip(ex._steps, ex._step_labels):
                    t0 = time.perf_counter()
                    fn(env, [ct])
                    name = names.get(label, label.split("@")[0])
                    spent[name] = spent.get(name, 0.0) + time.perf_counter() - t0
            spent["replay"] = sum(spent.values())
            for name, seconds in spent.items():
                best[config][name] = min(best[config].get(name, float("inf")), seconds)
    giant = next(g for g in ex.groups if g.kind == "automorphisms" and len(g.sources) > 1)
    rows = np.stack([env[s][1][:level] for s in giant.sources])
    engine = ctx.evaluator.keyswitch
    lanes = {config: float("inf") for config in configs}
    for _ in range(5):
        for config, scope in configs.items():
            with scope():
                t0 = time.perf_counter()
                engine.decompose_rows(rows)
                lanes[config] = min(lanes[config], time.perf_counter() - t0)
    graph = plan.graph
    member = graph.nodes[giant.members[0]]
    key = graph.consts[member.consts[0]]
    perm = galois_permutation(ctx.params.degree, member.attrs[-1])
    dec = engine.decompose_rows(rows[0])
    outs = np.empty((2, level, ctx.params.degree), dtype=np.uint64)
    contraction = []
    with ufunc_buffer():
        for _ in range(300):
            t0 = time.perf_counter()
            engine.contract(dec, key, perm, outs[0], outs[1])
            contraction.append(time.perf_counter() - t0)
    lines = [
        f"{name}: " + ", ".join(f"{c} {best[c][name] * 1e3:7.2f} ms" for c in configs)
        for name in best["1 lane"]
    ]
    lines.append(f"dispatches per replay: {ex.dispatch_count}")
    lines.append(
        f"giant decomposition {rows.shape}: "
        + ", ".join(f"{c} {t * 1e3:.1f} ms" for c, t in lanes.items())
    )
    lines.append(
        f"one contraction {dec.shape}, permuted: "
        f"{np.median(contraction) * 1e3:.3f} ms"
    )
    report("eval_bsgs fused replay by step, N=2^10, L=10, best of 5", lines)


def test_apply_table(report):
    """Report only: the dense 512-slot layer at N=2^10, L=10 three ways —
    ``HomomorphicLinearTransform.apply`` (the fused replay), the plan's
    reference interpreter ``plan.run`` and the eager ``emit`` loop, the
    three timed in turn, median of 9 ms each, with the
    ``decompose_rows`` calls one evaluation makes.  No speed is asserted."""
    import statistics

    from repro.ckks.keyswitch import KeySwitchEngine

    ctx = CkksContext.create(toy_params(degree=1 << 10, num_primes=10), seed=1)
    slots, level = ctx.params.slots, ctx.params.num_primes
    rng = np.random.default_rng(1)
    draw = rng.uniform(-1, 1, (2, slots, slots))
    hlt = HomomorphicLinearTransform(
        ctx, (draw[0] + 1j * draw[1]) / np.sqrt(slots), level=level
    )
    keys = ctx.galois_keys(hlt.required_rotations(), levels=[level])
    ct = ctx.encrypt(rng.uniform(-1, 1, slots))
    plan = hlt.plan_for(ct.scale, keys)
    ways = {
        "apply (fused)": lambda: hlt.apply(ct, keys),
        "plan.run": lambda: plan.run([ct]),
        "eager emit": lambda: hlt.emit(ctx.evaluator, ct, keys),
    }
    decompositions = {}
    real = KeySwitchEngine.decompose_rows
    for name, fn in ways.items():
        fn()  # lowers the plan / warms the tables
        calls = []
        with mock.patch.object(
            KeySwitchEngine,
            "decompose_rows",
            lambda self, data: calls.append(1) or real(self, data),
        ):
            fn()
        decompositions[name] = len(calls)
    times: dict[str, list[float]] = {name: [] for name in ways}
    for _ in range(9):
        for name, fn in ways.items():
            t0 = time.perf_counter()
            fn()
            times[name].append(time.perf_counter() - t0)
    lines = [
        f"{name:14}: {statistics.median(t) * 1e3:7.1f} ms, "
        f"{decompositions[name]} decompose_rows call(s)"
        for name, t in times.items()
    ]
    report("dense 512-slot layer, N=2^10, L=10, median of 9", lines)


def test_download_table(report):
    """Report only: best-of-5 ms of the client's download half at the
    paper's shape (2^16, L = 24) for a level-2, scale-2^36 reply —
    deserialize, decrypt and decode, within decode its Combine-CRT
    (``to_float_coeffs``) and special FFT — and one limb's forward NTT
    against its inverse, which carries the ``1/N``."""
    ctx = CkksContext.create(bootstrappable_params(), seed=1)
    slots, reps = ctx.params.slots, 5
    rng = np.random.default_rng(1)
    msg = rng.uniform(-1, 1, slots) + 1j * rng.uniform(-1, 1, slots)
    reply = ctx.encryptor.encrypt(ctx.encoder.encode(msg, level=2, scale=2.0**36))
    blob = serialize_ciphertext(reply, 44)
    ct = deserialize_ciphertext(blob, ctx.basis)
    plain = ctx.decryptor.decrypt(ct)
    coeffs = plain.poly.to_float_coeffs()
    folded = (coeffs[:slots] + 1j * coeffs[slots:]) / plain.scale
    assert np.max(np.abs(ctx.encoder.fft.forward(folded) - msg)) < 2.0**-10
    limb = ctx.basis.batch_ntt(1)
    row = plain.poly.data[:1]
    evals = limb.forward(row)
    cases = (
        ("deserialize        ", lambda: deserialize_ciphertext(blob, ctx.basis)),
        ("decrypt            ", lambda: ctx.decryptor.decrypt(ct)),
        ("decode             ", lambda: ctx.decode(plain)),
        ("  Combine-CRT      ", plain.poly.to_float_coeffs),
        ("  special FFT      ", lambda: ctx.encoder.fft.forward(folded)),
        ("NTT forward, 1 limb", lambda: limb.forward(row)),
        ("NTT inverse, 1 limb", lambda: limb.inverse(evals)),
    )
    lines = []
    for name, step in cases:
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            step()
            best = min(best, time.perf_counter() - t0)
        lines.append(f"{name}: {best * 1e3:7.2f} ms (best of {reps})")
    report("Client download half, N=2^16, L=24, level-2 reply at 2^36", lines)


def test_codec_table(report):
    """Report only: best-of-k ms of ``serialize_ciphertext`` and
    ``deserialize_ciphertext`` of a 2-part ciphertext at the bench shape
    (2^10, L = 10, the toy chain's wire width) and at the paper's upload
    (2^16, L = 24) and 2-limb reply, both at the 44-bit datapath width."""
    served = _residue_poly(10, 10)
    paper = _residue_poly(24, 16)
    cases = (
        ("served ", served.basis, served.data, wire_coeff_bits(served.basis), 200),
        ("upload ", paper.basis, paper.data, 44, 5),
        ("reply  ", paper.basis, paper.data[:2], 44, 30),
    )
    lines = []
    for name, basis, data, bits, reps in cases:
        part = RnsPolynomial(basis, data, EVAL)
        ct = Ciphertext(parts=[part, part.copy()], scale=2.0**72)
        blob = serialize_ciphertext(ct, bits)
        times = []
        codecs = (
            lambda: serialize_ciphertext(ct, bits),
            lambda: deserialize_ciphertext(blob, basis),
        )
        for codec in codecs:
            best = float("inf")
            for _ in range(reps):
                t0 = time.perf_counter()
                codec()
                best = min(best, time.perf_counter() - t0)
            times.append(best)
        period, width = _word_layout(bits)
        lines.append(
            f"{name} N=2^{basis.degree.bit_length() - 1}, L={len(data):2d}, "
            f"{bits} bits ({period} values / {width} words): "
            f"serialize {times[0]*1e3:7.3f} ms, deserialize {times[1]*1e3:7.3f} ms "
            f"(best of {reps})"
        )
    report("Ciphertext codec, 2 parts", lines)


def test_keygen_table(report):
    """Report only: distinct key objects, their MiB and best-of-3 seconds
    for five key sets — every relinearization level at (2^10, L = 10),
    the two levels ``eval_poly3`` asks for, the 46 Galois keys of
    ``eval_bsgs``'s dense 512-slot layer both as ``galois_keys`` builds
    them (stacks of eleven, each stack's transform in lanes) and one at
    a time (as it built them before the stacks), and the ``Bootstrapper`` set
    at ``benchmarks/test_bootstrap.py``'s shape (timed as the whole
    constructor, which the key generation dominates) — and, below them,
    the set-up's other half: building that layer's
    ``HomomorphicLinearTransform`` (512 diagonals encoded, best of 3)."""
    from dataclasses import replace

    from repro.ckks import BootstrapConfig, Bootstrapper
    from repro.ckks.keys import rotation_galois_elt
    from repro.ckks.linear import HomomorphicLinearTransform

    served = CkksContext.create(toy_params(degree=1 << 10, num_primes=10), seed=1)
    boot_ctx = CkksContext.create(
        replace(toy_params(degree=64, num_primes=22), secret_hamming_weight=8), seed=2
    )
    boot_cfg = BootstrapConfig(input_scale_bits=25, eval_mod_degree=63, wraps=7)

    def bootstrap_keys():
        bs = Bootstrapper(boot_ctx, boot_cfg)
        return [bs._galois, bs._conj, bs._relin]

    slots = served.params.slots
    rng = np.random.default_rng(1)
    dense = rng.uniform(-1, 1, (slots, slots)) + 1j * rng.uniform(-1, 1, (slots, slots))
    layer = HomomorphicLinearTransform(served, dense, level=10)
    rotations = layer.required_rotations()
    assert len(rotations) == 46

    def best_of_3(generate):
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            made = generate()
            best = min(best, time.perf_counter() - t0)
        return made, best

    def bsgs_keys():
        return [served.galois_keys(rotations, levels=[10])]

    def bsgs_keys_one_at_a_time():
        sk, two_n = served.secret_key, 2 * served.params.degree
        return [
            {
                r: served.keygen.gen_switching_key(
                    sk,
                    sk.poly.automorphism(rotation_galois_elt(r, slots, two_n)),
                    10,
                    b"galois-r%d-l%d" % (r, 10),
                )
                for r in rotations
            }
        ]

    cases = (
        ("relin_keys(), 2^10 L=10       ", lambda: [served.relin_keys()]),
        ("relin_keys(levels=[10, 8])    ", lambda: [served.relin_keys(levels=[10, 8])]),
        ("galois_keys(46 BSGS rotations)", bsgs_keys),
        ("  the same, one key at a time  ", bsgs_keys_one_at_a_time),
        ("Bootstrapper, 2^6 L=22 (init) ", bootstrap_keys),
    )
    lines = []
    for name, generate in cases:
        key_sets, best = best_of_3(generate)
        keys = {id(k): k for ks in key_sets for k in ks.values()}.values()
        nbytes = sum(p.data.nbytes for k in keys for pair in k.pairs for p in pair)
        lines.append(
            f"{name}: {len(keys):3d} keys, {nbytes / 2**20:6.2f} MiB, "
            f"{best * 1e3:7.1f} ms (best of 3)"
        )
    layer, best = best_of_3(lambda: HomomorphicLinearTransform(served, dense, level=10))
    nbytes = sum(pt.poly.data.nbytes for pt in layer._diagonals.values())
    lines.append(
        f"HLT build, 512x512 at L=10    : {len(layer._diagonals):3d} diags, "
        f"{nbytes / 2**20:6.2f} MiB, {best * 1e3:7.1f} ms (best of 3)"
    )
    report("Set-up: switching-key generation and HLT build", lines)


def test_reattach_table(report, tmp_path):
    """Report only: ms to serve one request through a cold CLI-started
    worker host (process start, auth, plan upload, slot fork) against a
    fresh coordinator reattaching to that live host, whose fingerprint
    cache already holds the plan; best of 3 of each at (2^10, L = 10).
    Asserted: ``plan_uploads`` is 1 cold and 0 on reattach, and every
    reply is bit-identical to ``plan.run``.  Nothing about time."""
    import repro
    from repro.runtime import CtSpec, ServingConfig, compile_fn, serve

    ctx = CkksContext.create(toy_params(degree=1 << 10, num_primes=10), seed=3)
    rlk = ctx.relin_keys(levels=[10])
    spec = CtSpec(level=10, scale=ctx.params.scale)
    plan = compile_fn(
        lambda ev, x: ev.multiply_relin_rescale(x, x, rlk), ctx.evaluator, [spec]
    )
    request = [ctx.encrypt(np.random.default_rng(4).uniform(-1, 1, ctx.params.slots))]
    (want,) = plan.run(request)
    keyfile = tmp_path / "authkey"
    keyfile.write_bytes(os.urandom(32))
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

    def attach(port: int, uploads: int) -> None:
        cfg = ServingConfig(
            num_workers=1,
            transport="tcp",
            hosts=(f"tcp://127.0.0.1:{port}",),
            authkey_file=str(keyfile),
        )
        with serve(plan, cfg) as pool:
            ((got,),) = pool.run_batch([request], timeout=600)
            assert pool.stats()["transport_stats"]["plan_uploads"] == uploads
        assert got.scale == want.scale
        for g, w in zip(got.parts, want.parts):
            assert np.array_equal(g.data, w.data)

    cold = reattach = float("inf")
    for k in range(3):
        portfile = tmp_path / f"port{k}"
        t0 = time.perf_counter()
        host = subprocess.Popen(
            [sys.executable, "-m", "repro.runtime.worker_host"]
            + ["--bind", "127.0.0.1:0", "--authkey-file", str(keyfile)]
            + ["--port-file", str(portfile)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            while not portfile.exists():
                assert host.poll() is None, "worker host exited before listening"
                time.sleep(0.01)
            port = int(portfile.read_text())
            attach(port, uploads=1)
            cold = min(cold, time.perf_counter() - t0)
            t0 = time.perf_counter()
            attach(port, uploads=0)
            reattach = min(reattach, time.perf_counter() - t0)
        finally:
            host.terminate()
            host.wait(timeout=30)
    lines = [
        f"cold start (launch + upload): {cold * 1e3:8.1f} ms",
        f"reattach (cached plan)      : {reattach * 1e3:8.1f} ms",
        f"cold / reattach             : {cold / reattach:8.2f}x",
    ]
    report("Remote worker host, one request, best of 3", lines)


@pytest.mark.parametrize("log_slots", [12, 15])
def test_special_fft(benchmark, log_slots):
    slots = 1 << log_slots
    fft = SpecialFft.create(slots)
    rng = np.random.default_rng(0)
    v = rng.normal(size=slots) + 1j * rng.normal(size=slots)
    benchmark(lambda: fft.forward(v.copy()))


def test_mulmod_backend_throughput(benchmark):
    """Canonical-operand modular product on the Barrett reducer."""
    rng = np.random.default_rng(0)
    a = rng.integers(0, PRIME, 1 << 16).astype(np.uint64)
    b = rng.integers(0, PRIME, 1 << 16).astype(np.uint64)
    kern = ReducerKernel(PRIME)
    benchmark(kern.mul, a, b)


# ---------------------------------------------------------------------------
# Speedup regression vs the seed path (the Table I software argument)
# ---------------------------------------------------------------------------


def test_barrett_speedup_vs_seed_path(report):
    """Barrett reducer vs the seed's division-based path, min-of-N timed.

    Three views of the same replacement (measured 3-5x on a 2-vCPU
    x86-64 VM; the virtualized CI host's division/multiply cost ratio
    drifts, so the asserted floors sit below the typical ratios while the
    report prints what was actually achieved):

    * ``mulmod``  — ``seed_mulmod_vec`` vs the Barrett kernel, flat 2^16;
    * ``polymul`` — the RnsPolynomial.__mul__ path: seed per-limb Python
      loop of ``seed_mulmod_vec`` calls vs one whole-(L, N) kernel dispatch;
    * ``ntt``     — seed forward NTT (``%`` everywhere) vs the lazy-
      reduction Barrett butterfly pipeline.
    """
    rng = np.random.default_rng(0)
    n = 1 << 16
    a = rng.integers(0, PRIME, n).astype(np.uint64)
    b = rng.integers(0, PRIME, n).astype(np.uint64)
    kern = ReducerKernel(PRIME)

    t_seed_mul, t_barrett_mul = _min_time_pair(
        lambda: seed_mulmod_vec(a, b, PRIME), lambda: kern.mul(a, b), reps=20
    )
    mul_speedup = t_seed_mul / t_barrett_mul

    basis = RnsBasis.create(1 << 12, 8)
    mat_a = np.stack(
        [rng.integers(0, q, basis.degree) for q in basis.moduli]
    ).astype(np.uint64)
    mat_b = np.stack(
        [rng.integers(0, q, basis.degree) for q in basis.moduli]
    ).astype(np.uint64)
    mat_kern = basis.kernel(basis.num_primes)

    def seed_poly_mul():
        return [
            seed_mulmod_vec(mat_a[i], mat_b[i], q) for i, q in enumerate(basis.moduli)
        ]

    t_seed_poly, t_barrett_poly = _min_time_pair(
        seed_poly_mul, lambda: mat_kern.mul(mat_a, mat_b), reps=20
    )
    poly_speedup = t_seed_poly / t_barrett_poly

    psi_rev = NttContext.cached(n, PRIME).psi_rev
    bn = BatchNtt.create(n, (PRIME,))
    t_seed_ntt, t_barrett_ntt = _min_time_pair(
        lambda: seed_ntt_forward(psi_rev, n, PRIME, a),
        lambda: bn.forward(a[None]),
        reps=8,
    )
    ntt_speedup = t_seed_ntt / t_barrett_ntt

    report(
        "Barrett reducer speedup vs the seed split-and-divide path",
        [
            f"mulmod 2^16:        seed {t_seed_mul*1e3:6.2f} ms   "
            f"barrett {t_barrett_mul*1e3:6.2f} ms   {mul_speedup:4.2f}x (target >= 2x)",
            f"poly mul (8,2^12):  seed {t_seed_poly*1e3:6.2f} ms   "
            f"barrett {t_barrett_poly*1e3:6.2f} ms   {poly_speedup:4.2f}x (target >= 2x)",
            f"forward NTT 2^16:   seed {t_seed_ntt*1e3:6.2f} ms   "
            f"barrett {t_barrett_ntt*1e3:6.2f} ms   {ntt_speedup:4.2f}x (target >= 2x)",
        ],
    )
    # Floors are loose regression guards only: virtualized hosts show
    # minutes-long phases where SIMD-bound code runs ~2x slower while
    # division-latency-bound code is unaffected, which compresses the
    # ratios well below the >= 2x an idle machine shows.  On shared CI
    # runners even interleaving can't isolate bursty co-tenant load, so
    # there the ratios are reported but not enforced.
    if os.environ.get("CI"):
        return
    assert mul_speedup >= 1.2, f"barrett mulmod regressed: {mul_speedup:.2f}x"
    assert poly_speedup >= 1.0, f"barrett poly mul regressed: {poly_speedup:.2f}x"
    assert ntt_speedup >= 1.5, f"barrett NTT regressed: {ntt_speedup:.2f}x"


# ---------------------------------------------------------------------------
# CKKS client hot paths
# ---------------------------------------------------------------------------


def test_ckks_encode(benchmark, ckks_ctx):
    msg = np.linspace(-1, 1, ckks_ctx.params.slots)
    benchmark(ckks_ctx.encode, msg)


def test_ckks_encode_encrypt(benchmark, ckks_ctx):
    """The paper's client hot path, in software."""
    msg = np.linspace(-1, 1, ckks_ctx.params.slots)
    benchmark(ckks_ctx.encrypt, msg)


def test_ckks_decrypt_decode(benchmark, ckks_ctx):
    msg = np.linspace(-1, 1, ckks_ctx.params.slots)
    ct = ckks_ctx.encrypt(msg, level=2)  # the 2-level server response
    benchmark(ckks_ctx.decrypt_decode, ct)


@pytest.mark.parametrize("level", [2, 8])
def test_combine_crt(benchmark, ckks_ctx, level):
    """Combine-CRT alone on full-range residues: the 2-level reply, and
    the top level, where every Garner peel and every fold row runs."""
    basis = ckks_ctx.basis
    rng = np.random.default_rng(level)
    data = np.stack(
        [rng.integers(0, q, basis.degree, dtype=np.uint64) for q in basis.moduli[:level]]
    )
    got = benchmark(RnsPolynomial(basis, data).to_bigints)
    big = prod(basis.moduli[:level])
    want = oracle.crt(data, basis.moduli[:level])
    for col in (0, 1, basis.degree // 2, basis.degree - 1):
        assert got[col] == (want[col] - big if want[col] > big // 2 else want[col])

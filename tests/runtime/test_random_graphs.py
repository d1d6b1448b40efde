"""Differential property test of the one fast path against its references.

``hypothesis`` draws a small random CKKS program; it is built well-typed
by construction (operands of add/sub are picked among values whose
scales agree, rescales never exhaust the chain), traced, optimized and
compiled, and then ``plan.run_batch`` (fused replay) must return the
bytes of ``plan.run`` (the interpreter) — and both the bytes of the
eager evaluator running the same callable, which puts the optimizer
passes under the same test.  The eager outputs are in turn held to the
same callable run on the exact oracle's ops
(:class:`~tests.oracle_evaluator.OracleEvaluator`, the formulas every
op's oracle pin uses), so a whole program — rescales, lone rotations
and 3-part tensors mixed — is judged by a reference that shares no code
with the library.  Values may be unrelinearized 3-part
tensors (the 2-part-only ops skip them, add/sub mix part counts,
relinearize folds them), and add_plain/multiply_plain read either a
captured plaintext or the plaintext input bound at each replay.

A second property draws BSGS-shaped blocks — several MACs over shared,
reordered or different source sets, rotations of their outputs, one sum —
so merged MAC steps and many-source rotation families meet the same two
oracles.

The settings are derandomized so tier-1 replays the same examples every
run; explore further with ``--hypothesis-seed=random``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks import CkksContext, toy_params
from repro.ckks.containers import Plaintext
from repro.ckks.evaluator import SCALE_RTOL
from repro.runtime import CtSpec, PtSpec, compile_fn
from tests.oracle_evaluator import OracleEvaluator

DEGREE = 64
PRIMES = 6
MAX_DEPTH = 4
# Scales stay inside what the encoder can represent as doubles.
MAX_SCALE = 2.0**300
MIN_SCALE = 2.0**30

KINDS = (
    "add",
    "sub",
    "negate",
    "multiply",
    "tensor",
    "relinearize",
    "rescale",
    "rotate",
    "add_plain",
    "multiply_plain",
)
# Operand part counts the kinds that need one take.
PARTS = {"multiply": 2, "tensor": 2, "rotate": 2, "relinearize": 3}


@pytest.fixture(scope="module")
def world():
    ctx = CkksContext.create(toy_params(degree=DEGREE, num_primes=PRIMES), seed=97)
    levels = list(range(1, PRIMES + 1))
    rlk = ctx.relin_keys(levels=levels)
    gks = ctx.galois_keys([1, 2], levels=levels)
    rng = np.random.default_rng(98)
    inputs = [ctx.encrypt(rng.uniform(-1, 1, ctx.params.slots)) for _ in range(2)]
    inputs.append(ctx.encode(rng.uniform(-1, 1, ctx.params.slots)))
    return ctx, rlk, gks, inputs


@pytest.fixture(scope="module")
def ora(world):
    """One oracle evaluator for every example: it reads each key once."""
    return OracleEvaluator(world[0])


def _program(ops, drop, ctx, rlk, gks):
    """``ops`` -> a callable over the shared evaluator surface.  Every
    choice is made from (level, scale, size) metadata, which eager and
    lazy handles both carry, so eager and traced runs build one graph.
    The outputs are the values nothing consumed (an untouched input
    included), minus those whose bit is set in ``drop`` — dead code for
    the optimizer to find — and always the last value."""
    moduli = ctx.basis.moduli

    def plaintext(seed, level, scale):
        values = np.random.default_rng(seed).uniform(-1, 1, ctx.params.slots)
        return ctx.encoder.encode(values, level=level, scale=scale)

    def program(ev, x, y, p):
        vals = [(x, 0), (y, 0)]
        consumed = set()
        for step, (kind, i, j, k) in enumerate(ops):
            ia = i % len(vals)
            ib = None
            a, da = vals[ia]
            if a.size != PARTS.get(kind, a.size):
                continue
            if kind in ("add", "sub", "multiply", "tensor"):
                if kind in ("multiply", "tensor"):
                    peers = [
                        n
                        for n, (v, _) in enumerate(vals)
                        if v.size == 2 and a.scale * v.scale <= MAX_SCALE
                    ]
                else:
                    peers = [
                        n
                        for n, (v, _) in enumerate(vals)
                        if math.isclose(a.scale, v.scale, rel_tol=SCALE_RTOL)
                    ]
                if not peers:
                    continue
                ib = peers[j % len(peers)]
                b, db = vals[ib]
                depth = 1 + max(da, db)
            else:
                depth = 1 + da
            if depth > MAX_DEPTH:
                continue
            if kind == "add":
                out = ev.add(a, b)
            elif kind == "sub":
                out = ev.sub(a, b)
            elif kind == "negate":
                out = ev.negate(a)
            elif kind == "multiply":
                out = ev.relinearize(ev.multiply(a, b), rlk)
            elif kind == "tensor":
                out = ev.multiply(a, b)
            elif kind == "relinearize":
                out = ev.relinearize(a, rlk)
            elif kind == "rescale":
                times = min(1 + k % 2, a.level - 1)
                scale = a.scale
                for t in range(times):
                    scale /= moduli[a.level - 1 - t]
                if times == 0 or scale < MIN_SCALE:
                    continue
                out = ev.rescale(a, times=times)
            elif kind == "rotate":
                out = ev.rotate(a, 1 + k % 2, gks)
            elif kind == "add_plain":
                # Odd k reads the plaintext input where its scale fits.
                fits = k % 2 and math.isclose(a.scale, p.scale, rel_tol=SCALE_RTOL)
                out = ev.add_plain(a, p if fits else plaintext(step, a.level, a.scale))
            else:
                if a.scale * ctx.params.scale > MAX_SCALE:
                    continue
                pt = p if k % 2 else plaintext(step, a.level, ctx.params.scale)
                out = ev.multiply_plain(a, pt)
            vals.append((out, depth))
            consumed |= {ia, ib} - {None}
        last = len(vals) - 1
        return tuple(
            v
            for n, (v, _) in enumerate(vals)
            if n == last or (n not in consumed and not drop >> n & 1)
        )

    return program


def _bytes(outs):
    return [(ct.scale, [p.data.tobytes() for p in ct.parts]) for ct in outs]


def _oracle_bytes(ora, program, inputs):
    """``_bytes`` of ``program`` composed from the oracle's ops."""
    x, y, p = inputs
    outs = program(ora, ora.lift(x), ora.lift(y), p)
    outs = outs if isinstance(outs, tuple) else [outs]
    return [(ct.scale, [r.tobytes() for r in ora.eval_rows(ct)]) for ct in outs]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(KINDS),
            st.integers(0, 9),
            st.integers(0, 9),
            st.integers(0, 3),
        ),
        min_size=1,
        max_size=9,
    ),
    drop=st.integers(0, 2**11 - 1),
)
def test_fused_replay_matches_interpreter_on_random_graphs(world, ora, ops, drop):
    ctx, rlk, gks, inputs = world
    program = _program(ops, drop, ctx, rlk, gks)
    spec = CtSpec(level=PRIMES, scale=ctx.params.scale)
    pt_spec = PtSpec(level=PRIMES, scale=ctx.params.scale)
    plan = compile_fn(program, ctx.evaluator, [spec, spec, pt_spec])
    interpreted = _bytes(plan.run(inputs))
    (fused,) = plan.run_batch([inputs])
    assert _bytes(fused) == interpreted, f"fused != interpreter on {plan.summary()}"
    eager = _bytes(program(ctx.evaluator, *inputs))
    assert eager == interpreted, f"interpreter != eager on {plan.summary()}"
    assert eager == _oracle_bytes(ora, program, inputs), (
        f"eager != exact oracle on {plan.summary()}"
    )


MODES = ("same", "reordered", "different", "repeated")


def _bsgs_block(draw, ctx, gks):
    """A BSGS-shaped program: ``G >= 2`` MACs over ``K >= 3`` sources
    each — the first MAC's set, a reordering of it, a different set, or
    the first set with one source twice — some MAC outputs rotated, and
    one sum over all of them."""
    pool_size = 7
    k = draw(st.integers(3, 5), label="K")
    base = draw(st.lists(st.integers(0, pool_size - 1), min_size=k, max_size=k, unique=True))
    macs = []
    for mode in draw(st.lists(st.sampled_from(MODES), min_size=2, max_size=4), label="G"):
        if mode == "same" or not macs:
            macs.append(list(base))
        elif mode == "reordered":
            macs.append(draw(st.permutations(base)))
        elif mode == "different":
            macs.append(
                draw(st.lists(st.integers(0, pool_size - 1), min_size=3, max_size=6, unique=True))
            )
        else:
            macs.append([*base, base[0]])
    g = len(macs)
    rotated = draw(st.lists(st.integers(0, g - 1), min_size=1, max_size=g, unique=True))
    steps = [draw(st.sampled_from((1, 2))) for _ in rotated]

    def plaintext(seed, level):
        values = np.random.default_rng(seed).uniform(-1, 1, ctx.params.slots)
        pt = ctx.encoder.encode(values, level=level, scale=ctx.params.scale)
        # Odd seeds are held in the evaluation domain, as an HLT holds its
        # diagonals (bound as views), even ones in the coefficient domain.
        return Plaintext(poly=pt.poly.to_eval(), scale=pt.scale) if seed % 2 else pt

    def program(ev, x, y, p):
        pool = [
            x,
            y,
            ev.rotate(x, 1, gks),
            ev.rotate(x, 2, gks),
            ev.rotate(y, 1, gks),
            ev.rotate(y, 2, gks),
            ev.negate(x),
        ]
        outs = []
        for m, sources in enumerate(macs):
            acc = None
            for t, s in enumerate(sources):
                term = ev.multiply_plain(pool[s], plaintext(10 * m + t, x.level))
                acc = term if acc is None else ev.add(acc, term)
            outs.append(acc)
        for i, step in zip(rotated, steps):
            outs[i] = ev.rotate(outs[i], step, gks)
        total = outs[0]
        for out in outs[1:]:
            total = ev.add(total, out)
        return total

    return program


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_fused_bsgs_blocks_match_interpreter_and_eager(world, ora, data):
    """Merged MACs and rotation families over them replay the bytes of
    the interpreter and of the eager evaluator."""
    ctx, _, gks, inputs = world
    program = _bsgs_block(data.draw, ctx, gks)
    spec = CtSpec(level=PRIMES, scale=ctx.params.scale)
    pt_spec = PtSpec(level=PRIMES, scale=ctx.params.scale)
    plan = compile_fn(program, ctx.evaluator, [spec, spec, pt_spec])
    interpreted = _bytes(plan.run(inputs))
    (fused,) = plan.run_batch([inputs])
    assert _bytes(fused) == interpreted, f"fused != interpreter on {plan.summary()}"
    eager = _bytes([program(ctx.evaluator, *inputs)])
    assert eager == interpreted, f"interpreter != eager on {plan.summary()}"
    assert eager == _oracle_bytes(ora, program, inputs), (
        f"eager != exact oracle on {plan.summary()}"
    )

"""Bridge from traced plans to the accelerator workload/scheduler models."""

from __future__ import annotations

import numpy as np

from repro.accel import OpCounts, RequestQueue, RscScheduler, abc_fhe
from repro.ckks.linear import HomomorphicLinearTransform
from repro.runtime import (
    CtSpec,
    compile_fn,
    plan_op_counts,
    plan_schedule_comparison,
    plan_to_workload,
)
from repro.runtime.bridge import plan_to_request_queue


def _spec(rctx, level=None):
    level = rctx.params.num_primes if level is None else level
    return CtSpec(level=level, scale=rctx.params.scale)


def _bsgs_like_plan(rctx, gks, rlk):
    def program(ev, x):
        acc = ev.rotate(x, 1, gks)
        acc = ev.add(acc, ev.rotate(x, 2, gks))
        return ev.multiply_relin_rescale(acc, x, rlk)

    return compile_fn(program, rctx.evaluator, [_spec(rctx)])


class TestOpCounts:
    def test_counts_are_positive_and_ntt_dominated(self, rctx, gks, rlk):
        plan = _bsgs_like_plan(rctx, gks, rlk)
        counts = plan_op_counts(plan)
        assert counts.ntt_ops > 0 and counts.rns_ops > 0 and counts.other_ops > 0
        assert counts.fft_ops == 0  # no client-side transforms in a server plan
        assert counts.total == counts.ntt_ops + counts.rns_ops

    def test_hoisting_discount_shrinks_the_histogram(self, rctx, gks, rlk):
        def hoistable(ev, x):
            return ev.add(ev.rotate(x, 1, gks), ev.rotate(x, 2, gks))

        def serial(ev, x):
            return ev.rotate(ev.rotate(x, 1, gks), 2, gks)

        h = compile_fn(hoistable, rctx.evaluator, [_spec(rctx)])
        s = compile_fn(serial, rctx.evaluator, [_spec(rctx)])
        # Same number of rotations, but the hoisted pair shares one digit
        # expansion; the chained pair cannot.
        assert plan_op_counts(h).ntt_ops < plan_op_counts(s).ntt_ops
        # Exact tallies (N=128, L=6): one decomposition per distinct
        # automorphism source.
        assert plan_op_counts(h) == OpCounts(
            fft_ops=0, ntt_ops=18816, rns_ops=4608, other_ops=19968
        )
        assert plan_op_counts(s) == OpCounts(
            fft_ops=0, ntt_ops=37632, rns_ops=9216, other_ops=18432
        )

    def test_dense_bsgs_counts_are_pinned(self, rctx):
        """A dense 64-slot layer: 7 baby rotations of the input share one
        decomposition, each of the 7 giant rotations pays its own."""
        slots, lvl = rctx.params.slots, rctx.params.num_primes
        rng = np.random.default_rng(14)
        hlt = HomomorphicLinearTransform(
            rctx, rng.uniform(-1, 1, (slots, slots)), level=lvl
        )
        keys = rctx.galois_keys(hlt.required_rotations(), levels=[lvl])
        plan = hlt.plan_for(rctx.params.scale, keys)
        assert plan_op_counts(plan) == OpCounts(
            fft_ops=0, ntt_ops=150528, rns_ops=36864, other_ops=324096
        )

    def test_rescale_charges_the_rows_it_transforms(self, rctx):
        """Per part, a rescale by two inverse-transforms the two dropped
        rows and forward-transforms the kept ones — not the whole level."""
        plan = compile_fn(
            lambda ev, x: ev.rescale(x, times=2), rctx.evaluator, [_spec(rctx)]
        )
        n, lvl = rctx.basis.degree, rctx.params.num_primes
        butterflies = (n // 2) * (n.bit_length() - 1)
        rows = 2 * (2 + lvl - 2)  # parts x (dropped + kept)
        assert plan_op_counts(plan).ntt_ops == rows * butterflies


class TestClientBridge:
    def test_workload_reflects_plan_boundary(self, rctx, gks, rlk):
        plan = _bsgs_like_plan(rctx, gks, rlk)
        w = plan_to_workload(plan)
        assert w.degree == rctx.basis.degree
        assert w.enc_levels == rctx.params.num_primes
        assert w.dec_levels == rctx.params.num_primes - 2
        projected = plan_to_workload(plan, degree=1 << 16)
        assert projected.degree == 1 << 16
        assert projected.enc_levels == w.enc_levels

    def test_request_queue_counts_plan_io(self, rctx, gks, rlk):
        plan = _bsgs_like_plan(rctx, gks, rlk)
        q = plan_to_request_queue(plan, requests=100)
        assert q == RequestQueue(encode_encrypt=100, decode_decrypt=100)

    def test_scheduler_runs_on_a_traced_plan(self, rctx, gks, rlk):
        """Figure-style policy comparison driven by a real trace."""
        plan = _bsgs_like_plan(rctx, gks, rlk)
        workload = plan_to_workload(plan, degree=1 << 16)
        sched = RscScheduler(config=abc_fhe(), workload=workload)
        results = sched.compare(plan_to_request_queue(plan, requests=8))
        assert len(results) == 3
        assert all(r.makespan_cycles > 0 for r in results)
        assert results[0].makespan_cycles <= results[-1].makespan_cycles

    def test_schedule_comparison_covers_all_policies(self, rctx, gks, rlk):
        """A served run's counts on every dual-RSC policy, best first; the
        failed requests cost the client their upload and nothing more."""
        plan = _bsgs_like_plan(rctx, gks, rlk)
        comparison = plan_schedule_comparison(plan, requests=3, failures=2)
        assert {r.policy for r in comparison} == {
            "static_split",
            "dual_batched",
            "dynamic",
        }
        makespans = [r.makespan_cycles for r in comparison]
        assert makespans == sorted(makespans)
        served = plan_to_request_queue(plan, 3)
        assert plan_to_request_queue(plan, 3, failures=2) == RequestQueue(
            encode_encrypt=served.encode_encrypt + 2,
            decode_decrypt=served.decode_decrypt,
        )

"""Buffer arena: slot-liveness safety, zero steady-state allocations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime import ArenaLayout, BufferArena, CtSpec, compile_fn
from repro.runtime.arena import ArenaStep


def _spec(rctx, level=None):
    level = rctx.params.num_primes if level is None else level
    return CtSpec(level=level, scale=rctx.params.scale)


def _random_schedule(rng):
    """A random topo schedule: each step reads earlier nodes, makes one."""
    steps, produced = [], []
    for nid in range(rng.integers(4, 24)):
        k = int(rng.integers(0, min(3, len(produced)) + 1))
        consumed = tuple(
            int(produced[i]) for i in rng.choice(len(produced), k, replace=False)
        ) if produced else ()
        parts = int(rng.integers(1, 4))
        steps.append(ArenaStep(produced=((nid, parts),), consumed=consumed))
        produced.append(nid)
    n_out = int(rng.integers(1, min(3, len(produced)) + 1))
    outputs = tuple(
        int(produced[i]) for i in rng.choice(len(produced), n_out, replace=False)
    )
    return steps, outputs


class TestLayoutLiveness:
    @pytest.mark.parametrize("seed", range(25))
    def test_no_slot_aliases_a_live_node(self, seed):
        """Property test: replay the schedule, asserting every allocated
        slot is dead — no node's buffer is reassigned while a later step
        (or the caller, for outputs) still has to read it."""
        rng = np.random.default_rng(seed)
        steps, outputs = _random_schedule(rng)
        layout = ArenaLayout.plan(steps, outputs, level=3, degree=8)

        refs: dict[int, int] = {}
        for step in steps:
            for nid in step.consumed:
                refs[nid] = refs.get(nid, 0) + 1
        for nid in outputs:
            refs[nid] = refs.get(nid, 0) + 1

        slot_owner: dict[int, int] = {}
        for step in steps:
            for nid, _parts in step.produced:
                for slot in layout.slots[nid]:
                    owner = slot_owner.get(slot)
                    assert owner is None or refs.get(owner, 0) == 0, (
                        f"slot {slot} reassigned to node {nid} while "
                        f"node {owner} still has {refs[owner]} pending read(s)"
                    )
                    slot_owner[slot] = nid
            for nid in step.consumed:
                refs[nid] -= 1
        # Outputs stay pinned: their refs never reach zero.
        for nid in outputs:
            assert refs[nid] >= 1

    @pytest.mark.parametrize("seed", range(5))
    def test_slots_are_reused(self, seed):
        """The pool must be smaller than one-slot-per-buffer (the whole
        point); sanity-check on schedules long enough to have dead nodes."""
        rng = np.random.default_rng(100 + seed)
        steps, outputs = _random_schedule(rng)
        total_buffers = sum(p for s in steps for _, p in s.produced)
        layout = ArenaLayout.plan(steps, outputs, level=3, degree=8)
        assert layout.num_slots <= total_buffers
        assert layout.pool_bytes == layout.num_slots * 3 * 8 * 8

    def test_duplicate_consumption_counts_twice(self):
        """a consumed twice by one step (e.g. multiply(x, x)) must not
        free early — its two refs are both held by that step."""
        steps = [
            ArenaStep(produced=((0, 1),)),
            ArenaStep(produced=((1, 1),), consumed=(0, 0)),
            ArenaStep(produced=((2, 1),), consumed=(1,)),
        ]
        layout = ArenaLayout.plan(steps, (2,), level=2, degree=4)
        # Node 1 allocates before node 0's refs drop: distinct slots.
        assert set(layout.slots[1]).isdisjoint(layout.slots[0])


class TestBufferArena:
    def test_pool_allocated_once_and_views_are_zero_copy(self):
        steps = [
            ArenaStep(produced=((0, 2),)),
            ArenaStep(produced=((1, 1),), consumed=(0,)),
        ]
        layout = ArenaLayout.plan(steps, (1,), level=4, degree=16)
        arena = BufferArena(layout)
        pool = arena.ensure()
        assert arena.allocations == 1
        assert arena.ensure() is pool
        assert arena.allocations == 1
        (view,) = arena.views(1, 3)
        assert view.shape == (3, 16)
        assert view.base is pool or view.base.base is pool


class TestFusedReplayArena:
    def _plan(self, rctx, gks, rlk):
        def program(ev, x):
            rot = ev.add(ev.rotate(x, 1, gks), ev.rotate(x, 2, gks))
            return ev.multiply_relin_rescale(rot, rot, rlk)

        return compile_fn(program, rctx.evaluator, [_spec(rctx)])

    def test_replay_twice_is_byte_identical_with_zero_new_allocations(
        self, rctx, gks, rlk
    ):
        plan = self._plan(rctx, gks, rlk)
        ct = rctx.encrypt(np.linspace(-1, 1, rctx.params.slots))
        [first] = plan.run_batch([[ct]], fused=True)[0]
        ex = plan.fused()
        allocs = ex.arena.allocations
        [second] = plan.run_batch([[ct]], fused=True)[0]
        assert ex.arena.allocations == allocs, (
            "steady-state fused replay allocated arena storage"
        )
        assert allocs == 1
        assert first.scale == second.scale
        for a, b in zip(first.parts, second.parts):
            assert np.array_equal(a.data, b.data)

    def test_outputs_are_copies_not_arena_views(self, rctx, gks, rlk):
        """A replay's outputs must survive the next replay reusing the
        pool — they are copied out, never aliased into arena slots."""
        plan = self._plan(rctx, gks, rlk)
        rng = np.random.default_rng(3)
        ct_a = rctx.encrypt(rng.uniform(-1, 1, rctx.params.slots))
        ct_b = rctx.encrypt(rng.uniform(-1, 1, rctx.params.slots))
        [out_a] = plan.run_batch([[ct_a]], fused=True)[0]
        snapshot = [p.data.copy() for p in out_a.parts]
        pool = plan.fused().arena.pool
        for part in out_a.parts:
            assert part.data.base is not pool
        plan.run_batch([[ct_b]], fused=True)
        for before, part in zip(snapshot, out_a.parts):
            assert np.array_equal(before, part.data)

    def test_fused_matches_batched_replay(self, rctx, gks, rlk):
        plan = self._plan(rctx, gks, rlk)
        ct = rctx.encrypt(np.linspace(-0.5, 0.5, rctx.params.slots))
        [batched] = plan.run_batch([[ct]], fused=False)[0]
        [fused] = plan.run_batch([[ct]], fused=True)[0]
        assert batched.scale == fused.scale
        for a, b in zip(batched.parts, fused.parts):
            assert np.array_equal(a.data, b.data)

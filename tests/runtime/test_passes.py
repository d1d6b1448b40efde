"""Optimizer passes: CSE, DCE, rescale fusion, fusion grouping, validation."""

from __future__ import annotations

import pytest

import numpy as np

from repro.runtime import (
    CtSpec,
    PlanValidationError,
    check_alignment,
    fusion_groups,
    optimize,
    trace,
)
from repro.runtime.passes import (
    eliminate_common_subexpressions,
    eliminate_dead_nodes,
    fuse_rescales,
)


def _spec(rctx, level=None):
    level = rctx.params.num_primes if level is None else level
    return CtSpec(level=level, scale=rctx.params.scale)


class TestCse:
    def test_duplicate_rotations_merge(self, rctx, gks):
        def program(ev, x):
            return ev.add(ev.rotate(x, 1, gks), ev.rotate(x, 1, gks))

        g = trace(program, rctx.evaluator, [_spec(rctx)])
        assert g.op_histogram()["rotate"] == 2
        opt = eliminate_common_subexpressions(g)
        assert opt.op_histogram()["rotate"] == 1

    def test_commutative_multiply_canonicalized(self, rctx, rlk):
        def program(ev, x, y):
            ab = ev.relinearize(ev.multiply(x, y), rlk)
            ba = ev.relinearize(ev.multiply(y, x), rlk)
            return ev.add(ab, ba)

        g = trace(program, rctx.evaluator, [_spec(rctx), _spec(rctx)])
        opt = eliminate_common_subexpressions(g)
        assert opt.op_histogram()["multiply"] == 1
        assert opt.op_histogram()["relinearize"] == 1

    def test_different_keys_do_not_merge(self, rctx, gks):
        other = rctx.galois_keys([1], levels=[rctx.params.num_primes])

        def program(ev, x):
            return ev.add(ev.rotate(x, 1, gks), ev.rotate(x, 1, other))

        g = trace(program, rctx.evaluator, [_spec(rctx)])
        assert eliminate_common_subexpressions(g).op_histogram()["rotate"] == 2


class TestRescaleFusion:
    def test_chain_fuses_to_one_multi_prime_rescale(self, rctx):
        def program(ev, x):
            return ev.rescale(ev.rescale(ev.rescale(x, 1), 1), 1)

        g = trace(program, rctx.evaluator, [_spec(rctx)])
        opt = eliminate_dead_nodes(fuse_rescales(g))
        assert opt.op_histogram()["rescale"] == 1
        out = opt.nodes[opt.outputs[0]]
        assert out.attrs == (3,)
        assert out.level == rctx.params.num_primes - 3

    def test_shared_intermediate_blocks_fusion(self, rctx):
        def program(ev, x):
            mid = ev.rescale(x, 1)
            return ev.add(ev.rescale(mid, 1), ev.rescale(mid, 1))

        g = trace(program, rctx.evaluator, [_spec(rctx)])
        # mid has two consumers: it must survive; CSE merges the twins
        # first, after which mid has a single consumer and fusion fires.
        fused_only = eliminate_dead_nodes(fuse_rescales(g))
        assert fused_only.op_histogram()["rescale"] == 3
        full = optimize(g)
        assert full.op_histogram()["rescale"] == 1

    def test_output_intermediate_not_fused_away(self, rctx):
        def program(ev, x):
            mid = ev.rescale(x, 1)
            return mid, ev.rescale(mid, 1)

        g = trace(program, rctx.evaluator, [_spec(rctx)])
        opt = optimize(g)
        assert opt.op_histogram()["rescale"] == 2


class TestDce:
    def test_unused_work_is_dropped(self, rctx, gks):
        def program(ev, x):
            ev.rotate(x, 2, gks)  # dead
            return ev.rotate(x, 1, gks)

        g = trace(program, rctx.evaluator, [_spec(rctx)])
        opt = eliminate_dead_nodes(g)
        assert opt.op_histogram()["rotate"] == 1
        assert opt.op_histogram()["input"] == 1  # inputs always survive


class TestHoistGrouping:
    def test_rotations_sharing_a_source_group(self, rctx, gks):
        """Rotations of one source share a decomposition as one fused
        rotation family; a lone rotation is a family of one."""
        def program(ev, x):
            r1 = ev.rotate(x, 1, gks)
            r2 = ev.rotate(x, 2, gks)
            lone = ev.rotate(ev.add(r1, r2), 3, gks)
            return lone

        g = optimize(trace(program, rctx.evaluator, [_spec(rctx)]))
        groups = [grp for grp in fusion_groups(g) if grp.kind == "automorphisms"]
        r1, r2, lone = (n.id for n in g.nodes if n.op == "rotate")
        assert [grp.members for grp in groups] == [(r1, r2), (lone,)]
        assert [len(grp.sources) for grp in groups] == [1, 1]


class TestFusion:
    """fusion_groups is analysis only — the graph is never rewritten."""

    def _pts(self, rctx, count, level=None, scale=None):
        level = rctx.params.num_primes if level is None else level
        scale = rctx.params.scale if scale is None else scale
        slots = rctx.params.slots
        return [
            rctx.encoder.encode(np.full(slots, 0.1 * (i + 1)), level=level, scale=scale)
            for i in range(count)
        ]

    def test_mac_tree_folds_terms_and_adds(self, rctx):
        p1, p2, p3 = self._pts(rctx, 3)

        def program(ev, x):
            t1 = ev.multiply_plain(x, p1)
            t2 = ev.multiply_plain(x, p2)
            t3 = ev.multiply_plain(x, p3)
            return ev.add(ev.add(t1, t2), t3)

        g = trace(program, rctx.evaluator, [_spec(rctx)])
        (group,) = fusion_groups(g)
        assert group.kind == "mac"
        assert len(group.payload) == 3  # the three multiply_plain terms
        # Every mac source is the term's ciphertext operand, term-aligned.
        assert group.sources == tuple(
            g.nodes[t].inputs[0] for t in group.payload
        )
        # The whole tree (root + interior add + 3 terms) is covered.
        assert len(group.members) == 5
        assert group.outputs == (group.anchor,)

    def test_multi_consumer_term_degrades_mac_to_sum(self, rctx):
        p1, p2, p3 = self._pts(rctx, 3)

        def program(ev, x):
            t1 = ev.multiply_plain(x, p1)
            t2 = ev.multiply_plain(x, p2)
            t3 = ev.multiply_plain(x, p3)
            s = ev.add(ev.add(t1, t2), t3)
            return ev.add(s, t1)  # t1 read twice -> cannot fold its multiply

        g = trace(program, rctx.evaluator, [_spec(rctx)])
        groups = fusion_groups(g)
        kinds = {grp.kind for grp in groups}
        assert "mac" not in kinds
        assert "sum" in kinds

    def test_two_term_add_stays_unfused(self, rctx):
        p1, p2 = self._pts(rctx, 2)

        def program(ev, x):
            return ev.add(ev.multiply_plain(x, p1), ev.multiply_plain(x, p2))

        g = trace(program, rctx.evaluator, [_spec(rctx)])
        assert not any(
            grp.kind in ("mac", "sum") for grp in fusion_groups(g)
        )

    def test_hoist_families_become_schedule_steps(self, rctx, gks):
        def program(ev, x):
            return ev.add(ev.rotate(x, 1, gks), ev.rotate(x, 2, gks))

        g = optimize(trace(program, rctx.evaluator, [_spec(rctx)]))
        hoisted = [grp for grp in fusion_groups(g) if grp.kind == "automorphisms"]
        (grp,) = hoisted
        members = tuple(n.id for n in g.nodes if n.op == "rotate")
        assert grp.members == members
        assert grp.anchor == min(members)
        assert grp.sources == g.input_ids  # the one-source family

    def test_groups_are_disjoint(self, rctx, gks):
        p1, p2, p3 = self._pts(rctx, 3)

        def program(ev, x):
            r1 = ev.rotate(x, 1, gks)
            r2 = ev.rotate(x, 2, gks)
            t1 = ev.multiply_plain(r1, p1)
            t2 = ev.multiply_plain(r2, p2)
            t3 = ev.multiply_plain(x, p3)
            return ev.add(ev.add(t1, t2), t3)

        g = optimize(trace(program, rctx.evaluator, [_spec(rctx)]))
        seen: set[int] = set()
        for grp in fusion_groups(g):
            assert seen.isdisjoint(grp.members)
            seen.update(grp.members)


class TestAlignmentChecker:
    def test_accepts_traced_graphs(self, rctx, gks, rlk):
        def program(ev, x):
            return ev.multiply_relin_rescale(ev.rotate(x, 1, gks), x, rlk)

        check_alignment(trace(program, rctx.evaluator, [_spec(rctx)]))

    def test_rejects_corrupted_metadata_with_provenance(self, rctx, gks):
        import dataclasses

        def program(ev, x):
            return ev.add(ev.rotate(x, 1, gks), x)

        g = trace(program, rctx.evaluator, [_spec(rctx)])
        bad = dataclasses.replace(g.nodes[1], scale=g.nodes[1].scale * 3)
        g.nodes[1] = bad
        with pytest.raises(PlanValidationError) as err:
            check_alignment(g)
        msg = str(err.value)
        assert "scale" in msg and "node #" in msg and "operands" in msg

    @staticmethod
    def _rotation_moved_to(rctx, keys, key_level, level):
        """A traced rotation through a level-``key_level`` key, its input
        (spec, leaf and the rotation) moved to ``level`` consistently, so
        only the key's level can be wrong."""
        import dataclasses

        def program(ev, x):
            return ev.rotate(x, 1, keys)

        g = trace(program, rctx.evaluator, [_spec(rctx, level=key_level)])
        g.input_specs[0] = _spec(rctx, level=level)
        g.nodes[0] = dataclasses.replace(g.nodes[0], level=level)
        g.nodes[1] = dataclasses.replace(g.nodes[1], level=level)
        return g

    def test_rejects_wrong_key_level(self, rctx):
        top = rctx.params.num_primes
        keys = rctx.galois_keys([1], levels=[top - 1])
        g = self._rotation_moved_to(rctx, keys, top - 1, top)
        want = f"switching key at level {top - 1} cannot reach operand level {top}"
        with pytest.raises(PlanValidationError, match=want):
            check_alignment(g)

    def test_accepts_key_above_operand_level(self, rctx, gks):
        top = rctx.params.num_primes
        check_alignment(self._rotation_moved_to(rctx, gks, top, top - 1))

"""Executors: bit-identity with the eager Evaluator, dispatch-count
guards proving CSE/hoisting fire, buffer release, and plan ownership."""

from __future__ import annotations

import gc
import inspect
import multiprocessing as mp
import sys
import threading
import weakref
from collections import Counter
from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np
import pytest

import repro.ckks.evaluator as evaluator_module
import repro.runtime.plan as plan_module
from repro.ckks.containers import Plaintext
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import rotation_galois_elt
from repro.ckks.keyswitch import KeySwitchEngine
from repro.ckks.linear import HomomorphicLinearTransform
from repro.nums import kernels
from repro.nums.kernels import ReducerKernel
from repro.runtime import CtSpec, PtSpec, compile_fn
from repro.rns.poly import EVAL, RnsPolynomial
from repro.runtime.graph import _RULES
from repro.transforms.ntt import BatchNtt


def _spec(rctx, level=None):
    level = rctx.params.num_primes if level is None else level
    return CtSpec(level=level, scale=rctx.params.scale)


def _assert_ct_equal(a, b, what=""):
    assert a.scale == b.scale, what
    assert a.size == b.size, what
    for i, (pa, pb) in enumerate(zip(a.parts, b.parts)):
        assert np.array_equal(pa.data, pb.data), f"{what} part {i} differs"


@contextmanager
def _thread_starts():
    """The threads started inside the block, as a list that grows; each
    must be gone again when it ends."""
    started = []
    real = threading.Thread

    def counting(*args, **kwargs):
        started.append(1)
        return real(*args, **kwargs)

    before = threading.active_count()
    with mock.patch.object(threading, "Thread", counting):
        yield started
    assert threading.active_count() == before


def _race(threads):
    """Run the threads to completion under a switch interval short
    enough to interleave them inside one kernel call."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


@pytest.fixture(scope="module")
def sample_ct(rctx):
    rng = np.random.default_rng(3)
    return rctx.encrypt(rng.uniform(-1, 1, rctx.params.slots))


@pytest.fixture(scope="module")
def dense_bsgs(rctx, sample_ct):
    """A dense HLT over every slot and its compiled plan."""
    n = rctx.params.num_primes
    slots = rctx.params.slots
    rng = np.random.default_rng(14)
    hlt = HomomorphicLinearTransform(rctx, rng.uniform(-1, 1, (slots, slots)), level=n)
    keys = rctx.galois_keys(hlt.required_rotations(), levels=[n])
    return hlt, hlt.plan_for(sample_ct.scale, keys)


def _pipeline(gks, rlk):
    """Rotate / multiply / relinearize / rescale / add — every op class."""

    def program(ev, x, y):
        rot = ev.rotate(x, 1, gks)
        rot2 = ev.rotate(x, 2, gks)
        prod = ev.multiply_relin_rescale(ev.add(rot, rot2), y, rlk)
        return prod, rot

    return program


class TestBitIdentity:
    def test_plan_matches_eager_on_full_pipeline(self, rctx, gks, rlk, sample_ct):
        rng = np.random.default_rng(4)
        ct_y = rctx.encrypt(rng.uniform(-1, 1, rctx.params.slots))
        program = _pipeline(gks, rlk)
        eager_prod, eager_rot = program(rctx.evaluator, sample_ct, ct_y)
        plan = compile_fn(
            program, rctx.evaluator, [_spec(rctx), _spec(rctx)]
        )
        prod, rot = plan.run([sample_ct, ct_y])
        _assert_ct_equal(prod, eager_prod, "reference-interpreter prod")
        _assert_ct_equal(rot, eager_rot, "reference-interpreter rot")
        ((bprod, brot),) = plan.run_batch([[sample_ct, ct_y]], fused=False)
        _assert_ct_equal(bprod, eager_prod, "interpreter-batch prod")
        _assert_ct_equal(brot, eager_rot, "interpreter-batch rot")

    def test_batched_replay_over_many_inputs(self, rctx, gks, rlk):
        rng = np.random.default_rng(5)
        program = _pipeline(gks, rlk)
        plan = compile_fn(program, rctx.evaluator, [_spec(rctx), _spec(rctx)])
        batches = [
            [
                rctx.encrypt(rng.uniform(-1, 1, rctx.params.slots)),
                rctx.encrypt(rng.uniform(-1, 1, rctx.params.slots)),
            ]
            for _ in range(3)
        ]
        replayed = plan.run_batch(batches)
        for inputs, outs in zip(batches, replayed):
            eager = program(rctx.evaluator, *inputs)
            for got, want in zip(outs, eager):
                _assert_ct_equal(got, want, "replay vs eager")

    def test_plain_ops_bit_identical(self, rctx, sample_ct):
        rng = np.random.default_rng(6)
        pt = rctx.encode(rng.uniform(-1, 1, rctx.params.slots))
        second = rctx.encoder.encode(
            rng.uniform(-1, 1, rctx.params.slots),
            level=pt.level,
            scale=sample_ct.scale * pt.scale,
        )

        def program(ev, x):
            return ev.add_plain(ev.multiply_plain(x, pt), second)

        eager = program(rctx.evaluator, sample_ct)
        plan = compile_fn(program, rctx.evaluator, [_spec(rctx)])
        _assert_ct_equal(plan.run([sample_ct])[0], eager, "run plain")
        for fused in (True, False):
            [[got]] = plan.run_batch([[sample_ct]], fused=fused)
            _assert_ct_equal(got, eager, f"batch plain fused={fused}")


class TestFusedReplay:
    def test_fused_matches_eager_on_full_pipeline(self, rctx, gks, rlk, sample_ct):
        rng = np.random.default_rng(11)
        ct_y = rctx.encrypt(rng.uniform(-1, 1, rctx.params.slots))
        program = _pipeline(gks, rlk)
        eager_prod, eager_rot = program(rctx.evaluator, sample_ct, ct_y)
        plan = compile_fn(program, rctx.evaluator, [_spec(rctx), _spec(rctx)])
        ((fprod, frot),) = plan.run_batch([[sample_ct, ct_y]], fused=True)
        _assert_ct_equal(fprod, eager_prod, "fused prod")
        _assert_ct_equal(frot, eager_rot, "fused rot")

    def test_fused_bsgs_matches_batched_and_cuts_dispatch(self, rctx, sample_ct):
        slots = rctx.params.slots
        rng = np.random.default_rng(12)
        matrix = rng.uniform(-1, 1, (slots, slots))
        hlt = HomomorphicLinearTransform(rctx, matrix, level=rctx.params.num_primes)
        keys = rctx.galois_keys(
            hlt.required_rotations(), levels=[rctx.params.num_primes]
        )
        plan = hlt.plan_for(sample_ct.scale, keys)
        [batched] = plan.run_batch([[sample_ct]], fused=False)[0]
        [fused] = plan.run_batch([[sample_ct]], fused=True)[0]
        _assert_ct_equal(fused, batched, "fused BSGS")
        # The headline dispatch claim: fused schedule steps vs one
        # dispatch per graph node in the interpreter, >= 3x fewer.
        stats = plan.stats()
        assert stats["dispatch_count_fused"] * 3 <= stats["nodes"]
        assert stats["fused_groups"] >= 1
        assert stats["arena_slots"] >= 1

    def test_dense_bsgs_lowers_to_one_mac_and_one_giant_family(self, dense_bsgs, sample_ct):
        """A dense HLT with ``G`` giant groups: one ``mac`` step with ``G``
        outputs over every baby-step source, one family of the ``G - 1``
        giant rotations over its outputs, the hoisted baby-step family
        (the one-source case) and one sum."""
        hlt, plan = dense_bsgs
        giants = hlt.ctx.params.slots // hlt.baby_steps
        groups = plan.fused().groups
        assert [grp.kind for grp in groups] == ["automorphisms", "mac", "automorphisms", "sum"]
        baby, mac, giant, total = groups
        assert len(baby.sources) == 1 and len(baby.members) == hlt.baby_steps - 1
        assert len(mac.outputs) == giants
        assert len(mac.sources) == hlt.baby_steps
        assert len(mac.payload) == giants * hlt.baby_steps
        assert set(giant.sources) == set(mac.outputs[1:])
        assert len(giant.members) == giants - 1
        assert len(total.sources) == giants
        assert plan.stats()["dispatch_count_fused"] == 1 + len(groups)  # + the input
        [fused] = plan.run_batch([[sample_ct]])[0]
        _assert_ct_equal(fused, plan.run([sample_ct])[0], "dense BSGS")

    @pytest.mark.lanes
    @pytest.mark.parametrize("split", [False, True], ids=["whole", "split"])
    @pytest.mark.parametrize("cpu", [1, 2, 3])
    def test_family_lanes_give_one_set_of_bytes(self, dense_bsgs, sample_ct, cpu, split):
        """The giant family decomposes its stacked sources in one batched
        transform pair, whose blocks run in lanes: the replay's bytes are
        the interpreter's for any CPU count, with the blocks as they come
        (one at this shape) or cut so both the inverse and the forward
        split, and every lane thread is gone when the replay returns.
        The families' members and the MAC run in lanes too, so a replay
        on more than one CPU starts threads whatever the cut."""
        from repro.transforms.ntt import BatchNtt

        hlt, plan = dense_bsgs
        [oracle] = plan.run([sample_ct])
        giant = plan.fused().groups[2]
        degree = hlt.ctx.params.degree
        # Two limbs of the stacked inverse per block, one of the forward.
        block_bytes = 2 * len(giant.sources) * degree * 8 if split else BatchNtt.BLOCK_BYTES
        started = []
        real = threading.Thread

        def counting(*args, **kwargs):
            started.append(1)
            return real(*args, **kwargs)

        before = threading.active_count()
        with (
            mock.patch.object(BatchNtt, "BLOCK_BYTES", block_bytes),
            mock.patch.object(kernels, "_cpu_count", return_value=cpu),
            mock.patch.object(threading, "Thread", counting),
        ):
            [[fused]] = plan.run_batch([[sample_ct]])
        assert threading.active_count() == before
        assert bool(started) == (cpu > 1)
        _assert_ct_equal(fused, oracle, f"{cpu} lane(s)")

    @pytest.mark.lanes
    @pytest.mark.parametrize(
        "cpu", [None, 1, 2, 3], ids=["own", "cpu1", "cpu2", "cpu3"]
    )
    def test_mac_and_family_lanes_give_eager_bytes(self, dense_bsgs, sample_ct, cpu):
        """Both families run their members in lanes, and the MAC its
        outputs (both parts of an output in one lane) after splitting its
        sources in cache-sized blocks, in lanes too: the replay's bytes
        are the eager calls' (the interpreter's) at the process's own CPU
        count and at one,
        two and three, one lane thread starts per extra lane of each
        laned step — none on one CPU — and every one is joined when the
        replay returns."""
        hlt, plan = dense_bsgs
        [oracle] = plan.run([sample_ct])
        baby, mac, giant, _ = plan.fused().groups
        rows = 2 * len(mac.sources)  # both parts of every source
        split = len(BatchNtt.row_blocks(rows, sample_ct.parts[0].data.nbytes))
        calls = []
        real_lanes = plan_module.in_lanes

        def spy(blocks, lane):
            calls.append(len(blocks))
            return real_lanes(blocks, lane)

        started = []
        real_thread = threading.Thread

        def counting(*args, **kwargs):
            started.append(1)
            return real_thread(*args, **kwargs)

        before = threading.active_count()
        with ExitStack() as patches:
            patches.enter_context(mock.patch.object(plan_module, "in_lanes", spy))
            patches.enter_context(mock.patch.object(threading, "Thread", counting))
            if cpu is not None:
                patches.enter_context(
                    mock.patch.object(kernels, "_cpu_count", return_value=cpu)
                )
            lanes = kernels._cpu_count()
            [[fused]] = plan.run_batch([[sample_ct]])
        assert threading.active_count() == before
        assert calls == [len(baby.members), split, len(mac.outputs), len(giant.members)]
        assert len(started) >= sum(min(n, lanes) - 1 for n in calls)
        assert bool(started) == (lanes > 1)
        _assert_ct_equal(fused, oracle, f"{lanes} lane(s)")

    @pytest.mark.lanes
    def test_mac_binds_diagonal_stacks_in_place(
        self, dense_bsgs, sample_ct, monkeypatch
    ):
        """Each MAC output's diagonals reach the kernel as one ``(S, 1, L,
        N)`` view of its giant group's encode buffer — no copy — broadcast
        over both parts of the stacked sources in one call per lane; lane
        threads start only on more than one CPU and are joined when the
        replay returns."""
        hlt, plan = dense_bsgs
        mac = plan.fused().groups[1]
        seen = []
        real = ReducerKernel.mul_accumulate_halves

        def spy(kern, halves, consts, *args):
            halves = list(halves)
            if halves[0][0].ndim == 4:  # the MAC's (S, P, L, N) sources
                seen.extend(block for [block] in consts)
            return real(kern, halves, consts, *args)

        monkeypatch.setattr(ReducerKernel, "mul_accumulate_halves", spy)
        with _thread_starts() as started:
            [[fused]] = plan.run_batch([[sample_ct]])
        assert bool(started) == (kernels._cpu_count() > 1)
        _assert_ct_equal(fused, plan.run([sample_ct])[0], "dense BSGS")
        level, degree = hlt.ctx.params.num_primes, hlt.ctx.params.degree
        diags: dict[int, list] = {}
        for g, j in hlt._nonzero:
            diags.setdefault(g, []).append(hlt._diagonals[(g, j)].poly.data)
        assert len(seen) == len(mac.outputs) == len(diags)
        owners = []
        for block in seen:
            assert block.shape == (len(mac.sources), 1, level, degree)
            [g] = [g for g, rows in diags.items() if np.shares_memory(block, rows[0])]
            assert all(np.array_equal(b[0], d[:level]) for b, d in zip(block, diags[g]))
            owners.append(g)
        assert sorted(owners) == sorted(diags)

    @pytest.mark.lanes
    @pytest.mark.parametrize("layout", ["separate", "shuffled", "no_views"])
    def test_mac_copy_path_gives_eager_bytes(
        self, rctx, gks, sample_ct, layout, monkeypatch
    ):
        """A MAC whose diagonals are not one evenly strided run of one
        buffer — encoded one by one, or rows of one stack out of order —
        stacks a copy of them, as it does when no strided view is made at
        all.  The bytes are the eager calls' either way."""
        rng = np.random.default_rng(15)
        slots, level = rctx.params.slots, rctx.params.num_primes
        values = rng.uniform(-1, 1, (2, 3, slots))
        if layout == "shuffled":
            # Diagonal (g, t) is row order[3g + t] of one stack: each
            # group's rows are out of order, so no stride fits them.
            order = [1, 0, 2, 4, 5, 3]
            flat = np.empty((6, slots))
            flat[order] = values.reshape(6, slots)
            scale = rctx.params.scale
            rows = rctx.encoder.encode_rows(flat, level=level, scale=scale)
            rctx.basis.batch_ntt(level).forward(rows, out=rows)
            pts = [
                [
                    Plaintext(
                        RnsPolynomial(rctx.basis, rows[order[3 * g + t]], EVAL), scale
                    )
                    for t in range(3)
                ]
                for g in range(2)
            ]
        else:
            pts = [[rctx.encode(v) for v in group] for group in values]
        if layout == "no_views":
            monkeypatch.setattr(plan_module, "_strided", lambda rows: None)

        def program(ev, x):
            sources = [x, ev.rotate(x, 1, gks), ev.rotate(x, 2, gks)]
            outs = []
            for group in pts:
                terms = [ev.multiply_plain(s, pt) for s, pt in zip(sources, group)]
                outs.append(ev.add(ev.add(terms[0], terms[1]), terms[2]))
            return ev.add(outs[0], ev.rotate(outs[1], 3, gks))

        plan = compile_fn(program, rctx.evaluator, [_spec(rctx)])
        assert [grp.kind for grp in plan.fused().groups].count("mac") == 1
        copies = []
        every = [pt.poly.data for group in pts for pt in group]
        real = ReducerKernel.mul_accumulate_halves

        def spy(kern, halves, consts, *args):
            halves = list(halves)
            if halves[0][0].ndim == 4:  # the MAC's (S, P, L, N) sources
                for [block] in consts:
                    shared = [np.shares_memory(block, data) for data in every]
                    copies.append(not any(shared))
            return real(kern, halves, consts, *args)

        monkeypatch.setattr(ReducerKernel, "mul_accumulate_halves", spy)
        with _thread_starts() as started:
            [[fused]] = plan.run_batch([[sample_ct]])
        assert bool(started) == (kernels._cpu_count() > 1)
        assert copies == [True, True]
        _assert_ct_equal(fused, program(rctx.evaluator, sample_ct), layout)

    def test_sharded_pool_replays_fused(self, rctx, gks, rlk, sample_ct):
        from repro.runtime import ServingConfig, ShardedExecutor

        rng = np.random.default_rng(13)
        ct_y = rctx.encrypt(rng.uniform(-1, 1, rctx.params.slots))
        plan = compile_fn(
            _pipeline(gks, rlk), rctx.evaluator, [_spec(rctx), _spec(rctx)]
        )
        ((bprod, brot),) = plan.run_batch([[sample_ct, ct_y]], fused=False)
        with ShardedExecutor(plan, config=ServingConfig(num_workers=1)) as pool:
            assert pool.stats()["fused"]  # the default
            ((sprod, srot),) = pool.run_batch([[sample_ct, ct_y]], timeout=120)
        _assert_ct_equal(sprod, bprod, "fused sharded prod")
        _assert_ct_equal(srot, brot, "fused sharded rot")

    def test_concurrent_replays_on_one_plan_get_their_own_bytes(
        self, rctx, gks, rlk
    ):
        """Every replay of a plan shares one arena, and ``plan.run_batch``
        may be called from any thread: concurrent callers must each get the
        bytes of *their* input."""
        program = _pipeline(gks, rlk)
        plan = compile_fn(program, rctx.evaluator, [_spec(rctx), _spec(rctx)])
        rng = np.random.default_rng(14)
        inputs = [
            [rctx.encrypt(rng.uniform(-1, 1, rctx.params.slots)) for _ in range(2)]
            for _ in range(3)  # more threads than this VM has cores
        ]
        want = [program(rctx.evaluator, *pair) for pair in inputs]
        plan.run_batch([inputs[0]], fused=True)  # lower outside the race
        wrong = [0] * len(inputs)
        done = [0] * len(inputs)
        start = threading.Barrier(len(inputs))

        def replay(i):
            start.wait(timeout=30)
            for _ in range(15):
                got = plan.run_batch([inputs[i]], fused=True)[0]
                for g, w in zip(got, want[i]):
                    if any(
                        not np.array_equal(pg.data, pw.data)
                        for pg, pw in zip(g.parts, w.parts)
                    ):
                        wrong[i] += 1
                done[i] += 1

        threads = [
            threading.Thread(target=replay, args=(i,), daemon=True)
            for i in range(len(inputs))
        ]
        _race(threads)
        assert done == [15] * len(inputs)
        assert wrong == [0] * len(inputs), f"wrong replays per thread: {wrong}"

    def test_ufunc_buffer_scope_is_the_callers_on_every_thread(self, rctx, gks, rlk):
        """The replay's and the eager evaluator's ufunc-buffer scopes are
        call-scoped: a thread replaying a fused plan and one rotating
        eagerly each find their *own* ``np.getbufsize()`` after every
        call, raising or not — and both still get the right bytes."""
        program = _pipeline(gks, rlk)
        plan = compile_fn(program, rctx.evaluator, [_spec(rctx), _spec(rctx)])
        rng = np.random.default_rng(15)
        pair = [rctx.encrypt(rng.uniform(-1, 1, rctx.params.slots)) for _ in range(2)]
        want_prod, want_rot = program(rctx.evaluator, *pair)
        plan.run_batch([pair], fused=True)  # lower outside the race
        executor = plan.fused()
        unrelinearized = rctx.evaluator.multiply(*pair)
        problems: list[str] = []
        done = {"replay": 0, "rotate": 0}

        def replay():
            (got,) = plan.run_batch([pair], fused=True)
            _assert_ct_equal(got[0], want_prod, "fused prod")
            with mock.patch.object(executor, "_collect", side_effect=RuntimeError):
                with pytest.raises(RuntimeError):  # inside the scope
                    plan.run_batch([pair], fused=True)

        def rotate():
            _assert_ct_equal(rctx.evaluator.rotate(pair[0], 1, gks), want_rot, "rot")
            with pytest.raises(ValueError, match="relinearize before"):
                rctx.evaluator.apply_galois(unrelinearized, 5, gks[(1, pair[0].level)])

        def work(name, call, own):
            previous = np.setbufsize(own)  # thread-local, like the scope's
            try:
                for _ in range(10):
                    call()
                    if np.getbufsize() != own:
                        problems.append(f"{name}: buffer {np.getbufsize()} != {own}")
                    done[name] += 1
            except Exception as exc:  # surfaced by the assertions below
                problems.append(f"{name}: {exc!r}")
            finally:
                np.setbufsize(previous)

        threads = [
            threading.Thread(target=work, args=("replay", replay, 4096), daemon=True),
            threading.Thread(target=work, args=("rotate", rotate, 2048), daemon=True),
        ]
        default = np.getbufsize()
        _race(threads)
        assert not problems
        assert done == {"replay": 10, "rotate": 10}
        assert np.getbufsize() == default

    def test_forked_child_gets_a_free_replay_lock(self, rctx, gks, rlk, sample_ct):
        """A fork taken while some thread is mid-replay must not leave
        the child's copy of the lock held by a thread it does not have."""
        program = _pipeline(gks, rlk)
        plan = compile_fn(program, rctx.evaluator, [_spec(rctx), _spec(rctx)])
        want = program(rctx.evaluator, sample_ct, sample_ct)[0]
        ctx = mp.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)

        def child():
            [[prod, _]] = plan.run_batch([[sample_ct, sample_ct]])
            send.send_bytes(prod.parts[0].data.tobytes())

        proc = ctx.Process(target=child, daemon=True)
        with plan.fused()._replay_lock:
            proc.start()
        try:
            assert recv.poll(60), "forked child deadlocked on the replay lock"
            assert recv.recv_bytes() == want.parts[0].data.tobytes()
        finally:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=10)
        assert proc.exitcode == 0

    def test_fused_executor_cached_per_backend(self, rctx, gks):
        def program(ev, x):
            return ev.rotate(x, 1, gks)

        plan = compile_fn(program, rctx.evaluator, [_spec(rctx)])
        assert plan.fused() is plan.fused()


class TestDispatchCounts:
    def test_hoisting_fires_in_planned_bsgs(self, rctx, monkeypatch, sample_ct):
        slots = rctx.params.slots
        rng = np.random.default_rng(8)
        matrix = rng.uniform(-1, 1, (slots, slots))
        hlt = HomomorphicLinearTransform(rctx, matrix, level=rctx.params.num_primes)
        keys = rctx.galois_keys(
            hlt.required_rotations(), levels=[rctx.params.num_primes]
        )

        calls = {"n": 0}
        real = KeySwitchEngine.decompose_rows

        def counting(self, data):
            calls["n"] += 1
            return real(self, data)

        monkeypatch.setattr(KeySwitchEngine, "decompose_rows", counting)

        calls["n"] = 0
        hlt.emit(rctx.evaluator, sample_ct, keys)  # unplanned eager dispatch
        eager_decomposes = calls["n"]
        baby = {j for _, j in hlt._nonzero if j != 0}
        giants = {g for g, _ in hlt._nonzero if g != 0}
        # Eager pays one digit expansion per rotation, and so does the
        # reference interpreter, which makes eager's calls.
        assert eager_decomposes == len(baby) + len(giants)
        plan = hlt.plan_for(sample_ct.scale, keys)
        calls["n"] = 0
        plan.run([sample_ct])
        assert calls["n"] == eager_decomposes

        # apply replays fused: the baby steps share one batched
        # decomposition and the giant steps another.
        hlt.apply(sample_ct, keys)  # lowers
        calls["n"] = 0
        hlt.apply(sample_ct, keys)
        assert calls["n"] == 2
        calls["n"] = 0
        plan.run_batch([[sample_ct]])
        assert calls["n"] == 2
        # The stat counts those batched decompositions: the families.
        assert plan.stats()["hoist_groups"] == 2

    def test_cse_eliminates_duplicate_keyswitch_work(
        self, rctx, gks, monkeypatch, sample_ct
    ):
        calls = {"n": 0}
        real = KeySwitchEngine.contract

        def counting(self, *args, **kwargs):
            calls["n"] += 1
            return real(self, *args, **kwargs)

        monkeypatch.setattr(KeySwitchEngine, "contract", counting)

        def program(ev, x):
            return ev.add(ev.rotate(x, 1, gks), ev.rotate(x, 1, gks))

        plan = compile_fn(program, rctx.evaluator, [_spec(rctx)])
        calls["n"] = 0
        plan.run([sample_ct])
        assert calls["n"] == 1  # two traced rotations, one executed


# Each non-leaf op's row function: the one kernel sequence its eager
# method (through Evaluator._run) and its fused step share, each writing
# the output rows it is given.  Rescale's lives in repro.rns.poly, and
# every automorphism's fused step is a rotation family's, a lone one a
# family of one.
ROW_FUNCTIONS = {
    "add": "add_rows",
    "sub": "add_rows",
    "negate": "negate_rows",
    "add_plain": "add_plain_rows",
    "multiply_plain": "multiply_plain_rows",
    "multiply": "multiply_rows",
    "relinearize": "relinearize_rows",
    "rescale": "rescale_eval_rows",
    "rotate": "galois_rows",
    "conjugate": "galois_rows",
    "apply_galois": "galois_rows",
}

# One call per non-leaf op (both plaintext forms) over a top-level x, a y
# one level down, a 3-part t and a plaintext p that rides as a captured
# constant (k["pt"]) or as a pt_input operand.
ONE_OP = {
    "add": lambda ev, k, x, y, t, p: ev.add(x, y),
    "sub": lambda ev, k, x, y, t, p: ev.sub(y, x),
    "negate": lambda ev, k, x, y, t, p: ev.negate(y),
    "add_plain": lambda ev, k, x, y, t, p: ev.add_plain(y, k["pt"]),
    "add_plain-pt": lambda ev, k, x, y, t, p: ev.add_plain(x, p),
    "multiply_plain": lambda ev, k, x, y, t, p: ev.multiply_plain(x, k["pt"]),
    "multiply_plain-pt": lambda ev, k, x, y, t, p: ev.multiply_plain(y, p),
    "multiply": lambda ev, k, x, y, t, p: ev.multiply(x, y),
    "relinearize": lambda ev, k, x, y, t, p: ev.relinearize(t, k["rlk"]),
    "rescale": lambda ev, k, x, y, t, p: ev.rescale(x, times=2),
    "rotate": lambda ev, k, x, y, t, p: ev.rotate(x, 1, k["gks"]),
    "conjugate": lambda ev, k, x, y, t, p: ev.conjugate(x, k["cjk"]),
    "apply_galois": lambda ev, k, x, y, t, p: ev.apply_galois(x, k["elt"], k["key"]),
}


def _counting(fn, counts: Counter, name: str):
    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return counted


class TestOneKernelSequencePerOp:
    """Eager and fused replay run each op through the same row function,
    so the two cannot fork."""

    def test_row_functions_cover_every_non_leaf_op(self):
        non_leaf = {
            op for op, rule in _RULES.items() if all(kinds for kinds, _ in rule.forms)
        }
        assert set(ROW_FUNCTIONS) == non_leaf
        assert {case.removesuffix("-pt") for case in ONE_OP} == non_leaf

    def test_each_path_calls_the_ops_row_function_once(
        self, rctx, rlk, gks, monkeypatch
    ):
        """Per op, the eager call and a one-node plan's fused replay each
        call its row function exactly once, and the replay enters no
        ``Evaluator`` method (a plaintext input used to fall back to one)
        and hands the row function its own arena views as ``outs`` (a
        rescale step once wrote a fresh result and copied it in)."""
        top, slots = rctx.params.num_primes, rctx.params.slots
        rng = np.random.default_rng(16)
        pt = rctx.encoder.encode(rng.uniform(-1, 1, slots), level=top)
        x = rctx.encrypt(rng.uniform(-1, 1, slots))
        y = rctx.encrypt(rng.uniform(-1, 1, slots), level=top - 1)
        t = rctx.evaluator.multiply(x, x)
        keys = {
            "pt": pt,
            "rlk": rlk,
            "gks": gks,
            "cjk": rctx.keygen.gen_conjugation(rctx.secret_key, [top]),
            "elt": rotation_galois_elt(3, slots, 2 * rctx.basis.degree),
            "key": gks[(3, top)],
        }
        specs = [
            _spec(rctx),
            _spec(rctx, top - 1),
            CtSpec(level=top, scale=t.scale, size=3),
            PtSpec(level=top, scale=pt.scale),
        ]
        inputs = [x, y, t, pt]
        rows, entered = Counter(), Counter()
        written = []

        def writing(fn):
            signature = inspect.signature(fn)

            def wrapper(*args, **kwargs):
                written.append(signature.bind(*args, **kwargs).arguments["outs"])
                return fn(*args, **kwargs)

            return wrapper

        for name in set(ROW_FUNCTIONS.values()):
            fn = getattr(evaluator_module, name)
            monkeypatch.setattr(evaluator_module, name, _counting(fn, rows, name))
            monkeypatch.setattr(plan_module, name, _counting(writing(fn), rows, name))
        for name, method in list(vars(Evaluator).items()):
            if callable(method) and not name.startswith("__"):
                monkeypatch.setattr(Evaluator, name, _counting(method, entered, name))
        for case, call in ONE_OP.items():
            op = case.removesuffix("-pt")

            def program(ev, *handles, call=call):
                return call(ev, keys, *handles)

            rows.clear()
            eager = program(rctx.evaluator, *inputs)
            assert rows == {ROW_FUNCTIONS[op]: 1}, f"eager {case}: {dict(rows)}"
            plan = compile_fn(program, rctx.evaluator, specs)
            assert [n.op for n in plan.graph.nodes if n.inputs] == [op], case
            pool = plan.fused().arena.pool  # lowered outside the count
            rows.clear()
            entered.clear()
            written.clear()
            [[fused]] = plan.run_batch([inputs])
            assert rows == {ROW_FUNCTIONS[op]: 1}, f"fused {case}: {dict(rows)}"
            assert not entered, f"fused {case} entered Evaluator.{sorted(entered)}"
            (outs,) = written
            assert all(np.shares_memory(out, pool) for out in outs), case
            _assert_ct_equal(fused, eager, case)


class TestPlanMechanics:
    def test_a_plan_belongs_to_its_caller(self, rctx, gks):
        """Each compile returns a new plan, and nothing else holds it: once
        the caller drops it, its lowered replayer (arena pool and all) is
        freed."""

        def program(ev, x):
            return ev.rotate(x, 1, gks)

        p1 = compile_fn(program, rctx.evaluator, [_spec(rctx)])
        p2 = compile_fn(program, rctx.evaluator, [_spec(rctx)])
        assert p1 is not p2
        replayer = weakref.ref(p1.fused())
        del p1
        gc.collect()
        assert replayer() is None

    def test_buffers_released_by_refcount(self, rctx, gks, rlk, sample_ct):
        plan = compile_fn(
            _pipeline(gks, rlk), rctx.evaluator, [_spec(rctx), _spec(rctx)]
        )
        # Every non-output intermediate must appear in exactly one release
        # slot; outputs must never be released.
        released = [v for slot in plan._releases for v in slot]
        assert len(released) == len(set(released))
        outputs = set(plan.graph.outputs)
        assert not outputs & set(released)
        interior = {
            n.id
            for n in plan.graph.nodes
            if n.id not in outputs and plan.graph.consumer_counts()[n.id] > 0
        }
        assert interior == set(released)
        plan.run([sample_ct, sample_ct])  # and execution still works

    def test_input_validation_messages(self, rctx, gks, sample_ct):
        def program(ev, x):
            return ev.rotate(x, 1, gks)

        plan = compile_fn(program, rctx.evaluator, [_spec(rctx)])
        with pytest.raises(ValueError, match="expects 1 input"):
            plan.run([])
        wrong_level = rctx.evaluator.rescale(sample_ct, times=1)
        with pytest.raises(ValueError, match="compiled for level"):
            plan.run([wrong_level])

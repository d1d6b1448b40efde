"""Executors: bit-identity with the eager Evaluator, dispatch-count
guards proving CSE/hoisting fire, buffer release, and plan ownership."""

from __future__ import annotations

import gc
import multiprocessing as mp
import sys
import threading
import weakref
from collections import Counter

import numpy as np
import pytest

import repro.ckks.evaluator as evaluator_module
import repro.runtime.plan as plan_module
from repro.ckks.evaluator import Evaluator
from repro.ckks.keys import rotation_galois_elt
from repro.ckks.keyswitch import KeySwitchEngine
from repro.ckks.linear import HomomorphicLinearTransform
from repro.runtime import (
    CtSpec,
    PtSpec,
    compile_fn,
    trace,
)
from repro.runtime.graph import _RULES


def _spec(rctx, level=None):
    level = rctx.params.num_primes if level is None else level
    return CtSpec(level=level, scale=rctx.params.scale)


def _assert_ct_equal(a, b, what=""):
    assert a.scale == b.scale, what
    assert a.size == b.size, what
    for i, (pa, pb) in enumerate(zip(a.parts, b.parts)):
        assert np.array_equal(pa.data, pb.data), f"{what} part {i} differs"


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
        from unittest import mock

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

        plan = hlt.plan_for(sample_ct.scale, keys)
        plan.run([sample_ct])  # warm (counts once)
        calls["n"] = 0
        plan.run([sample_ct])
        planned_decomposes = calls["n"]

        baby = {j for _, j in hlt._nonzero if j != 0}
        giants = {g for g, _ in hlt._nonzero if g != 0}
        # Eager pays one digit expansion per rotation; the plan hoists all
        # baby steps onto a single shared decomposition.
        assert eager_decomposes == len(baby) + len(giants)
        assert planned_decomposes == 1 + len(giants)
        assert planned_decomposes < eager_decomposes

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
# method and fused replay share (rescale's lives in repro.rns.poly).
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
        ``Evaluator`` method (a plaintext input used to fall back to one)."""
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
        for name in set(ROW_FUNCTIONS.values()):
            for module in (evaluator_module, plan_module):
                monkeypatch.setattr(
                    module, name, _counting(getattr(module, name), rows, name)
                )
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
            plan.fused()  # lowered outside the count
            rows.clear()
            entered.clear()
            [[fused]] = plan.run_batch([inputs])
            assert rows == {ROW_FUNCTIONS[op]: 1}, f"fused {case}: {dict(rows)}"
            assert not entered, f"fused {case} entered Evaluator.{sorted(entered)}"
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

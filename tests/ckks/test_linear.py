"""Homomorphic linear transforms (BSGS) and conjugation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ckks import CkksContext, toy_params
from repro.ckks.linear import HomomorphicLinearTransform
from repro.transforms.fft import embedding_matrix


@pytest.fixture(scope="module")
def lctx():
    return CkksContext.create(toy_params(degree=128, num_primes=6), seed=31)


def _apply(ctx, matrix, x, level=6):
    lt = HomomorphicLinearTransform(ctx, matrix, level=level)
    gk = ctx.galois_keys(lt.required_rotations(), levels=[level])
    out = lt.apply(ctx.encrypt(x), gk)
    return ctx.decrypt_decode(ctx.evaluator.rescale(out, times=2))


class TestMatVec:
    def test_dense_complex_matrix(self, lctx):
        n = lctx.params.slots
        rng = np.random.default_rng(4)
        m = 0.2 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        got = _apply(lctx, m, x)
        assert np.max(np.abs(got - m @ x)) < 1e-5

    def test_identity(self, lctx):
        n = lctx.params.slots
        rng = np.random.default_rng(5)
        x = rng.normal(size=n)
        got = _apply(lctx, np.eye(n), x)
        assert np.max(np.abs(got - x)) < 1e-6

    def test_permutation_matrix(self, lctx):
        n = lctx.params.slots
        perm = np.roll(np.eye(n), 3, axis=1)  # x -> rot_3(x)
        x = np.arange(n, dtype=float)
        got = _apply(lctx, perm, x).real
        assert np.max(np.abs(got - np.roll(x, -3))) < 1e-5

    def test_sparse_diagonals_need_few_rotations(self, lctx):
        """A tridiagonal-ish matrix must not pay dense-BSGS rotations."""
        n = lctx.params.slots
        m = np.eye(n) + np.roll(np.eye(n), 1, axis=1) * 0.5
        lt = HomomorphicLinearTransform(lctx, m, level=6)
        assert len(lt.required_rotations()) <= 2

    def test_embedding_inverse_roundtrip(self, lctx):
        """The CoeffToSlot matrix composed with SlotToCoeff is identity."""
        n = lctx.params.slots
        e = embedding_matrix(n)
        rng = np.random.default_rng(6)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        mid = _apply(lctx, np.linalg.inv(e), x)
        assert np.max(np.abs(e @ mid - x)) < 1e-4

    def test_shape_validation(self, lctx):
        with pytest.raises(ValueError, match="matrix must be"):
            HomomorphicLinearTransform(lctx, np.eye(3), level=6)

    def test_level_check(self, lctx):
        n = lctx.params.slots
        lt = HomomorphicLinearTransform(lctx, np.eye(n), level=4)
        gk = lctx.galois_keys(lt.required_rotations() or [1], levels=[4])
        with pytest.raises(ValueError, match="compiled for level"):
            lt.apply(lctx.encrypt(np.ones(n)), gk)  # ct at level 6


class TestSplit:
    """The baby/giant split: hoisting makes baby steps the cheap ones, so
    the default rounds their count up to a power of two."""

    @pytest.mark.parametrize("slots, baby", [(128, 16), (512, 32), (2048, 64)])
    def test_default_is_power_of_two_at_or_above_sqrt(self, slots, baby):
        ctx = CkksContext.create(toy_params(degree=2 * slots, num_primes=2), seed=3)
        lt = HomomorphicLinearTransform(ctx, np.eye(slots), level=2)
        assert lt.baby_steps == baby
        assert (baby // 2) ** 2 < slots <= baby**2

    def test_dense_512_needs_the_same_46_keys(self):
        ctx = CkksContext.create(toy_params(degree=1024, num_primes=2), seed=3)
        dense = np.ones((512, 512))
        default = HomomorphicLinearTransform(ctx, dense, level=2)
        before = HomomorphicLinearTransform(ctx, dense, level=2, baby_steps=16)
        assert len(default.required_rotations()) == 31 + 15
        assert len(before.required_rotations()) == 15 + 31

    @pytest.mark.parametrize("baby_steps", [16, 32, 64])
    @pytest.mark.parametrize("banded", [False, True], ids=["dense", "banded"])
    def test_fused_interpreter_and_numpy_agree(self, lctx, baby_steps, banded):
        n = lctx.params.slots
        rng = np.random.default_rng(8)
        m = 0.2 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        if banded:  # keep diagonals 0-2, 17, 40-41: most (g, j) pairs missing
            offset = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
            m = np.where(np.isin(offset, [0, 1, 2, 17, 40, 41]), m, 0)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        lt = HomomorphicLinearTransform(lctx, m, level=6, baby_steps=baby_steps)
        assert len(lt._nonzero) == (6 if banded else n)
        gk = lctx.galois_keys(lt.required_rotations(), levels=[6])
        ct = lctx.encrypt(x)
        plan = lt.plan_for(ct.scale, gk)
        (interp,) = plan.run([ct])
        ((fused,),) = plan.run_batch([[ct]], fused=True)
        assert fused.scale == interp.scale
        for f, i in zip(fused.parts, interp.parts):
            assert np.array_equal(f.data, i.data)
        got = lctx.decrypt_decode(lctx.evaluator.rescale(fused, times=2))
        assert np.max(np.abs(got - m @ x)) < 1e-5


@pytest.mark.lanes
class TestApplyLanes:
    """``apply`` replays the plan fused: its rotation families' batched
    decompositions run in lanes once their blocks split, and the bytes
    are the eager loop's on one CPU or two."""

    def test_apply_bytes_equal_on_one_and_two_cpus(self, lctx):
        import threading
        from unittest import mock

        from repro.nums import kernels
        from repro.transforms.ntt import BatchNtt

        n = lctx.params.slots
        rng = np.random.default_rng(21)
        lt = HomomorphicLinearTransform(lctx, rng.uniform(-1, 1, (n, n)), level=6)
        gk = lctx.galois_keys(lt.required_rotations(), levels=[6])
        ct = lctx.encrypt(rng.uniform(-1, 1, n))
        want = lt.emit(lctx.evaluator, ct, gk)
        before = threading.active_count()
        for cpu in (1, 2):
            with (
                mock.patch.object(BatchNtt, "BLOCK_BYTES", 1),
                mock.patch.object(kernels, "_cpu_count", return_value=cpu),
            ):
                got = lt.apply(ct, gk)
            assert threading.active_count() == before
            assert got.scale == want.scale
            for g, w in zip(got.parts, want.parts):
                assert g.data.tobytes() == w.data.tobytes(), f"{cpu} CPU(s)"


def _diagonals_one_by_one(lt) -> dict:
    """Every nonzero diagonal pre-rotated and encoded alone, as the
    per-diagonal loop did: ``encode(pre).poly.to_eval()``, in the
    transform's ``(giant, baby)`` order."""
    ctx, n, bs = lt.ctx, lt.ctx.params.slots, lt.baby_steps
    j = np.arange(n)
    want = {}
    for i in range(n):
        d = lt.matrix[j, (j + i) % n]
        if np.max(np.abs(d)) < 1e-15:
            continue
        g, b = divmod(i, bs)
        pre = np.roll(d, g * bs)
        pt = ctx.encoder.encode(pre, level=lt.level, scale=ctx.params.scale)
        want[(g, b)] = pt.poly.to_eval()
    return want


@pytest.mark.lanes
class TestDiagonalStacks:
    """Each giant group's diagonals are encoded as one stack and
    transformed as one batch; every diagonal keeps the bytes of its own
    encoding.  The stacks are cut one limb a block, so the blocks run in
    lanes under a patched CPU count, and on the caller's thread under
    the process's own (one CPU under ``taskset -c 0``)."""

    @pytest.mark.parametrize("cpu", [None, 1, 3], ids=["own", "cpu1", "cpu3"])
    @pytest.mark.parametrize(
        "case, baby_steps",
        # banded: groups 0 and 2 partial (3 and 1 of 8), groups 1 and 3 empty;
        # ragged: 12 does not divide 64, so the last group holds 4.
        [("dense", 8), ("banded", 8), ("ragged", 12)],
    )
    def test_group_stacks_equal_diagonals_encoded_alone(
        self, lctx, case, baby_steps, cpu
    ):
        import threading
        from contextlib import ExitStack
        from unittest import mock

        from repro.nums import kernels
        from repro.transforms.ntt import BatchNtt

        n = lctx.params.slots
        rng = np.random.default_rng(13)
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        if case == "banded":
            offset = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
            m = np.where(np.isin(offset, [0, 1, 2, 17, 40, 41]), m, 0)
        before = threading.active_count()
        with ExitStack() as patches:
            patches.enter_context(mock.patch.object(BatchNtt, "BLOCK_BYTES", 1))
            if cpu is not None:
                patches.enter_context(
                    mock.patch.object(kernels, "_cpu_count", return_value=cpu)
                )
            lt = HomomorphicLinearTransform(lctx, m, level=6, baby_steps=baby_steps)
        assert threading.active_count() == before
        want = _diagonals_one_by_one(lt)
        assert list(lt._diagonals) == list(want) == lt._nonzero
        assert len(want) == (6 if case == "banded" else n)
        for key, pt in lt._diagonals.items():
            assert pt.scale == lctx.params.scale and pt.poly.domain == "eval"
            assert pt.poly.data.tobytes() == want[key].data.tobytes(), key
        # A diagonal is a row of its group's buffer, not a buffer of its own.
        first, second = (lt._diagonals[(0, j)].poly.data for j in (0, 1))
        assert first.base is not None and first.base is second.base

    def test_encode_rows_of_a_stack_equal_encode_per_row(self, lctx):
        enc = lctx.encoder
        rng = np.random.default_rng(3)
        stack = rng.normal(size=(2, 3, 40)) + 1j * rng.normal(size=(2, 3, 40))
        rows = enc.encode_rows(stack, level=4, scale=2.0**50)
        assert rows.shape == (2, 3, 4, lctx.params.degree)
        for idx in np.ndindex(2, 3):
            alone = enc.encode(stack[idx], level=4, scale=2.0**50).poly.data
            assert rows[idx].tobytes() == alone.tobytes()


class TestConjugation:
    def test_conjugate_slots(self, lctx):
        n = lctx.params.slots
        rng = np.random.default_rng(7)
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        ck = lctx.keygen.gen_conjugation(lctx.secret_key, levels=[6])
        out = lctx.evaluator.conjugate(lctx.encrypt(z), ck)
        assert np.max(np.abs(lctx.decrypt_decode(out) - np.conj(z))) < 1e-6

    def test_involution(self, lctx):
        n = lctx.params.slots
        z = np.linspace(0, 1, n) + 1j * np.linspace(1, 0, n)
        ck = lctx.keygen.gen_conjugation(lctx.secret_key, levels=[6])
        twice = lctx.evaluator.conjugate(
            lctx.evaluator.conjugate(lctx.encrypt(z), ck), ck
        )
        assert np.max(np.abs(lctx.decrypt_decode(twice) - z)) < 1e-5

    def test_missing_key(self, lctx):
        with pytest.raises(KeyError, match="no conjugation key"):
            lctx.evaluator.conjugate(lctx.encrypt(np.ones(2)), {})

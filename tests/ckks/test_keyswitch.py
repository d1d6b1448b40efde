"""The batched, hoisting-aware key-switch engine.

Pins the tentpole invariants: the tensorized pipeline gives the bytes of
the exact gadget sum ``Σ_j [x]_{q_j} · key_j`` of ``tests/oracle.py``
(which shares nothing with the engine but data), hoisted rotations are
bit-identical to non-hoisted ones, EVAL-domain automorphisms match the
oracle's coefficient-domain automorphism, fused multi-prime rescale
matches sequential rescaling — and the dispatch-count guarantees (one
forward BatchNtt per decomposition, zero NTT round trips per
automorphism) hold structurally, not just by timing.
"""

from __future__ import annotations

import threading
from contextlib import ExitStack
from math import prod
from unittest import mock

import numpy as np
import pytest

from repro.ckks import CkksContext, toy_params
from repro.ckks.containers import Ciphertext
from repro.ckks.evaluator import galois_rows
from repro.ckks.keys import rotation_galois_elt
from repro.nums import kernels
from repro.rns.poly import EVAL, RnsPolynomial
from repro.transforms.ntt import BatchNtt, NttContext, galois_permutation
from tests import BARRETT, oracle

DEGREE = 256
NUM_PRIMES = 6


@pytest.fixture(scope="module")
def kctx() -> CkksContext:
    return CkksContext.create(toy_params(degree=DEGREE, num_primes=NUM_PRIMES), seed=31)


@pytest.fixture(scope="module")
def msg(kctx):
    rng = np.random.default_rng(5)
    return rng.uniform(-1, 1, kctx.params.slots) + 1j * rng.uniform(
        -1, 1, kctx.params.slots
    )


def oracle_switch(kctx, poly, key) -> list[np.ndarray]:
    """The oracle's key switch of an evaluation-domain ``poly`` through
    the ``[:L, :L]`` prefix of ``key``: ``Σ_j [x]_{q_j} · b_j`` and
    ``Σ_j [x]_{q_j} · a_j`` over ``Q``, as evaluation rows."""
    lvl = poly.level
    moduli = kctx.basis.moduli[:lvl]
    psis = [NttContext.cached(DEGREE, q).psi for q in moduli]
    digits = [oracle.intt(row, q, psi) for row, q, psi in zip(poly.data, moduli, psis)]
    outs = []
    for part in (key.b, key.a):
        keys = [oracle.from_eval(part[j, :lvl], moduli, psis) for j in range(lvl)]
        ks = oracle.gadget_sum(digits, keys, prod(moduli))
        outs.append(oracle.to_eval(ks, moduli, psis))
    return outs


class TestBatchedSwitch:
    @BARRETT
    def test_bit_identical_to_digit_loop(self, kctx, msg):
        """engine.switch == the oracle's digit-by-digit gadget sum, bit
        for bit."""
        rlk = kctx.relin_keys(levels=[NUM_PRIMES])
        key = rlk[NUM_PRIMES]
        poly = kctx.encrypt(msg).parts[1]
        engine = kctx.evaluator.keyswitch
        fast0, fast1 = engine.switch(poly, key)
        ref0, ref1 = oracle_switch(kctx, poly, key)
        assert np.array_equal(fast0.data, ref0)
        assert np.array_equal(fast1.data, ref1)

    def test_relinearize_uses_batched_path(self, kctx, msg):
        """End-to-end multiply/relinearize still decrypts correctly."""
        rlk = kctx.relin_keys(levels=[NUM_PRIMES])
        ct = kctx.encrypt(msg)
        out = kctx.evaluator.multiply_relin_rescale(ct, ct, rlk)
        assert np.max(np.abs(kctx.decrypt_decode(out) - msg * msg)) < 1e-4

    def test_level_mismatch_rejected(self, kctx, msg):
        """A key below the operand's level cannot reach it."""
        low = NUM_PRIMES - 1
        key = kctx.relin_keys(levels=[low])[low]
        poly = kctx.encrypt(msg).parts[1]
        engine = kctx.evaluator.keyswitch
        want = f"switching key at level {low} cannot reach poly level {NUM_PRIMES}"
        with pytest.raises(ValueError, match=want):
            engine.switch(poly, key)

    @pytest.mark.parametrize("path", ["apply", "switch"])
    def test_key_above_the_operand_level_is_accepted(self, kctx, msg, path):
        """A key reaches every level at or below its own."""
        key = kctx.relin_keys(levels=[NUM_PRIMES])[NUM_PRIMES]
        poly = kctx.encrypt(msg, level=NUM_PRIMES - 1).parts[1]
        engine = kctx.evaluator.keyswitch
        if path == "apply":
            out0, out1 = engine.apply(engine.decompose(poly), key)
        else:
            out0, out1 = engine.switch(poly, key)
        assert out0.level == out1.level == NUM_PRIMES - 1

    @BARRETT
    @pytest.mark.parametrize("level", range(1, NUM_PRIMES))
    def test_prefix_switch_matches_digit_loop(self, kctx, msg, level):
        """One top-level key, every level below it (the top level is
        ``test_bit_identical_to_digit_loop``): the contraction over its
        ``[:level, :level]`` prefix equals the oracle's gadget sum over
        that prefix."""
        key = kctx.relin_keys(levels=[NUM_PRIMES])[NUM_PRIMES]
        poly = kctx.encrypt(msg, level=level).parts[1]
        engine = kctx.evaluator.keyswitch
        fast0, fast1 = engine.switch(poly, key)
        ref0, ref1 = oracle_switch(kctx, poly, key)
        assert np.array_equal(fast0.data, ref0)
        assert np.array_equal(fast1.data, ref1)

    def test_single_forward_dispatch_over_stacked_digits(self, kctx, msg, monkeypatch):
        """decompose issues exactly one forward dispatch over the digits:
        at (N = 256, L = 6) one source's 5 off-diagonal digits per limb
        make one six-limb ``(N, 30)`` column block (``K = 16``), and no
        row-layout forward runs."""
        poly = kctx.encrypt(msg).parts[1]
        calls: list = []
        forward, columns = BatchNtt.forward, BatchNtt.forward_columns

        def counting_forward(self, mat, out=None):
            calls.append(("forward", np.shape(mat)))
            return forward(self, mat, out)

        def counting_columns(self, block, limbs):
            calls.append(("columns", block.shape, (limbs.start, limbs.stop)))
            return columns(self, block, limbs)

        monkeypatch.setattr(BatchNtt, "forward", counting_forward)
        monkeypatch.setattr(BatchNtt, "forward_columns", counting_columns)
        kctx.evaluator.keyswitch.decompose(poly)
        width = NUM_PRIMES * (NUM_PRIMES - 1)
        assert calls == [("columns", (DEGREE, width), (0, NUM_PRIMES))]


@pytest.mark.lanes
class TestDecompositionLayouts:
    """``decompose_rows`` of ``S`` stacked sources cuts the limbs into
    the blocks ``row_blocks(L, N·S·(L-1)·8)`` and takes the column layout
    once the smallest block's columns, ``r·S·(L-1)`` for ``r`` limbs,
    reach ``K`` (the transform's ``column_rows``), and gives the
    per-source decompositions' bytes either way.  At N = 128 (``K =
    16``) every limb fits one block: one source at L = 4 is 12 columns,
    the row layout; at L = 6 it is 30, one six-limb column block; eight
    sources at L = 2 are exactly ``K``.  ``BLOCK_BYTES`` shrunk to
    ``per`` limbs' columns gives the one-limb blocks of the paper's shape
    (and of ``eval_bsgs``'s giant family) and uneven cuts, whose last
    block decides."""

    @pytest.fixture(scope="class")
    def small(self):
        return CkksContext.create(toy_params(degree=128, num_primes=6), seed=7)

    @pytest.mark.parametrize(
        "lead, lvl, per, blocks",
        [
            pytest.param((), 4, None, None, id="one-L4-rows"),
            pytest.param((2,), 3, None, None, id="two-L3-rows"),
            pytest.param((8,), 2, None, [(0, 2)], id="eight-L2-block-at-K"),
            pytest.param((), 6, None, [(0, 6)], id="one-L6-block"),
            pytest.param((2, 2), 6, None, [(0, 6)], id="2x2-L6-block"),
            pytest.param((3,), 5, 1, None, id="three-L5-limbs-rows"),
            pytest.param(
                (4,), 5, 1, [(i, i + 1) for i in range(5)], id="four-L5-limb-blocks"
            ),
            pytest.param((2,), 5, 2, None, id="two-L5-uneven-rows"),
            pytest.param(
                (4,), 5, 2, [(0, 2), (2, 4), (4, 5)], id="four-L5-uneven-blocks"
            ),
        ],
    )
    @pytest.mark.parametrize("cpu", [None, 1, 2], ids=["own", "cpu1", "cpu2"])
    def test_stack_matches_per_source(self, small, lead, lvl, per, blocks, cpu):
        engine = small.evaluator.keyswitch
        n = small.params.degree
        bat = small.basis.batch_ntt(lvl)
        width = int(np.prod(lead)) * (lvl - 1)
        assert bat.column_rows == 16
        q_col = np.array(small.basis.moduli[:lvl], dtype=np.uint64).reshape(-1, 1)
        rng = np.random.default_rng(len(lead) * 10 + int(np.prod(lead)))
        rows = rng.integers(0, 1 << 62, (*lead, lvl, n), dtype=np.uint64) % q_col
        rows[..., 0, :2] = q_col[0] - np.uint64(1)
        flat = rows.reshape(-1, lvl, n)
        want = np.stack([engine.decompose_rows(r) for r in flat])
        transformed = []
        real_columns = BatchNtt.forward_columns

        def spy(self, block, limbs):
            transformed.append((limbs.start, limbs.stop, threading.get_ident()))
            assert block.shape == (n, (limbs.stop - limbs.start) * width)
            return real_columns(self, block, limbs)

        with ExitStack() as patches:
            patches.enter_context(mock.patch.object(BatchNtt, "forward_columns", spy))
            if per is not None:
                patches.enter_context(
                    mock.patch.object(BatchNtt, "BLOCK_BYTES", per * n * width * 8)
                )
            if cpu is not None:
                patches.enter_context(
                    mock.patch.object(kernels, "_cpu_count", return_value=cpu)
                )
            lanes = kernels._cpu_count()
            got = engine.decompose_rows(rows)
        assert got.shape == (*lead, lvl, lvl, n) and got.dtype == np.uint64
        assert np.array_equal(got.reshape(want.shape), want)
        assert sorted(t[:2] for t in transformed) == (blocks or [])
        threads = {t[2] for t in transformed}
        assert len(threads) == (min(lanes, len(blocks)) if blocks else 0)
        for i in range(lvl):  # forward_i(inverse_i(x_i)) is x_i
            assert np.array_equal(got[..., i, i, :], rows[..., i, :])


class TestContraction:
    """The one row-loop contraction eager ``apply`` and fused replay share."""

    @BARRETT
    @pytest.mark.parametrize("galois_elt", [None, 5, 2 * DEGREE - 1])
    def test_matches_whole_tensor_accumulate(self, kctx, msg, galois_elt):
        key = kctx.relin_keys(levels=[NUM_PRIMES])[NUM_PRIMES]
        poly = kctx.encrypt(msg).parts[1]
        perm = None if galois_elt is None else galois_permutation(DEGREE, galois_elt)
        engine = kctx.evaluator.keyswitch
        tensor = engine.decompose(poly).tensor
        out1 = np.empty((NUM_PRIMES, DEGREE), dtype=np.uint64)
        got0, got1 = engine.contract(tensor, key, perm=perm, out1=out1)
        kern = kctx.basis.kernel(NUM_PRIMES)
        moved = tensor if perm is None else tensor[:, :, perm]
        want0, want1 = (kern.mul_accumulate(moved, k) for k in (key.b, key.a))
        assert got1 is out1
        assert np.array_equal(got0, want0)
        assert np.array_equal(got1, want1)

    @pytest.mark.parametrize("galois_elt", [5, 2 * DEGREE - 1])
    def test_gathered_rows_are_the_pre_permuted_tensors(
        self, kctx, msg, galois_elt, monkeypatch
    ):
        """Folding ``perm`` into the row gather gives the bytes of
        contracting a tensor permuted beforehand, and every block of rows
        the MAC walks is C-ordered, as the key's rows are — here one
        block of every digit, a few digits' rows fitting one transform
        block."""
        from repro.nums.kernels import ReducerKernel

        key = kctx.galois_keys([1], levels=[NUM_PRIMES])[(1, NUM_PRIMES)]
        perm = galois_permutation(DEGREE, galois_elt)
        engine = kctx.evaluator.keyswitch
        tensor = engine.decompose(kctx.encrypt(msg).parts[1]).tensor
        moved = np.ascontiguousarray(tensor[:, :, perm])
        want = engine.contract(moved, key)
        seen = []
        real = ReducerKernel.mul_accumulate_rows

        def recording(kern, blocks, *args, **kwargs):
            blocks = list(blocks)
            seen.extend((len(block), block.flags.c_contiguous) for block in blocks)
            return real(kern, iter(blocks), *args, **kwargs)

        monkeypatch.setattr(ReducerKernel, "mul_accumulate_rows", recording)
        got = engine.contract(tensor, key, perm=perm)
        assert seen == [(NUM_PRIMES, True)]
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.lanes
    @pytest.mark.parametrize("perm", [None, 5], ids=["plain", "galois"])
    def test_digit_blocks_follow_the_transform_block_size(
        self, kctx, msg, perm, monkeypatch
    ):
        """The digits go to the kernel in the fewest blocks within
        ``BatchNtt.BLOCK_BYTES`` — shrunk here so four digits' rows fit,
        which cuts the six digits 3 + 3, not 4 + 2 — with the key's
        matching digits as views: the bytes of one block of every digit."""
        from repro.nums.kernels import ReducerKernel
        from repro.transforms.ntt import BatchNtt

        key = kctx.galois_keys([1], levels=[NUM_PRIMES])[(1, NUM_PRIMES)]
        if perm is not None:
            perm = galois_permutation(DEGREE, perm)
        engine = kctx.evaluator.keyswitch
        tensor = engine.decompose(kctx.encrypt(msg).parts[1]).tensor
        want = engine.contract(tensor, key, perm=perm)
        sizes = []
        real = ReducerKernel.mul_accumulate_rows

        def recording(kern, blocks, consts, *args, **kwargs):
            blocks = list(blocks)
            sizes.append([len(block) for block in blocks])
            for part, cs in zip((key.b, key.a), consts):
                assert [len(c) for c in cs] == sizes[-1]
                assert all(np.shares_memory(c, part) for c in cs)
            return real(kern, blocks, consts, *args, **kwargs)

        monkeypatch.setattr(ReducerKernel, "mul_accumulate_rows", recording)
        row = tensor[0].nbytes
        monkeypatch.setattr(BatchNtt, "BLOCK_BYTES", 4 * row + row // 2)
        got = engine.contract(tensor, key, perm=perm)
        assert NUM_PRIMES == 6 and sizes == [[3, 3]]
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    def test_every_backend_contracts_the_same_key_arrays(self, kctx, msg, monkeypatch):
        """No copy of a key: the kernel is handed views of the key's own
        tensors, at the top level and below."""
        from repro.nums.kernels import ReducerKernel

        key = kctx.relin_keys(levels=[NUM_PRIMES])[NUM_PRIMES]
        poly = kctx.encrypt(msg).parts[1]
        seen = []
        original = ReducerKernel.mul_accumulate_rows

        def spy(kern, blocks, consts, *args):
            seen.append(consts)
            return original(kern, blocks, consts, *args)

        monkeypatch.setattr(ReducerKernel, "mul_accumulate_rows", spy)
        low = kctx.evaluator.rescale(kctx.encrypt(msg)).parts[1]
        engine = kctx.evaluator.keyswitch
        engine.apply(engine.decompose(poly), key)
        engine.apply(engine.decompose(low), key)
        assert len(seen) == 2
        for bs, as_ in seen:
            assert all(np.shares_memory(b, key.b) for b in bs)
            assert all(np.shares_memory(a, key.a) for a in as_)

    def test_key_holds_its_residues_once(self, kctx):
        """A key is born stacked: two read-only ``(L, L, N)`` tensors, and
        ``pairs`` are row views of them."""
        key = kctx.keygen.gen_switching_key(
            kctx.secret_key, kctx.secret_key.poly, NUM_PRIMES, b"views"
        )
        assert key.b.shape == key.a.shape == (NUM_PRIMES, NUM_PRIMES, DEGREE)
        assert not key.b.flags.writeable and not key.a.flags.writeable
        assert len(key.pairs) == NUM_PRIMES
        for j, (b_j, a_j) in enumerate(key.pairs):
            assert np.shares_memory(b_j.data, key.b) and np.shares_memory(a_j.data, key.a)
            assert np.array_equal(b_j.data, key.b[j]) and np.array_equal(a_j.data, key.a[j])
            assert b_j.domain == a_j.domain == "eval"


class TestPrefixKeyPrecision:
    """At N=2^10, L=10 a level-``ℓ`` relinearization through the top key's
    prefix is as precise as one through a key made at ``ℓ``."""

    @pytest.fixture(scope="class")
    def wide(self):
        ctx = CkksContext.create(toy_params(degree=1 << 10, num_primes=10), seed=3)
        return ctx, ctx.relin_keys(levels=[10])[10]

    @pytest.mark.parametrize("level", [10, 8, 2])
    def test_square_through_the_top_key(self, wide, level):
        ctx, top_key = wide
        ev = ctx.evaluator
        # Level 2 can drop only one prime: square at a one-prime scale there.
        times = min(ctx.params.levels_per_multiplication, level - 1)
        msg = np.random.default_rng(level).uniform(-0.5, 0.5, ctx.params.slots)
        scale = 2.0 ** (ctx.params.prime_bits * times)
        ct = ctx.encryptor.encrypt(ctx.encoder.encode(msg, level=level, scale=scale))
        square = ev.multiply(ct, ct)
        bits = []
        for key in (top_key, ctx.relin_keys(levels=[level])[level]):
            out = ev.rescale(ev.relinearize(square, {level: key}), times)
            bits.append(-np.log2(np.max(np.abs(ctx.decrypt_decode(out) - msg**2))))
        assert min(bits) > 15
        assert abs(bits[0] - bits[1]) <= 0.5, bits


def _hoisted_rotate(kctx, ct, steps, gks, dec):
    """Rotate through :func:`galois_rows` given part 1's decomposition
    ``dec``, as a fused rotation family hands each member its slice."""
    elt = rotation_galois_elt(steps, kctx.params.slots, 2 * DEGREE)
    outs = [np.empty_like(p.data) for p in ct.parts]
    galois_rows(
        kctx.basis.kernel(ct.level), kctx.evaluator.keyswitch,
        [p.data for p in ct.parts], gks[(steps, ct.level)],
        galois_permutation(DEGREE, elt), outs, dec,
    )
    return Ciphertext([RnsPolynomial(kctx.basis, o, EVAL) for o in outs], ct.scale)


class TestHoistedRotations:
    @BARRETT
    def test_hoisted_bit_identical_to_unhoisted(self, kctx, msg):
        gks = kctx.galois_keys([3], levels=[NUM_PRIMES])
        ct = kctx.encrypt(msg)
        plain = kctx.evaluator.rotate(ct, 3, gks)
        dec = kctx.evaluator.keyswitch.decompose_rows(ct.parts[1].data)
        hoisted = _hoisted_rotate(kctx, ct, 3, gks, dec)
        for p, h in zip(plain.parts, hoisted.parts):
            assert np.array_equal(p.data, h.data)

    def test_decompose_once_apply_many(self, kctx, msg):
        """One decomposition feeds many rotations and still decrypts right."""
        steps = [1, 2, 5]
        gks = kctx.galois_keys(steps, levels=[NUM_PRIMES])
        ct = kctx.encrypt(msg)
        dec = kctx.evaluator.keyswitch.decompose_rows(ct.parts[1].data)
        for s in steps:
            out = kctx.decrypt_decode(_hoisted_rotate(kctx, ct, s, gks, dec))
            assert np.max(np.abs(out - np.roll(msg, -s))) < 1e-4

    def test_hoisted_rotation_is_transform_free(self, kctx, msg, monkeypatch):
        """With a hoisted decomposition, a rotation runs zero NTT dispatches."""
        gks = kctx.galois_keys([2], levels=[NUM_PRIMES])
        ct = kctx.encrypt(msg)
        dec = kctx.evaluator.keyswitch.decompose_rows(ct.parts[1].data)
        galois_permutation(DEGREE, pow(5, 2, 2 * DEGREE))  # pre-warm table

        counts = {"forward": 0, "inverse": 0}
        fwd, inv = BatchNtt.forward, BatchNtt.inverse
        monkeypatch.setattr(
            BatchNtt,
            "forward",
            lambda self, m: counts.__setitem__("forward", counts["forward"] + 1)
            or fwd(self, m),
        )
        monkeypatch.setattr(
            BatchNtt,
            "inverse",
            lambda self, m: counts.__setitem__("inverse", counts["inverse"] + 1)
            or inv(self, m),
        )
        _hoisted_rotate(kctx, ct, 2, gks, dec)
        assert counts == {"forward": 0, "inverse": 0}

    def test_matches_seed_rotation_semantically(self, kctx, msg):
        """Engine rotation decrypts identically to switching the permuted
        ciphertext.

        Decomposing the *permuted* polynomial is the textbook rotation;
        ``galois_rows`` gathers already-decomposed digits through the slot
        permutation (the hoisting prerequisite).  The two carry different
        — equally valid — digit representatives, so the ciphertexts are
        not byte-equal, but they encrypt the same message with the same
        noise bound.
        """
        gks = kctx.galois_keys([4], levels=[NUM_PRIMES])
        ct = kctx.encrypt(msg)
        ev = kctx.evaluator
        elt = rotation_galois_elt(4, kctx.params.slots, 2 * DEGREE)
        c0r = ct.parts[0].automorphism(elt)
        c1r = ct.parts[1].automorphism(elt)
        ks0, ks1 = ev.keyswitch.switch(c1r, gks[(4, NUM_PRIMES)])
        seed = Ciphertext(parts=[c0r + ks0, ks1], scale=ct.scale)
        engine = ev.rotate(ct, 4, gks)
        diff = kctx.decrypt_decode(seed) - kctx.decrypt_decode(engine)
        assert np.max(np.abs(diff)) < 1e-5
        assert np.max(np.abs(kctx.decrypt_decode(engine) - np.roll(msg, -4))) < 1e-4

    def test_conjugate_roundtrip(self, kctx, msg):
        cks = kctx.keygen.gen_conjugation(kctx.secret_key, levels=[NUM_PRIMES])
        out = kctx.decrypt_decode(kctx.evaluator.conjugate(kctx.encrypt(msg), cks))
        assert np.max(np.abs(out - np.conj(msg))) < 1e-4


class TestEvalDomainAutomorphism:
    @BARRETT
    def test_matches_coeff_domain_path(self, kctx, msg):
        """The slot gather is the oracle's X -> X^k on coefficients."""
        poly = kctx.encrypt(msg).parts[0]  # EVAL domain
        moduli = kctx.basis.moduli[: poly.level]
        psis = [NttContext.cached(DEGREE, q).psi for q in moduli]
        coeffs = oracle.from_eval(poly.data, moduli, psis)
        for k in (3, 5, 2 * DEGREE - 1):
            moved = oracle.automorphism(coeffs, k, prod(moduli))
            want = oracle.to_eval(moved, moduli, psis)
            assert poly.automorphism(k).data.tobytes() == want.tobytes()

    def test_gather_keeps_rows_c_ordered(self, kctx, msg):
        poly = kctx.encrypt(msg).parts[0]  # EVAL domain
        for k in (5, 2 * DEGREE - 1):
            assert poly.automorphism(k).data.flags.c_contiguous

    def test_permutation_is_sign_free_bijection(self):
        for k in (3, 5, 2 * DEGREE - 1):
            src = galois_permutation(DEGREE, k)
            assert sorted(src.tolist()) == list(range(DEGREE))

    def test_even_element_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            galois_permutation(DEGREE, 4)


class TestFusedRescale:
    @BARRETT
    def test_fused_matches_sequential(self, kctx, msg):
        ct = kctx.encrypt(msg)
        fused = kctx.evaluator.rescale(ct, times=2)
        seq = kctx.evaluator.rescale(kctx.evaluator.rescale(ct), times=1)
        assert fused.scale == seq.scale
        for f, s in zip(fused.parts, seq.parts):
            assert np.array_equal(f.data, s.data)

    def test_times_zero_is_noop(self, kctx, msg):
        ct = kctx.encrypt(msg)
        out = kctx.evaluator.rescale(ct, times=0)
        assert out.scale == ct.scale
        for o, p in zip(out.parts, ct.parts):
            assert np.array_equal(o.data, p.data)

    def test_single_round_trip(self, kctx, msg, monkeypatch):
        """rescale(times=2) is one round trip for all parts and both
        primes: one inverse of the stacked dropped rows, one forward of
        the stacked remainder, and no whole-level inverse."""
        ct = kctx.encrypt(msg)
        counts = {"forward": 0, "inverse": 0, "inverse_block": 0}
        for name in counts:
            real = getattr(BatchNtt, name)

            def counting(self, *args, _name=name, _real=real, **kwargs):
                counts[_name] += 1
                return _real(self, *args, **kwargs)

            monkeypatch.setattr(BatchNtt, name, counting)
        kctx.evaluator.rescale(ct, times=2)
        assert counts == {"forward": 1, "inverse": 0, "inverse_block": 1}

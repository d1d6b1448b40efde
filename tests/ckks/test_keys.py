"""Key generation: public-key identity, seed sharing, switching keys."""

from __future__ import annotations

from math import prod

import numpy as np
import pytest

from repro.ckks import CkksContext, toy_params
from repro.ckks.keys import expand_uniform_poly
from repro.prng.samplers import DiscreteGaussianSampler
from repro.prng.xof import Xof
from repro.rns.poly import RnsPolynomial


class TestSecretKey:
    def test_ternary_support(self, ctx):
        sk_coeffs = ctx.secret_key.poly.to_coeff().to_bigints()
        assert set(sk_coeffs) <= {-1, 0, 1}

    def test_at_level_prefix(self, ctx):
        s2 = ctx.secret_key.at_level(2)
        assert s2.level == 2
        assert np.array_equal(s2.data, ctx.secret_key.poly.data[:2])

    def test_at_level_is_a_read_only_view(self, ctx):
        full = ctx.secret_key.poly.data
        s2 = ctx.secret_key.at_level(2)
        assert np.shares_memory(s2.data, full)
        assert not s2.data.flags.writeable and full.flags.writeable
        with pytest.raises(ValueError, match="level"):
            ctx.secret_key.at_level(full.shape[0] + 1)

    def test_sparse_secret(self):
        from dataclasses import replace

        params = replace(toy_params(degree=256, num_primes=3), secret_hamming_weight=32)
        c = CkksContext.create(params, seed=11)
        coeffs = c.secret_key.poly.to_coeff().to_bigints()
        assert sum(1 for x in coeffs if x != 0) == 32


class TestPublicKey:
    def test_pk_identity(self, ctx):
        """b + a*s must equal the (small) error polynomial."""
        pk, sk = ctx.public_key, ctx.secret_key
        residual = (pk.b + pk.a * sk.poly).to_coeff().to_bigints()
        bound = 6 * ctx.params.error_stddev + 1
        assert all(abs(x) <= bound for x in residual)

    def test_a_is_seed_expanded(self, ctx):
        """The stored ``a`` must be reproducible from its 16-byte seed."""
        again = expand_uniform_poly(
            ctx.basis, ctx.basis.num_primes, Xof(ctx.public_key.a_seed), b"pk-a"
        )
        assert np.array_equal(again.data, ctx.public_key.a.data)

    def test_different_seeds_different_keys(self):
        p = toy_params(degree=64, num_primes=2)
        a = CkksContext.create(p, seed=1).public_key
        b = CkksContext.create(p, seed=2).public_key
        assert not np.array_equal(a.b.data, b.b.data)

    def test_keygen_deterministic(self):
        p = toy_params(degree=64, num_primes=2)
        a = CkksContext.create(p, seed=5).public_key
        b = CkksContext.create(p, seed=5).public_key
        assert np.array_equal(a.b.data, b.b.data)
        assert a.a_seed == b.a_seed


class TestSwitchingKeys:
    def test_relin_key_identity(self, ctx):
        """Each relin pair must satisfy b_j + a_j*s = e_j + idem_j * s^2."""
        level = 3
        rlk = ctx.keygen.gen_relin(ctx.secret_key, [level])[level]
        sk = ctx.secret_key.at_level(level)
        s_sq = sk * sk
        bound = 6 * ctx.params.error_stddev + 1
        for j, (b_j, a_j) in enumerate(rlk.pairs):
            gadget = _idempotent_times(s_sq, j)
            residual = (b_j + a_j * sk - gadget).to_coeff().to_bigints()
            assert all(abs(x) <= bound for x in residual), j

    def test_relin_key_levels(self, ctx):
        """One key, at the top requested level, listed under every level."""
        keys = ctx.relin_keys(levels=[2, 4])
        assert set(keys) == {2, 4}
        assert keys[2] is keys[4]
        assert keys[4].level == 4
        assert len(keys[4].pairs) == 4

    def test_one_key_per_automorphism(self, ctx):
        gk = ctx.galois_keys([1, 2], levels=[3, 5])
        assert gk[(1, 3)] is gk[(1, 5)] and gk[(2, 3)] is gk[(2, 5)]
        assert gk[(1, 5)] is not gk[(2, 5)]
        assert {key.level for key in gk.values()} == {5}
        conj = ctx.keygen.gen_conjugation(ctx.secret_key, levels=[2, 3])
        assert conj[2] is conj[3] and conj[3].level == 3

    def test_top_level_key_is_the_single_level_key(self, ctx):
        """The tag names the top level, so a multi-level request makes
        the very key a single-level request at that level does."""
        both = ctx.galois_keys([1], levels=[2, 4])[(1, 2)]
        alone = ctx.galois_keys([1], levels=[4])[(1, 4)]
        assert np.array_equal(both.b, alone.b) and np.array_equal(both.a, alone.a)

    @pytest.mark.parametrize("gen", ["relin", "conjugation", "galois"])
    def test_empty_levels_rejected(self, ctx, gen):
        make = {
            "relin": lambda: ctx.relin_keys(levels=[]),
            "conjugation": lambda: ctx.keygen.gen_conjugation(ctx.secret_key, []),
            "galois": lambda: ctx.galois_keys([1], levels=[]),
        }[gen]
        with pytest.raises(ValueError, match="levels"):
            make()

    def test_galois_key_shape(self, ctx):
        gk = ctx.galois_keys([1, 2], levels=[3])
        assert set(gk) == {(1, 3), (2, 3)}
        assert len(gk[(1, 3)].pairs) == 3


def _idempotent_times(poly, j):
    """``idem_j * poly`` for the CRT idempotent ``idem_j = (Q/q_j) ·
    ((Q/q_j)^-1 mod q_j)`` of limb ``j`` over ``poly``'s ``Q``, a big
    integer reduced per limb, in exact Python ints."""
    moduli = poly.moduli()
    q_hat = prod(moduli) // moduli[j]
    idem = q_hat * pow(q_hat, -1, moduli[j])
    idem_col = np.array([[idem % q] for q in moduli], dtype=object)
    q_col = np.array([[q] for q in moduli], dtype=object)
    rows = (poly.data.astype(object) * idem_col % q_col).astype(np.uint64)
    return RnsPolynomial(poly.basis, rows, poly.domain)


def _composed_digit_by_digit(ctx, source, level, tag):
    """A switching key as the per-digit composition writes it:
    ``b_j = -(a_j * s) + e_j + idem_j * source`` with the big-integer CRT
    idempotent, each digit's ``a_j`` and ``e_j`` from their own streams."""
    basis, xof = ctx.basis, ctx.keygen.xof
    gauss = DiscreteGaussianSampler(ctx.params.error_stddev)
    s = ctx.secret_key.at_level(level)
    src = source.drop_limbs(level)
    b, a = [], []
    for j in range(level):
        a_j = expand_uniform_poly(basis, level, xof.derive(tag + b"|a%d" % j), tag)
        errors = gauss.sample_signed(xof, tag + b"|e%d" % j, basis.degree)
        e_j = RnsPolynomial.from_signed_coeffs(basis, level, errors).to_eval()
        b_j = -(a_j * s) + e_j + _idempotent_times(src, j)
        b.append(b_j.data)
        a.append(a_j.data)
    return np.stack(b), np.stack(a)


@pytest.mark.lanes
class TestKeyStacks:
    """A switching key is built as two ``(L, L, N)`` tensors: errors
    embedded into ``b``, one in-place forward over all of it, and
    whole-tensor products.  Its bytes are the per-digit composition's;
    with one limb (and one digit) a block the transform runs in lanes
    under a patched CPU count, and on the caller's thread under the
    process's own (one CPU under ``taskset -c 0``)."""

    @pytest.mark.parametrize("cpu", [None, 1, 3], ids=["own", "cpu1", "cpu3"])
    @pytest.mark.parametrize("kind", ["relin", "galois", "conjugation"])
    @pytest.mark.parametrize("level", [3, 6])
    def test_key_stacks_equal_the_digit_by_digit_composition(
        self, ctx, kind, level, cpu
    ):
        import threading
        from contextlib import ExitStack
        from unittest import mock

        from repro.ckks.keys import rotation_galois_elt
        from repro.nums import kernels
        from repro.transforms.ntt import BatchNtt

        sk = ctx.secret_key.poly
        degree = ctx.params.degree
        source = {
            "relin": lambda: sk * sk,
            "galois": lambda: sk.automorphism(
                rotation_galois_elt(3, ctx.params.slots, 2 * degree)
            ),
            "conjugation": lambda: sk.automorphism(2 * degree - 1),
        }[kind]()
        tag = b"stack-test-" + kind.encode()
        before = threading.active_count()
        with ExitStack() as patches:
            patches.enter_context(mock.patch.object(BatchNtt, "BLOCK_BYTES", 1))
            if cpu is not None:
                patches.enter_context(
                    mock.patch.object(kernels, "_cpu_count", return_value=cpu)
                )
            key = ctx.keygen.gen_switching_key(ctx.secret_key, source, level, tag)
        assert threading.active_count() == before
        want_b, want_a = _composed_digit_by_digit(ctx, source, level, tag)
        assert key.b.shape == key.a.shape == (level, level, degree)
        assert key.a.tobytes() == want_a.tobytes()
        assert key.b.tobytes() == want_b.tobytes()

    @pytest.mark.parametrize("cpu", [None, 1, 3], ids=["own", "cpu1", "cpu3"])
    def test_galois_stacks_equal_keys_built_one_at_a_time(self, ctx, cpu):
        """``gen_galois`` builds its keys in stacks — here of two, the
        last stack one key, each stack's transform cut into one-limb
        blocks that run in lanes, on the caller's thread alone under one
        CPU: every key's
        bytes are those of building it alone, and each key is a view of
        its stack's tensor, which it shares with its stack-mate only."""
        import threading
        from contextlib import ExitStack
        from unittest import mock

        from repro.ckks.keys import rotation_galois_elt
        from repro.nums import kernels
        from repro.transforms.ntt import BatchNtt

        top, degree = ctx.params.num_primes, ctx.params.degree
        rotations = [1, 2, 3, 5, 6]
        started = []
        real_thread = threading.Thread

        def counting(*args, **kwargs):
            started.append(1)
            return real_thread(*args, **kwargs)

        before = threading.active_count()
        with ExitStack() as patches:
            patches.enter_context(mock.patch.object(threading, "Thread", counting))
            # Two keys' limb rows a block: stacks of two, one limb a block.
            patches.enter_context(
                mock.patch.object(BatchNtt, "BLOCK_BYTES", 2 * top * degree * 8)
            )
            if cpu is not None:
                patches.enter_context(
                    mock.patch.object(kernels, "_cpu_count", return_value=cpu)
                )
            lanes = kernels._cpu_count()
            keys = ctx.galois_keys(rotations, levels=[top])
        assert threading.active_count() == before
        assert bool(started) == (lanes > 1)
        sk = ctx.secret_key
        for r in rotations:
            source = sk.poly.automorphism(
                rotation_galois_elt(r, ctx.params.slots, 2 * degree)
            )
            tag = b"galois-r%d-l%d" % (r, top)
            alone = ctx.keygen.gen_switching_key(sk, source, top, tag)
            assert keys[(r, top)].b.tobytes() == alone.b.tobytes()
            assert keys[(r, top)].a.tobytes() == alone.a.tobytes()
        stacks = [rotations[lo : lo + 2] for lo in range(0, len(rotations), 2)]
        for mine in stacks:
            base = keys[(mine[0], top)].b.base
            assert base.shape == (len(mine), top, top, degree)
            for other in stacks:
                for t in other:
                    assert (keys[(t, top)].b.base is base) == (mine is other)

"""Encryption/decryption: correctness, randomness hygiene, seed sharing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ckks import CkksContext, toy_params
from tests import BARRETT


class TestRoundtrip:
    def test_basic(self, ctx, rng):
        msg = rng.normal(size=ctx.params.slots) + 1j * rng.normal(size=ctx.params.slots)
        out = ctx.decrypt_decode(ctx.encrypt(msg))
        assert np.max(np.abs(out - msg)) < 1e-6

    def test_at_reduced_level(self, ctx, rng):
        """The paper's decrypt-side scenario: a low-level ciphertext."""
        msg = rng.normal(size=4)
        ct = ctx.encrypt(msg, level=ctx.params.decrypt_level)
        assert ct.level == ctx.params.decrypt_level
        assert np.max(np.abs(ctx.decrypt_decode(ct)[:4] - msg)) < 1e-6

    def test_noise_is_small_but_nonzero(self, ctx):
        msg = np.ones(ctx.params.slots)
        out = ctx.decrypt_decode(ctx.encrypt(msg))
        err = np.max(np.abs(out - msg))
        assert 0 < err < 1e-6  # encryption adds bounded noise

    def test_level_above_plaintext_rejected(self, ctx):
        pt = ctx.encode([1.0], level=2)
        with pytest.raises(ValueError, match="above the plaintext"):
            ctx.encryptor.encrypt(pt, level=4)


class TestStreamedEncrypt:
    """The limb-streamed encryption equals the composed formula built
    from whole-polynomial ``RnsPolynomial`` ops on the same draws."""

    @staticmethod
    def composed(ctx, plaintext, level, counter):
        """``(v*b + (m + e0)^, v*a + e1^)`` the long way, same counter."""
        from repro.prng.samplers import TernarySampler
        from repro.rns.poly import COEFF, RnsPolynomial

        enc, basis, n = ctx.encryptor, ctx.basis, ctx.basis.degree

        def embed(signed):
            return RnsPolynomial.from_signed_coeffs(basis, level, signed)

        sampler = TernarySampler(basis.moduli[0])
        v = embed(sampler.sample_signed(enc.xof, b"enc-v", n, counter=counter))
        e0 = embed(enc._gauss.sample_signed(enc.xof, b"enc-e0", n, counter=counter))
        e1 = embed(enc._gauss.sample_signed(enc.xof, b"enc-e1", n, counter=counter))
        if plaintext.poly.domain == COEFF:
            noisy = (plaintext.poly + e0).to_eval()
        else:
            noisy = plaintext.poly + e0.to_eval()
        v = v.to_eval()
        return v * enc.public_key.b + noisy, v * enc.public_key.a + e1.to_eval()

    @BARRETT
    @pytest.mark.parametrize("case", ["coeff", "eval", "below-plaintext-level"])
    def test_equals_composed_formula(self, case, rng):
        from repro.ckks.containers import Plaintext

        ctx = CkksContext.create(toy_params(degree=128, num_primes=4), seed=11)
        msg = rng.normal(size=ctx.params.slots)
        plaintext = ctx.encode(msg)
        if case == "eval":
            poly = plaintext.poly.to_eval()
            plaintext = Plaintext(poly=poly, scale=plaintext.scale)
        level = plaintext.level - 1 if case == "below-plaintext-level" else None
        counter = ctx.encryptor._counter
        ct = ctx.encryptor.encrypt(plaintext, level=level)
        c0, c1 = self.composed(ctx, plaintext, ct.level, counter)
        assert ct.level == (plaintext.level if level is None else level)
        assert ct.scale == plaintext.scale
        assert np.array_equal(ct.c0.data, c0.data)
        assert np.array_equal(ct.c1.data, c1.data)

    def test_seeded_equals_composed_formula(self, ctx, rng):
        from repro.ckks.keys import expand_uniform_poly
        from repro.prng.xof import Xof
        from repro.rns.poly import RnsPolynomial

        plaintext = ctx.encode(rng.normal(size=ctx.params.slots))
        enc, level = ctx.encryptor, plaintext.level - 1
        counter = enc._counter
        ct, seed = enc.encrypt_symmetric_seeded(plaintext, ctx.secret_key, level=level)
        assert seed == enc.xof.stream(b"sym-c1-seed", 16, counter=counter)
        c1 = expand_uniform_poly(ctx.basis, level, Xof(seed), b"sym-c1")
        n = ctx.basis.degree
        draw = enc._gauss.sample_signed(enc.xof, b"sym-e", n, counter=counter)
        e = RnsPolynomial.from_signed_coeffs(ctx.basis, level, draw)
        c0 = -(c1 * ctx.secret_key.at_level(level)) + (plaintext.poly + e).to_eval()
        assert np.array_equal(ct.c0.data, c0.data)
        assert np.array_equal(ct.c1.data, c1.data)

    def test_consecutive_calls_use_consecutive_counters(self, ctx):
        pt = ctx.encode([1.0])
        enc = ctx.encryptor
        before = enc._counter
        first = enc.encrypt(pt)
        enc.encrypt_symmetric_seeded(pt, ctx.secret_key)
        third = enc.encrypt(pt)
        assert enc._counter == before + 3
        for ct, counter in ((first, before), (third, before + 2)):
            c0, c1 = self.composed(ctx, pt, pt.level, counter)
            assert np.array_equal(ct.c0.data, c0.data)
            assert np.array_equal(ct.c1.data, c1.data)

    def test_seeded_level_above_plaintext_rejected(self, ctx):
        pt = ctx.encode([1.0], level=2)
        with pytest.raises(ValueError, match="above the plaintext"):
            ctx.encryptor.encrypt_symmetric_seeded(pt, ctx.secret_key, level=4)


class TestRandomnessHygiene:
    def test_fresh_masks_per_encryption(self, ctx):
        """Two encryptions of the same message must differ (counter)."""
        pt = ctx.encode([1.0])
        c1 = ctx.encryptor.encrypt(pt)
        c2 = ctx.encryptor.encrypt(pt)
        assert not np.array_equal(c1.c0.data, c2.c0.data)
        assert not np.array_equal(c1.c1.data, c2.c1.data)

    def test_both_decrypt_correctly(self, ctx):
        pt = ctx.encode([2.5])
        for _ in range(3):
            ct = ctx.encryptor.encrypt(pt)
            assert abs(ctx.decrypt_decode(ct)[0] - 2.5) < 1e-6

    def test_wrong_key_garbage(self, rng):
        p = toy_params(degree=128, num_primes=3)
        alice = CkksContext.create(p, seed=1)
        eve = CkksContext.create(p, seed=2)
        msg = np.ones(4)
        ct = alice.encrypt(msg)
        leaked = eve.decryptor.decrypt(ct)
        # Decrypting with the wrong key yields enormous "noise".
        assert max(abs(x) for x in leaked.poly.to_bigints()) > alice.params.scale


class TestSymmetricSeeded:
    def test_roundtrip(self, ctx, rng):
        msg = rng.normal(size=4)
        pt = ctx.encode(msg)
        ct, seed = ctx.encryptor.encrypt_symmetric_seeded(pt, ctx.secret_key)
        assert len(seed) == 16
        assert np.max(np.abs(ctx.decrypt_decode(ct)[:4] - msg)) < 1e-6

    def test_c1_regenerable_from_seed(self, ctx):
        """Only c0 + the seed need transmitting — the bandwidth trick the
        streaming write-out exploits."""
        from repro.ckks.keys import expand_uniform_poly
        from repro.prng.xof import Xof

        pt = ctx.encode([1.0])
        ct, seed = ctx.encryptor.encrypt_symmetric_seeded(pt, ctx.secret_key)
        c1_again = expand_uniform_poly(ctx.basis, ct.level, Xof(seed), b"sym-c1")
        assert np.array_equal(c1_again.data, ct.c1.data)

    def test_distinct_seeds_per_call(self, ctx):
        pt = ctx.encode([1.0])
        _, s1 = ctx.encryptor.encrypt_symmetric_seeded(pt, ctx.secret_key)
        _, s2 = ctx.encryptor.encrypt_symmetric_seeded(pt, ctx.secret_key)
        assert s1 != s2


class TestDecryptor:
    def test_three_part_ciphertext(self, ctx, rng):
        """Decrypt handles pre-relinearization (c0, c1, c2) directly."""
        msg = rng.normal(size=4)
        ct = ctx.encrypt(msg)
        prod = ctx.evaluator.multiply(ct, ctx.encrypt(np.ones(4)))
        out = ctx.decode(ctx.decryptor.decrypt(prod))
        # scale is squared; decode uses the ciphertext's scale tracking.
        assert np.max(np.abs(out[:4] - msg)) < 1e-5


@pytest.mark.lanes
class TestStreamedDecryptLanes:
    """The limb-streamed decryption, in lanes: several blocks forced at
    N = 2^10 by a smaller ``BLOCK_BYTES``, the CPU count patched to 1, 2
    and 3; the bytes are those of the composed whole-polynomial formula
    ``(c0 + c1*s [+ c2*s^2]).to_coeff()``."""

    @pytest.fixture(scope="class")
    def ctx(self):
        return CkksContext.create(toy_params(degree=1 << 10, num_primes=5), seed=2)

    @pytest.mark.parametrize("cpu", (1, 2, 3))
    @pytest.mark.parametrize("rows", (1, 2))
    def test_bytes_match_the_composed_formula(self, ctx, rows, cpu):
        import threading
        from unittest import mock

        from repro.nums import kernels
        from repro.transforms.ntt import BatchNtt

        rng = np.random.default_rng(rows * 10 + cpu)
        fresh = ctx.encrypt(rng.normal(size=ctx.params.slots))
        low = ctx.encrypt(rng.normal(size=ctx.params.slots), level=3)
        product = ctx.evaluator.multiply(fresh, fresh)  # three parts
        block_bytes = rows * ctx.params.degree * 8
        before = threading.active_count()
        for ct in (fresh, low, product):
            s = ctx.secret_key.at_level(ct.level)
            want = ct.parts[0] + ct.parts[1] * s
            if ct.size == 3:
                want = want + ct.parts[2] * (s * s)
            with (
                mock.patch.object(BatchNtt, "BLOCK_BYTES", block_bytes),
                mock.patch.object(kernels, "_cpu_count", return_value=cpu),
            ):
                assert len(ctx.basis.batch_ntt(ct.level).blocks()) > 1
                got = ctx.decryptor.decrypt(ct)
            assert got.scale == ct.scale
            assert got.poly.data.tobytes() == want.to_coeff().data.tobytes()
        assert threading.active_count() == before

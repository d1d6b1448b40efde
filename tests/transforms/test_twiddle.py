"""OTF twiddle generation: bit-exact equivalence with stored tables, and
the Section IV-B memory accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nums.kernels import kernel_for_modulus
from repro.nums.primegen import find_primes
from repro.transforms.ntt import NttContext
from repro.transforms.twiddle import OnTheFlyTwiddleGenerator, TwiddleMemoryModel
from tests import oracle

PRIME = find_primes(36, 1 << 12)[0].value


@pytest.fixture(scope="module", params=[64, 1024], ids=lambda n: f"n{n}")
def ntt(request) -> NttContext:
    return NttContext.create(request.param, PRIME)


class TestGeneratorEquivalence:
    def test_forward_factors_match_table(self, ntt):
        gen = OnTheFlyTwiddleGenerator.for_context(ntt)
        log_n = ntt.degree.bit_length() - 1
        for s in range(log_n):
            m = 1 << s
            assert np.array_equal(gen.stage_factors(s), ntt.psi_rev[m : 2 * m]), s

    def test_inverse_factors_match_table(self, ntt):
        gen = OnTheFlyTwiddleGenerator.for_context(ntt, inverse=True)
        log_n = ntt.degree.bit_length() - 1
        for s in range(log_n):
            m = 1 << s
            assert np.array_equal(gen.stage_factors(s), ntt.psi_inv_rev[m : 2 * m]), s

    def test_generated_ntt_matches_table_ntt(self, ntt, rng):
        """Drive a full NTT with generated factors; must equal the exact
        transform of ``tests/oracle.py``.

        This is the functional proof behind replacing 8.25 MB of tables
        with ~27 KB of seeds: the transform is bit-identical.
        """
        gen = OnTheFlyTwiddleGenerator.for_context(ntt)
        n, q = ntt.degree, ntt.modulus
        a = rng.integers(0, q, n).astype(np.uint64)
        mul = kernel_for_modulus(q).mul
        out = a.copy()
        m, t = 1, n
        s = 0
        while m < n:
            t //= 2
            view = out.reshape(m, 2, t)
            factors = gen.stage_factors(s).reshape(m, 1)
            u = view[:, 0, :].copy()
            v = mul(view[:, 1, :], factors)
            view[:, 0, :] = (u + v) % np.uint64(q)
            view[:, 1, :] = (u + np.uint64(q) - v) % np.uint64(q)
            m *= 2
            s += 1
        assert np.array_equal(out, oracle.ntt(a, q, ntt.psi))

    def test_stored_residues_count(self, ntt):
        gen = OnTheFlyTwiddleGenerator.for_context(ntt)
        log_n = ntt.degree.bit_length() - 1
        assert gen.stored_residues == 2 * log_n  # seed + step per stage


class TestMemoryModel:
    def test_paper_full_table_size(self):
        """24 limbs x 2^16 x 44 bits = exactly the paper's 8.25 MB."""
        mm = TwiddleMemoryModel(degree=1 << 16, num_primes=24, coeff_bits=44)
        assert mm.full_table_bytes == int(8.25 * 2**20)

    def test_seed_memory_within_hardware_budget(self):
        """Seeds must fit the 26.4 KB seed memory of Fig. 3(a)."""
        mm = TwiddleMemoryModel(degree=1 << 16, num_primes=24, coeff_bits=44)
        assert mm.seed_bytes <= 26.4 * 1024

    def test_reduction_over_99_8_percent(self):
        mm = TwiddleMemoryModel(degree=1 << 16, num_primes=24, coeff_bits=44)
        assert mm.reduction_ratio > 0.998  # paper: "over 99.9%"

    def test_scales_linearly_with_primes(self):
        small = TwiddleMemoryModel(degree=1 << 14, num_primes=12)
        big = TwiddleMemoryModel(degree=1 << 14, num_primes=24)
        assert big.full_table_bytes == 2 * small.full_table_bytes

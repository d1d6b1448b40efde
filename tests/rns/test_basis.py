"""RNS basis construction and level bookkeeping."""

from __future__ import annotations

import pytest

from repro.rns.basis import RnsBasis
from repro.transforms.ntt import NttContext


class TestCreate:
    def test_prime_count(self, basis):
        assert basis.num_primes == 6
        assert len(basis.moduli) == 6

    def test_primes_distinct_and_ntt_friendly(self, basis):
        assert len(set(basis.moduli)) == 6
        for q in basis.moduli:
            assert (q - 1) % (2 * basis.degree) == 0

    def test_tables_are_cached(self, basis):
        # NTT contexts come from the process-level (degree, modulus) store;
        # kernels and batched transforms are cached on the basis per level.
        for q in basis.moduli:
            ctx = NttContext.cached(basis.degree, q)
            assert ctx is NttContext.cached(basis.degree, q)
        assert basis.kernel(3) is basis.kernel(3)
        assert basis.batch_ntt(3) is basis.batch_ntt(3)

    def test_bad_degree(self):
        with pytest.raises(ValueError, match="power of two"):
            RnsBasis.create(100, 3)


class TestLevels:
    def test_modulus_at(self, basis):
        prod = 1
        for q in basis.moduli[:3]:
            prod *= q
        assert basis.modulus_at(3) == prod

    def test_modulus_at_full(self, basis):
        assert basis.modulus_at(basis.num_primes) == basis.crt(basis.num_primes).modulus

    def test_level_bounds(self, basis):
        with pytest.raises(ValueError, match="level"):
            basis.modulus_at(0)
        with pytest.raises(ValueError, match="level"):
            basis.crt(basis.num_primes + 1)

    def test_crt_prefix_consistency(self, basis):
        crt3 = basis.crt(3)
        assert crt3.moduli == basis.moduli[:3]

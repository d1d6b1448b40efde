"""RNS basis construction and level bookkeeping."""

from __future__ import annotations

from math import prod

import numpy as np
import pytest

from repro.rns.basis import RnsBasis
from repro.rns.poly import RnsPolynomial
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

    def test_rejects_empty_chain(self):
        with pytest.raises(ValueError, match="at least one prime"):
            RnsBasis(degree=64, primes=())

    def test_bad_degree(self):
        with pytest.raises(ValueError, match="power of two"):
            RnsBasis.create(100, 3)


class TestLevels:
    def test_modulus_at(self, basis):
        """A level-3 polynomial lives modulo ``q_0 q_1 q_2``: ``-1``
        combines to that product less one."""
        minus_one = np.full(basis.degree, -1, dtype=np.int64)
        poly = RnsPolynomial.from_signed_coeffs(basis, 3, minus_one)
        assert poly.to_bigints(center=False)[0] == prod(basis.moduli[:3]) - 1

    def test_modulus_at_full(self, basis):
        """At the top level the modulus is the whole chain's product,
        which Expand-RNS takes to zero on every limb."""
        top = basis.num_primes
        big = prod(basis.moduli)
        coeffs = [big, big - 1] + [0] * (basis.degree - 2)
        poly = RnsPolynomial.from_bigint_coeffs(basis, top, coeffs)
        assert not poly.data[:, 0].any()
        assert poly.to_bigints(center=False)[:2] == [0, big - 1]

    def test_level_bounds(self, basis):
        with pytest.raises(ValueError, match="level"):
            basis.kernel(0)
        with pytest.raises(ValueError, match="level"):
            basis.batch_ntt(basis.num_primes + 1)

    def test_crt_prefix_consistency(self, basis):
        """Every per-level table covers the first ``level`` primes."""
        assert basis.kernel(3).q[:, 0].tolist() == list(basis.moduli[:3])
        assert basis.batch_ntt(3).moduli == basis.moduli[:3]
        kern, _, _ = basis.rescale_tables(4, 1)
        assert kern is basis.kernel(3)

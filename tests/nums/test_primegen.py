"""NTT-friendly prime search: Eq. 8 structure and the paper's counts."""

from __future__ import annotations

import pytest

from repro.nums.primality import is_prime
from repro.nums.primegen import count_primes, find_primes, prime_chain

DEGREE = 1 << 12


class TestFindPrimes:
    def test_all_results_are_prime(self):
        for p in find_primes(36, DEGREE, max_count=20):
            assert is_prime(p.value)

    def test_eq8_structure(self):
        """Every prime must literally satisfy Q = 2^bw + k*2^(n+1) + 1."""
        for p in find_primes(36, DEGREE, max_count=20):
            assert p.value == (1 << p.bitwidth) + p.k * (1 << (p.n_exp + 1)) + 1

    def test_k_terms_reconstruct_k(self):
        for p in find_primes(36, DEGREE, max_count=20):
            assert sum(s * (1 << e) for s, e in p.k_terms) == p.k
            assert len(p.k_terms) <= 3  # the ±2^a ± 2^b ± 2^c condition

    def test_supports_requested_degree(self):
        for p in find_primes(36, DEGREE, max_count=20):
            assert p.supports_degree(DEGREE)
            assert (p.value - 1) % (2 * DEGREE) == 0

    def test_max_ntt_degree_consistent(self):
        for p in find_primes(36, DEGREE, max_count=10):
            assert p.max_ntt_degree >= DEGREE
            assert p.supports_degree(p.max_ntt_degree)
            assert not p.supports_degree(p.max_ntt_degree * 2)

    def test_sorted_by_distance_from_power_of_two(self):
        primes = find_primes(36, DEGREE, max_count=10)
        dists = [abs(p.value - (1 << 36)) for p in primes]
        assert dists == sorted(dists)

    def test_max_count_respected(self):
        assert len(find_primes(36, DEGREE, max_count=5)) == 5

    def test_values_distinct(self):
        values = [p.value for p in find_primes(36, DEGREE)]
        assert len(values) == len(set(values))

    def test_paper_prime_pool_size(self):
        """Section IV-A: 443 usable 32–36-bit primes at N = 2^16.

        Our slightly broader scan finds 448 at 36 bits alone — within
        ~1 % of the paper's figure (see EXPERIMENTS.md).
        """
        n16 = 1 << 16
        count = count_primes((36,), n16)
        assert 400 <= count <= 500

    def test_shift_add_adders_positive(self):
        for p in find_primes(34, DEGREE, max_count=5):
            assert p.shift_add_adders >= 2


class TestPrimeChain:
    def test_length_and_distinct(self):
        chain = prime_chain(DEGREE, 8)
        assert len(chain) == 8
        assert len({p.value for p in chain}) == 8

    def test_all_support_degree(self):
        for p in prime_chain(DEGREE, 8):
            assert p.supports_degree(DEGREE)

    def test_falls_back_to_extra_bitwidths(self):
        # Request more primes than 36-bit alone provides at a huge degree.
        chain = prime_chain(1 << 16, 500)
        widths = {p.bitwidth for p in chain}
        assert len(widths) > 1  # must have dipped into 35-bit or below

    def test_too_many_raises(self):
        with pytest.raises(ValueError, match="NTT-friendly primes available"):
            prime_chain(1 << 16, 10**6)

    def test_paper_chain_of_24(self):
        """The evaluation setup: 24 levels of 36-bit primes at N = 2^16."""
        chain = prime_chain(1 << 16, 24, bitwidth=36)
        assert len(chain) == 24
        assert all(p.bitwidth == 36 for p in chain)

"""Miller–Rabin correctness on known primes, composites, and edge cases."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.nums.primality import is_prime, next_prime


class TestIsPrime:
    def test_small_primes(self):
        for p in (2, 3, 5, 7, 11, 13, 97, 101, 7919):
            assert is_prime(p)

    def test_small_composites(self):
        for c in (0, 1, 4, 6, 9, 15, 91, 7917, 7921):
            assert not is_prime(c)

    def test_negative(self):
        assert not is_prime(-7)

    def test_carmichael_numbers(self):
        # Fermat pseudoprimes to many bases; Miller–Rabin must reject them.
        for c in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265):
            assert not is_prime(c)

    def test_known_large_primes(self):
        assert is_prime(2**31 - 1)  # Mersenne
        assert is_prime(2**61 - 1)  # Mersenne

    def test_large_composites(self):
        assert not is_prime((2**31 - 1) * (2**31 - 19))
        assert not is_prime(2**62)

    def test_strong_pseudoprime_base2(self):
        # 3215031751 is a strong pseudoprime to bases 2, 3, 5, 7... not all.
        assert not is_prime(3215031751)

    @given(st.integers(min_value=2, max_value=5000))
    def test_matches_trial_division(self, n):
        by_trial = all(n % d for d in range(2, int(n**0.5) + 1))
        assert is_prime(n) == by_trial


class TestNextPrime:
    def test_from_small(self):
        assert next_prime(0) == 2
        assert next_prime(2) == 3
        assert next_prime(13) == 17

    def test_result_is_prime_and_minimal(self):
        for start in (100, 1000, 10**6):
            p = next_prime(start)
            assert is_prime(p)
            assert all(not is_prime(x) for x in range(start + 1, p))

    @given(st.integers(min_value=0, max_value=10**6))
    def test_strictly_greater(self, n):
        assert next_prime(n) > n

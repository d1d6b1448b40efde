"""Bit-manipulation helpers, including the Eq. 11 k-decomposition."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.bitops import (
    bit_reverse,
    bit_reverse_indices,
    ilog2,
    is_power_of_two,
    popcount,
    signed_power_terms,
)


class TestPowersOfTwo:
    def test_is_power_of_two(self):
        assert all(is_power_of_two(1 << k) for k in range(20))
        assert not any(is_power_of_two(x) for x in (0, -2, 3, 6, 12, 100))

    def test_ilog2(self):
        for k in range(20):
            assert ilog2(1 << k) == k

    def test_ilog2_rejects(self):
        with pytest.raises(ValueError, match="power of two"):
            ilog2(12)


class TestBitReverse:
    def test_known_values(self):
        assert bit_reverse(0b001, 3) == 0b100
        assert bit_reverse(0b110, 3) == 0b011
        assert bit_reverse(0, 8) == 0

    def test_involution(self):
        for v in range(64):
            assert bit_reverse(bit_reverse(v, 6), 6) == v

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="does not fit"):
            bit_reverse(8, 3)

    def test_indices_match_scalar(self):
        idx = bit_reverse_indices(32)
        assert [bit_reverse(i, 5) for i in range(32)] == idx.tolist()

    def test_indices_are_permutation(self):
        idx = bit_reverse_indices(128)
        assert sorted(idx.tolist()) == list(range(128))


class TestPopcount:
    def test_values(self):
        assert popcount(0) == 0
        assert popcount(0b1011) == 3
        assert popcount((1 << 36) - 1) == 36


class TestSignedPowerTerms:
    """The ±2^a ± 2^b ± 2^c condition of Eq. 11."""

    def test_exact_powers(self):
        for k in (1, 2, 8, 1024):
            terms = signed_power_terms(k)
            assert terms is not None
            assert sum(s * (1 << e) for s, e in terms) == k

    def test_zero(self):
        assert signed_power_terms(0) == []

    def test_negative(self):
        terms = signed_power_terms(-12)
        assert terms is not None
        assert sum(s * (1 << e) for s, e in terms) == -12

    def test_three_term_values(self):
        # 7 = 8 - 1 (2 terms); 11 = 8 + 2 + 1 (3 terms)
        assert len(signed_power_terms(7)) == 2
        assert len(signed_power_terms(11)) == 3

    def test_undecomposable_returns_none(self):
        # 0b10101010101 needs more than 3 signed powers.
        assert signed_power_terms(0b10101010101, max_terms=3) is None

    def test_respects_max_terms(self):
        k = 0b1011  # = 8+2+1 = 3 terms, or 8+4-1 = 3 terms; never 2
        assert signed_power_terms(k, max_terms=2) is None
        assert signed_power_terms(k, max_terms=3) is not None

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=-(1 << 30), max_value=1 << 30))
    def test_hypothesis_reconstruction(self, k):
        terms = signed_power_terms(k)
        if terms is not None:
            assert sum(s * (1 << e) for s, e in terms) == k
            assert len(terms) <= 3
            assert all(s in (-1, 1) for s, _ in terms)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=40),
    )
    def test_hypothesis_completeness(self, a, b, c):
        """Any true 3-signed-power value must be decomposed, not refused."""
        k = (1 << a) + (1 << b) - (1 << c)
        assert signed_power_terms(k) is not None

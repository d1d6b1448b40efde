"""CRT decompose/combine — the MSE's Expand-RNS and Combine-CRT oracles."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nums.crt import CrtSystem
from repro.nums.primegen import prime_chain

MODULI = tuple(p.value for p in prime_chain(1 << 10, 4))


@pytest.fixture(scope="module")
def crt() -> CrtSystem:
    return CrtSystem.for_moduli(MODULI)


class TestConstruction:
    def test_modulus_is_product(self, crt):
        prod = 1
        for q in MODULI:
            prod *= q
        assert crt.modulus == prod

    def test_q_hat_inverse_property(self, crt):
        for q, hat, hat_inv in zip(crt.moduli, crt.q_hat, crt.q_hat_inv):
            assert hat % q * hat_inv % q == 1

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="distinct"):
            CrtSystem.for_moduli((7, 7, 11))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            CrtSystem.for_moduli(())

    def test_single_modulus(self):
        c = CrtSystem.for_moduli((97,))
        assert c.combine(c.decompose(42)) == 42


class TestRoundtrip:
    def test_decompose_combine(self, crt, rng):
        for _ in range(50):
            v = int(rng.integers(0, 2**63)) * int(rng.integers(1, 2**60)) % crt.modulus
            assert crt.combine(crt.decompose(v)) == v

    def test_centered_roundtrip(self, crt):
        for v in (-5, -1, 0, 1, 5, crt.modulus // 2 - 1):
            residues = crt.decompose(v % crt.modulus)
            assert crt.combine_centered(residues) == v

    def test_centered_range(self, crt, rng):
        for _ in range(50):
            v = int(rng.integers(0, 2**62))
            c = crt.combine_centered(crt.decompose(v))
            assert -(crt.modulus // 2) <= c <= crt.modulus // 2

    def test_combine_length_check(self, crt):
        with pytest.raises(ValueError, match="expected"):
            crt.combine((1, 2))

    @settings(max_examples=60, deadline=None)
    @given(st.integers())
    def test_hypothesis_roundtrip(self, v):
        crt = CrtSystem.for_moduli(MODULI)
        assert crt.combine(crt.decompose(v % crt.modulus)) == v % crt.modulus

    @settings(max_examples=40, deadline=None)
    @given(st.integers(), st.integers())
    def test_crt_is_ring_homomorphism(self, a, b):
        """CRT residues of a*b equal the residue-wise products."""
        crt = CrtSystem.for_moduli(MODULI)
        prod = crt.decompose((a * b) % crt.modulus)
        ra, rb = crt.decompose(a % crt.modulus), crt.decompose(b % crt.modulus)
        assert prod == tuple(x * y % q for x, y, q in zip(ra, rb, crt.moduli))

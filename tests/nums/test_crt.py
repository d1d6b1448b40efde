"""CRT decompose/combine over a four-prime chain: the library's
Expand-RNS (:meth:`RnsPolynomial.from_bigint_coeffs`) and Combine-CRT
(:meth:`RnsPolynomial.to_bigints`), one value per coefficient, against
Python-int arithmetic."""

from __future__ import annotations

from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nums.primegen import prime_chain
from repro.rns.basis import RnsBasis
from repro.rns.poly import RnsPolynomial

N = 1 << 10
PRIMES = tuple(prime_chain(N, 4))
MODULI = tuple(p.value for p in PRIMES)
BIG = prod(MODULI)
BASIS = RnsBasis(degree=N, primes=PRIMES)


def decompose(values, basis: RnsBasis = BASIS) -> RnsPolynomial:
    """``values`` (at most ``N``) in the first coefficients, zeros after."""
    coeffs = list(values) + [0] * (basis.degree - len(values))
    return RnsPolynomial.from_bigint_coeffs(basis, basis.num_primes, coeffs)


def combine(poly: RnsPolynomial, count: int, center: bool = False) -> list[int]:
    return poly.to_bigints(center=center)[:count]


class TestConstruction:
    def test_modulus_is_product(self):
        poly = decompose([BIG, BIG - 1])
        assert not poly.data[:, 0].any()
        assert poly.data[:, 1].tolist() == [q - 1 for q in MODULI]
        assert combine(poly, 2) == [0, BIG - 1]

    def test_q_hat_inverse_property(self):
        """The unit residue vector of limb ``i`` combines to the idempotent
        ``q_hat_i · (q_hat_i^-1 mod q_i)``."""
        data = np.eye(len(MODULI), N, dtype=np.uint64)
        got = RnsPolynomial(BASIS, data).to_bigints(center=False)
        for i, q in enumerate(MODULI):
            hat = BIG // q
            hat_inv = pow(hat, -1, q)
            assert hat % q * hat_inv % q == 1
            assert got[i] == hat * hat_inv % BIG

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="distinct"):
            RnsBasis(degree=N, primes=(PRIMES[0], PRIMES[0], PRIMES[1]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            RnsBasis(degree=N, primes=())

    def test_single_modulus(self):
        one = RnsBasis(degree=N, primes=PRIMES[:1])
        poly = decompose([42, -42], one)
        assert poly.data[0, :2].tolist() == [42, MODULI[0] - 42]
        assert combine(poly, 2, center=True) == [42, -42]


class TestRoundtrip:
    def test_decompose_combine(self, rng):
        values = [
            int(rng.integers(0, 2**63)) * int(rng.integers(1, 2**60)) % BIG
            for _ in range(50)
        ]
        poly = decompose(values)
        for col, v in enumerate(values):
            assert poly.data[:, col].tolist() == [v % q for q in MODULI]
        assert combine(poly, len(values)) == values

    def test_centered_roundtrip(self):
        values = [-5, -1, 0, 1, 5, BIG // 2 - 1, -(BIG // 2)]
        assert combine(decompose(values), len(values), center=True) == values

    def test_centered_range(self, rng):
        values = [
            int(rng.integers(0, 2**62)) * int(rng.integers(0, 2**62)) % BIG
            for _ in range(50)
        ] + [BIG // 2, BIG // 2 + 1]
        got = combine(decompose(values), len(values), center=True)
        for v, c in zip(values, got):
            assert -(BIG // 2) <= c <= BIG // 2
            assert (c - v) % BIG == 0

    def test_combine_length_check(self):
        with pytest.raises(ValueError, match="expected"):
            RnsPolynomial.from_bigint_coeffs(BASIS, len(MODULI), [1, 2])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(), min_size=1, max_size=8))
    def test_hypothesis_roundtrip(self, values):
        want = [v % BIG for v in values]
        assert combine(decompose(values), len(values)) == want

    @settings(max_examples=40, deadline=None)
    @given(st.integers(), st.integers())
    def test_crt_is_ring_homomorphism(self, a, b):
        """CRT residues of a*b equal the residue-wise products."""
        kern = BASIS.kernel(len(MODULI))
        product = decompose([a * b]).data[:, :1]
        ra, rb = decompose([a]).data[:, :1], decompose([b]).data[:, :1]
        assert np.array_equal(product, kern.mul(ra, rb))

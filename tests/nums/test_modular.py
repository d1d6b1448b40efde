"""Scalar modular arithmetic against exact-int oracles."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nums.modular import (
    centered_vec,
    mod_inv,
    mod_pow,
    nth_root_of_unity,
    primitive_root,
)

PRIME_SMALL = 12289  # NTT-friendly: 12289 = 3*2^12 + 1


class TestScalarHelpers:
    def test_mod_pow(self):
        assert mod_pow(3, 5, 7) == pow(3, 5, 7)

    def test_mod_inv_roundtrip(self):
        inv = mod_inv(1234567, PRIME_SMALL)
        assert 1234567 % PRIME_SMALL * inv % PRIME_SMALL == 1

    def test_mod_inv_noninvertible(self):
        with pytest.raises(ValueError, match="not invertible"):
            mod_inv(6, 12)

    def test_primitive_root_order(self):
        g = primitive_root(PRIME_SMALL)
        order = PRIME_SMALL - 1
        # g generates the full group: g^(order/p) != 1 for p | order.
        for p in (2, 3):
            assert pow(g, order // p, PRIME_SMALL) != 1

    def test_nth_root_of_unity(self):
        root = nth_root_of_unity(4096, PRIME_SMALL)
        assert pow(root, 4096, PRIME_SMALL) == 1
        assert pow(root, 2048, PRIME_SMALL) != 1

    def test_nth_root_requires_divisibility(self):
        with pytest.raises(ValueError, match="does not divide"):
            nth_root_of_unity(1 << 20, PRIME_SMALL)

    def test_centered_range(self):
        q = 17
        v = np.arange(q, dtype=np.uint64)
        c = centered_vec(v, q)
        assert c.dtype == np.int64
        assert ((-(q // 2) <= c) & (c <= q // 2)).all()
        assert ((c - v.astype(np.int64)) % q == 0).all()

    def test_centered_half_boundary(self):
        # q even: q/2 maps to q/2 (the documented (-q/2, q/2] convention).
        assert centered_vec(np.array([8, 9], dtype=np.uint64), 16).tolist() == [8, -7]

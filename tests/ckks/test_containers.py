"""Plaintext/Ciphertext container invariants."""

from __future__ import annotations

import pytest

from repro.ckks.containers import Ciphertext, Plaintext
from repro.rns.poly import RnsPolynomial


def _poly(basis, level, domain="eval"):
    p = RnsPolynomial.zero(basis, level)
    return p.to_eval() if domain == "eval" else p


class TestCiphertext:
    def test_needs_two_parts(self, basis):
        with pytest.raises(ValueError, match="at least"):
            Ciphertext(parts=[_poly(basis, 2)], scale=1.0)

    def test_level_consistency_enforced(self, basis):
        with pytest.raises(ValueError, match="inconsistent levels"):
            Ciphertext(parts=[_poly(basis, 2), _poly(basis, 3)], scale=1.0)

    def test_eval_domain_enforced(self, basis):
        with pytest.raises(ValueError, match="NTT domain"):
            Ciphertext(
                parts=[_poly(basis, 2, "coeff"), _poly(basis, 2, "coeff")], scale=1.0
            )

    def test_properties(self, basis):
        ct = Ciphertext(parts=[_poly(basis, 3), _poly(basis, 3)], scale=2.0**40)
        assert ct.level == 3
        assert ct.size == 2
        assert ct.c0 is ct.parts[0]
        assert ct.c1 is ct.parts[1]

    def test_copy_is_deep(self, basis):
        ct = Ciphertext(parts=[_poly(basis, 2), _poly(basis, 2)], scale=1.0)
        dup = ct.copy()
        dup.parts[0].data[0, 0] = 7
        assert ct.parts[0].data[0, 0] == 0

    def test_three_parts_allowed(self, basis):
        ct = Ciphertext(parts=[_poly(basis, 2)] * 3, scale=1.0)
        assert ct.size == 3


class TestPlaintext:
    def test_level_property(self, basis):
        pt = Plaintext(poly=RnsPolynomial.zero(basis, 4), scale=2.0**30)
        assert pt.level == 4
        assert pt.scale == 2.0**30

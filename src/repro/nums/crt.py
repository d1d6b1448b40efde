"""Chinese Remainder Theorem combine / RNS decomposition.

The accelerator's MSE performs "RNS" (decompose a big integer coefficient
into residues) on the encode path and "Combine CRT" on the decode path
(Fig. 2a).  This module is the scalar reference for both — one value at a
time, in Python integers, by the idempotent sum ``sum_i [r_i * (Q/q_i)^-1]
* Q/q_i mod Q``.  The polynomial layer does not come through here: its
whole-matrix Combine-CRT (:meth:`RnsPolynomial.to_bigints
<repro.rns.poly.RnsPolynomial.to_bigints>`) is Garner's mixed-radix
algorithm, which makes this module the independent oracle its tests
compare against.  Key generation reads the CRT idempotents from it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nums.modular import centered, mod_inv

__all__ = ["CrtSystem"]


@dataclass(frozen=True)
class CrtSystem:
    """Precomputed CRT data for a set of pairwise-coprime moduli.

    Attributes:
        moduli: the RNS primes ``q_0 … q_{L-1}``.
        modulus: the full product ``Q = prod(q_i)``.
        q_hat: ``Q / q_i`` for each limb.
        q_hat_inv: ``(Q / q_i)^{-1} mod q_i`` for each limb.
    """

    moduli: tuple[int, ...]
    modulus: int
    q_hat: tuple[int, ...]
    q_hat_inv: tuple[int, ...]

    @classmethod
    def for_moduli(cls, moduli: tuple[int, ...] | list[int]) -> "CrtSystem":
        moduli = tuple(int(q) for q in moduli)
        if not moduli:
            raise ValueError("CRT needs at least one modulus")
        if len(set(moduli)) != len(moduli):
            raise ValueError("CRT moduli must be distinct")
        big_q = 1
        for q in moduli:
            big_q *= q
        q_hat = tuple(big_q // q for q in moduli)
        q_hat_inv = tuple(mod_inv(h % q, q) for h, q in zip(q_hat, moduli))
        return cls(moduli=moduli, modulus=big_q, q_hat=q_hat, q_hat_inv=q_hat_inv)

    def decompose(self, value: int) -> tuple[int, ...]:
        """Big integer -> residue vector (the MSE "Expand RNS" step)."""
        return tuple(value % q for q in self.moduli)

    def combine(self, residues: tuple[int, ...] | list[int]) -> int:
        """Residue vector -> unique representative in [0, Q)."""
        if len(residues) != len(self.moduli):
            raise ValueError(
                f"expected {len(self.moduli)} residues, got {len(residues)}"
            )
        acc = 0
        for r, q, hat, hat_inv in zip(residues, self.moduli, self.q_hat, self.q_hat_inv):
            acc += ((int(r) % q) * hat_inv % q) * hat
        return acc % self.modulus

    def combine_centered(self, residues: tuple[int, ...] | list[int]) -> int:
        """Residue vector -> centered representative in (-Q/2, Q/2]."""
        return centered(self.combine(residues), self.modulus)

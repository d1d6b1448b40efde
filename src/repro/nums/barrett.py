"""Barrett modular reduction — the baseline reducer of Table I.

Barrett reduction approximates the quotient ``x // q`` with two shifted
multiplications by a precomputed constant ``mu = floor(2^(2r) / q)``.
It needs no domain conversion but costs the most multiplier area of the
three candidates the paper compares (Table I: 35054 µm², 4 pipeline
stages), which is why ABC-FHE rejects it.

This is the bit-level Table I model; the vector kernel
(:class:`repro.nums.kernels.ReducerKernel`) estimates the same quotient
from a float64 reciprocal of ``q`` instead of shifts by ``mu``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["BarrettReducer"]


@dataclass(frozen=True)
class BarrettReducer:
    """Reduces ``x in [0, q^2)`` modulo ``q`` via the Barrett algorithm.

    Attributes:
        q: odd modulus.
        r: word size in bits (``2^r > q``).
        mu: the precomputed reciprocal ``floor(2^(2r) / q)``.
    """

    q: int
    r: int
    mu: int

    # Hardware accounting used by the Table I area model: Barrett needs the
    # operand product plus two full-width quotient-estimation multiplies.
    NUM_MULTIPLIERS = 3
    PIPELINE_STAGES = 4

    @classmethod
    def for_modulus(cls, q: int) -> "BarrettReducer":
        """Build a reducer for an odd modulus."""
        if q < 3 or q % 2 == 0:
            raise ValueError(f"Barrett reducer needs an odd modulus >= 3, got {q}")
        r = q.bit_length()
        mu = (1 << (2 * r)) // q
        return cls(q=q, r=r, mu=mu)

    def reduce(self, x: int) -> int:
        """Return ``x mod q`` for ``0 <= x < q^2``."""
        if x < 0 or x >= self.q * self.q:
            raise ValueError(f"Barrett input must be in [0, q^2); got {x}")
        quotient_estimate = ((x >> (self.r - 1)) * self.mu) >> (self.r + 1)
        t = x - quotient_estimate * self.q
        # The estimate undershoots by at most 2.
        while t >= self.q:
            t -= self.q
        return t

    def mul(self, a: int, b: int) -> int:
        """Modular product of two residues."""
        return self.reduce((a % self.q) * (b % self.q))

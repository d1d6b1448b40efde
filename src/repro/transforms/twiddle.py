"""Unified on-the-fly twiddle-factor generation (the paper's OTF TF Gen).

A pipelined NTT lane consumes, at stage ``s`` (with ``m = 2^s`` blocks), the
merged twiddles ``psi_rev[m + i]`` for ``i = 0 … m-1``.  Storing them for
every stage and every RNS prime costs ``L * N * bw`` bits — 8.25 MiB for
N = 2^16, 44-bit, 24 levels (Section IV-B) — which is why ABC-FHE generates
them on the fly instead.

The enabling identity: within one stage the merged exponents factor as

    psi_rev[m + i] = psi^(N/(2m)) * (psi^(N/m))^bitrev(i, s)

so a stage is fully described by a *seed* (``psi^(N/(2m))``) and a *step*
(``psi^(N/m)``); the generator walks bit-reversed powers of the step with
one modular multiplier.  The same machinery generates complex FFT twiddles
(seed/step on the unit circle), which is what makes the unit "unified"
across the NTT and FFT modes of the RFE.

:class:`TwiddleMemoryModel` reproduces the Section IV-B storage accounting,
including the >99.9 % reduction claim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nums.kernels import kernel_for_modulus
from repro.nums.modular import mod_pow
from repro.transforms.ntt import NttContext
from repro.utils.bitops import bit_reverse_indices, ilog2

__all__ = ["OnTheFlyTwiddleGenerator", "StageSeed", "TwiddleMemoryModel"]


@dataclass(frozen=True)
class StageSeed:
    """Seed/step pair describing one pipeline stage's twiddle sequence."""

    stage: int
    seed: int
    step: int


@dataclass(frozen=True)
class OnTheFlyTwiddleGenerator:
    """Generates per-stage merged NTT twiddles from compact seeds.

    Equivalent to reading ``NttContext.psi_rev`` slices, but from
    ``2 * log2(N)`` stored residues instead of ``N`` — this equivalence is
    asserted by the test suite and is the correctness core of the OTF TF
    Gen hardware claim.
    """

    degree: int
    modulus: int
    seeds: tuple[StageSeed, ...]

    @classmethod
    def for_context(cls, ctx: NttContext, inverse: bool = False) -> "OnTheFlyTwiddleGenerator":
        """Derive stage seeds from an NTT context (forward or inverse)."""
        n, q = ctx.degree, ctx.modulus
        log_n = ilog2(n)
        base = pow(ctx.psi, q - 2, q) if inverse else ctx.psi
        seeds = []
        for s in range(log_n):
            # Stage s has m = 2^s blocks; exponent layout derived from
            # bitrev(m + i, log_n) = bitrev(i, s) * 2^(log_n - s) + 2^(log_n - s - 1).
            seed = mod_pow(base, 1 << (log_n - s - 1), q)
            step = mod_pow(base, 1 << (log_n - s), q)
            seeds.append(StageSeed(stage=s, seed=seed, step=step))
        return cls(degree=n, modulus=q, seeds=tuple(seeds))

    def stage_factors(self, stage: int) -> np.ndarray:
        """Twiddles for one stage, in the order the pipeline consumes them.

        Returns ``m = 2^stage`` factors equal to
        ``seed * step^bitrev(i, stage)`` — generated by one running modular
        product, exactly the single-multiplier datapath of the OTF TF Gen.
        """
        info = self.seeds[stage]
        m = 1 << stage
        q = self.modulus
        # Running powers step^0, step^1, ..., then reorder bit-reversed —
        # hardware interleaves these identically with an address counter.
        powers = np.empty(m, dtype=np.uint64)
        acc = 1
        for i in range(m):
            powers[i] = acc
            acc = acc * info.step % q
        powers = powers[bit_reverse_indices(m)] if m > 1 else powers
        return kernel_for_modulus(q).mul(powers, info.seed)

    @property
    def stored_residues(self) -> int:
        """Residues kept on-chip: one (seed, step) pair per stage."""
        return 2 * len(self.seeds)


@dataclass(frozen=True)
class TwiddleMemoryModel:
    """Storage accounting for twiddle factors (Section IV-B).

    Attributes:
        degree: polynomial degree N.
        num_primes: RNS limbs L (24 in the paper's bootstrappable setup).
        coeff_bits: stored residue width (44 in the paper's accounting).
        fp_bits: floating-point twiddle width for the FFT side (55).
    """

    degree: int
    num_primes: int
    coeff_bits: int = 44
    fp_bits: int = 55

    @property
    def full_table_bytes(self) -> int:
        """DRAM-resident table: all N merged twiddles for every prime.

        ``L * N * coeff_bits / 8`` — exactly the paper's 8.25 MB at
        N = 2^16, L = 24, 44 bits.
        """
        return self.num_primes * self.degree * self.coeff_bits // 8

    @property
    def fft_table_bytes(self) -> int:
        """Complex FFT twiddle table (N/2 slots, two FP words each)."""
        return (self.degree // 2) * 2 * self.fp_bits // 8

    @property
    def seed_bytes(self) -> int:
        """On-chip seed memory for the unified OTF TF Gen.

        Per prime: (seed, step) per stage, forward and inverse chains.
        Plus the complex FFT seed/step pairs shared by both RSCs.  Lands
        within the paper's 26.4 KB seed-memory budget.
        """
        log_n = ilog2(self.degree)
        ntt_residues = self.num_primes * log_n * 2 * 2  # fwd+inv, seed+step
        ntt_bytes = ntt_residues * self.coeff_bits // 8
        fft_values = log_n * 2 * 2 * 2  # fwd+inv, seed+step, re+im
        fft_bytes = fft_values * self.fp_bits // 8
        return ntt_bytes + fft_bytes

    @property
    def reduction_ratio(self) -> float:
        """Fraction of twiddle storage eliminated (paper: > 99.9 %)."""
        full = self.full_table_bytes + self.fft_table_bytes
        return 1.0 - self.seed_bytes / full

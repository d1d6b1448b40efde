"""RNS modulus chains with per-prime NTT contexts and reducer tables.

A CKKS modulus ``Q = q_0 * q_1 * ... * q_{L-1}`` is held as a chain of
NTT-friendly primes.  The paper follows the double-scale technique of [1]:
instead of ~72-bit scaling primes it uses pairs of 32–36-bit primes and
doubles the level count (12 -> 24 for N = 2^16), which is what lets the
datapath stay at 44 bits.

The basis is also the cache root for everything precomputable per prime:

* NTT contexts come from the process-level ``NttContext.cached`` store
  keyed by ``(degree, modulus)`` — two bases sharing primes share
  twiddles;
* ``kernel(level)`` hands out reducer kernels whose per-limb
  reciprocals are broadcast as an ``(level, 1)`` column over whole
  residue matrices;
* ``batch_ntt(level)`` bundles the per-limb twiddles into one
  :class:`~repro.transforms.ntt.BatchNtt` so a full ``(L, N)`` polynomial
  transforms with one kernel dispatch per butterfly stage and block of
  limb rows;
* ``rescale_tables(level, times)`` holds what folding the last ``times``
  primes out of a level needs besides the data: the kept rows' kernel,
  the mixed-radix weights past digit 0 and the inverse of the dropped
  product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nums.kernels import ReducerKernel
from repro.nums.primegen import NttFriendlyPrime, prime_chain
from repro.transforms.ntt import BatchNtt
from repro.utils.bitops import ilog2

__all__ = ["RnsBasis"]


@dataclass(frozen=True)
class RnsBasis:
    """An RNS basis: ordered NTT-friendly primes plus transform tables.

    Attributes:
        degree: polynomial degree N shared by every limb.
        primes: the modulus chain (limb 0 first — the base prime that
            survives down to level 1).
    """

    degree: int
    primes: tuple[NttFriendlyPrime, ...]
    _kernel_cache: dict = field(
        default_factory=dict, repr=False, compare=False, hash=False
    )
    _batch_ntt_cache: dict = field(
        default_factory=dict, repr=False, compare=False, hash=False
    )
    _rescale_cache: dict = field(
        default_factory=dict, repr=False, compare=False, hash=False
    )

    @classmethod
    def create(
        cls,
        degree: int,
        num_primes: int,
        bitwidth: int = 36,
    ) -> "RnsBasis":
        """Generate a fresh basis of ``num_primes`` NTT-friendly primes."""
        ilog2(degree)
        chain = prime_chain(degree, num_primes, bitwidth=bitwidth)
        return cls(degree=degree, primes=tuple(chain))

    def __post_init__(self) -> None:
        values = [p.value for p in self.primes]
        if not values:
            raise ValueError("an RNS basis needs at least one prime")
        if len(set(values)) != len(values):
            raise ValueError("RNS primes must be distinct")
        for p in self.primes:
            if not p.supports_degree(self.degree):
                raise ValueError(f"prime {p.value} cannot run a degree-{self.degree} NTT")

    @property
    def num_primes(self) -> int:
        return len(self.primes)

    @property
    def moduli(self) -> tuple[int, ...]:
        return tuple(p.value for p in self.primes)

    # ------------------------------------------------------------------
    # Reducer tables (cached per level)
    # ------------------------------------------------------------------

    def kernel(self, level: int) -> ReducerKernel:
        """Reducer kernel over the first ``level`` limbs as an (L, 1) column.

        The returned kernel broadcasts per-row moduli over ``(level, N)``
        residue matrices; its precomputed tables are cached on the basis
        per level.
        """
        self._check_level(level)
        return self.kernel_range(0, level)

    def kernel_range(self, start: int, stop: int) -> ReducerKernel:
        """Reducer kernel over limbs ``start..stop-1`` as an (L, 1) column.

        The fused multi-prime rescale works on the *trailing* limbs of a
        level — a slice no prefix kernel covers — so kernels are cached per
        (start, stop).
        """
        if not 0 <= start < stop <= self.num_primes:
            raise ValueError(
                f"limb range [{start}, {stop}) outside [0, {self.num_primes}]"
            )
        key = (start, stop)
        kern = self._kernel_cache.get(key)
        if kern is None:
            q_col = np.array(self.moduli[start:stop], dtype=np.uint64).reshape(-1, 1)
            kern = ReducerKernel(q_col)
            self._kernel_cache[key] = kern
        return kern

    def batch_ntt(self, level: int) -> BatchNtt:
        """Whole-matrix NTT over the first ``level`` limbs (cached)."""
        self._check_level(level)
        bat = self._batch_ntt_cache.get(level)
        if bat is None:
            bat = BatchNtt.create(self.degree, self.moduli[:level])
            self._batch_ntt_cache[level] = bat
        return bat

    def rescale_tables(self, level: int, times: int) -> tuple:
        """``(kern, weights, inv_col)`` for dividing ``level`` limbs by
        the last ``times`` primes (cached per level and times):
        ``kern`` covers the kept rows, ``weights[t - 1]`` is ``q_{L-1}
        ... q_{L-t}`` on them, the radix of mixed-radix digit ``t >= 1``
        (digit 0's is 1, which no table holds: ``times - 1`` rows), and
        ``inv_col`` the inverse of the whole dropped product ``P``.
        """
        keep = level - times
        if not 1 <= keep < level <= self.num_primes:
            raise ValueError(
                f"cannot rescale {times} primes from level {level} below one limb"
            )
        key = (level, times)
        tables = self._rescale_cache.get(key)
        if tables is None:
            kept = self.moduli[:keep]
            weights = np.empty((times - 1, keep, 1), dtype=np.uint64)
            radix = self.moduli[level - 1]
            for t in range(1, times):
                weights[t - 1, :, 0] = [radix % q for q in kept]
                radix *= self.moduli[level - 1 - t]
            inv_col = np.array(
                [pow(radix, -1, q) for q in kept], dtype=np.uint64
            ).reshape(-1, 1)
            tables = self._rescale_cache[key] = (self.kernel(keep), weights, inv_col)
        return tables

    # ------------------------------------------------------------------

    def _check_level(self, level: int) -> None:
        if level < 1 or level > self.num_primes:
            raise ValueError(f"level must be in [1, {self.num_primes}], got {level}")

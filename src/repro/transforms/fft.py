"""The CKKS canonical-embedding "special" FFT (encode/decode transform).

CKKS encodes a vector of ``N/2`` complex slots into a real polynomial of
degree ``N`` by inverting the canonical embedding restricted to one orbit of
roots: slot ``j`` is the evaluation of the message polynomial at
``zeta^{5^j}`` with ``zeta = exp(i*pi/N)`` a primitive 2N-th root of unity.
The powers-of-five indexing makes the transform close under conjugation so
that real polynomials map to conjugate-symmetric slot vectors.

The kernels below are the iterative Cooley–Tukey forms used by Lattigo and
SEAL (the paper's CPU baseline runs Lattigo), written stage-wise so a
:class:`repro.transforms.fp_custom.FloatFormat` can re-quantize after every
butterfly stage — exactly how the RFE's FP55 datapath accumulates rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.transforms.fp_custom import FP64, FloatFormat
from repro.utils.bitops import bit_reverse_indices, ilog2

__all__ = ["SpecialFft", "embedding_matrix"]


@dataclass(frozen=True)
class SpecialFft:
    """Precomputed tables for the CKKS special FFT over ``slots`` lanes.

    Attributes:
        slots: number of complex slots (ring degree / 2), a power of two.
        fmt: floating-point datapath format; quantization is applied after
            every butterfly stage when not native FP64.
        roots: the ``M = 4 * slots`` complex roots ``exp(2*pi*i*k / M)``.
        rot_group: ``5^j mod M`` for ``j`` in ``[0, slots)``.
        bit_rev: the bit-reversal permutation of ``[0, slots)`` — a table,
            because building it (``log2(slots)`` shift/OR passes) costs a
            third to a half of a transform.
    """

    slots: int
    fmt: FloatFormat
    roots: np.ndarray
    rot_group: np.ndarray
    bit_rev: np.ndarray

    @classmethod
    def create(cls, slots: int, fmt: FloatFormat = FP64) -> "SpecialFft":
        ilog2(slots)  # validates power of two
        m = 4 * slots
        roots = np.exp(2j * np.pi * np.arange(m) / m)
        rot_group = np.empty(slots, dtype=np.int64)
        five = 1
        for j in range(slots):
            rot_group[j] = five
            five = (five * 5) % m
        return cls(
            slots=slots,
            fmt=fmt,
            roots=fmt.quantize(roots),
            rot_group=rot_group,
            bit_rev=bit_reverse_indices(slots),
        )

    @property
    def m(self) -> int:
        """The root-of-unity order M = 4 * slots = 2 * ring degree."""
        return 4 * self.slots

    # ------------------------------------------------------------------
    # Forward (decode direction): coefficients-ish -> slot values
    # ------------------------------------------------------------------

    def forward(self, values: np.ndarray) -> np.ndarray:
        """Special FFT: evaluate at the ``zeta^{5^j}`` orbit (decode path).

        Input and output are length-``slots`` complex vectors; input is in
        the "folded coefficient" layout produced by :meth:`inverse`.
        """
        v = self._checked(values)
        n = self.slots
        v = v[self.bit_rev]
        length = 2
        while length <= n:
            half = length // 2
            quad = length * 4
            gap = self.m // quad
            idx = (self.rot_group[:half] % quad) * gap
            tw = self.roots[idx]  # shape (half,), shared across blocks
            blocks = v.reshape(n // length, length)
            u = blocks[:, :half].copy()  # copy: the next line overwrites it
            w = blocks[:, half:] * tw
            blocks[:, :half] = u + w
            blocks[:, half:] = u - w
            v = self.fmt.quantize(blocks).reshape(n)
            length *= 2
        return v

    # ------------------------------------------------------------------
    # Inverse (encode direction): slot values -> folded coefficients
    # ------------------------------------------------------------------

    def inverse(self, values: np.ndarray) -> np.ndarray:
        """Special IFFT: slot values -> folded coefficients (encode path)."""
        v = self._checked(values)
        n = self.slots
        length = n
        while length >= 2:
            half = length // 2
            quad = length * 4
            gap = self.m // quad
            idx = (quad - (self.rot_group[:half] % quad)) * gap
            tw = self.roots[idx]
            blocks = v.reshape(n // length, length)
            u = blocks[:, :half] + blocks[:, half:]
            w = (blocks[:, :half] - blocks[:, half:]) * tw
            blocks[:, :half] = u
            blocks[:, half:] = w
            v = self.fmt.quantize(blocks).reshape(n)
            length //= 2
        v = v[self.bit_rev]
        return self.fmt.quantize(v / n)

    def _checked(self, values: np.ndarray) -> np.ndarray:
        v = np.array(values, dtype=np.complex128)
        if v.shape != (self.slots,):
            raise ValueError(f"expected shape ({self.slots},), got {v.shape}")
        return v


def embedding_matrix(slots: int) -> np.ndarray:
    """Dense canonical-embedding matrix — the O(N^2) oracle for tests.

    Row ``j`` evaluates a folded-coefficient vector at ``zeta^{5^j}``:
    ``E[j, k] = zeta^{5^j * k}`` with ``zeta = exp(2*pi*i / M)`` raised to
    the same index arithmetic the fast kernels use, so
    ``forward(v) == E @ v`` exactly (up to float error).
    """
    m = 4 * slots
    zeta = np.exp(2j * np.pi / m)
    rot = np.empty(slots, dtype=np.int64)
    five = 1
    for j in range(slots):
        rot[j] = five
        five = (five * 5) % m
    k = np.arange(slots)
    return zeta ** (np.outer(rot, k) % m)

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
        rot_group: ``5^j mod M`` for ``j`` in ``[0, slots)``.
        bit_rev: the bit-reversal permutation of ``[0, slots)`` — a table,
            because building it (``log2(slots)`` shift/OR passes) costs a
            third to a half of a transform.
        forward_twiddles: per stage of :meth:`forward`, in the order it
            runs them, the ``half`` twiddles its blocks share — roots
            ``exp(2*pi*i*k / M)`` (``M = 4 * slots``) gathered once here,
            not per call.
        inverse_twiddles: the same for :meth:`inverse`.
    """

    slots: int
    fmt: FloatFormat
    rot_group: np.ndarray
    bit_rev: np.ndarray
    forward_twiddles: tuple[np.ndarray, ...]
    inverse_twiddles: tuple[np.ndarray, ...]

    @classmethod
    def create(cls, slots: int, fmt: FloatFormat = FP64) -> "SpecialFft":
        ilog2(slots)  # validates power of two
        m = 4 * slots
        roots = fmt.quantize(np.exp(2j * np.pi * np.arange(m) / m))
        rot_group = np.empty(slots, dtype=np.int64)
        five = 1
        for j in range(slots):
            rot_group[j] = five
            five = (five * 5) % m
        forward, inverse = [], []
        length = 2
        while length <= slots:
            quad = length * 4
            k = rot_group[: length // 2] % quad
            forward.append(roots[k * (m // quad)])
            inverse.append(roots[(quad - k) * (m // quad)])
            length *= 2
        return cls(
            slots=slots,
            fmt=fmt,
            rot_group=rot_group,
            bit_rev=bit_reverse_indices(slots),
            forward_twiddles=tuple(forward),
            inverse_twiddles=tuple(inverse[::-1]),
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

        Input and output are ``(..., slots)`` complex arrays; input is in
        the "folded coefficient" layout produced by :meth:`inverse`.
        """
        v = np.take(self._checked(values), self.bit_rev, axis=-1)
        scratch = np.empty(v.size // 2, dtype=np.complex128)
        for tw in self.forward_twiddles:  # shared across blocks
            blocks = v.reshape(-1, 2 * len(tw))
            lower, upper = blocks[:, : len(tw)], blocks[:, len(tw) :]
            w = np.multiply(upper, tw, out=scratch.reshape(upper.shape))
            np.subtract(lower, w, out=upper)
            lower += w
            v = self.fmt.quantize(v)  # in place on FP64: the same array
        return v

    # ------------------------------------------------------------------
    # Inverse (encode direction): slot values -> folded coefficients
    # ------------------------------------------------------------------

    def inverse(self, values: np.ndarray) -> np.ndarray:
        """Special IFFT: slot values -> folded coefficients (encode path).

        Leading axes are a batch: the stages run over every row at once
        (a butterfly block never spans two rows), so each row gets the
        bytes it would get alone — the quantization included.
        """
        v = self._checked(values)
        scratch = np.empty(v.size // 2, dtype=np.complex128)
        for tw in self.inverse_twiddles:
            blocks = v.reshape(-1, 2 * len(tw))
            lower, upper = blocks[:, : len(tw)], blocks[:, len(tw) :]
            diff = np.subtract(lower, upper, out=scratch.reshape(upper.shape))
            lower += upper
            np.multiply(diff, tw, out=upper)
            v = self.fmt.quantize(v)
        v = np.take(v, self.bit_rev, axis=-1)
        return self.fmt.quantize(v / self.slots)

    def _checked(self, values: np.ndarray) -> np.ndarray:
        v = np.array(values, dtype=np.complex128)
        if v.ndim < 1 or v.shape[-1] != self.slots:
            raise ValueError(f"expected shape (..., {self.slots}), got {v.shape}")
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

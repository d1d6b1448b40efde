"""CKKS encoder / decoder: messages <-> scaled integer polynomials.

Encoding (Fig. 2a, top path): message slots -> special IFFT -> fold the
complex output into 2*slots real coefficients -> scale by Δ and round ->
expand into RNS residues.  Decoding is the exact reverse (Combine CRT ->
unfold -> special FFT).

The rounding step produces ~72-bit integers under the paper's double-scale
Δ.  They are never materialized: a rounded double is a 53-bit mantissa
times a power of two, and "Expand RNS" reduces exactly that pair per limb
(:func:`~repro.rns.poly.float_coeff_rows`, the rows of
:meth:`RnsPolynomial.from_float_coeffs`) — the step the MSE hardware
performs on its FP55 words.  Decoding mirrors it: "Combine CRT" peels
Garner digits on the whole residue matrix and hands back correctly
rounded doubles (:meth:`RnsPolynomial.to_float_coeffs`), one path for
every level, with no per-coefficient integer CRT.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ckks.containers import Plaintext
from repro.ckks.params import CkksParameters
from repro.rns.basis import RnsBasis
from repro.rns.poly import COEFF, RnsPolynomial, float_coeff_rows
from repro.transforms.fft import SpecialFft

__all__ = ["CkksEncoder"]


@dataclass(frozen=True)
class CkksEncoder:
    """Encoder bound to one parameter set and RNS basis.

    Attributes:
        params: CKKS parameters (ring degree, scale, FP format).
        basis: the RNS modulus chain plaintexts are expanded onto.
        fft: the special FFT kernel, running in ``params.fp_format``.
    """

    params: CkksParameters
    basis: RnsBasis
    fft: SpecialFft

    @classmethod
    def create(cls, params: CkksParameters, basis: RnsBasis) -> "CkksEncoder":
        if basis.degree != params.degree:
            raise ValueError("basis degree does not match parameters")
        return cls(params=params, basis=basis, fft=SpecialFft.create(params.slots, params.fp_format))

    def encode(
        self,
        values: np.ndarray,
        level: int | None = None,
        scale: float | None = None,
    ) -> Plaintext:
        """Encode up to ``slots`` complex values into a plaintext.

        Shorter inputs are zero-padded.  ``scale`` defaults to the
        parameter set's Δ; ``level`` to the full chain.
        """
        scale = self.params.scale if scale is None else scale
        rows = self.encode_rows(np.ravel(values), level, scale)
        return Plaintext(poly=RnsPolynomial(self.basis, rows, COEFF), scale=scale)

    def encode_rows(
        self,
        values: np.ndarray,
        level: int | None = None,
        scale: float | None = None,
    ) -> np.ndarray:
        """:meth:`encode`'s arithmetic on a ``(..., <= slots)`` stack of
        messages: ``(..., level, N)`` coefficient rows, each leading index
        the rows :meth:`encode` gives its message alone.  Every stage —
        the special IFFT, the rounding, Expand-RNS — runs once over the
        whole stack.
        """
        level = self.params.top_level if level is None else level
        scale = self.params.scale if scale is None else scale
        slots = self.params.slots
        values = np.asarray(values, dtype=np.complex128)
        if values.shape[-1] > slots:
            raise ValueError(f"at most {slots} slots, got {values.shape[-1]}")
        if values.shape[-1] < slots:
            pad = [(0, 0)] * (values.ndim - 1) + [(0, slots - values.shape[-1])]
            values = np.pad(values, pad)

        folded = self.fft.inverse(values)
        # Unfold: coefficient k gets Re, coefficient k + slots gets Im.
        real_coeffs = np.concatenate([folded.real, folded.imag], axis=-1)
        return float_coeff_rows(self.basis, level, np.rint(real_coeffs * scale))

    def decode(self, plaintext: Plaintext) -> np.ndarray:
        """Decode a plaintext back to its complex slot values."""
        poly = plaintext.poly
        if poly.domain != "coeff":
            poly = poly.to_coeff()
        slots = self.params.slots
        coeffs = poly.to_float_coeffs()
        folded = (coeffs[:slots] + 1j * coeffs[slots:]) / plaintext.scale
        return self.fft.forward(folded)

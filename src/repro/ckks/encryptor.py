"""Encryption and decryption (the client-side hot paths of Fig. 2a).

Encrypt (public-key):  ``ct = (v*pk_b + m + e0,  v*pk_a + e1)`` with a
dense ternary mask ``v`` and Gaussian errors — all PRNG-expanded, exactly
the data the accelerator's on-chip PRNG unit generates instead of fetching
from DRAM.  The message and its error are added in the coefficient
domain and transformed together, so an encryption runs three NTTs
(``v``, ``m + e0``, ``e1``), not four — and it runs them *streamed*: the
draws are made once, then each block of limbs goes embed -> NTT ->
multiply-add -> output row while it sits in cache, the software shape of
the accelerator's one-limb-on-chip datapath.  No ``(level, N)``
intermediate is ever built.  The blocks are independent, so they are
spread over one lane per CPU, as the accelerator spreads limbs over its
parallel NTT lanes; the bytes do not depend on the lane count.

Decrypt: ``m' = c0 + c1*s`` (plus ``c2*s^2`` for unrelinearized
ciphertexts), streamed the same way: per block of limbs the products
with ``s`` and ``c0`` are summed into the output rows and those rows
are inverse-transformed in place, in lanes — again no ``(level, N)``
intermediate.  Decode follows on the encoder side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ckks.containers import Ciphertext, Plaintext
from repro.ckks.keys import PublicKey, SecretKey, expand_uniform_poly
from repro.ckks.params import CkksParameters
from repro.nums.kernels import in_lanes
from repro.prng.samplers import DiscreteGaussianSampler, TernarySampler
from repro.prng.xof import Xof
from repro.rns.basis import RnsBasis
from repro.rns.poly import COEFF, EVAL, RnsPolynomial, signed_embedder

__all__ = ["Encryptor", "Decryptor"]


@dataclass
class Encryptor:
    """Public-key encryptor with deterministic PRNG-derived randomness.

    Attributes:
        params: CKKS parameters.
        basis: RNS chain.
        public_key: the (b, a) pair.
        xof: randomness source; each ``encrypt`` call uses a distinct
            counter so repeated encryptions never share masks.
    """

    params: CkksParameters
    basis: RnsBasis
    public_key: PublicKey
    xof: Xof
    _counter: int = 0
    _gauss: DiscreteGaussianSampler = field(init=False)

    def __post_init__(self) -> None:
        self._gauss = DiscreteGaussianSampler(self.params.error_stddev)

    def _begin(self, plaintext: Plaintext, level: int | None) -> tuple[int, int]:
        """``(level, counter)`` of one encryption: the level checked, the
        counter this call's draws are domain-separated by."""
        level = plaintext.level if level is None else level
        if level > plaintext.level:
            raise ValueError("cannot encrypt above the plaintext's level")
        ctr = self._counter
        self._counter += 1
        return level, ctr

    def encrypt(self, plaintext: Plaintext, level: int | None = None) -> Ciphertext:
        """Encrypt a plaintext at the given level (default: plaintext's)."""
        level, ctr = self._begin(plaintext, level)
        n = self.basis.degree
        mask_sampler = TernarySampler(self.basis.moduli[0])
        v = mask_sampler.sample_signed(self.xof, b"enc-v", n, counter=ctr)
        e0 = self._gauss.sample_signed(self.xof, b"enc-e0", n, counter=ctr)
        e1 = self._gauss.sample_signed(self.xof, b"enc-e1", n, counter=ctr)
        pk = self.public_key
        parts = self._masked(plaintext, level, v, (pk.b, pk.a), (e0, e1))
        return Ciphertext(parts=parts, scale=plaintext.scale)

    def encrypt_symmetric_seeded(
        self, plaintext: Plaintext, secret: SecretKey, level: int | None = None
    ) -> tuple[Ciphertext, bytes]:
        """Symmetric encryption with a seed-shared ``c1``.

        Returns the ciphertext plus the 16-byte seed that regenerates
        ``c1``; only ``c0`` needs transmitting — the bandwidth trick the
        streaming accelerator exploits when writing fresh ciphertexts out
        over LPDDR5.
        """
        level, ctr = self._begin(plaintext, level)
        seed = self.xof.stream(b"sym-c1-seed", 16, counter=ctr)
        c1 = expand_uniform_poly(self.basis, level, Xof(seed), b"sym-c1")
        n = self.basis.degree
        e = self._gauss.sample_signed(self.xof, b"sym-e", n, counter=ctr)
        keys = (secret.at_level(level),)
        (c0,) = self._masked(plaintext, level, c1, keys, (e,), sign=-1)
        return Ciphertext(parts=[c0, c1], scale=plaintext.scale), seed

    def _masked(
        self,
        plaintext: Plaintext,
        level: int,
        mask: np.ndarray | RnsPolynomial,
        keys: tuple[RnsPolynomial, ...],
        errors: tuple[np.ndarray, ...],
        sign: int = 1,
    ) -> list[RnsPolynomial]:
        """``parts[k] = NTT(errors[k]) ± mask * keys[k]``, the message
        added to part 0 — both encryptions, streamed.

        ``mask`` is a signed coefficient vector (the public-key ``v``,
        transformed here) or an evaluation-domain polynomial (the seeded
        ``c1``).  Per block of limbs (:meth:`BatchNtt.blocks`): embed the
        mask and transform it; embed each error into its output rows, add
        a coefficient-domain message to ``e0`` *unreduced* (a once-added
        pair, which the transform accepts), transform in place, and add
        the product with the key rows while the transformed mask is still
        in cache.  Blocks are independent and run in lanes, one thread
        per CPU (:func:`~repro.nums.kernels.in_lanes`), each lane with its
        own scratch and writing only its own output rows.  The NTT is
        linear and every residue canonical, so the bytes are those of the
        composed ``v.to_eval() * b + (m + e0).to_eval()``, whatever the
        lane count; keys, message and outputs are row slices of full
        matrices, never copies.
        """
        basis, n = self.basis, self.basis.degree
        bat = basis.batch_ntt(level)
        message = plaintext.poly
        floor = min(basis.moduli[:level])
        embed_errors = [signed_embedder(e, floor) for e in errors]
        embed_mask = None
        if not isinstance(mask, RnsPolynomial):
            embed_mask = signed_embedder(mask, floor)
        outs = [np.empty((level, n), dtype=np.uint64) for _ in keys]

        def lane(blocks: list[slice]) -> None:
            width = blocks[0].stop - blocks[0].start
            scratch = np.empty((2, width, n), dtype=np.uint64)
            for rows in blocks:
                kern = basis.kernel_range(rows.start, rows.stop)
                count = rows.stop - rows.start
                product = scratch[1, :count]
                if embed_mask:
                    mask_hat = scratch[0, :count]
                    embed_mask(kern.q, mask_hat)
                    bat.forward_block(mask_hat[np.newaxis], rows)
                else:
                    mask_hat = mask.data[rows]
                for k, (embed, key, out) in enumerate(zip(embed_errors, keys, outs)):
                    part = out[rows]
                    embed(kern.q, part)
                    if k == 0 and message.domain == COEFF:
                        part += message.data[rows]
                    bat.forward_block(part[np.newaxis], rows)
                    if k == 0 and message.domain == EVAL:
                        kern.add(part, message.data[rows], out=part)
                    kern.mul(mask_hat, key.data[rows], out=product)
                    (kern.add if sign > 0 else kern.sub)(part, product, out=part)

        in_lanes(bat.blocks(), lane)
        return [RnsPolynomial(basis, out, EVAL) for out in outs]


@dataclass
class Decryptor:
    """Secret-key decryptor.

    Attributes:
        params: CKKS parameters.
        secret_key: the ternary secret in NTT form.
    """

    params: CkksParameters
    secret_key: SecretKey

    def decrypt(self, ciphertext: Ciphertext) -> Plaintext:
        """``m' = sum_i c_i * s^i``, returned in the coefficient domain.

        Streamed like :meth:`Encryptor._masked`: per block of limbs
        (:meth:`BatchNtt.blocks`, in lanes) Horner's rule ``(c2 * s + c1)
        * s + c0`` runs in the output rows, which are then
        inverse-transformed in place (:meth:`BatchNtt.inverse_block`).
        Every residue is canonical, so the bytes are those of the
        composed ``(c0 + c1 * s + c2 * s^2).to_coeff()``, whatever the
        lane count.  ``s`` is a prefix view at the ciphertext's level.
        """
        level, parts = ciphertext.level, ciphertext.parts
        s = self.secret_key.at_level(level)
        basis = s.basis
        if any(p.basis.moduli[:level] != basis.moduli[:level] for p in parts):
            raise ValueError("polynomials live on different bases")
        bat = basis.batch_ntt(level)
        out = np.empty((level, basis.degree), dtype=np.uint64)

        def lane(blocks: list[slice]) -> None:
            for rows in blocks:
                kern = basis.kernel_range(rows.start, rows.stop)
                acc = out[rows]
                higher = parts[-1].data[rows]
                for part in reversed(parts[:-1]):
                    kern.mul(higher, s.data[rows], out=acc)
                    kern.add(acc, part.data[rows], out=acc)
                    higher = acc
                bat.inverse_block(acc[np.newaxis], rows)

        in_lanes(bat.blocks(), lane)
        return Plaintext(poly=RnsPolynomial(basis, out, COEFF), scale=ciphertext.scale)

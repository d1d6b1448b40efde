"""Encryption and decryption (the client-side hot paths of Fig. 2a).

Encrypt (public-key):  ``ct = (v*pk_b + m + e0,  v*pk_a + e1)`` with a
dense ternary mask ``v`` and Gaussian errors — all PRNG-expanded, exactly
the data the accelerator's on-chip PRNG unit generates instead of fetching
from DRAM.  The message and its error are added in the coefficient
domain and transformed together, so an encryption runs three NTTs
(``v``, ``m + e0``, ``e1``), not four.

Decrypt: ``m' = c0 + c1*s`` (plus ``c2*s^2`` for unrelinearized
ciphertexts), followed by decode on the encoder side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ckks.containers import Ciphertext, Plaintext
from repro.ckks.keys import PublicKey, SecretKey, expand_uniform_poly
from repro.ckks.params import CkksParameters
from repro.prng.samplers import DiscreteGaussianSampler, TernarySampler
from repro.prng.xof import Xof
from repro.rns.basis import RnsBasis
from repro.rns.poly import COEFF, RnsPolynomial

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

    def encrypt(self, plaintext: Plaintext, level: int | None = None) -> Ciphertext:
        """Encrypt a plaintext at the given level (default: plaintext's)."""
        level = plaintext.level if level is None else level
        if level > plaintext.level:
            raise ValueError("cannot encrypt above the plaintext's level")
        ctr = self._counter
        self._counter += 1
        n = self.basis.degree

        mask_sampler = TernarySampler(self.basis.moduli[0])
        v_signed = mask_sampler.sample_signed(self.xof, b"enc-v", n, counter=ctr)
        v = RnsPolynomial.from_signed_coeffs(self.basis, level, v_signed).to_eval()
        e0 = RnsPolynomial.from_signed_coeffs(
            self.basis, level, self._gauss.sample_signed(self.xof, b"enc-e0", n, counter=ctr)
        )
        e1 = RnsPolynomial.from_signed_coeffs(
            self.basis, level, self._gauss.sample_signed(self.xof, b"enc-e1", n, counter=ctr)
        ).to_eval()

        # Polynomial arithmetic runs on the common limb prefix, so the
        # full-chain key and plaintext are sliced to ``level``, not copied.
        c0 = v * self.public_key.b + _noisy_message(plaintext, e0)
        c1 = v * self.public_key.a + e1
        return Ciphertext(parts=[c0, c1], scale=plaintext.scale)

    def encrypt_symmetric_seeded(
        self, plaintext: Plaintext, secret: SecretKey, level: int | None = None
    ) -> tuple[Ciphertext, bytes]:
        """Symmetric encryption with a seed-shared ``c1``.

        Returns the ciphertext plus the 16-byte seed that regenerates
        ``c1``; only ``c0`` needs transmitting — the bandwidth trick the
        streaming accelerator exploits when writing fresh ciphertexts out
        over LPDDR5.
        """
        level = plaintext.level if level is None else level
        if level > plaintext.level:
            raise ValueError("cannot encrypt above the plaintext's level")
        ctr = self._counter
        self._counter += 1
        seed = self.xof.stream(b"sym-c1-seed", 16, counter=ctr)
        c1 = expand_uniform_poly(self.basis, level, Xof(seed), b"sym-c1")
        e = RnsPolynomial.from_signed_coeffs(
            self.basis,
            level,
            self._gauss.sample_signed(self.xof, b"sym-e", self.basis.degree, counter=ctr),
        )
        c0 = -(c1 * secret.at_level(level)) + _noisy_message(plaintext, e)
        return Ciphertext(parts=[c0, c1], scale=plaintext.scale), seed


def _noisy_message(plaintext: Plaintext, error: RnsPolynomial) -> RnsPolynomial:
    """``NTT(m + e)`` on the error's limbs, with one transform.

    The NTT is linear and every residue canonical, so adding before the
    transform gives the same bytes as transforming ``m`` and ``e`` apart.
    """
    if plaintext.poly.domain == COEFF:
        return (plaintext.poly + error).to_eval()
    return plaintext.poly + error.to_eval()


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

        ``s`` is a prefix view at the ciphertext's level, so its powers
        (a 3-part ciphertext needs ``s^2``) are taken at that level too.
        """
        s = self.secret_key.at_level(ciphertext.level)
        acc = ciphertext.parts[0]
        s_power = None
        for part in ciphertext.parts[1:]:
            s_power = s if s_power is None else s_power * s
            acc = acc + part * s_power
        return Plaintext(poly=acc.to_coeff(), scale=ciphertext.scale)

"""Key material and key generation for CKKS.

Everything random is expanded from a 128-bit XOF seed, mirroring the
accelerator's on-chip PRNG strategy (Section IV-B):

* the public key's uniform component ``a`` is *seed-shared* — only its
  16-byte seed needs storing/transmitting, the polynomial is re-expanded
  on demand (this is what shrinks the 16.5 MB public-key footprint);
* errors come from the discrete Gaussian sampler;
* the secret is ternary (optionally sparse).

Relinearization / Galois keys use per-limb CRT-idempotent gadget
decomposition: limb ``j`` of the switching key encrypts
``idem_j * s_target`` where ``idem_j`` is the CRT idempotent of ``q_j`` in
the level's composite modulus, so ``sum_j [c]_{q_j} * idem_j ≡ c (mod Q)``
reconstructs exactly with small (one-limb-sized) digit coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.ckks.params import CkksParameters
from repro.prng.samplers import DiscreteGaussianSampler, TernarySampler, UniformSampler
from repro.prng.xof import Xof
from repro.rns.basis import RnsBasis
from repro.rns.poly import EVAL, RnsPolynomial

__all__ = [
    "SecretKey",
    "PublicKey",
    "SwitchingKey",
    "KeyGenerator",
    "expand_uniform_poly",
    "rotation_galois_elt",
]


@lru_cache(maxsize=None)
def rotation_galois_elt(steps: int, slots: int, two_n: int) -> int:
    """Memoized ``5^steps mod 2N`` — the automorphism behind a rotation.

    The single source of truth for the rotation -> Galois-element mapping,
    shared by key generation, the evaluator, and the bootstrap pre-warm.
    """
    return pow(5, steps % slots, two_n)


@dataclass
class SecretKey:
    """Ternary secret ``s``, stored in the NTT domain at full level."""

    poly: RnsPolynomial

    def at_level(self, level: int) -> RnsPolynomial:
        """Restriction of the secret to the first ``level`` limbs.

        A read-only view of the limb prefix, not a copy: every product
        with it allocates its own result.
        """
        if not 1 <= level <= self.poly.level:
            raise ValueError(f"level must be in [1, {self.poly.level}]")
        prefix = self.poly.data[:level]
        prefix.flags.writeable = False
        return RnsPolynomial(self.poly.basis, prefix, self.poly.domain)


@dataclass
class PublicKey:
    """Encryption key ``(b, a) = (-a*s + e, a)`` with seed-shared ``a``.

    Attributes:
        b: the masked component, NTT domain, full level.
        a_seed: 16-byte seed from which ``a`` is expanded per limb.
        a: the expanded uniform component (kept for convenience; a
            bandwidth-constrained client would re-expand from the seed).
    """

    b: RnsPolynomial
    a_seed: bytes
    a: RnsPolynomial


@dataclass
class SwitchingKey:
    """Key-switching key from some ``s_src`` to ``s`` at one level.

    ``pairs[j] = (b_j, a_j)`` with ``b_j = -a_j*s + e_j + idem_j * s_src``
    over the first ``level`` limbs, NTT domain.
    """

    level: int
    pairs: list[tuple[RnsPolynomial, RnsPolynomial]]
    _stacked: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    def stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """The key as two stacked ``(L, L, N)`` tensors ``(B, A)``.

        ``B[j] = b_j.data`` / ``A[j] = a_j.data`` — the layout the
        key-switch contraction walks digit row by digit row, as plain
        residues under every backend.  Built lazily, cached per key; from
        then on ``pairs`` are row views of the two tensors, so the key
        holds its residues once.
        """
        if self._stacked is None:
            b = np.stack([pair[0].data for pair in self.pairs])
            a = np.stack([pair[1].data for pair in self.pairs])
            b.setflags(write=False)
            a.setflags(write=False)
            self._stacked = (b, a)
            self.pairs = [
                (
                    RnsPolynomial(b_j.basis, b[j], b_j.domain),
                    RnsPolynomial(a_j.basis, a[j], a_j.domain),
                )
                for j, (b_j, a_j) in enumerate(self.pairs)
            ]
        return self._stacked


def expand_uniform_poly(
    basis: RnsBasis, level: int, xof: Xof, domain: bytes
) -> RnsPolynomial:
    """Expand a uniform NTT-domain polynomial limb-by-limb from a seed.

    Sampling directly in the evaluation domain is uniform-preserving (the
    NTT is a bijection), which is exactly what hardware does to skip a
    transform.
    """
    rows = []
    for i, q in enumerate(basis.moduli[:level]):
        sampler = UniformSampler(q)
        rows.append(sampler.sample(xof, domain + b"|limb%d" % i, basis.degree))
    return RnsPolynomial(basis, np.stack(rows), EVAL)


@dataclass
class KeyGenerator:
    """Derives all key material from one master XOF.

    Attributes:
        params: CKKS parameters.
        basis: RNS modulus chain.
        xof: master PRNG; children are derived per purpose so streams
            never collide.
    """

    params: CkksParameters
    basis: RnsBasis
    xof: Xof
    _gauss: DiscreteGaussianSampler = field(init=False)

    def __post_init__(self) -> None:
        self._gauss = DiscreteGaussianSampler(self.params.error_stddev)

    def _error_poly(self, level: int, domain: bytes) -> RnsPolynomial:
        signed = self._gauss.sample_signed(self.xof, domain, self.basis.degree)
        return RnsPolynomial.from_signed_coeffs(self.basis, level, signed)

    def gen_secret(self) -> SecretKey:
        """Sample the ternary secret and lift it to the NTT domain."""
        sampler = TernarySampler(
            self.basis.moduli[0], hamming_weight=self.params.secret_hamming_weight
        )
        signed = sampler.sample_signed(self.xof, b"secret", self.basis.degree)
        poly = RnsPolynomial.from_signed_coeffs(
            self.basis, self.basis.num_primes, signed
        )
        return SecretKey(poly=poly.to_eval())

    def gen_public(self, sk: SecretKey) -> PublicKey:
        """Sample ``a`` from a published seed and mask it with the secret."""
        a_seed = self.xof.stream(b"pk-a-seed", 16)
        a = expand_uniform_poly(self.basis, self.basis.num_primes, Xof(a_seed), b"pk-a")
        e = self._error_poly(self.basis.num_primes, b"pk-e").to_eval()
        b = -(a * sk.poly) + e
        return PublicKey(b=b, a_seed=a_seed, a=a)

    def gen_switching_key(
        self, sk: SecretKey, source: RnsPolynomial, level: int, tag: bytes
    ) -> SwitchingKey:
        """Key-switching key taking ``source`` (NTT domain) onto ``sk``.

        Uses CRT-idempotent gadgets: ``idem_j ≡ 1 (mod q_j)``,
        ``≡ 0 (mod q_i, i != j)`` over the level's composite modulus.
        """
        if source.domain != EVAL:
            raise ValueError("source secret must be in the NTT domain")
        crt = self.basis.crt(level)
        pairs: list[tuple[RnsPolynomial, RnsPolynomial]] = []
        src = source.drop_limbs(level)
        for j, q_j in enumerate(self.basis.moduli[:level]):
            idem = crt.q_hat[j] * crt.q_hat_inv[j]  # CRT idempotent, big int
            a_j = expand_uniform_poly(
                self.basis, level, self.xof.derive(tag + b"|a%d" % j), tag
            )
            e_j = self._error_poly(level, tag + b"|e%d" % j).to_eval()
            idem_residues = [idem % q for q in self.basis.moduli[:level]]
            b_j = -(a_j * sk.at_level(level)) + e_j + src.scale_scalar(idem_residues)
            pairs.append((b_j, a_j))
        return SwitchingKey(level=level, pairs=pairs)

    def gen_relin(self, sk: SecretKey, levels: list[int]) -> dict[int, SwitchingKey]:
        """Relinearization keys (s^2 -> s) for each requested level."""
        s_squared = sk.poly * sk.poly
        return {
            lvl: self.gen_switching_key(sk, s_squared, lvl, b"relin-l%d" % lvl)
            for lvl in levels
        }

    def gen_conjugation(
        self, sk: SecretKey, levels: list[int]
    ) -> dict[int, SwitchingKey]:
        """Keys for complex conjugation (the Galois element X -> X^{-1}).

        Conjugating all message slots is the automorphism by ``2N - 1``;
        bootstrapping's CoeffToSlot needs it to split real and imaginary
        coefficient parts.
        """
        conj_elt = 2 * self.basis.degree - 1
        # EVAL-domain automorphism: a pure slot permutation, no NTT trip.
        s_conj = sk.poly.automorphism(conj_elt)
        return {
            lvl: self.gen_switching_key(sk, s_conj, lvl, b"conj-l%d" % lvl)
            for lvl in levels
        }

    def gen_galois(
        self, sk: SecretKey, rotations: list[int], levels: list[int]
    ) -> dict[tuple[int, int], SwitchingKey]:
        """Galois keys for slot rotations.

        Rotation by ``r`` slots corresponds to the automorphism
        ``X -> X^{5^r mod 2N}``; the returned dict is keyed by
        ``(rotation, level)``.
        """
        out: dict[tuple[int, int], SwitchingKey] = {}
        two_n = 2 * self.basis.degree
        for r in rotations:
            galois_elt = rotation_galois_elt(r, self.params.slots, two_n)
            s_rot = sk.poly.automorphism(galois_elt)
            for lvl in levels:
                out[(r, lvl)] = self.gen_switching_key(
                    sk, s_rot, lvl, b"galois-r%d-l%d" % (r, lvl)
                )
        return out

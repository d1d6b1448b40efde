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

One key per automorphism serves every level at or below its own: the
idempotent of ``q_j`` in ``Q_L``, taken mod ``Q_ℓ`` (``j < ℓ <= L``), is
``≡ 1 (mod q_j)`` and ``≡ 0`` mod every other ``q_i`` of ``Q_ℓ`` — the
idempotent of ``q_j`` in ``Q_ℓ``.  So the first ``ℓ`` digits of a
level-``L`` key, restricted to their first ``ℓ`` limbs, *are* a level-``ℓ``
key, and a level-``ℓ`` switch reads the ``[:ℓ, :ℓ]`` prefix of the top
key's tensors instead of a key of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.ckks.params import CkksParameters
from repro.prng.samplers import DiscreteGaussianSampler, TernarySampler, UniformSampler
from repro.prng.xof import Xof
from repro.rns.basis import RnsBasis
from repro.rns.poly import EVAL, RnsPolynomial, signed_embedder
from repro.transforms.ntt import BatchNtt

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


@dataclass(frozen=True, eq=False)
class SwitchingKey:
    """Key-switching key from some ``s_src`` to ``s``, born stacked.

    ``b[j]`` / ``a[j]`` are digit ``j``'s ``(L, N)`` NTT-domain residue
    rows, ``b_j = -a_j*s + e_j + idem_j * s_src``: two read-only
    ``(L, L, N)`` tensors, the layout the key-switch contraction walks
    digit row by digit row, as plain residues.  The key reaches every
    level ``ℓ <= level`` through its ``[:ℓ, :ℓ]`` prefix (see the module
    docstring).
    """

    basis: RnsBasis
    b: np.ndarray = field(repr=False)
    a: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.b.flags.writeable = False
        self.a.flags.writeable = False

    @property
    def level(self) -> int:
        return self.b.shape[0]

    @property
    def pairs(self) -> tuple[tuple[RnsPolynomial, RnsPolynomial], ...]:
        """Digit ``j``'s ``(b_j, a_j)`` as polynomials: read-only row views."""
        return tuple(
            (RnsPolynomial(self.basis, b_j, EVAL), RnsPolynomial(self.basis, a_j, EVAL))
            for b_j, a_j in zip(self.b, self.a)
        )


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
        ``≡ 0 (mod q_i, i != j)`` over the level's composite modulus, so
        ``idem_j * source`` is ``source``'s limb ``j`` on digit ``j``'s
        own row and zero elsewhere.  The key is built as two tensors
        (:meth:`_switching_keys`, a stack of one).
        """
        (key,) = self._switching_keys(sk, [source], level, [tag])
        return key

    def _switching_keys(
        self, sk: SecretKey, sources: list[RnsPolynomial], level: int, tags: list[bytes]
    ) -> list[SwitchingKey]:
        """One switching key per ``(source, tag)``, built as one stack.

        Every digit's uniform ``a_j`` is drawn into the ``(K, L, L, N)``
        stack ``a`` and its error embedded straight into ``b``, one
        forward transform takes all of ``b`` — every key's — to the NTT
        domain in place (limb blocks across the stack, so a stack of
        several keys runs in lanes where one key's ``b`` is one block),
        and each key's ``b = e - a*s + idem ⊗ source`` is formed by
        whole-tensor kernel calls (in digit blocks of the transform's
        block size, so the product's temporaries stay a block at any
        shape).  Every XOF stream is domain-separated, so the draws are
        those of building the keys, and their digits, one by one.  Key
        ``k`` holds row ``k`` of both stacks: views, not copies.
        """
        if any(source.domain != EVAL for source in sources):
            raise ValueError("source secret must be in the NTT domain")
        n = self.basis.degree
        kern = self.basis.kernel(level)
        b = np.empty((len(sources), level, level, n), dtype=np.uint64)
        a = np.empty_like(b)
        min_modulus = min(self.basis.moduli[:level])
        for k, tag in enumerate(tags):
            for j in range(level):
                child = self.xof.derive(tag + b"|a%d" % j)
                a[k, j] = expand_uniform_poly(self.basis, level, child, tag).data
                errors = self._gauss.sample_signed(self.xof, tag + b"|e%d" % j, n)
                signed_embedder(errors, min_modulus)(kern.q, b[k, j])
        self.basis.batch_ntt(level).forward(b, out=b)
        s = sk.at_level(level).data
        own = np.arange(level)
        for k, source in enumerate(sources):
            b_k, a_k = b[k], a[k]
            for digits in BatchNtt.row_blocks(level, b_k[0].nbytes):
                kern.sub(b_k[digits], kern.mul(a_k[digits], s), out=b_k[digits])
            b_k[own, own] = kern.add(b_k[own, own], source.data[:level])
        return [SwitchingKey(self.basis, b_k, a_k) for b_k, a_k in zip(b, a)]

    def gen_relin(self, sk: SecretKey, levels: list[int]) -> dict[int, SwitchingKey]:
        """One relinearization key (s^2 -> s), at the top requested level,
        listed under every requested level."""
        top = _top_level(levels)
        key = self.gen_switching_key(sk, sk.poly * sk.poly, top, b"relin-l%d" % top)
        return dict.fromkeys(levels, key)

    def gen_conjugation(
        self, sk: SecretKey, levels: list[int]
    ) -> dict[int, SwitchingKey]:
        """One key for complex conjugation (the Galois element X -> X^{-1}),
        at the top requested level, listed under every requested level.

        Conjugating all message slots is the automorphism by ``2N - 1``;
        bootstrapping's CoeffToSlot needs it to split real and imaginary
        coefficient parts.
        """
        top = _top_level(levels)
        # EVAL-domain automorphism: a pure slot permutation, no NTT trip.
        s_conj = sk.poly.automorphism(2 * self.basis.degree - 1)
        key = self.gen_switching_key(sk, s_conj, top, b"conj-l%d" % top)
        return dict.fromkeys(levels, key)

    def gen_galois(
        self, sk: SecretKey, rotations: list[int], levels: list[int]
    ) -> dict[tuple[int, int], SwitchingKey]:
        """Galois keys for slot rotations, one per rotation at the top
        requested level.

        Rotation by ``r`` slots corresponds to the automorphism
        ``X -> X^{5^r mod 2N}``; the returned dict is keyed by
        ``(rotation, level)``, every level of a rotation naming its key.
        The keys are built in near-equal stacks (:meth:`_switching_keys`)
        of at most as many as one transform block holds a limb row of
        each: eleven at ``(2^10, L = 10)``, whose stacked transform is ten
        one-limb blocks; one at the paper's shape, where a key alone is
        many.
        """
        top = _top_level(levels)
        out: dict[tuple[int, int], SwitchingKey] = {}
        two_n = 2 * self.basis.degree
        limb_row = top * self.basis.degree * 8  # one key's b, one limb
        for keys in BatchNtt.row_blocks(len(rotations), limb_row):
            stack = rotations[keys]
            sources = [
                sk.poly.automorphism(rotation_galois_elt(r, self.params.slots, two_n))
                for r in stack
            ]
            tags = [b"galois-r%d-l%d" % (r, top) for r in stack]
            for r, key in zip(stack, self._switching_keys(sk, sources, top, tags)):
                out.update(((r, lvl), key) for lvl in levels)
        return out


def _top_level(levels: list[int]) -> int:
    """The level a key set is generated at: the highest one requested."""
    if not levels:
        raise ValueError("levels must name at least one level to generate keys at")
    return max(levels)

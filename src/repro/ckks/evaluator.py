"""Homomorphic operations (the server-side counterpart, for end-to-end use).

ABC-FHE itself accelerates only the client side, but a usable library —
and the Fig. 1 end-to-end breakdown — needs the server's homomorphic
add / multiply / relinearize / rescale / rotate, so they are implemented
here with the same RNS substrate.

Key switching goes through the batched, hoisting-aware
:class:`~repro.ckks.keyswitch.KeySwitchEngine`: per-limb CRT-idempotent
digits (decomposing a polynomial into its residue rows keeps each digit
below one prime, so the switching noise stays ~q_j-sized rather than
Q-sized), stacked into one ``(L, L, N)`` tensor and contracted against the
key with fused multiply-accumulates.  Rotations and conjugations apply
their Galois automorphisms directly on NTT-domain data (a slot
permutation, zero transform round trips) and can *hoist* — decompose a
ciphertext once, then rotate-and-switch against many keys — which is what
the BSGS linear layer and bootstrapping exploit.  Multi-prime rescaling is
fused and stays in the evaluation domain: ``times`` primes are divided
out in one pass that inverse-transforms only the dropped limbs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.ckks.containers import Ciphertext, Plaintext
from repro.ckks.keys import SwitchingKey, rotation_galois_elt
from repro.ckks.keyswitch import DecomposedPoly, KeySwitchEngine
from repro.ckks.params import CkksParameters
from repro.nums.kernels import ufunc_buffer
from repro.rns.basis import RnsBasis
from repro.rns.poly import EVAL, RnsPolynomial, rescale_eval_rows

__all__ = ["Evaluator", "SCALE_RTOL"]

#: Relative tolerance under which two ciphertext scales count as aligned.
#: Shared with the runtime's trace/plan-time checker
#: (:mod:`repro.runtime.trace`) so lazy and eager programs agree on what
#: "mismatched" means.
SCALE_RTOL = 1e-9


@dataclass
class Evaluator:
    """Stateless homomorphic evaluator over one parameter set.

    Attributes:
        params: CKKS parameters.
        basis: the shared RNS chain.
        keyswitch: the batched key-switching engine (built at init).
    """

    params: CkksParameters
    basis: RnsBasis
    keyswitch: KeySwitchEngine = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.keyswitch = KeySwitchEngine(self.basis)

    # ------------------------------------------------------------------
    # Linear operations
    # ------------------------------------------------------------------

    @ufunc_buffer()
    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Slot-wise addition; scales must match."""
        self._check_scales(a, b, op="add")
        lvl = min(a.level, b.level)
        n = max(a.size, b.size)
        parts = []
        for i in range(n):
            pa = a.parts[i].drop_limbs(lvl) if i < a.size else None
            pb = b.parts[i].drop_limbs(lvl) if i < b.size else None
            if pa is None:
                parts.append(pb)
            elif pb is None:
                parts.append(pa)
            else:
                parts.append(pa + pb)
        return Ciphertext(parts=parts, scale=a.scale)

    @ufunc_buffer()
    def sub(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Slot-wise subtraction; scales must match."""
        self._check_scales(a, b, op="sub")
        neg = Ciphertext(parts=[-p for p in b.parts], scale=b.scale)
        return self.add(a, neg)

    @ufunc_buffer()
    def negate(self, a: Ciphertext) -> Ciphertext:
        return Ciphertext(parts=[-p for p in a.parts], scale=a.scale)

    @ufunc_buffer()
    def add_plain(self, ct: Ciphertext, pt: Plaintext) -> Ciphertext:
        """Add an encoded plaintext (scales must match)."""
        if not math.isclose(ct.scale, pt.scale, rel_tol=SCALE_RTOL):
            raise ValueError(
                f"add_plain: scale mismatch: ciphertext scale {ct.scale:g} "
                f"(level {ct.level}) vs plaintext scale {pt.scale:g} "
                f"(level {pt.level}); re-encode the plaintext at the "
                f"ciphertext's scale"
            )
        m = pt.poly.drop_limbs(ct.level).to_eval()
        parts = [ct.parts[0] + m] + [p.copy() for p in ct.parts[1:]]
        return Ciphertext(parts=parts, scale=ct.scale)

    @ufunc_buffer()
    def multiply_plain(self, ct: Ciphertext, pt: Plaintext) -> Ciphertext:
        """Multiply by an encoded plaintext; output scale is the product."""
        m = pt.poly.drop_limbs(ct.level).to_eval()
        parts = [p * m for p in ct.parts]
        return Ciphertext(parts=parts, scale=ct.scale * pt.scale)

    # ------------------------------------------------------------------
    # Multiplication / relinearization / rescaling
    # ------------------------------------------------------------------

    @ufunc_buffer()
    def multiply(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Tensor product of two degree-1 ciphertexts (3 parts, pre-relin)."""
        if a.size != 2 or b.size != 2:
            raise ValueError("multiply expects relinearized (2-part) inputs")
        lvl = min(a.level, b.level)
        a0, a1 = (p.drop_limbs(lvl) for p in a.parts)
        b0, b1 = (p.drop_limbs(lvl) for p in b.parts)
        return Ciphertext(
            parts=[a0 * b0, a0 * b1 + a1 * b0, a1 * b1],
            scale=a.scale * b.scale,
        )

    @ufunc_buffer()
    def relinearize(self, ct: Ciphertext, relin_keys: dict[int, SwitchingKey]) -> Ciphertext:
        """Fold the quadratic part back to degree 1 using the level's key."""
        if ct.size == 2:
            return ct.copy()
        if ct.size != 3:
            raise ValueError(f"can only relinearize 3-part ciphertexts, got {ct.size}")
        key = relin_keys.get(ct.level)
        if key is None:
            raise KeyError(f"no relinearization key for level {ct.level}")
        ks0, ks1 = self.keyswitch.switch(ct.parts[2], key)
        return Ciphertext(
            parts=[ct.parts[0] + ks0, ct.parts[1] + ks1], scale=ct.scale
        )

    @ufunc_buffer()
    def rescale(self, ct: Ciphertext, times: int = 1) -> Ciphertext:
        """Drop ``times`` primes, dividing the scale accordingly.

        Under the double-scale technique a multiplication is followed by
        ``times = 2`` rescalings (Section V-B's 36-bit primes).  All parts
        are divided by all ``times`` primes in one call, in the evaluation
        domain (:func:`repro.rns.poly.rescale_eval_rows`): only the dropped
        limbs are inverse-transformed and only the kept ones forward —
        ``parts * (times + L - times)`` NTT rows, 20 for a 2-part level-10
        ciphertext by two primes where a coefficient round trip costs 36 —
        with the bytes of :meth:`repro.rns.poly.RnsPolynomial.rescale`.
        """
        if times == 0:
            return Ciphertext(parts=list(ct.parts), scale=ct.scale)
        lvl = ct.level
        scale = ct.scale
        for t in range(times):
            scale /= self.basis.moduli[lvl - 1 - t]
        stacked = np.stack([p.data for p in ct.parts])
        rows = rescale_eval_rows(self.basis, stacked, times)
        parts = [RnsPolynomial(self.basis, part, EVAL) for part in rows]
        return Ciphertext(parts=parts, scale=scale)

    def multiply_relin_rescale(
        self, a: Ciphertext, b: Ciphertext, relin_keys: dict[int, SwitchingKey]
    ) -> Ciphertext:
        """The standard multiply pipeline: tensor, relinearize, rescale x2."""
        prod = self.relinearize(self.multiply(a, b), relin_keys)
        return self.rescale(prod, times=self.params.levels_per_multiplication)

    # ------------------------------------------------------------------
    # Rotations
    # ------------------------------------------------------------------

    def decompose(self, ct: Ciphertext) -> DecomposedPoly:
        """Hoist a ciphertext's c1 decomposition for reuse across rotations.

        Pass the result as ``decomposed=`` to :meth:`rotate` /
        :meth:`apply_galois`: the expensive digit expansion (inverse NTT +
        batched forward NTT) runs once, each rotation then costs only a
        slot permutation plus the key contraction.
        """
        if ct.size != 2:
            raise ValueError("hoisting expects relinearized (2-part) ciphertexts")
        return self.keyswitch.decompose(ct.parts[1])

    def rotate(
        self,
        ct: Ciphertext,
        steps: int,
        galois_keys: dict[tuple[int, int], SwitchingKey],
        decomposed: DecomposedPoly | None = None,
    ) -> Ciphertext:
        """Cyclically rotate message slots by ``steps`` positions."""
        key = galois_keys.get((steps, ct.level))
        if key is None:
            raise KeyError(f"no Galois key for rotation {steps} at level {ct.level}")
        galois_elt = rotation_galois_elt(
            steps, self.params.slots, 2 * self.basis.degree
        )
        return self.apply_galois(ct, galois_elt, key, decomposed=decomposed)

    def conjugate(
        self, ct: Ciphertext, conj_keys: dict[int, SwitchingKey]
    ) -> Ciphertext:
        """Complex-conjugate every slot (automorphism X -> X^{-1})."""
        key = conj_keys.get(ct.level)
        if key is None:
            raise KeyError(f"no conjugation key at level {ct.level}")
        return self.apply_galois(ct, 2 * self.basis.degree - 1, key)

    @ufunc_buffer()
    def apply_galois(
        self,
        ct: Ciphertext,
        galois_elt: int,
        key: SwitchingKey,
        decomposed: DecomposedPoly | None = None,
    ) -> Ciphertext:
        """Apply an arbitrary Galois automorphism and switch back to s.

        Ciphertext parts stay in the NTT domain throughout: the
        automorphism is an EVAL-domain slot permutation (zero NTT round
        trips), and the key switch runs on the hoisted decomposition when
        one is supplied.
        """
        if ct.size != 2:
            raise ValueError("relinearize before applying automorphisms")
        engine = self.keyswitch
        c0r = ct.parts[0].automorphism(galois_elt)
        dec = decomposed if decomposed is not None else engine.decompose(ct.parts[1])
        ks0, ks1 = engine.apply(engine.permute(dec, galois_elt), key)
        return Ciphertext(parts=[c0r + ks0, ks1], scale=ct.scale)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _check_scales(self, a: Ciphertext, b: Ciphertext, *, op: str = "op") -> None:
        """Raise with full provenance when operand scales are misaligned.

        The message names the op and both operands' (level, scale) so a
        failing pipeline can be located without re-running under a
        debugger; the runtime's plan-time checker emits the same shape of
        message with the producing graph nodes attached.
        """
        if not math.isclose(a.scale, b.scale, rel_tol=SCALE_RTOL):
            raise ValueError(
                f"{op}: scale mismatch: lhs scale {a.scale:g} (level "
                f"{a.level}, {a.size} parts) vs rhs scale {b.scale:g} "
                f"(level {b.level}, {b.size} parts); rescale first"
            )

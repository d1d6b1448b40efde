"""Homomorphic operations (the server-side counterpart, for end-to-end use).

ABC-FHE itself accelerates only the client side, but a usable library —
and the Fig. 1 end-to-end breakdown — needs the server's homomorphic
add / multiply / relinearize / rescale / rotate, so they are implemented
here with the same RNS substrate.

Each op's arithmetic is one module-level *row function*: given a
kernel, the operands' ``(L, N)`` part rows, the op's bound data and the
output rows ``outs``, it reads the operands' limbs below
``len(outs[0])`` (a rescale, :func:`~repro.rns.poly.rescale_eval_rows`,
also the ones it drops) and writes ``outs``.  An :class:`Evaluator`
method checks its operands, allocates the result and makes one call;
the runtime's fused replayer binds the same function to arena views, so
each op is one kernel sequence.

Key switching goes through the batched
:class:`~repro.ckks.keyswitch.KeySwitchEngine`; automorphisms are
evaluation-domain slot permutations, and rescaling inverse-transforms
only the dropped limbs.  Each eager rotation decomposes its own
operand; rotations share one decomposition (hoisting) only in the
runtime's fused replay, whose rotation families hand
:func:`galois_rows` a slice of one batched decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.ckks.containers import Ciphertext, Plaintext
from repro.ckks.keys import SwitchingKey, rotation_galois_elt
from repro.ckks.keyswitch import KeySwitchEngine
from repro.ckks.params import CkksParameters
from repro.nums.kernels import ufunc_buffer
from repro.rns.basis import RnsBasis
from repro.rns.poly import EVAL, RnsPolynomial, rescale_eval_rows
from repro.transforms.ntt import galois_permutation

__all__ = ["Evaluator", "SCALE_RTOL"]

#: Relative tolerance under which two ciphertext scales count as aligned.
#: Shared with the runtime's trace/plan-time checker
#: (:mod:`repro.runtime.trace`) so lazy and eager programs agree on what
#: "mismatched" means.
SCALE_RTOL = 1e-9


def add_rows(kern, a, b, outs, subtract: bool = False) -> None:
    """``a + b``, or ``a - b``; a part only one operand has is copied
    (negated when it is ``b``'s and ``subtract``)."""
    lvl = len(outs[0])
    for i, out in enumerate(outs):
        if i < len(a) and i < len(b):
            # kern.sub == add(a, neg(b)) by canonicity.
            (kern.sub if subtract else kern.add)(a[i][:lvl], b[i][:lvl], out=out)
        elif i < len(a):
            np.copyto(out, a[i][:lvl])
        elif subtract:
            kern.neg(b[i][:lvl], out=out)
        else:
            np.copyto(out, b[i][:lvl])


def negate_rows(kern, a, outs) -> None:
    for p, out in zip(a, outs):
        kern.neg(p[: len(out)], out=out)


def add_plain_rows(kern, a, m, outs) -> None:
    """``a + m`` for a plaintext's rows ``m`` (:func:`plain_rows`)."""
    lvl = len(outs[0])
    kern.add(a[0][:lvl], m, out=outs[0])
    for p, out in zip(a[1:], outs[1:]):
        np.copyto(out, p[:lvl])


def multiply_plain_rows(kern, a, m_pre, outs) -> None:
    """``a * m`` for ``m_pre = kern.pre(m)`` (:func:`plain_rows`)."""
    for p, out in zip(a, outs):
        kern.mul_pre(p[: len(out)], m_pre, out=out)


def multiply_rows(kern, a, b, outs) -> None:
    """The tensor product ``(a0 b0, a0 b1 + a1 b0, a1 b1)``."""
    lvl = len(outs[0])
    a0, a1, b0, b1 = a[0][:lvl], a[1][:lvl], b[0][:lvl], b[1][:lvl]
    kern.mul(a0, b0, out=outs[0])
    kern.add(kern.mul(a0, b1), kern.mul(a1, b0), out=outs[1])
    kern.mul(a1, b1, out=outs[2])


def relinearize_rows(kern, engine: KeySwitchEngine, a, key, outs) -> None:
    """Switch part 2 through ``key`` onto parts 0 and 1."""
    lvl = len(outs[0])
    ks0, ks1 = engine.contract(engine.decompose_rows(a[2][:lvl]), key)
    kern.add(a[0][:lvl], ks0, out=outs[0])
    kern.add(a[1][:lvl], ks1, out=outs[1])


def galois_rows(kern, engine: KeySwitchEngine, a, key, perm, outs, dec=None) -> None:
    """``X -> X^k`` (slot permutation ``perm``) on a 2-part ciphertext,
    switched back by ``key``; ``dec``: part 1's decomposition, when a
    fused rotation family shares one (computed here otherwise — the same
    digits either way, since they are taken before the permutation).

    ``perm`` is folded into the contraction's row gather, so the digits
    are those of part 1 itself, permuted: a sign-flipped coefficient is
    the signed digit ``-d`` (|d| < q_j) on every limb, a valid gadget
    digit of the same bound as the ``q_j - d`` that decomposing the
    permuted part would give.  Every path takes the digits before the
    permutation (hoisting), so an eager rotation, the interpreter and a
    fused family give equal bytes.
    """
    lvl = len(outs[0])
    if dec is None:
        dec = engine.decompose_rows(a[1][:lvl])
    ks0, _ = engine.contract(dec, key, perm=perm, out1=outs[1])
    kern.add(np.take(a[0][:lvl], perm, axis=-1), ks0, out=outs[0])


def plain_rows(pt: Plaintext, level: int, kern=None) -> np.ndarray:
    """``pt``'s evaluation rows at ``level`` (pre-formed given the level's
    kernel): every caller's plaintext operand, eager or fused.  An
    evaluation-domain plaintext's rows are a view of its own — no caller
    writes them — so a fused plan binds its diagonals without a copy."""
    poly = pt.poly
    if poly.domain == EVAL:
        m = poly.data[:level]
    else:
        m = poly.drop_limbs(level).to_eval().data
    return m if kern is None else kern.pre(m)


def _rows(ct: Ciphertext) -> list[np.ndarray]:
    return [p.data for p in ct.parts]


def _check_reaches(op: str, ct: Ciphertext, pt: Plaintext) -> None:
    if pt.level < ct.level:
        raise ValueError(
            f"{op}: plaintext at level {pt.level} cannot reach ciphertext "
            f"level {ct.level}"
        )


def _check_key(op: str, key: SwitchingKey, ct: Ciphertext) -> None:
    if key.level < ct.level:
        raise ValueError(
            f"{op}: switching key at level {key.level} cannot reach operand "
            f"level {ct.level}"
        )


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
        return self._add(a, b, "add")

    @ufunc_buffer()
    def sub(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Slot-wise subtraction; scales must match."""
        return self._add(a, b, "sub")

    @ufunc_buffer()
    def negate(self, a: Ciphertext) -> Ciphertext:
        return self._run(negate_rows, a.size, a.level, a.scale, _rows(a))

    @ufunc_buffer()
    def add_plain(self, ct: Ciphertext, pt: Plaintext) -> Ciphertext:
        """Add an encoded plaintext (scales must match)."""
        _check_reaches("add_plain", ct, pt)
        if not math.isclose(ct.scale, pt.scale, rel_tol=SCALE_RTOL):
            raise ValueError(
                f"add_plain: scale mismatch: ciphertext scale {ct.scale:g} "
                f"(level {ct.level}) vs plaintext scale {pt.scale:g} "
                f"(level {pt.level}); re-encode the plaintext at the "
                f"ciphertext's scale"
            )
        m = plain_rows(pt, ct.level)
        return self._run(add_plain_rows, ct.size, ct.level, ct.scale, _rows(ct), m)

    @ufunc_buffer()
    def multiply_plain(self, ct: Ciphertext, pt: Plaintext) -> Ciphertext:
        """Multiply by an encoded plaintext; output scale is the product."""
        _check_reaches("multiply_plain", ct, pt)
        m_pre = plain_rows(pt, ct.level, self.basis.kernel(ct.level))
        scale = ct.scale * pt.scale
        return self._run(multiply_plain_rows, ct.size, ct.level, scale, _rows(ct), m_pre)

    # ------------------------------------------------------------------
    # Multiplication / relinearization / rescaling
    # ------------------------------------------------------------------

    @ufunc_buffer()
    def multiply(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Tensor product of two degree-1 ciphertexts (3 parts, pre-relin)."""
        if a.size != 2 or b.size != 2:
            raise ValueError("multiply expects relinearized (2-part) inputs")
        lvl, scale = min(a.level, b.level), a.scale * b.scale
        return self._run(multiply_rows, 3, lvl, scale, _rows(a), _rows(b))

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
        _check_key("relinearize", key, ct)
        args = (self.keyswitch, _rows(ct), key)
        return self._run(relinearize_rows, 2, ct.level, ct.scale, *args)

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
        lvl = ct.level - times
        if lvl < 1:
            raise ValueError(f"cannot rescale {times} primes from level {ct.level}")
        scale = ct.scale
        for q in reversed(self.basis.moduli[lvl : ct.level]):
            scale /= q
        args = (self.basis, _rows(ct), times)
        return self._run(rescale_eval_rows, ct.size, lvl, scale, *args)

    def multiply_relin_rescale(
        self, a: Ciphertext, b: Ciphertext, relin_keys: dict[int, SwitchingKey]
    ) -> Ciphertext:
        """The standard multiply pipeline: tensor, relinearize, rescale x2."""
        prod = self.relinearize(self.multiply(a, b), relin_keys)
        return self.rescale(prod, times=self.params.levels_per_multiplication)

    # ------------------------------------------------------------------
    # Rotations
    # ------------------------------------------------------------------

    def rotate(
        self,
        ct: Ciphertext,
        steps: int,
        galois_keys: dict[tuple[int, int], SwitchingKey],
    ) -> Ciphertext:
        """Cyclically rotate message slots by ``steps`` positions."""
        key = galois_keys.get((steps, ct.level))
        if key is None:
            raise KeyError(f"no Galois key for rotation {steps} at level {ct.level}")
        galois_elt = rotation_galois_elt(
            steps, self.params.slots, 2 * self.basis.degree
        )
        return self.apply_galois(ct, galois_elt, key)

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
        self, ct: Ciphertext, galois_elt: int, key: SwitchingKey
    ) -> Ciphertext:
        """Apply an arbitrary Galois automorphism and switch back to s.

        Ciphertext parts stay in the NTT domain throughout: the
        automorphism is an EVAL-domain slot permutation (zero NTT round
        trips), folded into the key contraction's row gather.
        """
        if ct.size != 2:
            raise ValueError("relinearize before applying automorphisms")
        _check_key("apply_galois", key, ct)
        perm = galois_permutation(self.basis.degree, galois_elt)
        args = (self.keyswitch, _rows(ct), key, perm)
        return self._run(galois_rows, 2, ct.level, ct.scale, *args)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _add(self, a: Ciphertext, b: Ciphertext, op: str) -> Ciphertext:
        self._check_scales(a, b, op=op)
        size, lvl = max(a.size, b.size), min(a.level, b.level)
        rows = (_rows(a), _rows(b))
        return self._run(add_rows, size, lvl, a.scale, *rows, subtract=op == "sub")

    def _run(
        self, row_fn, size: int, level: int, scale: float, *args, **kw
    ) -> Ciphertext:
        """``size`` new parts at ``level``, filled by one ``row_fn`` call
        and wrapped at ``scale``."""
        shape = (level, self.basis.degree)
        outs = [np.empty(shape, dtype=np.uint64) for _ in range(size)]
        row_fn(self.basis.kernel(level), *args, outs=outs, **kw)
        return Ciphertext([RnsPolynomial(self.basis, o, EVAL) for o in outs], scale)

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

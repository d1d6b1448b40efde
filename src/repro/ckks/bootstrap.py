"""CKKS bootstrapping — the server-side operation the paper's parameters
exist to enable.

ABC-FHE's whole premise is that clients must encrypt at *bootstrappable*
parameters (N >= 2^14, large level budgets) so the server can refresh
ciphertexts indefinitely.  This module implements that refresh, composing
the pieces built elsewhere in the library:

1. **ModRaise** — reinterpret an exhausted level-1 ciphertext modulo the
   full chain; the plaintext becomes ``t = Δm + q0·I`` with a small
   hidden integer vector ``I``.
2. **CoeffToSlot** — one homomorphic linear transform (the inverse
   canonical embedding, :mod:`repro.ckks.linear`) plus one conjugation
   puts the coefficients of ``t`` into slots, split into real parts
   ``t_k`` and ``t_{k+n}``.
3. **EvalMod** — a Chebyshev sine series (:mod:`repro.ckks.cheby`)
   evaluates the centered reduction ``t -> t mod q0``, removing ``q0·I``.
4. **SlotToCoeff** — the forward embedding returns the cleaned
   coefficients to their places; the result encrypts the same message at
   a *higher* level than the input.

The measured output precision of this pipeline is the quantity the paper
calls *bootstrapping precision* (Fig. 3c): running the encoder/transform
stack at a reduced mantissa directly lowers it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.ckks.cheby import evaluate_chebyshev, sine_mod_series
from repro.ckks.containers import Ciphertext
from repro.ckks.context import CkksContext
from repro.ckks.keys import SwitchingKey, rotation_galois_elt
from repro.ckks.linear import HomomorphicLinearTransform
from repro.nums.modular import centered_vec
from repro.rns.poly import RnsPolynomial
from repro.transforms.fft import embedding_matrix
from repro.transforms.ntt import galois_permutation

__all__ = ["BootstrapConfig", "Bootstrapper"]


@dataclass(frozen=True)
class BootstrapConfig:
    """Bootstrapping knobs.

    Attributes:
        input_scale_bits: scale of the exhausted input ciphertext; must be
            far below the base prime (q0 / scale is the EvalMod period,
            and |message| must stay well under it).
        eval_mod_degree: Chebyshev degree of the sine approximation.
        wraps: bound K on the hidden overflow count |I| of ModRaise;
            secure sparse secrets keep it single-digit.
    """

    input_scale_bits: int = 25
    eval_mod_degree: int = 63
    wraps: int = 7

    @property
    def input_scale(self) -> float:
        return float(2.0**self.input_scale_bits)


@dataclass
class Bootstrapper:
    """Precompiled bootstrapping pipeline for one context.

    Generates its own evaluation keys (relinearization for the EvalMod
    depth, rotation keys for both linear transforms, one conjugation key)
    at construction.
    """

    ctx: CkksContext
    config: BootstrapConfig = field(default_factory=BootstrapConfig)

    def __post_init__(self) -> None:
        ctx = self.ctx
        params = ctx.params
        slots = params.slots
        self.top_level = params.num_primes
        q0 = ctx.basis.moduli[0]
        self.eval_mod_modulus = q0 / self.config.input_scale

        # Level schedule: C2S consumes one rung, EvalMod consumes
        # 2 + ceil(log2 degree) rungs, S2C one more.
        rung = params.levels_per_multiplication
        self.c2s_level = self.top_level
        self.evalmod_in_level = self.c2s_level - rung
        # EvalMod rungs: affine map + Chebyshev basis (ceil(log2 d)) + combo.
        depth = 2 + max(1, (self.config.eval_mod_degree - 1).bit_length())
        self.s2c_level = self.evalmod_in_level - rung * depth
        self.output_level = self.s2c_level - rung
        if self.output_level < 1:
            raise ValueError(
                f"level budget exhausted: need >= {self.top_level - self.output_level + 1} "
                f"primes, have {self.top_level}"
            )

        embed = embedding_matrix(slots)
        inv_embed = np.linalg.inv(embed)
        self._coeff_to_slot = HomomorphicLinearTransform(
            ctx, 0.5 * inv_embed, level=self.c2s_level
        )
        self._slot_to_coeff = HomomorphicLinearTransform(
            ctx, embed, level=self.s2c_level
        )
        self._sine = sine_mod_series(
            self.eval_mod_modulus, self.config.wraps, self.config.eval_mod_degree
        )

        rotations = sorted(
            set(self._coeff_to_slot.required_rotations())
            | set(self._slot_to_coeff.required_rotations())
        )
        self._galois = ctx.keygen.gen_galois(
            ctx.secret_key, rotations, levels=[self.c2s_level, self.s2c_level]
        )
        self._conj = ctx.keygen.gen_conjugation(
            ctx.secret_key, levels=[self.evalmod_in_level]
        )
        relin_levels = list(range(2, self.evalmod_in_level + 1))
        self._relin = ctx.keygen.gen_relin(ctx.secret_key, relin_levels)

        # Pre-warm the EVAL-domain automorphism permutation tables so the
        # hoisted C2S/S2C rotations never pay the one-time O(N) table
        # build inside the bootstrap hot path.
        degree = ctx.basis.degree
        for r in rotations:
            galois_permutation(degree, rotation_galois_elt(r, slots, 2 * degree))
        galois_permutation(degree, 2 * degree - 1)

        # CoeffToSlot is traced+planned through the runtime on first use;
        # one plan per observed (level, scale) input shape.
        self._c2s_plans: dict[tuple[int, float], object] = {}

    # ------------------------------------------------------------------
    # Pipeline stages (public for tests and instrumentation)
    # ------------------------------------------------------------------

    def mod_raise(self, ct: Ciphertext) -> Ciphertext:
        """Reinterpret a level-1 ciphertext modulo the full chain.

        The lifted ciphertext is then *scaled up* to the parameter scale Δ
        by an exact integer constant (1 encoded at scale Δ/Δ_in): the
        interpreted slot values are unchanged, but every subsequent
        rotation/relinearization's key-switching noise — which is
        absolute, ~q_j·σ·√N — now sits 2^-47 below the scale instead of
        drowning a 2^25-scale payload.
        """
        if ct.level != 1:
            raise ValueError(f"mod_raise expects a level-1 ciphertext, got {ct.level}")
        q0 = self.ctx.basis.moduli[0]
        parts = []
        for part in ct.parts:
            residues = part.to_coeff().data[0]
            lifted = RnsPolynomial.from_signed_coeffs(
                self.ctx.basis, self.top_level, centered_vec(residues, q0)
            )
            parts.append(lifted.to_eval())
        raised = Ciphertext(parts=parts, scale=ct.scale)
        boost = self.ctx.encoder.encode(
            np.ones(self.ctx.params.slots),
            level=self.top_level,
            scale=self.ctx.params.scale / ct.scale,
        )
        return self.ctx.evaluator.multiply_plain(raised, boost)

    def _emit_coeff_to_slot(self, ev, ct):
        """The C2S segment against any evaluator surface (eager or lazy)."""
        half_v = self._coeff_to_slot.emit(ev, ct, self._galois)
        half_v = ev.rescale(half_v, times=self.ctx.params.levels_per_multiplication)
        conj_v = ev.conjugate(half_v, self._conj)
        real_part = ev.add(half_v, conj_v)  # t_k / Delta_in
        imag_diff = ev.sub(half_v, conj_v)  # i * Im(v)
        minus_i = self._unit_plaintext(-1j, imag_diff.level)
        imag_part = ev.multiply_plain(imag_diff, minus_i)  # t_{k+n} / Delta_in
        return real_part, imag_part

    def coeff_to_slot(self, ct: Ciphertext) -> tuple[Ciphertext, Ciphertext]:
        """Slots <- coefficients, split into the two real halves.

        The whole segment — BSGS transform, rescale, conjugation, and the
        real/imaginary split — is traced once into a computation graph,
        optimized (the runtime hoists the BSGS baby steps onto a single
        gadget decomposition), and replayed from this bootstrapper's own
        plan memo on every subsequent bootstrap.
        """
        from repro.runtime import CtSpec, compile_fn

        plan_key = (ct.level, ct.scale)
        cached = self._c2s_plans.get(plan_key)
        if cached is None:
            cached = compile_fn(
                self._emit_coeff_to_slot,
                self.ctx.evaluator,
                [CtSpec(level=ct.level, scale=ct.scale)],
            )
            self._c2s_plans[plan_key] = cached
        real_part, imag_part = cached.run([ct])
        return real_part, imag_part

    def eval_mod(self, ct: Ciphertext) -> Ciphertext:
        """Centered reduction mod q0/Δ_in via the Chebyshev sine."""
        return evaluate_chebyshev(self.ctx, self._sine, ct, self._relin)

    def slot_to_coeff(self, ct_real: Ciphertext, ct_imag: Ciphertext) -> Ciphertext:
        """Recombine the halves and return coefficients to their places."""
        ev = self.ctx.evaluator
        plus_i = self._unit_plaintext(1j, ct_imag.level)
        v = ev.add(ct_real, ev.multiply_plain(ct_imag, plus_i))
        lvl = self._slot_to_coeff.level
        v = _drop_to(v, lvl)
        out = self._slot_to_coeff.apply(v, self._galois)
        return ev.rescale(out, times=self.ctx.params.levels_per_multiplication)

    def bootstrap(self, ct: Ciphertext) -> Ciphertext:
        """Refresh a level-1 ciphertext to ``output_level``."""
        raised = self.mod_raise(ct)
        t_real, t_imag = self.coeff_to_slot(raised)
        m_real = self.eval_mod(t_real)
        m_imag = self.eval_mod(t_imag)
        lvl = min(m_real.level, m_imag.level)
        return self.slot_to_coeff(_drop_to(m_real, lvl), _drop_to(m_imag, lvl))

    # ------------------------------------------------------------------

    def _unit_plaintext(self, unit: complex, level: int):
        """Encode ±i exactly (a single ±X^{N/2} monomial at scale 1)."""
        return self.ctx.encoder.encode(
            np.full(self.ctx.params.slots, unit, dtype=np.complex128),
            level=level,
            scale=1.0,
        )


def _drop_to(ct: Ciphertext, level: int) -> Ciphertext:
    if ct.level == level:
        return ct
    return Ciphertext([p.drop_limbs(level) for p in ct.parts], ct.scale)


def measure_bootstrap_precision(
    ctx: CkksContext, bootstrapper: Bootstrapper, trials: int = 1, seed: int = 11
) -> float:
    """Bootstrapping precision in bits — the paper's Fig. 3(c) metric.

    Encrypts unit-magnitude messages at level 1, bootstraps, and reports
    ``-log2(max error)``.  Running the context at a reduced FP mantissa
    (``toy_params(fp_format=...)``) measures that datapath's boot
    precision directly, since every C2S/S2C twiddle and encoding passes
    through the quantized encoder.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        z = rng.uniform(-1, 1, ctx.params.slots)
        ct = ctx.encryptor.encrypt(
            ctx.encoder.encode(z, level=1, scale=bootstrapper.config.input_scale)
        )
        out = bootstrapper.bootstrap(ct)
        err = float(np.max(np.abs(ctx.decrypt_decode(out).real - z)))
        worst = max(worst, err)
    return float(-math.log2(worst)) if worst > 0 else float("inf")

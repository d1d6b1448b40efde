"""Homomorphic linear transforms: slot-space matrix-vector products.

Bootstrapping's CoeffToSlot/SlotToCoeff steps — and most CKKS
applications (convolutions, dense layers) — are linear maps on the slot
vector.  A dense map decomposes into rotated diagonals::

    (M x)_j = sum_i  diag_i(M)_j * x_{j+i}

so ``M x = sum_i diag_i(M) ⊙ rot_i(x)``.  :class:`HomomorphicLinearTransform`
evaluates this with the baby-step/giant-step grouping (``~2 sqrt(n)``
rotations instead of ``n``), pre-rotating giant-block diagonals so the
inner sums share one rotation each.  The two kinds of step do not cost
the same: every baby step rotates the *input*, so all of them share one
hoisted gadget decomposition and pay only a key contraction, while each
giant step rotates a fresh inner sum and pays its own decomposition on
top (about four contractions' worth; see "BSGS cost model" in
``docs/architecture.md``).  The default split therefore rounds the
baby-step count *up* to the power of two at or above ``sqrt(n)``.

Evaluation goes through the lazy runtime (:mod:`repro.runtime`): the BSGS
loop is *emitted* as plain rotate/multiply/add calls with no hand-coded
hoisting, traced into a computation graph, and compiled into a cached
:class:`~repro.runtime.plan.ExecutionPlan`.  The optimizer's hoisting pass
rediscovers that every baby-step rotation shares the input ciphertext and
collapses them onto one gadget decomposition
(:meth:`repro.ckks.evaluator.Evaluator.decompose`) — the classic hoisting
optimization that used to be hand-woven through this file — and the plan
replays across many inputs via :meth:`apply_batch`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ckks.containers import Ciphertext, Plaintext
from repro.ckks.context import CkksContext
from repro.ckks.keys import SwitchingKey

__all__ = ["HomomorphicLinearTransform"]


@dataclass
class HomomorphicLinearTransform:
    """A slot-space matrix fixed at construction, evaluatable on
    ciphertexts at one level.

    Attributes:
        ctx: the CKKS context.
        matrix: dense (slots x slots) complex matrix.
        level: ciphertext level this transform is compiled for.
        baby_steps: BSGS group size; 0 picks the power of two at or
            above ``sqrt(slots)`` (32 for 512 slots: 31 hoisted baby
            rotations, 15 giant ones).
    """

    ctx: CkksContext
    matrix: np.ndarray
    level: int
    baby_steps: int = 0
    _diagonals: dict[tuple[int, int], Plaintext] = field(init=False, repr=False)
    _nonzero: list[tuple[int, int]] = field(init=False, repr=False)
    _plans: dict[tuple[float, int], tuple] = field(
        init=False, repr=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        n = self.ctx.params.slots
        self.matrix = np.asarray(self.matrix, dtype=np.complex128)
        if self.matrix.shape != (n, n):
            raise ValueError(f"matrix must be ({n}, {n}); got {self.matrix.shape}")
        if self.baby_steps <= 0:
            self.baby_steps = 1 << ((n - 1).bit_length() + 1) // 2
        self._compile()

    def _diag(self, i: int) -> np.ndarray:
        """The i-th generalized diagonal: d_j = M[j, (j + i) mod n]."""
        n = self.ctx.params.slots
        j = np.arange(n)
        return self.matrix[j, (j + i) % n]

    def _compile(self) -> None:
        """Encode every nonzero diagonal, pre-rotated by its giant step."""
        n = self.ctx.params.slots
        bs = self.baby_steps
        self._diagonals = {}
        self._nonzero = []
        scale = self.ctx.params.scale
        for i in range(n):
            d = self._diag(i)
            if np.max(np.abs(d)) < 1e-15:
                continue
            g, j = divmod(i, bs)
            # Pre-rotate by -g*bs so the inner sum needs only rot_j(x).
            pre = np.roll(d, g * bs)
            encoded = self.ctx.encoder.encode(pre, level=self.level, scale=scale)
            # Cache in the NTT domain: apply() multiplies each diagonal
            # every call, so the forward transform is paid once here.
            self._diagonals[(g, j)] = Plaintext(
                poly=encoded.poly.to_eval(), scale=encoded.scale
            )
            self._nonzero.append((g, j))

    def required_rotations(self) -> list[int]:
        """Slot rotations the evaluation needs keys for (at ``level``)."""
        baby = sorted({j for _, j in self._nonzero if j != 0})
        giants = sorted({g * self.baby_steps for g, _ in self._nonzero if g != 0})
        return baby + giants

    def emit(self, ev, ct, galois_keys):
        """Emit the BSGS loop against any evaluator surface.

        ``ev`` may be the eager :class:`~repro.ckks.evaluator.Evaluator`
        (one-shot, unoptimized dispatch — the benchmark baseline) or a
        :class:`~repro.runtime.trace.LazyEvaluator` recording a graph.
        Rotations are emitted *without* explicit hoisting; when traced,
        the runtime's hoisting pass regroups the baby steps onto one
        shared decomposition automatically.
        """
        bs = self.baby_steps
        rotated = {0: ct}
        for j in sorted({j for _, j in self._nonzero if j != 0}):
            rotated[j] = ev.rotate(ct, j, galois_keys)

        by_giant: dict[int, list[int]] = {}
        for g, j in self._nonzero:
            by_giant.setdefault(g, []).append(j)

        acc = None
        for g, js in sorted(by_giant.items()):
            inner = None
            for j in js:
                term = ev.multiply_plain(rotated[j], self._diagonals[(g, j)])
                inner = term if inner is None else ev.add(inner, term)
            assert inner is not None
            if g != 0:
                inner = ev.rotate(inner, g * bs, galois_keys)
            acc = inner if acc is None else ev.add(acc, inner)
        assert acc is not None
        return acc

    def plan_for(self, scale: float, galois_keys: dict[tuple[int, int], SwitchingKey]):
        """Trace + compile (once) the BSGS program for one input scale.

        The compiled :class:`~repro.runtime.plan.ExecutionPlan` is memoized
        here per (scale, key-set), so serving traffic replays one
        optimized plan.
        """
        from repro.runtime import CtSpec, compile_fn

        memo_key = (scale, id(galois_keys))
        hit = self._plans.get(memo_key)
        # The memo pins the key dict so a recycled id can never alias a
        # different key set.
        if hit is not None and hit[0] is galois_keys:
            return hit[1]
        plan = compile_fn(
            lambda ev, h: self.emit(ev, h, galois_keys),
            self.ctx.evaluator,
            [CtSpec(level=self.level, scale=scale)],
        )
        self._plans[memo_key] = (galois_keys, plan)
        return plan

    def apply(
        self,
        ct: Ciphertext,
        galois_keys: dict[tuple[int, int], SwitchingKey],
    ) -> Ciphertext:
        """Evaluate M·x on a ciphertext at the compiled level.

        Output scale is ``ct.scale * Delta`` (caller rescales when ready —
        CoeffToSlot sums several transforms before a single rescale).
        Runs through the cached execution plan; bit-identical to emitting
        the loop eagerly, with the baby-step rotations hoisted by the
        optimizer.
        """
        if ct.level != self.level:
            raise ValueError(f"transform compiled for level {self.level}, got {ct.level}")
        return self.plan_for(ct.scale, galois_keys).run([ct])[0]

    def apply_batch(
        self,
        cts: list[Ciphertext],
        galois_keys: dict[tuple[int, int], SwitchingKey],
    ) -> list[Ciphertext]:
        """Evaluate M·x across many ciphertexts with one replayed plan."""
        if not cts:
            return []
        plan = self.plan_for(cts[0].scale, galois_keys)
        return [out for (out,) in plan.run_batch([[ct] for ct in cts])]

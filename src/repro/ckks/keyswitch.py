"""Batched, hoisting-aware key switching — the hot core of every rotation,
relinearization, BSGS linear layer, and bootstrap step.

The seed implementation looped over RNS digits: L separate digit
broadcasts, L batched-NTT dispatches (O(L²) NTT rows issued one L-row
matrix at a time), and 2L temporary polynomials per switch.  This engine
tensorizes the whole pipeline:

* **decompose** stacks all L digit rows into one ``(L, L, N)`` tensor
  (``tensor[j, i]`` = digit ``j``, the residues mod ``q_j``, on limb ``i``)
  and forward-transforms it — the transform takes the digits unreduced,
  so no whole-tensor re-reduction precedes it.  The limbs are cut into
  cache-sized blocks, each limb carrying the ``S·(L-1)`` off-diagonal
  digits of ``S`` sources; when the smallest block's reach
  ``column_rows``, each block of ``r`` limbs is transformed as the
  columns of one ``(N, r·S·(L-1))`` block, in lanes, and the diagonal digits —
  ``forward_i(inverse_i(x_i)) = x_i`` — copied from the input: one
  source at ``(2^10, 10)`` is one block of 90 columns, ``eval_bsgs``'s
  15 giant steps one limb of 135 a block.  Below it (one source at the
  paper's ``(2^16, 24)``, 23 columns a limb against 256) one
  :class:`~repro.transforms.ntt.BatchNtt` dispatch runs over the
  flattened ``(L·L, N)`` rows;
* **contract** walks the digit rows once against the ``[:L, :L]``
  prefix of a switching key's two ``(L, L, N)`` residue tensors (a key
  reaches every level at or below its own), in blocks of as many digits
  as fit one transform block — all ten at ``(2^10, L = 10)``, one at the
  paper's ``(2^16, 24)``
  (:meth:`~repro.nums.kernels.ReducerKernel.mul_accumulate_rows`: each
  block of digit rows split once, its raw products summed as uint64 by
  one sum of products per half and key component, both components
  recombined as one stack; a block is a handful of long numpy calls, the
  grain at which the fused replay's rotation families run their members
  in lanes), gathering each block through a
  Galois slot permutation when given one — which is what makes
  **hoisting** work:
  decompose once, then rotate-and-contract against many keys
  (:func:`repro.ckks.evaluator.galois_rows`, fed by a rotation family of
  the runtime's fused replay).  The BSGS inner loop and bootstrapping's
  CoeffToSlot/SlotToCoeff pay one inverse NTT for a whole batch of
  rotations instead of one per rotation.

This is the one key switch.  The tests hold it to the gadget sum
``Σ_j [x]_{q_j} · key_j`` of ``tests/oracle.py``, exact arithmetic on
Python ints that shares nothing with this module but data: residues,
moduli and each limb's ψ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.ckks.keys import SwitchingKey
from repro.nums.kernels import in_lanes, ufunc_buffer
from repro.rns.basis import RnsBasis
from repro.rns.poly import EVAL, RnsPolynomial
from repro.transforms.ntt import BatchNtt

__all__ = ["DecomposedPoly", "KeySwitchEngine"]


@dataclass(frozen=True)
class DecomposedPoly:
    """A polynomial's full gadget decomposition, NTT domain, ready to be
    applied against any switching key at or above its level.

    Attributes:
        basis: the RNS chain.
        tensor: ``(L, L, N)`` uint64 — row ``j`` holds digit ``j`` (the
            coefficient-domain residues mod ``q_j``) re-expanded across all
            L limbs and forward-transformed.
    """

    basis: RnsBasis
    tensor: np.ndarray

    @property
    def level(self) -> int:
        return self.tensor.shape[0]


@dataclass(frozen=True)
class KeySwitchEngine:
    """Stateless batched key-switching engine over one RNS basis."""

    basis: RnsBasis

    # ------------------------------------------------------------------
    # Hoisting API: decompose once, apply many
    # ------------------------------------------------------------------

    def decompose(self, poly: RnsPolynomial) -> DecomposedPoly:
        """Gadget-decompose an NTT-domain polynomial (the hoistable half)."""
        if poly.domain != EVAL:
            raise ValueError("key switching expects an NTT-domain polynomial")
        return DecomposedPoly(basis=self.basis, tensor=self.decompose_rows(poly.data))

    def decompose_rows(self, data: np.ndarray) -> np.ndarray:
        """:meth:`decompose` on bare ``(..., L, N)`` evaluation-domain
        rows: ``(..., L, L, N)``, one tensor per leading index.

        One inverse BatchNtt (the digits are coefficient-domain residue
        rows), then the forward transforms of the digits broadcast onto
        every limb, in the layout the shape picks
        (:meth:`~repro.transforms.ntt.BatchNtt.forward_columns`).  The
        limbs are cut into blocks of off-diagonal digit rows,
        ``row_blocks(L, N·S·(L-1)·8)`` for ``S`` stacked sources (sizes
        within one limb of each other, the last the smallest).  When the
        last block's ``r·S·(L-1)`` reach
        :attr:`~repro.transforms.ntt.BatchNtt.column_rows`, every block
        is one column block, in lanes: one source at ``(2^10, 10)`` is
        one block of 90 columns, a family of giant-step rotations one
        limb of ``S·(L-1)`` a block.  Otherwise one forward dispatch runs
        over the stacked ``(..., L·L, N)`` digit matrix (one source at
        ``(2^16, 24)``: one limb a block, 23 columns against 256).  The
        rows must be canonical: the diagonal ``tensor[j, j]`` is then the
        input row ``j`` itself, which the column layout copies instead
        of transforming.
        """
        lvl, n = data.shape[-2:]
        bat = self.basis.batch_ntt(lvl)
        coeff = bat.inverse(data)
        shape = (*data.shape[:-1], lvl, n)
        width = math.prod(data.shape[:-2]) * (lvl - 1)  # off-diagonal rows per limb
        if width:
            blocks = BatchNtt.row_blocks(lvl, n * width * 8)
            if (blocks[-1].stop - blocks[-1].start) * width >= bat.column_rows:
                return self._decompose_columns(bat, data, coeff, blocks).reshape(shape)
        # tensor[j, i] = digit j broadcast onto limb i, unreduced: it is
        # below q_j, and the forward transform accepts any limb's
        # residues on every limb.
        return bat.forward(np.broadcast_to(coeff[..., np.newaxis, :], shape))

    @staticmethod
    def _decompose_columns(bat: BatchNtt, data: np.ndarray, coeff: np.ndarray, blocks):
        """The column layout of :meth:`decompose_rows`, ``(S, L, L, N)``:
        the coefficient rows transposed once to ``(N, S, L)`` — every limb
        reads the same digits — then per block of limbs, in lanes, the
        digits ``j != i`` of every source on each limb ``i`` of the block
        gathered as one limb-major ``(N, r·S·(L-1))`` block, transformed
        on those limbs and written to ``tensor[:, j, i]``; the diagonal
        ``tensor[:, i, i]`` is ``forward_i(inverse_i(x_i))``, the input
        row."""
        lvl, n = data.shape[-2:]
        rows = data.reshape(-1, lvl, n)
        count = len(rows)
        digits = np.ascontiguousarray(coeff.reshape(count * lvl, n).T)
        digits = digits.reshape(n, count, lvl)
        tensor = np.empty((count, lvl, lvl, n), dtype=np.uint64)
        width = count * (lvl - 1)

        def lane(limbs: list[slice]) -> None:
            # Blocks never grow: the lane's first is its largest.
            space = np.empty(n * (limbs[0].stop - limbs[0].start) * width, np.uint64)
            for span in limbs:
                block = space[: n * (span.stop - span.start) * width]
                block = block.reshape(n, -1, count, lvl - 1)
                for k, i in enumerate(range(span.start, span.stop)):
                    np.copyto(block[:, k, :, :i], digits[..., :i])
                    np.copyto(block[:, k, :, i:], digits[..., i + 1 :])
                bat.forward_columns(block.reshape(n, -1), span)
                evals = block.transpose(1, 2, 3, 0)
                for k, i in enumerate(range(span.start, span.stop)):
                    np.copyto(tensor[:, :i, i], evals[k, :, :i])
                    np.copyto(tensor[:, i + 1 :, i], evals[k, :, i:])
                    np.copyto(tensor[:, i, i], rows[:, i])

        in_lanes(blocks, lane)
        return tensor

    def apply(
        self, dec: DecomposedPoly, key: SwitchingKey
    ) -> tuple[RnsPolynomial, RnsPolynomial]:
        """Contract a decomposed polynomial against one switching key."""
        _check_reach(key, dec.level)
        out0, out1 = self.contract(dec.tensor, key)
        return (
            RnsPolynomial(self.basis, out0, EVAL),
            RnsPolynomial(self.basis, out1, EVAL),
        )

    @ufunc_buffer()
    def contract(
        self, tensor: np.ndarray, key: SwitchingKey, perm=None, out0=None, out1=None
    ) -> list[np.ndarray]:
        """``sum_j digit_j * b_j`` and ``sum_j digit_j * a_j`` in one pass
        over the digit rows.

        The rows go to the kernel in blocks of as many digits as fit one
        transform block (:meth:`~repro.transforms.ntt.BatchNtt.row_blocks`:
        all ten at ``(2^10, L = 10)``, one at the paper's ``(2^16, 24)``),
        each gathered once — through ``perm`` when a Galois slot
        permutation is folded in, which reads the same elements as
        permuting the whole tensor first — and multiplied against both key
        components while cache-hot.  The key operands are views of the
        key's own residues, the matching digits of its ``[:L, :L]`` prefix
        at the tensor's level ``L``.
        """
        lvl = tensor.shape[0]
        kern = self.basis.kernel(lvl)
        digits = BatchNtt.row_blocks(lvl, tensor[0].nbytes)
        if perm is None:
            blocks = (tensor[d] for d in digits)
        else:  # np.take gathers C-ordered rows; ``rows[..., perm]`` is not
            blocks = (np.take(tensor[d], perm, axis=-1) for d in digits)
        consts = [[part[d, :lvl] for d in digits] for part in (key.b, key.a)]
        return kern.mul_accumulate_rows(blocks, consts, (out0, out1))

    def switch(
        self, poly: RnsPolynomial, key: SwitchingKey
    ) -> tuple[RnsPolynomial, RnsPolynomial]:
        """One-shot key switch (decompose + apply)."""
        return self.apply(self.decompose(poly), key)


def _check_reach(key: SwitchingKey, level: int) -> None:
    if key.level < level:
        raise ValueError(
            f"switching key at level {key.level} cannot reach poly level {level}"
        )

"""Negacyclic number-theoretic transform with merged ψ pre/post-processing.

CKKS polynomials live in ``Z_q[X] / (X^N + 1)``; multiplying them needs the
*negacyclic* NTT, which classically requires pre-scaling inputs by powers of
a 2N-th root ψ (Eq. 2) and post-scaling by ψ^{-k} (Eq. 3).  Following the
merging technique the paper cites ([30] Roy et al., [27] Pöppelmann et al.),
the ψ powers are folded into the per-stage butterfly twiddles so no separate
pre/post multiplier columns are needed — the property that lets the RFE hit
the theoretical minimum of ``P/2 * log2 N`` pipeline multipliers.

The kernels are fully vectorized: every butterfly multiply goes through a
:class:`~repro.nums.kernels.ReducerKernel` (Barrett — no integer division
on the hot path), with the twiddle tables held in its precomputed form
(each twiddle stacked on its scaled float64 reciprocal).

:class:`NttContext` holds the tables of one (degree, modulus) pair — ψ and
its merged twiddle rows — in a process-level cache
(:meth:`NttContext.cached`), so repeated ``RnsBasis``/key-generation paths
never rebuild them.  :class:`BatchNtt`, the one transform, stacks them for
all limbs of an RNS basis with per-row modulus broadcasting and walks the
limb rows in cache-sized blocks: one numpy dispatch per stage for *all*
limbs while the operand is small, one limb at a time at the paper's N =
2^16 — the software analogue of the accelerator keeping a limb on chip
while it streams through the stages, with the blocks spread over one lane
per CPU as the accelerator spreads limbs over its parallel NTT lanes.
Many rows of a range of limbs can instead be transformed as the columns
of one block, every stage one long regular run.

The tests hold it to ``tests/oracle.py``, an exact textbook transform on
Python ints that shares nothing with this module but data: the moduli
and each limb's ψ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import ClassVar

import numpy as np

from repro.nums.kernels import (
    ReducerKernel,
    _csub,
    in_lanes,
    kernel_for_modulus,
    ufunc_buffer,
)
from repro.nums.modular import mod_inv, nth_root_of_unity
from repro.utils.bitops import bit_reverse_indices, ilog2

__all__ = ["NttContext", "BatchNtt", "galois_permutation"]


@lru_cache(maxsize=None)
def galois_permutation(degree: int, galois_elt: int) -> np.ndarray:
    """Gather indices applying ``X -> X^k`` directly on NTT-domain data.

    The merged negacyclic NTT leaves slot ``i`` holding the evaluation at
    ``psi^{2 br(i) + 1}`` (bit-reversed order).  An odd Galois element
    permutes the odd powers of ``psi`` among themselves, so the
    automorphism acts on evaluation data as a *pure index permutation* —
    no sign flips and, crucially, no NTT round trip.  The returned ``src``
    satisfies ``ntt(automorphism(a, k)) == ntt(a)[..., src]`` for every
    limb (the table depends only on the degree, not the modulus).
    """
    if galois_elt % 2 == 0:
        raise ValueError("Galois elements must be odd")
    rev = bit_reverse_indices(degree)
    # Slot i holds exponent 2 br(i) + 1; k maps it to another odd
    # exponent e, which sits at slot br((e - 1) / 2).
    two_n = 2 * degree
    src = rev[(galois_elt % two_n * (2 * rev + 1) % two_n - 1) // 2]
    src = src.astype(np.intp, copy=False)
    src.setflags(write=False)
    return src


def _bit_reversed_powers(kernel: ReducerKernel, root: int, degree: int) -> np.ndarray:
    """``out[bitrev(i)] = root^i`` — the merged twiddle layout of [30].

    Bit-reversal maps ``m + i`` (``i < m``) to ``bitrev(i) + N/(2m)``, so
    each doubling of the table is the filled half times one power of the
    root — the seed/step identity of :mod:`repro.transforms.twiddle`, run
    with one ``kernel.mul`` per doubling instead of a Python loop per
    element.
    """
    modulus = int(kernel.q)
    out = np.empty(degree, dtype=np.uint64)
    out[0] = 1 % modulus
    m = 1
    while m < degree:
        step = pow(root, degree // (2 * m), modulus)
        out[m : 2 * m] = kernel.mul(out[:m], np.uint64(step))
        m *= 2
    return out


@dataclass(frozen=True)
class NttContext:
    """Precomputed tables for negacyclic NTT/INTT of one (degree, prime) pair.

    Attributes:
        degree: polynomial degree N (power of two).
        modulus: NTT-friendly prime q with 2N | q-1.
        psi: primitive 2N-th root of unity mod q.
        psi_rev: merged Cooley–Tukey twiddles, ``psi^{bitrev(j)}``.
        psi_inv_rev: merged Gentleman–Sande twiddles for the inverse.
        n_inv: ``N^{-1} mod q``, which :class:`BatchNtt` folds into the
            inverse's last stage (into both outputs' twiddles).

    No transform runs here: :class:`BatchNtt` stacks its reducer planes
    from ``psi_rev`` / ``psi_inv_rev`` and ``n_inv``, and the on-the-fly
    twiddle model (:mod:`repro.transforms.twiddle`) seeds its stages from
    ``psi``.
    """

    degree: int
    modulus: int
    psi: int
    psi_rev: np.ndarray
    psi_inv_rev: np.ndarray
    n_inv: int

    @classmethod
    def create(cls, degree: int, modulus: int, psi: int | None = None) -> "NttContext":
        """Build tables; derives ψ from the field structure unless given."""
        ilog2(degree)  # validates power of two
        if (modulus - 1) % (2 * degree) != 0:
            raise ValueError(
                f"modulus {modulus} is not NTT-friendly for degree {degree}: "
                f"2N must divide q-1"
            )
        if psi is None:
            psi = nth_root_of_unity(2 * degree, modulus)
        elif pow(psi, 2 * degree, modulus) != 1 or pow(psi, degree, modulus) == 1:
            raise ValueError("psi is not a primitive 2N-th root of unity")

        kernel = kernel_for_modulus(modulus)
        psi_rev = _bit_reversed_powers(kernel, psi, degree)
        psi_inv_rev = _bit_reversed_powers(kernel, mod_inv(psi, modulus), degree)
        return cls(
            degree=degree,
            modulus=modulus,
            psi=psi,
            psi_rev=psi_rev,
            psi_inv_rev=psi_inv_rev,
            n_inv=mod_inv(degree, modulus),
        )

    # Process-level context cache: RNS bases / key generators ask for the
    # same (degree, prime) pairs over and over, and the tables are O(N).
    _CACHE: ClassVar[dict[tuple[int, int], "NttContext"]] = {}

    @classmethod
    def cached(cls, degree: int, modulus: int) -> "NttContext":
        """Shared context for a (degree, modulus) pair."""
        key = (degree, modulus)
        ctx = cls._CACHE.get(key)
        if ctx is None:
            ctx = cls._CACHE[key] = cls.create(degree, modulus)
        return ctx


def _lazy_plans(kernel: ReducerKernel, moduli, stages: int, input_bound: int):
    """Where the lazy butterflies must renormalize, from the moduli alone.

    Values are tracked as multiples of their own limb's modulus: ``c``
    means "every value of limb ``i`` is below ``c * q_i``".  A raw product
    (:meth:`~repro.nums.kernels.ReducerKernel.mul_pre_raw`) takes an
    operand below ``raw_operand_limit`` (``2^42``) and returns a value
    below ``B * q`` (``B`` the kernel's ``RAW_BOUND``); ``reduce`` takes
    values below ``q^2``.
    Forward inputs are below ``input_bound`` on every limb; inverse inputs
    are canonical.

    * Forward (Cooley–Tukey) stage: ``v = raw(x1 * w)``, ``x1 <- u + B*q -
      v``, ``u <- u + v`` — ``c`` grows by ``B`` per stage, so with
      ``B = 2`` stage ``s`` is entered at ``2 + 2s`` and 36-bit
      primes need no renormalization up to N = 2^16 (``32 q < 2^42`` at
      the last stage).
    * Inverse (Gentleman–Sande) stage: ``u <- u + x1``, ``x1 <- raw((u +
      c*q - x1) * w)`` — the sums double, ``c <- max(2c, B)``, so a
      renormalization falls every sixth stage (at 36 bits ``c`` reaches
      ``64 = 2^42 / 2^36`` after six doublings).  The last stage carries
      ``1/N``: ``u <- raw((u + x1) * n_inv)``, ``x1 <- raw((u + c*q -
      x1) * (w * n_inv))``, so it stores two raw products, not a sum, and
      its operands take whatever is left (``16 q`` at N = 2^16).

    Returns ``(forward, inverse)``.  ``forward[s]`` says whether stage
    ``s`` renormalizes first (the transform always ends on a reduce);
    ``inverse[s]`` is ``(reduce_first, c)`` with ``c`` the bound entering
    the stage's butterflies (the transform ends on one conditional
    subtract).
    """
    bound = kernel.RAW_BOUND
    q_max, q_min = max(moduli), min(moduli)
    limit = kernel.raw_operand_limit
    c_in = -(-input_bound // q_min)

    def fits(c_operand: int, c_stored: int) -> bool:
        return c_operand * q_max <= limit and c_stored <= q_min

    # From canonical values one stage of either transform must fit, and
    # the forward input must itself be reducible.
    if not (c_in <= q_min and fits(1, 1 + bound) and fits(2, max(2, bound))):
        raise ValueError(
            f"moduli {q_min}..{q_max} leave no room for lazy butterflies "
            f"(operands below {limit})"
        )
    forward, c = [], c_in
    for _ in range(stages):
        first = not fits(c, c + bound)
        forward.append(first)
        c = (1 if first else c) + bound
    inverse, c = [], 1
    for s in range(stages):
        stored = bound if s == stages - 1 else max(2 * c, bound)
        first = not fits(2 * c, stored)
        c = 1 if first else c
        inverse.append((first, c))
        c = max(2 * c, bound)
    return tuple(forward), tuple(inverse)


def _late_order(table: np.ndarray, degree: int, span: int) -> np.ndarray:
    """Re-order the late-stage slices of a stacked ``(L, 1, N)`` twiddle
    table for the transposed layout (see :class:`BatchNtt`).

    Stage ``m`` reads ``table[..., m : 2m]``.  On a block transposed from
    ``(N/K chunks, K)`` to ``(K, N/K)`` a stage with ``m >= N/K`` pairs
    whole rows, and butterfly group ``i * G + g`` (chunk ``i``, group
    ``g`` of the ``G = m K / N`` inside a chunk) sits at row group ``g``,
    column ``i`` — so those slices are stored ``g``-major, in place of
    the natural order: same table size, contiguous along the row.
    """
    chunks = degree // span
    out = table.copy()
    m = chunks
    while m < degree:
        natural = table[..., m : 2 * m].reshape(*table.shape[:-1], chunks, m // chunks)
        out[..., m : 2 * m] = natural.swapaxes(-1, -2).reshape(*table.shape[:-1], m)
        m *= 2
    return out


def _transposed_span(degree: int) -> int:
    """Chunk size ``K`` whose ``log2 K`` closing (forward) or opening
    (inverse) stages run on the transposed block: the power of two at or
    above ``sqrt(N)``, which balances the shortest run on the two sides —
    ``K`` in place, ``N / K`` transposed (256 and 256 at N = 2^16, 32 and
    32 at N = 2^10, 2 and 1 at N = 2)."""
    return 1 << ((ilog2(degree) + 1) // 2)


@dataclass(frozen=True)
class BatchNtt:
    """All limbs of an RNS prefix transformed by broadcast butterfly stages.

    Stacks the per-limb merged twiddles into ``(L, N)`` tables and runs
    each butterfly stage as broadcasted kernel calls with per-row moduli
    from an ``(L, 1, 1)`` column.  The limb rows are walked in *blocks*
    sized from the operand (:data:`BLOCK_BYTES`): a block runs through all
    ``log2 N`` stages before the next one starts, so its residues stay in
    cache from the first butterfly to the last — the software analogue of
    the accelerator keeping a limb on chip across its pipeline.  A small
    operand is one block, i.e. one numpy dispatch per stage for *all*
    limbs.

    Every pass runs over long contiguous runs, in one of two operand
    layouts that share the stage loop, its plans and its kernel:

    * *Rows* (every transform): a block holds its polynomials as rows,
      ``(batch, r, N)``.  A stage pairs elements ``t`` apart; while ``t
      >= K`` (``K`` = :func:`_transposed_span`) the block is viewed
      ``(m, 2, t)`` in place, under a ufunc buffer short enough to walk
      such runs in place (:func:`~repro.nums.kernels.ufunc_buffer`).
      The ``log2 K`` stages with shorter runs — the forward transform's
      last, the inverse's first — work on a scratch copy of the block
      transposed from ``(N/K, K)`` to ``(K, N/K)``, where partners are
      whole rows and the twiddles, stored in that order
      (:func:`_late_order`), run along the row.  The shortest run is
      ``K`` in place and ``N/K`` on the copy.
    * *Columns* (:meth:`forward_columns`): ``R`` polynomials held as the
      columns of an ``(N, R)`` block, limb-major over a range of limbs,
      so stage ``s`` pairs the ``(m, 2, t, R)`` halves in place and no
      stage needs a transposed copy.  The shortest run is ``R``.  One
      limb's block broadcasts its twiddle slices as the rows do; a
      block of several limbs reads twiddles pre-formed per column
      (:meth:`_block_plan`) against a per-column moduli row.

    So a caller that holds ``R`` rows of a block of limbs takes the
    columns when ``R >= K`` (:attr:`column_rows`): key switching's
    decomposition, whose limbs each carry ``S·(L-1)`` digit rows for
    ``S`` sources, in blocks of limbs cut to :data:`BLOCK_BYTES` — one
    source at ``(2^10, 10)`` is one block of all ten limbs, 90 columns
    against ``K = 32``; ``eval_bsgs``'s 15 giant steps are one limb a
    block, 135 columns each; one source at ``(2^16, 24)`` is one limb a
    block too, and its 23 columns against 256 keep the rows.

    The butterflies are *lazy*: products stay unreduced and sums are not
    brought back below ``q`` stage by stage; a block is renormalized only
    where :func:`_lazy_plans` says the next operand would overflow, and
    once at the end (the inverse's last stage, which also carries
    ``1/N``).  Every value stays congruent to the canonical transform's,
    so the outputs are its canonical residues.

    Blocks are independent, so :meth:`forward` and :meth:`inverse` walk
    them in lanes, one thread per CPU (:func:`~repro.nums.kernels.in_lanes`;
    a one-block operand runs on the caller's thread).  Scratch (the raw
    product, its estimate, the transposed copy) is allocated per lane and
    never kept here.  The one cache filled after construction,
    :meth:`_block_plan`'s, is keyed by block and layout, so lanes fill
    distinct keys and a race on one key builds equal plans twice: one
    cached instance serves every thread.
    """

    degree: int
    moduli: tuple[int, ...]
    kernel: ReducerKernel = field(repr=False, compare=False)
    psi_pre: np.ndarray = field(repr=False, compare=False)
    psi_inv_pre: np.ndarray = field(repr=False, compare=False)
    n_inv_pre: np.ndarray = field(repr=False, compare=False)
    input_bound: int = field(repr=False, compare=False)
    _forward_plan: tuple = field(repr=False, compare=False)
    _inverse_plan: tuple = field(repr=False, compare=False)
    _block_plans: dict = field(default_factory=dict, repr=False, compare=False)

    #: Residue bytes one block of rows may span (``batch x rows x N x 8``).
    #: Anything up to key switching's stacked ``(10, 10, 1024)`` digit
    #: tensor (800 KiB) is one block — one dispatch per stage — while an
    #: N = 2^16 polynomial goes one 512 KiB limb at a time, which with its
    #: scratch (as much again) and twiddles fits a 2 MiB L2.
    BLOCK_BYTES: ClassVar[int] = 896 << 10

    @classmethod
    def create(cls, degree: int, moduli: tuple[int, ...]) -> "BatchNtt":
        """Stack (cached) per-limb twiddles and precompute batched tables.

        Tables are shaped ``(..., L, 1, N)`` — the trailing singleton keeps
        the per-row moduli column ``(L, 1, 1)`` broadcasting against the
        stage views; a leading axis carries the kernel's precomputed
        companions (the scaled reciprocals).  The slices
        of the transposed stages are stored in :func:`_late_order`.

        ``input_bound`` is what :meth:`forward` accepts on every limb:
        ``max(max q, 2 * min q)`` — any limb's residues (key switching
        feeds digit ``j``, below ``q_j``, to every limb unreduced) and
        any once-added pair of one limb's.  The renormalization plans are
        derived from it here, once; moduli that leave no room raise.
        """
        contexts = [NttContext.cached(degree, q) for q in moduli]
        q_col = np.array(moduli, dtype=np.uint64).reshape(-1, 1, 1)
        kernel = ReducerKernel(q_col)
        span = _transposed_span(degree)
        psi = np.stack([c.psi_rev for c in contexts]).reshape(-1, 1, degree)
        psi_inv = np.stack([c.psi_inv_rev for c in contexts]).reshape(-1, 1, degree)
        n_inv = np.array([c.n_inv for c in contexts], dtype=np.uint64).reshape(-1, 1, 1)
        input_bound = max(max(moduli), 2 * min(moduli))
        forward_plan, inverse_plan = _lazy_plans(
            kernel, moduli, ilog2(degree), input_bound
        )
        return cls(
            degree=degree,
            moduli=tuple(moduli),
            kernel=kernel,
            psi_pre=kernel.pre(_late_order(psi, degree, span)),
            psi_inv_pre=kernel.pre(_late_order(psi_inv, degree, span)),
            n_inv_pre=kernel.pre(n_inv),
            input_bound=input_bound,
            _forward_plan=forward_plan,
            _inverse_plan=inverse_plan,
        )

    @property
    def num_limbs(self) -> int:
        return len(self.moduli)

    @property
    def column_rows(self) -> int:
        """The fewest rows of one limb the column layout is taken for
        (:meth:`forward_columns`): ``K`` = :func:`_transposed_span`, the
        row layout's shortest run, as ``R`` is the column layout's."""
        return _transposed_span(self.degree)

    def blocks(self, batch: int = 1) -> list[slice]:
        """The limb-row slices one transform of ``batch`` stacked
        polynomials walks, each at most :data:`BLOCK_BYTES` of residues."""
        return self.row_blocks(self.num_limbs, batch * self.degree * 8)

    @classmethod
    def row_blocks(cls, count: int, row_bytes: int) -> list[slice]:
        """``count`` rows of ``row_bytes`` each cut into the fewest slices
        of at most :data:`BLOCK_BYTES` (at least one row), in order: the
        blocks of a transform, or of any limb-by-limb pass that should
        keep a block in cache.  Their sizes are within one row of each
        other, so no lane is left the bulk of a pass, and never grow, so
        a lane's first block is its largest (what its scratch is sized
        by)."""
        rows = max(1, cls.BLOCK_BYTES // row_bytes)
        blocks = -(-count // rows)
        size, extra = divmod(count, max(1, blocks))
        return [
            slice(b * size + min(b, extra), (b + 1) * size + min(b + 1, extra))
            for b in range(blocks)
        ]

    def _block_plan(
        self, rows: slice, columns: int = 0
    ) -> tuple[ReducerKernel, list, list | None]:
        """``(kernel, psi, psi_inv)`` of limbs ``rows``, built once and
        kept: their reducer (the full-column one when they are all the
        limbs) and, per stage ``m = 2^s``, the slice ``[m, 2m)`` of each
        twiddle table as a view that broadcasts against that stage's
        operands (:meth:`_operands`).  The inverse's last stage (``m =
        1``) gets the pair ``(n_inv, w * n_inv)`` of its two outputs in
        place of its one twiddle ``w``.

        With ``columns`` (a column block of ``columns`` polynomials per
        limb, see :meth:`forward_columns`) there is no ``psi_inv`` and
        every slice is in natural order, the late ones copied back from
        :func:`_late_order`'s, shaped ``(m, 1, r)`` against the stage's
        ``(m, t, R)`` halves.  One limb's are views, as for the rows.
        Over several limbs each limb's twiddles are pre-formed per
        column, ``R = r·columns`` wide (``16·N·R`` bytes: 1.5 MiB at
        ``(2^10, R = 90)``), and the reducer's moduli are a per-column
        row: their plan is kept per width as well."""
        count = rows.stop - rows.start
        key = (rows.start, rows.stop, columns if count > 1 else columns > 0)
        plan = self._block_plans.get(key)
        if plan is None:
            kern = self.kernel
            if columns and count > 1:
                kern = ReducerKernel(np.repeat(kern.q[rows, 0, 0], columns))
            elif count < self.num_limbs:
                kern = ReducerKernel(kern.q[rows])
            chunks = self.degree // _transposed_span(self.degree)

            def staged(w: np.ndarray) -> np.ndarray:
                if w.shape[-1] >= chunks:  # stored (groups, chunks)
                    w = w.reshape(*w.shape[:-1], -1, chunks)
                    if not columns:
                        return w.swapaxes(-2, -3)[..., None, None, :, None, :]
                    w = w.swapaxes(-1, -2).reshape(*w.shape[:-2], -1)
                if not columns:
                    return w[..., None, :, :, None]
                w = w.swapaxes(-1, -2)[..., None, :]
                return w if count == 1 else np.repeat(w, columns, axis=-1)

            groups = [1 << s for s in range(ilog2(self.degree))]
            psi = [staged(self.psi_pre[..., rows, 0, m : 2 * m]) for m in groups]
            psi_inv = None
            if not columns:
                psi_inv = [
                    staged(self.psi_inv_pre[..., rows, 0, m : 2 * m]) for m in groups
                ]
                n_inv = self.n_inv_pre[0, rows]
                w_n_inv = kern.mul(self.psi_inv_pre[0, rows, :, 1:2], n_inv)
                psi_inv[0] = tuple(
                    staged(kern.pre(w)[..., 0, :]) for w in (n_inv, w_n_inv)
                )
            plan = self._block_plans[key] = (kern, psi, psi_inv)
        return plan

    @staticmethod
    def _workspace(size: int) -> np.ndarray:
        """Per-call scratch for blocks of up to ``size`` residues: two
        rows of temporaries and one for the transposed copy."""
        return np.empty((3, size), np.uint64)

    @staticmethod
    def _turn(block: np.ndarray) -> np.ndarray:
        """A ``(batch, r, N)`` block viewed ``(K, batch, r, 1, N/K)``:
        position in the chunk first, chunk last — what the transposed
        copy is read from and written back through."""
        batch, count, n = block.shape
        span = _transposed_span(n)
        return block.reshape(batch, count, 1, n // span, span).transpose(4, 0, 1, 2, 3)

    def _layouts(self, block: np.ndarray, work: np.ndarray, columns: bool = False):
        """``(natural, turned, spare)`` for one ``(batch, r, N)`` block:
        the block with the singleton the moduli column broadcasts over;
        the contiguous scratch its transposed copy (:meth:`_turn`) lives
        in — for an ``(N, R)`` column block (``columns``, viewed ``(1, N,
        R)``) the block itself, which no stage turns; and ``spare(like)``, two
        scratch arrays shaped like an operand up to the block's size (a
        stage's half-block temporaries, a renormalization's whole-block
        ones)."""
        if columns:
            natural = turned = block[None]
        else:
            natural = block[:, :, None, :]
            turned = work[2, : block.size].reshape(self._turn(block).shape)

        def spare(like: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            first, second = work[:2, : like.size]
            return first.reshape(like.shape), second.reshape(like.shape)

        return natural, turned, spare

    @staticmethod
    def _operands(block: np.ndarray, turned: np.ndarray, m: int, columns: bool = False):
        """``(upper, lower)`` butterfly operands of the stage with ``m``
        groups: halves of ``(m, 2, t)`` in place while a group spans at
        least one chunk, row groups of the transposed copy after — or,
        for an ``(N, R)`` column block, halves of ``(m, 2, t, R)`` in
        place at every stage."""
        if columns:
            view = block.reshape(m, 2, -1, block.shape[-1])
            return view[:, 0], view[:, 1]
        chunks = turned.shape[-1]
        if m < chunks:
            view = block.reshape(*block.shape[:-1], m, 2, -1)
            return view[..., 0, :], view[..., 1, :]
        view = turned.reshape(m // chunks, 2, -1, *turned.shape[1:])
        return view[:, 0], view[:, 1]

    def forward(self, mat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``(..., L, N)`` coefficient rows -> evaluation rows.

        Leading batch axes are flattened so a stacked digit tensor — e.g.
        key switching's ``(L, L, N)`` matrix of broadcast digits — runs
        through the same per-stage kernel calls as a single polynomial:
        one vectorized dispatch per butterfly stage and block, covering
        every batch entry's rows of that block; the blocks run in lanes.
        Every limb's values may be anything below :attr:`input_bound`, or
        a once-added pair of that limb's residues; outputs are canonical.

        The result goes to ``out`` when given: a contiguous uint64 array
        of ``mat``'s shape, which may be ``mat`` itself — a transform in
        place, for a caller that keeps the rows it built (a stack of
        encoded diagonals, a switching key's error tensor).
        """
        shape = self._check(mat)
        src = np.asarray(mat, dtype=np.uint64).reshape(-1, *shape[-2:])
        if out is None:
            res = np.empty(src.shape, dtype=np.uint64)
        elif out.shape != shape or out.dtype != np.uint64 or not out.flags.c_contiguous:
            raise ValueError(f"out must be a contiguous {shape} uint64 array")
        else:
            res = out.reshape(src.shape)

        def lane(blocks: list[slice]) -> None:
            work = self._workspace(res[:, blocks[0]].size)
            for rows in blocks:
                if out is not mat:
                    np.copyto(res[:, rows], src[:, rows])
                self._forward_block(res[:, rows], rows, work)

        in_lanes(self.blocks(len(src)), lane)
        return res.reshape(shape) if out is None else out

    def forward_block(self, block: np.ndarray, rows: slice) -> None:
        """:meth:`forward` of limbs ``rows`` (one of :meth:`blocks`, or
        any slice with both bounds), in place on a contiguous ``(batch,
        rows, N)`` uint64 array — for a caller that produces and consumes
        a polynomial block by block while it is in cache (the streamed
        encryption) instead of materializing it."""
        self._check_block(block, rows)
        with ufunc_buffer():
            self._forward_block(block, rows, self._workspace(block.size))

    def _check_block(self, block: np.ndarray, rows: slice) -> None:
        count = rows.stop - rows.start
        if (
            block.dtype != np.uint64
            or block.ndim != 3
            or block.shape[1:] != (count, self.degree)
            or not block.flags.c_contiguous
        ):
            raise ValueError(
                f"expected a contiguous (batch, {count}, {self.degree}) uint64 block"
            )

    def _forward_block(
        self, block: np.ndarray, rows: slice, work: np.ndarray, columns: int = 0
    ) -> None:
        """Cooley–Tukey stages of one ``(batch, r, N)`` block, in place —
        or, with ``columns`` per limb, of limbs ``rows``' ``(N, R)``
        column block."""
        kern, psi, _ = self._block_plan(rows, columns)
        natural, turned, spare = self._layouts(block, work, columns > 0)
        bq = kern.q * np.uint64(kern.RAW_BOUND)
        held = natural
        for s, reduce_first in enumerate(self._forward_plan):
            if not columns and 1 << s == turned.shape[-1]:
                np.copyto(turned, self._turn(block))
                held = turned
            if reduce_first:
                kern.reduce(held, out=held, work=spare(held))
            u, x1 = self._operands(block, turned, 1 << s, columns > 0)
            raw, est = spare(u)
            v = kern.mul_pre_raw(x1, psi[s], out=raw, work=est)
            np.add(u, bq, out=x1)
            x1 -= v
            u += v
        done = natural if columns else self._turn(block)
        kern.reduce(turned, out=done, work=spare(turned))

    def forward_columns(self, block: np.ndarray, rows: slice) -> None:
        """:meth:`forward` of limbs ``rows`` on polynomials held as the
        columns of a contiguous ``(N, R)`` uint64 array, limb-major —
        ``R / len(rows)`` columns per limb, the first on limb
        ``rows.start`` — in place: the column layout (see the class
        docstring) for a caller that has the rows transposed already
        (key switching's decompositions).  Values may be anything below
        :attr:`input_bound`; outputs are canonical."""
        start, stop = rows.start, rows.stop
        if rows.step not in (None, 1) or not 0 <= start < stop <= self.num_limbs:
            raise ValueError(f"limbs {rows} outside [0, {self.num_limbs})")
        if (
            block.dtype != np.uint64
            or block.ndim != 2
            or block.shape[0] != self.degree
            or not block.shape[1]
            or block.shape[1] % (stop - start)
            or not block.flags.c_contiguous
        ):
            raise ValueError(
                f"expected a contiguous ({self.degree}, R) uint64 block, "
                f"R a multiple of the {stop - start} limb(s)"
            )
        work = np.empty((2, block.size), np.uint64)  # never turned: no third row
        with ufunc_buffer():
            self._forward_block(block, rows, work, block.shape[1] // (stop - start))

    def inverse(self, mat: np.ndarray) -> np.ndarray:
        """``(..., L, N)`` evaluation rows -> coefficient rows (scaled 1/N).

        Inputs are canonical residues; so are the outputs.
        """
        shape = self._check(mat)
        src = np.asarray(mat, dtype=np.uint64).reshape(-1, *shape[-2:])
        out = np.empty(src.shape, dtype=np.uint64)

        def lane(blocks: list[slice]) -> None:
            work = self._workspace(out[:, blocks[0]].size)
            for rows in blocks:
                self._inverse_block(src[:, rows], out[:, rows], rows, work)

        in_lanes(self.blocks(len(src)), lane)
        return out.reshape(shape)

    def inverse_block(self, block: np.ndarray, rows: slice) -> None:
        """:meth:`inverse` of limbs ``rows``, in place on a contiguous
        ``(batch, rows, N)`` uint64 array of canonical residues — the
        mirror of :meth:`forward_block`, for a caller that needs the
        coefficients of some limbs only (a rescale's dropped tail)."""
        self._check_block(block, rows)
        with ufunc_buffer():
            self._inverse_block(block, block, rows, self._workspace(block.size))

    def _inverse_block(
        self, src: np.ndarray, block: np.ndarray, rows: slice, work: np.ndarray
    ) -> None:
        """Gentleman–Sande stages of one ``(batch, r, N)`` block, read
        from ``src`` (straight into the transposed copy, so ``src`` may be
        ``block``) and left in ``block``."""
        kern, _, psi_inv = self._block_plan(rows)
        natural, turned, spare = self._layouts(block, work)
        np.copyto(turned, self._turn(src))
        held = turned
        stages = reversed(range(len(psi_inv)))
        for s, (reduce_first, c) in zip(stages, self._inverse_plan):
            if reduce_first:
                kern.reduce(held, out=held, work=spare(held))
            u, x1 = self._operands(block, turned, 1 << s)
            diff, est = spare(u)
            np.add(u, kern.q * np.uint64(c), out=diff)
            diff -= x1
            u += x1
            if s:
                kern.mul_pre_raw(diff, psi_inv[s], out=x1, work=est)
            else:  # the last stage scales both outputs by 1/N
                n_inv, w_n_inv = psi_inv[0]
                kern.mul_pre_raw(diff, w_n_inv, out=x1, work=est)
                kern.mul_pre_raw(u, n_inv, out=diff, work=est)
                _csub(diff, kern.q, out=u)
                _csub(x1, kern.q, out=x1)
            if 1 << s == turned.shape[-1]:
                np.copyto(self._turn(block), turned)
                held = natural

    def _check(self, mat: np.ndarray) -> tuple[int, ...]:
        if mat.ndim < 2 or mat.shape[-2:] != (self.num_limbs, self.degree):
            raise ValueError(
                f"expected (..., {self.num_limbs}, {self.degree}) matrix, "
                f"got {mat.shape}"
            )
        return mat.shape

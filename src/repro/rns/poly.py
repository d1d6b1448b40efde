"""RNS polynomials: the data type everything in CKKS computes on.

An :class:`RnsPolynomial` is an element of ``Z_Q[X]/(X^N+1)`` stored as an
``(L, N)`` uint64 matrix of residues — one row per RNS limb — together with
a domain tag (coefficient vs NTT/evaluation).  Domain misuse (adding a
coefficient-domain poly to an evaluation-domain one, multiplying outside
the evaluation domain, …) raises immediately rather than silently
corrupting ciphertexts.

All arithmetic runs as whole-``(L, N)``-matrix kernel calls with per-row
modulus broadcasting (``RnsBasis.kernel``) — one vectorized dispatch per
operation instead of a Python loop over limbs — and the NTT round trips
go through :class:`~repro.transforms.ntt.BatchNtt`, which butterflies
the limbs block by cache-sized block; every modular product is a Barrett
reduction (:class:`~repro.nums.kernels.ReducerKernel`).

"Expand RNS" and "Combine CRT" (Fig. 2a) are word-level too.
:func:`float_coeff_rows` (behind :meth:`from_float_coeffs`, over any
stack of polynomials) streams the float datapath's own (mantissa,
exponent) words limb by limb, each output row computed in cache by
Barrett's float64 quotient estimate, the way the MSE streams a limb;
:meth:`from_bigint_coeffs` accumulates the 32-bit words of exact
integers.  :meth:`_combine` is the mirror: Garner mixed-radix digits
peeled on the whole residue matrix, centred in mixed radix, and only the rows a
coefficient actually reaches folded into integers — read out exactly
(:meth:`to_bigints`) or as correctly rounded doubles
(:meth:`to_float_coeffs`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nums.kernels import in_lanes, kernel_for_modulus
from repro.rns.basis import RnsBasis
from repro.transforms.ntt import BatchNtt, galois_permutation

__all__ = ["RnsPolynomial", "COEFF", "EVAL"]

COEFF = "coeff"
EVAL = "eval"


def signed_embedder(coeffs: np.ndarray, min_modulus: int):
    """``embed(q_col, out)``: residues of signed ``coeffs`` on the limbs of
    a ``(rows, 1)`` uint64 moduli column, written to ``out (rows, N)``.

    A coefficient smaller in magnitude than every modulus needs no
    division: its residue is ``x`` or ``x + q``, i.e. ``x + (q & mask)``
    in wrapping uint64 with the sign mask (all ones where ``x < 0``) taken
    once for the polynomial — two passes per row, which is how the
    streamed encryption embeds its mask and errors block by block.  The
    data decide: one coefficient as large as ``min_modulus`` (no sampler
    output; a caller's own integers) sends every row through int64 ``%``.
    """
    coeffs = np.asarray(coeffs, dtype=np.int64)
    if max(int(coeffs.max()), -int(coeffs.min())) >= min_modulus:

        def embed(q_col: np.ndarray, out: np.ndarray) -> None:
            np.mod(coeffs, q_col.view(np.int64), out=out.view(np.int64))

    else:
        words = coeffs.view(np.uint64)
        mask = (coeffs >> 63).view(np.uint64)

        def embed(q_col: np.ndarray, out: np.ndarray) -> None:
            np.bitwise_and(q_col, mask, out=out)
            out += words

    return embed


def _peel(basis: RnsBasis, block: np.ndarray, first: int, pivot: int, rows: slice) -> None:
    """One mixed-radix peel, in place: ``block[rows] = (block[rows] -
    block[pivot]) * q_pivot^-1``, row ``r`` of the ``(..., r, N)``
    ``block`` living on limb ``first + r``.  Row ``pivot`` is the digit;
    ``rows`` loses it."""
    kern = basis.kernel_range(first + rows.start, first + rows.stop)
    q_pivot = basis.moduli[first + pivot]
    inv = np.array(
        [pow(q_pivot, -1, q) for q in basis.moduli[first + rows.start : first + rows.stop]],
        dtype=np.uint64,
    ).reshape(-1, 1)
    target = block[..., rows, :]
    # The digit is canonical for its own limb only: reduce it per target row.
    digit = kern.reduce(np.broadcast_to(block[..., pivot, None, :], target.shape))
    kern.mul(kern.sub(target, digit, out=digit), inv, out=target)


def _dropped_remainder(basis: RnsBasis, block: np.ndarray, lvl: int) -> np.ndarray:
    """``[x]_P`` on the kept limbs of level ``lvl``, canonical, from
    ``block``: the ``(..., times, N)`` coefficient rows of the dropped
    limbs, consumed (peeled in place).

    The peels leave the mixed-radix digits ``[x]_P = d_0 + d_1 q_{L-1} +
    d_2 q_{L-1} q_{L-2} + …``, digit ``t`` below its own prime
    ``q_{L-1-t}``, and the sum is taken on the kept limbs as it stands:
    ``reduce(d_0)`` (its weight is 1) plus ``w_t · d_t`` for ``t >= 1``
    (:meth:`~repro.rns.basis.RnsBasis.rescale_tables`), each digit read
    as a broadcast view of its one row — a product of a canonical weight
    and any ``d_t < 2^42`` reduces exactly — and added in canonical
    form.  One prime dropped is one reduction.
    """
    *lead, times, n = block.shape
    kern, weights, _ = basis.rescale_tables(lvl, times)
    keep = lvl - times
    shape = (*lead, keep, n)
    remainder = kern.reduce(np.broadcast_to(block[..., times - 1, None, :], shape))
    for t in range(1, times):
        # Digit t is the last undivided row once t peels are done.
        _peel(basis, block, keep, times - t, slice(0, times - t))
        digit = np.broadcast_to(block[..., times - 1 - t, None, :], shape)
        kern.add(remainder, kern.mul(digit, weights[t - 1]), out=remainder)
    return remainder


def rescale_rows(basis: RnsBasis, coeff: np.ndarray, times: int) -> np.ndarray:
    """Divide ``(..., L, N)`` coefficient-domain residues by the last
    ``times`` primes of level ``L``: :meth:`RnsPolynomial.rescale` on the
    bare matrix, any leading axes riding along — the moduli columns
    broadcast against the trailing ``(rows, N)`` dims, so each leading
    entry gets the bytes it would get alone.
    """
    lvl = coeff.shape[-2]
    kern, _, inv_col = basis.rescale_tables(lvl, times)
    keep = lvl - times
    remainder = _dropped_remainder(basis, coeff[..., keep:, :].copy(), lvl)
    diff = kern.sub(coeff[..., :keep, :], remainder, out=remainder)
    return kern.mul(diff, inv_col, out=diff)


def rescale_eval_rows(kern, basis: RnsBasis, a, times: int, outs) -> None:
    """Divide each part of ``a`` — evaluation rows of level ``L = len(outs[0])
    + times`` — by its last ``times`` primes, writing the ``L - times``
    evaluation rows of ``(x - [x]_P) · P^-1`` into ``outs``; ``kern`` is
    the kept rows' kernel.  The row function of a ciphertext's rescale.

    Only the ``times`` dropped rows of each part are copied and
    inverse-transformed (:meth:`~repro.transforms.ntt.BatchNtt.inverse_block`);
    ``[x]_P`` is summed from their mixed-radix digits on the kept limbs
    (:func:`_dropped_remainder`: one reduction for one prime, no
    broadcast digit tensor) and forward-transformed, and the division
    runs in the evaluation domain.  The NTT is linear over each ``Z_q``
    and every operand is canonical, so the bytes are ``forward(
    rescale_rows(inverse(x), times))``'s — with ``times`` inverse rows per
    part in place of ``L``.
    """
    keep = len(outs[0])
    lvl = keep + times
    _, _, inv_col = basis.rescale_tables(lvl, times)
    tail = np.stack([p[keep:lvl] for p in a])
    basis.batch_ntt(lvl).inverse_block(tail, slice(keep, lvl))
    remainder = _dropped_remainder(basis, tail, lvl)
    basis.batch_ntt(keep).forward(remainder, out=remainder)
    for p, rem, out in zip(a, remainder, outs):
        kern.mul(kern.sub(p[:keep], rem, out=out), inv_col, out=out)


def float_coeff_rows(basis: RnsBasis, level: int, values: np.ndarray) -> np.ndarray:
    """Integer-valued doubles ``(..., N)`` -> ``(..., level, N)`` RNS
    coefficient rows (Expand-RNS), each leading index the rows it would
    get alone: :meth:`RnsPolynomial.from_float_coeffs` and, for a stack
    of messages, :meth:`~repro.ckks.encoder.CkksEncoder.encode_rows`.

    A double is ``±M * 2^E`` with a 53-bit integer mantissa, so its
    residue is ``(M mod q_i) * (±2^E mod q_i)`` — what the MSE does
    with an FP55 word instead of materializing the ~72-bit integer.
    Limb by limb, in cache, straight into its output row: ``M mod
    q_i`` from Barrett's float64 quotient estimate, one gather from a
    sign-folded table of ``±2^E mod q_i`` and one Barrett ``mul``.  A
    stack is expanded as one: each limb's pass covers every leading
    index.  The limbs go in the cache-sized blocks a transform of the
    whole stack walks (:meth:`~repro.transforms.ntt.BatchNtt.row_blocks`),
    one lane per CPU (:func:`~repro.nums.kernels.in_lanes`).

    Bound: ``M < 2^53`` is an exact double, so ``trunc(M · r_q)``
    undershoots ``M / q`` by less than ``(M / q) 2^-49.5 + 1``
    (:class:`~repro.nums.kernels.ReducerKernel`): ``M - trunc(M ·
    r_q) · q`` is below ``2q`` for every ``q >= 11`` — every
    ``RnsBasis`` prime from N = 8 up, at least ``2N + 1 = 17`` — and
    below ``q + 11`` for the smaller ones.  Either way it is below
    ``2^42`` against a canonical table entry, which is all ``mul``
    needs to return the canonical product.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim < 1 or values.shape[-1] != basis.degree:
        raise ValueError(f"expected (..., {basis.degree}) coefficients")
    if not np.isfinite(values).all():
        raise ValueError("cannot expand non-finite coefficients")
    if (values != np.rint(values)).any():
        raise ValueError("coefficients must be integer-valued; round them first")
    mags = np.abs(values)
    # Below 2^53 the double is its own mantissa; above, shift it down.
    exponents = np.maximum(np.frexp(mags)[1] - 53, 0)
    mantissas = np.ldexp(mags, -exponents)
    words = mantissas.astype(np.uint64)
    top = int(exponents.max())
    index = exponents + (top + 1) * (values < 0)  # +2^E rows, then -2^E
    data = np.empty((*values.shape[:-1], level, basis.degree), dtype=np.uint64)

    def lane(blocks: list[slice]) -> None:
        for rows in blocks:
            for limb, q in enumerate(basis.moduli[rows], rows.start):
                row = data[..., limb, :]
                kern = kernel_for_modulus(q)
                powers = [pow(2, e, q) for e in range(top + 1)]
                signed = np.array(powers + [-p % q for p in powers], dtype=np.uint64)
                # The estimate is below 2^53: truncated through an int64 view.
                estimate = row.view(np.int64)
                np.multiply(mantissas, kern.reciprocal, out=estimate, casting="unsafe")
                row *= kern.q
                np.subtract(words, row, out=row)  # M mod q, short of a subtract
                kern.mul(row, signed[index], out=row)

    in_lanes(BatchNtt.row_blocks(level, words.size * 8), lane)
    return data


@dataclass
class RnsPolynomial:
    """A polynomial over an RNS basis prefix.

    Attributes:
        basis: the modulus chain this polynomial lives on.
        data: ``(level, N)`` uint64 residue matrix.
        domain: ``"coeff"`` or ``"eval"`` (NTT domain).
    """

    basis: RnsBasis
    data: np.ndarray
    domain: str = COEFF

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=np.uint64)
        if self.data.ndim != 2 or self.data.shape[1] != self.basis.degree:
            raise ValueError(
                f"data must be (level, {self.basis.degree}); got {self.data.shape}"
            )
        if not 1 <= self.data.shape[0] <= self.basis.num_primes:
            raise ValueError(f"level {self.data.shape[0]} outside basis range")
        if self.domain not in (COEFF, EVAL):
            raise ValueError(f"unknown domain {self.domain!r}")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, basis: RnsBasis, level: int, domain: str = COEFF) -> "RnsPolynomial":
        return cls(basis, np.zeros((level, basis.degree), dtype=np.uint64), domain)

    @classmethod
    def from_signed_coeffs(
        cls, basis: RnsBasis, level: int, coeffs: np.ndarray
    ) -> "RnsPolynomial":
        """Small signed integer coefficients -> residues on every limb.

        For |coeff| < q_min/2 this is the exact centered embedding; used
        for errors, ternary secrets, and already-rounded plaintexts.
        """
        coeffs = np.asarray(coeffs, dtype=np.int64)
        if coeffs.shape != (basis.degree,):
            raise ValueError(f"expected {basis.degree} coefficients")
        data = np.empty((level, basis.degree), dtype=np.uint64)
        embed = signed_embedder(coeffs, min(basis.moduli[:level]))
        embed(basis.kernel(level).q, data)
        return cls(basis, data, COEFF)

    @classmethod
    def from_bigint_coeffs(
        cls, basis: RnsBasis, level: int, coeffs: list[int]
    ) -> "RnsPolynomial":
        """Arbitrary-precision coefficients -> RNS (the exact Expand-RNS).

        Each magnitude is cut into 32-bit words (``int.to_bytes``, one
        Python pass over the list), least significant first.  Word 0 has
        weight 1 and is added as is; the rest go through one fused
        multiply-accumulate against per-limb powers of ``2^32``.
        """
        if len(coeffs) != basis.degree:
            raise ValueError(f"expected {basis.degree} coefficients")
        ints = [int(c) for c in coeffs]
        negative = np.array([c < 0 for c in ints], dtype=bool)
        mags = [-c if c < 0 else c for c in ints]
        max_bits = max((c.bit_length() for c in mags), default=0)
        count = max(1, (max_bits + 31) // 32)
        raw = b"".join(c.to_bytes(4 * count, "little") for c in mags)
        words = np.frombuffer(raw, dtype="<u4").reshape(basis.degree, count)
        words = words.T.astype(np.uint64)
        kern = basis.kernel(level)
        moduli = basis.moduli[:level]
        wide = np.broadcast_to(words[:, np.newaxis, :], (count, level, basis.degree))
        if min(moduli) >> 32 == 0:
            # A word may exceed (the square of) a modulus: plain division.
            wide = wide % kern.q
        data = np.ascontiguousarray(wide[0])
        if count > 1:
            weights = np.array(
                [[pow(2, 32 * k, q) for q in moduli] for k in range(1, count)],
                dtype=np.uint64,
            ).reshape(-1, level, 1)
            data = kern.add(data, kern.mul_accumulate(wide[1:], weights))
        if negative.any():
            data = np.where(negative[np.newaxis, :], kern.neg(data), data)
        return cls(basis, data, COEFF)

    @classmethod
    def from_float_coeffs(
        cls, basis: RnsBasis, level: int, values: np.ndarray
    ) -> "RnsPolynomial":
        """Integer-valued doubles -> RNS, straight from the float datapath
        (:func:`float_coeff_rows` of one polynomial).  Residues equal
        ``from_bigint_coeffs([int(v) for v in values])`` exactly (canonical
        residues are unique).
        """
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (basis.degree,):
            raise ValueError(f"expected {basis.degree} coefficients")
        return cls(basis, float_coeff_rows(basis, level, values), COEFF)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def level(self) -> int:
        """Number of active limbs."""
        return self.data.shape[0]

    @property
    def degree(self) -> int:
        return self.basis.degree

    def moduli(self) -> tuple[int, ...]:
        return self.basis.moduli[: self.level]

    def copy(self) -> "RnsPolynomial":
        return RnsPolynomial(self.basis, self.data.copy(), self.domain)

    def _kernel(self, level: int | None = None):
        return self.basis.kernel(self.level if level is None else level)

    # ------------------------------------------------------------------
    # Domain transforms
    # ------------------------------------------------------------------

    def to_eval(self) -> "RnsPolynomial":
        """Coefficient -> NTT domain, all limbs batched."""
        if self.domain == EVAL:
            return self
        out = self.basis.batch_ntt(self.level).forward(self.data)
        return RnsPolynomial(self.basis, out, EVAL)

    def to_coeff(self) -> "RnsPolynomial":
        """NTT -> coefficient domain, all limbs batched."""
        if self.domain == COEFF:
            return self
        out = self.basis.batch_ntt(self.level).inverse(self.data)
        return RnsPolynomial(self.basis, out, COEFF)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------

    def _check_compatible(self, other: "RnsPolynomial") -> int:
        if self.basis is not other.basis and self.basis.moduli != other.basis.moduli:
            raise ValueError("polynomials live on different bases")
        if self.domain != other.domain:
            raise ValueError(f"domain mismatch: {self.domain} vs {other.domain}")
        return min(self.level, other.level)

    def __add__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        lvl = self._check_compatible(other)
        out = self._kernel(lvl).add(self.data[:lvl], other.data[:lvl])
        return RnsPolynomial(self.basis, out, self.domain)

    def __sub__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        lvl = self._check_compatible(other)
        out = self._kernel(lvl).sub(self.data[:lvl], other.data[:lvl])
        return RnsPolynomial(self.basis, out, self.domain)

    def __neg__(self) -> "RnsPolynomial":
        return RnsPolynomial(self.basis, self._kernel().neg(self.data), self.domain)

    def __mul__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        """Pointwise product — only legal in the evaluation domain."""
        if self.domain != EVAL or other.domain != EVAL:
            raise ValueError("polynomial products require the NTT domain; call to_eval()")
        lvl = self._check_compatible(other)
        out = self._kernel(lvl).mul(self.data[:lvl], other.data[:lvl])
        return RnsPolynomial(self.basis, out, EVAL)

    def automorphism(self, k: int) -> "RnsPolynomial":
        """Apply X -> X^k (k odd) to an evaluation-domain polynomial.

        The Galois automorphisms behind CKKS slot rotations: the odd
        powers of ψ permute among themselves, so it is a *pure* slot
        permutation (:func:`~repro.transforms.ntt.galois_permutation`) —
        no sign flips and no NTT round trip.
        """
        if self.domain != EVAL:
            raise ValueError("automorphism operates in the evaluation domain")
        if k % 2 == 0:
            raise ValueError("automorphism index must be odd")
        src = galois_permutation(self.degree, k % (2 * self.degree))
        return RnsPolynomial(self.basis, np.take(self.data, src, axis=-1), EVAL)

    # ------------------------------------------------------------------
    # Level manipulation (rescale / mod-down)
    # ------------------------------------------------------------------

    def drop_limbs(self, new_level: int) -> "RnsPolynomial":
        """Forget trailing limbs (plain modulus reduction, no division)."""
        if not 1 <= new_level <= self.level:
            raise ValueError(f"new level must be in [1, {self.level}]")
        return RnsPolynomial(self.basis, self.data[:new_level].copy(), self.domain)

    def rescale(self, times: int = 1) -> "RnsPolynomial":
        """Divide by the last ``times`` primes (CKKS rescale) in one pass.

        Generalizes ``(x - [x]_P) * P^{-1}`` — the exact RNS rescaling of
        Cheon et al.'s RNS-CKKS variant — to the composite
        ``P = q_{L-times} ... q_{L-1}``: the mixed-radix digits of
        ``[x]_P`` are derived from the *dropped* rows alone (a cheap
        ``(times, N)`` tail computation mirroring the sequential per-prime
        division digit for digit), then folded onto the kept rows with one
        broadcast-reduce, one fused multiply-accumulate, one subtract, and
        one scale — whole-matrix cost independent of ``times``, and
        bit-identical to applying the single-prime rescale ``times``
        times.
        """
        if self.domain != COEFF:
            raise ValueError("rescale operates in the coefficient domain")
        data = rescale_rows(self.basis, self.data, times)
        return RnsPolynomial(self.basis, data, COEFF)

    # ------------------------------------------------------------------
    # Exact lifts
    # ------------------------------------------------------------------

    def _combine(self, center: bool) -> np.ndarray:
        """Combine CRT on words: every coefficient as an exact Python int.

        Garner's mixed-radix digits ``x = d_0 + d_1 q_0 + d_2 q_0 q_1 + …``
        come from ``level - 1`` peels of the whole residue matrix.  ``Q``
        is odd, so the digits of ``Q // 2`` are ``q_j // 2`` and
        ``x > Q // 2`` (the centred-representative rule) is
        a lexicographic compare; where it holds ``x - Q`` is taken digit
        by digit, ``Q = q_0 + sum_{j>0} (q_j - 1) q_0 … q_{j-1}``, which
        leaves signed digits and no carry.  A coefficient of magnitude
        below ``q_0 … q_{k-1}`` then has zeros from row ``k`` up, so the
        Horner fold starts at the highest row that is non-zero anywhere:
        one row for a scale-2^36 reply, two or three for a Δ = 2^72
        message, whatever the level.

        The data decide the fold's integers, as in :func:`signed_embedder`.
        Every lower digit is below its modulus in magnitude, so every
        partial sum of the fold is below ``(M + 2) q_0 … q_{top-1}``, ``M``
        the largest top digit: while that is at most ``2^63`` the fold
        runs in int64 (a reply: no fold at all), else exactly in an object
        array.
        """
        if self.domain != COEFF:
            raise ValueError("lift from the coefficient domain")
        moduli = self.moduli()
        block = self.data.copy()
        for j in range(self.level - 1):
            _peel(self.basis, block, 0, j, slice(j + 1, self.level))
        digits = block.view(np.int64)  # residues are far below 2^63
        if center:
            negative = np.zeros(self.degree, dtype=bool)
            for row, q in zip(digits, moduli):  # least significant first
                negative &= row == q // 2
                negative |= row > q // 2
            q_digits = [moduli[0], *(q - 1 for q in moduli[1:])]
            digits -= np.array(q_digits, dtype=np.int64)[:, np.newaxis] * negative
        top = int(np.flatnonzero(digits.any(axis=1)).max(initial=0))
        acc = digits[top]
        bound = int(np.abs(acc).max()) + 2
        for q in moduli[:top]:
            bound *= q
        if bound > 1 << 63:
            acc = acc.astype(object)
        for j in range(top - 1, -1, -1):
            acc *= moduli[j]  # in place: one generation of integers alive
            acc += digits[j]
        return acc

    def to_bigints(self, center: bool = True) -> list[int]:
        """CRT-combine every coefficient into a Python int (Combine CRT)."""
        return self._combine(center).tolist()

    def to_float_coeffs(self) -> np.ndarray:
        """Centred coefficients as doubles: :meth:`from_float_coeffs`' mirror.

        The fold is exact and each integer is rounded once (ties to even,
        CPython's int -> float), so the result is bit-equal to
        ``np.array(self.to_bigints(), dtype=np.float64)``.
        """
        return self._combine(center=True).astype(np.float64)

"""Pluggable vectorized modular-reduction backends — the software Table I.

The paper's central hardware argument (Section III, Table I) is that the
choice of modular reducer dominates accelerator cost.  This module makes
that choice a *software* knob as well: two interchangeable uint64 numpy
kernels compute ``a * b mod q`` with identical results but different
instruction mixes, mirroring the area/pipeline trade-offs of the hardware
candidates:

* ``barrett`` — quotient estimation against a per-prime precomputed
  reciprocal: ``trunc(x · r_q)`` in float64 with ``r_q`` just below
  ``1/q``, then ``x - q̂·q`` in wrapping uint64 and one conditional
  subtract; every division becomes multiply/subtract (Table I row 1,
  whose bit-level shift-multiply form is :mod:`repro.nums.barrett`).
* ``montgomery`` — word-size REDC with ``R = 2^64``; constants (twiddle
  tables, scalars) are kept in the Montgomery domain so each product
  costs a single REDC (Table I rows 2–3; the NTT-friendly variant differs
  from vanilla Montgomery only in hardware cost, not semantics).

Every kernel instance is bound to a modulus *array* — a scalar for one
prime or an ``(L, 1)``/``(L, 1, 1)`` column for per-row broadcasting over
whole ``(L, N)`` RNS residue matrices — and carries the precomputed
tables it needs.  All kernels assume **canonical inputs** in ``[0, q)``;
the RNS layers maintain that invariant, and ``reduce`` is available for
values up to ``q^2``.  Two primitives defer reduction the way a hardware
MAC datapath does: ``mul_pre_raw``, each backend's product *short of its
conditional subtracts* (congruent mod ``q``, below ``RAW_BOUND * q``, for
any first operand below ``raw_operand_limit = 2^42``), which the batched
NTT's butterflies sum; and ``mul_accumulate_rows``, the inner product of key
switching and the fused plaintext MAC, which multiplies the halves of a
split operand against plain residues — no per-backend constant form.

The :class:`ReducerSpec` table is the single source of truth tying each
algorithm to its Table I hardware accounting (multiplier equivalents and
pipeline depth); :mod:`repro.accel.calibration` derives its area-model
constants from it so the software kernels and the accelerator model are
driven by the same data.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

__all__ = [
    "ReducerSpec",
    "REDUCER_SPECS",
    "ReducerKernel",
    "BarrettKernel",
    "MontgomeryKernel",
    "KERNEL_LIMIT_BITS",
    "ufunc_buffer",
    "available_backends",
    "get_backend",
    "make_kernel",
    "kernel_for_modulus",
    "default_backend_name",
    "set_default_backend",
    "using_backend",
]

# Kernels accept moduli up to 41 bits: Barrett's float estimate is exact
# for quotients below 2^42, and Montgomery's 20-bit operand split keeps
# a * b_hi inside uint64.  The paper's 32–36-bit double-scale primes fit
# with margin.
KERNEL_LIMIT_BITS = 41

_U64 = np.uint64
_MASK32 = _U64(0xFFFFFFFF)
_S32 = _U64(32)


# ---------------------------------------------------------------------------
# Hardware accounting shared with the accelerator's Table I area model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReducerSpec:
    """One Table I row: hardware accounting for a reduction algorithm.

    Attributes:
        algorithm: Table I key (``barrett`` / ``montgomery`` /
            ``ntt_friendly``).
        multiplier_equivalents: full ``bw^2`` multiplier arrays the
            datapath instantiates (fit to Table I, residual < 0.2 %).
        pipeline_stages: pipeline depth reported in Table I.
        paper_area_um2: the ground-truth 28 nm area for regression checks.
    """

    algorithm: str
    multiplier_equivalents: float
    pipeline_stages: int
    paper_area_um2: int


REDUCER_SPECS: dict[str, ReducerSpec] = {
    "barrett": ReducerSpec("barrett", 4.0, 4, 35054),
    "montgomery": ReducerSpec("montgomery", 2.0, 3, 19255),
    "ntt_friendly": ReducerSpec("ntt_friendly", 1.0, 3, 11328),
}
"""Table I rows, keyed by algorithm name (28 nm @ 600 MHz)."""


# ---------------------------------------------------------------------------
# Wide helper arithmetic on uint64 lanes
# ---------------------------------------------------------------------------
#
# numpy integer arithmetic wraps modulo 2^64, which the carry chains below
# account for exactly.  Conditionals are expressed with np.minimum instead
# of np.where: for values known to sit in a narrow band, the wrapped
# "wrong" branch is astronomically large, so the minimum selects the
# correct branch in one cheap SIMD pass (np.where costs ~25x more).

_SPLIT20 = _U64(20)
_MASK20 = _U64((1 << 20) - 1)


def _mul128_41(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact 128-bit product of two < 2^42 operands as a (hi, lo) pair.

    Splits ``b`` at 20 bits so both partial products ``p1 = a * (b >> 20)``
    and ``p0 = a * (b & mask)`` stay inside uint64; the high word is
    ``p1 >> 44`` plus the carry out of the wrapped low-word sum.
    """
    b_hi = b >> _SPLIT20
    b_lo = b & _MASK20
    p1 = a * b_hi
    p0 = a * b_lo
    p1s = p1 << _SPLIT20
    lo = p1s + p0
    hi = (p1 >> _U64(44)) + (lo < p1s)
    return hi, lo


#: Elements in numpy's ufunc buffer inside :func:`ufunc_buffer`: walks the
#: 4096-down-to-512 runs of an N = 2^16 limb in place and still fills long
#: inner loops on the short rows of an N <= 2^12 block; 128 to 1024
#: measure within noise of each other at every committed shape.
_UFUNC_BUFFER = 512


@contextmanager
def ufunc_buffer():
    """Scope numpy's ufunc buffer to :data:`_UFUNC_BUFFER` elements.

    A ufunc over a view whose contiguous run is shorter than the buffer
    (8192 elements by default) is copied through it — a butterfly pass
    over ``(m, 2, t)``, a kernel pass broadcasting the ``(L, 1)`` moduli
    column over ``(L, N <= 4096)`` rows: 0.65-0.85 ns per element against
    ~0.22 walked in place.  The setting is context-local on numpy >= 2,
    thread-local before, and the caller's value is restored on the way
    out, raising or not; so the scope (also a decorator) opens where ops
    are dispatched — a transform, an evaluator call, a fused replay —
    never process-wide.
    """
    previous = np.setbufsize(_UFUNC_BUFFER)
    try:
        yield
    finally:
        np.setbufsize(previous)


def _csub(x: np.ndarray, q, out=None) -> np.ndarray:
    """One conditional subtract: maps [0, 2q) into [0, q).

    Relies on wrap-around: when ``x < q`` the subtraction wraps to a huge
    value and the minimum keeps ``x``.
    """
    return np.minimum(x, x - q, out=out)


# ---------------------------------------------------------------------------
# Kernel base class
# ---------------------------------------------------------------------------


class ReducerKernel:
    """Vectorized modular arithmetic bound to one or more moduli.

    ``moduli`` may be a Python int, or any uint64-convertible array whose
    shape broadcasts against the operand arrays (e.g. an ``(L, 1)`` column
    against ``(L, N)`` residue matrices).  A subclass is one word-size
    reducer — a Table I row: it adds its per-modulus tables in
    ``_precompute`` and its products (:meth:`mul`, :meth:`pre`,
    :meth:`mul_pre_raw`).

    All operands are assumed canonical (``0 <= x < q`` elementwise) except
    where noted; outputs are always canonical.
    """

    name: ClassVar[str]
    spec: ClassVar[ReducerSpec]
    #: :meth:`mul_pre_raw` returns values below ``RAW_BOUND * q`` — one
    #: conditional subtract short of canonical, under either backend.
    RAW_BOUND: ClassVar[int] = 2
    #: Exclusive bound on :meth:`mul_pre_raw`'s first operand (which need
    #: not be canonical): below it the partial products of a 41-bit
    #: modulus stay inside uint64 and the ``RAW_BOUND`` holds.
    raw_operand_limit: ClassVar[int] = 1 << 42

    def __init__(self, moduli) -> None:
        q = np.asarray(moduli, dtype=np.uint64)
        flat = [int(v) for v in np.atleast_1d(q).ravel()]
        for v in flat:
            if v < 2:
                raise ValueError(f"kernels need moduli >= 2, got {v}")
            if v.bit_length() > KERNEL_LIMIT_BITS:
                raise ValueError(
                    f"modulus {v} has {v.bit_length()} bits; kernels support at "
                    f"most {KERNEL_LIMIT_BITS} bits (paper uses 32–36-bit primes)"
                )
        self.q = q
        #: Canonical terms one deferred sum may hold before a partial
        #: reduce: it must fit uint64 and ``reduce``'s ``[0, q^2)`` domain.
        self.term_budget = min(((1 << 64) - 1) // max(max(flat) - 1, 1), min(flat))
        #: Operand split width ``h`` of :meth:`mul_accumulate_rows`, and
        #: the terms one of its partial sums may hold (the bound is there):
        #: about 1024 at 36 bits, 256 at 37, 3 at 41.
        self.mac_split = (max(flat).bit_length() + 1) // 2
        term = (max(flat) - 1) * ((1 << self.mac_split) - 1)
        self.mac_budget = (min(1 << 64, min(flat) ** 2) - max(flat)) // term - 1
        self._precompute()

    def _precompute(self) -> None:
        raise NotImplementedError

    def _table(self, fn) -> np.ndarray:
        """Per-modulus precomputed table, shaped like ``self.q``.

        ``fn`` maps one Python-int modulus to one uint64-representable
        value; the result follows the moduli array's (possibly 0-d) shape
        so it broadcasts wherever ``self.q`` does.
        """
        shape = np.shape(self.q)
        vals = np.array(
            [fn(int(v)) for v in np.atleast_1d(self.q).ravel()], dtype=np.uint64
        )
        return vals.reshape(shape) if shape else vals.reshape(())

    # -- multiplicative ------------------------------------------------

    def mul(self, a: np.ndarray, b, out=None) -> np.ndarray:
        """Elementwise ``a * b mod q`` for canonical operands."""
        raise NotImplementedError

    def pre(self, b) -> np.ndarray:
        """Precompute a constant operand for repeated :meth:`mul_pre`.

        The returned array is in whatever internal form the backend
        multiplies fastest against (Montgomery domain for ``montgomery``,
        the residues stacked on their scaled float64 reciprocals for
        ``barrett``).
        """
        raise NotImplementedError

    def mul_pre(self, a: np.ndarray, b_pre: np.ndarray, out=None) -> np.ndarray:
        """``a * b mod q`` where ``b_pre`` came from :meth:`pre`: the raw
        product and its one conditional subtract."""
        return _csub(self.mul_pre_raw(a, b_pre), self.q, out=out)

    def mul_accumulate(self, a: np.ndarray, b, axis: int = 0, out=None) -> np.ndarray:
        """Fused ``sum_t a[t] * b[t] mod q`` along ``axis`` — one reduction.

        The inner-product primitive behind batched key switching: products
        are reduced to canonical form, but the *accumulation* is deferred —
        terms are summed as raw uint64 and reduced once at the end.  With
        canonical terms below ``2^41`` the uint64 headroom fits ``2^23``
        addends, far beyond any RNS digit count; longer axes fall back to
        chunked partial sums so the result stays exact.  Canonical outputs
        make the op bit-identical across backends.
        """
        return self._accumulate(self.mul(a, b), axis, out=out)

    def mul_pre_raw(
        self, a: np.ndarray, b_pre: np.ndarray, out=None, work=None
    ) -> np.ndarray:
        """Unreduced ``a * b``: an array congruent to the product mod
        ``q`` and below ``RAW_BOUND * q``, for ``a < raw_operand_limit``.

        What :meth:`mul_pre` computes before its conditional subtracts —
        the term the lazy NTT butterflies sum, reducing once per block
        instead of once per product.  The result goes to ``out`` when
        given; ``work`` is scratch of the result's shape for a backend
        whose product has a full-size temporary (Barrett's quotient
        estimate), so a caller that passes both allocates nothing.
        Neither may overlap ``a``.
        """
        raise NotImplementedError

    def mul_accumulate_rows(self, rows, consts, outs=None, budget=None) -> list:
        """``outs[k] = sum_t rows[t] * consts[k][t] mod q`` — four plain
        passes per term, one reduction pair per output.

        The row-loop inner product behind key switching (two key
        components contracted against the same digit rows) and the fused
        plaintext MAC.  ``rows`` yields each canonical operand once; it is
        the operand every output shares, so it is the one that is split:
        ``row = hi * 2^h + lo`` with ``h = ceil(bits(q_max) / 2)``.  A
        term is ``S_hi += hi * c`` and ``S_lo += lo * c`` in raw uint64
        against the *plain residues* ``c = consts[k][t]`` — no pre-form,
        no quotient estimate, no ``q`` column — and an output is
        ``reduce((reduce(S_hi) << h) + S_lo)``, written to ``outs[k]``
        when given.  Row-sized operands keep every temporary in cache.

        Bound: ``hi <= (q_max - 1) >> h < 2^h`` and ``lo < 2^h``, so a
        term adds at most ``T = (q_max - 1)(2^h - 1)`` to either sum, and
        a reduced sum, at most ``q - 1 <= T``, is one term.  With ``n``
        terms held the recombined value is at most ``(q - 1) 2^h + n T <
        (n + 1) T + q_max``, which stays below ``M = min(2^64, q_min^2)``
        (uint64, and ``reduce``'s domain; ``S_hi <= n T`` a fortiori)
        whenever ``n + 1 <= (M - q_max) // T``: ``mac_budget`` is that
        quotient less the recombination's one.  ``budget`` (default
        ``mac_budget``; at least 2, which moduli of a few bits do not
        reach) caps the terms a partial sum holds: past it both sums are
        reduced in place and accumulation continues, so any term count is
        exact, and byte-equal to ``mul_accumulate`` over the stacked
        operands under every backend (canonical residues are unique).
        """
        budget = self.mac_budget if budget is None else budget
        if budget < 2:
            raise ValueError(
                f"{self.name}: a partial sum must hold two terms, got budget "
                f"{budget} (MAC split at {self.mac_split} bits)"
            )
        h = _U64(self.mac_split)
        mask = _U64((1 << self.mac_split) - 1)
        sums: list = []  # per output, the pair (S_hi, S_lo)
        hi = lo = None
        for t, row in enumerate(rows):
            hi = np.right_shift(row, h, out=hi)
            lo = np.bitwise_and(row, mask, out=lo)
            if not sums:
                sums = [(hi * c[0], lo * c[0]) for c in consts]
                prod = np.empty_like(sums[0][0])
                continue
            if t % (budget - 1) == 0:  # a reduced sum counts as one term
                for pair in sums:
                    for s in pair:
                        self.reduce(s, out=s)
            for (s_hi, s_lo), c in zip(sums, consts):
                s_hi += np.multiply(hi, c[t], out=prod)
                s_lo += np.multiply(lo, c[t], out=prod)
        if not sums:
            raise ValueError("mul_accumulate_rows needs at least one row")
        for s_hi, s_lo in sums:
            self.reduce(s_hi, out=s_hi)
            s_hi <<= h
            s_hi += s_lo
        outs = outs or [None] * len(sums)
        return [self.reduce(s_hi, out=out) for (s_hi, _), out in zip(sums, outs)]

    def add_accumulate(self, terms: np.ndarray, axis: int = 0, out=None) -> np.ndarray:
        """Fused ``sum_t terms[t] mod q`` along ``axis`` — one reduction.

        The fused form of an add-reduction tree: canonical addends are
        summed as raw uint64 and reduced once.  Canonical residues are
        unique, so the result is bit-identical to folding the same terms
        through a chain of binary :meth:`add` calls — which is what lets
        the plan fusion pass collapse accumulation chains into one
        dispatch without perturbing ciphertext bytes.
        """
        return self._accumulate(np.asarray(terms, dtype=np.uint64), axis, out=out)

    def _accumulate(self, prod: np.ndarray, axis: int, out=None) -> np.ndarray:
        """Sum canonical products along ``axis`` with deferred reduction."""
        headroom = self.term_budget
        terms = prod.shape[axis]
        if terms <= headroom:
            acc = np.add.reduce(prod, axis=axis, dtype=np.uint64)
        else:  # pragma: no cover - needs > 2^23 digit rows
            prod = np.moveaxis(prod, axis, 0)
            acc = np.zeros(prod.shape[1:], dtype=np.uint64)
            for start in range(0, terms, headroom):
                chunk = prod[start : start + headroom]
                part = np.add.reduce(chunk, axis=0, dtype=np.uint64)
                acc = self.add(self.reduce(acc), self.reduce(part))
        return self.reduce(acc, out=out)

    def pow(self, a: np.ndarray, exponent: int) -> np.ndarray:
        """Elementwise ``a ** exponent mod q`` by square-and-multiply."""
        if exponent < 0:
            raise ValueError("negative exponents not supported; invert first")
        a = np.asarray(a, dtype=np.uint64)
        result = np.ones(np.broadcast_shapes(a.shape, np.shape(self.q)), dtype=np.uint64)
        base = a
        e = exponent
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    # -- additive ------------------------------------------------------

    def add(self, a: np.ndarray, b, out=None) -> np.ndarray:
        """Elementwise modular addition (canonical in, canonical out)."""
        a = np.asarray(a, dtype=np.uint64)
        b = np.asarray(b, dtype=np.uint64)
        return _csub(a + b, self.q, out=out)

    def sub(self, a: np.ndarray, b, out=None) -> np.ndarray:
        """Elementwise modular subtraction (canonical in, canonical out)."""
        a = np.asarray(a, dtype=np.uint64)
        b = np.asarray(b, dtype=np.uint64)
        d = a - b  # wraps when a < b; then d + q is the canonical value
        return np.minimum(d, d + self.q, out=out)

    def neg(self, a: np.ndarray, out=None) -> np.ndarray:
        """Elementwise modular negation."""
        a = np.asarray(a, dtype=np.uint64)
        # q - a is canonical except at a == 0, where 0 - a == 0 wins the min.
        return np.minimum(self.q - a, _U64(0) - a, out=out)

    # -- reduction -----------------------------------------------------

    def reduce(self, x: np.ndarray, out=None, work=None) -> np.ndarray:
        """Reduce arbitrary values in ``[0, q^2)`` to canonical form.

        ``work`` is a pair of scratch arrays of the result's shape for a
        backend whose reduction has full-size temporaries (Barrett); with
        it and ``out`` the call allocates nothing.  ``out`` may be ``x``;
        the scratch may not overlap either.
        """
        return np.mod(np.asarray(x, dtype=np.uint64), self.q, out=out)

    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(q={np.atleast_1d(self.q).ravel().tolist()})"


# ---------------------------------------------------------------------------
# barrett: quotient estimation against a float64 reciprocal
# ---------------------------------------------------------------------------


class BarrettKernel(ReducerKernel):
    """Vectorized Barrett reduction (Table I row 1), its quotient
    estimated from a float64 reciprocal.

    Per modulus the kernel keeps one double, ``r_q = RN((1 - 2^-50) / q)``
    (:attr:`reciprocal`; ``RN`` rounds to nearest).  Reducing a value
    ``x`` — a product (:meth:`mul`), a sum (:meth:`reduce`), a product
    with a pre-formed constant (:meth:`mul_pre_raw`) — estimates its
    quotient as ``q̂ = trunc(e)``, ``e`` the float64 product of ``x`` (or
    of its factors) with ``r_q``, forms ``t = x - q̂·q`` in wrapping uint64
    and subtracts ``q`` once where ``t >= q``.  No division: a :meth:`mul`
    is 7 ufunc calls (10 elementwise steps, counting the casts between
    integers and float64), a :meth:`reduce` 5 (7), a raw product 4 (6).

    Why it is exact.  ``e`` is three roundings to nearest away from
    ``x / q``, each of relative error at most ``u = 2^-53``: ``r_q``
    itself; ``RN(a·b)`` and ``RN(· r_q)`` in :meth:`mul`; the cast of
    ``x`` (exact below ``2^53``) and ``RN(x̂ · r_q)`` in :meth:`reduce`;
    ``w_q = RN(w · r_q)`` (:meth:`pre`) and ``RN(a · w_q)`` in the raw
    product, whose operands are below ``2^53`` and cast exactly.  So

    * ``e <= (x/q)(1 - 2^-50)(1 + u)^3 < x/q``: the estimate never
      overshoots (``r_q <= (1 - 2^-51)/q`` already);
    * ``e >= (x/q)(1 - 2^-50)(1 - u)^3 > (x/q)(1 - 11·2^-53)``: it
      undershoots ``x/q`` by less than ``(x/q)·2^-49.5``, below 1 while
      the true quotient is below ``2^53 / 11``.

    Then ``x/q - 1 < e <= x/q``, so ``q̂`` is ``floor(x/q)`` or one less
    and ``t`` is ``x mod q`` or that plus ``q``: below ``2q``, and the
    wrapped difference is exact.  Every caller keeps the quotient below
    ``2^42``: :meth:`mul`'s ``ab/q < q <= 2^41``, :meth:`reduce`'s
    ``x/q < q`` for ``x < min(q^2, 2^64)``, the raw product's ``a·w/q <
    a < 2^42``.

    The casts read and write int64 views wherever the value is provably
    below ``2^63`` — the estimate (below ``2^42``), :meth:`mul`'s factors
    and the raw product's ``a`` (below ``2^42``) — which convert to and
    from float64 exactly as uint64 does, at 1.4–1.8x less cost in numpy.
    Only :meth:`reduce` casts its input as uint64: a sum may reach
    ``2^64 - 1``.
    """

    name = "barrett"
    spec = REDUCER_SPECS["barrett"]

    def _precompute(self) -> None:
        #: ``r_q``, shaped like ``q``: ``1 - 2^-50`` and ``q`` are exact
        #: doubles, so the one correctly rounded division is the ``RN``.
        self.reciprocal = (1.0 - 2.0**-50) / self.q.astype(np.float64)

    def _times_q(self, x, scale, out=None) -> np.ndarray:
        """``trunc(x * scale) * q`` in uint64, into ``out`` when given:
        the quotient estimate times the modulus.  The estimate is below
        ``2^42``, so it is truncated through an int64 view."""
        if out is None:
            shape = np.broadcast_shapes(np.shape(x), np.shape(scale))
            out = np.empty(shape, dtype=np.uint64)
        np.multiply(x, scale, out=out.view(np.int64), casting="unsafe")  # truncates
        out *= self.q
        return out

    def mul(self, a: np.ndarray, b, out=None) -> np.ndarray:
        """Elementwise ``a * b mod q``; exact whenever ``a * b / q <
        2^42`` — canonical operands, or a canonical ``b`` against any
        ``a < 2^42``."""
        a = np.asarray(a, dtype=np.uint64)
        b = np.asarray(b, dtype=np.uint64)
        est = np.empty(np.broadcast_shapes(a.shape, b.shape, self.q.shape))
        # RN(a * b); both factors are below 2^42, so cast as int64.
        np.multiply(a.view(np.int64), b.view(np.int64), out=est, dtype=np.float64)
        t = self._times_q(est, self.reciprocal, out=est.view(np.uint64))
        np.subtract(a * b, t, out=t)  # exact mod 2^64: below 2q
        return _csub(t, self.q, out=out)

    def reduce(self, x: np.ndarray, out=None, work=None) -> np.ndarray:
        # Two arrays carry the whole reduction (``work``, else allocated):
        # a block-sized operand cycles them through the cache, not the
        # temporaries of the expression form.
        x = np.asarray(x, dtype=np.uint64)
        est, low = (None, None) if work is None else work
        t = self._times_q(x, self.reciprocal, out=est)
        np.subtract(x, t, out=t)  # exact mod 2^64: below 2q
        low = np.subtract(t, self.q, out=low)
        return np.minimum(t, low, out=t if out is None else out)

    def pre(self, b) -> np.ndarray:
        """Stack ``[w, RN(w · r_q)]``, the second plane as float64 bits.

        ``w`` is canonical and cast exactly, so the plane is one rounding
        of ``w · r_q``: ``w_q <= (w/q)(1 - 2^-50)(1 + u)^2 <= (w/q)(1 -
        2^-51)``, the scaled reciprocal the raw product multiplies by.
        """
        b = np.asarray(b, dtype=np.uint64)
        scaled = np.asarray(np.multiply(b, self.reciprocal, dtype=np.float64))
        return np.stack([np.broadcast_to(b, scaled.shape), scaled.view(np.uint64)])

    def mul_pre_raw(
        self, a: np.ndarray, b_pre: np.ndarray, out=None, work=None
    ) -> np.ndarray:
        """``a * w - trunc(a * w_q) * q``: below ``2q`` for every ``a <
        2^42``, canonical or not (the quotient ``a·w/q`` is below ``a``).
        Two arrays carry the whole product — the estimate (``work``) and
        the result (``out``) — each allocated when not given.
        """
        a = np.asarray(a, dtype=np.uint64)
        w, w_q = b_pre[0], b_pre[1].view(np.float64)
        t = self._times_q(a.view(np.int64), w_q, out=work)  # a < 2^42
        res = np.multiply(a, w, out=out)
        res -= t
        return res


# ---------------------------------------------------------------------------
# montgomery: word-size REDC with constants kept in the Montgomery domain
# ---------------------------------------------------------------------------


class MontgomeryKernel(ReducerKernel):
    """Vectorized Montgomery REDC with ``R = 2^64`` (Table I rows 2–3).

    ``mul(a, b)`` converts ``b`` into the Montgomery domain on the fly
    (two REDCs total); hot paths precompute constants with :meth:`pre`
    so every butterfly costs a single REDC — the software analogue of
    keeping operands in the Montgomery domain across NTT stages.
    """

    name = "montgomery"
    spec = REDUCER_SPECS["montgomery"]

    def _precompute(self) -> None:
        table = self._table
        for v in np.atleast_1d(self.q).ravel():
            if int(v) % 2 == 0:
                raise ValueError(
                    f"Montgomery needs odd moduli (q^-1 mod 2^64 must exist), got {int(v)}"
                )
        self._ninv = table(lambda v: (-pow(v, -1, 1 << 64)) % (1 << 64))
        self._r2 = table(lambda v: (1 << 128) % v)
        # 32/9-bit split of q for the m*q high-word product (m is full-width).
        self._q_lo32 = table(lambda v: v & 0xFFFFFFFF)
        self._q_hi32 = table(lambda v: v >> 32)

    def _mulhi_mq(self, m: np.ndarray) -> np.ndarray:
        """High 64 bits of ``m * q`` for full-width ``m`` (q < 2^41)."""
        m_lo = m & _MASK32
        m_hi = m >> _S32
        ll = m_lo * self._q_lo32
        lh = m_lo * self._q_hi32
        hl = m_hi * self._q_lo32
        mid = (ll >> _S32) + (lh & _MASK32) + (hl & _MASK32)
        return m_hi * self._q_hi32 + (lh >> _S32) + (hl >> _S32) + (mid >> _S32)

    def _redc_raw(self, hi: np.ndarray, lo: np.ndarray, out=None) -> np.ndarray:
        """REDC of a (hi, lo) value ``t < q * 2^64`` short of its final
        subtract: ``t * 2^-64 mod q`` as a value in [0, 2q)."""
        m = lo * self._ninv  # wraps mod 2^64 — exactly t * (-q^-1) mod R
        # t + m*q has zero low word; its high word is hi + mulhi(m, q) plus
        # the carry out of the low word, which is 1 iff lo != 0 (mq_lo ≡ -lo).
        return np.add(hi + self._mulhi_mq(m), lo != 0, out=out)

    def _redc(self, hi: np.ndarray, lo: np.ndarray, out=None) -> np.ndarray:
        """REDC of a (hi, lo) value ``t < q * 2^64``: ``t * 2^-64 mod q``."""
        return _csub(self._redc_raw(hi, lo), self.q, out=out)

    def to_montgomery(self, a: np.ndarray) -> np.ndarray:
        """Map canonical residues into the Montgomery domain (``a * R mod q``)."""
        a = np.asarray(a, dtype=np.uint64)
        return self._redc(*_mul128_41(a, self._r2))

    def from_montgomery(self, a_mont: np.ndarray) -> np.ndarray:
        """Map Montgomery-domain values back to canonical residues."""
        a_mont = np.asarray(a_mont, dtype=np.uint64)
        return self._redc(np.zeros_like(a_mont), a_mont)

    def mul(self, a: np.ndarray, b, out=None) -> np.ndarray:
        a = np.asarray(a, dtype=np.uint64)
        return self._redc(*_mul128_41(a, self.to_montgomery(b)), out=out)

    def pre(self, b) -> np.ndarray:
        return self.to_montgomery(b)

    def mul_pre_raw(
        self, a: np.ndarray, b_pre: np.ndarray, out=None, work=None
    ) -> np.ndarray:
        a = np.asarray(a, dtype=np.uint64)
        return self._redc_raw(*_mul128_41(a, b_pre), out=out)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_BACKENDS: dict[str, type[ReducerKernel]] = {
    BarrettKernel.name: BarrettKernel,
    MontgomeryKernel.name: MontgomeryKernel,
}

# Barrett is the default: it needs no domain bookkeeping.  Override
# process-wide with set_default_backend(), or in a scope with using_backend.
_DEFAULT_BACKEND = BarrettKernel.name


def available_backends() -> tuple[str, ...]:
    """Names of all registered reducer backends."""
    return tuple(sorted(_BACKENDS))


def get_backend(name: str | None = None) -> type[ReducerKernel]:
    """Look up a backend class by name (default backend when ``None``)."""
    key = name or _DEFAULT_BACKEND
    try:
        return _BACKENDS[key]
    except KeyError:
        raise ValueError(
            f"unknown reducer backend {key!r}; available: {available_backends()}"
        ) from None


def default_backend_name() -> str:
    """The process-wide default backend name."""
    return _DEFAULT_BACKEND


def set_default_backend(name: str) -> str:
    """Switch the process-wide default backend; returns the previous name."""
    global _DEFAULT_BACKEND
    if name not in _BACKENDS:
        raise ValueError(
            f"unknown reducer backend {name!r}; available: {available_backends()}"
        )
    previous = _DEFAULT_BACKEND
    _DEFAULT_BACKEND = name
    return previous


class using_backend:
    """Context manager scoping a default-backend override.

    >>> with using_backend("montgomery"):
    ...     ct = ctx.encrypt(msg)
    """

    def __init__(self, name: str) -> None:
        self._name = name
        self._previous: str | None = None

    def __enter__(self) -> str:
        self._previous = set_default_backend(self._name)
        return self._name

    def __exit__(self, *exc) -> None:
        assert self._previous is not None
        set_default_backend(self._previous)


def make_kernel(moduli, backend: str | None = None) -> ReducerKernel:
    """Instantiate a kernel for a modulus (array) under a backend."""
    return get_backend(backend)(moduli)


_SCALAR_KERNELS: dict[tuple[str, int], ReducerKernel] = {}


def kernel_for_modulus(q: int, backend: str | None = None) -> ReducerKernel:
    """Process-level cached scalar kernel for one modulus.

    NTT contexts and ad-hoc callers share instances so per-prime tables
    (``mu``, ``-q^-1 mod R``, ``R^2 mod q``) are computed once.
    """
    name = backend or default_backend_name()
    key = (name, q)
    kernel = _SCALAR_KERNELS.get(key)
    if kernel is None:
        kernel = make_kernel(q, name)
        _SCALAR_KERNELS[key] = kernel
    return kernel

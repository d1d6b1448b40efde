"""The vectorized modular reducer — Barrett against a float64 reciprocal.

The paper's central hardware argument (Section III, Table I) is that the
choice of modular reducer dominates accelerator cost.  That comparison is
hardware accounting: the :class:`ReducerSpec` table below, the bit-level
scalar reducers of :mod:`repro.nums.barrett` / :mod:`repro.nums.montgomery`
and the area model of :mod:`repro.accel.calibration`, which derives its
constants from the table.  The software runs one reducer,
:class:`ReducerKernel`: quotient estimation against a per-prime
precomputed reciprocal — ``trunc(x · r_q)`` in float64 with ``r_q`` just
below ``1/q``, then ``x - q̂·q`` in wrapping uint64 and one conditional
subtract, so every division becomes multiply/subtract (Table I row 1).

Every kernel instance is bound to a modulus *array* — a scalar for one
prime or an ``(L, 1)``/``(L, 1, 1)`` column for per-row broadcasting over
whole ``(L, N)`` RNS residue matrices — and carries the reciprocals it
needs.  All kernels assume **canonical inputs** in ``[0, q)``; the RNS
layers maintain that invariant, and ``reduce`` is available for values up
to ``q^2``.  Two primitives defer reduction the way a hardware MAC
datapath does: ``mul_pre_raw``, the product *short of its conditional
subtract* (congruent mod ``q``, below ``RAW_BOUND * q``, for any first
operand below ``raw_operand_limit = 2^42``), which the batched NTT's
butterflies sum; and ``mul_accumulate_rows``, the inner product of key
switching and the fused plaintext MAC, which multiplies the halves of a
split operand against plain residues — no pre-formed constant.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, ClassVar, Sequence

import numpy as np

__all__ = [
    "ReducerSpec",
    "REDUCER_SPECS",
    "ReducerKernel",
    "KERNEL_LIMIT_BITS",
    "ufunc_buffer",
    "in_lanes",
    "kernel_for_modulus",
    "default_backend_name",
]

# Kernels accept moduli up to 41 bits: the float quotient estimate is
# exact for quotients below 2^42.  The paper's 32–36-bit double-scale
# primes fit with margin.
KERNEL_LIMIT_BITS = 41

_U64 = np.uint64


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


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the
    platform has one (a ``taskset`` or a container's cpuset), else every
    CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def in_lanes(blocks: Sequence, lane: Callable[[Sequence], None]) -> None:
    """Run ``lane`` over ``blocks`` striped across one thread per CPU.

    With ``n = min(len(blocks), CPUs)`` lanes, lane ``k`` gets
    ``blocks[k::n]``; lane 0 runs on the caller's thread, the others on
    threads started here and joined before returning, so no thread
    outlives the call (nor reaches a later ``fork``).  One block, or one
    CPU, is one lane on the caller's thread: no thread starts.  The
    blocks must be independent — each lane writing its own rows — and
    numpy releases the interpreter lock inside every pass over a row, so
    lanes over different limbs overlap.  Each lane runs under its own
    :func:`ufunc_buffer`: the setting is context-local and a new thread
    starts at numpy's default.  Every lane is joined before the first
    lane exception is re-raised on the caller.
    """
    n = min(len(blocks), _cpu_count())
    if n <= 1:
        with ufunc_buffer():
            lane(blocks)
        return
    errors: list[BaseException | None] = [None] * n

    def run(k: int) -> None:
        try:
            with ufunc_buffer():
                lane(blocks[k::n])
        except BaseException as exc:  # re-raised on the caller below
            errors[k] = exc

    threads = [threading.Thread(target=run, args=(k,)) for k in range(1, n)]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def _csub(x: np.ndarray, q, out=None) -> np.ndarray:
    """One conditional subtract: maps [0, 2q) into [0, q).

    Relies on wrap-around: when ``x < q`` the subtraction wraps to a huge
    value and the minimum keeps ``x`` — one cheap SIMD pass, where
    ``np.where`` costs ~25x more.  The kernel's conditionals all take
    this form.
    """
    return np.minimum(x, x - q, out=out)


class ReducerKernel:
    """Vectorized modular arithmetic bound to one or more moduli: Barrett
    reduction (Table I row 1), its quotient estimated from a float64
    reciprocal.

    ``moduli`` may be a Python int, or any uint64-convertible array whose
    shape broadcasts against the operand arrays (e.g. an ``(L, 1)`` column
    against ``(L, N)`` residue matrices).  All operands are assumed
    canonical (``0 <= x < q`` elementwise) except where noted; outputs are
    always canonical.

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

    #: :meth:`mul_pre_raw` returns values below ``RAW_BOUND * q`` — one
    #: conditional subtract short of canonical.
    RAW_BOUND: ClassVar[int] = 2
    #: Exclusive bound on :meth:`mul_pre_raw`'s first operand (which need
    #: not be canonical): below it the quotient estimate is exact for a
    #: 41-bit modulus and the ``RAW_BOUND`` holds.
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
        #: ``r_q``, shaped like ``q``: ``1 - 2^-50`` and ``q`` are exact
        #: doubles, so the one correctly rounded division is the ``RN``.
        self.reciprocal = (1.0 - 2.0**-50) / q.astype(np.float64)

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

    # -- multiplicative ------------------------------------------------

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

    def pre(self, b) -> np.ndarray:
        """Precompute a constant operand for repeated :meth:`mul_pre`:
        stack ``[w, RN(w · r_q)]``, the second plane as float64 bits.

        ``w`` is canonical and cast exactly, so the plane is one rounding
        of ``w · r_q``: ``w_q <= (w/q)(1 - 2^-50)(1 + u)^2 <= (w/q)(1 -
        2^-51)``, the scaled reciprocal the raw product multiplies by.
        """
        b = np.asarray(b, dtype=np.uint64)
        scaled = np.asarray(np.multiply(b, self.reciprocal, dtype=np.float64))
        return np.stack([np.broadcast_to(b, scaled.shape), scaled.view(np.uint64)])

    def mul_pre(self, a: np.ndarray, b_pre: np.ndarray, out=None) -> np.ndarray:
        """``a * b mod q`` where ``b_pre`` came from :meth:`pre`: the raw
        product and its one conditional subtract."""
        return _csub(self.mul_pre_raw(a, b_pre), self.q, out=out)

    def mul_pre_raw(
        self, a: np.ndarray, b_pre: np.ndarray, out=None, work=None
    ) -> np.ndarray:
        """Unreduced ``a * b``: ``a * w - trunc(a * w_q) * q``, congruent
        to the product mod ``q`` and below ``RAW_BOUND * q = 2q`` for every
        ``a < raw_operand_limit``, canonical or not (the quotient ``a·w/q``
        is below ``a``).

        What :meth:`mul_pre` computes before its conditional subtract —
        the term the lazy NTT butterflies sum, reducing once per block
        instead of once per product.  Two arrays carry the whole product:
        the estimate (``work``) and the result (``out``), each allocated
        when not given, so a caller that passes both allocates nothing.
        Neither may overlap ``a``.
        """
        a = np.asarray(a, dtype=np.uint64)
        w, w_q = b_pre[0], b_pre[1].view(np.float64)
        t = self._times_q(a.view(np.int64), w_q, out=work)  # a < 2^42
        res = np.multiply(a, w, out=out)
        res -= t
        return res

    def mul_accumulate(self, a: np.ndarray, b, axis: int = 0, out=None) -> np.ndarray:
        """Fused ``sum_t a[t] * b[t] mod q`` along ``axis`` — one reduction.

        The inner-product primitive behind batched key switching: products
        are reduced to canonical form, but the *accumulation* is deferred —
        terms are summed as raw uint64 and reduced once at the end.  With
        canonical terms below ``2^41`` the uint64 headroom fits ``2^23``
        addends, far beyond any RNS digit count; longer axes fall back to
        chunked partial sums so the result stays exact.
        """
        return self._accumulate(self.mul(a, b), axis, out=out)

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
        operands (canonical residues are unique).
        """
        budget = self.mac_budget if budget is None else budget
        if budget < 2:
            raise ValueError(
                f"a partial sum must hold two terms, got budget "
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

        Two arrays carry the whole reduction — ``work``, a pair of scratch
        arrays of the result's shape, else allocated — so a block-sized
        operand cycles them through the cache, not the temporaries of the
        expression form; with ``work`` and ``out`` the call allocates
        nothing.  ``out`` may be ``x``; the scratch may not overlap either.
        """
        x = np.asarray(x, dtype=np.uint64)
        est, low = (None, None) if work is None else work
        t = self._times_q(x, self.reciprocal, out=est)
        np.subtract(x, t, out=t)  # exact mod 2^64: below 2q
        low = np.subtract(t, self.q, out=low)
        return np.minimum(t, low, out=t if out is None else out)

    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(q={np.atleast_1d(self.q).ravel().tolist()})"


def default_backend_name() -> str:
    """The reducer's name, ``"barrett"``, as benchmark records report it."""
    return "barrett"


_SCALAR_KERNELS: dict[int, ReducerKernel] = {}


def kernel_for_modulus(q: int) -> ReducerKernel:
    """Process-level cached scalar kernel for one modulus.

    NTT contexts and ad-hoc callers share instances so the per-prime
    reciprocal is computed once.
    """
    kernel = _SCALAR_KERNELS.get(q)
    if kernel is None:
        kernel = _SCALAR_KERNELS[q] = ReducerKernel(q)
    return kernel

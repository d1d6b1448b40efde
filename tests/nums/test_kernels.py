"""Property tests for the vectorized reducer.

The contract under test: the kernel computes *exactly* the same modular
arithmetic as the Python-int oracle (``pow`` / ``%``).  Probed across
32/36/41-bit NTT-friendly primes, the q^2 input boundary, zero/identity
edge cases, and per-row matrix-moduli broadcasting.
"""

from __future__ import annotations

import ast
import os
import threading
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nums import kernels
from repro.nums.kernels import (
    _UFUNC_BUFFER,
    KERNEL_LIMIT_BITS,
    REDUCER_SPECS,
    ReducerKernel,
    in_lanes,
    kernel_for_modulus,
)
from repro.nums.primegen import find_primes
from tests import BARRETT

PRIMES = {bw: find_primes(bw, 1 << 12, max_count=1)[0].value for bw in (32, 36, 41)}


@pytest.fixture(params=sorted(PRIMES), ids=lambda bw: f"bw{bw}")
def prime(request):
    return PRIMES[request.param]


def _edge_operands(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Pairs hitting 0, 1, q-1 and the q^2 product boundary."""
    edge = np.array([0, 1, q - 1, q // 2, q - 2], dtype=np.uint64)
    a = np.concatenate([edge, edge, np.full(5, q - 1, dtype=np.uint64)])
    b = np.concatenate([edge, edge[::-1], np.full(5, q - 1, dtype=np.uint64)])
    return a, b


class TestAgainstOracle:
    @BARRETT
    def test_mul_random_and_edges(self, prime, rng):
        kern = ReducerKernel(prime)
        a = rng.integers(0, prime, 400).astype(np.uint64)
        b = rng.integers(0, prime, 400).astype(np.uint64)
        ea, eb = _edge_operands(prime)
        a, b = np.concatenate([a, ea]), np.concatenate([b, eb])
        expected = [int(x) * int(y) % prime for x, y in zip(a, b)]
        assert kern.mul(a, b).tolist() == expected

    @BARRETT
    def test_mul_pre_matches_mul(self, prime, rng):
        kern = ReducerKernel(prime)
        a = rng.integers(0, prime, 200).astype(np.uint64)
        b = rng.integers(0, prime, 200).astype(np.uint64)
        assert kern.mul_pre(a, kern.pre(b)).tolist() == kern.mul(a, b).tolist()

    @BARRETT
    def test_add_sub_neg(self, prime, rng):
        kern = ReducerKernel(prime)
        a = rng.integers(0, prime, 300).astype(np.uint64)
        b = rng.integers(0, prime, 300).astype(np.uint64)
        ea, eb = _edge_operands(prime)
        a, b = np.concatenate([a, ea]), np.concatenate([b, eb])
        assert kern.add(a, b).tolist() == [(int(x) + int(y)) % prime for x, y in zip(a, b)]
        assert kern.sub(a, b).tolist() == [(int(x) - int(y)) % prime for x, y in zip(a, b)]
        assert kern.neg(a).tolist() == [(-int(x)) % prime for x in a]

    @BARRETT
    def test_pow_matches_int_pow(self, prime, rng):
        kern = ReducerKernel(prime)
        a = rng.integers(0, prime, 40).astype(np.uint64)
        for e in (0, 1, 2, 3, 17, 1 << 12):
            assert kern.pow(a, e).tolist() == [pow(int(x), e, prime) for x in a]

    @BARRETT
    def test_reduce_up_to_q_squared(self, prime, rng):
        """The whole domain ``[0, min(q^2, 2^64))``: ``mul_accumulate_rows``
        hands ``reduce`` partial sums up to that bound, so the draws and
        edges cross ``2^63`` (where an int64 detour would go wrong)."""
        kern = ReducerKernel(prime)
        hi = min(prime * prime, 1 << 64)
        x = rng.integers(0, hi, 300, dtype=np.uint64)
        edges = [0, 1, prime - 1, prime, 2 * prime - 1, 1 << 63, (1 << 64) - 1, hi - 1]
        x = np.concatenate([x, np.array([v for v in edges if v < hi], dtype=np.uint64)])
        assert kern.reduce(x).tolist() == [int(v) % prime for v in x]
        out = np.empty_like(x)
        work = (np.empty_like(x), np.empty_like(x))
        assert kern.reduce(x, out=out, work=work) is out
        assert out.tolist() == [int(v) % prime for v in x]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_hypothesis_all_backends_agree(self, data):
        q = data.draw(st.sampled_from(sorted(PRIMES.values())))
        x = data.draw(st.integers(min_value=0, max_value=q - 1))
        y = data.draw(st.integers(min_value=0, max_value=q - 1))
        kern = kernel_for_modulus(q)
        got = kern.mul(np.array([x], dtype=np.uint64), np.array([y], dtype=np.uint64))
        assert int(got[0]) == x * y % q


class TestOperandAndModulusEdges:
    """A Python-int operand, the additive ops on an even modulus, the
    negative-exponent error, and arbitrary (non-prime) odd moduli."""

    @BARRETT
    def test_mul_scalar_broadcast(self, rng):
        q = PRIMES[32]
        a = rng.integers(0, q, 100).astype(np.uint64)
        assert ReducerKernel(q).mul(a, 3).tolist() == [int(x) * 3 % q for x in a]

    def test_add_sub_neg_even_modulus(self, rng):
        q = 100
        a = rng.integers(0, q, 50).astype(np.uint64)
        b = rng.integers(0, q, 50).astype(np.uint64)
        kern = ReducerKernel(q)
        assert kern.add(a, b).tolist() == [(int(x) + int(y)) % q for x, y in zip(a, b)]
        assert kern.sub(a, b).tolist() == [(int(x) - int(y)) % q for x, y in zip(a, b)]
        assert kern.neg(a).tolist() == [(-int(x)) % q for x in a]

    @BARRETT
    def test_pow_negative_exponent_raises(self):
        with pytest.raises(ValueError, match="negative"):
            ReducerKernel(PRIMES[32]).pow(np.array([2], dtype=np.uint64), -1)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=3, max_value=(1 << 41) - 1).filter(lambda q: q % 2 == 1))
    def test_mul_arbitrary_odd_modulus(self, q):
        a = np.array([q - 1, q // 2, 1], dtype=np.uint64)
        b = np.array([q - 1, 3, q - 2], dtype=np.uint64)
        expected = [int(x) * int(y) % q for x, y in zip(a, b)]
        assert ReducerKernel(q).mul(a, b).tolist() == expected


class TestMatrixModuli:
    """Per-row modulus broadcasting over (L, N) residue matrices."""

    @BARRETT
    def test_column_broadcast(self, rng):
        moduli = sorted(PRIMES.values())
        q_col = np.array(moduli, dtype=np.uint64).reshape(-1, 1)
        kern = ReducerKernel(q_col)
        a = np.stack([rng.integers(0, m, 64) for m in moduli]).astype(np.uint64)
        b = np.stack([rng.integers(0, m, 64) for m in moduli]).astype(np.uint64)
        got = kern.mul(a, b)
        for i, m in enumerate(moduli):
            assert got[i].tolist() == [int(x) * int(y) % m for x, y in zip(a[i], b[i])]

    @BARRETT
    def test_scalar_column_against_matrix(self, rng):
        moduli = sorted(PRIMES.values())
        q_col = np.array(moduli, dtype=np.uint64).reshape(-1, 1)
        kern = ReducerKernel(q_col)
        a = np.stack([rng.integers(0, m, 32) for m in moduli]).astype(np.uint64)
        s = np.array([3, 5, 7], dtype=np.uint64).reshape(-1, 1)
        got = kern.mul(a, s)
        for i, m in enumerate(moduli):
            assert got[i].tolist() == [int(x) * int(s[i, 0]) % m for x in a[i]]


class TestRegistry:
    def test_numpy_is_the_array_library(self):
        """No module under src/repro defines, passes or reads an ``xp`` /
        ``array_backend`` parameter, variable or attribute: kernels and
        the fused replayer compute on numpy arrays, full stop."""
        seam = {"xp", "array_backend"}
        offenders = []
        src = Path(__file__).resolve().parents[2] / "src" / "repro"
        for path in sorted(src.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                names = {
                    getattr(node, field, None) for field in ("arg", "id", "attr")
                }
                if names & seam:
                    offenders.append(f"{path.relative_to(src)}:{node.lineno}")
        assert offenders == []

    def test_kernel_for_modulus_is_cached(self):
        q = PRIMES[36]
        assert kernel_for_modulus(q) is kernel_for_modulus(q)

    @BARRETT
    def test_rejects_wide_moduli(self):
        with pytest.raises(ValueError, match="at most"):
            ReducerKernel((1 << (KERNEL_LIMIT_BITS + 1)) + 1)

    def test_any_modulus(self, rng):
        """Even and composite moduli up to 41 bits: the kernel keeps the
        any-modulus contract."""
        for q in (2, 100, (1 << 41) - 2):
            a = rng.integers(0, q, 100).astype(np.uint64)
            b = rng.integers(0, q, 100).astype(np.uint64)
            expected = [int(x) * int(y) % q for x, y in zip(a, b)]
            assert ReducerKernel(q).mul(a, b).tolist() == expected, q

    def test_specs_cover_table1(self):
        assert set(REDUCER_SPECS) == {"barrett", "montgomery", "ntt_friendly"}
        for spec in REDUCER_SPECS.values():
            assert spec.multiplier_equivalents > 0
            assert spec.pipeline_stages in (3, 4)


class TestBarrettShoupPieces:
    """``pre``'s second plane is Shoup's precomputed quotient ``w' ~ w/q``,
    one float64 rounded below the exact division; the oracle divides
    Python ints (``fractions.Fraction``).  The bounds are those of
    ``ReducerKernel``'s docstring: ``r_q <= (1 - 2^-51)/q`` and ``w_q <=
    (w/q)(1 - 2^-51)``, each at most ``2^-49.5`` below the exact value."""

    MODULI = [2, 3, 257, (1 << 22) + 1, *PRIMES.values(), (1 << 41) - 21]
    HEADROOM = Fraction((1 << 51) - 1, 1 << 51)  # 1 - 2^-51
    SLACK = 1 - Fraction(11, 1 << 53)  # the estimate's worst undershoot

    @pytest.mark.parametrize("q", MODULI)
    def test_pieces_match_bigint_division(self, q, rng):
        kern = ReducerKernel(q)
        r_q = Fraction(float(kern.reciprocal))
        # RN((1 - 2^-50) / q): Fraction -> float rounds correctly.
        assert float(r_q) == float(Fraction((1 << 50) - 1, q << 50))
        assert Fraction(1, q) * self.SLACK < r_q <= self.HEADROOM / q
        w = np.concatenate(
            [rng.integers(0, q, 300), [0, 1 % q, q // 2, q - 1]]
        ).astype(np.uint64)
        pre = kern.pre(w)
        assert pre.shape == (2, len(w))
        assert pre[0].tolist() == w.tolist()
        for x, plane in zip(w.tolist(), pre[1].view(np.float64).tolist()):
            exact = Fraction(x, q)
            assert exact * self.SLACK <= Fraction(plane) <= exact * self.HEADROOM

    def test_column_moduli_and_scalar_operand(self, rng):
        moduli = sorted(PRIMES.values())
        kern = ReducerKernel(np.array(moduli, dtype=np.uint64).reshape(-1, 1))
        w = np.stack([rng.integers(0, q, 50) for q in moduli]).astype(np.uint64)
        pre = kern.pre(w)
        for row, q in enumerate(moduli):
            assert np.array_equal(pre[:, row], ReducerKernel(q).pre(w[row]))
        scalar = ReducerKernel(moduli[0]).pre(np.uint64(5))
        assert scalar.shape == (2,)
        assert Fraction(float(scalar[1:].view(np.float64)[0])) <= Fraction(5, moduli[0])


class TestMulAccumulate:
    """The fused MAC behind batched key switching and multi-prime rescale."""

    @BARRETT
    def test_matches_oracle(self, prime, rng):
        kern = ReducerKernel(prime)
        a = rng.integers(0, prime, (7, 50)).astype(np.uint64)
        b = rng.integers(0, prime, (7, 50)).astype(np.uint64)
        expected = [
            sum(int(x) * int(y) for x, y in zip(a[:, i], b[:, i])) % prime
            for i in range(50)
        ]
        assert kern.mul_accumulate(a, b).tolist() == expected

    @BARRETT
    def test_rows_variant_matches_plain(self, prime, rng):
        kern = ReducerKernel(prime)
        a = rng.integers(0, prime, (5, 64)).astype(np.uint64)
        b = rng.integers(0, prime, (5, 64)).astype(np.uint64)
        (got,) = kern.mul_accumulate_rows(_cut(a, 1), [_cut(b, 1)])
        assert np.array_equal(got, kern.mul_accumulate(a, b))

    @BARRETT
    def test_edge_values_all_q_minus_one(self, prime):
        kern = ReducerKernel(prime)
        a = np.full((9, 4), prime - 1, dtype=np.uint64)
        expected = (9 * (prime - 1) * (prime - 1)) % prime
        assert kern.mul_accumulate(a, a).tolist() == [[expected] * 4][0]

    @pytest.mark.parametrize("q", [17, 97])
    def test_more_terms_than_the_budget_sum_in_chunks(self, q):
        """``term_budget`` is at most the smallest modulus (a partial sum
        must stay in ``reduce``'s ``[0, q^2)``), so a small modulus takes
        the chunked path with a few dozen terms: full chunks, a short
        last one, on either axis, and the all-``(q-1)`` worst case."""
        kern = ReducerKernel(q)
        assert kern.term_budget == q
        rng = np.random.default_rng(q)
        for terms in (q + 1, 2 * q + 3):
            a = rng.integers(0, q, (terms, 6), dtype=np.uint64)
            b = rng.integers(0, q, (terms, 6), dtype=np.uint64)
            a[:, 0] = b[:, 0] = q - 1
            want = [
                sum(int(x) * int(y) for x, y in zip(a[:, i], b[:, i])) % q
                for i in range(6)
            ]
            assert kern.mul_accumulate(a, b).tolist() == want
            assert kern.mul_accumulate(a.T, b.T, axis=1).tolist() == want


# 36 bits is the paper's width; 37 is the first where a sum of raw terms
# no longer fits the bounds by the 36-bit margin alone; 22 is the narrowest
# RNS prime and 41 the widest a kernel takes (three MAC terms a fold).
RAW_PRIMES = tuple(
    find_primes(bw, 1 << 12, max_count=1)[0].value for bw in (22, 30, 36, 37, 41)
)


def _operands(q: int, top: int):
    """Residue-like operands: the edges 0, 1, q-1, and uniform below ``top``."""
    return st.lists(
        st.one_of(st.sampled_from([0, 1, q - 1]), st.integers(0, top - 1)),
        min_size=1,
        max_size=12,
    )


class TestRawProduct:
    """``mul_pre_raw`` is ``mul`` short of its conditional subtract:
    congruent to the product, below ``RAW_BOUND * q``."""

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_congruent_and_bounded(self, data):
        q = data.draw(st.sampled_from(RAW_PRIMES))
        kern = kernel_for_modulus(q)
        # The multiplier is a canonical constant; the operand may be any
        # lazily accumulated value below the kernel's operand limit.
        wide = data.draw(st.booleans())
        a = data.draw(_operands(q, kern.raw_operand_limit if wide else q))
        b = data.draw(st.lists(st.integers(0, q - 1), min_size=len(a), max_size=len(a)))
        a_arr, b_arr = np.array(a, dtype=np.uint64), np.array(b, dtype=np.uint64)
        raw = kern.mul_pre_raw(a_arr, kern.pre(b_arr))
        assert [int(r) % q for r in raw] == [x * y % q for x, y in zip(a, b)]
        assert all(int(r) < kern.RAW_BOUND * q for r in raw)
        if not wide:
            assert kern.reduce(raw).tolist() == kern.mul(a_arr, b_arr).tolist()

    @BARRETT
    def test_worst_case_operand(self):
        """The largest operand against the largest multiplier, and
        ``mul``'s largest quotient, ``(q - 1)^2``, up to the widest odd
        modulus a kernel takes."""
        for q in (*RAW_PRIMES, (1 << 41) - 21):
            kern = ReducerKernel(q)
            top = kern.raw_operand_limit - 1
            raw = kern.mul_pre_raw(
                np.array([top, top], dtype=np.uint64),
                kern.pre(np.array([q - 1, 1], dtype=np.uint64)),
            )
            assert [int(r) % q for r in raw] == [top * (q - 1) % q, top % q]
            assert all(int(r) < kern.RAW_BOUND * q for r in raw)
            edge = np.array([q - 1], dtype=np.uint64)
            assert kern.mul(edge, edge).tolist() == [(q - 1) ** 2 % q]

    def test_bounds_per_backend(self):
        assert ReducerKernel.RAW_BOUND == 2
        assert ReducerKernel(PRIMES[41]).raw_operand_limit == 1 << 42


def _cut(x: np.ndarray, size: int) -> list[np.ndarray]:
    """``x``'s leading axis as blocks of ``size`` terms, the last short
    when ``size`` does not divide it: views, as the kernel's callers pass."""
    return [x[lo : lo + size] for lo in range(0, len(x), size)]


class TestRowAccumulate:
    """The blocked split MAC: key switching's contraction and the fused
    plaintext MAC, against plain residues."""

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_matches_oracle_and_stacked_accumulate(self, data):
        q = data.draw(st.sampled_from(RAW_PRIMES))
        kern = kernel_for_modulus(q)
        terms = data.draw(st.integers(1, 9))
        # A budget below the term count exercises the partial reduces; at
        # 41 bits the kernel's own budget (None) is below it too.
        budget = data.draw(st.sampled_from([None, 2, 3, 4]))
        row = _operands(q, q).map(lambda r: (r * 4)[:4])  # four columns
        draw_rows = st.lists(row, min_size=terms, max_size=terms)
        a = np.array(data.draw(draw_rows), dtype=np.uint64)
        consts = [
            np.array(data.draw(draw_rows), dtype=np.uint64)
            for _ in range(data.draw(st.integers(1, 2)))
        ]
        size = data.draw(st.integers(1, terms))
        gots = kern.mul_accumulate_rows(
            iter(_cut(a, size)), [_cut(b, size) for b in consts], budget=budget
        )
        assert len(gots) == len(consts)
        for got, b in zip(gots, consts):
            want = [
                sum(int(x) * int(y) for x, y in zip(a[:, i], b[:, i])) % q
                for i in range(4)
            ]
            assert got.tolist() == want
            assert np.array_equal(got, kern.mul_accumulate(a, b))

    @pytest.mark.parametrize("budget", [None, 2])
    @BARRETT
    def test_all_q_minus_one_past_the_budget(self, budget):
        for q in RAW_PRIMES:
            kern = ReducerKernel(q)
            a = np.full((11, 3), q - 1, dtype=np.uint64)
            out = np.full(3, 7, dtype=np.uint64)
            (got,) = kern.mul_accumulate_rows(_cut(a, 4), [_cut(a, 4)], (out,), budget)
            assert got is out  # written in place
            assert out.tolist() == [11 * (q - 1) * (q - 1) % q] * 3
            assert a.min() == q - 1  # operands untouched

    @pytest.mark.lanes
    @pytest.mark.parametrize("budget", [None, 2, 3])
    @pytest.mark.parametrize("size", range(1, 11))
    @BARRETT
    def test_every_block_size_gives_the_stacked_bytes(self, size, budget, rng):
        """Ten terms — a digit tensor's rows at ``L = 10`` — in blocks of
        1 to 10, the last short where the size does not divide ten, with
        two outputs of ``(L, N)``-shaped rows: byte-equal to
        ``mul_accumulate`` over the stacked operands.  A budget of 2 or 3
        puts partial reductions inside blocks and between them."""
        moduli = [RAW_PRIMES[2], RAW_PRIMES[3], RAW_PRIMES[4]]
        kern = ReducerKernel(np.array(moduli, dtype=np.uint64).reshape(-1, 1))
        q = kern.q[np.newaxis]
        a, b0, b1 = (
            rng.integers(0, 1 << 62, (10, 3, 16), dtype=np.uint64) % q
            for _ in range(3)
        )
        a[0], b0[0] = q[0] - 1, q[0] - 1  # the largest term
        outs = [np.empty((3, 16), dtype=np.uint64) for _ in range(2)]
        gots = kern.mul_accumulate_rows(
            _cut(a, size), [_cut(b0, size), _cut(b1, size)], outs, budget
        )
        assert all(got is out for got, out in zip(gots, outs))
        for got, b in zip(gots, (b0, b1)):
            assert got.tobytes() == kern.mul_accumulate(a, b).tobytes()

    @BARRETT
    def test_column_moduli(self, rng):
        moduli = [RAW_PRIMES[2], RAW_PRIMES[3], PRIMES[36]]
        kern = ReducerKernel(np.array(moduli, dtype=np.uint64).reshape(-1, 1))
        a, b0, b1 = (
            np.stack(
                [[rng.integers(0, q, 16) for q in moduli] for _ in range(5)]
            ).astype(np.uint64)
            for _ in range(3)
        )
        outs = kern.mul_accumulate_rows(
            _cut(a, 2), [_cut(b0, 2), _cut(b1, 2)], budget=3
        )
        for got, b in zip(outs, (b0, b1)):
            assert np.array_equal(got, kern.mul_accumulate(a, b))

    @pytest.mark.lanes
    @BARRETT
    def test_budget_of_worst_terms_in_one_sum_of_products(self):
        """Exactly ``mac_budget`` terms, every row and constant ``q - 1``,
        as one block: each half is one ``np.einsum`` over all of them,
        whose raw uint64 sums hold the bound's worst case without
        wrapping — the Python-int sum reduced mod ``q``."""
        for q in RAW_PRIMES:
            kern = ReducerKernel(q)
            n = kern.mac_budget
            a = np.full((n, 3), q - 1, dtype=np.uint64)
            with mock.patch.object(np, "einsum", wraps=np.einsum) as einsum:
                (got,) = kern.mul_accumulate_rows([a], [[a]])
            assert einsum.call_count == 2  # one per half, no piece
            assert got.tolist() == [n * (q - 1) * (q - 1) % q] * 3

    @pytest.mark.lanes
    @pytest.mark.parametrize("budget", [None, 3])
    @pytest.mark.parametrize("size", [1, 2, 5])
    @BARRETT
    def test_broadcast_consts_make_every_part_at_once(self, size, budget, rng):
        """An ``(S, 1, L, N)`` stack of constants against ``(S, P, L, N)``
        rows — a MAC output's diagonals against both parts of its
        sources — equals ``P`` calls, one part each; and rows split once
        (in place, as the fused MAC splits its source stack) give the
        bytes of rows the kernel splits itself."""
        moduli = [RAW_PRIMES[2], RAW_PRIMES[3], RAW_PRIMES[4]]
        kern = ReducerKernel(np.array(moduli, dtype=np.uint64).reshape(-1, 1))
        q = kern.q
        terms, parts = 5, 2
        rows = rng.integers(0, 1 << 62, (terms, parts, 3, 16), dtype=np.uint64) % q
        consts = [
            rng.integers(0, 1 << 62, (terms, 1, 3, 16), dtype=np.uint64) % q
            for _ in range(2)
        ]
        rows[0, 0], consts[0][0] = q - 1, q - 1
        outs = [np.empty((parts, 3, 16), dtype=np.uint64) for _ in consts]
        gots = kern.mul_accumulate_rows(
            _cut(rows, size), [_cut(c, size) for c in consts], outs, budget
        )
        assert all(got is out for got, out in zip(gots, outs))
        for got, c in zip(gots, consts):
            for p in range(parts):
                (want,) = kern.mul_accumulate_rows(
                    _cut(rows[:, p], size), [_cut(c[:, 0], size)], budget=budget
                )
                assert got[p].tobytes() == want.tobytes()
        stack = rows.copy()
        halves = kern.split_rows(stack, out=(stack, None))
        assert halves[0] is stack
        again = kern.mul_accumulate_halves([halves], [[c] for c in consts], None, budget)
        for got, want in zip(again, gots):
            assert got.tobytes() == want.tobytes()

    @BARRETT
    def test_budgets(self):
        """The split-MAC budget is the docstring's bound, not a tuned
        number: the recombined worst case stays inside uint64 and
        ``reduce``'s domain with ``mac_budget`` terms held."""
        assert ReducerKernel(PRIMES[36]).term_budget >= 1 << 28
        assert ReducerKernel(5).term_budget == 5
        budgets = {}
        for q in RAW_PRIMES:
            kern = ReducerKernel(q)
            h = (q.bit_length() + 1) // 2
            term = (q - 1) * ((1 << h) - 1)
            room = min(1 << 64, q * q)
            budgets[q.bit_length()] = held = kern.mac_budget
            assert ((q - 1) << h) + held * term < room
            assert ((q - 1) << h) + (held + 2) * term >= room  # and no slack
        assert budgets[36] >= 1023 and budgets[37] >= 255 and budgets[41] == 3
        assert ReducerKernel(5).mac_budget < 2

    @BARRETT
    def test_rejects_what_it_cannot_compute(self):
        kern = ReducerKernel(PRIMES[36])
        a = np.ones((3, 4), dtype=np.uint64)
        out = np.zeros(4, dtype=np.uint64)
        with pytest.raises(ValueError, match="at least one row"):
            kern.mul_accumulate_rows([], [[]], (out,))
        with pytest.raises(ValueError, match="at least one row"):
            kern.mul_accumulate_rows([a[:0]], [[a[:0]]], (out,))
        with pytest.raises(ValueError, match="got budget 1 "):
            kern.mul_accumulate_rows([a], [[a]], (out,), budget=1)
        with pytest.raises(ValueError, match="MAC split at 2 bits"):
            ReducerKernel(5).mul_accumulate_rows([a], [[a]])
        assert not out.any()


def cpus(n: int):
    """Patch the CPU count ``in_lanes`` reads."""
    return mock.patch.object(kernels, "_cpu_count", return_value=n)


@pytest.mark.lanes
class TestLanes:
    """``in_lanes``: blocks striped over one thread per CPU, joined before
    the call returns."""

    def test_cpu_count_is_the_affinity_mask(self):
        if hasattr(os, "sched_getaffinity"):
            assert kernels._cpu_count() == len(os.sched_getaffinity(0))
        else:
            assert kernels._cpu_count() == (os.cpu_count() or 1)

    @pytest.mark.parametrize("count", [1, 2, 3, 7])
    @pytest.mark.parametrize("cpu", [1, 2, 3])
    def test_stripes_every_block_once(self, cpu, count):
        """Lane ``k`` of ``n = min(blocks, CPUs)`` gets ``blocks[k::n]``;
        lane 0 runs on the caller, the other ``n - 1`` on threads gone
        when the call returns."""
        blocks = list(range(count))
        seen: list[tuple[threading.Thread, list[int]]] = []
        lock = threading.Lock()

        def lane(mine):
            with lock:
                seen.append((threading.current_thread(), list(mine)))

        before = threading.active_count()
        with cpus(cpu):
            in_lanes(blocks, lane)
        assert threading.active_count() == before
        n = min(count, cpu)
        assert sorted(mine for _, mine in seen) == [blocks[k::n] for k in range(n)]
        assert len({thread for thread, _ in seen}) == n
        caller = [mine for thread, mine in seen if thread is threading.current_thread()]
        assert caller == [blocks[0::n]]

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="no thread affinity here"
    )
    def test_lanes_covering_the_mask_run_pinned(self):
        """One lane per CPU of the affinity mask: lane ``k`` runs on the
        mask's ``k``-th CPU alone, and the caller's thread gets its own
        mask back; a pin the OS refuses leaves a thread where it was."""
        mask = os.sched_getaffinity(0)
        seen = []
        lock = threading.Lock()

        def lane(mine):
            with lock:
                seen.append((mine[0], os.sched_getaffinity(0)))

        in_lanes(list(range(len(mask))), lane)
        assert sorted(seen) == [(k, {cpu}) for k, cpu in enumerate(sorted(mask))]
        assert os.sched_getaffinity(0) == mask
        with kernels._pinned(1023):  # no such CPU: EINVAL
            assert os.sched_getaffinity(0) == mask
        with kernels._pinned(None):
            assert os.sched_getaffinity(0) == mask

    @pytest.mark.parametrize("cpu", [1, 2, 3])
    def test_one_block_or_one_cpu_starts_no_thread(self, cpu):
        ran = []
        no_thread = mock.patch.object(threading, "Thread", side_effect=AssertionError)
        with cpus(cpu), no_thread:
            in_lanes([0], ran.append)
        with cpus(1), no_thread:
            in_lanes([0, 1, 2], ran.append)
        assert ran == [[0], [0, 1, 2]]

    @pytest.mark.parametrize("raiser", [0, 1, 2])
    def test_raises_on_the_caller_after_every_lane_joined(self, raiser):
        """A raising lane — the caller's own or a thread's — re-raises on
        the caller only once every other lane has finished."""
        finished = []

        def lane(mine):
            if mine[0] == raiser:
                raise KeyError(raiser)
            time.sleep(0.05)
            finished.append(mine[0])

        before = threading.active_count()
        with cpus(3), pytest.raises(KeyError) as info:
            in_lanes([0, 1, 2], lane)
        assert info.value.args == (raiser,)
        assert sorted(finished) == sorted({0, 1, 2} - {raiser})
        assert threading.active_count() == before

    def test_first_lane_exception_wins(self):
        def lane(mine):
            raise ValueError(mine[0])

        with cpus(3), pytest.raises(ValueError) as info:
            in_lanes([0, 1, 2], lane)
        assert info.value.args == (0,)

    @pytest.mark.parametrize("cpu", [1, 2, 3])
    def test_every_lane_runs_under_the_buffer_scope(self, cpu):
        """Each lane sees ``_UFUNC_BUFFER`` — a new thread starts at
        numpy's default — and the caller's own setting survives."""
        sizes = []

        def lane(mine):
            sizes.append(np.getbufsize())

        default = np.getbufsize()
        previous = np.setbufsize(4096)
        try:
            with cpus(cpu):
                in_lanes([0, 1, 2], lane)
            assert np.getbufsize() == 4096
        finally:
            np.setbufsize(previous)
        assert np.getbufsize() == default
        assert sizes == [_UFUNC_BUFFER] * min(3, cpu)

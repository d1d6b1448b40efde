"""Negacyclic NTT: round trips, oracle agreement, algebraic laws.

The reference is ``tests/oracle.py``: an exact textbook transform on
Python ints that reads nothing of the library's but each limb's modulus
and ψ (``NttContext.psi``).  The per-limb tests run a one-limb
:class:`BatchNtt`, the transform every caller runs.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nums.kernels import kernel_for_modulus
from repro.nums.modular import mod_inv
from repro.nums.primegen import find_primes
from repro.transforms.ntt import BatchNtt, NttContext
from repro.utils.bitops import bit_reverse
from tests import BARRETT, oracle

PRIME = find_primes(36, 1 << 12, max_count=1)[0].value
LIMB_PRIMES = tuple(p.value for p in find_primes(36, 1 << 12, max_count=7))


def psi_of(n: int, q: int) -> int:
    """Limb ``q``'s ψ at degree ``n``: the one datum the oracle reads."""
    return NttContext.cached(n, q).psi


@pytest.fixture(scope="module", params=[16, 256, 1024], ids=lambda n: f"n{n}")
def ntt(request) -> NttContext:
    return NttContext.create(request.param, PRIME)


class OneLimb:
    """A one-limb :class:`BatchNtt` on single rows, with the pointwise
    product of the limb's reducer: the per-limb transform and ring
    product the library has."""

    def __init__(self, n: int, q: int = PRIME):
        self.degree, self.modulus = n, q
        self.bat = BatchNtt.create(n, (q,))
        self.mul = kernel_for_modulus(q).mul

    def forward(self, a: np.ndarray) -> np.ndarray:
        return self.bat.forward(np.asarray(a, dtype=np.uint64)[None])[0]

    def inverse(self, a: np.ndarray) -> np.ndarray:
        return self.bat.inverse(np.asarray(a, dtype=np.uint64)[None])[0]

    def negacyclic_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.inverse(self.mul(self.forward(a), self.forward(b)))

    def oracle_forward(self, a: np.ndarray) -> np.ndarray:
        return oracle.ntt(a, self.modulus, psi_of(self.degree, self.modulus))


@pytest.fixture(scope="module", params=[16, 256, 1024], ids=lambda n: f"n{n}")
def limb(request) -> OneLimb:
    return OneLimb(request.param)


def random_poly(rng, n, q=PRIME):
    return rng.integers(0, q, n).astype(np.uint64)


def ring_product(a, b, q=PRIME) -> np.ndarray:
    """The oracle's schoolbook product, as canonical uint64."""
    return oracle.negacyclic_mul(a, b, q).astype(np.uint64)


class TestConstruction:
    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError, match="not NTT-friendly"):
            NttContext.create(1 << 20, PRIME)  # 2N does not divide q-1

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            NttContext.create(100, PRIME)

    def test_rejects_bad_psi(self):
        with pytest.raises(ValueError, match="primitive"):
            NttContext.create(256, PRIME, psi=1)

    def test_accepts_explicit_valid_psi(self):
        base = NttContext.create(256, PRIME)
        again = NttContext.create(256, PRIME, psi=base.psi)
        assert np.array_equal(base.psi_rev, again.psi_rev)

    @BARRETT
    def test_twiddle_tables_are_bit_reversed_powers(self):
        """The doubling construction fills ``psi_rev[bitrev(i)] = psi^i``."""
        ctx = NttContext.create(64, PRIME)
        psi_inv = mod_inv(ctx.psi, PRIME)
        for i in range(64):
            j = bit_reverse(i, 6)
            assert int(ctx.psi_rev[j]) == pow(ctx.psi, i, PRIME)
            assert int(ctx.psi_inv_rev[j]) == pow(psi_inv, i, PRIME)

    def test_psi_order(self, ntt):
        n, q = ntt.degree, ntt.modulus
        assert pow(ntt.psi, 2 * n, q) == 1
        assert pow(ntt.psi, n, q) == q - 1  # psi^N = -1: the negacyclic root

    def test_n_inv(self, ntt):
        assert ntt.n_inv == mod_inv(ntt.degree, ntt.modulus)


class TestTransforms:
    def test_matches_oracle(self, limb, rng):
        a = random_poly(rng, limb.degree)
        a[0] = PRIME - 1
        assert np.array_equal(limb.forward(a), limb.oracle_forward(a))

    def test_roundtrip(self, limb, rng):
        a = random_poly(rng, limb.degree)
        assert np.array_equal(limb.inverse(limb.forward(a)), a)

    def test_roundtrip_other_order(self, limb, rng):
        a = random_poly(rng, limb.degree)
        assert np.array_equal(limb.forward(limb.inverse(a)), a)

    def test_forward_is_linear(self, limb, rng):
        q = limb.modulus
        a, b = random_poly(rng, limb.degree), random_poly(rng, limb.degree)
        lhs = limb.forward((a + b) % np.uint64(q))
        rhs = (limb.forward(a) + limb.forward(b)) % np.uint64(q)
        assert np.array_equal(lhs, rhs)

    def test_constant_polynomial(self, limb):
        """NTT of a constant c is the all-c vector (X^0 evaluates to 1)."""
        a = np.zeros(limb.degree, dtype=np.uint64)
        a[0] = 42
        want = np.full(limb.degree, 42, dtype=np.uint64)
        assert np.array_equal(limb.forward(a), want)

    def test_input_not_mutated(self, limb, rng):
        a = random_poly(rng, limb.degree)
        before = a.copy()
        limb.forward(a)
        assert np.array_equal(a, before)

    def test_shape_check(self, limb):
        with pytest.raises(ValueError, match="expected"):
            limb.forward(np.zeros(limb.degree + 1, dtype=np.uint64))


class TestMultiplication:
    def test_matches_naive(self, limb, rng):
        a, b = random_poly(rng, limb.degree), random_poly(rng, limb.degree)
        assert np.array_equal(limb.negacyclic_mul(a, b), ring_product(a, b))

    def test_x_to_n_is_minus_one(self, limb):
        """X^(N/2) * X^(N/2) = X^N = -1 in the negacyclic ring."""
        n, q = limb.degree, limb.modulus
        x_half = np.zeros(n, dtype=np.uint64)
        x_half[n // 2] = 1
        prod = limb.negacyclic_mul(x_half, x_half)
        expected = np.zeros(n, dtype=np.uint64)
        expected[0] = q - 1
        assert np.array_equal(prod, expected)

    def test_multiplicative_identity(self, limb, rng):
        one = np.zeros(limb.degree, dtype=np.uint64)
        one[0] = 1
        a = random_poly(rng, limb.degree)
        assert np.array_equal(limb.negacyclic_mul(a, one), a)

    def test_commutativity(self, limb, rng):
        a, b = random_poly(rng, limb.degree), random_poly(rng, limb.degree)
        assert np.array_equal(limb.negacyclic_mul(a, b), limb.negacyclic_mul(b, a))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**36), st.integers(min_value=0, max_value=15))
    def test_monomial_product_hypothesis(self, coeff, shift):
        """c*X^i times X^j lands at X^(i+j) with negacyclic sign wrap."""
        n = 16
        a = np.zeros(n, dtype=np.uint64)
        a[shift] = coeff % PRIME
        b = np.zeros(n, dtype=np.uint64)
        b[n - 1] = 1
        prod = OneLimb(n).negacyclic_mul(a, b)
        k = shift + n - 1
        expected = np.zeros(n, dtype=np.uint64)
        if k < n:
            expected[k] = coeff % PRIME
        else:
            expected[k - n] = (PRIME - coeff % PRIME) % PRIME
        assert np.array_equal(prod, expected)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=2**36), min_size=32, max_size=32))
    def test_random_poly_hypothesis(self, coeffs):
        limb = OneLimb(32)
        a = np.array([c % PRIME for c in coeffs], dtype=np.uint64)
        assert np.array_equal(limb.inverse(limb.forward(a)), a)


class TestPointwise:
    def test_pointwise_is_ring_product(self, limb, rng):
        a, b = random_poly(rng, limb.degree), random_poly(rng, limb.degree)
        via_pointwise = limb.inverse(limb.mul(limb.forward(a), limb.forward(b)))
        assert np.array_equal(via_pointwise, ring_product(a, b))


class TestBatchedTensors:
    """BatchNtt over stacked (..., L, N) tensors and EVAL-domain Galois."""

    def test_leading_batch_axis_matches_per_matrix(self):
        moduli = tuple(p.value for p in find_primes(36, 1 << 9, max_count=3))
        bn = BatchNtt.create(64, moduli)
        rng = np.random.default_rng(2)
        q_col = np.array(moduli, dtype=np.uint64).reshape(-1, 1)
        tensor = (
            rng.integers(0, 2**40, (4, 3, 64)).astype(np.uint64) % q_col
        )
        batched = bn.forward(tensor)
        per_matrix = np.stack([bn.forward(tensor[i]) for i in range(4)])
        assert np.array_equal(batched, per_matrix)
        assert np.array_equal(bn.inverse(batched), tensor)

    def test_forward_into_out_and_in_place(self):
        """``out`` takes the result; ``out=mat`` transforms in place, over
        several blocks as over one."""
        from unittest import mock

        moduli = tuple(p.value for p in find_primes(36, 1 << 9, max_count=3))
        bn = BatchNtt.create(64, moduli)
        q_col = np.array(moduli, dtype=np.uint64).reshape(-1, 1)
        rng = np.random.default_rng(4)
        tensor = rng.integers(0, 2**40, (4, 3, 64)).astype(np.uint64) % q_col
        want = bn.forward(tensor)
        out = np.empty_like(tensor)
        assert bn.forward(tensor, out=out) is out
        assert out.tobytes() == want.tobytes()
        for block_bytes in (BatchNtt.BLOCK_BYTES, 1):
            mat = tensor.copy()
            with mock.patch.object(BatchNtt, "BLOCK_BYTES", block_bytes):
                bn.forward(mat, out=mat)
            assert mat.tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="out must be"):
            bn.forward(tensor, out=np.empty((4, 3, 32), dtype=np.uint64))
        with pytest.raises(ValueError, match="out must be"):
            bn.forward(tensor, out=np.empty((3, 4, 64), dtype=np.uint64).swapaxes(0, 1))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(0, 100), st.integers(1, 2 * BatchNtt.BLOCK_BYTES))
    def test_row_blocks_are_balanced(self, count, row_bytes):
        """The fewest blocks within ``BLOCK_BYTES`` (one row at least),
        covering the rows in order, in sizes within one row of each
        other, largest first (the size a lane's scratch is taken from)."""
        rows = max(1, BatchNtt.BLOCK_BYTES // row_bytes)
        blocks = BatchNtt.row_blocks(count, row_bytes)
        assert len(blocks) == -(-count // rows)
        assert [i for b in blocks for i in range(b.start, b.stop)] == list(range(count))
        sizes = [b.stop - b.start for b in blocks]
        assert all(1 <= size <= rows for size in sizes)
        assert sizes == sorted(sizes, reverse=True)
        assert max(sizes, default=0) - min(sizes, default=0) <= 1

    @pytest.mark.lanes
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([16, 64]),
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_blocked_transform_matches_per_limb_contexts(
        self, n, limbs, batch, block_rows, seed
    ):
        """Any block size — one limb, a block boundary mid-chain, a last
        block shorter than the rest, everything in one block — gives the
        bytes of the oracle's transform, limb by limb."""
        from unittest import mock

        moduli = LIMB_PRIMES[:limbs]
        bn = BatchNtt.create(n, moduli)
        rng = np.random.default_rng(seed)
        q_col = np.array(moduli, dtype=np.uint64).reshape(-1, 1)
        tensor = rng.integers(0, 2**62, (batch, limbs, n), dtype=np.uint64) % q_col
        want = per_limb(tensor, moduli, "forward")
        with mock.patch.object(BatchNtt, "BLOCK_BYTES", block_rows * batch * n * 8):
            assert len(bn.blocks(batch)) == -(-limbs // block_rows)
            got = bn.forward(tensor)
            back = bn.inverse(got)
        assert np.array_equal(got, want)
        assert np.array_equal(back, tensor)
        assert np.array_equal(per_limb(got, moduli, "inverse"), tensor)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([16, 64]),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_forward_takes_unreduced_input(self, n, limbs, seed):
        """Anything below ``input_bound`` — another limb's residues, a
        once-added pair — transforms to the bytes of its canonical value."""
        moduli = LIMB_PRIMES[:limbs]
        bn = BatchNtt.create(n, moduli)
        assert bn.input_bound >= max(max(moduli), 2 * min(moduli))
        rng = np.random.default_rng(seed)
        tensor = rng.integers(0, bn.input_bound, (3, limbs, n), dtype=np.uint64)
        tensor[1] = bn.input_bound - 1
        tensor[2] = np.array(moduli, dtype=np.uint64).reshape(-1, 1) - np.uint64(1)
        assert np.array_equal(bn.forward(tensor), per_limb(tensor, moduli, "forward"))

    @BARRETT
    def test_growth_bound_worst_case_at_paper_degree(self):
        """All-(q-1) and all-(bound-1) rows at N = 2^16: sixteen stages of
        the largest values the lazy butterflies can be handed."""
        n = 1 << 16
        moduli = tuple(p.value for p in find_primes(36, n, max_count=2))
        bn = BatchNtt.create(n, moduli)
        q_col = np.array(moduli, dtype=np.uint64).reshape(-1, 1)
        top = np.broadcast_to(q_col - np.uint64(1), (2, n))
        wide = np.full((2, n), bn.input_bound - 1, dtype=np.uint64)
        for rows in (top, wide):
            assert np.array_equal(bn.forward(rows), per_limb(rows, moduli, "forward"))
        assert np.array_equal(bn.inverse(top), per_limb(top, moduli, "inverse"))

    def test_renormalization_plan_follows_the_moduli(self):
        # A 36-bit prime (raw products below 2q):
        # the forward enters stage s at c = 2 + 2s, and 2 + 2 * 15 = 32 <
        # 64 = 2^42 / 2^36, so sixteen stages never renormalize.  The
        # inverse's sums double from 1: c = 64 enters stage 5, the doubled
        # 128 no longer fits, so stages 6 and 12 renormalize and three
        # doublings after 12 enter the last stage at 8 q: its 16 q sums
        # take the folded 1/N products.
        paper = BatchNtt.create(1 << 16, (PAPER_PRIMES[0],))
        assert not any(paper._forward_plan)
        inverse = paper._inverse_plan
        assert len(inverse) == 16
        assert [s for s, (first, _) in enumerate(inverse) if first] == [6, 12]
        assert inverse[-1] == (False, 8)
        # A mixed toy chain has no such room (limb 0 must stay below 17^2
        # while holding limb 1's residues: it enters at 16 q_0, and one
        # stage would store 18 q_0) and still transforms exactly.
        toy = BatchNtt.create(8, (17, 257))
        assert toy._forward_plan[0]
        x = np.full((2, 8), toy.input_bound - 1, dtype=np.uint64)
        want = per_limb(x, (17, 257), "forward")
        assert np.array_equal(toy.forward(x), want)
        assert np.array_equal(toy.inverse(want), x % np.array([[17], [257]], dtype=np.uint64))
        # The reducer takes an unreduced 41-bit operand; a limb that
        # cannot even hold another limb's residues below q^2 is refused.
        wide = find_primes(41, 64, max_count=1)[0].value
        BatchNtt.create(64, (wide,))
        with pytest.raises(ValueError, match="no room for lazy butterflies"):
            BatchNtt.create(8, (17, 7681))

    def test_bad_trailing_shape_rejected(self):
        moduli = tuple(p.value for p in find_primes(36, 1 << 9, max_count=2))
        bn = BatchNtt.create(64, moduli)
        with pytest.raises(ValueError, match="expected"):
            bn.forward(np.zeros((3, 64), dtype=np.uint64))

    def test_galois_permutation_matches_coeff_automorphism(self, rng):
        from repro.transforms.ntt import galois_permutation

        n = 64
        psi = psi_of(n, PRIME)
        a = random_poly(rng, n)
        for k in (3, 5, 2 * n - 1):
            rotated = oracle.automorphism(a, k, PRIME)
            assert np.array_equal(
                oracle.ntt(rotated, PRIME, psi),
                oracle.ntt(a, PRIME, psi)[galois_permutation(n, k)],
            )

    def test_galois_permutation_matches_scalar_definition(self):
        """The vectorized table is the slot-by-slot definition: every odd
        element at N = 8, and at N = 2^10 the 46 rotations of a dense
        512-slot BSGS product (babies 1..32, giants 64..480)."""
        from repro.transforms.ntt import galois_permutation
        from repro.utils.bitops import bit_reverse, ilog2

        def scalar(n, k):
            bits = ilog2(n)
            exponents = (k * (2 * bit_reverse(i, bits) + 1) % (2 * n) for i in range(n))
            return [bit_reverse((e - 1) // 2, bits) for e in exponents]

        rotations = [*range(1, 33), *range(64, 512, 32)]
        assert len(rotations) == 46
        cases = [(8, k) for k in range(1, 16, 2)]
        cases += [(1 << 10, pow(5, r, 1 << 11)) for r in rotations]
        for n, k in cases:
            src = galois_permutation(n, k)
            assert src.dtype == np.intp and not src.flags.writeable
            assert src.tolist() == scalar(n, k), (n, k)
        assert np.array_equal(galois_permutation(8, 3 + 16), galois_permutation(8, 3))
        with pytest.raises(ValueError, match="odd"):
            galois_permutation(8, 4)


PAPER_PRIMES = tuple(p.value for p in find_primes(36, 1 << 16, max_count=3))
WIDE_PRIMES = tuple(p.value for p in find_primes(40, 1 << 10, max_count=3))


_TRANSFORMED: dict[tuple, np.ndarray] = {}


def per_limb(tensor, moduli, direction):
    """The reference: every limb's rows of a ``(..., L, N)`` tensor
    through the oracle's transform (``direction``: forward or inverse).
    The oracle is a pure function of a row, so a row already transformed
    — an edge row repeated across a batch or another test — is looked up,
    not transformed again (which at N = 2^16 takes a quarter second)."""
    n = tensor.shape[-1]
    transform = oracle.ntt if direction == "forward" else oracle.intt
    out = np.empty(tensor.shape, dtype=np.uint64)
    for i, q in enumerate(moduli):
        rows = np.ascontiguousarray(tensor[..., i, :]).reshape(-1, n)
        keys = [(direction, q, row.tobytes()) for row in rows]
        todo = {k: row for k, row in zip(keys, rows) if k not in _TRANSFORMED}
        if todo:
            done = transform(np.stack(list(todo.values())), q, psi_of(n, q))
            _TRANSFORMED.update(zip(todo, done))
        out[..., i, :] = np.stack([_TRANSFORMED[k] for k in keys]).reshape(
            out.shape[:-2] + (n,)
        )
    return out


@contextmanager
def lanes(rows: int, cpu: int, n: int = 1 << 10):
    """Blocks of ``rows`` limbs of degree ``n``, and ``cpu`` CPUs."""
    from unittest import mock

    from repro.nums import kernels

    with (
        mock.patch.object(BatchNtt, "BLOCK_BYTES", rows * n * 8),
        mock.patch.object(kernels, "_cpu_count", return_value=cpu),
    ):
        yield


class TestButterflyLayouts:
    """The re-laid dataflow (ufunc buffer scoped to the call, closing /
    opening stages on the transposed block, per-call workspace) against
    the oracle, configuration by configuration."""

    @staticmethod
    def cases(bn, moduli, lead, rng) -> list[tuple]:
        """``(tensor, forward, inverse)``: edge and random inputs of shape
        ``(*lead, L, N)`` with the oracle's transforms of them (``inverse``
        ``None`` for the unreduced inputs, which only the forward takes)."""
        n = bn.degree
        q_col = np.array(moduli, dtype=np.uint64).reshape(-1, 1)
        shape = (*lead, len(moduli), n)
        canonical = [
            rng.integers(0, 1 << 62, shape, dtype=np.uint64) % q_col,
            np.zeros(shape, dtype=np.uint64),
            np.broadcast_to(q_col - np.uint64(1), shape),
        ]
        unreduced = [
            np.full(shape, bn.input_bound - 1, dtype=np.uint64),
            # a once-added pair of the limb's own residues
            np.broadcast_to(np.uint64(2) * q_col - np.uint64(2), shape),
        ]
        out = [
            (x, per_limb(x, moduli, "forward"), per_limb(x, moduli, "inverse"))
            for x in canonical
        ]
        # Another memory order of the random input: the same transforms.
        out.append((np.asfortranarray(canonical[0]), *out[0][1:]))
        out += [(x, per_limb(x, moduli, "forward"), None) for x in unreduced]
        return out

    @staticmethod
    def check(bn, cases) -> None:
        for tensor, forward, inverse in cases:
            assert np.array_equal(bn.forward(tensor), forward)
            if inverse is None:
                continue
            assert np.array_equal(bn.inverse(tensor), inverse)
            block = np.array(tensor, order="C").reshape(-1, *tensor.shape[-2:])
            bn.inverse_block(block, slice(0, tensor.shape[-2]))
            assert np.array_equal(block.reshape(tensor.shape), inverse)

    @BARRETT
    @pytest.mark.parametrize("log_n", [1, 2, 3, 4, 5, 6, 7, 10, 12])
    def test_grid_matches_per_limb_reference(self, log_n):
        """Degrees on both sides of every layout boundary (one chunk per
        transposed row at N = 2, up to 64 x 64), the three batch shapes
        incl. key switching's (L, L, N), and 1, 2 and all limbs a block."""
        from unittest import mock

        n, moduli = 1 << log_n, PAPER_PRIMES
        bn = BatchNtt.create(n, moduli)
        rng = np.random.default_rng(log_n)
        for lead in ((), (2,), (len(moduli),)):
            batch = int(np.prod(lead))
            cases = self.cases(bn, moduli, lead, rng)
            for limbs in (1, 2, len(moduli)):
                block_bytes = limbs * batch * n * 8
                with mock.patch.object(BatchNtt, "BLOCK_BYTES", block_bytes):
                    assert len(bn.blocks(batch)) == -(-len(moduli) // limbs)
                    self.check(bn, cases)

    @BARRETT
    def test_paper_degree_matches_per_limb_reference(self):
        """N = 2^16: one 512 KiB limb per block, 256 x 256 transposed."""
        bn = BatchNtt.create(1 << 16, PAPER_PRIMES[:2])
        assert len(bn.blocks()) == 2
        self.check(bn, self.cases(bn, PAPER_PRIMES[:2], (), np.random.default_rng(16)))

    @pytest.mark.lanes
    @BARRETT
    @pytest.mark.parametrize(
        "log_n, wide", [(1, False), (4, False), (7, False), (10, True)]
    )
    def test_columns_match_per_limb_reference(self, log_n, wide):
        """The column layout (``BatchNtt.forward_columns``): ``C``
        polynomials on each limb of a range, limb-major as the columns of
        an ``(N, r·C)`` block, limb by limb against the oracle — every
        one-limb block at ``C = K`` and ``3K + 1``, then random limb
        ranges of one limb and more (their twiddles formed per column)
        at random ``C``; inputs anywhere below ``input_bound`` (any
        limb's residues, unreduced) and at its edges; at 40 bits the
        forward plan renormalizes on the column stages too."""
        from repro.transforms.ntt import _transposed_span

        n, moduli = 1 << log_n, WIDE_PRIMES if wide else PAPER_PRIMES
        bn = BatchNtt.create(n, moduli)
        span = _transposed_span(n)
        assert bn.column_rows == span
        assert any(bn._forward_plan) == wide
        rng = np.random.default_rng(log_n)
        cases = [
            (slice(i, i + 1), c)
            for c in (span, 3 * span + 1)
            for i in range(len(moduli))
        ]
        for _ in range(4):
            start = int(rng.integers(0, len(moduli)))
            stop = int(rng.integers(start + 1, len(moduli) + 1))
            cases.append((slice(start, stop), int(rng.integers(1, 2 * span + 2))))
        cases.append((slice(0, len(moduli)), span))
        for limbs, count in cases:
            r = limbs.stop - limbs.start
            x = rng.integers(0, bn.input_bound, (r, count, n), dtype=np.uint64)
            x[:, 0] = bn.input_bound - 1
            x[:, -1, :2] = 0
            for k, q in enumerate(moduli[limbs]):
                x[k, count // 2, -1] = q - 1
            block = x.reshape(r * count, n).T.copy()
            bn.forward_columns(block, limbs)
            got = block.T.reshape(r, count, n)
            for k, q in enumerate(moduli[limbs]):
                assert np.array_equal(got[k], oracle.ntt(x[k], q, psi_of(n, q)))

    @pytest.mark.lanes
    def test_columns_reject_what_they_cannot_transform(self):
        n = 1 << 4
        bn = BatchNtt.create(n, PAPER_PRIMES)
        for bad in (
            np.zeros((n, 3), np.int64),
            np.zeros((3, n), np.uint64),
            np.zeros((n, 6), np.uint64)[:, ::2],
            np.zeros((n, 3, 1), np.uint64),
            np.zeros((n, 0), np.uint64),
        ):
            with pytest.raises(ValueError):
                bn.forward_columns(bad, slice(0, 1))
        last = len(PAPER_PRIMES)
        for limbs in (slice(-1, 0), slice(last, last + 1), slice(1, 1), slice(0, 2, 2)):
            with pytest.raises(ValueError):
                bn.forward_columns(np.zeros((n, 4), np.uint64), limbs)
        with pytest.raises(ValueError):  # 3 columns do not split over 2 limbs
            bn.forward_columns(np.zeros((n, 3), np.uint64), slice(0, 2))

    @BARRETT
    def test_renormalizing_stages_fall_on_both_layouts(self):
        """At 40 bits the forward plan, too, renormalizes mid-transform
        (at 36 only the inverse's does): a renormalization lands on the
        in-place stages and on the transposed ones, in both directions."""
        from repro.transforms.ntt import _transposed_span

        n = 1 << 10
        bn = BatchNtt.create(n, WIDE_PRIMES)
        in_place = (n // _transposed_span(n)).bit_length() - 1  # stages before the turn
        forward = bn._forward_plan
        assert any(forward[:in_place]) and any(forward[in_place:])
        inverse = [first for first, _ in bn._inverse_plan]
        assert any(inverse[:-in_place]) and any(inverse[-in_place:])
        rng = np.random.default_rng(40)
        for lead in ((), (len(WIDE_PRIMES),)):
            self.check(bn, self.cases(bn, WIDE_PRIMES, lead, rng))

    def test_ufunc_buffer_is_the_callers_after_every_call(self):
        from unittest import mock

        bn = BatchNtt.create(64, PAPER_PRIMES)
        x = np.zeros((len(PAPER_PRIMES), 64), dtype=np.uint64)

        def calls():
            bn.forward(x)
            yield "forward"
            bn.inverse(x)
            yield "inverse"
            block = np.zeros((1, len(PAPER_PRIMES), 64), dtype=np.uint64)
            bn.forward_block(block, slice(0, len(PAPER_PRIMES)))
            yield "forward_block"
            bn.inverse_block(block, slice(0, len(PAPER_PRIMES)))
            yield "inverse_block"
            with pytest.raises(ValueError):
                bn.forward(np.zeros((2, 64), dtype=np.uint64))
            yield "forward, wrong shape"
            with pytest.raises(ValueError):
                bn.forward_block(block[:, :2], slice(0, len(PAPER_PRIMES)))
            yield "forward_block, wrong shape"
            kernel = type(bn.kernel)
            with mock.patch.object(kernel, "mul_pre_raw", side_effect=RuntimeError):
                for transform in (bn.forward, bn.inverse):
                    with pytest.raises(RuntimeError):  # inside the buffer scope
                        transform(x)
            yield "raising mid-transform"

        default = np.getbufsize()
        for own in (default, 4096):
            previous = np.setbufsize(own)
            try:
                for name in calls():
                    assert np.getbufsize() == own, name
            finally:
                np.setbufsize(previous)
        assert np.getbufsize() == default

    @pytest.mark.lanes
    def test_threads_share_one_instance(self):
        """Scratch is per lane: two threads transforming different inputs
        through one cached ``BatchNtt``, each fanning out into lanes over
        one-limb blocks, both get the reference rows."""
        import sys
        import threading

        n, moduli = 1 << 10, PAPER_PRIMES
        bn = BatchNtt.create(n, moduli)
        rng = np.random.default_rng(3)
        q_col = np.array(moduli, dtype=np.uint64).reshape(-1, 1)
        shape = (len(moduli), n)
        inputs = [
            rng.integers(0, 1 << 62, shape, dtype=np.uint64) % q_col for _ in range(2)
        ]
        wants = [per_limb(x, moduli, "forward") for x in inputs]
        failures: list[int] = []

        def work(k: int) -> None:
            for _ in range(200):
                got = bn.forward(inputs[k])
                back = bn.inverse(got)
                if not (np.array_equal(got, wants[k]) and np.array_equal(back, inputs[k])):
                    failures.append(k)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with lanes(1, 3, n):
                assert len(bn.blocks()) == len(moduli)
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures


@pytest.mark.lanes
class TestLanes:
    """The limb-block loops in lanes (``repro.nums.kernels.in_lanes``):
    several blocks forced at N = 2^10 by a smaller ``BLOCK_BYTES``, the
    CPU count patched to 1, 2 and 3; every result is the bytes of the
    one-lane path."""

    LANES = [
        pytest.param(rows, cpu, id=f"rows{rows}-cpu{cpu}")
        for rows in (1, 2)
        for cpu in (1, 2, 3)
    ]

    @pytest.fixture(scope="class")
    def ctx(self):
        from repro.ckks import CkksContext, toy_params

        return CkksContext.create(toy_params(degree=1 << 10, num_primes=5), seed=2)

    @pytest.mark.parametrize("rows, cpu", LANES)
    def test_transforms_match_per_limb_reference(self, rows, cpu):
        import threading

        n, moduli = 1 << 10, LIMB_PRIMES[:5]
        bn = BatchNtt.create(n, moduli)
        rng = np.random.default_rng(rows * 10 + cpu)
        q_col = np.array(moduli, dtype=np.uint64).reshape(-1, 1)
        before = threading.active_count()
        for lead in ((), (3,)):
            x = rng.integers(0, 1 << 62, (*lead, len(moduli), n), dtype=np.uint64)
            x %= q_col
            with lanes(rows, cpu):
                assert len(bn.blocks(int(np.prod(lead)))) > 1
                got = bn.forward(x)
                back = bn.inverse(got)
            assert np.array_equal(got, per_limb(x, moduli, "forward"))
            assert np.array_equal(back, x)
        assert threading.active_count() == before

    @pytest.mark.parametrize("rows, cpu", LANES)
    def test_encrypt_bytes_match_one_lane(self, ctx, rows, cpu):
        """Both streamed encryptions: the public-key one (mask transformed
        per block) and the seeded one (mask already evaluated)."""
        got = self.encryptions(ctx, lanes(rows, cpu))
        want = self.encryptions(ctx, lanes(ctx.basis.num_primes, 1))
        assert got == want

    @staticmethod
    def encryptions(ctx, scope) -> list[bytes]:
        from repro.ckks.encryptor import Encryptor
        from repro.prng.xof import Xof

        rng = np.random.default_rng(11)
        plain = ctx.encode(rng.normal(size=ctx.params.slots))
        enc = Encryptor(ctx.params, ctx.basis, ctx.public_key, Xof.from_int(5))
        with scope:
            ct = enc.encrypt(plain)
            seeded, _ = enc.encrypt_symmetric_seeded(plain, ctx.secret_key)
        return [p.data.tobytes() for c in (ct, seeded) for p in c.parts]

    @pytest.mark.parametrize("rows, cpu", LANES)
    def test_float_expand_matches_bigint_expand(self, rows, cpu):
        from repro.rns import RnsBasis
        from repro.rns.poly import RnsPolynomial

        basis = RnsBasis.create(1 << 10, 5)
        rng = np.random.default_rng(rows * 10 + cpu)
        values = np.rint(rng.normal(size=basis.degree) * 2.0**60)
        want = RnsPolynomial.from_bigint_coeffs(basis, 5, [int(v) for v in values])
        with lanes(rows, cpu):
            got = RnsPolynomial.from_float_coeffs(basis, 5, values)
        assert np.array_equal(got.data, want.data)

    def test_affinity_sets_the_lane_count(self):
        """Unpatched: a multi-block transform starts one thread per CPU
        this process may use, less the caller's — none under a one-CPU
        affinity mask (``taskset -c 0``)."""
        import threading
        from unittest import mock

        from repro.nums import kernels
        n, moduli = 1 << 10, LIMB_PRIMES
        bn = BatchNtt.create(n, moduli)
        x = np.zeros((len(moduli), n), dtype=np.uint64)
        started = []
        real = threading.Thread

        def counting(*args, **kwargs):
            started.append(1)
            return real(*args, **kwargs)

        with mock.patch.object(BatchNtt, "BLOCK_BYTES", n * 8):
            with mock.patch.object(threading, "Thread", counting):
                bn.forward(x)
        assert len(started) == min(len(moduli), kernels._cpu_count()) - 1

"""RNS polynomials: domain discipline, exact lifts, ring laws, rescaling."""

from __future__ import annotations

import tracemalloc
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nums import find_primes
from repro.rns.basis import RnsBasis
from repro.rns.poly import (
    COEFF,
    EVAL,
    RnsPolynomial,
    float_coeff_rows,
    rescale_eval_rows,
    rescale_rows,
)
from repro.transforms.fft import SpecialFft
from repro.transforms.fp_custom import FP32_LIKE, FP55, FP64
from repro.transforms.ntt import BatchNtt, NttContext
from tests import BARRETT, oracle

N = 256
LEVEL = 4


def poly_from(rng, basis, level=LEVEL, bound=1000):
    return RnsPolynomial.from_signed_coeffs(
        basis, level, rng.integers(-bound, bound, basis.degree)
    )


class TestConstruction:
    def test_zero(self, basis):
        z = RnsPolynomial.zero(basis, 3)
        assert z.level == 3
        assert np.all(z.data == 0)

    def test_from_signed_roundtrip(self, basis, rng):
        coeffs = rng.integers(-500, 500, basis.degree)
        p = RnsPolynomial.from_signed_coeffs(basis, LEVEL, coeffs)
        assert p.to_bigints() == coeffs.tolist()

    def test_from_signed_sign_mask_agrees_with_division(self, basis):
        """The division-free embed (``x + (q & mask)``) and the int64
        ``%`` it falls back to produce the same residues, on either side
        of the switch at ``max|x| = q_min``."""
        moduli = basis.moduli[:LEVEL]
        q_min = min(moduli)
        q_col = np.array(moduli, dtype=np.int64).reshape(-1, 1)
        edge = [0, 1, -1, q_min - 1, 1 - q_min]
        wide = [q_min, -q_min, np.iinfo(np.int64).max, np.iinfo(np.int64).min]

        def embed(values):
            coeffs = np.zeros(basis.degree, dtype=np.int64)
            coeffs[: len(values)] = values
            got = RnsPolynomial.from_signed_coeffs(basis, LEVEL, coeffs).data
            assert np.array_equal(got, (coeffs % q_col).astype(np.uint64))
            return got

        masked = embed(edge)  # below q_min everywhere: sign mask
        divided = embed(edge + wide)  # one coefficient at q_min: division
        assert np.array_equal(masked[:, : len(edge)], divided[:, : len(edge)])

    def test_from_bigint_roundtrip(self, basis):
        big = prod(basis.moduli[:LEVEL])
        coeffs = [0, 1, -1 % big, big // 3, big - 7] + [0] * (basis.degree - 5)
        p = RnsPolynomial.from_bigint_coeffs(basis, LEVEL, coeffs)
        assert p.to_bigints(center=False) == [c % big for c in coeffs]

    def test_shape_validation(self, basis):
        with pytest.raises(ValueError, match="data must be"):
            RnsPolynomial(basis, np.zeros((2, 3), dtype=np.uint64))

    def test_level_validation(self, basis):
        with pytest.raises(ValueError, match="level"):
            RnsPolynomial(basis, np.zeros((basis.num_primes + 1, N), dtype=np.uint64))

    def test_domain_validation(self, basis):
        with pytest.raises(ValueError, match="unknown domain"):
            RnsPolynomial(basis, np.zeros((1, N), dtype=np.uint64), "frequency")

    def test_wrong_coeff_count(self, basis):
        with pytest.raises(ValueError, match="expected"):
            RnsPolynomial.from_signed_coeffs(basis, 2, np.zeros(N - 1, dtype=np.int64))


def _float_coefficients():
    """Doubles covering what the encoder's ``c * delta`` can hand over."""
    ordinary = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
    special = st.sampled_from(
        [0.0, -0.0, 0.5, -0.5, 1.5, 2.5, -3.5, 5e-324, -2.2e-308, 1e-30, 2.0**-72]
    )
    huge = st.floats(min_value=2.0**63, max_value=2.0**200, allow_nan=False)
    return st.one_of(ordinary, special, huge, huge.map(lambda x: -x))


# The widest primes a kernel takes: find_primes can return a 42-bit one.
WIDE_BASIS = RnsBasis(
    degree=N,
    primes=tuple(p for p in find_primes(41, N, max_count=12) if p.value.bit_length() == 41)[:6],
)

# Doubles at the edges of the mantissa/exponent split, placed unscaled.
EDGE_DOUBLES = [
    np.finfo(np.float64).max,
    -np.finfo(np.float64).max,
    2.0**53 + 2,
    -(2.0**53 + 2),
    2.0**63,
    2.0**64 + 2.0**12,
    2.0**64 - 2.0**12,
    -0.0,
]


class TestExpandRns:
    """The float Expand-RNS against the exact big-int front-end."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(_float_coefficients(), min_size=8, max_size=8),
        st.sampled_from(
            [2.0**72, 2.0**36, 1.0, 2.0**72 / 68719403009, 3.0e21, 2.0**-3]
        ),
        st.integers(min_value=1, max_value=6),
        st.booleans(),
    )
    def test_float_expand_matches_python_rounded_bigints(
        self, basis, head, delta, level, wide
    ):
        """On the shared 36-bit chain and on 41-bit primes; the edge
        doubles sit unscaled after the scaled head and its negation."""
        chain = WIDE_BASIS if wide else basis
        coeffs = np.zeros(N)
        coeffs[: len(head)] = head
        coeffs[len(head) : 2 * len(head)] = [-c for c in head]
        ints = [int(round(float(c) * delta)) for c in coeffs]
        values = np.rint(coeffs * delta)
        edges = slice(2 * len(head), 2 * len(head) + len(EDGE_DOUBLES))
        values[edges] = EDGE_DOUBLES
        ints[edges] = [int(v) for v in EDGE_DOUBLES]
        want = RnsPolynomial.from_bigint_coeffs(chain, level, ints)
        got = RnsPolynomial.from_float_coeffs(chain, level, values)
        assert got.domain == COEFF
        assert np.array_equal(got.data, want.data)

    def test_one_call_streams_limb_by_limb(self):
        """At the paper's shape (N = 2^16, 24 limbs) one call peaks below
        twice its 12 MiB output: no (L, N) temporary beside the rows."""
        basis = RnsBasis.create(1 << 16, 24)
        rng = np.random.default_rng(5)
        values = np.rint(rng.normal(size=basis.degree) * 2.0**60)
        RnsPolynomial.from_float_coeffs(basis, 2, values)  # warm the kernels
        tracemalloc.start()
        try:
            got = RnsPolynomial.from_float_coeffs(basis, 24, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.data.nbytes == 12 << 20
        assert peak < 2 * got.data.nbytes

    @pytest.mark.parametrize(
        "fmt", [FP64, FP55, FP32_LIKE], ids=["fp64", "fp55", "fp32"]
    )
    @pytest.mark.parametrize("cpu", [1, 3])
    def test_stacked_rows_equal_one_call_per_row(self, basis, fmt, cpu):
        """A stack of encoder outputs (a special IFFT in ``fmt``, scaled
        and rounded) expands to the rows each gets alone, with one limb
        per block so the limbs run in lanes."""
        from unittest import mock

        from repro.nums import kernels

        rng = np.random.default_rng(23)
        msgs = rng.normal(size=(2, 3, N // 2)) + 1j * rng.normal(size=(2, 3, N // 2))
        folded = SpecialFft.create(N // 2, fmt).inverse(msgs)
        values = np.rint(np.concatenate([folded.real, folded.imag], axis=-1) * 2.0**60)
        values[0, 0, :3] = [-(2.0**80), 2.0**53 + 2, -0.0]
        with (
            mock.patch.object(BatchNtt, "BLOCK_BYTES", 1),  # one limb a block
            mock.patch.object(kernels, "_cpu_count", return_value=cpu),
        ):
            got = float_coeff_rows(basis, LEVEL, values)
        assert got.shape == (2, 3, LEVEL, N)
        for idx in np.ndindex(2, 3):
            alone = RnsPolynomial.from_float_coeffs(basis, LEVEL, values[idx])
            assert got[idx].tobytes() == alone.data.tobytes()

    def test_exact_ties_round_to_even(self, basis):
        coeffs = np.zeros(N)
        coeffs[:6] = [0.5, 1.5, 2.5, -0.5, -1.5, -2.5]
        got = RnsPolynomial.from_float_coeffs(basis, 2, np.rint(coeffs))
        assert got.to_bigints()[:6] == [0, 2, 2, 0, -2, -2]

    def test_values_past_the_mantissa_are_exact(self, basis):
        values = np.zeros(N)
        values[:4] = [2.0**53, 2.0**53 + 2, -(2.0**100), 3 * 2.0**70]
        got = RnsPolynomial.from_float_coeffs(basis, LEVEL, values)
        big = prod(basis.moduli[:LEVEL])
        assert got.to_bigints(center=False)[:4] == [int(v) % big for v in values[:4]]

    def test_rejects_fractions_and_non_finite(self, basis):
        values = np.zeros(N)
        values[3] = 0.25
        with pytest.raises(ValueError, match="integer-valued"):
            RnsPolynomial.from_float_coeffs(basis, 2, values)
        for bad in (np.inf, -np.inf, np.nan):
            values[3] = bad
            with pytest.raises(ValueError, match="non-finite"):
                RnsPolynomial.from_float_coeffs(basis, 2, values)
        with pytest.raises(ValueError, match="expected"):
            RnsPolynomial.from_float_coeffs(basis, 2, np.zeros(N - 1))

    def test_bigint_front_end_on_small_moduli(self):
        """32-bit words exceed a 20-bit modulus: the front-end divides."""
        small = RnsBasis.create(64, 3, bitwidth=20)
        coeffs = [(-1) ** i * (3**i) for i in range(64)]
        p = RnsPolynomial.from_bigint_coeffs(small, 3, coeffs)
        for row, q in zip(p.data, small.moduli):
            assert row.tolist() == [c % q for c in coeffs]
        floats = np.array([float(2**i) for i in range(64)])
        f = RnsPolynomial.from_float_coeffs(small, 3, floats)
        for row, q in zip(f.data, small.moduli):
            assert row.tolist() == [2**i % q for i in range(64)]

    def test_in_domain_transform_is_not_a_copy(self, basis, rng):
        p = poly_from(rng, basis)
        assert p.to_coeff() is p
        e = p.to_eval()
        assert e.to_eval() is e


def _interleaved_chain() -> RnsBasis:
    """36- and 30-bit primes alternating: a Garner digit of a wide limb
    exceeds the narrow limbs it is peeled from, and the other way round."""
    wide, narrow = find_primes(36, N, max_count=3), find_primes(30, N, max_count=3)
    return RnsBasis(degree=N, primes=tuple(p for pair in zip(wide, narrow) for p in pair))


MIXED_BASIS = _interleaved_chain()


class TestCombineCrt:
    """The word-level Garner Combine-CRT against the idempotent-sum CRT
    of ``tests/oracle.py``."""

    @pytest.fixture(params=["shared", "mixed"])
    def chain(self, request, basis) -> RnsBasis:
        return basis if request.param == "shared" else MIXED_BASIS

    @staticmethod
    def check(
        chain: RnsBasis, level: int, values: list[int], rng, small: bool = False
    ) -> RnsPolynomial:
        """``values`` head the columns, uniformly random residues (a
        full-range coefficient each) fill the rest — or, ``small``,
        coefficients below ``q_0 / 2`` in magnitude (a decrypted reply)."""
        moduli = chain.moduli[:level]
        if small:
            half = chain.moduli[0] // 2
            signed = rng.integers(-half, half + 1, N)
            data = np.stack([signed % q for q in moduli]).astype(np.uint64)
        else:
            data = np.stack([rng.integers(0, q, N, dtype=np.uint64) for q in moduli])
        for col, value in enumerate(values):
            data[:, col] = [value % q for q in moduli]
        poly = RnsPolynomial(chain, data)
        big = prod(moduli)
        combined = oracle.crt(data, moduli).tolist()
        centered = [c - big if c > big // 2 else c for c in combined]
        got = poly.to_bigints()
        assert got == centered
        assert all(type(c) is int for c in got)
        assert poly.to_bigints(center=False) == combined
        floats = poly.to_float_coeffs()
        assert floats.dtype == np.float64
        want = np.array(centered, dtype=np.float64)
        assert np.array_equal(floats.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(poly.data, data)  # the lift works on a copy
        return poly

    @BARRETT
    def test_small_columns_fold_in_int64(self, chain, rng):
        """Every coefficient small, as in a decrypted reply: the read-out
        stays in int64.  A column near ``2^62`` among them keeps it there
        (ties past the mantissa included); one at ``2^63`` or past it
        sends the whole fold to exact Python ints."""
        half = chain.moduli[0] // 2
        for level in range(1, 5):
            edges = [0, half, half + 1]
            poly = self.check(chain, level, edges + [-v for v in edges], rng, True)
            assert poly._combine(center=True).dtype == np.int64
            if level == 1:
                continue  # Q < 2^63: no wider coefficient exists
            for wide, dtype in (
                (2**62 - 1, np.int64),
                (2**62 + 2**9, np.int64),  # ties to even: down ...
                (2**62 + 3 * 2**9, np.int64),  # ... and up
                (2**63 - 2**10, object),
                (2**63, object),
                (2**63 + 2**10, object),
            ):
                for value in (wide, -wide):
                    poly = self.check(chain, level, [0, value, half], rng, True)
                    assert poly._combine(center=True).dtype == dtype

    @BARRETT
    def test_edge_columns(self, chain, rng):
        for level in range(1, 7):
            big, q0 = prod(chain.moduli[:level]), chain.moduli[0]
            edges = [
                *(0, 1, big - 1),
                *(big // 2, big // 2 + 1),  # the centering boundary (Q is odd)
                *(q0 - 1, q0, q0 + 1),  # the row boundary
                *(2**53 + 1, 2**54 - 2, 2**54 + 2),  # exact ties past the mantissa
            ]
            self.check(chain, level, edges + [-v for v in edges], rng)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.integers(-(2**230), 2**230),
                st.integers(-(2**60), 2**60),
                # A step either side of an anchor: see ``anchors`` below.
                st.tuples(st.integers(0, 7), st.integers(-2, 2)),
            ),
            min_size=12,
            max_size=12,
        ),
        st.integers(1, 6),
        st.sampled_from(["shared", "mixed"]),
    )
    def test_matches_scalar_crt(self, basis, draws, level, which):
        chain = basis if which == "shared" else MIXED_BASIS
        big = prod(chain.moduli[:level])
        # Q//2, then the mixed-radix weights q_0, q_0 q_1, …, Q.
        anchors = [big // 2] + [prod(chain.moduli[:k]) for k in range(1, level + 1)]
        values = [
            anchors[d[0] % len(anchors)] + d[1] if isinstance(d, tuple) else d
            for d in draws
        ]
        self.check(chain, level, values, np.random.default_rng(level))


class TestDomains:
    def test_eval_roundtrip(self, basis, rng):
        p = poly_from(rng, basis)
        back = p.to_eval().to_coeff()
        assert np.array_equal(back.data, p.data)

    def test_idempotent_conversions(self, basis, rng):
        p = poly_from(rng, basis)
        assert p.to_coeff().domain == COEFF
        assert p.to_eval().to_eval().domain == EVAL

    def test_mul_requires_eval(self, basis, rng):
        a, b = poly_from(rng, basis), poly_from(rng, basis)
        with pytest.raises(ValueError, match="NTT domain"):
            a * b

    def test_mixed_domain_add_rejected(self, basis, rng):
        a, b = poly_from(rng, basis), poly_from(rng, basis)
        with pytest.raises(ValueError, match="domain mismatch"):
            a + b.to_eval()

    def test_lift_requires_coeff(self, basis, rng):
        with pytest.raises(ValueError, match="coefficient domain"):
            poly_from(rng, basis).to_eval().to_bigints()
        with pytest.raises(ValueError, match="coefficient domain"):
            poly_from(rng, basis).to_eval().to_float_coeffs()


class TestArithmetic:
    def test_add_is_exact(self, basis, rng):
        a, b = poly_from(rng, basis), poly_from(rng, basis)
        got = (a + b).to_bigints()
        expect = [x + y for x, y in zip(a.to_bigints(), b.to_bigints())]
        assert got == expect

    def test_sub_neg_consistency(self, basis, rng):
        a, b = poly_from(rng, basis), poly_from(rng, basis)
        assert np.array_equal((a - b).data, (a + (-b)).data)

    def test_mul_matches_naive_per_limb(self, basis, rng):
        a, b = poly_from(rng, basis, bound=50), poly_from(rng, basis, bound=50)
        prod = (a.to_eval() * b.to_eval()).to_coeff()
        for i in range(LEVEL):
            ref = oracle.negacyclic_mul(a.data[i], b.data[i], basis.moduli[i])
            assert np.array_equal(prod.data[i], ref.astype(np.uint64))

    def test_level_mismatch_takes_min(self, basis, rng):
        a, b = poly_from(rng, basis, level=4), poly_from(rng, basis, level=2)
        assert (a + b).level == 2

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(min_value=-100, max_value=100), min_size=N, max_size=N))
    def test_add_commutes_hypothesis(self, coeffs):
        basis = RnsBasis.create(N, 3)
        a = RnsPolynomial.from_signed_coeffs(basis, 2, np.array(coeffs))
        b = RnsPolynomial.from_signed_coeffs(basis, 2, np.array(coeffs[::-1]))
        assert np.array_equal((a + b).data, (b + a).data)


class TestAutomorphism:
    """The evaluation-domain slot gather, read back through the
    coefficients where a monomial's image is known by hand."""

    @staticmethod
    def monomial(basis, degree: int) -> RnsPolynomial:
        mono = np.zeros(N, dtype=np.int64)
        mono[degree] = 1
        return RnsPolynomial.from_signed_coeffs(basis, 2, mono).to_eval()

    def test_monomial_mapping(self, basis):
        out = self.monomial(basis, 2).automorphism(5).to_coeff().to_bigints()
        assert out[10] == 1 and sum(abs(c) for c in out) == 1

    def test_negacyclic_wrap_sign(self, basis):
        """X^k with k*g >= N wraps with a sign flip."""
        out = self.monomial(basis, N - 1).automorphism(3).to_coeff().to_bigints()
        # (N-1)*3 = 3N - 3 -> X^(3N-3) = X^(N-3) * (X^N)^2 = +X^(N-3)
        assert out[N - 3] == 1

    def test_identity_automorphism(self, basis, rng):
        p = poly_from(rng, basis).to_eval()
        assert np.array_equal(p.automorphism(1).data, p.data)

    def test_composition(self, basis, rng):
        p = poly_from(rng, basis).to_eval()
        lhs = p.automorphism(3).automorphism(5)
        rhs = p.automorphism(15)
        assert np.array_equal(lhs.data, rhs.data)

    def test_even_index_rejected(self, basis, rng):
        with pytest.raises(ValueError, match="odd"):
            poly_from(rng, basis).to_eval().automorphism(2)

    def test_coeff_domain_rejected(self, basis, rng):
        with pytest.raises(ValueError, match="evaluation domain"):
            poly_from(rng, basis).automorphism(3)

    def test_eval_domain_matches_coeff_domain(self, basis, rng):
        """The slot permutation is the oracle's X -> X^k on coefficients."""
        p = poly_from(rng, basis).to_eval()
        moduli = basis.moduli[:LEVEL]
        psis = [NttContext.cached(N, q).psi for q in moduli]
        coeffs = oracle.from_eval(p.data, moduli, psis)
        for k in (3, 5, 2 * basis.degree - 1):
            moved = oracle.automorphism(coeffs, k, prod(moduli))
            want = oracle.to_eval(moved, moduli, psis)
            assert p.automorphism(k).data.tobytes() == want.tobytes()

    def test_is_ring_homomorphism(self, basis, rng):
        """automorphism(a * b) == automorphism(a) * automorphism(b)."""
        a = poly_from(rng, basis, bound=30).to_eval()
        b = poly_from(rng, basis, bound=30).to_eval()
        lhs = (a * b).automorphism(5)
        rhs = a.automorphism(5) * b.automorphism(5)
        assert np.array_equal(lhs.data, rhs.data)


class TestRescale:
    def test_exact_multiple(self, basis, rng):
        q_last = basis.moduli[LEVEL - 1]
        coeffs = rng.integers(-1000, 1000, N)
        scaled = RnsPolynomial.from_bigint_coeffs(
            basis, LEVEL, [int(c) * q_last for c in coeffs]
        )
        assert scaled.rescale().to_bigints() == coeffs.tolist()

    def test_rounding_error_at_most_one(self, basis, rng):
        q_last = basis.moduli[LEVEL - 1]
        coeffs = [int(c) for c in rng.integers(0, q_last, N)]
        p = RnsPolynomial.from_bigint_coeffs(
            basis, LEVEL, [c * q_last + int(r) for c, r in zip(coeffs, rng.integers(0, q_last, N))]
        )
        got = p.rescale().to_bigints(center=False)
        for g, c in zip(got, coeffs):
            assert abs(g - c) <= 1 or abs(g - c - 1) <= 1

    def test_level_drops(self, basis, rng):
        assert poly_from(rng, basis, level=3).rescale().level == 2

    def test_cannot_rescale_level_one(self, basis, rng):
        with pytest.raises(ValueError, match="below one limb"):
            poly_from(rng, basis, level=1).rescale()

    def test_requires_coeff_domain(self, basis, rng):
        with pytest.raises(ValueError, match="coefficient domain"):
            poly_from(rng, basis).to_eval().rescale()


# Ten limbs, the bench level, at a degree small enough for many examples.
TEN_LIMBS = RnsBasis.create(64, 10)


def _eval_rows(basis: RnsBasis, lead: tuple, lvl: int, seed: int) -> np.ndarray:
    """Canonical ``(*lead, lvl, N)`` residues, the edge values ``0`` and
    ``q - 1`` in the first two columns of every row."""
    q_col = np.array(basis.moduli[:lvl], dtype=np.uint64).reshape(-1, 1)
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 1 << 62, (*lead, lvl, basis.degree), dtype=np.uint64) % q_col
    data[..., 0] = 0
    data[..., 1] = q_col[:, 0] - np.uint64(1)
    return data


class TestRescaleEvalRows:
    """The evaluation-domain rescale and the tail transform it runs on,
    pinned against the exact oracle byte for byte."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 10),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    )
    def test_equals_the_oracle_rescale(self, lvl, times, parts, seed):
        """Each part's ``(x - [x]_P) · P^-1`` lands in its output rows —
        views of a wider buffer, as arena slots are — and nowhere else."""
        times = min(times, lvl - 1)
        keep = lvl - times
        data = _eval_rows(TEN_LIMBS, (parts,), lvl, seed)
        before = data.copy()
        pool = np.zeros((parts, 10, 64), dtype=np.uint64)
        outs = [slot[:keep] for slot in pool]
        kern = TEN_LIMBS.kernel(keep)
        assert rescale_eval_rows(kern, TEN_LIMBS, list(data), times, outs) is None
        moduli = TEN_LIMBS.moduli[:lvl]
        psis = [NttContext.cached(64, q).psi for q in moduli]
        for part, out in zip(data, outs):
            exact = oracle.rescale(oracle.from_eval(part, moduli, psis), moduli, times)
            want = oracle.to_eval(exact, moduli[:keep], psis[:keep])
            assert out.tobytes() == want.tobytes()
        assert not pool[:, keep:].any()
        assert np.array_equal(data, before)  # the input is read, not consumed

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 10),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    )
    def test_equals_the_coefficient_round_trip(self, lvl, times, parts, seed):
        """The bytes of the coefficient-domain rescale between the two
        whole-level transforms, which the row function skips."""
        times = min(times, lvl - 1)
        keep = lvl - times
        data = _eval_rows(TEN_LIMBS, (parts,), lvl, seed)
        coeff = TEN_LIMBS.batch_ntt(lvl).inverse(data)
        reference = rescale_rows(TEN_LIMBS, coeff, times)
        want = TEN_LIMBS.batch_ntt(keep).forward(reference)
        outs = list(np.empty((parts, keep, 64), dtype=np.uint64))
        rescale_eval_rows(TEN_LIMBS.kernel(keep), TEN_LIMBS, list(data), times, outs)
        assert np.array_equal(np.stack(outs), want)

    def test_rejects_dropping_every_limb(self):
        data = _eval_rows(TEN_LIMBS, (2,), 3, 0)
        outs = list(np.empty((2, 0, 64), dtype=np.uint64))
        with pytest.raises(ValueError, match="below one limb"):
            rescale_eval_rows(TEN_LIMBS.kernel(1), TEN_LIMBS, list(data), 3, outs)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 9),
        st.integers(1, 10),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    )
    def test_inverse_block_equals_the_per_limb_inverse(self, start, count, batch, seed):
        stop = min(10, start + count)
        data = _eval_rows(TEN_LIMBS, (batch,), 10, seed)
        block = data[:, start:stop].copy()
        TEN_LIMBS.batch_ntt(10).inverse_block(block, slice(start, stop))
        for b in range(batch):
            for r, q in enumerate(TEN_LIMBS.moduli[start:stop]):
                psi = NttContext.cached(64, q).psi
                want = oracle.intt(data[b, start + r], q, psi)
                assert np.array_equal(block[b, r], want)

    def test_inverse_block_rejects_what_forward_block_rejects(self):
        bat = TEN_LIMBS.batch_ntt(10)
        rows = slice(7, 10)
        good = np.zeros((2, 3, 64), dtype=np.uint64)
        bad = {
            "too few rows": good[:, :2].copy(),
            "no batch axis": good[0].copy(),
            "wrong degree": np.zeros((2, 3, 32), dtype=np.uint64),
            "signed": good.astype(np.int64),
            "strided": np.zeros((2, 3, 128), dtype=np.uint64)[..., ::2],
            "transposed": np.zeros((2, 64, 3), dtype=np.uint64).transpose(0, 2, 1),
        }
        for name, block in bad.items():
            messages = []
            for method in (bat.forward_block, bat.inverse_block):
                with pytest.raises(ValueError) as err:
                    method(block, rows)
                messages.append(str(err.value))
            assert messages[0] == messages[1], name
        bat.inverse_block(good, rows)  # the shape both accept
        assert not good.any()


class TestDropLimbs:
    def test_prefix_preserved(self, basis, rng):
        p = poly_from(rng, basis, level=4)
        d = p.drop_limbs(2)
        assert d.level == 2
        assert np.array_equal(d.data, p.data[:2])

    def test_bounds(self, basis, rng):
        p = poly_from(rng, basis, level=3)
        with pytest.raises(ValueError):
            p.drop_limbs(0)
        with pytest.raises(ValueError):
            p.drop_limbs(4)

"""CKKS special FFT: dense-matrix oracle, round trips, symmetries."""

from __future__ import annotations

import numpy as np
import pytest

from repro.transforms.fft import SpecialFft, embedding_matrix
from repro.transforms.fp_custom import FP32_LIKE, FP55, FP64


@pytest.fixture(scope="module", params=[4, 16, 128], ids=lambda s: f"slots{s}")
def fft(request) -> SpecialFft:
    return SpecialFft.create(request.param)


def random_slots(rng, slots):
    return rng.normal(size=slots) + 1j * rng.normal(size=slots)


class TestAgainstMatrix:
    def test_forward_equals_dense_embedding(self, fft, rng):
        v = random_slots(rng, fft.slots)
        got = fft.forward(v.copy())
        ref = embedding_matrix(fft.slots) @ v
        np.testing.assert_allclose(got, ref, atol=1e-9)

    def test_inverse_is_matrix_inverse(self, fft, rng):
        v = random_slots(rng, fft.slots)
        folded = fft.inverse(v.copy())
        ref = np.linalg.solve(embedding_matrix(fft.slots), v)
        np.testing.assert_allclose(folded, ref, atol=1e-9)


class TestRoundtrip:
    def test_forward_inverse(self, fft, rng):
        v = random_slots(rng, fft.slots)
        np.testing.assert_allclose(fft.inverse(fft.forward(v.copy())), v, atol=1e-10)

    def test_inverse_forward(self, fft, rng):
        v = random_slots(rng, fft.slots)
        np.testing.assert_allclose(fft.forward(fft.inverse(v.copy())), v, atol=1e-10)

    def test_zero_maps_to_zero(self, fft):
        z = np.zeros(fft.slots, dtype=np.complex128)
        assert np.all(fft.forward(z.copy()) == 0)
        assert np.all(fft.inverse(z.copy()) == 0)


class TestAlgebra:
    def test_linearity(self, fft, rng):
        a, b = random_slots(rng, fft.slots), random_slots(rng, fft.slots)
        np.testing.assert_allclose(
            fft.forward((a + b).copy()),
            fft.forward(a.copy()) + fft.forward(b.copy()),
            atol=1e-9,
        )

    def test_real_message_gives_real_folded_coeffs(self, fft, rng):
        """A conjugate-symmetric-compatible (real) polynomial decodes from
        real folded coefficients: inverse of a real-decodable message has
        the Im-part carrying the second coefficient half, and encoding a
        real message then decoding returns it (sanity of the fold)."""
        msg = rng.normal(size=fft.slots) + 0j
        folded = fft.inverse(msg.copy())
        back = fft.forward(folded.copy())
        np.testing.assert_allclose(back.imag, 0, atol=1e-10)

    def test_slot_delta_evaluates_everywhere(self, fft):
        """inverse of e_j spreads energy; forward restores the delta."""
        e0 = np.zeros(fft.slots, dtype=np.complex128)
        e0[0] = 1.0
        np.testing.assert_allclose(fft.forward(fft.inverse(e0.copy())), e0, atol=1e-10)


class TestBatchAxes:
    """Leading axes are a batch: each row's bytes are those of a call on
    the row alone, at every datapath format (quantized after every
    stage)."""

    @pytest.mark.parametrize(
        "fmt", [FP64, FP55, FP32_LIKE], ids=["fp64", "fp55", "fp32"]
    )
    @pytest.mark.parametrize("direction", ["inverse", "forward"])
    def test_stack_equals_one_call_per_row(self, fmt, direction):
        fft = SpecialFft.create(128, fmt)
        rng = np.random.default_rng(17)
        stack = rng.normal(size=(3, 5, 128)) + 1j * rng.normal(size=(3, 5, 128))
        run = getattr(fft, direction)
        got = run(stack.copy())
        want = np.stack([[run(row.copy()) for row in rows] for rows in stack])
        assert got.shape == stack.shape
        assert got.tobytes() == want.tobytes()


class TestValidation:
    def test_shape_check(self, fft):
        with pytest.raises(ValueError, match="expected shape"):
            fft.forward(np.zeros(fft.slots + 1, dtype=np.complex128))
        with pytest.raises(ValueError, match="expected shape"):
            fft.inverse(np.zeros((2, fft.slots + 1), dtype=np.complex128))

    def test_non_power_of_two_slots(self):
        with pytest.raises(ValueError, match="power of two"):
            SpecialFft.create(12)

    def test_rot_group_is_powers_of_five(self, fft):
        m = fft.m
        assert fft.rot_group[0] == 1
        for j in range(1, fft.slots):
            assert fft.rot_group[j] == fft.rot_group[j - 1] * 5 % m


class TestReducedPrecision:
    def test_fp55_close_to_fp64(self, rng):
        slots = 256
        full = SpecialFft.create(slots, FP64)
        reduced = SpecialFft.create(slots, FP55)
        v = random_slots(rng, slots)
        a = full.forward(v.copy())
        b = reduced.forward(v.copy())
        err = np.max(np.abs(a - b)) / np.max(np.abs(a))
        assert 0 < err < 2.0**-35  # rounding visible but tiny

    def test_lower_mantissa_means_more_error(self, rng):
        from repro.transforms.fp_custom import FloatFormat

        slots = 256
        v = random_slots(rng, slots)
        ref = SpecialFft.create(slots, FP64).forward(v.copy())
        errs = []
        for m in (20, 30, 40):
            out = SpecialFft.create(slots, FloatFormat(1, 11, m)).forward(v.copy())
            errs.append(np.max(np.abs(out - ref)))
        assert errs[0] > errs[1] > errs[2]

"""Encoder: precision, padding, scale handling, FP55 datapath."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ckks import CkksContext, toy_params
from repro.transforms.fp_custom import FP55


class TestRoundtrip:
    def test_complex_message(self, ctx, rng):
        msg = rng.normal(size=ctx.params.slots) + 1j * rng.normal(size=ctx.params.slots)
        out = ctx.decode(ctx.encode(msg))
        assert np.max(np.abs(out - msg)) < 1e-10

    def test_real_message(self, ctx, rng):
        msg = rng.normal(size=ctx.params.slots)
        out = ctx.decode(ctx.encode(msg))
        assert np.max(np.abs(out - msg)) < 1e-10
        assert np.max(np.abs(out.imag)) < 1e-10

    def test_large_magnitudes(self, ctx):
        msg = np.array([1e6, -1e6, 1e-6, 0.0])
        out = ctx.decode(ctx.encode(msg))[:4]
        assert np.max(np.abs(out - msg)) < 1e-4  # relative to 1e6: 1e-10

    def test_zero_message(self, ctx):
        out = ctx.decode(ctx.encode(np.zeros(4)))
        assert np.max(np.abs(out)) < 1e-12


class TestAgainstScalarReference:
    """The vectorized rounding and folding against the per-element loops
    they replaced: same integers in, same doubles out."""

    def test_encode_matches_python_rounding(self, ctx, rng):
        from repro.rns.poly import RnsPolynomial

        msg = rng.normal(size=ctx.params.slots) + 1j * rng.normal(size=ctx.params.slots)
        folded = ctx.encoder.fft.inverse(msg)
        for scale in (ctx.params.scale, ctx.params.scale**2 / ctx.basis.moduli[-1]):
            ints = [
                int(round(float(c) * scale))
                for c in np.concatenate([folded.real, folded.imag])
            ]
            want = RnsPolynomial.from_bigint_coeffs(ctx.basis, 3, ints)
            got = ctx.encoder.encode(msg, level=3, scale=scale)
            assert np.array_equal(got.poly.data, want.data)

    def test_decode_matches_python_folding(self, ctx, rng):
        msg = rng.normal(size=ctx.params.slots) + 1j * rng.normal(size=ctx.params.slots)
        pt = ctx.encode(msg)
        slots = ctx.params.slots
        big = pt.poly.to_bigints(center=True)
        folded = np.array(
            [big[k] + 1j * big[k + slots] for k in range(slots)], dtype=np.complex128
        )
        folded /= pt.scale
        want = ctx.encoder.fft.forward(folded)
        assert ctx.decode(pt).tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_message_rejected(self, ctx):
        with pytest.raises(ValueError, match="non-finite"):
            ctx.encode([np.inf])


class TestPaddingAndShapes:
    def test_short_input_zero_padded(self, ctx):
        out = ctx.decode(ctx.encode([1.0, 2.0]))
        assert abs(out[0] - 1) < 1e-10 and abs(out[1] - 2) < 1e-10
        assert np.max(np.abs(out[2:])) < 1e-10

    def test_too_many_slots_rejected(self, ctx):
        with pytest.raises(ValueError, match="at most"):
            ctx.encode(np.ones(ctx.params.slots + 1))

    def test_output_length(self, ctx):
        assert len(ctx.decode(ctx.encode([1.0]))) == ctx.params.slots


class TestScaleAndLevel:
    def test_default_scale(self, ctx):
        pt = ctx.encode([1.0])
        assert pt.scale == ctx.params.scale

    def test_custom_scale(self, ctx):
        pt = ctx.encoder.encode(np.array([3.0]), scale=2.0**40)
        assert pt.scale == 2.0**40
        assert abs(ctx.decode(pt)[0] - 3.0) < 1e-6

    def test_encode_at_level(self, ctx):
        pt = ctx.encode([1.0], level=2)
        assert pt.level == 2
        assert abs(ctx.decode(pt)[0] - 1.0) < 1e-10

    def test_scaled_integer_structure(self, ctx):
        """Encoding the constant 1 puts ~scale at coefficient 0."""
        pt = ctx.encode(np.ones(ctx.params.slots))
        coeff0 = pt.poly.to_bigints()[0]
        assert abs(coeff0 - ctx.params.scale) / ctx.params.scale < 1e-6


class TestFp55Encoder:
    def test_roundtrip_precision_lower_but_sufficient(self, rng):
        params = toy_params(degree=256, num_primes=4, fp_format=FP55)
        c = CkksContext.create(params, seed=3)
        msg = rng.normal(size=c.params.slots)
        err = np.max(np.abs(c.decode(c.encode(msg)) - msg))
        assert err < 2.0**-20  # well above the 19.29-bit threshold
        assert err > 0

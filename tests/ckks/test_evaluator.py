"""Homomorphic evaluator: arithmetic laws under encryption."""

from __future__ import annotations

from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest

from repro.ckks import CkksContext, toy_params
from repro.ckks.containers import Plaintext
from repro.ckks.evaluator import plain_rows
from repro.runtime import CtSpec, compile_fn
from repro.transforms.ntt import BatchNtt


@pytest.fixture(scope="module")
def msgs(ctx):
    rng = np.random.default_rng(99)
    slots = ctx.params.slots
    a = rng.uniform(-1, 1, slots) + 1j * rng.uniform(-1, 1, slots)
    b = rng.uniform(-1, 1, slots) + 1j * rng.uniform(-1, 1, slots)
    return a, b


@pytest.fixture(scope="module")
def rlk(ctx):
    return ctx.relin_keys(levels=[ctx.params.num_primes])


class TestLinear:
    def test_add(self, ctx, msgs):
        a, b = msgs
        out = ctx.decrypt_decode(ctx.evaluator.add(ctx.encrypt(a), ctx.encrypt(b)))
        assert np.max(np.abs(out - (a + b))) < 1e-6

    def test_sub(self, ctx, msgs):
        a, b = msgs
        out = ctx.decrypt_decode(ctx.evaluator.sub(ctx.encrypt(a), ctx.encrypt(b)))
        assert np.max(np.abs(out - (a - b))) < 1e-6

    def test_negate(self, ctx, msgs):
        a, _ = msgs
        out = ctx.decrypt_decode(ctx.evaluator.negate(ctx.encrypt(a)))
        assert np.max(np.abs(out + a)) < 1e-6

    def test_add_plain(self, ctx, msgs):
        a, b = msgs
        out = ctx.decrypt_decode(ctx.evaluator.add_plain(ctx.encrypt(a), ctx.encode(b)))
        assert np.max(np.abs(out - (a + b))) < 1e-6

    def test_multiply_plain(self, ctx, msgs):
        a, b = msgs
        ct = ctx.evaluator.multiply_plain(ctx.encrypt(a), ctx.encode(b))
        out = ctx.decrypt_decode(ct)
        assert np.max(np.abs(out - a * b)) < 1e-5

    def test_scale_mismatch_rejected(self, ctx, msgs):
        a, b = msgs
        ct = ctx.encrypt(a)
        pt_wrong = ctx.encoder.encode(np.asarray(b), scale=2.0**30)
        with pytest.raises(ValueError, match="scale mismatch"):
            ctx.evaluator.add_plain(ct, pt_wrong)

    def test_add_at_different_levels(self, ctx, msgs):
        a, b = msgs
        lo = ctx.encrypt(a, level=3)
        hi = ctx.encrypt(b)
        out = ctx.evaluator.add(lo, hi)
        assert out.level == 3
        assert np.max(np.abs(ctx.decrypt_decode(out) - (a + b))) < 1e-6

    @pytest.mark.parametrize("op", ["add_plain", "multiply_plain"])
    def test_plaintext_below_the_ciphertext_is_named(self, ctx, msgs, op):
        a, b = msgs
        ct = ctx.encrypt(a, level=4)
        pt = ctx.encoder.encode(np.asarray(b), level=2)
        want = f"{op}: plaintext at level 2 cannot reach ciphertext level 4"
        with pytest.raises(ValueError, match=want):
            getattr(ctx.evaluator, op)(ct, pt)


    def test_plain_rows_view_an_evaluation_plaintext(self, ctx, msgs):
        """An EVAL plaintext's rows are bound without a copy (a fused
        BSGS plan binds hundreds of diagonals); a COEFF one is
        transformed into a fresh array.  Both give the same residues."""
        coeff_pt = ctx.encode(msgs[1])
        eval_pt = Plaintext(poly=coeff_pt.poly.to_eval(), scale=coeff_pt.scale)
        level = ctx.params.num_primes - 2
        view = plain_rows(eval_pt, level)
        fresh = plain_rows(coeff_pt, level)
        assert np.shares_memory(view, eval_pt.poly.data)
        assert not np.shares_memory(fresh, coeff_pt.poly.data)
        assert np.array_equal(view, fresh)
        assert view.shape == (level, ctx.params.degree)


class TestMultiply:
    def test_tensor_then_relin_then_rescale(self, ctx, msgs, rlk):
        a, b = msgs
        out_ct = ctx.evaluator.multiply_relin_rescale(ctx.encrypt(a), ctx.encrypt(b), rlk)
        assert out_ct.size == 2
        assert out_ct.level == ctx.params.num_primes - 2  # double-scale: 2 levels
        out = ctx.decrypt_decode(out_ct)
        assert np.max(np.abs(out - a * b)) < 1e-4

    def test_multiply_requires_two_parts(self, ctx, msgs, rlk):
        a, b = msgs
        three = ctx.evaluator.multiply(ctx.encrypt(a), ctx.encrypt(b))
        with pytest.raises(ValueError, match="2-part"):
            ctx.evaluator.multiply(three, ctx.encrypt(a))

    def test_relinearize_without_key(self, ctx, msgs):
        a, b = msgs
        three = ctx.evaluator.multiply(ctx.encrypt(a), ctx.encrypt(b))
        with pytest.raises(KeyError, match="no relinearization key"):
            ctx.evaluator.relinearize(three, {})

    def test_relinearize_two_part_noop(self, ctx, msgs, rlk):
        a, _ = msgs
        ct = ctx.encrypt(a)
        again = ctx.evaluator.relinearize(ct, rlk)
        assert np.array_equal(again.c0.data, ct.c0.data)

    def test_scale_squares(self, ctx, msgs):
        a, b = msgs
        prod = ctx.evaluator.multiply(ctx.encrypt(a), ctx.encrypt(b))
        assert prod.scale == pytest.approx(ctx.params.scale**2)

    def test_rescale_divides_scale(self, ctx, msgs):
        a, _ = msgs
        ct = ctx.encrypt(a)
        resc = ctx.evaluator.rescale(ct, times=1)
        q_last = ctx.basis.moduli[ct.level - 1]
        assert resc.scale == pytest.approx(ct.scale / q_last)
        assert resc.level == ct.level - 1

    @pytest.mark.parametrize("times", [1, 2])
    def test_rescale_alone_decrypts_to_the_message(self, ctx, msgs, times):
        """Encoded at 2^(36 (times + 1)) and divided by ``times`` primes,
        the message comes back at a scale near 2^36."""
        a, _ = msgs
        pt = ctx.encoder.encode(np.asarray(a), scale=2.0 ** (36 * (times + 1)))
        ct = ctx.encryptor.encrypt(pt)
        out = ctx.evaluator.rescale(ct, times=times)
        assert out.level == ct.level - times
        assert np.max(np.abs(ctx.decrypt_decode(out) - a)) < 1e-6

    def test_squaring(self, ctx, msgs, rlk):
        a, _ = msgs
        ct = ctx.encrypt(a)
        sq = ctx.evaluator.multiply_relin_rescale(ct, ct, rlk)
        assert np.max(np.abs(ctx.decrypt_decode(sq) - a * a)) < 1e-4


def _rows_transformed(call) -> dict[str, int]:
    """NTT rows (batch x limbs) ``call`` pushes through ``BatchNtt``'s
    block kernels, which every transform entry point ends in."""
    counts = {"inverse": 0, "forward": 0}

    def counting(name, real):
        def wrapper(self, block, *args, **kwargs):
            counts[name] += block.shape[0] * block.shape[1]
            return real(self, block, *args, **kwargs)

        return wrapper

    with ExitStack() as stack:
        for name in counts:
            attr = f"_{name}_block"
            wrapped = counting(name, getattr(BatchNtt, attr))
            stack.enter_context(mock.patch.object(BatchNtt, attr, wrapped))
        call()
    return counts


class TestRescaleRows:
    def test_level_ten_by_two_transforms_four_inverse_and_sixteen_forward_rows(self):
        """Eager and fused alike, a 2-part level-10 rescale by two
        inverse-transforms only its dropped rows (2 x 2) and forward-
        transforms its kept ones (2 x 8); a coefficient round trip of the
        whole level costs 2 x 10 inverse rows."""
        ctx10 = CkksContext.create(toy_params(degree=128, num_primes=10), seed=5)
        ct = ctx10.encrypt(np.linspace(-1, 1, ctx10.params.slots))
        assert (ct.size, ct.level) == (2, 10)
        spec = CtSpec(level=10, scale=ct.scale)
        plan = compile_fn(lambda ev, x: ev.rescale(x, times=2), ctx10.evaluator, [spec])
        plan.fused()  # lowered outside the count
        out = {}
        eager = _rows_transformed(
            lambda: out.update(eager=ctx10.evaluator.rescale(ct, times=2))
        )
        fused = _rows_transformed(lambda: out.update(fused=plan.run_batch([[ct]])[0][0]))
        assert eager == fused == {"inverse": 4, "forward": 16}
        reference = [p.to_coeff().rescale(2).to_eval().data for p in ct.parts]
        for got in out.values():
            assert [p.data.tobytes() for p in got.parts] == [
                r.tobytes() for r in reference
            ]


class TestDepth:
    def test_two_sequential_multiplies(self, ctx, msgs):
        """Exercises the double-scale chain: 2 multiplies = 4 levels."""
        a, b = msgs
        L = ctx.params.num_primes
        keys = ctx.relin_keys(levels=[L, L - 2])
        ev = ctx.evaluator
        ab = ev.multiply_relin_rescale(ctx.encrypt(a), ctx.encrypt(b), keys)
        # Re-encrypt b at the new level/scale to continue the chain.
        b2 = ctx.encryptor.encrypt(
            ctx.encoder.encode(np.asarray(b), level=ab.level, scale=ab.scale)
        )
        abb = ev.multiply_relin_rescale(ab, b2, keys)
        out = ctx.decrypt_decode(abb)
        assert np.max(np.abs(out - a * b * b)) < 1e-3


class TestKeyReach:
    """A switching key reaches every level at or below its own."""

    def test_relinearize_through_a_key_above_the_operand(self, ctx, msgs, rlk):
        a, b = msgs
        low = ctx.params.num_primes - 2
        ev = ctx.evaluator
        three = ev.multiply(ctx.encrypt(a, level=low), ctx.encrypt(b, level=low))
        out = ev.rescale(ev.relinearize(three, {low: rlk[ctx.params.num_primes]}), 2)
        assert np.max(np.abs(ctx.decrypt_decode(out) - a * b)) < 1e-4

    def test_apply_galois_through_a_key_above_the_operand(self, ctx, msgs):
        a, _ = msgs
        top = ctx.params.num_primes
        conj = ctx.keygen.gen_conjugation(ctx.secret_key, levels=[top])
        elt = 2 * ctx.basis.degree - 1
        out = ctx.evaluator.apply_galois(ctx.encrypt(a, level=top - 1), elt, conj[top])
        assert out.level == top - 1
        assert np.max(np.abs(ctx.decrypt_decode(out) - np.conj(a))) < 1e-4

    @pytest.mark.parametrize("op", ["relinearize", "apply_galois"])
    def test_key_below_the_operand_is_refused(self, ctx, msgs, op):
        a, _ = msgs
        top = ctx.params.num_primes
        key = ctx.relin_keys(levels=[top - 1])[top - 1]
        ct = ctx.encrypt(a)
        want = f"{op}: switching key at level {top - 1} cannot reach operand level {top}"
        with pytest.raises(ValueError, match=want):
            if op == "relinearize":
                ctx.evaluator.relinearize(ctx.evaluator.multiply(ct, ct), {top: key})
            else:
                ctx.evaluator.apply_galois(ct, 2 * ctx.basis.degree - 1, key)


class TestRotation:
    def test_rotate_by_one(self, ctx):
        slots = ctx.params.slots
        msg = np.arange(slots, dtype=float)
        gk = ctx.galois_keys([1], levels=[ctx.params.num_primes])
        rot = ctx.evaluator.rotate(ctx.encrypt(msg), 1, gk)
        out = ctx.decrypt_decode(rot)
        assert np.max(np.abs(out - np.roll(msg, -1))) < 1e-4

    def test_rotate_by_k(self, ctx):
        slots = ctx.params.slots
        msg = np.arange(slots, dtype=float)
        gk = ctx.galois_keys([5], levels=[ctx.params.num_primes])
        out = ctx.decrypt_decode(ctx.evaluator.rotate(ctx.encrypt(msg), 5, gk))
        assert np.max(np.abs(out - np.roll(msg, -5))) < 1e-4

    def test_hoisted_pair_decrypts(self, ctx):
        """One decomposition feeding rotations by 1 and 2: the fused
        replay's one-source rotation family."""
        slots = ctx.params.slots
        msg = np.arange(slots, dtype=float)
        gk = ctx.galois_keys([1, 2], levels=[ctx.params.num_primes])
        ct = ctx.encrypt(msg)
        plan = compile_fn(
            lambda ev, x: [ev.rotate(x, steps, gk) for steps in (1, 2)],
            ctx.evaluator,
            [CtSpec(level=ct.level, scale=ct.scale)],
        )
        assert [grp.kind for grp in plan.fused().groups] == ["automorphisms"]
        for steps, rot in zip((1, 2), plan.run_batch([[ct]])[0]):
            out = ctx.decrypt_decode(rot)
            assert np.max(np.abs(out - np.roll(msg, -steps))) < 1e-4

    def test_apply_galois_with_the_conjugation_element(self, ctx, msgs):
        a, _ = msgs
        top = ctx.params.num_primes
        conj = ctx.keygen.gen_conjugation(ctx.secret_key, levels=[top])
        elt = 2 * ctx.basis.degree - 1
        out = ctx.evaluator.apply_galois(ctx.encrypt(a), elt, conj[top])
        assert np.max(np.abs(ctx.decrypt_decode(out) - np.conj(a))) < 1e-4

    def test_missing_galois_key(self, ctx):
        with pytest.raises(KeyError, match="no Galois key"):
            ctx.evaluator.rotate(ctx.encrypt(np.ones(2)), 3, {})

"""CKKS bootstrapping — the operation the paper's parameters enable."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.ckks import Bootstrapper, BootstrapConfig, CkksContext, toy_params


@pytest.fixture(scope="module")
def boot_setting():
    """Small but real bootstrapping setting (sparse secret keeps the
    ModRaise overflow bound — and hence the sine degree — small)."""
    params = replace(
        toy_params(degree=64, num_primes=22), secret_hamming_weight=8
    )
    ctx = CkksContext.create(params, seed=77)
    bs = Bootstrapper(
        ctx, BootstrapConfig(input_scale_bits=25, eval_mod_degree=63, wraps=7)
    )
    return ctx, bs


class TestSchedule:
    def test_level_budget(self, boot_setting):
        _, bs = boot_setting
        assert bs.output_level >= 1
        assert bs.s2c_level > bs.output_level
        assert bs.evalmod_in_level > bs.s2c_level
        assert bs.c2s_level == bs.top_level

    def test_insufficient_levels_rejected(self):
        params = replace(toy_params(degree=64, num_primes=8), secret_hamming_weight=8)
        ctx = CkksContext.create(params, seed=1)
        with pytest.raises(ValueError, match="level budget"):
            Bootstrapper(ctx, BootstrapConfig(eval_mod_degree=63))


class TestStages:
    def test_mod_raise_payload(self, boot_setting):
        """Raised ciphertext decrypts to Δ_in·m + q0·I with small I."""
        ctx, bs = boot_setting
        rng = np.random.default_rng(3)
        z = rng.uniform(-1, 1, ctx.params.slots)
        ct = ctx.encryptor.encrypt(
            ctx.encoder.encode(z, level=1, scale=bs.config.input_scale)
        )
        raised = bs.mod_raise(ct)
        assert raised.level == bs.top_level
        big = ctx.decryptor.decrypt(raised).poly.to_bigints()
        q0 = ctx.basis.moduli[0]
        boost = raised.scale / bs.config.input_scale
        wraps = max(abs(c / boost) for c in big) / q0
        assert wraps < bs.config.wraps  # inside the sine interval

    def test_mod_raise_level_check(self, boot_setting):
        ctx, bs = boot_setting
        with pytest.raises(ValueError, match="level-1"):
            bs.mod_raise(ctx.encrypt(np.ones(2)))

    def test_coeff_to_slot_values(self, boot_setting):
        ctx, bs = boot_setting
        rng = np.random.default_rng(4)
        n = ctx.params.slots
        z = rng.uniform(-1, 1, n)
        ct = ctx.encryptor.encrypt(
            ctx.encoder.encode(z, level=1, scale=bs.config.input_scale)
        )
        raised = bs.mod_raise(ct)
        big = ctx.decryptor.decrypt(raised).poly.to_bigints()
        t_real, t_imag = bs.coeff_to_slot(raised)
        want_re = np.array([big[k] for k in range(n)], float) / raised.scale
        want_im = np.array([big[k + n] for k in range(n)], float) / raised.scale
        assert np.max(np.abs(ctx.decrypt_decode(t_real).real - want_re)) < 1e-4
        assert np.max(np.abs(ctx.decrypt_decode(t_imag).real - want_im)) < 1e-4

    def test_coeff_to_slot_replays_fused(self, boot_setting, monkeypatch):
        """CoeffToSlot dispatches through the fused executor, never the
        interpreter, and gives the eager segment's bytes."""
        from repro.runtime import ExecutionPlan, FusedExecutor

        ctx, bs = boot_setting
        ct = ctx.encryptor.encrypt(
            ctx.encoder.encode(np.ones(2), level=1, scale=bs.config.input_scale)
        )
        raised = bs.mod_raise(ct)
        calls = {"fused": 0, "interpreter": 0}
        fused_run, interp_run = FusedExecutor.run_batch, ExecutionPlan.run

        def fused(self, batches):
            calls["fused"] += 1
            return fused_run(self, batches)

        def interpreter(self, inputs):
            calls["interpreter"] += 1
            return interp_run(self, inputs)

        monkeypatch.setattr(FusedExecutor, "run_batch", fused)
        monkeypatch.setattr(ExecutionPlan, "run", interpreter)
        got = bs.coeff_to_slot(raised)
        assert calls == {"fused": 1, "interpreter": 0}
        want = bs._emit_coeff_to_slot(ctx.evaluator, raised)
        for g, w in zip(got, want):
            assert g.scale == w.scale
            for gp, wp in zip(g.parts, w.parts):
                assert np.array_equal(gp.data, wp.data)


class TestEndToEnd:
    def test_bootstrap_refreshes_level(self, boot_setting):
        ctx, bs = boot_setting
        rng = np.random.default_rng(5)
        z = rng.uniform(-1, 1, ctx.params.slots)
        ct = ctx.encryptor.encrypt(
            ctx.encoder.encode(z, level=1, scale=bs.config.input_scale)
        )
        out = bs.bootstrap(ct)
        assert out.level > ct.level  # the whole point
        err = np.max(np.abs(ctx.decrypt_decode(out).real - z))
        precision_bits = -np.log2(err)
        assert precision_bits > 7  # limited by the degree-63 sine here

    def test_refreshed_ciphertext_is_computable(self, boot_setting):
        """The refreshed ciphertext supports further homomorphic work."""
        ctx, bs = boot_setting
        z = np.linspace(-0.5, 0.5, ctx.params.slots)
        ct = ctx.encryptor.encrypt(
            ctx.encoder.encode(z, level=1, scale=bs.config.input_scale)
        )
        out = bs.bootstrap(ct)
        doubled = ctx.evaluator.add(out, out)
        err = np.max(np.abs(ctx.decrypt_decode(doubled).real - 2 * z))
        assert err < 2e-2

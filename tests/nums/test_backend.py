"""Array-namespace seam: registry behaviour and the host-staging path.

numpy is the only namespace the library builds; what we test is the
registry contract (numpy default, clear error on unknown names,
registration) and — the important part — that a *non-default* namespace
drives the fused replayer through its host-staging branches
bit-identically.  A numpy-backed stub namespace under a different name
exercises exactly that code path with no GPU.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.ckks import CkksContext, toy_params
from repro.nums.backend import get_array_namespace, register_array_namespace
from repro.runtime import CtSpec, compile_fn


class TestRegistry:
    def test_numpy_is_the_default(self):
        ns = get_array_namespace("numpy")
        assert ns.is_host
        assert get_array_namespace(None) is ns

    def test_namespace_passthrough(self):
        ns = get_array_namespace("numpy")
        assert get_array_namespace(ns) is ns

    def test_unknown_backend_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown array backend"):
            get_array_namespace("no-such-library")

    def test_register_installs_under_own_name(self):
        stub = dataclasses.replace(get_array_namespace("numpy"), name="stub-reg")
        register_array_namespace(stub)
        assert get_array_namespace("stub-reg") is stub
        assert not stub.is_host


@pytest.fixture(scope="module")
def bctx() -> CkksContext:
    return CkksContext.create(toy_params(degree=128, num_primes=6), seed=19)


class TestHostStagingReplay:
    """A renamed numpy namespace is 'device-like' to the fused replayer:
    ``is_host`` is False, so every NTT-bound step stages through
    ``to_numpy``/``from_numpy`` and key-switch results are stored back
    instead of reduced in place — the exact branches a GPU namespace
    takes, minus the GPU."""

    def test_fused_replay_bit_identical_through_stub_namespace(self, bctx):
        register_array_namespace(
            dataclasses.replace(get_array_namespace("numpy"), name="stub-host")
        )
        gks = bctx.galois_keys([1], levels=[bctx.params.num_primes])
        rlk = bctx.relin_keys(levels=[bctx.params.num_primes])

        def program(ev, x):
            rot = ev.rotate(x, 1, gks)
            return ev.multiply_relin_rescale(rot, x, rlk)

        spec = CtSpec(level=bctx.params.num_primes, scale=bctx.params.scale)
        plan = compile_fn(program, bctx.evaluator, [spec])
        rng = np.random.default_rng(23)
        ct = bctx.encrypt(rng.uniform(-1, 1, bctx.params.slots))

        [host] = plan.run_batch([[ct]], fused=True)[0]
        [staged] = plan.run_batch([[ct]], fused=True, array_backend="stub-host")[0]
        assert plan.fused("stub-host") is not plan.fused("numpy")
        assert host.scale == staged.scale
        for a, b in zip(host.parts, staged.parts):
            assert np.array_equal(a.data, b.data)

"""Runtime-suite fixtures: one toy context plus pre-generated keys."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.ckks import CkksContext, toy_params

DEGREE = 128
PRIMES = 6

# The policy model (test_policy.py) picks one of these by name — tier-1 by
# default, `--hypothesis-profile=soak` in the nightly job.  Registered, not
# loaded: every other hypothesis test keeps the settings it declares.
settings.register_profile(
    "tier1", derandomize=True, deadline=None, max_examples=200, stateful_step_count=50
)
settings.register_profile(
    "soak", deadline=None, max_examples=2500, stateful_step_count=80
)


@pytest.fixture(scope="module")
def rctx() -> CkksContext:
    return CkksContext.create(toy_params(degree=DEGREE, num_primes=PRIMES), seed=41)


@pytest.fixture(scope="module")
def rlk(rctx):
    return rctx.relin_keys(levels=[PRIMES, PRIMES - 2])


@pytest.fixture(scope="module")
def gks(rctx):
    return rctx.galois_keys([1, 2, 3], levels=[PRIMES])

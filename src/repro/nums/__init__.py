"""Number-theory substrate: primes and modular reduction.

This package is the exact-integer foundation of the CKKS library and the
reference model for the accelerator's modular-arithmetic hardware:

* :mod:`repro.nums.primality` — deterministic Miller–Rabin;
* :mod:`repro.nums.primegen` — NTT-friendly prime search (paper Eq. 8);
* :mod:`repro.nums.modular` — exact scalar helpers on Python ints;
* :mod:`repro.nums.kernels` — the vectorized numpy reducer (Barrett)
  and the :class:`~repro.nums.kernels.ReducerSpec` Table I accounting;
* :mod:`repro.nums.barrett` / :mod:`repro.nums.montgomery` — the three
  scalar reducer designs compared in Table I (exact-int references).
"""

from repro.nums.barrett import BarrettReducer
from repro.nums.kernels import (
    REDUCER_SPECS,
    ReducerKernel,
    ReducerSpec,
    default_backend_name,
    kernel_for_modulus,
)
from repro.nums.modular import (
    mod_inv,
    mod_pow,
    nth_root_of_unity,
)
from repro.nums.montgomery import MontgomeryReducer, NttFriendlyMontgomeryReducer
from repro.nums.primality import is_prime
from repro.nums.primegen import NttFriendlyPrime, count_primes, find_primes, prime_chain

__all__ = [
    "REDUCER_SPECS",
    "BarrettReducer",
    "MontgomeryReducer",
    "ReducerKernel",
    "ReducerSpec",
    "default_backend_name",
    "kernel_for_modulus",
    "NttFriendlyMontgomeryReducer",
    "NttFriendlyPrime",
    "count_primes",
    "find_primes",
    "is_prime",
    "mod_inv",
    "mod_pow",
    "nth_root_of_unity",
    "prime_chain",
]

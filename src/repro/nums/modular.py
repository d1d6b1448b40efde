"""Exact scalar modular arithmetic on Python ints.

``mod_pow``, ``mod_inv``, ``primitive_root`` … are used for parameter
generation and as test oracles; ``centered_vec`` is the one array helper
(canonical residues -> signed lifts).  Vectorized modular arithmetic
lives in :mod:`repro.nums.kernels`: callers bind a
:class:`~repro.nums.kernels.ReducerKernel` for their modulus.

The root-finding helpers are memoized: parameter generation calls
``nth_root_of_unity`` once per (degree, prime) pair but the underlying
trial-division factorization of ``q - 1`` is shared across all of them.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "mod_pow",
    "mod_inv",
    "multiplicative_order",
    "primitive_root",
    "nth_root_of_unity",
    "centered_vec",
]


def mod_pow(base: int, exponent: int, modulus: int) -> int:
    """``base ** exponent mod modulus`` on exact ints."""
    return pow(base, exponent, modulus)


def mod_inv(value: int, modulus: int) -> int:
    """Modular inverse; raises ValueError when gcd(value, modulus) != 1."""
    try:
        return pow(value, -1, modulus)
    except ValueError as exc:  # non-invertible
        raise ValueError(f"{value} is not invertible mod {modulus}") from exc


def multiplicative_order(value: int, modulus: int, factored_group_order: dict[int, int]) -> int:
    """Order of ``value`` in (Z/modulus)* given the factored group order.

    ``factored_group_order`` maps prime -> multiplicity for the group order
    (``modulus - 1`` when the modulus is prime).
    """
    order = 1
    for prime, mult in factored_group_order.items():
        order *= prime**mult
    for prime, mult in factored_group_order.items():
        for _ in range(mult):
            if pow(value, order // prime, modulus) == 1:
                order //= prime
            else:
                break
    return order


@lru_cache(maxsize=None)
def _factorize(n: int) -> dict[int, int]:
    """Trial-division factorization, adequate for q-1 of 32–60-bit primes.

    q-1 for NTT-friendly primes is 2^big * small_cofactor, so trial division
    after stripping twos terminates quickly.
    """
    factors: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    f = 17
    while f * f <= n:
        while n % f == 0:
            factors[f] = factors.get(f, 0) + 1
            n //= f
        f += 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


@lru_cache(maxsize=None)
def primitive_root(prime: int) -> int:
    """Smallest primitive root modulo an odd prime (memoized per prime)."""
    group = prime - 1
    factors = _factorize(group)
    for candidate in range(2, prime):
        if all(pow(candidate, group // p, prime) != 1 for p in factors):
            return candidate
    raise ValueError(f"no primitive root found for {prime} (is it prime?)")


@lru_cache(maxsize=None)
def nth_root_of_unity(n: int, prime: int) -> int:
    """A primitive n-th root of unity mod ``prime`` (requires n | prime-1).

    Memoized: every ``NttContext.create`` for the same (degree, prime)
    pair reuses the factorization and root search.
    """
    if (prime - 1) % n != 0:
        raise ValueError(f"{n} does not divide {prime}-1; no n-th root exists")
    g = primitive_root(prime)
    root = pow(g, (prime - 1) // n, prime)
    # Verify primitivity: root^(n/p) != 1 for every prime divisor p of n.
    for p in _factorize(n):
        if pow(root, n // p, prime) == 1:
            raise ArithmeticError("derived root is not primitive; bad primitive root")
    return root


def centered_vec(residues: np.ndarray, modulus: int) -> np.ndarray:
    """Canonical residues -> int64 lifts in the centered range (-q/2, q/2]."""
    r = np.asarray(residues, dtype=np.uint64).astype(np.int64)
    return np.where(r > modulus // 2, r - modulus, r)

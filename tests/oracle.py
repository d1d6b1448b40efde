"""An exact reference for arithmetic in ``Z_q[X]/(X^N + 1)``.

The pins in this suite hold the library's kernels to this module.  It
imports nothing from ``repro`` (``tests/test_oracle.py`` checks that from
its syntax tree) and shares no code with it: no reducer, no twiddle
table, no transform, no polynomial type.  What it takes from the library
is data only — residues, moduli, and each limb's primitive 2N-th root ψ.

Every value is a Python int, held in numpy *object* arrays so that a step
over a whole row is one vectorized call.  Nothing can overflow, so a sum
is reduced only where it meets a product or leaves a function.  A
polynomial is a sequence of ``N`` coefficients, lowest degree first; over
the composite ``Q = q_0 ... q_{L-1}`` it is an object array of ints in
``[0, Q)``, composed from its limb rows by :func:`crt`.

The evaluation domain is the one ``repro.transforms.ntt`` documents: slot
``i`` holds ``a(ψ^(2·br(i) + 1))``, ``br`` reversing ``log2 N`` bits.
:func:`ntt` reaches it the textbook way — twist coefficient ``k`` by
``ψ^k``, then a radix-2 cyclic transform with ``ω = ψ²`` whose natural
input gives bit-reversed output — and :func:`intt` undoes it.

The key switch and the rescale are written as ``repro.rns.poly`` and
``repro.ckks.keyswitch`` define them: the gadget sum ``Σ_j [x]_{q_j} ·
key_j`` over the digits ``[x]_{q_j}``, the coefficient residues of ``x``
mod each ``q_j`` read as integers; and ``(x − [x]_P) · P⁻¹`` over the
dropped primes' product ``P``.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod

import numpy as np

__all__ = [
    "automorphism",
    "crt",
    "from_eval",
    "gadget_sum",
    "intt",
    "negacyclic_mul",
    "ntt",
    "rescale",
    "residues",
    "to_eval",
]


def ints(values) -> np.ndarray:
    """``values`` as an object array of Python ints (a copy)."""
    return np.array(values, dtype=object)


@lru_cache(maxsize=None)
def _powers(root: int, count: int, q: int) -> np.ndarray:
    """``[root^0, ..., root^(count-1)] mod q`` by running products: each
    doubling is the filled half times one power of ``root``."""
    out = np.empty(count, dtype=object)
    out[0] = 1 % q
    m = 1
    while m < count:
        step = pow(root, m, q)
        out[m : 2 * m] = out[: min(m, count - m)] * step % q
        m *= 2
    out.setflags(write=False)
    return out


def _degree(a: np.ndarray) -> int:
    n = a.shape[-1]
    if n < 1 or n & (n - 1):
        raise ValueError(f"degree {n} is not a power of two")
    return n


def ntt(coeffs, q: int, psi: int) -> np.ndarray:
    """Coefficient rows ``(..., N)`` of one limb -> its evaluation rows,
    canonical uint64.  Inputs may be any integers; they are reduced
    mod ``q`` first."""
    a = ints(coeffs) % q
    n = _degree(a)
    a = a * _powers(psi, n, q) % q  # the twist: a_k ψ^k
    omega = _powers(psi * psi % q, max(1, n // 2), q)
    m = n
    while m > 1:  # Gentleman–Sande: natural order in, bit-reversed out
        half = m // 2
        view = a.reshape(*a.shape[:-1], n // m, 2, half)
        u, v = view[..., 0, :], view[..., 1, :]
        total, diff = u + v, (u - v) * omega[:: n // m][:half] % q
        view[..., 0, :], view[..., 1, :] = total, diff
        m = half
    return (a % q).astype(np.uint64)


def intt(evals, q: int, psi: int) -> np.ndarray:
    """The inverse of :func:`ntt`: evaluation rows ``(..., N)`` of one
    limb -> canonical uint64 coefficient rows."""
    a = ints(evals) % q
    n = _degree(a)
    omega_inv = _powers(pow(psi, -2, q), max(1, n // 2), q)
    m = 2
    while m <= n:  # Cooley–Tukey: bit-reversed in, natural order out
        half = m // 2
        view = a.reshape(*a.shape[:-1], n // m, 2, half)
        u = view[..., 0, :]
        v = view[..., 1, :] * omega_inv[:: n // m][:half] % q
        total, diff = u + v, u - v
        view[..., 0, :], view[..., 1, :] = total, diff
        m *= 2
    untwist = _powers(pow(psi, -1, q), n, q) * pow(n, -1, q) % q
    return (a * untwist % q).astype(np.uint64)


def crt(rows, moduli) -> np.ndarray:
    """Limb rows ``(L, N)`` of residues -> the polynomial over ``Q``, each
    coefficient in ``[0, Q)``."""
    big_q = prod(moduli)
    acc = np.zeros(np.shape(rows)[-1], dtype=object)
    for row, q in zip(rows, moduli, strict=True):
        part = big_q // q
        acc = acc + ints(row) * (part * pow(part, -1, q))
    return acc % big_q


def residues(poly, moduli) -> np.ndarray:
    """A polynomial over ``Q`` (any integers) -> its canonical uint64 limb
    rows ``(L, N)``."""
    a = ints(poly)
    return np.stack([a % q for q in moduli]).astype(np.uint64)


def from_eval(rows, moduli, psis) -> np.ndarray:
    """Evaluation-domain limb rows ``(L, N)`` -> the polynomial over ``Q``."""
    coeff = [intt(row, q, psi) for row, q, psi in zip(rows, moduli, psis, strict=True)]
    return crt(coeff, moduli)


def to_eval(poly, moduli, psis) -> np.ndarray:
    """A polynomial over ``Q`` -> its evaluation-domain limb rows ``(L, N)``."""
    rows = residues(poly, moduli)
    return np.stack([ntt(row, q, psi) for row, q, psi in zip(rows, moduli, psis)])


def negacyclic_mul(a, b, modulus: int) -> np.ndarray:
    """The schoolbook product of two polynomials in ``Z_modulus[X]/(X^N + 1)``:
    ``X^N = -1`` folds every term of degree ``N + k`` onto ``-X^k``."""
    a, b = ints(a), ints(b)
    n = len(a)
    if len(b) != n:
        raise ValueError("length mismatch")
    out = np.zeros(n, dtype=object)
    for i, ai in enumerate(a):
        out[i:] += ai * b[: n - i]
        out[:i] -= ai * b[n - i :]
    return out % modulus


def automorphism(a, g: int, modulus: int) -> np.ndarray:
    """``a(X) -> a(X^g)`` for odd ``g``: coefficient ``k`` moves to degree
    ``k·g mod 2N``, negated where that degree is ``N`` or more."""
    if g % 2 == 0:
        raise ValueError("Galois elements must be odd")
    a = ints(a)
    n = len(a)
    degree = np.arange(n) * (g % (2 * n)) % (2 * n)
    out = np.empty(n, dtype=object)
    out[degree % n] = np.where(degree < n, a, -a)
    return out % modulus


def gadget_sum(digits, keys, modulus: int) -> np.ndarray:
    """``Σ_j digits[j] · keys[j]`` in ``Z_modulus[X]/(X^N + 1)``: a key
    switch's contraction, given the digits ``[x]_{q_j}`` (the rows of
    ``x``'s coefficient residues, or their images under an automorphism)
    and one key component's polynomials."""
    digits, keys = list(digits), list(keys)
    if len(digits) != len(keys):
        raise ValueError("one key polynomial per digit")
    acc = np.zeros(len(digits[0]), dtype=object)
    for digit, key in zip(digits, keys):
        acc = acc + negacyclic_mul(digit, key, modulus)
    return acc % modulus


def rescale(poly, moduli, times: int) -> np.ndarray:
    """``(x − [x]_P) · P⁻¹`` for ``x`` over ``Q`` = ``prod(moduli)`` and
    ``P`` the product of its last ``times`` moduli: the polynomial over
    the kept ``Q / P``, with ``[x]_P`` the remainder of ``x mod P`` in
    ``[0, P)``."""
    if not 0 < times < len(moduli):
        raise ValueError(f"cannot drop {times} of {len(moduli)} primes")
    x = ints(poly) % prod(moduli)
    big_p, kept = prod(moduli[-times:]), prod(moduli[:-times])
    return (x - x % big_p) * pow(big_p, -1, kept) % kept

"""The exact oracle (``tests/oracle.py``) checked against its own
definitions, and held apart from the library it judges."""

from __future__ import annotations

import ast
from math import prod
from pathlib import Path

import numpy as np
import pytest

from tests import oracle

# 36-bit primes with 2^11 | q - 1, written out so that these checks read
# no table of the library's.
PRIMES = (68719206401, 68719747073, 68719190017)
ROOT_ORDER = 1 << 11


def psi_for(q: int, n: int) -> int:
    """A primitive ``2n``-th root of unity mod ``q``."""
    for g in range(2, 1000):
        psi = pow(g, (q - 1) // (2 * n), q)
        if pow(psi, n, q) == q - 1:
            return psi
    raise AssertionError("no root")


def direct_ntt(coeffs, q: int, psi: int) -> np.ndarray:
    """The transform by its definition, ``O(N²)``: slot ``i`` is ``Σ_k a_k
    ψ^((2·br(i) + 1)·k)``, ``br`` reversing ``log2 N`` bits."""
    a = [int(c) % q for c in coeffs]
    bits = len(a).bit_length() - 1
    out = []
    for i in range(len(a)):
        br = int(format(i, f"0{bits}b")[::-1], 2) if bits else 0
        x = pow(psi, 2 * br + 1, q)
        out.append(sum(c * pow(x, k, q) for k, c in enumerate(a)) % q)
    return np.array(out, dtype=np.uint64)


def test_imports_nothing_from_the_library():
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert imported, "the walk found the imports"
    assert not any(name.split(".")[0] == "repro" for name in imported), imported
    assert imported <= {"__future__", "functools", "math", "numpy"}, imported


def test_primes_carry_the_roots():
    for q in PRIMES:
        assert (q - 1) % ROOT_ORDER == 0
        assert pow(2, q - 1, q) == 1


@pytest.mark.parametrize("log_n", [0, 1, 2, 3, 4, 5])
def test_transform_is_its_definition(log_n):
    """Slot ``i`` holds ``a(ψ^(2·br(i) + 1))``; the inverse undoes it."""
    n = 1 << log_n
    rng = np.random.default_rng(log_n)
    for q in PRIMES:
        psi = psi_for(q, n)
        a = rng.integers(0, q, (3, n), dtype=np.uint64)
        a[0] = q - 1
        got = oracle.ntt(a, q, psi)
        assert got.dtype == np.uint64
        want = np.stack([direct_ntt(row, q, psi) for row in a])
        assert np.array_equal(got, want)
        assert np.array_equal(oracle.intt(got, q, psi), a)


def test_transform_reduces_any_integer_input():
    q, n = PRIMES[0], 16
    psi = psi_for(q, n)
    a = [(-1) ** k * (k << 70) for k in range(n)]
    assert np.array_equal(oracle.ntt(a, q, psi), oracle.ntt([x % q for x in a], q, psi))


def test_products_are_the_pointwise_products_of_the_transform():
    """Schoolbook and transform are two routes to one ring product."""
    n, q = 32, PRIMES[1]
    psi = psi_for(q, n)
    rng = np.random.default_rng(7)
    a, b = rng.integers(0, q, (2, n), dtype=np.uint64)
    fa, fb = (oracle.ntt(x, q, psi).astype(object) for x in (a, b))
    via_slots = oracle.intt(fa * fb % q, q, psi)
    assert np.array_equal(oracle.negacyclic_mul(a, b, q).astype(np.uint64), via_slots)


def test_x_to_the_n_is_minus_one():
    n, q = 16, PRIMES[0]
    x_half = [0] * n
    x_half[n // 2] = 1
    want = [q - 1] + [0] * (n - 1)
    assert oracle.negacyclic_mul(x_half, x_half, q).tolist() == want


def test_automorphisms_compose_and_respect_products():
    n = 16
    big_q = prod(PRIMES)
    rng = np.random.default_rng(3)
    a, b = (oracle.ints(rng.integers(0, 1 << 62, n, dtype=np.uint64)) for _ in range(2))
    for g, h in ((3, 5), (5, 2 * n - 1), (7, 7)):
        twice = oracle.automorphism(oracle.automorphism(a, h, big_q), g, big_q)
        assert twice.tolist() == oracle.automorphism(a, g * h, big_q).tolist()
        lhs = oracle.automorphism(oracle.negacyclic_mul(a, b, big_q), g, big_q)
        rhs = oracle.negacyclic_mul(
            oracle.automorphism(a, g, big_q), oracle.automorphism(b, g, big_q), big_q
        )
        assert lhs.tolist() == rhs.tolist()
    assert oracle.automorphism(a, 1, big_q).tolist() == (a % big_q).tolist()
    with pytest.raises(ValueError, match="odd"):
        oracle.automorphism(a, 4, big_q)


def test_crt_inverts_residues():
    big_q = prod(PRIMES)
    values = [0, 1, big_q - 1, big_q // 2, 12345678901234567890123]
    rows = oracle.residues(values, PRIMES)
    assert rows.dtype == np.uint64 and rows.shape == (3, len(values))
    assert oracle.crt(rows, PRIMES).tolist() == values
    assert oracle.residues([-1], PRIMES).ravel().tolist() == [q - 1 for q in PRIMES]


def test_gadget_sum_recombines_its_digits():
    """With key ``j`` the CRT idempotent ``(Q/q_j)·[(Q/q_j)⁻¹]_{q_j}``, the
    gadget sum of ``x``'s digits is ``x`` itself."""
    n, big_q = 8, prod(PRIMES)
    x = oracle.ints(np.random.default_rng(5).integers(0, 1 << 62, n, dtype=np.uint64))
    x = x * x % big_q
    digits = oracle.residues(x, PRIMES)
    keys = []
    for q in PRIMES:
        key = np.zeros(n, dtype=object)
        key[0] = big_q // q * pow(big_q // q, -1, q)
        keys.append(key)
    assert oracle.gadget_sum(digits, keys, big_q).tolist() == x.tolist()


@pytest.mark.parametrize("times", [1, 2])
def test_rescale_is_the_floor_of_x_over_p(times):
    """For ``x`` in ``[0, Q)``, ``(x − [x]_P)·P⁻¹`` is ``⌊x / P⌋``."""
    big_q = prod(PRIMES)
    big_p = prod(PRIMES[-times:])
    values = [0, 1, big_p - 1, big_p, big_q - 1, 3 * big_p + 5]
    got = oracle.rescale(values, PRIMES, times).tolist()
    assert got == [v // big_p for v in values]
    with pytest.raises(ValueError, match="cannot drop"):
        oracle.rescale(values, PRIMES, 3)

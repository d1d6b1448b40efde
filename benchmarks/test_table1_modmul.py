"""Table I — modular multiplier area, plus real software timing of the
three reduction algorithms (the hardware table's software shadow).

Two timing views: the scalar Python-int reducers (one residue at a time,
as the hardware datapath computes) and the vectorized numpy Barrett
kernel (``repro.nums.kernels``) the library actually runs on."""

from __future__ import annotations

import random

import numpy as np

from repro.experiments import table1_modmul_areas
from repro.nums import BarrettReducer, MontgomeryReducer, NttFriendlyMontgomeryReducer
from repro.nums.kernels import ReducerKernel
from repro.nums.primegen import find_primes

PRIME = find_primes(36, 1 << 16)[0]


def test_table1_areas(benchmark, report):
    rows = benchmark(table1_modmul_areas)
    lines = [
        f"{r.algorithm:14s} {r.area_um2:9.0f} um^2 "
        f"(paper {r.paper_area_um2}, {r.relative_error*100:+.2f}%)  "
        f"{r.pipeline_stages} stages"
        for r in rows
    ]
    nttf = next(r for r in rows if r.algorithm == "ntt_friendly")
    barrett = next(r for r in rows if r.algorithm == "barrett")
    mont = next(r for r in rows if r.algorithm == "montgomery")
    lines.append(
        f"reductions: vs Barrett {100*(1-nttf.area_um2/barrett.area_um2):.1f}% "
        f"(paper 67.7%), vs Montgomery {100*(1-nttf.area_um2/mont.area_um2):.1f}% "
        "(paper 41.2%)"
    )
    report("Table I: modular multiplier area", lines)
    for r in rows:
        assert abs(r.relative_error) < 0.005


def _mul_loop(reducer_mul, pairs):
    acc = 0
    for a, b in pairs:
        acc ^= reducer_mul(a, b)
    return acc


def _pairs(n=2000):
    rnd = random.Random(0)
    return [(rnd.randrange(PRIME.value), rnd.randrange(PRIME.value)) for _ in range(n)]


def test_barrett_software_timing(benchmark):
    red = BarrettReducer.for_modulus(PRIME.value)
    benchmark(_mul_loop, red.mul, _pairs())


def test_montgomery_software_timing(benchmark):
    red = MontgomeryReducer.for_modulus(PRIME.value)
    pairs = [(red.to_montgomery(a), red.to_montgomery(b)) for a, b in _pairs()]
    benchmark(_mul_loop, red.mul, pairs)


def test_ntt_friendly_montgomery_software_timing(benchmark):
    red = NttFriendlyMontgomeryReducer.for_prime(PRIME)
    pairs = [(red.to_montgomery(a), red.to_montgomery(b)) for a, b in _pairs()]
    benchmark(_mul_loop, red.mul, pairs)


def test_vectorized_backend_timing(benchmark):
    """Table I's Barrett row as the whole-array numpy kernel."""
    kern = ReducerKernel(PRIME.value)
    rnd = np.random.default_rng(0)
    a = rnd.integers(0, PRIME.value, 1 << 14).astype(np.uint64)
    b = rnd.integers(0, PRIME.value, 1 << 14).astype(np.uint64)
    benchmark(kern.mul, a, b)

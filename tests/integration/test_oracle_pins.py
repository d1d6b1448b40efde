"""Every op of the runtime's op table held to the exact oracle.

Each op of :data:`repro.runtime.graph._RULES` runs once through the eager
:class:`~repro.ckks.evaluator.Evaluator` and once as a one-op fused plan,
at N = 16 and 32 over four 36-bit limbs.  Every output part is composed
into a polynomial over ``Q`` and must give, limb by limb, the bytes of the
polynomial ``tests/oracle.py`` computes from the same inputs: schoolbook
products, the automorphism on coefficients, the gadget sum of the digits
against the key's polynomials, and the exact rescale.  The oracle shares
no code with the library; it reads residues, moduli and each limb's ψ.

Inputs are uniform residues with both edges (0 and ``q - 1``) planted,
not encryptions: an op's bytes do not depend on what the rows decrypt
to.  A rotation family is pinned in both decomposition layouts: one
source takes the rows, three stacked sources (``3·(L-1) = 9`` rows per
limb against ``column_rows`` = 4 at N = 16 and 8 at N = 32) the columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from unittest import mock

import numpy as np
import pytest

from repro.ckks import CkksContext, toy_params
from repro.ckks.containers import Ciphertext, Plaintext
from repro.ckks.keys import rotation_galois_elt
from repro.rns.poly import COEFF, EVAL, RnsPolynomial
from repro.runtime import CtSpec, compile_fn
from repro.runtime.graph import _RULES
from repro.transforms.ntt import BatchNtt, NttContext
from tests import oracle

LEVEL = 4
LEAVES = {"input", "pt_input"}


@dataclass
class World:
    """One context, its keys and each limb's ψ, with the oracle's view of
    its data: evaluation rows as polynomials over ``Q`` and back."""

    ctx: CkksContext
    moduli: tuple[int, ...]
    psis: tuple[int, ...]
    rlk: dict
    gks: dict
    conj: dict

    @property
    def n(self) -> int:
        return self.ctx.params.degree

    def poly(self, rows: np.ndarray) -> np.ndarray:
        """Evaluation rows of ``len(rows)`` limbs -> the polynomial over
        their ``Q``, by the oracle's own inverse transform."""
        lvl = len(rows)
        return oracle.from_eval(rows, self.moduli[:lvl], self.psis[:lvl])

    def rows(self, poly: np.ndarray, lvl: int) -> np.ndarray:
        return oracle.to_eval(poly, self.moduli[:lvl], self.psis[:lvl])

    def digits(self, rows: np.ndarray) -> list[np.ndarray]:
        """``[x]_{q_j}``: the coefficient residues of evaluation rows."""
        limbs = zip(rows, self.moduli, self.psis)
        return [oracle.intt(row, q, psi) for row, q, psi in limbs]

    def key_polys(self, key, lvl: int) -> tuple[list, list]:
        """The ``[:lvl, :lvl]`` prefix of a switching key as polynomials."""
        return tuple(
            [self.poly(part[j, :lvl]) for j in range(lvl)] for part in (key.b, key.a)
        )

    def random_rows(self, rng, lvl: int) -> np.ndarray:
        q_col = np.array(self.moduli[:lvl], dtype=np.uint64).reshape(-1, 1)
        rows = rng.integers(0, 1 << 62, (lvl, self.n), dtype=np.uint64) % q_col
        rows[:, 0] = q_col[:, 0] - np.uint64(1)
        rows[:, 1] = 0
        return rows

    def ciphertext(self, rng, lvl: int = LEVEL, size: int = 2) -> Ciphertext:
        parts = [
            RnsPolynomial(self.ctx.basis, self.random_rows(rng, lvl), EVAL)
            for _ in range(size)
        ]
        return Ciphertext(parts, self.ctx.params.scale)

    def plaintext(self, rng, domain: str, scale: float) -> Plaintext:
        poly = RnsPolynomial(self.ctx.basis, self.random_rows(rng, LEVEL), domain)
        return Plaintext(poly, scale)

    def plain_poly(self, pt: Plaintext, lvl: int) -> np.ndarray:
        rows = pt.poly.data[:lvl]
        if pt.poly.domain == EVAL:
            return self.poly(rows)
        return oracle.crt(rows, self.moduli[:lvl])

    def switch(self, digits, key, lvl: int) -> tuple[np.ndarray, np.ndarray]:
        big_q = self.big_q(lvl)
        return tuple(
            oracle.gadget_sum(digits, polys, big_q)
            for polys in self.key_polys(key, lvl)
        )

    def galois(self, ct: Ciphertext, g: int, key) -> list[np.ndarray]:
        """``(σ(c0) + Σ σ([c1]_{q_j}) b_j, Σ σ([c1]_{q_j}) a_j)``: the
        digits are taken before the automorphism, as a hoisted family
        takes them once for all its members."""
        lvl, big_q = ct.level, self.big_q(ct.level)
        digits = self.digits(ct.parts[1].data)
        moved = [oracle.automorphism(d, g, big_q) for d in digits]
        ks0, ks1 = self.switch(moved, key, lvl)
        c0 = oracle.automorphism(self.poly(ct.parts[0].data), g, big_q)
        return [(c0 + ks0) % big_q, ks1]

    def big_q(self, lvl: int) -> int:
        return prod(self.moduli[:lvl])


@pytest.fixture(scope="module", params=[16, 32], ids=lambda n: f"n{n}")
def world(request) -> World:
    n = request.param
    ctx = CkksContext.create(toy_params(degree=n, num_primes=LEVEL), seed=n)
    moduli = ctx.basis.moduli[:LEVEL]
    return World(
        ctx=ctx,
        moduli=moduli,
        psis=tuple(NttContext.cached(n, q).psi for q in moduli),
        rlk=ctx.relin_keys(levels=[LEVEL]),
        gks=ctx.galois_keys([1, 3, 4, 8, 12], levels=[LEVEL]),
        conj=ctx.keygen.gen_conjugation(ctx.secret_key, levels=[LEVEL]),
    )


def _parts(world: World, ct: Ciphertext, lvl: int) -> list[np.ndarray]:
    return [world.poly(p.data[:lvl]) for p in ct.parts]


def _linear(world, rng, op):
    """add / sub of a level-4 and a level-3 ciphertext (the second with a
    third part), and negate: limb-wise over the lower ``Q``."""
    a, b = world.ciphertext(rng), world.ciphertext(rng, LEVEL - 1, size=3)
    if op == "negate":
        big_q = world.big_q(LEVEL)
        want = [(-x) % big_q for x in _parts(world, a, LEVEL)]
        return (lambda ev, x: ev.negate(x)), [a], want, LEVEL
    lvl, big_q = LEVEL - 1, world.big_q(LEVEL - 1)
    pa, pb = _parts(world, a, lvl), _parts(world, b, lvl)
    pa.append(np.zeros(world.n, dtype=object))
    sign = -1 if op == "sub" else 1
    want = [(x + sign * y) % big_q for x, y in zip(pa, pb)]
    return (lambda ev, x, y: getattr(ev, op)(x, y)), [a, b], want, lvl


def _plain(world, rng, op):
    """add_plain with a coefficient-domain plaintext, multiply_plain with an
    evaluation-domain one (a BSGS diagonal's layout); the plaintext sits
    one level above the ciphertext, which reads its prefix."""
    ct = world.ciphertext(rng, LEVEL - 1)
    lvl, big_q = LEVEL - 1, world.big_q(LEVEL - 1)
    c0, c1 = _parts(world, ct, lvl)
    if op == "add_plain":
        pt = world.plaintext(rng, COEFF, ct.scale)
        want = [(c0 + world.plain_poly(pt, lvl)) % big_q, c1]
    else:
        pt = world.plaintext(rng, EVAL, 2.0**36)
        m = world.plain_poly(pt, lvl)
        want = [oracle.negacyclic_mul(c, m, big_q) for c in (c0, c1)]
    return (lambda ev, x: getattr(ev, op)(x, pt)), [ct], want, lvl


def _multiply(world, rng, op):
    a, b = world.ciphertext(rng), world.ciphertext(rng)
    big_q = world.big_q(LEVEL)
    (a0, a1), (b0, b1) = _parts(world, a, LEVEL), _parts(world, b, LEVEL)

    def mul(x, y):
        return oracle.negacyclic_mul(x, y, big_q)

    want = [mul(a0, b0), (mul(a0, b1) + mul(a1, b0)) % big_q, mul(a1, b1)]
    return (lambda ev, x, y: ev.multiply(x, y)), [a, b], want, LEVEL


def _relinearize(world, rng, op):
    """Part 2 switched at level 3 through the level-4 key's prefix."""
    lvl = LEVEL - 1
    ct = world.ciphertext(rng, lvl, size=3)
    key = world.rlk[LEVEL]
    big_q = world.big_q(lvl)
    c0, c1, _ = _parts(world, ct, lvl)
    ks0, ks1 = world.switch(world.digits(ct.parts[2].data), key, lvl)
    want = [(c0 + ks0) % big_q, (c1 + ks1) % big_q]
    return (lambda ev, x: ev.relinearize(x, {lvl: key})), [ct], want, lvl


def _rescale(world, rng, op, times=1):
    ct = world.ciphertext(rng)
    want = [oracle.rescale(p, world.moduli, times) for p in _parts(world, ct, LEVEL)]
    return (lambda ev, x: ev.rescale(x, times)), [ct], want, LEVEL - times


def _automorphism(world, rng, op):
    """rotate by 3, conjugate, and apply_galois with rotation 1's element."""
    ct = world.ciphertext(rng)
    steps = 3 if op == "rotate" else 1
    g = rotation_galois_elt(steps, world.ctx.params.slots, 2 * world.n)
    key = world.gks[(steps, LEVEL)]
    if op == "conjugate":
        g, key = 2 * world.n - 1, world.conj[LEVEL]

    def fn(ev, x):
        if op == "rotate":
            return ev.rotate(x, steps, world.gks)
        if op == "conjugate":
            return ev.conjugate(x, world.conj)
        return ev.apply_galois(x, g, key)

    return fn, [ct], world.galois(ct, g, key), LEVEL


CASES = {
    "add": _linear,
    "sub": _linear,
    "negate": _linear,
    "add_plain": _plain,
    "multiply_plain": _plain,
    "multiply": _multiply,
    "relinearize": _relinearize,
    "rescale": _rescale,
    "rotate": _automorphism,
    "conjugate": _automorphism,
    "apply_galois": _automorphism,
}


def test_every_op_of_the_table_is_pinned():
    assert set(CASES) == set(_RULES) - LEAVES


def _run(world: World, fn, inputs, path: str, op: str) -> Ciphertext:
    ev = world.ctx.evaluator
    if path == "eager":
        return fn(ev, *inputs)
    specs = [CtSpec(level=c.level, scale=c.scale, size=c.size) for c in inputs]
    plan = compile_fn(fn, ev, specs)
    ops = {k: v for k, v in plan.op_histogram().items() if k not in LEAVES}
    assert ops == {op: 1}
    (out,) = plan.run_batch([list(inputs)])[0]
    return out


def _check(world: World, out: Ciphertext, want, lvl: int) -> None:
    assert out.level == lvl and out.size == len(want)
    for part, poly in zip(out.parts, want):
        assert part.data.tobytes() == world.rows(poly, lvl).tobytes()


@pytest.mark.parametrize("path", ["eager", "fused"])
@pytest.mark.parametrize("op", sorted(CASES))
def test_op_matches_the_oracle(world, op, path):
    rng = np.random.default_rng([world.n, sorted(CASES).index(op)])
    fn, inputs, want, lvl = CASES[op](world, rng, op)
    _check(world, _run(world, fn, inputs, path, op), want, lvl)


@pytest.mark.parametrize("path", ["eager", "fused"])
@pytest.mark.parametrize("times", [1, 2])
def test_rescale_drops_one_or_two_primes(world, times, path):
    rng = np.random.default_rng([world.n, times])
    fn, inputs, want, lvl = _rescale(world, rng, "rescale", times)
    out = _run(world, fn, inputs, path, "rescale")
    _check(world, out, want, lvl)
    dropped = np.array(world.moduli[LEVEL - times :], dtype=float)
    assert out.scale == pytest.approx(inputs[0].scale / np.prod(dropped))


@pytest.mark.lanes
@pytest.mark.parametrize("path", ["eager", "fused"])
def test_rotation_families_in_both_layouts(world, path):
    """Baby steps: one source rotated by 1 and 3, a family of one source
    (rows).  Three plaintext MAC trees over the babies, one merged step
    with three outputs, each rotated by its own giant step: a family of
    three sources, which reaches ``column_rows`` and takes the column
    layout.  Every rotation is held to the oracle, digits taken
    from its own source."""
    n = world.n
    rng = np.random.default_rng([n, 99])
    x = world.ciphertext(rng)
    diagonals = [
        [world.plaintext(rng, EVAL, 2.0**36) for _ in range(3)] for _ in range(3)
    ]
    giants = (4, 8, 12)

    def model(ev, x):
        babies = [x, ev.rotate(x, 1, world.gks), ev.rotate(x, 3, world.gks)]
        outs = []
        for row in diagonals:
            terms = [ev.multiply_plain(b, d) for b, d in zip(babies, row)]
            outs.append(ev.add(ev.add(terms[0], terms[1]), terms[2]))
        return [ev.rotate(o, s, world.gks) for o, s in zip(outs, giants)]

    # One source's L - 1 = 3 rows per limb stay below K, three sources' 9 reach it.
    bat = world.ctx.basis.batch_ntt(LEVEL)
    assert bat.column_rows == {16: 4, 32: 8}[n]
    assert LEVEL - 1 < bat.column_rows <= len(giants) * (LEVEL - 1)
    transformed = []
    real = BatchNtt.forward_columns

    def spy(self, block, limb):
        transformed.append(limb)
        return real(self, block, limb)

    with mock.patch.object(BatchNtt, "forward_columns", spy):
        if path == "eager":
            outs = model(world.ctx.evaluator, x)
        else:
            spec = CtSpec(level=LEVEL, scale=x.scale)
            plan = compile_fn(model, world.ctx.evaluator, [spec])
            assert plan.stats()["hoist_groups"] == 2
            outs = plan.run_batch([[x]])[0]
    assert sorted(transformed) == (list(range(LEVEL)) if path == "fused" else [])

    big_q = world.big_q(LEVEL)
    slots, two_n = world.ctx.params.slots, 2 * n

    def rotated(ct, steps):
        g = rotation_galois_elt(steps, slots, two_n)
        return world.galois(ct, g, world.gks[(steps, LEVEL)])

    def wrap(polys, scale):
        basis = world.ctx.basis
        parts = [RnsPolynomial(basis, world.rows(p, LEVEL), EVAL) for p in polys]
        return Ciphertext(parts, scale)

    babies = [_parts(world, x, LEVEL), rotated(x, 1), rotated(x, 3)]
    for out, row, steps in zip(outs, diagonals, giants):
        acc = [np.zeros(n, dtype=object) for _ in range(2)]
        for baby, pt in zip(babies, row):
            m = world.plain_poly(pt, LEVEL)
            for i in range(2):
                acc[i] = (acc[i] + oracle.negacyclic_mul(baby[i], m, big_q)) % big_q
        want = rotated(wrap(acc, out.scale), steps)
        _check(world, out, want, LEVEL)

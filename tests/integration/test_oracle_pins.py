"""Every op of the runtime's op table held to the exact oracle.

Each op of :data:`repro.runtime.graph._RULES` runs once through the eager
:class:`~repro.ckks.evaluator.Evaluator` and once as a one-op fused plan,
at N = 16 and 32 over four 36-bit limbs.  The same callable runs on the
:class:`~tests.oracle_evaluator.OracleEvaluator`, each op composed from
``tests/oracle.py``: schoolbook products, the automorphism on
coefficients, the gadget sum of the digits against the key's
polynomials, and the exact rescale.  Every output part must give, limb
by limb, the bytes of the oracle's polynomial.  The oracle shares no
code with the library; it reads residues, moduli and each limb's ψ.

Inputs are uniform residues with both edges (0 and ``q - 1``) planted,
not encryptions: an op's bytes do not depend on what the rows decrypt
to.  At these sizes one source's four limbs are one decomposition block
of ``4·(L-1) = 12`` columns, which reaches ``column_rows`` (4 at N = 16,
8 at N = 32): every rotation decomposes as one multi-limb column block.
A rotation family is also pinned in both layouts with the blocks cut to
one limb, as at the paper's shape: one source's ``L - 1 = 3`` rows per
limb take the rows, three stacked sources' 9 the columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest

from repro.ckks import CkksContext, toy_params
from repro.ckks.containers import Ciphertext, Plaintext
from repro.ckks.keys import rotation_galois_elt
from repro.rns.poly import COEFF, EVAL, RnsPolynomial
from repro.runtime import CtSpec, compile_fn
from repro.runtime.graph import _RULES
from repro.transforms.ntt import BatchNtt
from tests.oracle_evaluator import OracleCiphertext, OracleEvaluator

LEVEL = 4
LEAVES = {"input", "pt_input"}


@dataclass
class World:
    """One context, its keys and the oracle evaluator over its moduli."""

    ctx: CkksContext
    ora: OracleEvaluator
    rlk: dict
    gks: dict
    conj: dict

    @property
    def n(self) -> int:
        return self.ctx.params.degree

    def random_rows(self, rng, lvl: int) -> np.ndarray:
        q_col = np.array(self.ora.moduli[:lvl], dtype=np.uint64).reshape(-1, 1)
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

    def expected(self, fn, inputs):
        """``fn`` composed from the oracle's ops, on the same inputs."""
        return fn(self.ora, *[self.ora.lift(ct) for ct in inputs])


@pytest.fixture(scope="module", params=[16, 32], ids=lambda n: f"n{n}")
def world(request) -> World:
    n = request.param
    ctx = CkksContext.create(toy_params(degree=n, num_primes=LEVEL), seed=n)
    return World(
        ctx=ctx,
        ora=OracleEvaluator(ctx),
        rlk=ctx.relin_keys(levels=[LEVEL]),
        gks=ctx.galois_keys([1, 3, 4, 8, 12], levels=[LEVEL]),
        conj=ctx.keygen.gen_conjugation(ctx.secret_key, levels=[LEVEL]),
    )


def _linear(world, rng, op):
    """add / sub of a level-4 and a level-3 ciphertext (the second with a
    third part), and negate: limb-wise over the lower ``Q``."""
    a, b = world.ciphertext(rng), world.ciphertext(rng, LEVEL - 1, size=3)
    if op == "negate":
        return (lambda ev, x: ev.negate(x)), [a]
    return (lambda ev, x, y: getattr(ev, op)(x, y)), [a, b]


def _plain(world, rng, op):
    """add_plain with a coefficient-domain plaintext, multiply_plain with an
    evaluation-domain one (a BSGS diagonal's layout); the plaintext sits
    one level above the ciphertext, which reads its prefix."""
    ct = world.ciphertext(rng, LEVEL - 1)
    if op == "add_plain":
        pt = world.plaintext(rng, COEFF, ct.scale)
    else:
        pt = world.plaintext(rng, EVAL, 2.0**36)
    return (lambda ev, x: getattr(ev, op)(x, pt)), [ct]


def _multiply(world, rng, op):
    a, b = world.ciphertext(rng), world.ciphertext(rng)
    return (lambda ev, x, y: ev.multiply(x, y)), [a, b]


def _relinearize(world, rng, op):
    """Part 2 switched at level 3 through the level-4 key's prefix."""
    lvl = LEVEL - 1
    ct = world.ciphertext(rng, lvl, size=3)
    key = world.rlk[LEVEL]
    return (lambda ev, x: ev.relinearize(x, {lvl: key})), [ct]


def _rescale(world, rng, op, times=1):
    return (lambda ev, x: ev.rescale(x, times)), [world.ciphertext(rng)]


def _automorphism(world, rng, op):
    """rotate by 3, conjugate, and apply_galois with rotation 1's element."""
    g = rotation_galois_elt(1, world.ctx.params.slots, 2 * world.n)
    key = world.gks[(1, LEVEL)]

    def fn(ev, x):
        if op == "rotate":
            return ev.rotate(x, 3, world.gks)
        if op == "conjugate":
            return ev.conjugate(x, world.conj)
        return ev.apply_galois(x, g, key)

    return fn, [world.ciphertext(rng)]


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


def _check(world: World, out: Ciphertext, want: OracleCiphertext) -> None:
    assert (out.level, out.size, out.scale) == (want.level, want.size, want.scale)
    for part, rows in zip(out.parts, world.ora.eval_rows(want)):
        assert part.data.tobytes() == rows.tobytes()


@pytest.mark.parametrize("path", ["eager", "fused"])
@pytest.mark.parametrize("op", sorted(CASES))
def test_op_matches_the_oracle(world, op, path):
    rng = np.random.default_rng([world.n, sorted(CASES).index(op)])
    fn, inputs = CASES[op](world, rng, op)
    _check(world, _run(world, fn, inputs, path, op), world.expected(fn, inputs))


@pytest.mark.parametrize("path", ["eager", "fused"])
@pytest.mark.parametrize("times", [1, 2, 3])
def test_rescale_drops_one_or_two_primes(world, times, path):
    """One, two and three primes: three pin the digit sum's terms past
    the first weight (``w_2 · d_2``)."""
    rng = np.random.default_rng([world.n, times])
    fn, inputs = _rescale(world, rng, "rescale", times)
    out = _run(world, fn, inputs, path, "rescale")
    _check(world, out, world.expected(fn, inputs))
    assert out.level == LEVEL - times
    dropped = np.array(world.ora.moduli[LEVEL - times : LEVEL], dtype=float)
    assert out.scale == pytest.approx(inputs[0].scale / np.prod(dropped))


@pytest.mark.lanes
@pytest.mark.parametrize("path", ["eager", "fused"])
def test_rotation_families_in_both_layouts(world, path):
    """Baby steps: one source rotated by 1 and 3, a family of one source
    (rows).  Three plaintext MAC trees over the babies, one merged step
    with three outputs, each rotated by its own giant step: a family of
    three sources.  With ``BLOCK_BYTES`` cut to one source's digits of
    one limb every block is one limb: the baby family's 3 rows stay
    below ``column_rows`` and take the rows, the giant family's 9 reach
    it and take one-limb column blocks.  Every rotation is held to the
    oracle, digits taken from its own source."""
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

    def spy(self, block, limbs):
        transformed.append((limbs.start, limbs.stop))
        return real(self, block, limbs)

    one_limb = n * (LEVEL - 1) * 8
    with (
        mock.patch.object(BatchNtt, "forward_columns", spy),
        mock.patch.object(BatchNtt, "BLOCK_BYTES", one_limb),
    ):
        if path == "eager":
            outs = model(world.ctx.evaluator, x)
        else:
            spec = CtSpec(level=LEVEL, scale=x.scale)
            plan = compile_fn(model, world.ctx.evaluator, [spec])
            assert plan.stats()["hoist_groups"] == 2
            outs = plan.run_batch([[x]])[0]
    limbs = [(i, i + 1) for i in range(LEVEL)]
    assert sorted(transformed) == (limbs if path == "fused" else [])
    for out, want in zip(outs, world.expected(model, [x]), strict=True):
        _check(world, out, want)

"""The library's homomorphic ops composed from the exact oracle.

:class:`OracleEvaluator` has the surface of
:class:`~repro.ckks.evaluator.Evaluator` — ``add``, ``sub``, ``negate``,
``add_plain``, ``multiply_plain``, ``multiply``, ``relinearize``,
``rescale``, ``rotate``, ``conjugate``, ``apply_galois`` — over
:class:`OracleCiphertext` values, whose parts are polynomials over their
level's ``Q`` (object arrays of ints, :mod:`tests.oracle`).  A program
written against the evaluator runs on it unchanged, so the oracle's
answer for a whole program is the same callable composed from these
per-op formulas; every part is read back as evaluation rows by the
oracle's own transform.

Each formula is the definition the library documents: schoolbook
products, the gadget sum ``Σ_j σ([x]_{q_j}) · key_j`` of the digits of
part 1 (or 2) taken *before* the automorphism ``σ`` (as a hoisted
family takes them once for all its members), and the exact rescale.  The
library supplies data only: residues, moduli, each limb's ψ, switching
keys' rows, and the rotation → Galois element map.  Scales follow the
eager evaluator's arithmetic, operation for operation, so they compare
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from repro.ckks.keys import rotation_galois_elt
from repro.transforms.ntt import NttContext
from tests import oracle


@dataclass
class OracleCiphertext:
    """Parts as polynomials over ``Q`` of ``level`` limbs, each in
    ``[0, Q)``; ``level``, ``scale`` and ``size`` read as a ciphertext's."""

    parts: list
    level: int
    scale: float

    @property
    def size(self) -> int:
        return len(self.parts)


class OracleEvaluator:
    """An evaluator whose every op is the oracle's, over one context's
    moduli (``ctx.basis``) and slot count."""

    def __init__(self, ctx) -> None:
        n = ctx.params.degree
        self.n, self.slots = n, ctx.params.slots
        self.moduli = tuple(ctx.basis.moduli)
        self.psis = tuple(NttContext.cached(n, q).psi for q in self.moduli)
        # The oracle is slow (schoolbook products) and programs drawn over
        # shared inputs switch the same digits through the same keys again
        # and again: a key's polynomials and each switch are kept, keyed by
        # the key's id, the key held so that its id stays its own.
        self._keys: dict = {}
        self._switches: dict = {}

    # ------------------------------------------------------------------
    # Between the library's rows and the oracle's polynomials
    # ------------------------------------------------------------------

    def big_q(self, lvl: int) -> int:
        return prod(self.moduli[:lvl])

    def poly(self, rows) -> np.ndarray:
        """Evaluation rows of ``len(rows)`` limbs -> the polynomial over
        their ``Q``, by the oracle's own inverse transform."""
        lvl = len(rows)
        return oracle.from_eval(rows, self.moduli[:lvl], self.psis[:lvl])

    def rows(self, poly, lvl: int) -> np.ndarray:
        return oracle.to_eval(poly, self.moduli[:lvl], self.psis[:lvl])

    def lift(self, ct) -> OracleCiphertext:
        """A library ciphertext as the oracle's."""
        parts = [self.poly(p.data) for p in ct.parts]
        return OracleCiphertext(parts, ct.level, ct.scale)

    def eval_rows(self, ct: OracleCiphertext) -> list[np.ndarray]:
        """Each part's evaluation rows: the bytes a library result must have."""
        return [self.rows(p, ct.level) for p in ct.parts]

    def plain(self, pt, lvl: int) -> np.ndarray:
        """A plaintext's polynomial over the ``Q`` of its first ``lvl``
        limbs, from its evaluation or coefficient rows."""
        rows = pt.poly.data[:lvl]
        if pt.poly.domain == "eval":
            return self.poly(rows)
        return oracle.crt(rows, self.moduli[:lvl])

    def digits(self, poly, lvl: int) -> list[np.ndarray]:
        """``[x]_{q_j}`` for ``j < lvl``: the gadget digits of ``poly``."""
        return [oracle.ints(poly) % q for q in self.moduli[:lvl]]

    def key_polys(self, key, lvl: int) -> list[list[np.ndarray]]:
        """The ``[:lvl, :lvl]`` prefix of a switching key's ``b`` and ``a``
        as polynomials, one per digit."""
        if (id(key), lvl) not in self._keys:
            parts = (key.b, key.a)
            polys = [[self.poly(r[:lvl]) for r in part[:lvl]] for part in parts]
            self._keys[id(key), lvl] = key, polys
        return self._keys[id(key), lvl][1]

    def switch(self, digits, key, lvl: int) -> list[np.ndarray]:
        """``(Σ_j d_j b_j, Σ_j d_j a_j)`` through ``key`` at ``lvl``."""
        memo = (id(key), lvl, *(tuple(d) for d in digits))
        if memo not in self._switches:
            big_q, polys = self.big_q(lvl), self.key_polys(key, lvl)
            sums = [oracle.gadget_sum(digits, k, big_q) for k in polys]
            self._switches[memo] = key, sums
        return self._switches[memo][1]

    # ------------------------------------------------------------------
    # The ops
    # ------------------------------------------------------------------

    def add(self, a: OracleCiphertext, b: OracleCiphertext) -> OracleCiphertext:
        return self._add(a, b, 1)

    def sub(self, a: OracleCiphertext, b: OracleCiphertext) -> OracleCiphertext:
        return self._add(a, b, -1)

    def _add(self, a, b, sign: int) -> OracleCiphertext:
        """Over the lower ``Q``; a part only one operand has counts the
        other's as zero."""
        lvl = min(a.level, b.level)
        big_q = self.big_q(lvl)
        pad = [np.zeros(self.n, dtype=object)] * max(a.size, b.size)
        xs, ys = (c.parts + pad[c.size :] for c in (a, b))
        parts = [(x + sign * y) % big_q for x, y in zip(xs, ys)]
        return OracleCiphertext(parts, lvl, a.scale)

    def negate(self, a: OracleCiphertext) -> OracleCiphertext:
        big_q = self.big_q(a.level)
        return OracleCiphertext([(-x) % big_q for x in a.parts], a.level, a.scale)

    def add_plain(self, ct: OracleCiphertext, pt) -> OracleCiphertext:
        big_q = self.big_q(ct.level)
        c0 = (ct.parts[0] + self.plain(pt, ct.level)) % big_q
        return OracleCiphertext([c0, *ct.parts[1:]], ct.level, ct.scale)

    def multiply_plain(self, ct: OracleCiphertext, pt) -> OracleCiphertext:
        big_q, m = self.big_q(ct.level), self.plain(pt, ct.level)
        parts = [oracle.negacyclic_mul(x, m, big_q) for x in ct.parts]
        return OracleCiphertext(parts, ct.level, ct.scale * pt.scale)

    def multiply(self, a: OracleCiphertext, b: OracleCiphertext) -> OracleCiphertext:
        """The tensor product ``(a0 b0, a0 b1 + a1 b0, a1 b1)``."""
        lvl = min(a.level, b.level)
        big_q = self.big_q(lvl)

        def mul(x, y):
            return oracle.negacyclic_mul(x, y, big_q)

        (a0, a1), (b0, b1) = a.parts, b.parts
        parts = [mul(a0, b0), (mul(a0, b1) + mul(a1, b0)) % big_q, mul(a1, b1)]
        return OracleCiphertext(parts, lvl, a.scale * b.scale)

    def relinearize(self, ct: OracleCiphertext, relin_keys) -> OracleCiphertext:
        """Part 2 switched onto parts 0 and 1 by the level's key."""
        if ct.size == 2:
            return OracleCiphertext(list(ct.parts), ct.level, ct.scale)
        lvl, big_q = ct.level, self.big_q(ct.level)
        ks = self.switch(self.digits(ct.parts[2], lvl), relin_keys[lvl], lvl)
        parts = [(p + k) % big_q for p, k in zip(ct.parts, ks)]
        return OracleCiphertext(parts, lvl, ct.scale)

    def rescale(self, ct: OracleCiphertext, times: int = 1) -> OracleCiphertext:
        """Every part divided by the last ``times`` primes of its level."""
        if times == 0:
            return OracleCiphertext(list(ct.parts), ct.level, ct.scale)
        moduli = self.moduli[: ct.level]
        scale = ct.scale
        for q in reversed(moduli[-times:]):
            scale /= q
        parts = [oracle.rescale(p, moduli, times) for p in ct.parts]
        return OracleCiphertext(parts, ct.level - times, scale)

    def rotate(self, ct: OracleCiphertext, steps: int, galois_keys) -> OracleCiphertext:
        g = rotation_galois_elt(steps, self.slots, 2 * self.n)
        return self.apply_galois(ct, g, galois_keys[(steps, ct.level)])

    def conjugate(self, ct: OracleCiphertext, conj_keys) -> OracleCiphertext:
        return self.apply_galois(ct, 2 * self.n - 1, conj_keys[ct.level])

    def apply_galois(self, ct: OracleCiphertext, g: int, key) -> OracleCiphertext:
        """``(σ(c0) + Σ σ([c1]_{q_j}) b_j, Σ σ([c1]_{q_j}) a_j)``."""
        lvl, big_q = ct.level, self.big_q(ct.level)
        digits = self.digits(ct.parts[1], lvl)
        moved = [oracle.automorphism(d, g, big_q) for d in digits]
        ks0, ks1 = self.switch(moved, key, lvl)
        c0 = oracle.automorphism(ct.parts[0], g, big_q)
        return OracleCiphertext([(c0 + ks0) % big_q, ks1], lvl, ct.scale)

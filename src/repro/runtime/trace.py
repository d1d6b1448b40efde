"""Tracing: record an Evaluator-shaped program into a :class:`Graph`.

:class:`LazyEvaluator` mirrors the :class:`~repro.ckks.evaluator.Evaluator`
surface method-for-method, but its "ciphertexts" are symbolic
:class:`LazyCiphertext` handles carrying only (level, scale, size)
metadata.  Any function written against the shared surface — the BSGS
linear layer's emitter, a bootstrap segment, a user model — runs
unmodified under either evaluator, so the *same callable* can be executed
eagerly or traced::

    from repro.runtime import CtSpec, trace

    def program(ev, x):
        sq = ev.multiply_relin_rescale(x, x, relin_keys)
        return ev.add(sq, x)

    graph = trace(program, ctx.evaluator, [CtSpec(level=6, scale=delta)])

Level/scale bookkeeping follows the eager evaluator's rules exactly, so a
malformed program (scale mismatch, missing key, exhausted levels) fails
*at trace time* with the producing ops named — not mid-execution on live
data.  Captured plaintexts and switching keys are interned in the graph's
constant table; the specific key each op needs is resolved during tracing
(levels are known), so a plan can never hit a missing-key ``KeyError`` at
run time.

Contract (see ``docs/architecture.md``): tracing is a pure, process-local
recording step — it caches nothing process-wide and shares nothing
across forks.  In a serving fleet, tracing happens once on the compiling
host; remote workers skip this module entirely when a serialized plan
arrives over the wire (:mod:`repro.runtime.plan_io`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.ckks.containers import Plaintext
from repro.ckks.evaluator import SCALE_RTOL
from repro.ckks.keys import SwitchingKey, rotation_galois_elt
from repro.ckks.params import CkksParameters
from repro.rns.basis import RnsBasis
from repro.runtime.graph import CtSpec, Graph, PtSpec

__all__ = [
    "TraceError",
    "LazyCiphertext",
    "LazyPlaintext",
    "LazyDecomposed",
    "LazyEvaluator",
    "trace",
]


class TraceError(ValueError):
    """A program violated level/scale/key rules while being traced."""


@dataclass(frozen=True)
class LazyCiphertext:
    """Symbolic ciphertext handle: a node id plus its graph."""

    graph: Graph
    node: int

    @property
    def level(self) -> int:
        return self.graph.nodes[self.node].level

    @property
    def scale(self) -> float:
        return self.graph.nodes[self.node].scale

    @property
    def size(self) -> int:
        return self.graph.nodes[self.node].size


@dataclass(frozen=True)
class LazyPlaintext:
    """Symbolic plaintext handle (a ``pt_input`` leaf)."""

    graph: Graph
    node: int

    @property
    def level(self) -> int:
        return self.graph.nodes[self.node].level

    @property
    def scale(self) -> float:
        return self.graph.nodes[self.node].scale


@dataclass(frozen=True)
class LazyDecomposed:
    """Mirror of :class:`~repro.ckks.keyswitch.DecomposedPoly` for surface
    compatibility: hoisting is rediscovered by the optimizer, so the lazy
    handle only remembers which ciphertext it came from."""

    graph: Graph
    source: int


@dataclass
class LazyEvaluator:
    """Evaluator look-alike that records ops instead of executing them.

    Attributes:
        params: CKKS parameters (level/scale rules come from here).
        basis: the RNS chain (rescale needs the dropped moduli).
        graph: the graph under construction.
    """

    params: CkksParameters
    basis: RnsBasis
    graph: Graph

    # ------------------------------------------------------------------
    # Linear operations
    # ------------------------------------------------------------------

    def add(self, a: LazyCiphertext, b: LazyCiphertext) -> LazyCiphertext:
        self._check_scales(a, b, op="add")
        return self._emit(
            "add", (a.node, b.node),
            level=min(a.level, b.level), scale=a.scale, size=max(a.size, b.size),
        )

    def sub(self, a: LazyCiphertext, b: LazyCiphertext) -> LazyCiphertext:
        self._check_scales(a, b, op="sub")
        return self._emit(
            "sub", (a.node, b.node),
            level=min(a.level, b.level), scale=a.scale, size=max(a.size, b.size),
        )

    def negate(self, a: LazyCiphertext) -> LazyCiphertext:
        return self._emit(
            "negate", (a.node,), level=a.level, scale=a.scale, size=a.size
        )

    def add_plain(self, ct: LazyCiphertext, pt) -> LazyCiphertext:
        self._check_plain(ct, pt, op="add_plain")
        if not math.isclose(ct.scale, pt.scale, rel_tol=SCALE_RTOL):
            raise TraceError(
                f"add_plain: scale mismatch: ciphertext from "
                f"{self.graph.provenance(ct.node)} has scale {ct.scale:g} but "
                f"the plaintext's is {pt.scale:g}"
            )
        inputs, consts = self._plain_operand(ct, pt)
        return self._emit(
            "add_plain", inputs, consts=consts,
            level=ct.level, scale=ct.scale, size=ct.size,
        )

    def multiply_plain(self, ct: LazyCiphertext, pt) -> LazyCiphertext:
        self._check_plain(ct, pt, op="multiply_plain")
        inputs, consts = self._plain_operand(ct, pt)
        return self._emit(
            "multiply_plain", inputs, consts=consts,
            level=ct.level, scale=ct.scale * pt.scale, size=ct.size,
        )

    # ------------------------------------------------------------------
    # Multiplication / relinearization / rescaling
    # ------------------------------------------------------------------

    def multiply(self, a: LazyCiphertext, b: LazyCiphertext) -> LazyCiphertext:
        if a.size != 2 or b.size != 2:
            raise TraceError(
                f"multiply expects relinearized (2-part) inputs; got "
                f"{self.graph.provenance(a.node)} and {self.graph.provenance(b.node)}"
            )
        return self._emit(
            "multiply", (a.node, b.node),
            level=min(a.level, b.level), scale=a.scale * b.scale, size=3,
        )

    def relinearize(
        self, ct: LazyCiphertext, relin_keys: dict[int, SwitchingKey]
    ) -> LazyCiphertext:
        if ct.size == 2:
            return ct
        if ct.size != 3:
            raise TraceError(
                f"can only relinearize 3-part ciphertexts, got "
                f"{self.graph.provenance(ct.node)}"
            )
        key = relin_keys.get(ct.level)
        if key is None:
            raise TraceError(
                f"no relinearization key for level {ct.level} "
                f"(needed by {self.graph.provenance(ct.node)})"
            )
        return self._emit(
            "relinearize", (ct.node,), consts=(self.graph.add_const(key),),
            level=ct.level, scale=ct.scale, size=2,
        )

    def rescale(self, ct: LazyCiphertext, times: int = 1) -> LazyCiphertext:
        if times == 0:
            return ct
        if ct.level - times < 1:
            raise TraceError(
                f"rescale x{times} would exhaust the modulus chain: "
                f"{self.graph.provenance(ct.node)} has only "
                f"{ct.level - 1} droppable prime(s) left"
            )
        scale = ct.scale
        for t in range(times):
            scale /= self.basis.moduli[ct.level - 1 - t]
        return self._emit(
            "rescale", (ct.node,), attrs=(times,),
            level=ct.level - times, scale=scale, size=ct.size,
        )

    def multiply_relin_rescale(
        self, a: LazyCiphertext, b: LazyCiphertext, relin_keys: dict[int, SwitchingKey]
    ) -> LazyCiphertext:
        prod = self.relinearize(self.multiply(a, b), relin_keys)
        return self.rescale(prod, times=self.params.levels_per_multiplication)

    # ------------------------------------------------------------------
    # Rotations
    # ------------------------------------------------------------------

    def decompose(self, ct: LazyCiphertext) -> LazyDecomposed:
        """Surface-compatible no-op: the hoisting pass regroups rotations
        sharing a source automatically, so an explicit hoist is just a
        marker validated against later ``decomposed=`` uses."""
        if ct.size != 2:
            raise TraceError(
                f"hoisting expects relinearized (2-part) ciphertexts, got "
                f"{self.graph.provenance(ct.node)}"
            )
        return LazyDecomposed(graph=self.graph, source=ct.node)

    def rotate(
        self,
        ct: LazyCiphertext,
        steps: int,
        galois_keys: dict[tuple[int, int], SwitchingKey],
        decomposed: LazyDecomposed | None = None,
    ) -> LazyCiphertext:
        key = galois_keys.get((steps, ct.level))
        if key is None:
            raise TraceError(
                f"no Galois key for rotation {steps} at level {ct.level} "
                f"(needed by {self.graph.provenance(ct.node)})"
            )
        galois_elt = rotation_galois_elt(
            steps, self.params.slots, 2 * self.basis.degree
        )
        return self._automorphism(
            "rotate", ct, galois_elt, key, decomposed, attrs=(steps, galois_elt)
        )

    def conjugate(
        self, ct: LazyCiphertext, conj_keys: dict[int, SwitchingKey]
    ) -> LazyCiphertext:
        key = conj_keys.get(ct.level)
        if key is None:
            raise TraceError(
                f"no conjugation key at level {ct.level} "
                f"(needed by {self.graph.provenance(ct.node)})"
            )
        galois_elt = 2 * self.basis.degree - 1
        return self._automorphism("conjugate", ct, galois_elt, key, None,
                                  attrs=(galois_elt,))

    def apply_galois(
        self,
        ct: LazyCiphertext,
        galois_elt: int,
        key: SwitchingKey,
        decomposed: LazyDecomposed | None = None,
    ) -> LazyCiphertext:
        return self._automorphism(
            "apply_galois", ct, galois_elt, key, decomposed, attrs=(galois_elt,)
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _emit(self, op, inputs, *, level, scale, size, attrs=(), consts=()):
        node = self.graph.add_node(
            op, inputs=inputs, attrs=attrs, consts=consts,
            level=level, scale=scale, size=size,
        )
        return LazyCiphertext(graph=self.graph, node=node)

    def _automorphism(self, op, ct, galois_elt, key, decomposed, attrs):
        if ct.size != 2:
            raise TraceError(
                f"relinearize before applying automorphisms: "
                f"{self.graph.provenance(ct.node)} has {ct.size} parts"
            )
        if key.level != ct.level:
            raise TraceError(
                f"{op}: switching key level {key.level} != ciphertext level "
                f"{ct.level} ({self.graph.provenance(ct.node)})"
            )
        if decomposed is not None and decomposed.source != ct.node:
            raise TraceError(
                f"{op}: decomposed= was hoisted from "
                f"{self.graph.provenance(decomposed.source)} but the rotated "
                f"ciphertext is {self.graph.provenance(ct.node)}"
            )
        return self._emit(
            op, (ct.node,), attrs=attrs, consts=(self.graph.add_const(key),),
            level=ct.level, scale=ct.scale, size=2,
        )

    def _plain_operand(self, ct, pt):
        if isinstance(pt, LazyPlaintext):
            return (ct.node, pt.node), ()
        return (ct.node,), (self.graph.add_const(pt),)

    def _check_plain(self, ct, pt, *, op: str) -> None:
        if not isinstance(pt, (Plaintext, LazyPlaintext)):
            raise TraceError(f"{op} expects a Plaintext, got {type(pt).__name__}")
        if pt.level < ct.level:
            raise TraceError(
                f"{op}: plaintext at level {pt.level} cannot reach ciphertext "
                f"level {ct.level} ({self.graph.provenance(ct.node)})"
            )

    def _check_scales(self, a, b, *, op: str) -> None:
        if not math.isclose(a.scale, b.scale, rel_tol=SCALE_RTOL):
            raise TraceError(
                f"{op}: scale mismatch: {a.scale:g} (from "
                f"{self.graph.provenance(a.node)}) vs {b.scale:g} (from "
                f"{self.graph.provenance(b.node)}); rescale first"
            )


def trace(fn, evaluator, input_specs) -> Graph:
    """Record ``fn(lazy_evaluator, *handles)`` into a fresh :class:`Graph`.

    Args:
        fn: a program written against the Evaluator surface.
        evaluator: the eager :class:`~repro.ckks.evaluator.Evaluator` (or
            any object exposing ``params`` and ``basis``) the program will
            eventually run under.
        input_specs: :class:`CtSpec`/:class:`PtSpec` for each symbolic
            argument ``fn`` receives after the evaluator.

    Returns:
        The recorded graph with outputs set (``fn`` may return one handle
        or a sequence of handles).
    """
    specs = tuple(input_specs)
    graph = Graph(specs)
    lazy = LazyEvaluator(params=evaluator.params, basis=evaluator.basis, graph=graph)
    handles = []
    for spec in specs:
        nid = graph.add_input(spec)
        if isinstance(spec, CtSpec):
            handles.append(LazyCiphertext(graph=graph, node=nid))
        elif isinstance(spec, PtSpec):
            handles.append(LazyPlaintext(graph=graph, node=nid))
        else:
            raise TypeError(f"input spec must be CtSpec or PtSpec, got {spec!r}")
    out = fn(lazy, *handles)
    if out is None:
        raise TraceError("traced function must return handles from this trace")
    if isinstance(out, (LazyCiphertext, LazyPlaintext)):
        out = (out,)
    nodes = []
    for h in out:
        if not isinstance(h, (LazyCiphertext, LazyPlaintext)) or h.graph is not graph:
            raise TraceError("traced function must return handles from this trace")
        nodes.append(h.node)
    if not nodes:
        raise TraceError("traced function returned no outputs")
    graph.set_outputs(nodes)
    return graph

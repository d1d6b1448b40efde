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

Each recorded node's level, scale and part count come from its op's rule
in :mod:`repro.runtime.graph` (the table the plan checker and the
``EPL1`` decoder read too), which matches the eager evaluator's rules
exactly, so a malformed program (scale mismatch, missing key, exhausted
levels) fails *at trace time* with the producing ops named — not
mid-execution on live data.  Captured plaintexts and switching keys are interned in the graph's
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

from dataclasses import dataclass

from repro.ckks.keys import SwitchingKey, rotation_galois_elt
from repro.ckks.params import CkksParameters
from repro.rns.basis import RnsBasis
from repro.runtime.graph import CtSpec, Graph, PtSpec, check_input_spec

__all__ = [
    "TraceError",
    "LazyCiphertext",
    "LazyPlaintext",
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


@dataclass
class LazyEvaluator:
    """Evaluator look-alike that records ops instead of executing them.

    Attributes:
        params: CKKS parameters (slot count, levels per multiplication).
        basis: the RNS chain (its degree fixes the Galois elements).
        graph: the graph under construction; its op table gives every
            recorded node's level, scale and part count.
    """

    params: CkksParameters
    basis: RnsBasis
    graph: Graph

    # ------------------------------------------------------------------
    # Linear operations
    # ------------------------------------------------------------------

    def add(self, a: LazyCiphertext, b: LazyCiphertext) -> LazyCiphertext:
        return self._emit("add", (a, b))

    def sub(self, a: LazyCiphertext, b: LazyCiphertext) -> LazyCiphertext:
        return self._emit("sub", (a, b))

    def negate(self, a: LazyCiphertext) -> LazyCiphertext:
        return self._emit("negate", (a,))

    def add_plain(self, ct: LazyCiphertext, pt) -> LazyCiphertext:
        return self._plain("add_plain", ct, pt)

    def multiply_plain(self, ct: LazyCiphertext, pt) -> LazyCiphertext:
        return self._plain("multiply_plain", ct, pt)

    # ------------------------------------------------------------------
    # Multiplication / relinearization / rescaling
    # ------------------------------------------------------------------

    def multiply(self, a: LazyCiphertext, b: LazyCiphertext) -> LazyCiphertext:
        return self._emit("multiply", (a, b))

    def relinearize(
        self, ct: LazyCiphertext, relin_keys: dict[int, SwitchingKey]
    ) -> LazyCiphertext:
        if ct.size == 2:
            return ct
        key = self._key(
            relin_keys, ct.level, f"relinearization key for level {ct.level}", ct
        )
        return self._emit("relinearize", (ct,), consts=(key,))

    def rescale(self, ct: LazyCiphertext, times: int = 1) -> LazyCiphertext:
        if times == 0:
            return ct
        return self._emit("rescale", (ct,), attrs=(times,))

    def multiply_relin_rescale(
        self, a: LazyCiphertext, b: LazyCiphertext, relin_keys: dict[int, SwitchingKey]
    ) -> LazyCiphertext:
        prod = self.relinearize(self.multiply(a, b), relin_keys)
        return self.rescale(prod, times=self.params.levels_per_multiplication)

    # ------------------------------------------------------------------
    # Rotations
    # ------------------------------------------------------------------

    def rotate(
        self,
        ct: LazyCiphertext,
        steps: int,
        galois_keys: dict[tuple[int, int], SwitchingKey],
    ) -> LazyCiphertext:
        key = self._key(
            galois_keys, (steps, ct.level),
            f"Galois key for rotation {steps} at level {ct.level}", ct,
        )
        galois_elt = rotation_galois_elt(
            steps, self.params.slots, 2 * self.basis.degree
        )
        return self._emit("rotate", (ct,), attrs=(steps, galois_elt), consts=(key,))

    def conjugate(
        self, ct: LazyCiphertext, conj_keys: dict[int, SwitchingKey]
    ) -> LazyCiphertext:
        key = self._key(conj_keys, ct.level, f"conjugation key at level {ct.level}", ct)
        return self._emit(
            "conjugate", (ct,), attrs=(2 * self.basis.degree - 1,), consts=(key,)
        )

    def apply_galois(
        self, ct: LazyCiphertext, galois_elt: int, key: SwitchingKey
    ) -> LazyCiphertext:
        return self._emit("apply_galois", (ct,), attrs=(galois_elt,), consts=(key,))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _emit(self, op, operands, attrs=(), consts=()) -> LazyCiphertext:
        """Record ``op`` with the ``(level, scale, size)`` its rule gives
        (:meth:`Graph.derive`); a broken rule is a :class:`TraceError`."""
        g = self.graph
        inputs = tuple(h.node for h in operands)
        consts = tuple(g.add_const(c) for c in consts)
        try:
            level, scale, size = g.derive(op, inputs, attrs, consts)
        except ValueError as exc:
            raise TraceError(f"{op}: {exc}") from None
        node = g.add_node(
            op, inputs=inputs, attrs=attrs, consts=consts,
            level=level, scale=scale, size=size,
        )
        return LazyCiphertext(graph=g, node=node)

    def _plain(self, op, ct, pt) -> LazyCiphertext:
        if isinstance(pt, LazyPlaintext):
            return self._emit(op, (ct, pt))
        return self._emit(op, (ct,), consts=(pt,))

    def _key(self, keys, index, what: str, ct) -> SwitchingKey:
        key = keys.get(index)
        if key is None:
            raise TraceError(
                f"no {what} (needed by {self.graph.provenance(ct.node)})"
            )
        return key


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
    graph = Graph(specs, evaluator.basis.moduli)
    lazy = LazyEvaluator(params=evaluator.params, basis=evaluator.basis, graph=graph)
    handles = []
    for spec in specs:
        if not isinstance(spec, (CtSpec, PtSpec)):
            raise TypeError(f"input spec must be CtSpec or PtSpec, got {spec!r}")
        check_input_spec(spec, len(graph.moduli))
        nid = graph.add_input(spec)
        if isinstance(spec, CtSpec):
            handles.append(LazyCiphertext(graph=graph, node=nid))
        else:
            handles.append(LazyPlaintext(graph=graph, node=nid))
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

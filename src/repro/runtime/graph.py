"""The ciphertext computation graph: symbolic handles plus an op DAG.

A traced CKKS program is a DAG of :class:`Node` records.  Each node is one
:class:`~repro.ckks.evaluator.Evaluator` operation over *symbolic*
ciphertext/plaintext handles, annotated with the metadata the optimizer
and plan-time checker reason about — level, scale, part count, and (for
automorphisms) the Galois element.  Ciphertext *values* never appear in
the graph; captured constants (encoded plaintexts, switching keys) live
in a side table so one graph can be compiled once and replayed across
millions of input ciphertexts.

What each op takes and gives is stated once, in :data:`_RULES`: its
operand kinds and constant types, its attribute count, its preconditions
and its result ``(level, scale, size)``.  The tracer records what
:meth:`Graph.derive` returns, the plan checker compares every node
against it, and the ``EPL1`` decoder checks arity by
:func:`op_arities` — three readers, one statement per rule.  The eager
:class:`~repro.ckks.evaluator.Evaluator` keeps its own rules: it is the
independent oracle the table is tested against.

Graphs are append-only during tracing; optimizer passes
(:mod:`repro.runtime.passes`) rebuild them wholesale, which keeps node
ids dense and in topological order — an invariant both executors and the
``EPL1`` wire format rely on.

Contract (see ``docs/architecture.md``): a graph is plain process-local
data — nothing here is cached process-wide or shared across forks on its
own.  Constants are interned **by object identity** (``id()``), which is
what :meth:`Graph.signature` hashes; only the serialized plan names its
constants by content.  A graph crosses
the worker boundary only after compilation, as a serialized plan.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from repro.ckks.containers import Plaintext
from repro.ckks.evaluator import SCALE_RTOL
from repro.ckks.keys import SwitchingKey

__all__ = [
    "CtSpec",
    "PtSpec",
    "Node",
    "Graph",
    "FusedGroup",
    "AUTOMORPHISM_OPS",
    "COMMUTATIVE_OPS",
    "op_arities",
]

#: Ops that permute slots then key-switch; candidates for hoisting when
#: several of them share one source ciphertext.
AUTOMORPHISM_OPS = frozenset({"rotate", "conjugate", "apply_galois"})

#: Ops whose operand order does not change the result bit pattern
#: (modular adds/multiplies commute limb-wise); CSE canonicalizes these.
COMMUTATIVE_OPS = frozenset({"add", "multiply"})


@dataclass(frozen=True)
class CtSpec:
    """Shape of a symbolic ciphertext input.

    Attributes:
        level: RNS level the input arrives at.
        scale: encoding scale Δ of the input.
        size: number of polynomial parts (2 unless pre-relinearization).
    """

    level: int
    scale: float
    size: int = 2


@dataclass(frozen=True)
class PtSpec:
    """Shape of a symbolic plaintext input (level and scale only)."""

    level: int
    scale: float


@dataclass(frozen=True)
class Node:
    """One recorded operation.

    Attributes:
        id: dense topological index into ``Graph.nodes``.
        op: operation name (a key of the op table, :data:`_RULES`).
        inputs: ids of operand nodes, in call order.
        attrs: hashable op attributes (rotation steps, rescale times,
            Galois element, input index).
        consts: indices into ``Graph.consts`` (captured plaintexts/keys).
        level / scale / size: inferred output metadata.
        kind: ``"ct"`` or ``"pt"``.
    """

    id: int
    op: str
    inputs: tuple[int, ...]
    attrs: tuple
    consts: tuple[int, ...]
    level: int
    scale: float
    size: int
    kind: str = "ct"


@dataclass(frozen=True)
class FusedGroup:
    """One fused schedule step discovered by the fusion pass.

    Pure analysis metadata over node ids — the graph itself is never
    rewritten by fusion (ids stay dense and topological; the EPL1 wire
    format is untouched).  The fused executor replays every ``members``
    node as a single dispatch anchored at the ``anchor`` schedule slot.

    Attributes:
        kind: ``"mac"`` (multiply_plain terms folded into one
            mul-accumulate), ``"sum"`` (an add-reduction tree folded into
            one add-accumulate), or ``"hoisted_automorphisms"`` (rotations
            sharing one gadget decomposition, batched through one NTT
            dispatch).
        anchor: node id whose schedule position the group executes at.
        members: every node id the group covers (skipped elsewhere).
        outputs: member ids whose buffers later steps (or the caller)
            read.
        sources: external node ids the group reads.
        payload: kind-specific extras (e.g. the mac's term node ids).
    """

    kind: str
    anchor: int
    members: tuple[int, ...]
    outputs: tuple[int, ...]
    sources: tuple[int, ...]
    payload: tuple = ()


class Graph:
    """An op DAG over symbolic handles plus its captured-constant table.

    Attributes:
        input_specs: ordered :class:`CtSpec`/:class:`PtSpec` leaves.
        nodes: topologically ordered :class:`Node` list.
        consts: captured runtime objects (Plaintext, SwitchingKey).
        outputs: node ids returned by the traced function.
        moduli: the RNS chain the graph runs over (a rescale's scale
            divides by the primes it drops).
    """

    def __init__(
        self,
        input_specs: tuple[CtSpec | PtSpec, ...],
        moduli: tuple[int, ...],
    ):
        self.input_specs: list[CtSpec | PtSpec] = list(input_specs)
        self.moduli = tuple(moduli)
        self.nodes: list[Node] = []
        self.consts: list = []
        self._const_index: dict[int, int] = {}
        self.outputs: tuple[int, ...] = ()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_const(self, obj) -> int:
        """Intern a captured object; deduplicated by identity."""
        idx = self._const_index.get(id(obj))
        if idx is None:
            idx = len(self.consts)
            self.consts.append(obj)
            self._const_index[id(obj)] = idx
        return idx

    def add_node(
        self,
        op: str,
        inputs: tuple[int, ...] = (),
        attrs: tuple = (),
        consts: tuple[int, ...] = (),
        *,
        level: int,
        scale: float,
        size: int,
        kind: str = "ct",
    ) -> int:
        node = Node(
            id=len(self.nodes),
            op=op,
            inputs=inputs,
            attrs=attrs,
            consts=consts,
            level=level,
            scale=scale,
            size=size,
            kind=kind,
        )
        self.nodes.append(node)
        return node.id

    def add_input(self, spec: CtSpec | PtSpec) -> int:
        """Register a symbolic input leaf and return its node id."""
        index = len([n for n in self.nodes if n.op in ("input", "pt_input")])
        if isinstance(spec, CtSpec):
            return self.add_node(
                "input", attrs=(index,), level=spec.level, scale=spec.scale,
                size=spec.size,
            )
        return self.add_node(
            "pt_input", attrs=(index,), level=spec.level, scale=spec.scale,
            size=1, kind="pt",
        )

    def set_outputs(self, node_ids) -> None:
        self.outputs = tuple(node_ids)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def input_ids(self) -> tuple[int, ...]:
        return tuple(n.id for n in self.nodes if n.op in ("input", "pt_input"))

    def consumer_counts(self) -> list[int]:
        """How many downstream uses each node has (outputs count once)."""
        counts = [0] * len(self.nodes)
        for node in self.nodes:
            for i in node.inputs:
                counts[i] += 1
        for out in self.outputs:
            counts[out] += 1
        return counts

    def op_histogram(self) -> dict[str, int]:
        """Op name -> occurrence count (the bridge's input)."""
        hist: dict[str, int] = {}
        for node in self.nodes:
            hist[node.op] = hist.get(node.op, 0) + 1
        return hist

    def provenance(self, node_id: int) -> str:
        """Human-readable description of a node for error messages."""
        node = self.nodes[node_id]
        return (
            f"node #{node.id} '{node.op}' (level {node.level}, "
            f"scale {node.scale:g}, {node.size} parts)"
        )

    def operands(self, inputs) -> str:
        """``"; operands: ..."`` naming each operand node, for errors."""
        if not inputs:
            return ""
        return "; operands: " + ", ".join(self.provenance(i) for i in inputs)

    def derive(
        self, op: str, inputs: tuple[int, ...], attrs: tuple = (), consts: tuple = ()
    ) -> tuple[int, float, int]:
        """The ``(level, scale, size)`` an ``op`` node over these operand
        node ids, attributes and constant indices records, by the op's
        rule in :data:`_RULES`.

        Raises:
            ValueError: the op is unknown, its arity, operand kinds or
                constant types are wrong, or the operands break one of its
                preconditions; the message names the broken rule and each
                operand.
        """
        try:
            return _apply(self, op, inputs, attrs, consts)
        except ValueError as exc:
            raise ValueError(f"{exc}{self.operands(inputs)}") from None

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    def signature(self) -> str:
        """Structural fingerprint: a label for the plan within one process.

        Hashes the full op structure and metadata plus the *identities*
        (``id()``) of captured constants: two traces over the same live
        key/plaintext objects and op sequence collide, traces over
        different live key material do not.  Once a constant dies its id
        may be reused, so the signature is not an identity across
        processes or across a constant's lifetime; a plan that leaves the
        process is named by the fingerprint of its ``EPL1`` bytes
        (:func:`repro.runtime.wire.plan_fingerprint`).
        """
        h = hashlib.blake2b(digest_size=16)
        for spec in self.input_specs:
            h.update(repr(spec).encode())
        for node in self.nodes:
            h.update(
                (
                    f"{node.op}|{node.inputs}|{node.attrs}|"
                    f"{tuple(id(self.consts[c]) for c in node.consts)}|"
                    f"{node.level}|{node.scale!r}|{node.size}|{node.kind}\n"
                ).encode()
            )
        h.update(repr(self.outputs).encode())
        return h.hexdigest()


@dataclass
class GraphBuilder:
    """Helper for passes rebuilding a graph node-by-node with id remaps."""

    source: Graph
    graph: Graph = field(init=False)
    mapping: dict[int, int] = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        self.graph = Graph(tuple(self.source.input_specs), self.source.moduli)

    def remap_inputs(self, node: Node) -> tuple[int, ...]:
        return tuple(self.mapping[i] for i in node.inputs)

    def remap_consts(self, node: Node) -> tuple[int, ...]:
        return tuple(
            self.graph.add_const(self.source.consts[c]) for c in node.consts
        )

    def emit(self, node: Node, inputs=None, attrs=None, **meta) -> int:
        new_id = self.graph.add_node(
            node.op,
            inputs=self.remap_inputs(node) if inputs is None else inputs,
            attrs=node.attrs if attrs is None else attrs,
            consts=self.remap_consts(node),
            level=meta.get("level", node.level),
            scale=meta.get("scale", node.scale),
            size=meta.get("size", node.size),
            kind=node.kind,
        )
        self.mapping[node.id] = new_id
        return new_id

    def alias(self, node_id: int, target_new_id: int) -> None:
        self.mapping[node_id] = target_new_id

    def finish(self) -> Graph:
        self.graph.set_outputs(self.mapping[o] for o in self.source.outputs)
        return self.graph


# ---------------------------------------------------------------------------
# The op table: one rule per op
# ---------------------------------------------------------------------------


class _Rule(NamedTuple):
    """What one op takes and gives.

    ``forms`` lists the accepted ``(operand kinds, constant types)``
    pairs — a plain op reads its plaintext as a second operand or as a
    captured constant — and ``attrs`` the attribute count.  ``result``
    gets the graph, the first operand node ``a``, the second operand ``b``
    (the second input node, else the first constant, else ``None``) and
    the attrs; it raises ``ValueError`` on a broken precondition and
    returns the node's ``(level, scale, size)`` otherwise.
    """

    forms: tuple[tuple[tuple[str, ...], tuple[type, ...]], ...]
    attrs: int
    result: Callable


def op_arities(op: str) -> frozenset[tuple[int, int, int]]:
    """``(inputs, attrs, consts)`` counts a node of ``op`` may carry
    (empty for an unknown op)."""
    rule = _RULES.get(op)
    if rule is None:
        return frozenset()
    return frozenset((len(k), rule.attrs, len(t)) for k, t in rule.forms)


def _apply(g: Graph, op: str, inputs, attrs, consts) -> tuple[int, float, int]:
    rule = _RULES.get(op)
    if rule is None:
        raise ValueError(f"unknown op {op!r}")
    kinds = tuple(g.nodes[i].kind for i in inputs)
    objs = tuple(g.consts[c] for c in consts)
    form = next(
        (f for f in rule.forms if (len(f[0]), len(f[1])) == (len(kinds), len(objs))),
        None,
    )
    if form is None or len(attrs) != rule.attrs:
        raise ValueError(
            f"{len(kinds)} input(s), {len(attrs)} attr(s) and {len(objs)} "
            f"constant(s) fit no form of {op}"
        )
    if kinds != form[0]:
        raise ValueError(f"operand kinds {list(kinds)}, expected {list(form[0])}")
    for obj, cls in zip(objs, form[1]):
        if not isinstance(obj, cls):
            raise ValueError(f"captured constant is not a {cls.__name__}")
    a, b = (*(g.nodes[i] for i in inputs), *objs, None, None)[:2]
    return rule.result(g, a, b, attrs)


def _aligned(x, y) -> None:
    if not math.isclose(x.scale, y.scale, rel_tol=SCALE_RTOL):
        raise ValueError(f"scale mismatch: {x.scale:g} vs {y.scale:g}")


def _parts(x, n: int) -> None:
    if x.size != n:
        raise ValueError(f"needs a {n}-part operand, got {x.size} parts")


def _reaches(pt, ct) -> None:
    if pt.level < ct.level:
        raise ValueError(
            f"plaintext at level {pt.level} cannot reach ciphertext level {ct.level}"
        )


def _switched(a, key, parts: int) -> None:
    _parts(a, parts)
    if key.level < a.level:
        raise ValueError(
            f"switching key at level {key.level} cannot reach operand level {a.level}"
        )


def _leaf(spec_type):
    def result(g, a, b, attrs):
        (index,) = attrs
        specs = g.input_specs
        spec = specs[index] if 0 <= index < len(specs) else None
        if not isinstance(spec, spec_type):
            raise ValueError(f"input index {index} names no {spec_type.__name__}")
        return spec.level, spec.scale, spec.size if spec_type is CtSpec else 1

    return result


def _add(g, a, b, attrs):
    _aligned(a, b)
    return min(a.level, b.level), a.scale, max(a.size, b.size)


def _negate(g, a, b, attrs):
    return a.level, a.scale, a.size


def _add_plain(g, a, pt, attrs):
    _reaches(pt, a)
    _aligned(a, pt)
    return a.level, a.scale, a.size


def _multiply_plain(g, a, pt, attrs):
    _reaches(pt, a)
    return a.level, a.scale * pt.scale, a.size


def _multiply(g, a, b, attrs):
    _parts(a, 2)
    _parts(b, 2)
    return min(a.level, b.level), a.scale * b.scale, 3


def _relinearize(g, a, key, attrs):
    _switched(a, key, 3)
    return a.level, a.scale, 2


def _rescale(g, a, b, attrs):
    (times,) = attrs
    if not 1 <= times < a.level:
        raise ValueError(
            f"rescale x{times} from level {a.level}: it must drop at least one "
            f"prime and not exhaust the modulus chain"
        )
    scale = a.scale
    for t in range(times):  # the eager evaluator's division order
        scale /= g.moduli[a.level - 1 - t]
    return a.level - times, scale, a.size


def _automorphism(g, a, key, attrs):
    _switched(a, key, 2)
    if attrs[-1] % 2 == 0:
        raise ValueError(f"Galois element {attrs[-1]} is even")
    return a.level, a.scale, 2


_LEAF = (((), ()),)
_UNARY = ((("ct",), ()),)
_BINARY = ((("ct", "ct"), ()),)
_PLAIN = ((("ct",), (Plaintext,)), (("ct", "pt"), ()))
_KEYED = ((("ct",), (SwitchingKey,)),)

#: Op name -> its rule; the one place an op's contract is written down.
_RULES: dict[str, _Rule] = {
    "input": _Rule(_LEAF, 1, _leaf(CtSpec)),
    "pt_input": _Rule(_LEAF, 1, _leaf(PtSpec)),
    "add": _Rule(_BINARY, 0, _add),
    "sub": _Rule(_BINARY, 0, _add),
    "negate": _Rule(_UNARY, 0, _negate),
    "add_plain": _Rule(_PLAIN, 0, _add_plain),
    "multiply_plain": _Rule(_PLAIN, 0, _multiply_plain),
    "multiply": _Rule(_BINARY, 0, _multiply),
    "relinearize": _Rule(_KEYED, 0, _relinearize),
    "rescale": _Rule(_UNARY, 1, _rescale),
    "rotate": _Rule(_KEYED, 2, _automorphism),
    "conjugate": _Rule(_KEYED, 1, _automorphism),
    "apply_galois": _Rule(_KEYED, 1, _automorphism),
}

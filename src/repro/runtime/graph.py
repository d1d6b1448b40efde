"""The ciphertext computation graph: symbolic handles plus an op DAG.

A traced CKKS program is a DAG of :class:`Node` records.  Each node is one
:class:`~repro.ckks.evaluator.Evaluator` operation over *symbolic*
ciphertext/plaintext handles, annotated with the metadata the optimizer
and plan-time checker reason about — level, scale, part count, and (for
automorphisms) the Galois element.  Ciphertext *values* never appear in
the graph; captured constants (encoded plaintexts, switching keys) live
in a side table so one graph can be compiled once and replayed across
millions of input ciphertexts.

Graphs are append-only during tracing; optimizer passes
(:mod:`repro.runtime.passes`) rebuild them wholesale, which keeps node
ids dense and in topological order — an invariant both executors and the
``EPL1`` wire format rely on.

Contract (see ``docs/architecture.md``): a graph is plain process-local
data — nothing here is cached process-wide or shared across forks on its
own.  Constants are interned **by object identity** (``id()``), which is
what :meth:`Graph.signature` hashes for the in-memory plan cache; only
the serialized plan names its constants by content.  A graph crosses
the worker boundary only after compilation, as a serialized plan.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

__all__ = [
    "CtSpec",
    "PtSpec",
    "Node",
    "Graph",
    "FusedGroup",
    "CT_OPS",
    "AUTOMORPHISM_OPS",
    "COMMUTATIVE_OPS",
    "ELEMENTWISE_OPS",
]

# Every ciphertext-producing op the tracer records.  ``input``/``pt_input``
# are the symbolic leaves; everything else mirrors one Evaluator method.
CT_OPS = frozenset(
    {
        "input",
        "add",
        "sub",
        "negate",
        "add_plain",
        "multiply_plain",
        "multiply",
        "relinearize",
        "rescale",
        "rotate",
        "conjugate",
        "apply_galois",
    }
)

#: Ops that permute slots then key-switch; candidates for hoisting when
#: several of them share one source ciphertext.
AUTOMORPHISM_OPS = frozenset({"rotate", "conjugate", "apply_galois"})

#: Ops whose operand order does not change the result bit pattern
#: (modular adds/multiplies commute limb-wise); CSE canonicalizes these.
COMMUTATIVE_OPS = frozenset({"add", "multiply"})

#: Per-element ops over same-level operands — the fusion pass may collapse
#: runs of these into single fused kernel dispatches without changing a
#: single output bit (modular add/sub/neg and per-element products are
#: position-independent, and deferred-reduction accumulation of canonical
#: residues is exact; see ``ReducerKernel.add_accumulate``).
ELEMENTWISE_OPS = frozenset({"add", "sub", "negate", "add_plain", "multiply_plain"})


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
        op: operation name (member of :data:`CT_OPS` or ``pt_input``).
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
            one add-accumulate), ``"hoisted_automorphisms"`` (rotations
            sharing one gadget decomposition, batched through one NTT
            dispatch), or ``"chain"`` (a linear elementwise run executed
            back-to-back in one step).
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
    """

    def __init__(self, input_specs: tuple[CtSpec | PtSpec, ...] = ()):
        self.input_specs: list[CtSpec | PtSpec] = list(input_specs)
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

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    def signature(self) -> str:
        """Structural fingerprint for the process-level plan cache.

        Hashes the full op structure and metadata plus the *identities* of
        captured constants: two traces reusing the same key/plaintext
        objects over the same op sequence collide (and may share a cached
        plan); traces over different key material do not.  Constant
        identity uses ``id()``, which is safe because any cached plan
        keeps its constants alive — a live object's id cannot be reused.
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
        self.graph = Graph(tuple(self.source.input_specs))

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

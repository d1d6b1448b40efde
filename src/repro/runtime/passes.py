"""Optimizer passes over the ciphertext computation graph.

Every pass is a pure ``Graph -> Graph`` rewrite (graphs are rebuilt, never
mutated) and every rewrite is *bit-preserving*: an optimized plan must
decrypt to the exact bytes the eager :class:`~repro.ckks.evaluator.Evaluator`
produces.  That constraint shapes what the passes are allowed to do:

* **CSE** merges structurally identical nodes — same op, operands, attrs,
  and captured constants.  Commutative ops (modular add / tensor multiply)
  are canonicalized by operand id, which is safe because limb-wise modular
  arithmetic commutes bitwise (adds additionally require exactly equal
  scales so the merged node's scale metadata is unambiguous).
* **Rescale fusion** collapses ``rescale(rescale(x, t1), t2)`` into one
  ``rescale(x, t1 + t2)`` when the inner node has no other consumer.
  :meth:`repro.rns.poly.RnsPolynomial.rescale` guarantees the fused
  multi-prime division is bit-identical to the sequential one, and the
  fused node runs one evaluation-domain rescale
  (:func:`repro.rns.poly.rescale_eval_rows`) instead of two.
* **DCE** drops nodes unreachable from the outputs (symbolic inputs are
  kept so plan arity always matches the trace's input specs).
* **Hoist grouping** does not rewrite at all — it *annotates*: automorphism
  nodes sharing a source ciphertext are grouped so the executors gadget-
  decompose that source once (`Evaluator.decompose`) and replay the
  decomposition across the whole group, exactly what `linear.py` used to
  hand-code.
* **check_alignment** re-derives every node's level, scale and part count
  from its operands by the op's rule — the one table in
  :mod:`repro.runtime.graph` the tracer records by — and fails
  compilation, naming the offending op and the ops that produced its
  operands, on any precondition broken or any recorded value that differs
  from the derived one.  Plans fail at compile time, not mid-execution.

Contract (see ``docs/architecture.md``): passes are stateless pure
functions — no process-level caches, nothing fork-shared, nothing on the
worker boundary.  They run exactly once per compiled plan, on the
compiling host; a deserialized plan arrives already optimized and only
re-runs ``check_alignment`` (as validation against corrupt or
hand-crafted artifacts), never the rewrites.
"""

from __future__ import annotations

from repro.runtime.graph import (
    AUTOMORPHISM_OPS,
    COMMUTATIVE_OPS,
    FusedGroup,
    Graph,
    GraphBuilder,
    Node,
)
from repro.runtime.telemetry import get_telemetry

__all__ = [
    "PlanValidationError",
    "eliminate_common_subexpressions",
    "fuse_rescales",
    "eliminate_dead_nodes",
    "hoist_groups",
    "fusion_groups",
    "check_alignment",
    "optimize",
]


class PlanValidationError(ValueError):
    """A graph failed plan-time level/scale/key alignment checks."""


# ---------------------------------------------------------------------------
# Rewrites
# ---------------------------------------------------------------------------


def eliminate_common_subexpressions(graph: Graph) -> Graph:
    """Merge structurally identical nodes (one rotation instead of two)."""
    builder = GraphBuilder(graph)
    seen: dict[tuple, int] = {}
    for node in graph.nodes:
        inputs = builder.remap_inputs(node)
        consts = tuple(id(graph.consts[c]) for c in node.consts)
        if node.op in ("input", "pt_input"):
            builder.emit(node)
            continue
        key_inputs = inputs
        if node.op in COMMUTATIVE_OPS:
            a, b = (graph.nodes[i] for i in node.inputs)
            # add's result scale is the lhs scale; only canonicalize when
            # swapping operands cannot change any recorded metadata.
            if node.op == "multiply" or a.scale == b.scale:
                key_inputs = tuple(sorted(inputs))
        key = (node.op, key_inputs, node.attrs, consts)
        hit = seen.get(key)
        if hit is not None:
            builder.alias(node.id, hit)
        else:
            seen[key] = builder.emit(node, inputs=inputs)
    return builder.finish()


def fuse_rescales(graph: Graph) -> Graph:
    """Merge rescale chains into single multi-prime rescales."""
    consumers = graph.consumer_counts()
    # An inner rescale is absorbed when its *only* consumer is another
    # rescale (and it is not itself an output): the downstream node takes
    # over its dropped primes.  Chains absorb transitively.
    absorbed: set[int] = set()
    for node in graph.nodes:
        if node.op != "rescale":
            continue
        inner = graph.nodes[node.inputs[0]]
        if (
            inner.op == "rescale"
            and consumers[inner.id] == 1
            and inner.id not in graph.outputs
        ):
            absorbed.add(inner.id)
    builder = GraphBuilder(graph)
    for node in graph.nodes:
        if node.id in absorbed:
            continue  # its single consumer re-points past it below
        if node.op == "rescale":
            times = node.attrs[0]
            src = node.inputs[0]
            while src in absorbed:
                times += graph.nodes[src].attrs[0]
                src = graph.nodes[src].inputs[0]
            builder.emit(node, inputs=(builder.mapping[src],), attrs=(times,))
        else:
            builder.emit(node)
    return builder.finish()


def eliminate_dead_nodes(graph: Graph) -> Graph:
    """Drop nodes no output depends on (inputs are always kept)."""
    live: set[int] = set(graph.input_ids)
    stack = list(graph.outputs)
    while stack:
        nid = stack.pop()
        if nid in live:
            continue
        live.add(nid)
        stack.extend(graph.nodes[nid].inputs)
    builder = GraphBuilder(graph)
    for node in graph.nodes:
        if node.id in live:
            builder.emit(node)
    return builder.finish()


# ---------------------------------------------------------------------------
# Analyses
# ---------------------------------------------------------------------------


def hoist_groups(graph: Graph) -> dict[int, tuple[int, ...]]:
    """Map source-node id -> automorphism nodes that can share one
    gadget decomposition (groups of at least two)."""
    by_source: dict[int, list[int]] = {}
    for node in graph.nodes:
        if node.op in AUTOMORPHISM_OPS:
            by_source.setdefault(node.inputs[0], []).append(node.id)
    return {
        src: tuple(nodes) for src, nodes in by_source.items() if len(nodes) > 1
    }


def fusion_groups(
    graph: Graph, hoist: dict[int, tuple[int, ...]] | None = None
) -> tuple[FusedGroup, ...]:
    """Discover fused schedule steps; pure analysis, no rewrite.

    Two shapes, claimed greedily and disjointly (a node belongs to at
    most one group):

    1. ``hoisted_automorphisms`` — the :func:`hoist_groups` families,
       lifted into schedule steps so one gadget decomposition (one batched
       NTT dispatch) serves every rotation of the family.
    2. ``mac`` / ``sum`` — add-reduction trees.  Interior adds must be
       single-consumer non-outputs at the root's level/size, so collapsing
       the tree into one deferred-reduction accumulate is invisible
       outside the group; when *every* leaf is a single-consumer
       captured-constant ``multiply_plain`` at the same level, the leaves
       fold in too and the whole tree becomes one ``mul_accumulate``
       (``mac``).  Trees need >= 3 leaves to beat two binary adds.

    Every other node is a step of its own: stepping a run of single-node
    closures back to back under one dispatch would fuse no work.

    Bit-identity: canonical residues are unique, so a raw uint64 sum of
    canonical terms reduced once gives the bytes of the binary add chain
    over the same terms in any order; regrouping changes no output bit.
    """
    hoist = hoist_groups(graph) if hoist is None else hoist
    consumers = graph.consumer_counts()
    outputs = set(graph.outputs)
    claimed: set[int] = set()
    groups: list[FusedGroup] = []

    for src, members in sorted(hoist.items()):
        groups.append(
            FusedGroup(
                kind="hoisted_automorphisms",
                anchor=min(members),
                members=tuple(members),
                outputs=tuple(members),
                sources=(src,),
            )
        )
        claimed.update(members)

    def _expandable(nid: int, root: Node) -> bool:
        n = graph.nodes[nid]
        return (
            n.op == "add"
            and n.kind == "ct"
            and consumers[nid] == 1
            and nid not in outputs
            and nid not in claimed
            and n.level == root.level
            and n.size == root.size
        )

    def _mac_term(nid: int, root: Node) -> bool:
        n = graph.nodes[nid]
        return (
            n.op == "multiply_plain"
            and len(n.inputs) == 1
            and consumers[nid] == 1
            and nid not in outputs
            and nid not in claimed
            and n.level == root.level
            and n.size == root.size
            and graph.nodes[n.inputs[0]].level == root.level
        )

    for root in reversed(graph.nodes):
        if root.op != "add" or root.kind != "ct" or root.id in claimed:
            continue
        interiors: list[int] = []
        terms: list[int] = []
        stack = [root.id]
        while stack:
            nid = stack.pop()
            for i in graph.nodes[nid].inputs:
                if _expandable(i, root):
                    interiors.append(i)
                    stack.append(i)
                else:
                    terms.append(i)
        if len(terms) < 3:
            continue
        # The fused accumulate stacks every term at the root's shape; a
        # term at a different level/size would need the eager add's
        # drop-to-min branches, so such trees stay unfused.
        if not all(
            graph.nodes[t].kind == "ct"
            and graph.nodes[t].level == root.level
            and graph.nodes[t].size == root.size
            for t in terms
        ):
            continue
        if all(_mac_term(t, root) for t in terms):
            members = (root.id, *interiors, *terms)
            group = FusedGroup(
                kind="mac",
                anchor=root.id,
                members=members,
                outputs=(root.id,),
                sources=tuple(graph.nodes[t].inputs[0] for t in terms),
                payload=tuple(terms),
            )
        else:
            members = (root.id, *interiors)
            group = FusedGroup(
                kind="sum",
                anchor=root.id,
                members=members,
                outputs=(root.id,),
                sources=tuple(terms),
            )
        groups.append(group)
        claimed.update(members)

    return tuple(sorted(groups, key=lambda g: g.anchor))


def check_alignment(graph: Graph) -> None:
    """Re-derive every node's metadata and reject the plan on a mismatch.

    Each node's ``(level, scale, size)`` must equal exactly what its op's
    rule gives its operands (:meth:`~repro.runtime.graph.Graph.derive`,
    the rule the tracer records by), and the operands must meet the
    rule's preconditions — operand kinds, constant types, aligned scales,
    key levels, odd Galois elements, a rescale that stays on the chain.
    It is the plan-time analogue of the eager evaluator's checks: instead
    of failing mid-execution it raises :class:`PlanValidationError`
    naming the node and the ops that produced its operands.  A graph that
    passes replays the tracer's metadata whoever built it: the tracer, an
    optimizer pass, or the ``EPL1`` decoder.
    """
    for node in graph.nodes:
        recorded = (node.level, node.scale, node.size)
        try:
            want = graph.derive(node.op, node.inputs, node.attrs, node.consts)
        except ValueError as exc:
            raise PlanValidationError(f"{graph.provenance(node.id)}: {exc}") from None
        if recorded != want:
            raise PlanValidationError(
                f"{graph.provenance(node.id)} records level {recorded[0]}, "
                f"scale {recorded[1]!r}, {recorded[2]} parts, but its rule "
                f"gives level {want[0]}, scale {want[1]!r}, {want[2]} parts"
                + graph.operands(node.inputs)
            )


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


def optimize(graph: Graph) -> Graph:
    """The default pass pipeline: CSE -> rescale fusion -> DCE -> verify.

    Each pass runs under a child of one ``compile`` span and records its
    node-count delta as a ``compile_pass`` event; both are no-ops unless
    tracing is on.
    """
    telemetry = get_telemetry()
    pipeline = (
        ("cse", eliminate_common_subexpressions),
        ("fuse_rescales", fuse_rescales),
        ("dce", eliminate_dead_nodes),
    )
    root = telemetry.start_trace(
        "compile", category="compile", nodes_in=len(graph.nodes)
    )
    try:
        for name, fn in pipeline:
            before = len(graph.nodes)
            with telemetry.child_span(name, root.ctx, category="compile"):
                graph = fn(graph)
            telemetry.event(
                "compile_pass",
                nodes_before=before,
                nodes_after=len(graph.nodes),
                delta=len(graph.nodes) - before,
                **{"pass": name},
            )
        with telemetry.child_span("check_alignment", root.ctx, category="compile"):
            check_alignment(graph)
    finally:
        root.end(nodes_out=len(graph.nodes))
    return graph

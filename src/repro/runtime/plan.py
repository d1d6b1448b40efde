"""Execution plans: topologically scheduled, ref-counted, replayable.

An :class:`ExecutionPlan` binds an optimized :class:`~repro.runtime.graph.Graph`
to one eager :class:`~repro.ckks.evaluator.Evaluator` and executes it two
ways:

* :meth:`ExecutionPlan.run` — the **reference interpreter**, the
  bit-identity oracle.  It walks the schedule node by node, issuing
  exactly the eager-evaluator call each traced op made (every
  automorphism pays its own gadget decomposition, as eager does), so its
  outputs are bit-identical to running the original function eagerly.
  It releases intermediates by reference counting: a node's ciphertext
  is freed the moment its last consumer has run.
* :meth:`ExecutionPlan.run_batch` — the **fused replayer**
  (:class:`FusedExecutor`), the one fast path.  Fusion groups
  (:func:`~repro.runtime.passes.fusion_groups`) collapse MAC/sum trees
  and rotation families into single fused kernel dispatches; every
  rotation belongs to a family (a lone one to a family of one), whose
  one batched decomposition is the only place rotations share one
  (hoisting).  An :class:`~repro.runtime.arena.ArenaLayout` preassigns
  every intermediate to a slot in one preallocated
  ``(slots, L, N)`` pool, so steady-state replay performs zero
  result-buffer allocations.  Still the same bits: a single-node step
  calls its op's row function (:mod:`repro.ckks.evaluator`), the one the
  eager method calls; a family hands each member its source's slice of
  the batched decomposition, the digits ``galois_rows`` would compute;
  and every fused sum rests on the uniqueness of canonical residues
  (deferred uint64 accumulation reproduces the eager bytes).  So
  interpreter and replayer share each op's arithmetic: comparing them
  checks fusion, the arena and the bindings.
  ``run_batch(..., fused=False)`` replays each entry through the
  interpreter instead — the oracle at the batch call shape.

``compile_graph`` / ``compile_fn`` optimize and schedule; the plan they
return belongs to the caller, who keeps it for as long as it serves
(:meth:`repro.ckks.linear.HomomorphicLinearTransform.plan_for` memoizes
its own).  A forked worker inherits it, a worker host receives it as
``EPL1`` bytes (:mod:`repro.runtime.plan_io`), and nothing else outlives
the caller's reference.

Process/fork contract (see ``docs/architecture.md``): a plan, its
:class:`FusedExecutor` (arena pool and fused closures) and every
constant they bind are process-local state
that forked serving workers inherit copy-on-write when the parent warms the
replay before forking (``ShardedExecutor`` does); nothing in this module
crosses the worker boundary except through :mod:`repro.runtime.plan_io`'s
explicit wire formats.  One replay owns the arena until its outputs are
copied out, so each executor serialises replays behind a lock, and a
forked child gets fresh locks (a fork taken mid-replay must not leave
the child's copy held by a thread that does not exist there).
"""

from __future__ import annotations

import math
import os
import threading
import weakref
from dataclasses import dataclass, field

import numpy as np

from repro.ckks.containers import Ciphertext, Plaintext
from repro.ckks.evaluator import (
    SCALE_RTOL,
    Evaluator,
    add_plain_rows,
    add_rows,
    galois_rows,
    multiply_plain_rows,
    multiply_rows,
    negate_rows,
    plain_rows,
    relinearize_rows,
)
from repro.nums.kernels import in_lanes, ufunc_buffer
from repro.rns.poly import EVAL, RnsPolynomial, rescale_eval_rows
from repro.runtime.arena import ArenaLayout, ArenaStep, BufferArena
from repro.runtime.graph import AUTOMORPHISM_OPS, CtSpec, Graph, Node, PtSpec
from repro.runtime.passes import fusion_groups, optimize
from repro.runtime.telemetry import get_telemetry
from repro.runtime.trace import trace
from repro.transforms.ntt import BatchNtt, galois_permutation

__all__ = [
    "ExecutionPlan",
    "FusedExecutor",
    "compile_graph",
    "compile_fn",
    "params_fingerprint",
]


def _strided(rows: list) -> np.ndarray | None:
    """``rows`` — equal arrays of one buffer — as one ``(len(rows), ...)``
    view when they are one evenly strided run of it, else ``None``.

    Each row of the view is one of ``rows`` (same address, shape and
    strides), so it reads only memory they already cover."""
    first = rows[0]

    def owner(a):
        while isinstance(a.base, np.ndarray):
            a = a.base
        return a

    base = owner(first)
    start = first.__array_interface__["data"][0]
    step = rows[1].__array_interface__["data"][0] - start if len(rows) > 1 else 0
    for n, row in enumerate(rows):
        if (
            row.shape != first.shape
            or row.strides != first.strides
            or row.dtype != first.dtype
            or owner(row) is not base
            or row.__array_interface__["data"][0] != start + n * step
        ):
            return None
    return np.lib.stride_tricks.as_strided(
        first,
        (len(rows), *first.shape),
        (step, *first.strides),
        writeable=first.flags.writeable,
    )


def params_fingerprint(evaluator: Evaluator) -> tuple:
    """What makes two evaluators interchangeable for one plan."""
    return (evaluator.basis.degree, tuple(evaluator.basis.moduli))


@dataclass
class ExecutionPlan:
    """A compiled, executable CKKS program.

    Attributes:
        graph: the optimized op DAG.
        evaluator: the eager evaluator ops are dispatched through.
        signature: structural fingerprint of the *traced* graph; names the
            plan in summaries and telemetry labels within one process
            (see :meth:`~repro.runtime.graph.Graph.signature`).
    """

    graph: Graph
    evaluator: Evaluator
    signature: str
    _releases: list[tuple[int, ...]] = field(init=False, repr=False)
    _fused: "FusedExecutor | None" = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self._releases = self._release_schedule()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def input_specs(self) -> tuple:
        return tuple(self.graph.input_specs)

    @property
    def num_outputs(self) -> int:
        return len(self.graph.outputs)

    def op_histogram(self) -> dict[str, int]:
        return self.graph.op_histogram()

    def summary(self) -> str:
        hist = ", ".join(
            f"{op} x{n}" for op, n in sorted(self.op_histogram().items())
        )
        return (
            f"ExecutionPlan[{self.signature[:12]}] "
            f"{len(self.graph.nodes)} nodes, "
            f"{len(self.input_specs)} inputs -> {self.num_outputs} outputs: "
            f"{hist}"
        )

    def stats(self) -> dict:
        """Plan-shape and fused-replay statistics (lowers the fused
        executor on first call).  ``hoist_groups`` counts the rotation
        families: the batched gadget decompositions one replay makes,
        one per family (a lone rotation is a family of one)."""
        ex = self.fused()
        fused_nodes = sum(len(g.members) for g in ex.groups)
        families = sum(g.kind == "automorphisms" for g in ex.groups)
        return {
            "nodes": len(self.graph.nodes),
            "consts": len(self.graph.consts),
            "hoist_groups": families,
            "fused_groups": len(ex.groups),
            "fused_nodes": fused_nodes,
            "dispatch_count_fused": ex.dispatch_count,
            "arena_slots": ex.layout.num_slots,
            "arena_peak_bytes": ex.layout.pool_bytes,
        }

    # ------------------------------------------------------------------
    # Reference interpreter
    # ------------------------------------------------------------------

    def run(self, inputs) -> list[Ciphertext]:
        """Execute once, issuing plain eager-evaluator calls per node."""
        self._check_inputs(inputs)
        ev = self.evaluator
        env: dict[int, object] = {}
        for node in self.graph.nodes:
            env[node.id] = self._interpret(node, env, ev, inputs)
            for victim in self._releases[node.id]:
                env.pop(victim, None)
        return [env[o] for o in self.graph.outputs]

    def _interpret(self, node: Node, env, ev: Evaluator, inputs):
        op = node.op
        g = self.graph
        if op == "input" or op == "pt_input":
            return inputs[node.attrs[0]]
        ins = [env[i] for i in node.inputs]
        if op in ("add", "sub", "negate", "multiply"):
            return getattr(ev, op)(*ins)
        if op in ("add_plain", "multiply_plain"):
            pt = ins[1] if len(ins) == 2 else g.consts[node.consts[0]]
            return getattr(ev, op)(ins[0], pt)
        if op == "relinearize":
            key = g.consts[node.consts[0]]
            return ev.relinearize(ins[0], {g.nodes[node.inputs[0]].level: key})
        if op == "rescale":
            return ev.rescale(ins[0], times=node.attrs[0])
        if op in AUTOMORPHISM_OPS:
            key = g.consts[node.consts[0]]
            return ev.apply_galois(ins[0], node.attrs[-1], key)
        raise AssertionError(f"unschedulable op {op!r}")

    # ------------------------------------------------------------------
    # Batch replay
    # ------------------------------------------------------------------

    def run_batch(self, batches, *, fused: bool = True) -> list[list[Ciphertext]]:
        """Replay the plan across many input tuples (throughput serving).

        ``batches`` is a sequence of input lists, each matching
        ``input_specs``; returns one output list per batch entry.  The
        replay goes through the :class:`FusedExecutor` — arena-backed
        buffers, fused kernel dispatch — lowered on first use and shared
        by every later call.  ``fused=False`` replays each entry through
        :meth:`run`, the interpreter oracle, instead; the bits are the same.
        """
        if fused:
            return self.fused().run_batch(batches)
        return [self.run(inputs) for inputs in batches]

    # ------------------------------------------------------------------
    # Fused executor
    # ------------------------------------------------------------------

    def fused(self) -> "FusedExecutor":
        """The arena-backed fused replayer, lowered once and kept."""
        if self._fused is None:
            self._fused = FusedExecutor(self)
        return self._fused

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _release_schedule(self) -> list[tuple[int, ...]]:
        """For each schedule position, the node ids whose buffers die there."""
        remaining = self.graph.consumer_counts()
        outputs = set(self.graph.outputs)
        releases: list[tuple[int, ...]] = []
        for node in self.graph.nodes:
            dead = []
            for i in node.inputs:
                remaining[i] -= 1
                if remaining[i] == 0 and i not in outputs:
                    dead.append(i)
            releases.append(tuple(dict.fromkeys(dead)))
        return releases

    def _check_inputs(self, inputs) -> None:
        specs = self.graph.input_specs
        if len(inputs) != len(specs):
            raise ValueError(
                f"plan expects {len(specs)} input(s), got {len(inputs)}"
            )
        for i, (spec, value) in enumerate(zip(specs, inputs)):
            if isinstance(spec, CtSpec):
                if not isinstance(value, Ciphertext):
                    raise TypeError(f"input {i}: expected a Ciphertext")
                if value.level != spec.level or value.size != spec.size:
                    raise ValueError(
                        f"input {i}: plan compiled for level {spec.level} / "
                        f"{spec.size} parts, got level {value.level} / "
                        f"{value.size} parts"
                    )
            elif isinstance(spec, PtSpec):
                if not isinstance(value, Plaintext):
                    raise TypeError(f"input {i}: expected a Plaintext")
                if value.level < spec.level:
                    raise ValueError(
                        f"input {i}: plaintext level {value.level} below the "
                        f"compiled level {spec.level}"
                    )
            if not math.isclose(value.scale, spec.scale, rel_tol=SCALE_RTOL):
                raise ValueError(
                    f"input {i}: plan compiled for scale {spec.scale:g}, "
                    f"got {value.scale:g}"
                )


# ---------------------------------------------------------------------------
# Fused executor: arena buffers + fused kernel dispatch
# ---------------------------------------------------------------------------


# Every live fused executor, so a forked child can replace replay locks
# that some other thread of the parent held at fork time.
_LIVE_EXECUTORS: "weakref.WeakSet[FusedExecutor]" = weakref.WeakSet()


def _fresh_replay_locks() -> None:
    for ex in list(_LIVE_EXECUTORS):
        ex._replay_lock = threading.Lock()


os.register_at_fork(after_in_child=_fresh_replay_locks)


class FusedExecutor:
    """Arena-backed fused replayer for one plan.

    Lowering (once per plan) runs :func:`fusion_groups`,
    plans an :class:`ArenaLayout` over the *fused* schedule, allocates the
    buffer pool, and compiles every step into a closure that reads its
    operands from preassigned pool views and writes its result into its
    own — steady-state replay performs zero result-buffer allocations and
    ``dispatch_count`` Python dispatches (vs one per graph node for the
    interpreter).  Outputs are bit-identical to the eager evaluator: a
    single-node step calls its op's row function — the one the eager
    method calls — on arena views, and the fused accumulations are exact
    by deferred-reduction canonicity (see :mod:`repro.runtime.passes`).

    The executor (pool included) is per-process state — forked workers
    inherit it copy-on-write when the parent lowered before forking;
    nothing here crosses the worker boundary or the ``EPL1`` format.

    Thread safety: the arena is shared by every replay, so one replay
    (its steps plus the copy-out of its outputs) holds ``_replay_lock``;
    concurrent callers queue behind it and each gets its own bytes.
    """

    def __init__(self, plan: ExecutionPlan) -> None:
        self.plan = plan
        self._basis = plan.evaluator.basis
        self._engine = plan.evaluator.keyswitch
        self._replay_lock = threading.Lock()
        _LIVE_EXECUTORS.add(self)
        g = plan.graph
        self.groups = fusion_groups(g)
        by_anchor = {grp.anchor: grp for grp in self.groups}
        covered = {m for grp in self.groups for m in grp.members}

        schedule: list[tuple[str, object]] = []
        arena_steps: list[ArenaStep] = []
        for node in g.nodes:
            grp = by_anchor.get(node.id)
            if grp is not None:
                schedule.append(("group", grp))
                arena_steps.append(self._arena_step_for_group(grp, g))
            elif node.id in covered:
                continue
            elif node.op in ("input", "pt_input"):
                schedule.append(("node", node))
                arena_steps.append(ArenaStep(produced=(), consumed=()))
            else:
                schedule.append(("node", node))
                arena_steps.append(
                    ArenaStep(
                        produced=((node.id, node.size),), consumed=node.inputs
                    )
                )
        level = max(
            (
                g.nodes[nid].level
                for step in arena_steps
                for nid, _ in step.produced
            ),
            default=1,
        )
        self.layout = ArenaLayout.plan(
            arena_steps, g.outputs, level=level, degree=self._basis.degree
        )
        self.arena = BufferArena(self.layout)
        self.arena.ensure()
        self._views = {
            nid: self.arena.views(nid, g.nodes[nid].level)
            for nid in self.layout.slots
        }
        template: list = [None] * len(g.nodes)
        for nid, views in self._views.items():
            template[nid] = views
        self._template = template
        self._steps = [
            self._lower_group(obj) if kind == "group" else self._lower_raw(obj)
            for kind, obj in schedule
        ]
        # Stable per-step labels for traced replay: fused groups by
        # kind@anchor, raw nodes by op@id — deterministic per plan.
        self._step_labels = [
            f"{obj.kind}@{obj.anchor}" if kind == "group" else f"{obj.op}@{obj.id}"
            for kind, obj in schedule
        ]
        telemetry = get_telemetry()
        self._telemetry = telemetry
        self._metrics = telemetry.group(
            "fused", plan=plan.signature[:12]
        ).declare("replays", "dispatches")
        self._out_build = []
        for o in g.outputs:
            node = g.nodes[o]
            if node.op in ("input", "pt_input"):
                self._out_build.append((None, node.attrs[0], None, None))
            else:
                self._out_build.append((o, None, node.scale, node.level))

    @property
    def dispatch_count(self) -> int:
        """Python dispatches (schedule steps) per replay."""
        return len(self._steps)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run_batch(self, batches) -> list[list[Ciphertext]]:
        telemetry = self._telemetry
        results = []
        for inputs in batches:
            self.plan._check_inputs(inputs)
            env = self._template.copy()
            with self._replay_lock, ufunc_buffer():
                if telemetry.enabled:
                    self._run_steps_traced(telemetry, env, inputs)
                else:
                    for fn in self._steps:
                        fn(env, inputs)
                results.append(self._collect(inputs))
        if batches:
            self._metrics.inc("replays", len(batches))
            self._metrics.inc("dispatches", len(self._steps) * len(batches))
        return results

    def _run_steps_traced(self, telemetry, env, inputs) -> None:
        """One replay under tracing: a root span per replay with one
        child span per fused step.  Only reached when telemetry is
        enabled."""
        root = telemetry.start_trace(
            "fused_replay",
            category="replay",
            plan=self.plan.signature[:12],
            arena_slots=self.layout.num_slots,
            arena_peak_bytes=self.layout.pool_bytes,
        )
        try:
            for fn, label in zip(self._steps, self._step_labels):
                with telemetry.child_span(label, root.ctx, category="replay"):
                    fn(env, inputs)
        finally:
            root.end(dispatches=len(self._steps))

    def _collect(self, inputs) -> list[Ciphertext]:
        basis = self._basis
        outs = []
        for nid, input_index, scale, _level in self._out_build:
            if nid is None:
                outs.append(inputs[input_index])
                continue
            parts = [
                RnsPolynomial(basis, v.copy(), EVAL)
                for v in self._views[nid]
            ]
            outs.append(Ciphertext(parts=parts, scale=scale))
        return outs

    # ------------------------------------------------------------------
    # Lowering
    # ------------------------------------------------------------------

    @staticmethod
    def _arena_step_for_group(grp, g: Graph) -> ArenaStep:
        return ArenaStep(
            produced=tuple((m, g.nodes[m].size) for m in grp.outputs),
            consumed=grp.sources,
        )

    def _lower_group(self, grp):
        g = self.plan.graph
        if grp.kind == "automorphisms":
            return self._lower_family(grp)
        root = g.nodes[grp.anchor]
        lvl = root.level
        kern = self._basis.kernel(lvl)
        views = self._views[root.id]
        srcs = grp.sources
        if grp.kind == "mac":
            # Per-term multiplies against the diagonals' plain residues,
            # summed unreduced: the same canonical result as the eager
            # multiply/add tree (see ReducerKernel.mul_accumulate_halves).
            # Each output's diagonals are one (S, 1, L, N) stack — a view
            # of its giant group's encode buffer when they are one evenly
            # strided run of it — broadcast over both parts of the
            # (S, P, L, N) sources, which a replay stacks and splits once,
            # in cache-sized blocks of rows run in lanes; then the outputs
            # run in lanes, each reading its stack once and copying its
            # sums into the output's arena rows.
            k, parts = len(srcs), len(views)
            diags = [
                plain_rows(g.consts[g.nodes[t].consts[0]], lvl) for t in grp.payload
            ]
            consts = []
            for o in range(0, len(diags), k):
                run = diags[o : o + k]
                stack = _strided(run)
                stack = np.stack(run) if stack is None else stack
                consts.append([stack[:, np.newaxis]])
            outs = [self._views[o] for o in grp.outputs]

            def mac_step(env, inputs):
                rows = [env[s][i][:lvl] for s in srcs for i in range(parts)]
                halves = np.empty((2, len(rows), *rows[0].shape), np.uint64)

                def split(blocks):
                    for b in blocks:
                        hi, lo = halves[:, b]
                        np.stack(rows[b], out=hi)
                        kern.split_rows(hi, out=(hi, lo))

                in_lanes(BatchNtt.row_blocks(len(rows), rows[0].nbytes), split)
                halves = halves.reshape(2, k, parts, *rows[0].shape)

                def lane(mine):
                    sums = kern.mul_accumulate_halves(
                        [halves], [consts[o] for o in mine]
                    )
                    for o, sum_ in zip(mine, sums):
                        for view, row in zip(outs[o], sum_):
                            np.copyto(view, row)

                in_lanes(range(len(outs)), lane)

            return mac_step

        # Canonical residues are unique, so a raw uint64 sum of canonical
        # terms reduced once gives the bytes of the eager binary add chain;
        # past the term budget the partial sum is reduced in place and
        # counts as one term.
        chunk = kern.term_budget - 1
        # Allocated once, at lower time: replays hold the replay lock and
        # the accumulator is dead when the step ends.
        acc = np.empty((lvl, self._basis.degree), dtype=np.uint64)

        def sum_step(env, inputs):
            a_ = acc  # local alias: += must not rebind the closure cell
            for i, v in enumerate(views):
                np.copyto(a_, env[srcs[0]][i][:lvl])
                for t in range(1, len(srcs)):
                    if t % chunk == 0:
                        kern.reduce(a_, out=a_)
                    a_ += env[srcs[t]][i][:lvl]
                kern.reduce(a_, out=v)

        return sum_step

    def _lower_family(self, grp):
        """One gadget decomposition of the stacked ``(S, L, N)`` part-1
        rows of the family's ``S`` sources, then each member's
        contraction against its source's slice — the members in lanes,
        each writing only its own views."""
        g = self.plan.graph
        srcs = grp.sources
        lvl = g.nodes[srcs[0]].level
        kern = self._basis.kernel(lvl)
        engine = self._engine
        members = []
        for m in grp.members:
            node = g.nodes[m]
            perm = galois_permutation(self._basis.degree, node.attrs[-1])
            k = srcs.index(node.inputs[0])
            members.append((k, g.consts[node.consts[0]], perm, self._views[m]))

        def family_step(env, inputs):
            parts = [env[s] for s in srcs]
            dec = engine.decompose_rows(np.stack([p[1][:lvl] for p in parts]))

            def lane(mine):
                for k, key, perm, views in mine:
                    galois_rows(kern, engine, parts[k], key, perm, views, dec[k])

            in_lanes(members, lane)

        return family_step

    def _lower_raw(self, node: Node):
        """One node -> one closure calling its op's row function — the one
        its :class:`Evaluator` method calls — on the operands' buffers,
        the node's constants (pre-formed here) and its own arena views."""
        g = self.plan.graph
        op, nid, ids = node.op, node.id, node.inputs
        if op in ("input", "pt_input"):
            index = node.attrs[0]
            if op == "pt_input":  # a Plaintext: its consumer binds its rows

                def pt_step(env, inputs):
                    env[nid] = inputs[index]

                return pt_step

            def input_step(env, inputs):
                env[nid] = [p.data for p in inputs[index].parts]

            return input_step

        views = self._views[nid]
        lvl = node.level
        kern = self._basis.kernel(lvl)
        engine = self._engine
        a = ids[0]
        if op in ("add", "sub"):
            b, subtract = ids[1], op == "sub"

            def add_step(env, inputs):
                add_rows(kern, env[a], env[b], views, subtract)

            return add_step
        if op == "negate":

            def negate_step(env, inputs):
                negate_rows(kern, env[a], views)

            return negate_step
        if op == "multiply":
            b = ids[1]

            def multiply_step(env, inputs):
                multiply_rows(kern, env[a], env[b], views)

            return multiply_step
        if op in ("add_plain", "multiply_plain"):
            row = add_plain_rows if op == "add_plain" else multiply_plain_rows
            pre = kern if op == "multiply_plain" else None
            if len(ids) == 2:  # a plaintext input, bound at each replay
                p = ids[1]

                def plain_input_step(env, inputs):
                    row(kern, env[a], plain_rows(env[p], lvl, pre), views)

                return plain_input_step
            m = plain_rows(g.consts[node.consts[0]], lvl, pre)

            def plain_step(env, inputs):
                row(kern, env[a], m, views)

            return plain_step
        if op == "rescale":
            basis, times = self._basis, node.attrs[0]

            def rescale_step(env, inputs):
                rescale_eval_rows(kern, basis, env[a], times, views)

            return rescale_step
        if op == "relinearize":
            key = g.consts[node.consts[0]]

            def relinearize_step(env, inputs):
                relinearize_rows(kern, engine, env[a], key, views)

            return relinearize_step
        raise AssertionError(f"unschedulable op {op!r}")


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


def compile_graph(graph: Graph, evaluator: Evaluator) -> ExecutionPlan:
    """Optimize and schedule a traced graph into a new plan."""
    return ExecutionPlan(
        graph=optimize(graph), evaluator=evaluator, signature=graph.signature()
    )


def compile_fn(fn, evaluator: Evaluator, input_specs):
    """Trace ``fn`` and compile it in one step (the common entry point)."""
    return compile_graph(trace(fn, evaluator, input_specs), evaluator)

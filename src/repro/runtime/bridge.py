"""Bridge from traced execution plans to the accelerator cost model.

The :mod:`repro.accel` simulator and :class:`~repro.accel.scheduler.RscScheduler`
were seeded with hand-written analytic workloads (fixed op counts per
task).  This module derives the same quantities from a *real* traced
plan, so Figure-style scheduler and workload experiments can run on the
programs the runtime actually executes:

* :func:`plan_op_counts` — the server-side op histogram of a plan turned
  into the accelerator's multiplier-bound :class:`~repro.accel.workload.OpCounts`
  accounting (NTT butterflies for every transform the executor issues,
  RNS digit expansions for key switching, element-wise MACs in
  ``other_ops``);
* :func:`plan_to_workload` — the *client-side* :class:`ClientWorkload`
  implied by a plan's boundary: inputs must be encoded+encrypted at the
  plan's input level, outputs decoded+decrypted at its output level;
* :func:`plan_to_request_queue` — a :class:`RequestQueue` for ``requests``
  replays of the plan, ready for ``RscScheduler.compare``.

Accounting follows :mod:`repro.accel.workload`'s documented rules: one
modular butterfly = 1 op, RNS expansion = 1 op per (coefficient, limb),
element-wise MACs ride in ``other_ops``.

Contract (see ``docs/architecture.md``): pure analysis over an
in-process plan — no process-level caches, nothing fork-shared, nothing
crossing the worker boundary.  Because a deserialized plan preserves the
full op DAG and metadata, these projections give identical results for a
plan loaded from an ``EPL1`` artifact and for the plan it was serialized
from.
"""

from __future__ import annotations

from repro.accel.scheduler import RequestQueue
from repro.accel.workload import ClientWorkload, OpCounts
from repro.runtime.graph import AUTOMORPHISM_OPS
from repro.runtime.plan import ExecutionPlan
from repro.utils.bitops import ilog2

__all__ = [
    "plan_op_counts",
    "plan_to_workload",
    "plan_to_request_queue",
    "plan_schedule_comparison",
]


def _ntt_butterflies(degree: int) -> int:
    """Butterflies in one N-point merged negacyclic NTT pass."""
    return (degree // 2) * ilog2(degree)


def plan_op_counts(plan: ExecutionPlan) -> OpCounts:
    """Multiplier-bound op tally for one execution of a plan.

    Walks the scheduled nodes and charges each one the transforms and
    element-wise work the fused replay issues — including the hoisting
    discount: every automorphism of one source shares its gadget
    decomposition (L inverse-NTT rows + L*L forward-NTT rows), paid once
    per distinct source, not once per rotation.
    """
    g = plan.graph
    n = plan.evaluator.basis.degree
    bfly = _ntt_butterflies(n)
    ntt = rns = other = 0
    decomposed: set[int] = set()
    for node in g.nodes:
        lvl = node.level
        if node.op in ("input", "pt_input"):
            continue
        if node.op in ("add", "sub", "negate"):
            other += node.size * lvl * n
        elif node.op == "add_plain":
            other += lvl * n
        elif node.op == "multiply_plain":
            other += node.size * lvl * n
        elif node.op == "multiply":
            other += 4 * lvl * n  # a0b0, a0b1, a1b0, a1b1 limb-wise MACs
        elif node.op == "rescale":
            times = node.attrs[0]
            # Per part (rescale_eval_rows): an inverse pass over the
            # ``times`` dropped rows, a forward pass over the kept ones,
            # plus the fold-in MACs.
            ntt += node.size * (times + lvl) * bfly
            rns += node.size * times * lvl * n
            other += node.size * lvl * n
        elif node.op == "relinearize" or node.op in AUTOMORPHISM_OPS:
            src = node.inputs[0]
            shared = node.op in AUTOMORPHISM_OPS
            if not shared or src not in decomposed:
                # Gadget decomposition: inverse NTT of the source (L rows),
                # digit re-reduction (L*L residues per coefficient), and
                # the forward batch NTT over all L*L digit rows.
                ntt += lvl * bfly + lvl * lvl * bfly
                rns += lvl * lvl * n
                if shared:
                    decomposed.add(src)
            # Key contraction: two fused MACs over the (L, L, N) tensors.
            other += 2 * lvl * lvl * n
        # input/pt_input handled above; unknown ops were rejected at
        # compile time by check_alignment.
    return OpCounts(fft_ops=0, ntt_ops=ntt, rns_ops=rns, other_ops=other)


def plan_to_workload(plan: ExecutionPlan, degree: int | None = None) -> ClientWorkload:
    """The client-side workload implied by a plan's I/O boundary.

    Inputs enter at the plan's (maximum) input level — that is what the
    client must encode+encrypt to — and outputs leave at the plan's
    (minimum) output level — what the client decodes+decrypts.  Pass
    ``degree`` to project the same program shape onto the paper's
    bootstrappable ring instead of the traced toy ring.
    """
    g = plan.graph
    enc_levels = max(
        (g.nodes[i].level for i in g.input_ids if g.nodes[i].kind == "ct"),
        default=1,
    )
    dec_levels = min(g.nodes[o].level for o in g.outputs)
    return ClientWorkload(
        degree=degree if degree is not None else plan.evaluator.basis.degree,
        enc_levels=enc_levels,
        dec_levels=dec_levels,
    )


def plan_to_request_queue(
    plan: ExecutionPlan, requests: int = 1, *, failures: int = 0
) -> RequestQueue:
    """Client task queue for ``requests`` replays of the plan.

    Every replay makes the client encode+encrypt one ciphertext per plan
    input and decode+decrypt one per plan output; feeding the result to
    :meth:`repro.accel.scheduler.RscScheduler.compare` runs the paper's
    scheduling-policy experiment on a real traced program instead of an
    analytic queue.

    ``failures`` counts requests that entered the engine but never
    produced a result (deadline-failed, poisoned).  They still cost the
    client their encode+encrypt — the upload happened before the failure
    — but never reach decode+decrypt, so the two queue legs diverge
    exactly the way a faulted serving run does.
    """
    if failures < 0:
        raise ValueError("failures must be >= 0")
    num_ct_inputs = sum(
        1 for i in plan.graph.input_ids if plan.graph.nodes[i].kind == "ct"
    )
    return RequestQueue(
        encode_encrypt=(requests + failures) * num_ct_inputs,
        decode_decrypt=requests * plan.num_outputs,
    )


def plan_schedule_comparison(
    plan: ExecutionPlan,
    requests: int,
    config=None,
    degree: int | None = None,
    *,
    failures: int = 0,
):
    """Schedule ``requests`` replays of a plan on the dual RSCs.

    Builds the client-side queue and workload a served plan implies and
    runs every :class:`~repro.accel.scheduler.RscScheduler` policy on it
    (best makespan first) — the accelerator-side counterpart of the
    software serving engine's measured queue, so a served run's counts
    (requests that returned, requests that failed) can sit next to the
    paper's dual-RSC scheduling policies.
    ``failures`` projects failed requests onto the queue the same way
    :func:`plan_to_request_queue` does (encrypt leg only).
    """
    from repro.accel.config import abc_fhe
    from repro.accel.scheduler import RscScheduler

    scheduler = RscScheduler(
        config=config if config is not None else abc_fhe(),
        workload=plan_to_workload(plan, degree=degree),
    )
    return scheduler.compare(
        plan_to_request_queue(plan, requests=requests, failures=failures)
    )

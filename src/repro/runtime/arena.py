"""Buffer arena: slot-preassigned storage for fused plan replay.

The batched replayer already releases intermediates by ref-count, but it
still *allocates* a fresh ``(L, N)`` array for every produced part of
every node on every replay — at N=2^10/L=10 that is hundreds of numpy
allocations per ciphertext, and the allocator shows up right next to
Python dispatch in the profile.  This module moves that cost to lower
time: :meth:`ArenaLayout.plan` walks the (fused) topo schedule with the
same ref-counts the release machinery uses and preassigns every
intermediate to a *slot* in one preallocated ``(slots, L, N)`` uint64
pool.  A slot is reused only after the last consumer of its previous
tenant has executed, so aliasing is provably safe (and property-tested);
steady-state replay then performs **zero** result-buffer allocations —
every fused kernel writes straight into its preassigned views.  (Kernel
and NTT temporaries remain: ``BatchNtt`` copies its input internally by
design.)

Contract (mirrors the other runtime modules): an :class:`ArenaLayout` is
immutable plan metadata — pure ints derived from the graph, safe to hash,
share, or recompute anywhere.  A :class:`BufferArena` is the *mutable*
per-executor pool: it lives in exactly one process, is inherited
copy-on-write by forked serving workers when the parent lowered (warmed)
the plan before the fork, and never crosses a worker boundary — ``EPL1``
artifacts carry no arena state; a deserialized plan re-derives its layout
at lower time on the replaying host.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["ArenaStep", "ArenaLayout", "BufferArena"]


@dataclass(frozen=True)
class ArenaStep:
    """One schedule step's storage events, in execution order.

    Attributes:
        produced: ``(node_id, num_buffers)`` pairs materialized by this
            step (``num_buffers`` = ciphertext part count).  Empty for
            graph inputs, which live outside the arena.
        consumed: node ids this step reads (duplicates count — a node
            consumed twice by one step decrements its ref-count twice,
            matching :meth:`Graph.consumer_counts`).
    """

    produced: tuple[tuple[int, int], ...]
    consumed: tuple[int, ...] = ()


@dataclass(frozen=True)
class ArenaLayout:
    """Immutable slot assignment for every arena-resident buffer.

    ``slots[node_id]`` lists the pool slots holding that node's parts.
    Liveness discipline: a step's slots are allocated *before* its
    consumed refs are decremented, so a node never writes into a slot
    still owned by one of its own inputs — fused kernels may therefore
    read operand views and write result views in any order.
    """

    slots: dict[int, tuple[int, ...]] = field(repr=False)
    num_slots: int
    level: int
    degree: int

    @classmethod
    def plan(
        cls,
        steps: list[ArenaStep] | tuple[ArenaStep, ...],
        outputs,
        *,
        level: int,
        degree: int,
    ) -> "ArenaLayout":
        """Greedy first-fit slot assignment over a topo schedule.

        ``outputs`` are pinned: each output node carries one extra ref
        that is never released, so its slots survive the whole replay
        (the executor copies them out before the next replay reuses the
        pool).
        """
        refs: dict[int, int] = {}
        for step in steps:
            for nid in step.consumed:
                refs[nid] = refs.get(nid, 0) + 1
        for nid in outputs:
            refs[nid] = refs.get(nid, 0) + 1

        slots: dict[int, tuple[int, ...]] = {}
        free: list[int] = []
        next_slot = 0
        for step in steps:
            # Allocate-before-free: freeing this step's dying inputs
            # first would let a result slot alias a live operand.
            for nid, parts in step.produced:
                mine = []
                for _ in range(parts):
                    if free:
                        mine.append(free.pop())
                    else:
                        mine.append(next_slot)
                        next_slot += 1
                slots[nid] = tuple(mine)
            for nid in step.consumed:
                refs[nid] -= 1
                if refs[nid] == 0 and nid in slots:
                    free.extend(slots[nid])
        return cls(slots=slots, num_slots=next_slot, level=level, degree=degree)

    @property
    def slot_bytes(self) -> int:
        """Bytes per pool slot (one full-level uint64 residue matrix)."""
        return self.level * self.degree * 8

    @property
    def pool_bytes(self) -> int:
        """Peak resident bytes of the whole pool."""
        return self.num_slots * self.slot_bytes


class BufferArena:
    """The preallocated pool an :class:`ArenaLayout` indexes into.

    One contiguous ``(num_slots, level, degree)`` uint64 numpy array,
    allocated once on first :meth:`ensure` and reused for every
    subsequent replay.  ``allocations`` counts pool
    allocations so tests can assert steady-state replay performs none.
    """

    def __init__(self, layout: ArenaLayout) -> None:
        self.layout = layout
        self.pool = None
        self.allocations = 0

    def ensure(self):
        """Allocate the pool if needed; returns it (stable identity)."""
        if self.pool is None:
            self.pool = np.empty(
                (self.layout.num_slots, self.layout.level, self.layout.degree),
                dtype=np.uint64,
            )
            self.allocations += 1
        return self.pool

    def views(self, node_id: int, level: int):
        """The node's part buffers, trimmed to its level (zero-copy)."""
        pool = self.ensure()
        return [pool[s, :level] for s in self.layout.slots[node_id]]

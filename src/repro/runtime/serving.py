"""Unified serving surface: one frozen config, one facade.

Everything needed to stand up a pool, and the only keyword surface:

* :class:`ServingConfig` — a frozen dataclass holding every serving
  knob (pool shape, transport, execution mode, fault policy, chaos).
  Immutable and hashable.
* :func:`serve` — the facade: takes a compiled
  :class:`~repro.runtime.plan.ExecutionPlan` and returns the configured
  :class:`~repro.runtime.executor.ShardedExecutor` itself — ``start`` /
  ``submit`` / ``run_batch`` / ``stats`` / ``close``, and ``with``.

Contract (see ``docs/architecture.md``): pure parent-process
configuration — nothing here crosses the worker boundary except as
fields already covered by the executor's contract (policy/chaos values,
pool shape).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.runtime.chaos import FaultPlan
from repro.runtime.faults import FaultPolicy, check_count
from repro.runtime.plan import ExecutionPlan
from repro.runtime.transport import available_transports

if TYPE_CHECKING:
    from repro.runtime.executor import ShardedExecutor

__all__ = ["ServingConfig", "serve"]


@dataclass(frozen=True)
class ServingConfig:
    """Every serving knob in one immutable value.

    Attributes:
        num_workers: pool size, >= 1: every request is served by a worker.
        transport: worker-boundary transport — ``"pipe"`` (fork+pipe,
            default: workers inherit the warm plan) or ``"tcp"``
            (worker-host sessions over sockets, the one that runs across
            machines: every host gets the plan as ``EPL1`` bytes; see
            ``docs/serving.md``).
        hosts: worker hosts for the ``tcp`` transport (slots are
            assigned round-robin); ``pipe`` refuses anything but ``1``.
            Either an ``int`` count of hosts the coordinator forks, or a
            tuple of specs mixing ``"local"`` (forked) and
            ``"tcp://host:port"`` (a host started via
            ``python -m repro.runtime.worker_host``; requires
            ``authkey_file``).
        authkey_file: path to the shared session authkey file for
            remote ``tcp://`` hosts — the same file the host was started
            with (``--authkey-file``).  ``None`` (the default) keeps a
            per-run random key in memory; ``pipe`` refuses it.
        fused: replay through the arena-backed fused executor;
            ``False`` = through the reference interpreter — same bits.
        fault_policy: deadlines / hang detection / retry budget /
            breaker behaviour (``None`` = :class:`FaultPolicy` defaults).
        chaos: deterministic fault injection plan (tests/benches only).
        max_crash_respawns: pool-lifetime crash budget override.
    """

    num_workers: int = 2
    transport: str = "pipe"
    hosts: int | tuple = 1
    authkey_file: str | None = None
    fused: bool = True
    fault_policy: FaultPolicy | None = None
    chaos: FaultPlan | None = None
    max_crash_respawns: int | None = None

    def __post_init__(self) -> None:
        check_count("num_workers", self.num_workers, 1)
        if self.max_crash_respawns is not None:
            check_count("max_crash_respawns", self.max_crash_respawns, 0)
        if self.transport not in available_transports():
            raise ValueError(
                f"unknown transport {self.transport!r}; "
                f"known: {', '.join(available_transports())}"
            )
        if isinstance(self.hosts, list):
            object.__setattr__(self, "hosts", tuple(self.hosts))
        if self.transport == "pipe":
            if self.hosts != 1 or self.authkey_file is not None:
                raise ValueError(
                    "hosts= and authkey_file= configure tcp worker hosts; "
                    "the pipe transport has none (use transport='tcp')"
                )
        elif isinstance(self.hosts, int):
            if self.hosts < 1:
                raise ValueError("hosts must be >= 1")
        else:
            from repro.runtime.coordinator import parse_host_specs

            specs = parse_host_specs(self.hosts)
            if self.authkey_file is None and any(s is not None for s in specs):
                raise ValueError(
                    "remote tcp:// hosts require authkey_file= (the "
                    "file the worker host was started with)"
                )

    def replace(self, **changes) -> "ServingConfig":
        return dataclasses.replace(self, **changes)


def serve(
    plan: ExecutionPlan,
    config: ServingConfig | None = None,
    *,
    warm_inputs=None,
) -> ShardedExecutor:
    """Build the :class:`~repro.runtime.executor.ShardedExecutor` serving
    a compiled plan (started by ``start()``, ``with`` or the first
    ``submit``).

    Args:
        plan: a compiled :class:`ExecutionPlan`
            (:func:`~repro.runtime.plan.compile_fn`).
        config: the :class:`ServingConfig`; ``None`` means defaults.
        warm_inputs: optional real inputs replayed once in the parent
            before the first fork, warming every fork-shared cache.
    """
    if not isinstance(plan, ExecutionPlan):
        raise TypeError(f"serve() takes an ExecutionPlan, got {type(plan).__name__}")
    if config is None:
        config = ServingConfig()
    from repro.runtime.executor import ShardedExecutor

    return ShardedExecutor(plan, config=config, warm_inputs=warm_inputs)

"""The pool's policy as a pure state machine: events in, actions out.

Every *decision* :class:`~repro.runtime.executor.ShardedExecutor` makes
lives here — queue order, dispatch, stale-reply rejection, the retry
budget and its seeded backoff, quarantine, deadline expiry, heartbeat
staleness, crash accounting, the crash-loop breaker that stops the pool,
cancellation.  Each event method of
:class:`PoolMachine` takes the clock reading ``now``, mutates private
tables and returns the actions its driver must carry out, in that order.
It owns no thread, process, socket, future, span or byte, so the transition
table of ``docs/architecture.md`` is model-checked under a fake clock.

A request is queued, backing off, in flight on one worker, or finished —
exactly once, by the :class:`Finish` every submit is answered with,
whatever the pool's mode.  A worker is any hashable handle of the
driver's (its ``str()`` names it in failure causes).  Contract: parent
state owned by the executor's I/O thread; nothing here is fork-shared or
crosses the worker boundary.
"""

from __future__ import annotations

import heapq
from collections import deque, namedtuple

from repro.runtime import faults

__all__ = "PoolMachine Dispatch Kill Spawn Retry Finish Stop".split()

#: Send ``req_id``'s ``attempt`` (0-based) to idle ``worker``.
Dispatch = namedtuple("Dispatch", "worker req_id attempt")
#: Retire ``worker``, which the machine has forgotten: dead already (``crash``)
#: or to be stopped by force (``hang`` / ``deadline`` / ``breaker``).
Kill = namedtuple("Kill", "worker reason req_id")
#: Bring up one replacement, then report ``spawned`` or ``spawn_failed``.
Spawn = namedtuple("Spawn", "reason")
#: For the record: ``req_id``'s ``attempt``-th dispatch failed with fault ``code``
#: and re-enters the queue in ``delay`` s (the timer is the machine's).
Retry = namedtuple("Retry", "req_id attempt delay code")
#: The one ending of ``req_id``: ``ok`` / ``error`` / ``deadline`` /
#: ``poisoned`` / ``breaker`` / ``closed`` / ``cancelled``.
Finish = namedtuple(
    "Finish", "req_id status attempts causes error", defaults=((), None)
)
#: The breaker tripped: refuse from now on.
Stop = namedtuple("Stop", "reason")


class _Request:
    def __init__(self, req_id: int, now: float) -> None:
        self.id = req_id
        self.submitted_at = now
        self.attempts = 0  # dispatches so far
        self.causes: list[str] = []  # one line per failed attempt


class _Slot:
    busy: tuple[int, int] | None = None  # (req_id, attempt) in flight
    last_beat = 0.0

    @property
    def req_id(self) -> int | None:
        return self.busy[0] if self.busy else None


class PoolMachine:
    """One pool's request and worker tables and the rules that move them: a
    :class:`~repro.runtime.faults.FaultPolicy` and the pool's crash budget."""

    def __init__(self, policy: faults.FaultPolicy, max_crashes: int) -> None:
        self.policy = policy
        self.max_crashes = max_crashes
        self.mode = "running"  # -> "stopped" | "closed"
        self._reason = ""  # why the breaker tripped
        self._requests: dict[int, _Request] = {}
        self._workers: dict[object, _Slot] = {}
        # Ids wait in these three and leave them lazily: one no longer in
        # ``_requests`` (cancelled, expired) is skipped when it surfaces.
        self._queue: deque[int] = deque()
        self._delayed: list[tuple[float, int]] = []  # (ready_at, req_id) heap
        self._deadlines: list[tuple[float, int]] = []  # (deadline_at, req_id) heap
        self._crashes = self._streak = 0  # in all / in a row with no good reply

    # -- read-only views ------------------------------------------------

    @property
    def pending(self) -> int:
        """Live requests not on a worker (queued or backing off)."""
        held = [s for s in self._workers.values() if s.req_id in self._requests]
        return len(self._requests) - len(held)

    def in_flight(self, worker) -> tuple[int, int] | None:
        """The ``(req_id, attempt)`` that ``worker`` holds, if any."""
        slot = self._workers.get(worker)
        return slot.busy if slot is not None else None

    def _beats(self) -> list[float]:
        return [slot.last_beat for slot in self._workers.values() if slot.busy]

    def next_wake(self, now: float) -> float | None:
        """Seconds to the earliest backoff, deadline or hang expiry, if any."""
        times = [heap[0][0] for heap in (self._delayed, self._deadlines) if heap]
        if self.policy.hang_timeout_s is not None:
            times += [beat + self.policy.hang_timeout_s for beat in self._beats()]
        return max(0.0, min(times) - now) if times else None

    # -- events ---------------------------------------------------------

    def submit(self, now: float, req_id: int, deadline_s=None, submitted_at=None):
        """A new request; ``deadline_s`` (``None`` = the policy's) bounds its
        total time — queue wait plus every attempt — from ``submitted_at``
        (``None`` = ``now``: its way here took no time)."""
        if self.mode != "running":
            return [self._refuse(req_id, 0)]
        since = now if submitted_at is None else submitted_at
        self._requests[req_id] = _Request(req_id, since)
        self._queue.append(req_id)
        if deadline_s is None:
            deadline_s = self.policy.deadline_s
        if deadline_s is not None:
            heapq.heappush(self._deadlines, (since + deadline_s, req_id))
        return self._dispatch(now)

    def cancel(self, now: float, req_id: int):
        """Queued or backing off, the request is never sent; in flight,
        its worker is left to finish and the reply discarded."""
        req = self._requests.pop(req_id, None)
        return [] if req is None else [Finish(req_id, "cancelled", req.attempts)]

    def reply(self, now: float, worker, req_id: int, attempt: int, fault=None):
        """``worker`` answered: ``fault`` is ``None`` for a good reply, a
        ``WireCorruption`` for one that failed its CRC on either side (retried:
        the parent's bytes are intact), any other typed error for a terminal
        one.  A reply not for what the worker holds now — late, duplicated, a
        superseded attempt's — changes nothing."""
        if self.in_flight(worker) != (req_id, attempt):
            return []
        self._workers[worker].busy = None
        actions: list = []
        req = self._requests.get(req_id)
        if req is None:
            pass  # cancelled in flight: drained
        elif fault is None:
            self._streak = 0
            actions.append(self._finish(req, "ok"))
        elif isinstance(fault, faults.WireCorruption):
            self._fail_attempt(now, req, str(fault), fault, actions)
        else:
            fault.attempts = req.attempts
            actions.append(self._finish(req, "error", fault))
        return actions + self._dispatch(now)

    def heartbeat(self, now: float, worker, req_id: int, attempt: int):
        """``worker`` is alive and still on ``(req_id, attempt)``."""
        if self.in_flight(worker) == (req_id, attempt):
            self._workers[worker].last_beat = now
        return []

    def worker_lost(self, now: float, worker, delivered: bool = True):
        """``worker`` died on its own — an EOF or, not ``delivered``, a dead
        pipe under the send: retry what it held, replace it or trip the breaker."""
        slot = self._workers.pop(worker, None)
        if slot is None:
            return []
        actions: list = [Kill(worker, "crash", slot.req_id if delivered else None)]
        self._crashes += 1
        self._streak += 1
        req = self._requests.get(slot.req_id)
        if req is not None and not delivered:
            # The attempt never started: back to the front, uncharged.
            req.attempts -= 1
            self._queue.appendleft(req.id)
        elif req is not None:
            cause = f"worker {worker} crashed on attempt {req.attempts}"
            self._fail_attempt(now, req, cause, faults.WorkerCrash, actions)
        if self._crashes > self.max_crashes:
            why = f"pool exceeded {self.max_crashes} worker crashes"
        elif self._streak >= self.policy.crash_loop_threshold:
            why = (
                f"{self._streak} consecutive worker crashes with no completed "
                "request (crash loop)"
            )
        else:
            return actions + [Spawn("crash")] + self._dispatch(now)
        return actions + self._trip(why)

    def spawned(self, now: float, worker):
        """A worker came up (at start, or answering a :class:`Spawn`)."""
        if self.mode != "running":
            return [Kill(worker, "breaker", None)]  # asked for before the trip
        self._workers[worker] = _Slot()
        return self._dispatch(now)

    def spawn_failed(self, now: float, why: str):
        """A :class:`Spawn` failed (an unreachable host): the breaker trips."""
        return self._trip(why) if self.mode == "running" else []

    def tick(self, now: float):
        """Run the timers: deadlines expire (never retried: the deadline
        covered the retries); a busy worker that stopped beating is hung;
        backoff-expired retries go to the *front* of the queue; what is
        ready is handed out."""
        actions: list = []
        while self._deadlines and self._deadlines[0][0] < now:
            req = self._requests.get(heapq.heappop(self._deadlines)[1])
            if req is None:
                continue
            holders = [w for w, slot in self._workers.items() if slot.req_id == req.id]
            for worker in holders:
                # The worker is stuck on this request past its budget; the
                # only way to reclaim it is to replace the process.
                del self._workers[worker]
                actions += [Kill(worker, "deadline", req.id), Spawn("deadline")]
            error = faults.DeadlineExceeded(
                f"request {req.id} exceeded its {now - req.submitted_at:.3f}s "
                f"deadline after {req.attempts} attempt(s)",
                request_id=req.id,
                attempts=req.attempts,
            )
            actions.append(self._finish(req, "deadline", error))
        limit = self.policy.hang_timeout_s
        for worker, slot in list(self._workers.items()):
            if limit is None or not slot.busy or now - slot.last_beat <= limit:
                continue
            del self._workers[worker]
            actions.append(Kill(worker, "hang", slot.req_id))
            req = self._requests.get(slot.req_id)
            if req is not None:
                cause = (
                    f"worker {worker} hung (no heartbeat for {limit:g}s) "
                    f"on attempt {req.attempts}"
                )
                self._fail_attempt(now, req, cause, faults.WorkerHang, actions)
            actions.append(Spawn("hang"))
        due = []
        while self._delayed and self._delayed[0][0] <= now:
            due.append(heapq.heappop(self._delayed)[1])
        self._queue.extendleft(reversed(due))
        return actions + self._dispatch(now)

    def close(self, now: float):
        """The pool is shutting down: everything outstanding fails."""
        self.mode = "closed"
        return self._refuse_all()

    # -- transitions ----------------------------------------------------

    def _dispatch(self, now: float) -> list:
        actions = []
        for worker, slot in self._workers.items():
            req = None
            while not slot.busy and req is None and self._queue:
                req = self._requests.get(self._queue.popleft())
            if req is not None:
                req.attempts += 1
                slot.busy = (req.id, req.attempts - 1)
                slot.last_beat = now
                actions.append(Dispatch(worker, *slot.busy))
        return actions

    def _finish(self, req: _Request, status: str, error=None):
        del self._requests[req.id]
        return Finish(req.id, status, req.attempts, tuple(req.causes), error)

    def _fail_attempt(self, now: float, req: _Request, cause: str, kind, actions):
        """Apply the retry budget to one failed attempt: a backoff-delayed
        re-dispatch, or quarantine as a ``PoisonRequest`` carrying every cause."""
        req.causes.append(cause)
        if req.attempts < self.policy.max_attempts:
            delay = self.policy.backoff_s(req.attempts, req.id)
            heapq.heappush(self._delayed, (now + delay, req.id))
            actions.append(Retry(req.id, req.attempts, delay, kind.code))
            return
        error = faults.PoisonRequest(
            f"request {req.id} quarantined after {req.attempts} attempt(s): "
            + "; ".join(req.causes),
            request_id=req.id,
            attempts=req.attempts,
            causes=tuple(req.causes),
        )
        actions.append(self._finish(req, "poisoned", error))

    def _trip(self, reason: str) -> list:
        """Replacement workers keep dying: stop forking, and refuse what
        is outstanding and whatever comes."""
        kills = [Kill(w, "breaker", slot.req_id) for w, slot in self._workers.items()]
        self._reason = reason
        self.mode = "stopped"
        return kills + [Stop(reason)] + self._refuse_all()

    def _refuse_all(self) -> list:
        outstanding = sorted(self._requests.values(), key=lambda req: req.id)
        for table in (self._requests, self._workers, self._queue):
            table.clear()
        self._delayed.clear()
        self._deadlines.clear()
        return [self._refuse(req.id, req.attempts) for req in outstanding]

    def _refuse(self, req_id: int, attempts: int):
        """The ending of a request the pool will not (or no longer) send."""
        if self.mode == "closed":
            error: Exception = RuntimeError("executor closed")
            return Finish(req_id, "closed", attempts, (), error)
        error = faults.WorkerCrash(self._reason, request_id=req_id, attempts=attempts)
        return Finish(req_id, "breaker", attempts, (), error)

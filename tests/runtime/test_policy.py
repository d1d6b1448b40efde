"""The pool's policy machine (``repro.runtime.policy``), checked without a
process in sight: a ``hypothesis`` rule-based model under a fake clock
whose actions are carried out by the driver's own ``_apply`` loop,
one scripted action list per scenario the fork-and-kill suites exercise
(``test_faults.py`` / ``test_executor.py`` stay the reference for what
needs a real worker), a purity pin on the module's imports, and the
transition table of ``docs/architecture.md`` held against the code."""

from __future__ import annotations

import ast
import inspect
import re
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.runtime import (
    DeadlineExceeded,
    FaultPolicy,
    PoisonRequest,
    RequestError,
    WireCorruption,
    WorkerCrash,
    WorkerHang,
)
from repro.runtime import policy as pm
from repro.runtime.executor import _ENDINGS, ShardedExecutor
from repro.runtime.policy import (
    Dispatch,
    Finish,
    Kill,
    PoolMachine,
    Retry,
    Spawn,
    Stop,
)

ROOT = Path(__file__).resolve().parents[2]
RETRIABLE = (WorkerCrash.code, WorkerHang.code, WireCorruption.code)
STATUSES = set(_ENDINGS)


def _snapshot(m: PoolMachine):
    """Everything the machine remembers, as one comparable value."""
    return (
        m.mode,
        sorted((r.id, r.attempts, tuple(r.causes)) for r in m._requests.values()),
        [(w, s.busy, s.last_beat) for w, s in m._workers.items()],
        list(m._queue),
        sorted(m._delayed),
        sorted(m._deadlines),
        m._crashes,
        m._streak,
    )


# ---------------------------------------------------------------------------
# (i) the model
# ---------------------------------------------------------------------------

policies = st.builds(
    FaultPolicy,
    deadline_s=st.sampled_from([None, None, 4.0]),
    hang_timeout_s=st.sampled_from([None, 1.0]),
    max_attempts=st.integers(1, 4),
    backoff_base_s=st.sampled_from([0.0, 0.05, 0.5]),
    backoff_jitter=st.sampled_from([0.0, 0.25]),
    seed=st.integers(0, 3),
    crash_loop_threshold=st.sampled_from([1, 2, 4, 8, 8, 8]),
)


class PoolModel(RuleBasedStateMachine):
    """Drives a :class:`PoolMachine` with every event in every order and
    holds what it answers against a bookkeeping of its own.  The answers
    are carried out by ``ShardedExecutor._apply`` itself, with this class
    standing in as the driver: each ``_do_`` method checks one action when
    its turn comes, and a ``Spawn`` or a dead pipe under a ``Dispatch`` is
    reported back to the machine mid-list, as the executor reports it."""

    @initialize(
        policy=policies,
        workers=st.integers(1, 3),
        max_crashes=st.sampled_from([0, 5, 30, 30]),
    )
    def start(self, policy, workers, max_crashes):
        self.policy = policy
        self.max_crashes = max_crashes
        self.m = PoolMachine(policy, max_crashes)
        self.now = 0.0
        self.names = iter(range(10**6))
        self.ids = iter(range(10**6))
        self.deadline_at: dict[int, float | None] = {}  # every submitted request
        self.dispatches: dict[int, int] = {}
        self.finished: dict[int, Finish] = {}
        self.holding: dict[int, tuple[int, int] | None] = {}  # live workers
        self.last_beat: dict[int, float] = {}
        self.not_before: dict[int, float] = {}  # failure time + backoff
        self.trips = 0  # Stops answered by the machine so far ...
        self.tripped: str | None = None  # ... and carried out: "stopped"
        self.closed = False
        self.crashes = self.streak = 0
        self.spawn_fails = self.send_fails = False  # armed for the next one
        for _ in range(workers):
            worker = next(self.names)
            self.holding[worker] = None
            self.absorb(self.m.spawned(self.now, worker))

    # -- what every answer must satisfy -----------------------------------

    def absorb(self, actions, *, expect_trip: bool | None = None):
        self.check_list(actions, expect_trip)
        ShardedExecutor._apply(self, actions)

    def check_list(self, actions, expect_trip: bool | None = None):
        """One answer of the machine, as a list (feedback answers too)."""
        trips = [a for a in actions if isinstance(a, Stop)]
        if expect_trip is not None:
            assert bool(trips) == expect_trip, actions
        if trips:  # once, and only refusals follow
            assert self.trips == 0 and len(trips) == 1
            tail = actions[actions.index(trips[0]) + 1 :]
            assert all(isinstance(a, Finish) for a in tail), actions
        elif self.trips:
            assert not [a for a in actions if isinstance(a, (Dispatch, Spawn))]
        self.trips += len(trips)
        # every Kill is followed by a Spawn, unless the breaker did the
        # killing or the crash is the one that trips it
        kills = [a.reason for a in actions if isinstance(a, Kill)]
        kills = [reason for reason in kills if reason != "breaker"]
        spawns = [a.reason for a in actions if isinstance(a, Spawn)]
        assert kills[: len(spawns)] == spawns, actions
        assert kills[len(spawns) :] == (["crash"] if trips and kills else []), actions
        refused = [
            a.req_id
            for a in actions
            if isinstance(a, Finish) and a.status in ("breaker", "closed")
        ]
        assert refused == sorted(refused)  # the breaker drains in request-id order

    def _do_dispatch(self, worker, req_id, attempt):
        assert self.tripped is None and not self.closed
        assert self.live(req_id)  # the driver's ``_live[req_id]``
        assert self.holding[worker] is None  # a worker holds <= 1
        assert req_id not in self.on_worker()  # a request sits on <= 1
        assert attempt == self.dispatches[req_id] < self.policy.max_attempts
        assert self.now >= self.not_before.get(req_id, 0.0)
        if self.send_fails and not self.trips:  # the worker never held it
            self.send_fails = False
            return self.lose(worker, None, delivered=False)
        self.dispatches[req_id] += 1
        self.holding[worker] = (req_id, attempt)
        self.last_beat[worker] = self.now

    def _do_kill(self, worker, reason, req_id):
        held = self.holding.pop(worker)
        assert req_id == (held[0] if held else None)
        if reason == "hang":
            assert self.now - self.last_beat[worker] > self.policy.hang_timeout_s
        elif reason == "deadline":
            assert self.now > self.deadline_at[req_id]
        else:
            assert reason in ("crash", "breaker")

    def _do_spawn(self, reason):
        assert self.tripped is None and not self.closed
        fails, self.spawn_fails = self.spawn_fails, False
        if fails:
            why = f"respawn after {reason} failed: unreachable"
            answer = self.m.spawn_failed(self.now, why)
            self.check_list(answer, expect_trip=not self.trips)
            return answer
        worker = next(self.names)
        self.holding[worker] = None
        answer = self.m.spawned(self.now, worker)
        if self.trips:  # asked for before the trip, carried out after it
            assert answer == [Kill(worker, "breaker", None)]
        self.check_list(answer, expect_trip=False)
        return answer

    def _do_retry(self, req_id, attempt, delay, code):
        assert self.live(req_id)
        assert attempt == self.dispatches[req_id]
        assert delay == self.policy.backoff_s(attempt, req_id)
        assert code in RETRIABLE
        self.not_before[req_id] = self.now + delay

    def _do_finish(self, *ending):
        act = Finish(*ending)
        assert act.req_id in self.deadline_at
        assert act.req_id not in self.finished  # exactly one, nothing after
        assert act.status in STATUSES
        assert act.attempts == self.dispatches[act.req_id] <= self.policy.max_attempts
        self.finished[act.req_id] = act
        self.check_ending(act)

    def _do_stop(self, reason):
        # Every worker was killed first — but a replacement asked for before
        # the trip and brought up since, whose Kill is on its way.
        assert self.tripped is None and not any(self.holding.values())
        self.tripped = "stopped"

    def lose(self, worker, held, delivered=True):
        """Feed ``worker_lost`` and check the crash accounting of its answer."""
        self.crashes += 1
        self.streak += 1
        trips = (
            self.crashes > self.max_crashes
            or self.streak >= self.policy.crash_loop_threshold
        )
        actions = self.m.worker_lost(self.now, worker, delivered)
        self.check_list(actions, expect_trip=trips)
        assert actions[0] == Kill(worker, "crash", held)
        assert actions.count(Spawn("crash")) == (0 if trips else 1)
        return actions

    def check_ending(self, act: Finish):
        poisoned = act.status == "poisoned"
        # quarantined iff the budget went on retriable faults, one cause each
        assert poisoned == (
            len(act.causes) == act.attempts == self.policy.max_attempts
            and isinstance(act.error, PoisonRequest)
        ), act
        if poisoned:
            assert act.error.causes == act.causes
        if act.status == "deadline":
            assert self.now > self.deadline_at[act.req_id]
            assert isinstance(act.error, DeadlineExceeded)
        if act.status in ("ok", "cancelled"):
            assert act.error is None
        if act.status == "breaker":
            assert self.tripped == "stopped" and isinstance(act.error, WorkerCrash)
        if act.status == "closed":
            assert self.closed and isinstance(act.error, RuntimeError)

    def live(self, req_id) -> bool:
        return req_id in self.deadline_at and req_id not in self.finished

    def on_worker(self) -> set[int]:
        return {held[0] for held in self.holding.values() if held is not None}

    # -- events -----------------------------------------------------------

    @rule(
        deadline=st.sampled_from([None, None, 0.3, 2.0]),
        waited=st.sampled_from([None, None, 0.2, 3.0]),  # in the driver's mailbox
    )
    def submit(self, deadline, waited):
        req_id = next(self.ids)
        effective = deadline if deadline is not None else self.policy.deadline_s
        since = None if waited is None else self.now - waited
        from_ = self.now if since is None else since
        self.deadline_at[req_id] = None if effective is None else from_ + effective
        self.dispatches[req_id] = 0
        actions = self.m.submit(self.now, req_id, deadline, since)
        self.absorb(actions)
        if self.tripped or self.closed:  # answered at once, in every mode
            assert [a.req_id for a in actions] == [req_id] and not self.live(req_id)

    @precondition(lambda self: self.deadline_at)
    @rule(pick=st.integers(0, 10**6))
    def cancel(self, pick):
        req_id = pick % len(self.deadline_at)
        was_live = self.live(req_id)
        holders = dict(self.holding)
        actions = self.m.cancel(self.now, req_id)
        self.absorb(actions)
        assert [a.status for a in actions] == (["cancelled"] if was_live else [])
        assert self.holding == holders  # in flight: the worker drains

    @rule(dt=st.sampled_from([0.0, 0.01, 0.06]))
    def tick_soon(self, dt):
        self.advance_and_tick(dt)

    @rule(dt=st.sampled_from([0.11, 0.3, 0.7]))
    def tick_later(self, dt):
        self.advance_and_tick(dt)

    @rule(dt=st.sampled_from([1.01, 2.5, 5.0]))
    def tick_much_later(self, dt):
        self.advance_and_tick(dt)

    def advance_and_tick(self, dt):
        self.now += dt
        self.absorb(self.m.tick(self.now), expect_trip=False)
        if self.tripped is None and not self.closed:
            # Nothing ready waits beside an idle worker, nothing is overdue.
            idle = [w for w, held in self.holding.items() if held is None]
            ready = [
                r
                for r in self.deadline_at
                if self.live(r)
                and r not in self.on_worker()
                and self.not_before.get(r, 0.0) <= self.now
            ]
            assert not (idle and ready), (idle, ready)
            wake = self.m.next_wake(self.now)
            assert wake is None or wake >= 0.0

    def busy(self):
        return sorted(w for w, held in self.holding.items() if held is not None)

    @precondition(lambda self: self.busy())
    @rule(pick=st.integers(0, 10**6), again=st.booleans())
    def reply_ok(self, pick, again):
        self.reply(pick, "ok", again)

    @precondition(lambda self: self.busy())
    @rule(pick=st.integers(0, 10**6), again=st.booleans())
    def reply_error(self, pick, again):
        self.reply(pick, "error", again)

    @precondition(lambda self: self.busy())
    @rule(pick=st.integers(0, 10**6), again=st.booleans())
    def reply_corrupt(self, pick, again):
        self.reply(pick, "corrupt", again)

    def reply(self, pick, outcome, again):
        worker = self.busy()[pick % len(self.busy())]
        req_id, attempt = self.holding[worker]
        was_live = self.live(req_id)
        fault = {
            "ok": None,
            "error": RequestError("ValueError: level"),
            "corrupt": WireCorruption("reply frame corrupt: crc"),
        }[outcome]
        self.holding[worker] = None
        if was_live and outcome == "ok":
            self.streak = 0
        actions = self.m.reply(self.now, worker, req_id, attempt, fault)
        self.absorb(actions, expect_trip=False)
        endings = [a for a in actions if isinstance(a, (Finish, Retry))]
        if not was_live:
            assert not [a for a in endings if a.req_id == req_id]  # drained
        elif outcome == "ok":
            assert endings[0] == Finish(req_id, "ok", attempt + 1, endings[0].causes)
        elif outcome == "error":
            assert endings[0].status == "error" and endings[0].error is fault
            assert fault.attempts == attempt + 1
        else:
            assert endings[0].req_id == req_id
            assert isinstance(endings[0], Retry) or endings[0].status == "poisoned"
        if again:  # the duplicate of a reply already taken changes nothing
            before = _snapshot(self.m)
            assert self.m.reply(self.now, worker, req_id, attempt, fault) == []
            assert _snapshot(self.m) == before

    @precondition(lambda self: self.holding)
    @rule(pick=st.integers(0, 10**6), skew=st.sampled_from([(0, 1), (1, 0), (-1, 0)]))
    def stale_reply_or_beat(self, pick, skew):
        workers = sorted(self.holding)
        worker = workers[pick % len(workers)]
        req_id, attempt = self.holding[worker] or (0, 0)
        wrong = (req_id + skew[0], attempt + skew[1])
        before = _snapshot(self.m)
        assert self.m.reply(self.now, worker, *wrong) == []
        assert self.m.heartbeat(self.now, worker, *wrong) == []
        assert self.m.reply(self.now, "never-spawned", req_id, attempt) == []
        assert _snapshot(self.m) == before

    @precondition(lambda self: self.busy())
    @rule(pick=st.integers(0, 10**6))
    def heartbeat(self, pick):
        worker = self.busy()[pick % len(self.busy())]
        assert self.m.heartbeat(self.now, worker, *self.holding[worker]) == []
        self.last_beat[worker] = self.now

    @precondition(lambda self: self.holding)
    @rule(pick=st.integers(0, 10**6))
    def worker_lost(self, pick):  # idle or busy
        workers = sorted(self.holding)
        worker = workers[pick % len(workers)]
        held = self.holding[worker]
        ShardedExecutor._apply(self, self.lose(worker, held[0] if held else None))
        assert self.m.worker_lost(self.now, worker) == []  # already forgotten

    @precondition(lambda self: not self.trips)
    @rule(what=st.sampled_from(["spawn", "send"]))
    def arm_a_failure(self, what):
        """The next ``Spawn`` cannot be honoured / the next ``Dispatch``
        finds its pipe dead — wherever in an action list that falls."""
        setattr(self, what + "_fails", True)

    @precondition(lambda self: self.tripped and not self.closed)
    @rule()
    def late_spawn_is_killed(self):
        # A Spawn carried out after the trip (it was asked for before).
        worker = next(self.names)
        self.holding[worker] = None
        assert self.m.spawned(self.now, worker) == [Kill(worker, "breaker", None)]
        self.holding.pop(worker)

    # -- always ---------------------------------------------------------

    @invariant()
    def tables_agree(self):
        if not hasattr(self, "m"):
            return
        for worker, held in self.holding.items():
            assert self.m.in_flight(worker) == held
        held = self.on_worker()
        waiting = [r for r in self.deadline_at if self.live(r) and r not in held]
        assert self.m.pending == len(waiting)
        assert self.m.mode == (self.tripped or "running")
        if self.tripped:
            assert not waiting and not self.holding

    def teardown(self):
        if not hasattr(self, "m"):
            return
        self.closed = True
        self.absorb(self.m.close(self.now), expect_trip=False)
        assert set(self.finished) == set(self.deadline_at)  # exactly one Finish each
        late = next(self.ids)
        self.deadline_at[late] = None
        self.dispatches[late] = 0
        self.absorb(self.m.submit(self.now, late))
        assert self.finished[late].status == "closed"
        assert self.m.tick(self.now + 100.0) == []
        assert self.m.next_wake(self.now) is None


def test_pool_machine_holds_its_invariants(request):
    """Profiles are registered in ``conftest.py``: ``tier1`` unless the
    run names one (``--hypothesis-profile=soak``)."""
    profile = request.config.getoption("--hypothesis-profile") or "tier1"
    run_state_machine_as_test(PoolModel, settings=settings.get_profile(profile))


# ---------------------------------------------------------------------------
# (ii) one scripted scenario per process-level test
# ---------------------------------------------------------------------------


def _plain(actions):
    """Actions with exceptions flattened to ``(type, message)``."""
    return [
        a._replace(error=(type(a.error), str(a.error)))
        if isinstance(a, Finish) and a.error is not None
        else a
        for a in actions
    ]


def _machine(workers=1, max_crashes=10, **policy):
    policy.setdefault("backoff_jitter", 0.0)
    m = PoolMachine(FaultPolicy(**policy), max_crashes)
    for i in range(workers):
        assert m.spawned(0.0, f"w{i}") == []
    return m


class TestScenarios:
    def test_crash_is_retried_after_its_backoff(self):
        m = _machine(backoff_base_s=0.1)
        assert m.submit(0.0, 0) == [Dispatch("w0", 0, 0)]
        cause = "worker w0 crashed on attempt 1"
        assert m.worker_lost(1.0, "w0") == [
            Kill("w0", "crash", 0),
            Retry(0, 1, 0.1, WorkerCrash.code),
            Spawn("crash"),
        ]
        assert m.spawned(1.0, "w1") == [] and m.pending == 1  # backing off
        assert m.next_wake(1.0) == pytest.approx(0.1)
        assert m.tick(1.05) == []
        assert m.tick(1.1) == [Dispatch("w1", 0, 1)]
        assert m.reply(1.2, "w1", 0, 1) == [Finish(0, "ok", 2, (cause,))]
        assert m.next_wake(1.2) is None and m.pending == 0

    def test_expired_retry_goes_to_the_front_of_the_queue(self):
        m = _machine(backoff_base_s=0.1)
        assert [m.submit(0.0, r) for r in range(3)] == [[Dispatch("w0", 0, 0)], [], []]
        assert m.worker_lost(1.0, "w0")[2:] == [Spawn("crash")]
        assert m.spawned(1.0, "w1") == [Dispatch("w1", 1, 0)]  # 0 is backing off
        assert m.tick(1.1) == [] and list(m._queue) == [0, 2]
        assert m.reply(1.2, "w1", 1, 0) == [Finish(1, "ok", 1), Dispatch("w1", 0, 1)]

    def test_poison_request_does_not_starve_the_queue(self):
        m = _machine(max_attempts=2, backoff_base_s=0.01)
        assert m.submit(0.0, 0) == [Dispatch("w0", 0, 0)]
        assert m.submit(0.0, 1) == []
        # The retry is backing off, so the worker's replacement takes request 1.
        assert m.worker_lost(0.1, "w0")[2:] == [Spawn("crash")]
        assert m.spawned(0.1, "w1") == [Dispatch("w1", 1, 0)]
        assert m.reply(0.2, "w1", 1, 0) == [Finish(1, "ok", 1)]  # queue was empty
        assert m.tick(0.2) == [Dispatch("w1", 0, 1)]
        causes = tuple(f"worker w{i} crashed on attempt {i + 1}" for i in range(2))
        message = "request 0 quarantined after 2 attempt(s): " + "; ".join(causes)
        assert _plain(m.worker_lost(0.3, "w1")) == [
            Kill("w1", "crash", 0),
            Finish(0, "poisoned", 2, causes, (PoisonRequest, message)),
            Spawn("crash"),
        ]

    def test_slow_is_not_hung(self):
        m = _machine(hang_timeout_s=1.0, backoff_base_s=0.5)
        assert m.submit(0.0, 0) == [Dispatch("w0", 0, 0)]
        assert m.next_wake(0.0) == 1.0
        assert m.heartbeat(0.9, "w0", 0, 0) == []
        assert m.tick(1.5) == []
        assert m.tick(1.9) == []  # exactly the timeout is not past it
        cause = "worker w0 hung (no heartbeat for 1s) on attempt 1"
        assert m.tick(2.0) == [
            Kill("w0", "hang", 0),
            Retry(0, 1, 0.5, WorkerHang.code),
            Spawn("hang"),
        ]
        assert m.spawned(2.0, "w1") == [] and m.tick(2.5) == [Dispatch("w1", 0, 1)]
        assert m.reply(2.6, "w1", 0, 1) == [Finish(0, "ok", 2, (cause,))]

    def test_deadline_covers_queue_wait_and_kills_in_flight(self):
        m = _machine()
        assert m.submit(0.0, 0) == [Dispatch("w0", 0, 0)]
        assert m.submit(0.0, 1, deadline_s=0.3) == []  # head-of-line blocked
        assert m.next_wake(0.1) == pytest.approx(0.2)
        assert m.tick(0.3) == []
        late = "request 1 exceeded its 0.310s deadline after 0 attempt(s)"
        assert _plain(m.tick(0.31)) == [
            Finish(1, "deadline", 0, (), (DeadlineExceeded, late)),
        ]
        assert m.submit(1.0, 2, deadline_s=0.5) == []
        assert m.reply(1.1, "w0", 0, 0) == [Finish(0, "ok", 1), Dispatch("w0", 2, 0)]
        stuck = "request 2 exceeded its 0.600s deadline after 1 attempt(s)"
        assert _plain(m.tick(1.6)) == [
            Kill("w0", "deadline", 2),
            Spawn("deadline"),
            Finish(2, "deadline", 1, (), (DeadlineExceeded, stuck)),
        ]

    def test_duplicate_and_reordered_replies_are_dropped(self):
        m = _machine(workers=2, backoff_base_s=0.0)
        assert m.submit(0.0, 0) == [Dispatch("w0", 0, 0)]
        corrupt = WireCorruption("reply frame corrupt: crc")
        assert m.reply(0.1, "w0", 0, 0, corrupt) == [Retry(0, 1, 0.0, corrupt.code)]
        assert m.tick(0.1) == [Dispatch("w0", 0, 1)]
        before = _snapshot(m)
        assert m.reply(0.2, "w0", 0, 0) == []  # the superseded attempt, late
        assert m.reply(0.2, "w1", 0, 1) == []  # the right reply, the wrong worker
        assert _snapshot(m) == before
        cause = ("reply frame corrupt: crc",)
        assert m.reply(0.3, "w0", 0, 1) == [Finish(0, "ok", 2, cause)]
        assert m.reply(0.3, "w0", 0, 1) == []  # the duplicate

    def test_cancel_drops_the_queued_and_drains_the_in_flight(self):
        m = _machine()
        for req_id in range(3):
            m.submit(0.0, req_id)
        assert m.pending == 2
        assert m.cancel(0.1, 1) == [Finish(1, "cancelled", 0)] and m.pending == 1
        assert m.cancel(0.1, 0) == [Finish(0, "cancelled", 1)]  # in flight
        assert m.cancel(0.1, 0) == [] and m.in_flight("w0") == (0, 0)
        assert m.reply(0.5, "w0", 0, 0) == [Dispatch("w0", 2, 0)]  # no Finish

    def test_submit_racing_the_breaker_is_answered(self):
        m = _machine(workers=2, crash_loop_threshold=2, max_attempts=9)
        for req_id in range(3):
            m.submit(0.0, req_id)
        crash = WorkerCrash.code
        assert m.worker_lost(0.1, "w0") == [
            Kill("w0", "crash", 0),
            Retry(0, 1, 0.05, crash),
            Spawn("crash"),
        ]
        why = "2 consecutive worker crashes with no completed request (crash loop)"
        error = (WorkerCrash, why)
        assert _plain(m.worker_lost(0.2, "w1")) == [
            Kill("w1", "crash", 1),
            Retry(1, 1, 0.05, crash),
            Stop(why),
            *(Finish(r, "breaker", a, (), error) for r, a in [(0, 1), (1, 1), (2, 0)]),
        ]
        assert m.mode == "stopped"
        # The one posted just before the trip, and the replacement asked for:
        assert _plain(m.submit(0.2, 3)) == [Finish(3, "breaker", 0, (), error)]
        assert m.spawned(0.3, "w2") == [Kill("w2", "breaker", None)]
        assert m.tick(9.0) == [] and m.next_wake(9.0) is None
        assert _plain(m.close(9.0)) == []
        closed = (RuntimeError, "executor closed")
        assert _plain(m.submit(9.0, 4)) == [Finish(4, "closed", 0, (), closed)]

    def test_a_good_reply_resets_the_crash_streak(self):
        m = _machine(workers=2, crash_loop_threshold=2, max_crashes=9)
        assert m.worker_lost(0.0, "w0") == [Kill("w0", "crash", None), Spawn("crash")]
        assert m.submit(0.1, 0) == [Dispatch("w1", 0, 0)]
        assert m.reply(0.2, "w1", 0, 0) == [Finish(0, "ok", 1)]
        assert m.worker_lost(0.3, "w1")[1:] == [Spawn("crash")]  # streak 1, not 2
        assert m.spawned(0.3, "w2") == [] and m.mode == "running"
        assert m.worker_lost(0.4, "w2")[1] == Stop(
            "2 consecutive worker crashes with no completed request (crash loop)"
        )

    def test_crash_budget_trips_whatever_the_streak(self):
        m = _machine(max_crashes=1, crash_loop_threshold=5)
        assert m.worker_lost(0.0, "w0")[1:] == [Spawn("crash")]
        assert m.spawned(0.0, "w1") == []
        assert m.worker_lost(0.1, "w1") == [
            Kill("w1", "crash", None),
            Stop("pool exceeded 1 worker crashes"),
        ]
        assert m.spawn_failed(0.2, "respawn after crash failed: x") == []


    def test_the_wait_in_the_mailbox_counts_for_the_deadline_not_the_hang(self):
        m = _machine(hang_timeout_s=1.0)
        # Handed over at 2.0, read from the mailbox at 5.0: well past the
        # hang timeout, and not a hang — the worker got it this instant.
        assert m.submit(5.0, 0, 4.0, submitted_at=2.0) == [Dispatch("w0", 0, 0)]
        assert m.tick(5.0) == [] and m.next_wake(5.0) == pytest.approx(1.0)
        assert m.heartbeat(5.9, "w0", 0, 0) == []
        late = "request 0 exceeded its 4.050s deadline after 1 attempt(s)"
        assert _plain(m.tick(6.05)) == [
            Kill("w0", "deadline", 0),
            Spawn("deadline"),
            Finish(0, "deadline", 1, (), (DeadlineExceeded, late)),
        ]

    def test_a_dead_pipe_under_the_send_is_a_crash_but_not_an_attempt(self):
        m = _machine(workers=2, max_attempts=1, crash_loop_threshold=2)
        assert m.submit(0.0, 0) == [Dispatch("w0", 0, 0)]
        assert m.submit(0.0, 1) == [Dispatch("w1", 1, 0)]
        assert m.submit(0.0, 2) == []
        assert m.worker_lost(0.0, "w0", delivered=False) == [
            Kill("w0", "crash", None),
            Spawn("crash"),
        ]
        assert list(m._queue) == [0, 2]  # back to the front, budget untouched
        assert m.spawned(0.0, "w2") == [Dispatch("w2", 0, 0)]
        assert m.reply(0.1, "w2", 0, 0) == [Finish(0, "ok", 1), Dispatch("w2", 2, 0)]

    def test_actions_are_carried_out_in_the_order_they_were_produced(self):
        """What carrying an action out reports back can trip the breaker
        mid-list; the trip's refusals must not overtake the rest of the
        list, which still names those requests."""

        class Driver:  # the least ``ShardedExecutor._apply`` needs
            def __init__(self, machine, dead=()):
                self.m, self.dead, self.live, self.log = machine, dead, {0, 1}, []

            def _do_dispatch(self, worker, req_id, attempt):
                assert req_id in self.live
                if worker in self.dead:
                    return self.m.worker_lost(9.0, worker, delivered=False)

            def _do_spawn(self, reason):
                return self.m.spawn_failed(9.0, "no host")

            def _do_retry(self, req_id, *_):
                assert req_id in self.live

            def _do_finish(self, req_id, status, *_):
                self.live.remove(req_id)
                self.log.append((req_id, status))

            def _do_kill(self, *_):
                pass

            _do_stop = _do_kill

        # Two workers hang in one tick and the first respawn fails.
        m = _machine(workers=2, hang_timeout_s=1.0)
        driver = Driver(m)
        ShardedExecutor._apply(driver, m.submit(0.0, 0) + m.submit(0.0, 1))
        ShardedExecutor._apply(driver, m.tick(2.0))
        assert driver.log == [(0, "breaker"), (1, "breaker")]
        # Two retries go out in one tick; the first send finds a dead pipe,
        # and that crash is the one the breaker trips on.
        m = _machine(workers=2, crash_loop_threshold=1)
        driver = Driver(m, dead={"w0"})
        corrupt = WireCorruption("reply frame corrupt: crc")
        m.submit(0.0, 0), m.submit(0.0, 1)
        m.reply(0.1, "w0", 0, 0, corrupt), m.reply(0.1, "w1", 1, 0, corrupt)
        ShardedExecutor._apply(driver, m.tick(1.0))
        assert driver.log == [(0, "breaker"), (1, "breaker")]


# ---------------------------------------------------------------------------
# (iii) purity, and the documented table
# ---------------------------------------------------------------------------


def test_policy_module_is_pure():
    """No clock, thread, process, socket, future, span or byte layout:
    the module imports stdlib containers and ``runtime/faults.py``."""
    banned = ("time", "threading", "multiprocessing", "socket", "concurrent")
    banned_ours = ("repro.runtime.telemetry", "repro.runtime.wire")
    imported = []
    for node in ast.walk(ast.parse(Path(pm.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
            imported += [f"{node.module}.{alias.name}" for alias in node.names]
    assert "repro.runtime.faults" in imported
    offenders = [
        name
        for name in imported
        if name.split(".")[0] in banned or name.startswith(banned_ours)
    ]
    assert offenders == []
    ours = {name for name in imported if name.startswith("repro")}
    assert ours == {"repro.runtime", "repro.runtime.faults"}


def _doc_section(title: str) -> str:
    text = (ROOT / "docs" / "architecture.md").read_text()
    body = text.split(f"### {title}\n", 1)[1]
    return body.split("\n### ", 1)[0]


def test_docs_transition_table_matches_code():
    """docs/architecture.md's transition table names exactly the events,
    actions and statuses the code has; the driver ends every status."""
    rows = [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in _doc_section("Retry / quarantine state machine").splitlines()
        if line.startswith("|") and not line.startswith("|--")
    ][1:]
    events = {name for row in rows for name in re.findall(r"`(\w+)`", row[1])}
    named = re.compile(r"`(\w+)(?:\(\w+\))?`")
    actions = {name for row in rows for name in named.findall(row[3])}
    statuses = {s for row in rows for s in re.findall(r"`Finish\((\w+)\)`", row[3])}
    # In the code: an event is a public method of the machine that is not
    # one of its read-only views, an action a namedtuple of the module, a
    # status whatever the module's source ends a request with.
    views = {"pending", "in_flight", "next_wake"}
    public = {name for name in vars(PoolMachine) if not name.startswith("_")}
    classes = [value for value in vars(pm).values() if inspect.isclass(value)]
    in_code = {cls.__name__ for cls in classes if issubclass(cls, tuple)}
    ended = re.findall(r'inish\(\w+, "(\w+)"', inspect.getsource(pm))
    assert events == public - views
    assert actions == in_code == set(pm.__all__) - {"PoolMachine"}
    assert statuses == set(ended) == STATUSES
    for action in in_code:
        assert callable(getattr(ShardedExecutor, "_do_" + action.lower()))
    ladder = _doc_section("Degradation ladder")
    assert "`Stop`" in ladder and "`Degrade`" not in ladder

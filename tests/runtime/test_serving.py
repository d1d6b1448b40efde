"""The unified serving surface: ServingConfig, serve() (which returns the
ShardedExecutor itself), and what is left of the executor's own
constructor surface."""

from __future__ import annotations

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

from repro.runtime import (
    CtSpec,
    ServingConfig,
    ShardedExecutor,
    compile_fn,
    serve,
)

RESULT_TIMEOUT = 120.0


@pytest.fixture(scope="module")
def square_plan(rctx, rlk):
    def program(ev, x):
        return (ev.multiply_relin_rescale(x, x, rlk),)

    spec = CtSpec(level=rctx.params.num_primes, scale=rctx.params.scale)
    return compile_fn(program, rctx.evaluator, [spec])


def _batches(rctx, n, seed=21):
    rng = np.random.default_rng(seed)
    return [
        [rctx.encrypt(rng.uniform(-1, 1, rctx.params.slots))] for _ in range(n)
    ]


class TestServingConfig:
    def test_defaults_are_valid(self):
        cfg = ServingConfig()
        assert cfg.num_workers == 2
        assert cfg.transport == "pipe"
        assert cfg.fused is True

    def test_frozen(self):
        cfg = ServingConfig()
        with pytest.raises(AttributeError):
            cfg.num_workers = 4

    def test_replace_returns_new_value(self):
        cfg = ServingConfig(num_workers=2)
        other = cfg.replace(transport="tcp", num_workers=3)
        assert other.transport == "tcp" and other.num_workers == 3
        assert cfg.transport == "pipe" and cfg.num_workers == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_workers": -1},
            {"transport": "carrier-pigeon"},
            {"hosts": 0},
            {"authkey_file": "key"},  # pipe has no host to authenticate
            {"transport": "shm"},  # deleted in PR 22: rejected by name
            {"hosts": 2},  # pipe has no hosts to count
            {"hosts": ("tcp://10.0.0.7:9701",), "authkey_file": "key"},
            # Ports a host cannot listen on: refused here, not at dial time.
            {"transport": "tcp", "hosts": ("tcp://127.0.0.1:99999",), "authkey_file": "k"},
            {"transport": "tcp", "hosts": ("tcp://127.0.0.1:0",), "authkey_file": "k"},
            {"num_workers": 0},  # every request is served by a worker
            # Counts are ints: NaN fails every comparison, 2.5 dies in start().
            {"num_workers": 2.5},
            {"num_workers": math.nan},
            {"num_workers": True},
            {"max_crash_respawns": math.nan},
            {"max_crash_respawns": math.inf},
            {"max_crash_respawns": -3},
            {"max_crash_respawns": 1.0},
            {"max_crash_respawns": False},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ServingConfig(**kwargs)

    def test_docs_field_table_matches_the_dataclass(self):
        """The rows of docs/serving.md's field table are the fields, in
        order — a field added or removed must be documented with it."""
        doc = Path(__file__).resolve().parents[2] / "docs" / "serving.md"
        lines = doc.read_text().splitlines()
        start = lines.index("| Field | Default | Meaning |")
        rows = []
        for line in lines[start + 2 :]:
            if not line.startswith("|"):
                break
            rows.append(re.match(r"\| `(\w+)` \|", line).group(1))
        assert rows == [f.name for f in dataclasses.fields(ServingConfig)]


class TestServeFacade:
    def test_serve_plan_matches_run_batch(self, rctx, square_plan):
        batches = _batches(rctx, 4)
        reference = square_plan.run_batch(batches)
        with serve(square_plan, ServingConfig(num_workers=2)) as pool:
            served = pool.run_batch(batches, timeout=RESULT_TIMEOUT)
        assert type(pool) is ShardedExecutor
        for got, want in zip(served, reference):
            for g, w in zip(got, want):
                for pg, pw in zip(g.parts, w.parts):
                    assert np.array_equal(pg.data, pw.data)

    def test_serve_rejects_other_types(self):
        for other in (42, lambda ev, x: (x,)):  # a function is not compiled
            with pytest.raises(TypeError, match="ExecutionPlan"):
                serve(other)

    def test_one_serving_object(self):
        """No session wraps the pool; the old name survives only for the
        frozen benchmark surface, outside ``__all__``."""
        import repro.runtime as runtime

        assert runtime.ServingSession is ShardedExecutor
        assert "ServingSession" not in runtime.__all__
        assert not hasattr(runtime, "StreamingServer")


@pytest.mark.lanes
class TestWorkerLanes:
    """A forked worker's lanes: its share of the CPUs, set once at fork,
    so workers side by side start no more lanes than there are CPUs."""

    @pytest.mark.parametrize(
        "cpus,workers", [(1, 1), (2, 1), (2, 2), (3, 2), (4, 3), (8, 2)]
    )
    def test_a_worker_runs_its_share_of_the_cpus(self, square_plan, cpus, workers):
        """``_worker_loop`` caps the lanes of the process it runs in at
        ``max(1, CPUs // workers)`` before it serves: an eight-block
        ``in_lanes`` call in that process then runs that many lanes.  The
        parent, which forked it, keeps one lane per CPU."""
        import multiprocessing as mp
        from unittest import mock

        from repro.nums import kernels
        from repro.runtime import wire
        from repro.runtime.executor import _worker_loop

        fork = mp.get_context("fork")
        report_r, report_w = fork.Pipe(duplex=False)
        conn, peer = fork.Pipe()
        cfg = wire.WorkerConfig(fused=True, chaos=None, heartbeat_s=None)

        def child():
            peer.close()  # the loop reads EOF at once and returns
            lanes = []
            with mock.patch.object(kernels, "_cpu_count", return_value=cpus):
                _worker_loop(square_plan, conn, cfg, workers)
                kernels.in_lanes(list(range(8)), lanes.append)
            report_w.send((kernels._lane_cap, len(lanes)))

        proc = fork.Process(target=child)
        proc.start()
        conn.close()
        peer.close()
        report_w.close()
        got = report_r.recv()
        proc.join(timeout=RESULT_TIMEOUT)
        want = max(1, cpus // workers)
        assert got == (want, want)
        assert kernels._lane_cap is None

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_pipe_pool_forks_workers_that_know_its_size(self, square_plan, workers):
        pool = ShardedExecutor(square_plan, config=ServingConfig(num_workers=workers))
        assert pool._make_transport()._target.keywords == {"workers": workers}


class TestLegacyKeywordBridge:
    """The keyword bridge is gone: a pool is sized only by
    ``ServingConfig(num_workers=...)``."""

    def test_unknown_kwargs_still_rejected(self, square_plan):
        with pytest.raises(TypeError, match="unexpected"):
            ShardedExecutor(square_plan, frobnicate=True)
        with pytest.raises(TypeError, match="positional"):
            ShardedExecutor(square_plan, 3)  # the pool size lives in config
        for removed in ({"fused": True}, {"policy": None}, {"max_pending": 4}):
            with pytest.raises(TypeError, match="unexpected"):
                ShardedExecutor(square_plan, **removed)
        with pytest.raises(TypeError, match="unexpected"):
            serve(square_plan, num_workers=1)
        with pytest.raises(TypeError, match="unexpected"):
            ServingConfig(coeff_bits=44)  # always derived from the plan's basis
        with pytest.raises(TypeError, match="unexpected"):
            ServingConfig(ship_plan=True)  # the transport decides: tcp ships
        with pytest.raises(TypeError, match="unexpected"):
            ServingConfig(modeled_request_io_s=0.1)  # a slow fault holds a worker
        with pytest.raises(TypeError, match="unexpected"):
            ServingConfig(max_pending=8)  # a caller bounds its own window
        with pytest.raises(TypeError, match="unexpected"):
            ServingConfig(trace=True)  # get_telemetry().enable()

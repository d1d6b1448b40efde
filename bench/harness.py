"""Measurement plumbing shared by the four workloads: the clock, in-memory
spans, per-phase op accounting, the timed loop, the machine-speed probe
and the environment record.  Nothing here imports ``repro`` — the library
is only touched from :mod:`workloads`.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# Every workload process runs under this environment (see README "Why the
# environment is pinned"): single-threaded BLAS/OpenMP because the box
# has two cores and serve_light already runs three processes, and a
# glibc heap that never returns or mmaps memory, because a first-touched
# page costs up to ~20 us/KB on this kind of VM and client_paper
# allocates ~126 MB arrays per op.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MALLOC_MMAP_MAX_": "0",
    "MALLOC_TRIM_THRESHOLD_": "17179869184",
    "MALLOC_TOP_PAD_": "268435456",
}

# time.monotonic is CLOCK_MONOTONIC on Linux: one clock for the parent
# that stamps process start and the child that stamps the end of set-up.
now = time.monotonic


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in (0, 1]) — an actual sample, never an
    interpolation, so a reported tail is a latency some op really had."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def precision_bits(max_abs_error: float) -> float:
    return -math.log2(max(max_abs_error, 2.0**-200))


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory spans: name, start, end, parent, op id.

    Disabled (the end-to-end runs) ``span`` is a shared no-op context, so
    traced and untraced runs drive the same harness code.  Spans nest by
    call order on one thread; the serving workload only traces with a
    single outstanding request, from the generator thread.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self._open: list[int] = []

    def span(self, name: str, op):
        """Record a span of op ``op``; an op id of ``None`` is untraced."""
        if not self.enabled or op is None:
            return nullcontext()
        return self._span(name, op)

    @contextmanager
    def _span(self, name: str, op):
        record = [name, now(), None, self._open[-1] if self._open else None, op]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = now()
            self._open.pop()

    def _child_time(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return covered

    def median_self_times(self) -> dict[str, float]:
        """Per span name: the median over ops of the self time that
        name's spans add up to within one op (duration minus the part
        child spans cover)."""
        covered = self._child_time()
        per_op: dict[str, dict] = {}
        for i, (name, start, end, _, op) in enumerate(self.spans):
            ops = per_op.setdefault(name, {})
            ops[op] = ops.get(op, 0.0) + (end - start) - covered[i]
        return {name: statistics.median(ops.values()) for name, ops in per_op.items()}

    def coverage(self, name: str) -> float:
        """Median share of a ``name`` span that its child spans cover."""
        covered = self._child_time()
        shares = [
            covered[i] / (end - start)
            for i, (span_name, start, end, _, _) in enumerate(self.spans)
            if span_name == name
        ]
        return statistics.median(shares) if shares else 0.0

    def dump(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "op")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))


# ---------------------------------------------------------------------------
# Machine speed
# ---------------------------------------------------------------------------


class SpeedProbe:
    """How slowly this machine runs right now, against the speed the
    baseline was taken at.

    The sandbox speeds up and slows down by a factor of 1.2-1.4 for
    minutes at a time, for every layer of a run alike (README "Noise"):
    raw wall-clock medians of ten runs spread by 15-30 %, in-run ratios by
    5-10 %.  The probe is the in-run denominator: a fixed numpy
    computation, independent of the library, on arrays of the workload's
    shape, timed in short bursts between ops.  ``factor`` is its median
    time over ``REFERENCE_S``; time-valued end-to-end metrics are divided
    by it (``run.py``), and the raw values are kept beside them.
    """

    # Median time of one iteration on the sandbox the baseline was taken
    # on.  A shape without an entry (the --smoke sizes) is not normalized.
    REFERENCE_S = {(10, 1 << 10): 0.00055, (24, 1 << 16): 0.0042}

    def __init__(self, levels: int, degree: int) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.integers(0, 1 << 40, (levels, degree), dtype=np.uint64)
        self._b = self._a.copy()
        self._steps = max(2, (1 << 19) // self._a.size)
        self._reference_s = self.REFERENCE_S.get((levels, degree))
        self.samples: list[float] = []

    def burst(self, iterations: int = 3) -> None:
        shift = np.uint64(20)
        for _ in range(iterations):
            t0 = now()
            x = self._a
            for _ in range(self._steps):
                x = (x * self._b) >> shift
            self.samples.append(now() - t0)

    def factor(self) -> float:
        """Slowdown over the bursts since the last ``reset``."""
        if self._reference_s is None or not self.samples:
            return 1.0
        return statistics.median(self.samples) / self._reference_s

    def reset(self) -> None:
        self.samples = []


# ---------------------------------------------------------------------------
# Op accounting
# ---------------------------------------------------------------------------


class Phase:
    """Latency and outcome of every op attempted in one phase."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.latencies: list[float] = []
        self.oks: list[bool] = []
        self.wall_s = 0.0
        self._lock = threading.Lock()  # serve_light records from the I/O thread

    def record(self, latency_s: float, ok: bool) -> None:
        with self._lock:
            self.latencies.append(latency_s)
            self.oks.append(bool(ok))

    @property
    def attempted(self) -> int:
        return len(self.oks)

    @property
    def failed(self) -> int:
        return self.oks.count(False)

    def charged(self) -> list[float]:
        """Latencies with every failed op charged the run's maximum: a
        failure is excluded from no percentile."""
        worst = max(self.latencies)
        return [lat if ok else worst for lat, ok in zip(self.latencies, self.oks)]

    def counts(self) -> dict:
        return {
            "attempted": self.attempted,
            "succeeded": self.attempted - self.failed,
            "failed": self.failed,
        }


def run_for(seconds: float, min_ops: int, op, check, phase: Phase, between=None) -> Phase:
    """Closed loop of one: run ``op(i)`` back to back for ``seconds`` (at
    least ``min_ops`` times).  ``check(i, output)`` and then ``between()``
    run after the op's end timestamp is taken and are no part of
    ``wall_s``, the time spent in ops.  An op that raises is a failed op."""
    start = now()
    i = 0
    while i < min_ops or now() - start < seconds:
        t0 = now()
        try:
            output = op(i)
            t1 = now()
            ok = check(i, output)
        except Exception:
            t1 = now()
            ok = False
            traceback.print_exc()
        phase.record(t1 - t0, ok)
        if between is not None:
            between()
        i += 1
    phase.wall_s = sum(phase.latencies)
    return phase


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus that of its largest reaped
    child (the serving workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(backend: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "reducer_backend": backend,
        "pinned_env": {key: os.environ.get(key) for key in PINNED_ENV},
        "git_commit": git_commit(),
        "argv": sys.argv[1:],
    }

"""Smoke test of the benchmark itself: ``pytest bench -q`` (tier-1 does
not collect it).  Resolves every name in ``api_surface.json``, runs each
workload at the ``--smoke`` size and checks the output line against
``BENCHMARK.json``, and shows that a corrupted reply counts as a failed op.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SURFACE = json.loads((BENCH / "api_surface.json").read_text())


def resolve(dotted: str):
    """Import the longest module prefix, then walk attributes; a dataclass
    field without a default only exists on instances, so its declaration
    stands in for it."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        break
    else:
        raise ImportError(dotted)
    for attr in parts[cut:]:
        fields = getattr(found, "__dataclass_fields__", {})
        if attr in fields and not hasattr(found, attr):
            return fields[attr]
        found = getattr(found, attr)
    return found


@pytest.mark.parametrize("name", SURFACE["callables"])
def test_callable_resolves(name):
    assert callable(resolve(name))


@pytest.mark.parametrize("name", SURFACE["attributes"])
def test_attribute_resolves(name):
    resolve(name)


@pytest.mark.parametrize("name", SURFACE["keywords"])
def test_keywords_accepted(name):
    parameters = inspect.signature(resolve(name)).parameters
    assert set(SURFACE["keywords"][name]) <= set(parameters)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_matches_the_contract(workload, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--seed", "3"]
        + ["--workload", workload, "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = {m["name"]: m for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(line["metrics"]) == set(declared)
    for name, metric in line["metrics"].items():
        assert metric["unit"] == declared[name]["unit"]
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    if not trace:
        assert all(metric["value"] > 0 for metric in line["metrics"].values())


def test_flipped_reply_byte_is_a_failed_op_and_stats_keys_exist():
    from repro.ckks import deserialize_ciphertext, serialize_ciphertext

    from harness import Phase, Tracer
    from workloads import ServeLight

    workload = ServeLight(seed=3, smoke=True, tracer=Tracer(enabled=False))
    try:
        workload.build()
        workload.references()
        for owner, stats in (("ExecutionPlan", workload.plan), ("ServingSession", workload.session)):
            wanted = SURFACE["result_keys"][f"repro.runtime.{owner}.stats"]
            assert set(wanted) <= set(stats.stats())
        reply = bytearray(serialize_ciphertext(workload.refs[0], workload.bits))
        intact = deserialize_ciphertext(bytes(reply), workload.ctx.basis)
        reply[len(reply) // 2] ^= 0x01
        flipped = deserialize_ciphertext(bytes(reply), workload.ctx.basis)
    finally:
        workload.close()
    phase = Phase("self-test")
    phase.record(0.010, workload.check(0, intact))
    phase.record(0.001, workload.check(0, flipped))
    assert phase.counts() == {"attempted": 2, "succeeded": 1, "failed": 1}
    # The failed op is charged the run's maximum latency.
    assert phase.charged() == [0.010, 0.010]

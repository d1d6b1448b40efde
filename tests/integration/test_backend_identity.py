"""Bit-identity of the full CKKS pipeline however a plan runs.

How the program runs must be *semantically invisible*: a parametrized
grid — executor {interpreter, fused} x delivery/transport {in-process,
fork-pipe, tcp-loopback, CLI remote host, hang-recovered} — pins every
mode to the eager evaluator's bytes for one seeded encrypt -> rotate /
multiply -> relinearize -> rescale pipeline.  Two more programs — the
fusion passes' heavier shapes, a hoisted rotation pair with a plaintext
MAC and a dense BSGS transform — are held to the same bytes in process,
interpreter and fused.

Every mode runs an op through the same row function
(:mod:`repro.ckks.evaluator`), so the grid pins delivery, fusion, the
arena and the bindings, not independent arithmetic.  That is pinned by
``test_oracle_pins.py``, which holds every op, eager and fused, to
``tests/oracle.py`` — exact arithmetic on Python ints that shares only
data with ``src/`` (residues, moduli, each limb's ψ) — and, less
independently, by the per-op digests of ``test_golden_bytes.py`` (taken
from this code) and the decrypt-vs-numpy rows of
``tests/ckks/test_evaluator.py``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.ckks import CkksContext, HomomorphicLinearTransform, toy_params
from repro.runtime import (
    CtSpec,
    FaultAction,
    FaultPlan,
    FaultPolicy,
    ServingConfig,
    ShardedExecutor,
    compile_fn,
)
from tests import BARRETT

DEGREE = 256
NUM_PRIMES = 6
SEED = 1234


@pytest.fixture(scope="module")
def remote_host(tmp_path_factory):
    """A genuinely remote worker host: the CLI entrypoint in its own
    process, no fork relationship to this test process.  One host
    serves every pipeline run in the module — reattaching coordinators
    hit its fingerprint-keyed plan cache instead of re-uploading."""
    tmp = tmp_path_factory.mktemp("remote-host")
    keyfile = tmp / "authkey"
    keyfile.write_bytes(os.urandom(32))
    portfile = tmp / "port"
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.runtime.worker_host",
            "--bind",
            "127.0.0.1:0",
            "--authkey-file",
            str(keyfile),
            "--port-file",
            str(portfile),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 60
    while not portfile.exists():
        if proc.poll() is not None or time.monotonic() > deadline:
            raise AssertionError("remote worker host failed to come up")
        time.sleep(0.05)
    try:
        yield int(portfile.read_text().strip()), str(keyfile)
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)


def _program(rlk, gks):
    def program(ev, a, b):
        rot = ev.rotate(a, 1, gks)
        prod = ev.multiply_relin_rescale(a, b, rlk)
        return rot, prod

    return program


def _rotate_mac_multiply(ctx):
    """Two rotations of one source (a hoist group), a three-term plaintext
    MAC (one fused accumulate) and multiply/relinearize/rescale."""
    gks = ctx.galois_keys([1, 2], levels=[NUM_PRIMES])
    rlk = ctx.relin_keys(levels=[NUM_PRIMES])
    pts = [
        ctx.encoder.encode(
            np.full(ctx.params.slots, 0.2 * (i + 1)),
            level=NUM_PRIMES,
            scale=ctx.params.scale,
        )
        for i in range(3)
    ]

    def program(ev, x):
        rot = ev.add(ev.rotate(x, 1, gks), ev.rotate(x, 2, gks))
        mac = ev.add(
            ev.add(ev.multiply_plain(x, pts[0]), ev.multiply_plain(x, pts[1])),
            ev.multiply_plain(x, pts[2]),
        )
        return ev.multiply_relin_rescale(rot, x, rlk), mac

    return program


def _bsgs(ctx):
    """A dense linear transform at the default baby/giant split: hoisted
    baby rotations, giant rotations, one long plaintext MAC a giant step."""
    slots = ctx.params.slots
    matrix = np.random.default_rng(5).uniform(-1, 1, (slots, slots)) / slots
    hlt = HomomorphicLinearTransform(ctx, matrix, level=NUM_PRIMES)
    keys = ctx.galois_keys(hlt.required_rotations(), levels=[NUM_PRIMES])

    def program(ev, x):
        return (hlt.emit(ev, x, keys),)

    return program


def _eager(ctx):
    """One seeded encrypt/rotate/multiply/rescale/decrypt run, eagerly:
    the bytes every execution mode is held to."""
    rlk = ctx.relin_keys(levels=[NUM_PRIMES])
    gks = ctx.galois_keys([1], levels=[NUM_PRIMES])
    rng = np.random.default_rng(7)
    x = rng.uniform(-1, 1, ctx.params.slots)
    y = rng.uniform(-1, 1, ctx.params.slots)
    ct_x = ctx.encrypt(x)
    ct_y = ctx.encrypt(y)
    program = _program(rlk, gks)
    rot, prod = program(ctx.evaluator, ct_x, ct_y)
    return program, (ct_x, ct_y), (rot, prod), x * y


@pytest.fixture(scope="module")
def pipeline():
    """The context, the compiled plan, the inputs and the eager outputs —
    built once, shared by the whole grid."""
    params = toy_params(degree=DEGREE, num_primes=NUM_PRIMES)
    ctx = CkksContext.create(params, seed=SEED)
    program, inputs, eager, expected = _eager(ctx)
    spec = CtSpec(level=NUM_PRIMES, scale=ctx.params.scale)
    plan = compile_fn(program, ctx.evaluator, [spec, spec])
    return ctx, plan, inputs, eager, expected


def _serving_config(delivery: str, fused: bool, remote) -> ServingConfig:
    """The pool shape behind one delivery/transport column of the grid."""
    if delivery == "fork-pipe":
        return ServingConfig(num_workers=2, fused=fused)
    if delivery == "tcp-loopback":
        # A forked host: the plan reaches its worker rebuilt from EPL1
        # bytes, against an evaluator rebuilt from the shipped HostEnv.
        return ServingConfig(num_workers=1, transport="tcp", fused=fused)
    if delivery == "remote-host":
        # The worker-host CLI process: it rebuilt its evaluator from the
        # shipped HostEnv and got the plan as FPL1 bytes, with no fork
        # relationship to this process — the whole explicit-state path.
        port, keyfile = remote
        return ServingConfig(
            num_workers=1,
            transport="tcp",
            hosts=(f"tcp://127.0.0.1:{port}",),
            authkey_file=keyfile,
            fused=fused,
        )
    assert delivery == "hang-recovered"
    # The worker taking the request freezes (SIGSTOP) before evaluating;
    # the hang detector SIGKILLs and replaces it, and the retried attempt
    # must still land byte-identical output.
    chaos = FaultPlan(
        0, scripted={("pre_evaluate", 0, 0): FaultAction("stop", "pre_evaluate")}
    )
    policy = FaultPolicy(hang_timeout_s=0.6, backoff_base_s=0.01)
    return ServingConfig(
        num_workers=1, chaos=chaos, fault_policy=policy, fused=fused
    )


DELIVERIES = (
    "in-process",
    "fork-pipe",
    "tcp-loopback",
    "remote-host",
    "hang-recovered",
)


@pytest.mark.parametrize("delivery", DELIVERIES)
@pytest.mark.parametrize("executor", ["interpreter", "fused"])
@BARRETT
def test_every_mode_is_byte_equal_to_eager(executor, delivery, pipeline, remote_host):
    """executor {interpreter, fused} x delivery/transport: every way a
    plan can run and every way a request can reach it lands the eager
    evaluator's exact bytes."""
    _, plan, inputs, eager, _ = pipeline
    fused = executor == "fused"
    if delivery == "in-process":
        if fused:
            (got,) = plan.run_batch([list(inputs)], fused=True)
        else:
            got = plan.run(list(inputs))
    else:
        config = _serving_config(delivery, fused, remote_host)
        with ShardedExecutor(plan, config=config) as pool:
            (got,) = pool.run_batch([list(inputs)], timeout=120)
            stats = pool.stats()
        assert stats["fused"] is fused
        assert stats["completed"] == 1
        if delivery == "hang-recovered":
            assert stats["hang_kills"] == 1
        elif delivery == "remote-host":
            assert stats["transport_stats"]["remote_hosts"] == 1
        elif delivery == "tcp-loopback":
            assert stats["transport"] == "tcp"
            assert stats["transport_stats"]["plan_uploads"] == 1
    for name, want, have in zip(("rot", "prod"), eager, got):
        assert have.scale == want.scale
        for i, part in enumerate(want.parts):
            assert np.array_equal(part.data, have.parts[i].data), (
                f"{executor} over {delivery} diverged from eager at {name} part {i}"
            )


@pytest.mark.parametrize("build", [_rotate_mac_multiply, _bsgs], ids=["mac", "bsgs"])
@BARRETT
def test_fused_shapes_are_byte_equal_to_eager(build, pipeline):
    """The programs the fusion passes rewrite most — hoisted rotations,
    plaintext MACs, a whole BSGS transform — through the interpreter and
    the fused replayer, against the eager evaluator."""
    ctx, _, (ct, _), _, _ = pipeline
    program = build(ctx)
    eager = program(ctx.evaluator, ct)
    spec = CtSpec(level=NUM_PRIMES, scale=ctx.params.scale)
    plan = compile_fn(program, ctx.evaluator, [spec])
    modes = {
        "interpreter": plan.run([ct]),
        "fused": plan.run_batch([[ct]], fused=True)[0],
    }
    stats = plan.stats()
    assert stats["dispatch_count_fused"] < stats["nodes"]
    for mode, got in modes.items():
        for want, have in zip(eager, got, strict=True):
            assert have.scale == want.scale
            for i, part in enumerate(want.parts):
                assert np.array_equal(part.data, have.parts[i].data), (
                    f"{mode} diverged from eager at part {i}"
                )


def test_a_remote_host_names_each_plan_by_its_bytes(pipeline, remote_host):
    """Two plans given one ``signature`` — an ``id()`` hash, free for reuse
    once its constants die — served in turn through one host that caches
    plans across sessions: each pool returns its own plan's bytes."""
    ctx, _, (ct, _), _, _ = pipeline
    port, keyfile = remote_host
    spec = CtSpec(level=NUM_PRIMES, scale=ctx.params.scale)
    plans = []
    for factor in (2.0, 3.0):
        pt = ctx.encoder.encode(
            np.full(ctx.params.slots, factor), level=NUM_PRIMES, scale=ctx.params.scale
        )

        def program(ev, x, pt=pt):
            return (ev.multiply_plain(x, pt),)

        plans.append(compile_fn(program, ctx.evaluator, [spec]))
    plans[1].signature = plans[0].signature
    config = ServingConfig(
        num_workers=1,
        transport="tcp",
        hosts=(f"tcp://127.0.0.1:{port}",),
        authkey_file=keyfile,
    )
    wants = [plan.run([ct])[0] for plan in plans]
    assert not np.array_equal(wants[0].parts[0].data, wants[1].parts[0].data)
    for plan, want in zip(plans, wants):
        with ShardedExecutor(plan, config=config) as pool:
            [[got]] = pool.run_batch([[ct]], timeout=120)
        for i, part in enumerate(want.parts):
            assert np.array_equal(part.data, got.parts[i].data), f"part {i}"


@BARRETT
def test_pipeline_is_correct_under_every_backend(pipeline):
    ctx, _, _, (_, prod), expected = pipeline
    out = ctx.decrypt_decode(prod)
    assert np.max(np.abs(out.real - expected)) < 1e-3

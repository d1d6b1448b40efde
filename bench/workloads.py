"""The four workloads.  Every input is drawn here from the run's seed;
the library only ever sees arrays, bytes and its own objects.

A workload is driven in this order (see ``run.py``)::

    build()        library set-up up to a warm system   -> setup_s ends
    references()   harness-only: what each op must return, client halves
    timed(s)       the measured phase                   (--trace 0)
    traced(s)      stepwise ops + layer probes          (--trace 1)
    finish()       final correctness verdict
    close()

Imports are limited to ``repro.ckks.__all__`` / ``repro.runtime.__all__``
plus the layer entry points the probes call (``bench/api_surface.json``
lists every name; ``test_bench_smoke.py`` resolves them).
"""

from __future__ import annotations

import statistics
import threading
import traceback
from functools import partial

import numpy as np

from repro.ckks import (
    CkksContext,
    HomomorphicLinearTransform,
    bootstrappable_params,
    ciphertext_wire_bytes,
    deserialize_ciphertext,
    serialize_ciphertext,
    toy_params,
    wire_coeff_bits,
)
from repro.prng import DiscreteGaussianSampler, TernarySampler, Xof
from repro.rns import COEFF, EVAL, RnsPolynomial
from repro.runtime import (
    CtSpec,
    ServingConfig,
    clear_plan_cache,
    compile_fn,
    plan_op_counts,
    serve,
)

from harness import Phase, SpeedProbe, Tracer, now, precision_bits, run_for

EVAL_SHAPE = {"degree": 1 << 10, "num_primes": 10}
SMOKE_SHAPE = {"degree": 1 << 8, "num_primes": 6}

# A decoded value further than this from its numpy reference is a wrong
# op.  Healthy runs sit at 2^-16 (client_paper's scale-2^36 reply) or
# better; a broken key switch or rescale decodes to garbage far above 1.
ERROR_LIMIT = 2.0**-8

# A serving reply that has not arrived after this long is a failed op.
REPLY_TIMEOUT_S = 60.0

# Gap between two samples taken between ops (a speed-probe burst; on the
# eval workloads also one round of the client halves): ~30 samples in
# 10 s, spread over the whole phase, under 1 s of work in total.
SAMPLE_EVERY_S = 0.3

# Evaluator methods whose eager self time and graph count are reported.
EVAL_METHODS = (
    "multiply",
    "relinearize",
    "rescale",
    "rotate",
    "decompose",
    "multiply_plain",
    "add",
    "add_plain",
)


def same_bytes(got, want) -> bool:
    """Two ciphertexts carry identical residues and the identical scale."""
    return (
        got.scale == want.scale
        and got.size == want.size
        and all(np.array_equal(g.data, w.data) for g, w in zip(got.parts, want.parts))
    )


def max_error(values, expected) -> float:
    return float(np.max(np.abs(values - expected)))


class ClientSide:
    """The client's two halves at one context's shape, timed per call:
    upload = encode -> encrypt -> serialize, download = deserialize ->
    decrypt -> decode.  Passing an op id records one span per call."""

    def __init__(self, ctx, coeff_bits: int, tracer: Tracer) -> None:
        self.ctx = ctx
        self.bits = coeff_bits
        self.span = tracer.span
        self.reset()

    def reset(self) -> None:
        self.up_s: list[float] = []
        self.down_s: list[float] = []

    def upload(self, msg, op=None) -> bytes:
        t0 = now()
        with self.span("ckks.encode_s", op):
            plaintext = self.ctx.encode(msg)
        with self.span("ckks.encrypt_s", op):
            ciphertext = self.ctx.encryptor.encrypt(plaintext)
        with self.span("ckks.serialize_s", op):
            blob = serialize_ciphertext(ciphertext, self.bits)
        self.up_s.append(now() - t0)
        return blob

    def download(self, blob: bytes, op=None) -> np.ndarray:
        t0 = now()
        with self.span("ckks.deserialize_s", op):
            ciphertext = deserialize_ciphertext(blob, self.ctx.basis)
        with self.span("ckks.decrypt_s", op):
            plaintext = self.ctx.decryptor.decrypt(ciphertext)
        with self.span("ckks.decode_s", op):
            values = self.ctx.decode(plaintext)
        self.down_s.append(now() - t0)
        return values


class SpanEvaluator:
    """Bench-side proxy around ``ctx.evaluator``: every method the
    circuit calls becomes a ``ckks.op_s.<method>`` span of the op."""

    def __init__(self, evaluator, tracer: Tracer, op: str) -> None:
        self._evaluator = evaluator
        self._span = tracer.span
        self._op = op

    def __getattr__(self, name: str):
        attr = getattr(self._evaluator, name)
        if not callable(attr):
            return attr

        def call(*args, **kwargs):
            with self._span(f"ckks.op_s.{name}", self._op):
                return attr(*args, **kwargs)

        return call


def run_probes(tracer: Tracer, probes: dict, reps: int = 5) -> None:
    """Each probe is one public layer call on arrays of the workload's
    shape; it is recorded under the name of the metric it feeds."""
    for probe in probes.values():
        probe()  # build lazily cached tables outside the spans
    for rep in range(reps):
        for name, probe in probes.items():
            with tracer.span(name, f"probe{rep}"):
                probe()


def residues(rng, basis, level: int, *lead: int) -> np.ndarray:
    moduli = np.array(basis.moduli[:level], dtype=np.uint64).reshape(-1, 1)
    shape = (*lead, level, basis.degree)
    return rng.integers(0, 1 << 62, shape, dtype=np.uint64) % moduli


class Workload:
    name = ""
    pool = 1  # distinct inputs the ops cycle over
    warmup = 2  # ops run before set-up counts as done
    min_ops = 3  # timed ops run even when --seconds is shorter
    probe_iterations = 3  # speed-probe iterations per sample
    keep_raw: tuple = ()  # metric-name prefixes reported as raw wall-clock

    def __init__(self, seed: int, smoke: bool, tracer: Tracer) -> None:
        self.seed = seed
        self.smoke = smoke
        self.tracer = tracer
        self.rng = np.random.default_rng(seed)
        self.warm = Phase("warm-up")
        self.phases: list[Phase] = []  # everything run after set-up
        self.worst_error = 0.0
        self.sample_due = 0.0
        if smoke:
            self.warmup = min(self.warmup, 8)
            self.min_ops = min(self.min_ops, 8)

    def phase(self, name: str) -> Phase:
        self.phases.append(Phase(name))
        return self.phases[-1]

    def sample(self) -> None:
        self.probe.burst(self.probe_iterations)

    def between_ops(self) -> None:
        if now() >= self.sample_due:
            self.sample()
            self.sample_due = now() + SAMPLE_EVERY_S

    def loop(self, phase: Phase, seconds: float, min_ops: int, op, check) -> Phase:
        """Closed loop of one, with the samples taken between ops."""
        return run_for(seconds, min_ops, op, check, phase, self.between_ops)

    def messages(self, count: int, slots: int) -> list[np.ndarray]:
        draw = self.rng.uniform
        return [
            0.7 * (draw(-1, 1, slots) + 1j * draw(-1, 1, slots)) for _ in range(count)
        ]

    @property
    def precision_bits(self) -> float:
        return precision_bits(self.worst_error)

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# client_paper
# ---------------------------------------------------------------------------


class ClientPaper(Workload):
    """The paper's task at the paper's shape: a 24-level upload and a
    2-level, scale-2^36 download per op."""

    name = "client_paper"
    pool = 4
    warmup = 3
    probe_iterations = 8  # one sample per 2.5 s op
    REPLY_LEVEL = 2
    REPLY_SCALE = 2.0**36
    COEFF_BITS = 44  # the accelerator datapath width, serialize's default
    EXTRA_DOWNLOADS = 2

    def build(self) -> None:
        params = bootstrappable_params(degree=256 if self.smoke else 1 << 16)
        self.probe = SpeedProbe(params.num_primes, params.degree)
        self.reply = None  # the serialized reply, once it exists
        self.sample()
        self.ctx = ctx = CkksContext.create(params, seed=self.seed)
        self.sample()
        self.client = ClientSide(ctx, self.COEFF_BITS, self.tracer)
        self.msgs = self.messages(self.pool, params.slots)
        self.reply_msg = self.messages(1, params.slots)[0]
        reply = ctx.encoder.encode(
            self.reply_msg, level=self.REPLY_LEVEL, scale=self.REPLY_SCALE
        )
        self.reply = serialize_ciphertext(ctx.encryptor.encrypt(reply), self.COEFF_BITS)
        self.upload_bytes = ciphertext_wire_bytes(
            params.degree, params.top_level, 2, self.COEFF_BITS
        )
        self.wire_bytes = self.upload_bytes + len(self.reply)
        self.loop(self.warm, 0, self.warmup, self.op, self.check)

    def references(self) -> None:
        self.client.reset()  # the timed ops are the client halves, not the warm-up's

    def sample(self) -> None:
        """The download half is a tenth of the op and the noisier for it:
        two more samples of it ride along with every speed-probe burst."""
        super().sample()
        for _ in range(self.EXTRA_DOWNLOADS if self.reply else 0):
            values = self.client.download(self.reply)
            self.worst_error = max(self.worst_error, max_error(values, self.reply_msg))

    def op(self, i: int, traced: bool = False):
        op_id = f"op{i}" if traced else None
        with self.tracer.span("op", op_id):
            blob = self.client.upload(self.msgs[i % self.pool], op_id)
            values = self.client.download(self.reply, op_id)
        return blob, values

    def check(self, i: int, output) -> bool:
        blob, values = output
        self.last_upload = (i % self.pool, blob)
        error = max_error(values, self.reply_msg)
        self.worst_error = max(self.worst_error, error)
        return len(blob) == self.upload_bytes and error < ERROR_LIMIT

    def timed(self, seconds: float) -> Phase:
        return self.loop(self.phase("timed"), seconds, self.min_ops, self.op, self.check)

    def traced(self, seconds: float) -> dict:
        plain = self.loop(self.phase("untraced"), seconds / 2, 2, self.op, self.check)
        traced = self.loop(
            self.phase("traced"), seconds / 2, 2, partial(self.op, traced=True), self.check
        )
        run_probes(self.tracer, self.probes(), reps=3)
        return {
            "trace_coverage": self.tracer.coverage("op"),
            "trace_overhead_x": statistics.median(traced.latencies)
            / statistics.median(plain.latencies),
        }

    def probes(self) -> dict:
        ctx, rng = self.ctx, self.rng
        basis, level, n = ctx.basis, ctx.params.num_primes, ctx.params.degree
        kern, ntt, fft = basis.kernel(level), basis.batch_ntt(level), ctx.encoder.fft
        a, b = residues(rng, basis, level), residues(rng, basis, level)
        fwd = ntt.forward(a)
        folded = fft.inverse(self.msgs[0])
        ints = [
            int(round(float(c) * ctx.params.scale))
            for c in np.concatenate([folded.real, folded.imag])
        ]
        signed = rng.integers(-19, 20, n)
        two_limbs = RnsPolynomial(basis, a[: self.REPLY_LEVEL].copy(), COEFF)
        xof = Xof.from_int(self.seed)
        ternary = TernarySampler(basis.moduli[0])
        gauss = DiscreteGaussianSampler(ctx.params.error_stddev)

        def sample():  # one encryption's draws: mask plus two errors
            ternary.sample_signed(xof, b"enc-v", n)
            gauss.sample_signed(xof, b"enc-e0", n)
            gauss.sample_signed(xof, b"enc-e1", n)

        return {
            "nums.mulmod_s.n16": lambda: kern.mul(a, b),
            "transforms.ntt_forward_s.n16": lambda: ntt.forward(a),
            "transforms.ntt_inverse_s.n16": lambda: ntt.inverse(fwd),
            "transforms.fft_inverse_s.n16": lambda: fft.inverse(self.msgs[0]),
            "transforms.fft_forward_s.n16": lambda: fft.forward(folded),
            "rns.expand_s.n16": lambda: RnsPolynomial.from_bigint_coeffs(
                basis, level, ints
            ),
            "rns.from_signed_s.n16": lambda: RnsPolynomial.from_signed_coeffs(
                basis, level, signed
            ),
            "rns.combine_s.n16": lambda: two_limbs.to_bigints(),
            "prng.sample_s.n16": sample,
        }

    def finish(self) -> bool:
        """One untimed 24-level round trip: the last upload decrypts to
        its message."""
        index, blob = self.last_upload
        got = self.ctx.decrypt_decode(deserialize_ciphertext(blob, self.ctx.basis))
        return max_error(got, self.msgs[index]) < ERROR_LIMIT


# ---------------------------------------------------------------------------
# eval_bsgs / eval_poly3 / serve_light: one compiled plan at N=2^10, L=10
# ---------------------------------------------------------------------------


class EvalWorkload(Workload):
    """A circuit compiled once and replayed fused over a pool of inputs.

    Subclasses give ``prepare`` (keys, constants), ``circuit`` (the
    program, written against the evaluator surface) and ``expected``
    (the same map in numpy)."""

    pool = 8

    def prepare(self) -> None:
        raise NotImplementedError

    def circuit(self, ev, x):
        raise NotImplementedError

    def expected(self, msg):
        raise NotImplementedError

    def compile(self):
        spec = CtSpec(level=self.level, scale=self.ctx.params.scale)
        return compile_fn(self.circuit, self.ctx.evaluator, [spec])

    def start_serving(self) -> None:
        pass

    def build(self) -> None:
        shape = SMOKE_SHAPE if self.smoke else EVAL_SHAPE
        self.level = shape["num_primes"]
        self.probe = SpeedProbe(self.level, shape["degree"])
        self.replies = None  # serialized reference outputs, once they exist
        self.sample()
        self.ctx = ctx = CkksContext.create(toy_params(**shape), seed=self.seed)
        self.bits = wire_coeff_bits(ctx.basis)  # what the worker boundary packs at
        self.client = ClientSide(ctx, self.bits, self.tracer)
        self.msgs = self.messages(self.pool, ctx.params.slots)
        self.inputs = [
            deserialize_ciphertext(self.client.upload(m), ctx.basis) for m in self.msgs
        ]
        self.sample()
        self.prepare()
        self.sample()
        clear_plan_cache()
        with self.tracer.span("runtime.compile_s", "setup"):
            self.plan = self.compile()
        with self.tracer.span("runtime.lower_fused_s", "setup"):
            self.replay(0)
        self.sample()
        self.start_serving()
        self.kept: list = []
        self.drive(0, self.warmup, self.keep, self.warm)
        self.sample()

    def keep(self, i: int, output) -> bool:
        """Warm-up outputs are judged once the references exist."""
        self.kept.append((i, output))
        return True

    def replay(self, i: int):
        return self.plan.run_batch([[self.inputs[i % self.pool]]], fused=True)[0][0]

    def drive(self, seconds: float, min_ops: int, check, phase: Phase) -> Phase:
        return self.loop(phase, seconds, min_ops, self.replay, check)

    def sample(self) -> None:
        """A speed-probe burst and, once the references exist, one round
        of the client halves."""
        super().sample()
        if self.replies:
            self.client_round(len(self.client.up_s))

    def check(self, i: int, output) -> bool:
        return same_bytes(output, self.refs[i % self.pool])

    def references(self) -> None:
        """The interpreter is the bit-identity oracle; its outputs are in
        turn decrypted against numpy, through the client's download half,
        which is also where the client-side timings at this shape and
        ``precision_bits`` come from."""
        self.refs, interp_s = [], []
        for ct in self.inputs:
            t0 = now()
            self.refs.append(self.plan.run([ct])[0])
            interp_s.append(now() - t0)
        self.interp_s = statistics.median(interp_s)
        self.replies = [serialize_ciphertext(ref, self.bits) for ref in self.refs]
        self.wire_bytes = len(serialize_ciphertext(self.inputs[0], self.bits)) + len(
            self.replies[0]
        )
        self.wanted = [self.expected(m) for m in self.msgs]
        for k in range(self.pool):
            self.client_round(k)
        for k, (i, output) in enumerate(self.kept):
            self.warm.oks[k] = self.check(i, output)
        del self.kept

    def client_round(self, k: int) -> None:
        """One upload and one download at this shape; the download decodes
        a reference output, which is the decrypt-vs-numpy check."""
        i = k % self.pool
        op_id = f"client{k}"
        self.client.upload(self.msgs[i], op_id)
        values = self.client.download(self.replies[i], op_id)
        self.worst_error = max(self.worst_error, max_error(values, self.wanted[i]))

    def timed(self, seconds: float) -> Phase:
        """The client halves are sampled between ops across the whole
        phase (a single burst would see a single state of a noisy
        machine); ``run_for`` keeps them out of the op timings."""
        self.client.reset()  # the reference pass ran on cold caches
        return self.drive(seconds, self.min_ops, self.check, self.phase("timed"))

    # -- traced run ---------------------------------------------------------

    def check_eager(self, i: int, output) -> bool:
        # Eager BSGS rotates without hoisting, so its residues differ from
        # the plan's by a noise representative: judged by decryption.
        values = self.ctx.decrypt_decode(output)
        return max_error(values, self.wanted[i % self.pool]) < ERROR_LIMIT

    def eager(self, i: int, traced: bool = False):
        ev = self.ctx.evaluator
        if not traced:
            return self.circuit(ev, self.inputs[i % self.pool])
        op_id = f"eager{i}"
        with self.tracer.span("eager", op_id):
            proxy = SpanEvaluator(ev, self.tracer, op_id)
            return self.circuit(proxy, self.inputs[i % self.pool])

    def eager_metrics(self, seconds: float) -> dict:
        plain = self.loop(self.phase("eager"), seconds / 2, 2, self.eager, self.check_eager)
        traced = self.loop(
            self.phase("eager-traced"),
            seconds / 2,
            2,
            partial(self.eager, traced=True),
            self.check_eager,
        )
        eager_s = statistics.median(plain.latencies)
        return {
            "runtime.eager_s_per_op": eager_s,
            "trace_coverage": self.tracer.coverage("eager"),
            "trace_overhead_x": statistics.median(traced.latencies) / eager_s,
        }

    def plan_metrics(self) -> dict:
        stats = self.plan.stats()
        histogram = self.plan.op_histogram()
        run_probes(self.tracer, self.probes())
        layer = {
            "runtime.interp_s_per_op": self.interp_s,
            "runtime.nodes": stats["nodes"],
            "runtime.dispatch_count": stats["dispatch_count_fused"],
            "runtime.fused_groups": stats["fused_groups"],
            "runtime.arena_slots": stats["arena_slots"],
            "runtime.arena_peak_bytes": stats["arena_peak_bytes"],
            "nums.mult_ops": plan_op_counts(self.plan).total_with_other,
        }
        for method in EVAL_METHODS:
            layer[f"ckks.op_count.{method}"] = histogram.get(method, 0)
        # A hoisted group shares one decomposition: that is the graph's
        # count of explicit decompose steps.
        layer["ckks.op_count.decompose"] = stats["hoist_groups"]
        return layer

    def traced(self, seconds: float) -> dict:
        return {**self.plan_metrics(), **self.eager_metrics(seconds)}

    def probes(self) -> dict:
        ctx, rng, level, bits = self.ctx, self.rng, self.level, self.bits
        basis = ctx.basis
        kern, ntt = basis.kernel(level), basis.batch_ntt(level)
        engine = ctx.evaluator.keyswitch
        a, b = residues(rng, basis, level), residues(rng, basis, level)
        digits, stack = residues(rng, basis, level, level), residues(rng, basis, level, level)
        fwd = ntt.forward(a)
        coeff = RnsPolynomial(basis, a, COEFF)
        poly = RnsPolynomial(basis, fwd, EVAL)
        key = ctx.relin_keys(levels=[level])[level]
        decomposed = engine.decompose(poly)
        ciphertext = self.inputs[0]
        blob = serialize_ciphertext(ciphertext, bits)
        return {
            "nums.mulmod_s.n10": lambda: kern.mul(a, b),
            "nums.mul_accumulate_s.n10": lambda: kern.mul_accumulate(digits, stack),
            "transforms.ntt_forward_s.n10": lambda: ntt.forward(a),
            "transforms.ntt_inverse_s.n10": lambda: ntt.inverse(fwd),
            "rns.rescale2_s.n10": lambda: coeff.rescale(times=2),
            "ckks.keyswitch_decompose_s.n10": lambda: engine.decompose(poly),
            "ckks.keyswitch_apply_s.n10": lambda: engine.apply(decomposed, key),
            "ckks.keyswitch_switch_s.n10": lambda: engine.switch(poly, key),
            "ckks.serialize_s.n10": lambda: serialize_ciphertext(ciphertext, bits),
            "ckks.deserialize_s.n10": lambda: deserialize_ciphertext(blob, basis),
        }

    def finish(self) -> bool:
        return self.worst_error < ERROR_LIMIT


class EvalBsgs(EvalWorkload):
    """Dense slots x slots complex matrix-vector product, BSGS: one
    hoisted decomposition feeding every baby-step rotation."""

    name = "eval_bsgs"

    def prepare(self) -> None:
        slots = self.ctx.params.slots
        draw = self.rng.uniform
        self.matrix = (
            draw(-1, 1, (slots, slots)) + 1j * draw(-1, 1, (slots, slots))
        ) / np.sqrt(slots)
        self.hlt = HomomorphicLinearTransform(self.ctx, self.matrix, level=self.level)
        self.galois_keys = self.ctx.galois_keys(
            self.hlt.required_rotations(), levels=[self.level]
        )

    def compile(self):
        return self.hlt.plan_for(self.inputs[0].scale, self.galois_keys)

    def circuit(self, ev, x):
        return self.hlt.emit(ev, x, self.galois_keys)

    def expected(self, msg):
        return self.matrix @ msg


class EvalPoly3(EvalWorkload):
    """x^4 + x^2 + 1/2 over three levels: two unhoisted key switches and
    three double rescales.  The ``poly3`` of ``benchmarks/run_bench.py``
    with ``multiply_relin_rescale`` written out as its three calls (the
    traced graph is the same), so the proxy sees each method."""

    name = "eval_poly3"
    min_ops = 100

    def prepare(self) -> None:
        self.relin_keys = self.ctx.relin_keys(levels=[self.level, self.level - 2])
        self.ones = np.ones(self.ctx.params.slots)

    def square(self, ev, x):
        product = ev.relinearize(ev.multiply(x, x), self.relin_keys)
        return ev.rescale(product, times=2)

    def circuit(self, ev, x):
        encode = self.ctx.encoder.encode
        x2 = self.square(ev, x)
        x4 = self.square(ev, x2)
        # The unity multiply moves x^2 onto x^4's level and scale.
        unity = encode(self.ones, level=x2.level, scale=x2.scale)
        bridge = ev.rescale(ev.multiply_plain(x2, unity), times=2)
        y = ev.add(x4, bridge)
        half = encode(0.5 * self.ones, level=y.level, scale=y.scale)
        return ev.add_plain(y, half)

    def expected(self, msg):
        return msg**4 + msg**2 + 0.5


class ServeLight(EvalWorkload):
    """A linear scoring layer served by two forked workers over pipes;
    closed loop, ``clients`` requests outstanding from one generator
    thread.  Compute is light, so codec, transport and queueing lead."""

    name = "serve_light"
    pool = 16
    warmup = 200
    min_ops = 100
    clients = 4
    workers = 2
    # The speed probe follows single-thread compute.  A served request is
    # three processes on two cores waiting on pipes and on each other, and
    # its latency does not follow the probe: over ten runs the raw loop
    # metrics spread by 6-10 %, divided by the factor by 16-20 %.
    keep_raw = ("latency_", "throughput_", "runtime.serve.")

    def prepare(self) -> None:
        self.weights = self.rng.uniform(-1, 1, self.ctx.params.slots)
        self.weights_pt = self.ctx.encode(self.weights)

    def circuit(self, ev, x):
        return ev.rescale(ev.multiply_plain(x, self.weights_pt), times=2)

    def expected(self, msg):
        return self.weights * msg

    def open_session(self, workers: int):
        config = ServingConfig(num_workers=workers, transport="pipe", fused=True)
        return serve(self.plan, config, warm_inputs=[self.inputs[0]]).start()

    def start_serving(self) -> None:
        with self.tracer.span("runtime.serve.pool_start_s", "setup"):
            self.session = self.open_session(self.workers)

    def close(self) -> None:
        session = getattr(self, "session", None)
        if session is not None:
            session.close()

    def drive(self, seconds, min_ops, check, phase, clients=None, session=None) -> Phase:
        """Closed loop: the generator submits the next request as soon as
        one of ``clients`` slots frees up; a request is timed from its
        submit call to its reply's arrival on the session's I/O thread."""
        session = session or self.session
        clients = clients or self.clients
        free = threading.Semaphore(clients)

        def take() -> None:
            if not free.acquire(timeout=REPLY_TIMEOUT_S):
                phase.record(REPLY_TIMEOUT_S, False)  # the slot's reply is lost

        def done(t0: float, i: int, future) -> None:
            t1 = now()
            try:
                ok = check(i, future.result()[0])
            except Exception:
                ok = False
                traceback.print_exc()
            phase.record(t1 - t0, ok)
            free.release()

        start = now()
        i = 0
        while i < min_ops or now() - start < seconds:
            take()
            t0 = now()
            try:
                future = session.submit([self.inputs[i % self.pool]])
            except Exception:  # a refused request is a failed op
                traceback.print_exc()
                phase.record(now() - t0, False)
                free.release()
            else:
                future.add_done_callback(partial(done, t0, i))
            i += 1
        for _ in range(clients):
            take()
        phase.wall_s = now() - start
        return phase

    def timed(self, seconds: float) -> Phase:
        # The generator thread is the parent's bottleneck, so the probe and
        # the client halves are sampled before and after the loop, never
        # inside it.
        self.client.reset()
        for _ in range(self.pool):
            self.sample()
        phase = self.drive(seconds, self.min_ops, self.check, self.phase("timed"))
        for _ in range(self.pool):
            self.sample()
        return phase

    def request(self, i: int):
        """One request, stepwise, with nothing else outstanding."""
        op_id = f"op{i}"
        span = self.tracer.span
        with span("op", op_id):
            with span("runtime.serve.submit_s", op_id):
                future = self.session.submit([self.inputs[i % self.pool]])
            with span("runtime.serve.wait_s", op_id):
                return future.result(timeout=REPLY_TIMEOUT_S)[0]

    def traced(self, seconds: float) -> dict:
        share = seconds / 6
        layer = self.plan_metrics()
        layer.update(self.eager_metrics(share))
        inproc = self.loop(self.phase("inproc"), share, 10, self.replay, self.check)
        alone = self.drive(share, 10, self.check, self.phase("c1"), clients=1)
        stepwise = self.loop(self.phase("c1-traced"), share, 10, self.request, self.check)
        before = self.session.stats()
        loaded = self.drive(share, 20, self.check, self.phase("c4"))
        after = self.session.stats()
        self.sample()
        self.session.close()
        self.session = self.open_session(1)
        single = self.drive(share, 20, self.check, self.phase("c4-w1"))
        self.sample()

        def rps(phase: Phase) -> float:
            return (phase.attempted - phase.failed) / phase.wall_s

        alone_p50 = statistics.median(alone.latencies)
        layer.update(
            {
                "runtime.serve.inproc_s_per_op": statistics.median(inproc.latencies),
                "runtime.serve.latency_c1_s": alone_p50,
                "runtime.serve.worker_busy_s_per_op": (after["busy_s"] - before["busy_s"])
                / max(1, after["completed"] - before["completed"]),
                "runtime.serve.queue_wait_s": statistics.median(loaded.latencies)
                - alone_p50,
                "runtime.serve.rps_w1": rps(single),
                "runtime.serve.scaling_eff": rps(loaded) / (self.workers * rps(single)),
                "runtime.serve.retries": after["retries"],
                "runtime.serve.worker_crashes": after["worker_crashes"],
                "trace_coverage": self.tracer.coverage("op"),
                "trace_overhead_x": statistics.median(stepwise.latencies) / alone_p50,
            }
        )
        return layer


WORKLOADS = {w.name: w for w in (ClientPaper, EvalBsgs, EvalPoly3, ServeLight)}

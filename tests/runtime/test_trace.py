"""Tracing: graph construction, metadata inference, and trace-time checks."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.ckks.keys import rotation_galois_elt
from repro.runtime import CtSpec, PtSpec, TraceError, trace


def _spec(rctx, level=None):
    level = rctx.params.num_primes if level is None else level
    return CtSpec(level=level, scale=rctx.params.scale)


# One call per non-leaf op (both plaintext forms), over a top-level
# ciphertext x, a ciphertext y one level down, and a plaintext p that
# rides as a captured constant (k["pt"]) or as a pt_input operand.
CASES = {
    "add": lambda ev, k, x, y, p: ev.add(x, y),
    "sub": lambda ev, k, x, y, p: ev.sub(y, x),
    "negate": lambda ev, k, x, y, p: ev.negate(y),
    "add_plain": lambda ev, k, x, y, p: ev.add_plain(y, k["pt"]),
    "add_plain-pt": lambda ev, k, x, y, p: ev.add_plain(x, p),
    "multiply_plain": lambda ev, k, x, y, p: ev.multiply_plain(x, k["pt"]),
    "multiply_plain-pt": lambda ev, k, x, y, p: ev.multiply_plain(y, p),
    "multiply": lambda ev, k, x, y, p: ev.multiply(x, y),
    "relinearize": lambda ev, k, x, y, p: ev.relinearize(ev.multiply(x, x), k["rlk"]),
    "rescale": lambda ev, k, x, y, p: ev.rescale(x, times=2),
    "rotate": lambda ev, k, x, y, p: ev.rotate(x, 1, k["gks"]),
    "conjugate": lambda ev, k, x, y, p: ev.conjugate(x, k["cjk"]),
    "apply_galois": lambda ev, k, x, y, p: ev.apply_galois(x, k["elt"], k["key"]),
    "pipeline": lambda ev, k, x, y, p: ev.multiply_relin_rescale(x, x, k["rlk"]),
}


class TestMetadata:
    def test_levels_and_scales_follow_eager_rules(self, rctx, rlk, gks):
        """For every case, the traced output's (level, scale, size) is
        exactly the eager evaluator's — the op table checked against the
        oracle it shares no code with."""
        top = rctx.params.num_primes
        slots = rctx.params.slots
        rng = np.random.default_rng(7)
        pt = rctx.encoder.encode(rng.uniform(-1, 1, slots), level=top)
        keys = {
            "pt": pt,
            "rlk": rlk,
            "gks": gks,
            "cjk": rctx.keygen.gen_conjugation(rctx.secret_key, [top]),
            "elt": rotation_galois_elt(3, slots, 2 * rctx.basis.degree),
            "key": gks[(3, top)],
        }
        x = rctx.encrypt(rng.uniform(-1, 1, slots))
        y = rctx.encrypt(rng.uniform(-1, 1, slots), level=top - 1)
        specs = [_spec(rctx), _spec(rctx, top - 1), PtSpec(level=top, scale=pt.scale)]
        for case, call in CASES.items():

            def program(ev, *handles, call=call):
                return call(ev, keys, *handles)

            eager = program(rctx.evaluator, x, y, pt)
            g = trace(program, rctx.evaluator, specs)
            node = g.nodes[g.outputs[0]]
            if case != "pipeline":
                assert node.op == case.removesuffix("-pt"), case
            got = (node.level, node.scale, node.size)
            assert got == (eager.level, eager.scale, eager.size), case

    def test_multiply_produces_three_parts(self, rctx):
        def program(ev, x, y):
            prod = ev.multiply(x, y)
            assert prod.size == 3
            return prod

        g = trace(program, rctx.evaluator, [_spec(rctx), _spec(rctx)])
        assert g.nodes[g.outputs[0]].size == 3

    def test_graph_records_every_op(self, rctx, gks):
        def program(ev, x):
            return ev.add(ev.rotate(x, 1, gks), ev.negate(x))

        g = trace(program, rctx.evaluator, [_spec(rctx)])
        assert g.op_histogram() == {"input": 1, "rotate": 1, "negate": 1, "add": 1}

    def test_signature_stable_and_key_sensitive(self, rctx, gks):
        def program(ev, x):
            return ev.rotate(x, 1, gks)

        g1 = trace(program, rctx.evaluator, [_spec(rctx)])
        g2 = trace(program, rctx.evaluator, [_spec(rctx)])
        assert g1.signature() == g2.signature()
        other = rctx.galois_keys([1], levels=[rctx.params.num_primes])
        g3 = trace(lambda ev, x: ev.rotate(x, 1, other), rctx.evaluator, [_spec(rctx)])
        assert g3.signature() != g1.signature()


class TestTraceTimeFailures:
    def test_scale_mismatch_names_producing_ops(self, rctx, rlk):
        def program(ev, x):
            sq = ev.multiply_relin_rescale(x, x, rlk)  # scale back to Δ, level-2
            raw = ev.multiply(x, x)  # scale Δ², 3 parts
            return ev.add(sq, ev.relinearize(raw, rlk))

        with pytest.raises(TraceError) as err:
            trace(program, rctx.evaluator, [_spec(rctx)])
        msg = str(err.value)
        assert "add: scale mismatch" in msg
        assert "rescale" in msg and "relinearize" in msg
        assert "level" in msg

    def test_missing_galois_key_fails_at_trace_time(self, rctx, gks):
        with pytest.raises(TraceError, match="no Galois key for rotation 7"):
            trace(lambda ev, x: ev.rotate(x, 7, gks), rctx.evaluator, [_spec(rctx)])

    def test_missing_relin_key_fails_at_trace_time(self, rctx, rlk):
        def program(ev, x):
            dropped = ev.rescale(x, times=1)  # level with no relin key
            return ev.relinearize(ev.multiply(dropped, dropped), rlk)

        with pytest.raises(TraceError, match="no relinearization key"):
            trace(program, rctx.evaluator, [_spec(rctx)])

    def test_rescale_past_chain_end_fails(self, rctx):
        with pytest.raises(TraceError, match="exhaust"):
            trace(
                lambda ev, x: ev.rescale(x, times=1),
                rctx.evaluator,
                [_spec(rctx, level=1)],
            )

    def test_output_must_come_from_this_trace(self, rctx):
        with pytest.raises(TraceError, match="return handles"):
            trace(lambda ev, x: None, rctx.evaluator, [_spec(rctx)])

    # Specs the EPL1 decoder would refuse (or the writer could not pack):
    # the tracer reads the same rule, so they fail at compile time.
    @pytest.mark.parametrize(
        "kind, field, bad",
        [
            ("ct", "level", 0),
            ("ct", "level", -1),
            ("ct", "level", 7),  # one past the six-prime chain
            ("ct", "size", 1),
            ("ct", "size", 7),
            ("ct", "scale", math.nan),
            ("ct", "scale", math.inf),
            ("ct", "scale", 0.0),
            ("pt", "level", 0),
            ("pt", "scale", -1.0),
        ],
    )
    def test_spec_the_plan_format_refuses_fails_at_trace_time(
        self, rctx, kind, field, bad
    ):
        spec = _spec(rctx)
        if kind == "pt":
            spec = PtSpec(level=spec.level, scale=spec.scale)
        spec = dataclasses.replace(spec, **{field: bad})
        with pytest.raises(ValueError, match="input spec"):
            trace(lambda ev, x: x, rctx.evaluator, [spec])

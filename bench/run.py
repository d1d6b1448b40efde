#!/usr/bin/env python3
"""The repository's reference benchmark: one command, four workloads.

    python3 bench/run.py --seed 1                       # all four workloads
    python3 bench/run.py --seed 1 --workload eval_poly3 # one of them
    python3 bench/run.py --seed 1 --workload serve_light --trace 1
    python3 bench/run.py --seed 1 --aa                  # same code twice: noise

Every metric named in ``BENCHMARK.json`` is printed with its unit and its
sample count, each workload's outputs are checked, the full result goes
to ``bench/out/`` and the last line of standard output is one JSON object
(``correct`` / ``attempted`` / ``failed`` / ``metrics``).  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.

Each workload runs in a fresh child process of this script under the
pinned environment of ``harness.PINNED_ENV``; see ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from harness import (
    BENCH_DIR,
    OUT_DIR,
    PINNED_ENV,
    ROOT,
    Tracer,
    environment,
    now,
    peak_rss_mb,
    percentile,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
NOISE_FILE = BENCH_DIR / "noise.json"

# Fresh-process set-ups whose median is setup_s.  One where a set-up
# takes ~20 s (the run budget has no room for more, and that much work
# averages its own noise); three where it takes 1-2 s.
SETUP_REPEATS = {"client_paper": 1, "eval_bsgs": 1, "eval_poly3": 3, "serve_light": 3}


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="default: all")
    parser.add_argument("--seed", type=int, default=1, help="draws every input")
    parser.add_argument(
        "--seconds",
        type=float,
        default=SPEC["run_seconds"],
        help="length of the measured phase",
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="1: stepwise ops, spans and layer probes instead of end-to-end",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="N=2^8 shapes and a handful of ops: checks the schema, not the speed",
    )
    parser.add_argument(
        "--aa",
        action="store_true",
        help="run everything twice on the same seed and once on the next; "
        "fail when two runs of the same code differ by more than a bound",
    )
    # The three below are how this script starts its own workload process.
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# The workload process
# ---------------------------------------------------------------------------


def result_path(workload: str, trace: int, setup_only: bool = False):
    tag = "setup" if setup_only else f"trace{trace}"
    return OUT_DIR / f"result-{workload}-{tag}.json"


def at_reference_speed(raw: dict, spec: dict, speed: float, keep_raw=()) -> dict:
    """Raw wall-clock values to values at reference machine speed (see
    ``harness.SpeedProbe``): seconds are divided by the run's speed
    factor, rates multiplied, everything else — and every metric whose
    name starts with one of ``keep_raw`` — kept; with units attached."""
    if set(raw) != set(spec):
        raise SystemExit(
            f"metrics out of step with BENCHMARK.json: {sorted(set(raw) ^ set(spec))}"
        )
    scale = {"s": 1 / speed, "ops/s": speed}

    def factor(name: str, unit: str) -> float:
        return 1 if name.startswith(tuple(keep_raw)) else scale.get(unit, 1)

    return {
        name: {"value": raw[name] * factor(name, m["unit"]), "unit": m["unit"]}
        for name, m in spec.items()
    }


def child_main(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from repro.nums import default_backend_name
    from repro.runtime import get_telemetry

    # The library's own telemetry stays off: spans come from this harness.
    get_telemetry().disable()
    tracer = Tracer(enabled=bool(args.trace))
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, tracer)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(default_backend_name()),
    }
    try:
        workload.build()
        speed = workload.probe.factor()
        result["setup"] = {"raw_s": now() - args.t0, "speed": speed}
        result["setup_s"] = result["setup"]["raw_s"] / speed
        if not args.setup_only:
            finished = measure(workload, tracer, args, result)
    finally:
        workload.close()
    if not args.setup_only:
        if not args.trace:
            # Read once the serving workers are reaped: their peak counts.
            result["metrics"]["peak_rss_mb"]["value"] = peak_rss_mb()
        phases = [workload.warm, *workload.phases]
        result["phases"] = {phase.name: phase.counts() for phase in phases}
        result["attempted"] = sum(phase.attempted for phase in workload.phases)
        result["failed"] = sum(phase.failed for phase in workload.phases)
        result["correct"] = finished and not any(p.failed for p in phases)
    path = result_path(args.workload, args.trace, args.setup_only)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1))
    return 0


def measure(workload, tracer: Tracer, args: argparse.Namespace, result: dict) -> bool:
    """Everything after set-up: references, the measured phase, and the
    workload's own final verdict, which is returned."""
    started = now()
    workload.references()
    if args.trace:
        # One speed factor for the whole process: set-up spans count too.
        raw = dict.fromkeys(PER_LAYER, 0)  # a layer never entered reads 0
        explicit = workload.traced(args.seconds)
        raw.update({k: v for k, v in tracer.median_self_times().items() if k in raw})
        raw.update(explicit)
        tracer.dump(OUT_DIR / f"trace-{args.workload}.json")
        spec = PER_LAYER
    else:
        workload.probe.reset()  # set-up has its own factor
        raw = end_to_end(workload, workload.timed(args.seconds), result)
        spec = END_TO_END
    speed = workload.probe.factor()
    result["measured"] = {
        "speed": speed,
        "probe_samples": len(workload.probe.samples),
        "raw": raw,
        "wall_s": now() - started,
    }
    result["metrics"] = at_reference_speed(raw, spec, speed, workload.keep_raw)
    if not args.trace:
        result["metrics"]["setup_s"]["value"] = result["setup_s"]
    return workload.finish()


def end_to_end(workload, phase, result: dict) -> dict:
    """The raw end-to-end values of one timed phase."""
    charged = phase.charged()
    client = workload.client
    result["samples"] = {
        "latency_s": phase.latencies,
        "encode_encrypt_s": client.up_s,
        "decrypt_decode_s": client.down_s,
    }
    result["clients"] = getattr(workload, "clients", 1)
    return {
        "setup_s": result["setup"]["raw_s"],
        "latency_p50_s": statistics.median(charged),
        "latency_p90_s": percentile(charged, 0.9),
        "throughput_ops_s": (phase.attempted - phase.failed) / phase.wall_s,
        "encode_encrypt_p50_s": statistics.median(client.up_s),
        "decrypt_decode_p50_s": statistics.median(client.down_s),
        "wire_bytes_per_op": workload.wire_bytes,
        "precision_bits": workload.precision_bits,
        "peak_rss_mb": 0.0,  # filled in once the workload is closed
    }


# ---------------------------------------------------------------------------
# The parent: starts workload processes, prints, compares
# ---------------------------------------------------------------------------


def spawn(args: argparse.Namespace, workload: str, setup_only: bool = False) -> dict:
    """Run one workload process to its end and read back its result."""
    command = [
        sys.executable,
        str(BENCH_DIR / "run.py"),
        "--child",
        *("--workload", workload),
        *("--seed", str(args.seed)),
        *("--seconds", str(args.seconds)),
        *("--trace", str(args.trace)),
        *("--t0", repr(now())),
    ]
    command += ["--smoke"] * args.smoke + ["--setup-only"] * setup_only
    path = result_path(workload, args.trace, setup_only)
    path.unlink(missing_ok=True)
    # The child's own output (tracebacks of failed ops) is diagnostics.
    done = subprocess.run(
        command, env={**os.environ, **PINNED_ENV}, stdout=sys.stderr, check=False
    )
    if done.returncode != 0 or not path.exists():
        raise SystemExit(f"bench: workload process for {workload} failed")
    return json.loads(path.read_text())


def run_workload(args: argparse.Namespace, workload: str) -> dict:
    """One run.  On end-to-end runs ``setup_s`` is the median over
    ``SETUP_REPEATS`` set-ups, each in a fresh process."""
    extra = 0 if args.trace or args.smoke else SETUP_REPEATS[workload] - 1
    setups = [spawn(args, workload, setup_only=True)["setup_s"] for _ in range(extra)]
    result = spawn(args, workload)
    if not args.trace:
        result["setup_samples"] = [*setups, result["setup_s"]]
        result["metrics"]["setup_s"]["value"] = statistics.median(
            result["setup_samples"]
        )
        result_path(workload, args.trace).write_text(json.dumps(result, indent=1))
    return result


def print_result(result: dict) -> None:
    print(
        f"== {result['workload']}  seed={result['seed']}  "
        f"seconds={result['seconds']:g}  trace={result['trace']}"
        f"{'  SMOKE' if result['smoke'] else ''} =="
    )
    for name, counts in result["phases"].items():
        print(
            f"  phase {name:<13} attempted {counts['attempted']:>5}  "
            f"succeeded {counts['succeeded']:>5}  failed {counts['failed']:>3}"
        )
    samples = result.get("samples", {})
    counts = {
        "latency": len(samples.get("latency_s", ())),
        "encode_encrypt": len(samples.get("encode_encrypt_s", ())),
        "decrypt_decode": len(samples.get("decrypt_decode_s", ())),
        "setup": len(result.get("setup_samples", ())),
    }
    if "clients" in result:
        print(f"  closed loop, {result['clients']} request(s) outstanding")
    measured = result["measured"]
    print(
        f"  machine speed factor {measured['speed']:.3f} (set-up {result['setup']['speed']:.3f}): "
        f"seconds below are wall-clock / factor; raw values in the result file"
    )
    for name, metric in result["metrics"].items():
        n = next((n for key, n in counts.items() if name.startswith(key)), 0)
        note = f"  (n={n})" if n else ""
        print(f"  {name:<34} {metric['value']:>16.6g} {metric['unit']}{note}")
    print(
        f"  correct={result['correct']}  attempted={result['attempted']}  "
        f"failed={result['failed']}  "
        f"failed_share={result['failed'] / result['attempted']:.4f}"
    )


def value(result: dict, metric: str):
    return result["metrics"][metric]["value"]


def aa_main(args: argparse.Namespace) -> int:
    """Noise of the benchmark itself.  Per workload: two end-to-end runs
    of the same code on the same seed must agree within every metric's
    bound; a run on the next seed must keep the wire bytes, every exact
    per-layer count and (within a bit) the precision."""
    next_seed = argparse.Namespace(**{**vars(args), "seed": args.seed + 1})
    problems: list[str] = []
    gaps: dict = {}
    for name in [args.workload] if args.workload else WORKLOAD_NAMES:
        first, second = run_workload(args, name), run_workload(args, name)
        reseeded = run_workload(next_seed, name)
        traced = [
            run_workload(argparse.Namespace(**{**vars(ns), "trace": 1}), name)
            for ns in (args, next_seed)
        ]

        print(f"== {name}: the same code twice, seed {args.seed} ==")
        gaps[name] = {}
        for metric, spec in END_TO_END.items():
            a, b = value(first, metric), value(second, metric)
            gap = abs(b - a) / abs(a)
            over = gap > spec["bound"]
            print(
                f"  {metric:<24} {a:>14.6g} {b:>14.6g} {spec['unit']:<6} "
                f"gap {gap:7.4f}  bound {spec['bound']:.2f}{'  OVER' if over else ''}"
            )
            gaps[name][metric] = {"first": a, "second": b, "gap": gap}
            if over:
                problems.append(f"{name}: {metric} differs by {gap:.3f} between two runs")
        for result in (first, second, reseeded, *traced):
            if not result["correct"] or result["failed"]:
                problems.append(f"{name}: a run (seed {result['seed']}) had failed ops")
        if value(first, "wire_bytes_per_op") != value(reseeded, "wire_bytes_per_op"):
            problems.append(f"{name}: wire_bytes_per_op changes with the seed")
        if abs(value(first, "precision_bits") - value(reseeded, "precision_bits")) > 1:
            problems.append(f"{name}: precision_bits moves by over a bit with the seed")
        for metric, spec in PER_LAYER.items():
            if spec["unit"] in ("count", "bytes") and value(traced[0], metric) != value(
                traced[1], metric
            ):
                problems.append(f"{name}: {metric} changes with the seed")
    NOISE_FILE.write_text(
        json.dumps(
            {
                "what": "relative gap between two runs of the same code and seed",
                "seed": args.seed,
                "seconds": args.seconds,
                "environment": first["environment"],
                "noise": gaps,
            },
            indent=1,
        )
        + "\n"
    )
    for problem in problems:
        print(f"A/A: {problem}")
    print(f"A/A: {'FAILED' if problems else 'ok'}; gaps written to {NOISE_FILE}")
    return 1 if problems else 0


def contract_line(result: dict) -> dict:
    return {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not (ROOT / "src" / "repro").is_dir():
        print("bench: no src/repro beside bench/; needs a full checkout", file=sys.stderr)
        return 2
    if args.aa:
        return aa_main(args)
    names = [args.workload] if args.workload else WORKLOAD_NAMES
    results = {name: run_workload(args, name) for name in names}
    for result in results.values():
        print_result(result)
    if args.workload:
        print(json.dumps(contract_line(results[args.workload])))
    else:
        print(json.dumps({name: contract_line(r) for name, r in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

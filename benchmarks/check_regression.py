#!/usr/bin/env python3
"""Bench-regression gate: fresh BENCH_*.json vs. the committed copies.

``run_bench.py`` writes, per file, machine-relative ratios in
``speedups_x`` (reference time / engine time, higher is better) and each
ratio's own noise band in ``noise_x`` (spread of its interleaved
per-round ratios).  This gate compares a fresh file against the
committed copy of the same name:

* a fresh ratio is compared only to the committed value recorded under
  the **same** ``meta`` (bench, shape, backend, rounds) — a fresh file
  at any other meta gets the note ``no baseline at this shape`` and
  passes, so a new shape lands green and gates once its file is
  committed;
* a ratio **fails** when it decays by more than
  ``max(--max-slowdown, committed noise, fresh noise)``;
* a move (either way) no larger than the two noise bands is reported as
  ``below noise floor`` — neither a regression nor evidence of a gain;
* a ratio the committed file tracks and the fresh run no longer produces
  **fails**: a renamed or dropped row must update the committed file in
  the same PR, never fall out of the gate unnoticed.

There is no history: the committed value is the baseline, git is the
record.

Usage::

    python benchmarks/check_regression.py --baseline-dir .bench-baselines
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

DEFAULT_FILES = ["BENCH_keyswitch.json", "BENCH_runtime.json", "BENCH_fabric.json"]


def check_file(
    fresh_path: Path, baseline_path: Path, max_slowdown: float
) -> tuple[list[str], list[str]]:
    """Returns (regressions, notes) for one bench file."""
    name = fresh_path.name
    if not fresh_path.exists():
        return [f"{name}: fresh file missing at {fresh_path}"], []
    if not baseline_path.exists():
        return [], [f"{name}: no committed baseline at {baseline_path}; skipped"]
    fresh = json.loads(fresh_path.read_text())
    committed = json.loads(baseline_path.read_text())
    if fresh.get("meta") != committed.get("meta"):
        return [], [
            f"{name}: no baseline at this shape (fresh meta {fresh.get('meta')} "
            f"!= committed {committed.get('meta')}); skipped"
        ]
    fresh_ratios = fresh.get("speedups_x", {})
    base_ratios = committed.get("speedups_x", {})
    regressions, notes = [], []
    for key, base in sorted(base_ratios.items()):
        if key not in fresh_ratios:
            regressions.append(
                f"{name}: {key} tracked by the committed file ({base:.2f}x) but "
                "missing from the fresh run — renamed/dropped ratios must "
                "update the committed file in the same PR"
            )
            continue
        got = float(fresh_ratios[key])
        noise = max(
            float(committed.get("noise_x", {}).get(key, 0.0)),
            float(fresh.get("noise_x", {}).get(key, 0.0)),
        )
        move = got / float(base) - 1.0
        line = (
            f"{name}: {key} {base:.2f}x -> {got:.2f}x "
            f"({move:+.1%}, noise {noise:.0%})"
        )
        if -move > max(max_slowdown, noise):
            regressions.append(line)
        elif abs(move) <= noise:
            notes.append(f"{line} below noise floor")
        else:
            notes.append(line)
    for key in sorted(set(fresh_ratios) - set(base_ratios)):
        notes.append(f"{name}: {key} is new (no committed ratio); skipped")
    return regressions, notes


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "files",
        nargs="*",
        default=DEFAULT_FILES,
        help=f"bench JSON filenames to check (default: {' '.join(DEFAULT_FILES)})",
    )
    ap.add_argument(
        "--baseline-dir",
        type=Path,
        required=True,
        help="directory holding the committed copies",
    )
    ap.add_argument(
        "--fresh-dir",
        type=Path,
        default=Path("."),
        help="directory holding the freshly produced files (default: cwd)",
    )
    ap.add_argument(
        "--max-slowdown",
        type=float,
        default=0.25,
        help="fail when a ratio decays by more than this fraction "
        "(or its noise band, when that is wider)",
    )
    args = ap.parse_args(argv)

    all_regressions: list[str] = []
    for filename in args.files:
        regressions, notes = check_file(
            args.fresh_dir / filename,
            args.baseline_dir / filename,
            args.max_slowdown,
        )
        for note in notes:
            print(f"  ok    {note}")
        for regression in regressions:
            print(f"  FAIL  {regression}")
        all_regressions.extend(regressions)

    if all_regressions:
        print(
            f"\nbench regression gate: {len(all_regressions)} ratio(s) decayed past "
            f"max({args.max_slowdown:.0%}, their noise band) or went missing"
        )
        return 1
    print(
        f"\nbench regression gate: every tracked ratio within "
        f"max({args.max_slowdown:.0%}, its noise band)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""The bench-regression gate's verdicts, on pure JSON (nothing is timed).

``benchmarks/check_regression.py`` compares a fresh ``BENCH_*.json`` to
the committed copy of the same meta and judges each ratio against its
own noise band; these cases pin every verdict it can return.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

from benchmarks.check_regression import check_file, main

ROOT = Path(__file__).resolve().parents[1]
NAME = "BENCH_case.json"

COMMITTED = {
    "meta": {"bench": "case", "degree": 1024, "num_primes": 10, "backend": "barrett"},
    "speedups_x": {"steady": 2.0, "jumpy": 3.0},
    "noise_x": {"steady": 0.05, "jumpy": 0.40},
}


def _gate(tmp_path, fresh: dict, committed: dict = COMMITTED):
    """Write both sides, return (exit code of main, regressions, notes)."""
    base_dir, fresh_dir = tmp_path / "base", tmp_path / "fresh"
    for directory, payload in ((base_dir, committed), (fresh_dir, fresh)):
        directory.mkdir(parents=True)
        (directory / NAME).write_text(json.dumps(payload))
    code = main(["--baseline-dir", str(base_dir), "--fresh-dir", str(fresh_dir), NAME])
    return code, *check_file(fresh_dir / NAME, base_dir / NAME, 0.25)


def _fresh(**ratios) -> dict:
    fresh = copy.deepcopy(COMMITTED)
    fresh["speedups_x"].update(ratios)
    return fresh


def test_undoing_pr13_is_a_regression(tmp_path):
    """The committed key-switch file against the ratios PR 12 recorded:
    reverting PR 13's hoisting work must not pass the gate."""
    committed = json.loads((ROOT / "BENCH_keyswitch.json").read_text())
    assert "trajectory" not in committed
    assert set(committed["noise_x"]) == set(committed["speedups_x"])
    fresh = copy.deepcopy(committed)
    fresh["speedups_x"].update(
        key_switch=0.76, rotate=0.95, rotate_hoisted_x8=2.50, bsgs_matmul=1.88
    )
    code, regressions, _ = _gate(tmp_path, fresh, committed)
    assert code == 1
    failed = {line.split()[1] for line in regressions}
    assert failed >= {"rotate", "rotate_hoisted_x8", "bsgs_matmul"}


def test_move_inside_the_noise_band_is_below_noise_floor(tmp_path):
    code, regressions, notes = _gate(tmp_path, _fresh(steady=1.92, jumpy=3.9))
    assert code == 0 and not regressions
    assert all(note.endswith("below noise floor") for note in notes)


def test_tolerated_move_outside_the_noise_band_is_plain_ok(tmp_path):
    code, regressions, notes = _gate(tmp_path, _fresh(steady=1.6, jumpy=3.0))
    assert code == 0 and not regressions
    (steady,) = [note for note in notes if " steady " in note]
    assert "-20.0%" in steady and "below noise floor" not in steady


def test_other_shape_has_no_baseline_and_passes(tmp_path):
    """The ``fabric_remote_attach`` case: a ratio that would fail, at a
    meta the committed file does not hold, is a note."""
    fresh = _fresh(steady=0.1)
    fresh["meta"]["degree"] = 256
    code, regressions, notes = _gate(tmp_path, fresh)
    assert code == 0 and not regressions
    assert len(notes) == 1 and "no baseline at this shape" in notes[0]


def test_tracked_ratio_missing_from_fresh_run_fails(tmp_path):
    fresh = _fresh()
    del fresh["speedups_x"]["steady"]
    code, regressions, _ = _gate(tmp_path, fresh)
    assert code == 1
    assert len(regressions) == 1 and "steady" in regressions[0]
    assert "missing from the fresh run" in regressions[0]


def test_decay_fails_past_the_wider_of_tolerance_and_noise(tmp_path):
    # steady: band = max(25%, 5%); jumpy: band = max(25%, 40%).
    code, regressions, _ = _gate(tmp_path, _fresh(steady=1.4, jumpy=2.0))
    assert code == 1
    assert [line.split()[1] for line in regressions] == ["steady"]
    code, regressions, _ = _gate(tmp_path / "more", _fresh(jumpy=1.7))
    assert [line.split()[1] for line in regressions] == ["jumpy"]


def test_fresh_noise_widens_the_band(tmp_path):
    fresh = _fresh(steady=1.4)
    fresh["noise_x"]["steady"] = 0.35
    code, regressions, notes = _gate(tmp_path, fresh)
    assert code == 0 and not regressions
    assert any(" steady " in n and n.endswith("below noise floor") for n in notes)

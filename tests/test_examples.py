"""Every script under ``examples/`` runs to completion.

The examples are the user-facing entry points, and several assert what
they print (the served outputs bit-identical to eager evaluation, the
bootstrap's precision); each runs in a fresh interpreter, the way a
reader runs it: ``PYTHONPATH=src python examples/<name>.py``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, f"{script.name} failed:\n{done.stderr[-4000:]}"

"""The timing-model examples run end to end.

They call plan internals (``JwParallelPlan._launches``, ``trace_launch``,
``EventGraph``) directly, so a refactor of the model can break them
without breaking a library test.  ``quickstart.py`` and
``galaxy_collision.py`` run full simulations and stay out (10-30 s each).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMING_EXAMPLES = ("scheduling_trace.py", "plan_comparison.py", "device_exploration.py")


def test_timing_examples_exit_zero():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    failures = []
    for script in TIMING_EXAMPLES:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "examples" / script)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        if proc.returncode != 0:
            failures.append(f"{script} exited {proc.returncode}:\n{proc.stderr}")
    assert not failures, "\n".join(failures)

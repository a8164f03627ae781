"""The fast examples run end to end.

The timing-model ones call plan internals (``JwParallelPlan._launches``,
``trace_launch``, ``EventGraph``) directly, so a refactor of the model can
break them without breaking a library test; ``accuracy_study.py`` imports
from the ``repro.nbody`` and ``repro.tree`` package roots, so it fails
when an export it uses goes away.  ``quickstart.py`` and
``galaxy_collision.py`` run full simulations and stay out (10-30 s each).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FAST_EXAMPLES = (
    "scheduling_trace.py",
    "plan_comparison.py",
    "device_exploration.py",
    "accuracy_study.py",
)


def test_fast_examples_exit_zero():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    failures = []
    for script in FAST_EXAMPLES:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "examples" / script)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        if proc.returncode != 0:
            failures.append(f"{script} exited {proc.returncode}:\n{proc.stderr}")
    assert not failures, "\n".join(failures)

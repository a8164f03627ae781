"""Timing golden: the simulated HD 5850 numbers of one force pass, bit for bit.

One Plummer sphere (n=2048, seed 7, softening 1e-2, numpy kernels) runs
one force pass under i, j, w and jw (overlap on).  Every breakdown and
kernel-timing field the paper's tables read is compared, as
``float.hex``, with ``tests/golden/timing-plummer-n2048-s7.json``, so a
refactor of the timing model cannot move a simulated number unnoticed.

Re-bless only when a change to the model is intended, with
``REPRO_BLESS_GOLDEN=1`` (see TESTING.md).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.core.plans import PlanConfig, get_plan
from repro.nbody.ic import plummer

GOLDEN = Path(__file__).parent / "golden" / "timing-plummer-n2048-s7.json"
PLANS = ("i", "j", "w", "jw")
BLESS = os.environ.get("REPRO_BLESS_GOLDEN") == "1"


def timing_values(plan_name: str) -> dict:
    """The pinned fields of one force pass under ``plan_name``."""
    particles = plummer(2048, seed=7)
    plan = get_plan(plan_name, PlanConfig(softening=1e-2, kernel_backend="numpy"))
    _, b = plan.compute_step(particles.positions, particles.masses)
    return {
        "kernel_seconds": b.kernel_seconds.hex(),
        "host_seconds": b.host_seconds.hex(),
        "transfer_seconds": b.transfer_seconds.hex(),
        "total_seconds": b.total_seconds.hex(),
        "interactions": b.interactions,
        "issued_interactions": b.issued_interactions,
        "kernels": [
            {
                "name": k.name,
                "seconds": k.seconds.hex(),
                "makespan_cycles": k.makespan_cycles.hex(),
                "cu_busy_fraction": k.cu_busy_fraction.hex(),
            }
            for k in b.kernels
        ],
    }


@pytest.mark.parametrize("plan_name", PLANS)
def test_matches_golden(plan_name):
    values = timing_values(plan_name)
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if BLESS:
        golden[plan_name] = values
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"blessed {plan_name}")
    assert values == golden[plan_name], (
        f"simulated timing of plan {plan_name!r} moved; rerun with "
        "REPRO_BLESS_GOLDEN=1 to re-bless if the change is intended"
    )

"""Shared fixtures and helpers for the test suite.

Plain helpers (``make_sim``, ``small_spec``, ``Interrupt``...) are
importable as ``from tests.conftest import ...`` so the runtime/serve/
exec/check test modules share one definition instead of copy-pasting.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SETTINGS, reset
from repro.core.plans import PlanConfig, plan_by_name
from repro.core.simulation import Simulation
from repro.nbody.ic import plummer, uniform_sphere

#: Softening used throughout the functional tests.
EPS = 1e-2


@pytest.fixture(autouse=True)
def _clean_settings(monkeypatch):
    """Every test starts from the settings table's defaults and leaves no
    ``repro.configure`` value behind.

    ``REPRO_WORKERS`` stays: CI runs the whole suite a second time with
    ``REPRO_WORKERS=2``.
    """
    for row in SETTINGS.values():
        if row.env not in (None, "REPRO_WORKERS"):
            monkeypatch.delenv(row.env, raising=False)
    yield
    reset()


# ---------------------------------------------------------------------------
# Shared helpers (import from tests.conftest)
# ---------------------------------------------------------------------------

def make_sim(plan_name="j", n=96, seed=7, engine=None, wg_size=256, dt=1e-3):
    """A small deterministic simulation — the runtime/serve test workhorse."""
    particles = plummer(n, seed=seed)
    plan = plan_by_name(
        plan_name, PlanConfig(softening=EPS, wg_size=wg_size), engine=engine
    )
    return Simulation(particles, plan, dt=dt)


class Interrupt(RuntimeError):
    """Stands in for a crash/SIGTERM mid-run."""


def interrupt_at(step):
    """A run callback that raises :class:`Interrupt` at ``step``."""

    def callback(sim):
        if sim.record.steps == step:
            raise Interrupt(f"killed at step {step}")

    return callback


def small_spec(**kw):
    """A cheap :class:`~repro.serve.JobSpec`; override any field via kwargs."""
    from repro.serve import JobSpec

    base = dict(workload="plummer", n=128, seed=1, plan="jw", dt=1e-3, steps=5)
    base.update(kw)
    return JobSpec(**base)


def solo_state(spec):
    """Final (positions, velocities, time) of ``spec`` run standalone."""
    sim = spec.build_simulation()
    for _ in range(spec.steps):
        sim.step()
    return (
        sim.particles.positions.copy(),
        sim.particles.velocities.copy(),
        sim.time,
    )


@pytest.fixture(scope="session")
def plummer_small():
    """A 256-body Plummer sphere (session-scoped; treat as read-only)."""
    return plummer(256, seed=11)


@pytest.fixture(scope="session")
def plummer_medium():
    """A 2048-body Plummer sphere (session-scoped; treat as read-only)."""
    return plummer(2048, seed=12)


@pytest.fixture(scope="session")
def uniform_small():
    """A 512-body uniform sphere (session-scoped; treat as read-only)."""
    return uniform_sphere(512, seed=13)


@pytest.fixture()
def rng():
    """A fresh deterministic RNG per test."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def config():
    """Default plan configuration with the test softening."""
    return PlanConfig(softening=EPS)


@pytest.fixture(scope="session")
def bodies():
    """(positions, masses) of a 1024-body Plummer sphere (read-only)."""
    p = plummer(1024, seed=7)
    return p.positions, p.masses

"""Canonical job descriptions and content-addressed result identity.

A :class:`JobSpec` pins everything that determines a run's *physics*:
workload generator and seed, body count, plan (by registered name) and
plan configuration, time step, and the absolute step target.  Two specs
with equal :meth:`JobSpec.canonical` forms produce bit-identical final
states — force evaluation, the leapfrog integrator, and checkpointing
are all deterministic — so the sha256 of the canonical JSON
(:meth:`JobSpec.spec_hash`) is a safe content address for caching and
in-flight deduplication.

``checkpoint_every`` is deliberately *excluded* from the hash: it changes
how often intermediate state is persisted, never the final state.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Any

from repro.bench.workloads import WORKLOADS, make_workload
from repro.core.plans.base import Plan, PlanConfig
from repro.core.plans.registry import available_plans, get_plan
from repro.core.simulation import Simulation
from repro.errors import ServeError
from repro.exec.engine import ExecutionEngine
from repro.runtime.checkpoint import plan_config_from_dict, plan_config_to_dict

__all__ = ["JobSpec"]


@dataclass(frozen=True)
class JobSpec:
    """Canonical, hashable description of one simulation job.

    ``plan`` accepts a registered plan name or a :class:`Plan` instance
    (normalised to ``(name, config)`` — the instance itself is not kept,
    so a spec never smuggles unhashable state); ``plan_config`` accepts a
    :class:`PlanConfig` or its dict form and is mutually exclusive with
    passing an instance.
    """

    workload: str = "plummer"
    n: int = 1024
    seed: int = 0
    plan: str | Plan = "jw"
    dt: float = 1e-3
    steps: int = 10
    plan_config: PlanConfig | dict[str, Any] | None = None
    #: persistence cadence only — excluded from the content hash
    checkpoint_every: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        plan = self.plan
        config = self.plan_config
        if isinstance(plan, Plan):
            if config is not None:
                raise ServeError(
                    "pass plan_config only with a plan *name*; a plan "
                    "instance already carries its configuration"
                )
            config = plan.config
            plan = plan.name
        if not isinstance(plan, str):
            raise ServeError(
                f"plan must be a registered name or Plan instance, "
                f"got {type(plan).__name__}"
            )
        if plan not in available_plans():
            raise ServeError(
                f"unknown plan '{plan}'; choose from {list(available_plans())}"
            )
        if isinstance(config, PlanConfig):
            config = plan_config_to_dict(config)
        elif config is None:
            config = plan_config_to_dict(PlanConfig())
        elif isinstance(config, dict):
            # Round-trip to validate and normalise field types/order.
            config = plan_config_to_dict(plan_config_from_dict(config))
        else:
            raise ServeError(
                f"plan_config must be a PlanConfig or dict, "
                f"got {type(config).__name__}"
            )
        if self.workload not in WORKLOADS:
            raise ServeError(
                f"unknown workload '{self.workload}'; "
                f"choose from {sorted(WORKLOADS)}"
            )
        for name, low in (("n", 1), ("seed", 0), ("steps", 1), ("checkpoint_every", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ServeError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ServeError(f"{name} must be >= {low}, got {value}")
            object.__setattr__(self, name, int(value))
        dt = self.dt
        if (
            isinstance(dt, bool)
            or not isinstance(dt, numbers.Real)
            or not (math.isfinite(dt) and dt > 0.0)
        ):
            raise ServeError(f"dt must be a finite positive number, got {dt!r}")
        object.__setattr__(self, "dt", float(dt))
        object.__setattr__(self, "plan", plan)
        object.__setattr__(self, "plan_config", config)

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def canonical(self) -> dict[str, Any]:
        """The physics-determining fields, in canonical form.

        Floats serialise via ``repr`` (shortest round-trip), so equal
        float values — however they were written — hash identically.
        """
        return {
            "workload": self.workload,
            "n": int(self.n),
            "seed": int(self.seed),
            "plan": self.plan,
            "dt": float(self.dt),
            "steps": int(self.steps),
            "plan_config": dict(sorted(self.plan_config.items())),
        }

    def spec_hash(self) -> str:
        """sha256 of the canonical JSON — the content address."""
        blob = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # (de)serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly form (includes ``checkpoint_every``)."""
        return {**self.canonical(), "checkpoint_every": self.checkpoint_every}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "JobSpec":
        """Rebuild a spec from :meth:`to_dict` output (extra keys rejected)."""
        known = {
            "workload", "n", "seed", "plan", "dt", "steps",
            "plan_config", "checkpoint_every",
        }
        extra = set(data) - known
        if extra:
            raise ServeError(f"unknown JobSpec fields: {sorted(extra)}")
        return cls(**data)

    # ------------------------------------------------------------------
    # materialisation
    # ------------------------------------------------------------------
    def build_simulation(
        self, *, engine: ExecutionEngine | None = None
    ) -> Simulation:
        """Instantiate the described simulation (fresh ICs, fresh plan)."""
        particles = make_workload(self.workload, self.n, seed=self.seed)
        plan = get_plan(
            self.plan,
            plan_config_from_dict(self.plan_config),
            engine=engine,
        )
        return Simulation(particles, plan, dt=self.dt)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"JobSpec({self.workload} n={self.n} seed={self.seed} "
            f"plan={self.plan} dt={self.dt} steps={self.steps})"
        )

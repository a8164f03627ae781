"""The paper's contribution: PTPM model, plans, host model, Simulation."""

from repro.core.hostmodel import PENTIUM_E5300, HostCpuModel
from repro.core.ptpm import (
    PLAN_NAMES,
    Mapping,
    PlanDescriptor,
    comparison_table,
    describe,
)
from repro.core.plans import (
    IParallelPlan,
    JParallelPlan,
    JwParallelPlan,
    Plan,
    PlanConfig,
    StepBreakdown,
    TreePlanBase,
    WParallelPlan,
    available_plans,
    get_plan,
    resolve_plan,
)
from repro.core.simulation import Simulation, SimulationRecord

__all__ = [
    "PENTIUM_E5300",
    "HostCpuModel",
    "PLAN_NAMES",
    "Mapping",
    "PlanDescriptor",
    "comparison_table",
    "describe",
    "IParallelPlan",
    "JParallelPlan",
    "JwParallelPlan",
    "Plan",
    "PlanConfig",
    "StepBreakdown",
    "TreePlanBase",
    "WParallelPlan",
    "available_plans",
    "get_plan",
    "resolve_plan",
    "Simulation",
    "SimulationRecord",
]

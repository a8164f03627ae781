"""The paper's contribution: PTPM model, plans, pipeline, scheduler, driver."""

from repro.core.hostmodel import PENTIUM_E5300, HostCpuModel
from repro.core.pipeline import (
    PipelineResult,
    overlapped_pipeline,
    serial_pipeline,
    split_batches,
)
from repro.core.scheduler import POLICIES, ScheduleOutcome, schedule_walks
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
    RunTiming,
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
    "PipelineResult",
    "overlapped_pipeline",
    "serial_pipeline",
    "split_batches",
    "POLICIES",
    "ScheduleOutcome",
    "schedule_walks",
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
    "RunTiming",
    "StepBreakdown",
    "TreePlanBase",
    "WParallelPlan",
    "available_plans",
    "get_plan",
    "resolve_plan",
    "Simulation",
    "SimulationRecord",
]

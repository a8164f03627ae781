"""The four PTPM plans: i-parallel, j-parallel, w-parallel, jw-parallel.

Plans are addressed by short name through the registry
(:mod:`repro.core.plans.registry`, re-exported here): the CLI, the
benchmarks, checkpoint manifests and the job service all resolve
``"i" / "j" / "w" / "jw"`` via :func:`get_plan` instead of importing
plan classes directly.
"""

from repro.core.plans.base import Plan, PlanConfig, StepBreakdown
from repro.core.plans.registry import (
    available_plans,
    get_plan,
    register,
    resolve_plan,
    unregister,
)
from repro.core.plans.i_parallel import IParallelPlan
from repro.core.plans.j_parallel import JParallelPlan
from repro.core.plans.tree_base import TreePlanBase
from repro.core.plans.w_parallel import WParallelPlan
from repro.core.plans.jw_parallel import DEFAULT_PIPELINE_BATCHES, JwParallelPlan
from repro.core.plans.blockstep import (
    BlockDirectPlan,
    BlockTimestepPlan,
    BlockTreePlan,
)

__all__ = [
    "Plan",
    "PlanConfig",
    "StepBreakdown",
    "IParallelPlan",
    "JParallelPlan",
    "TreePlanBase",
    "WParallelPlan",
    "JwParallelPlan",
    "BlockTimestepPlan",
    "BlockDirectPlan",
    "BlockTreePlan",
    "DEFAULT_PIPELINE_BATCHES",
    "available_plans",
    "get_plan",
    "register",
    "resolve_plan",
    "unregister",
]

"""repro.exec — execution engine: workspace pool + parallel map.

The paper keeps the *device* saturated by choosing how force work maps
onto compute units; this package does the same for the CPU substrate that
hosts the reproduction:

* :mod:`repro.exec.workspace` — preallocated, dtype-keyed scratch buffers
  threaded through the force hot paths, so steady-state force passes
  allocate nothing;
* :mod:`repro.exec.engine` — a deterministic parallel ``map`` that runs
  in order for one worker and on a thread pool for more, fanning walk
  evaluation and blocked kernel work across cores with per-worker
  workspaces and reducing results in fixed index order, so parallel
  output is bit-identical to serial.

Typical use::

    from repro import exec as rexec

    engine = rexec.ExecutionEngine(workers=4)
    plan = JwParallelPlan(engine=engine)

or globally (what ``repro-nbody --workers 4`` does)::

    repro.configure(workers=4)

Fault tolerance: the engine retries failed tasks per a
:class:`~repro.exec.faults.RetryPolicy` and accepts a deterministic
:class:`~repro.exec.faults.FaultInjector` so that path is testable (see
:mod:`repro.exec.faults`).
"""

from repro.exec.engine import (
    EnginePool,
    ExecutionEngine,
    get_default_engine,
    set_default_engine,
)
from repro.exec.faults import (
    FaultInjector,
    InjectedFault,
    RetryPolicy,
)
from repro.exec.workspace import (
    Workspace,
    local_workspace,
    reset_local_workspace,
    total_workspace_bytes,
)

__all__ = [
    "EnginePool",
    "ExecutionEngine",
    "FaultInjector",
    "InjectedFault",
    "RetryPolicy",
    "get_default_engine",
    "set_default_engine",
    "Workspace",
    "local_workspace",
    "reset_local_workspace",
    "total_workspace_bytes",
]

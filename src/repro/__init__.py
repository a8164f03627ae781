"""repro — reproduction of "Parallel Time-Space Processing Model Based
Fast N-body Simulation on GPUs" (Wang, Zeng, Wang, Fu & Zeng).

Stable front door
-----------------
The documented public API is re-exported here, so user code needs one
import root::

    import repro

    repro.configure(workers=4)
    particles = repro.ParticleSet(...)          # or repro.nbody.plummer(...)
    sim = repro.Simulation(particles, repro.JwParallelPlan(), dt=1e-3)
    session = repro.RunSession(sim, "runs/demo", checkpoint_every=25)
    session.run(1000)

Re-exports resolve lazily (PEP 562), so ``import repro`` stays cheap and
circular-import-free; subpackages remain importable directly.

Package layout
--------------
* :mod:`repro.nbody` — particle/physics substrate (ParticleSet, forces,
  integrators, initial conditions, flop accounting, snapshot I/O).
* :mod:`repro.tree` — Barnes-Hut substrate (Morton keys, octree, MAC,
  traversal, walks).
* :mod:`repro.gpu` — simulated SIMT GPU device (device specs, kernels,
  timing engine).
* :mod:`repro.core` — the paper's contribution: the PTPM model, the four
  parallel plans (i/j/w/jw), the host-device pipeline and the high-level
  :class:`~repro.core.simulation.Simulation`.
* :mod:`repro.exec` — CPU execution engine: workspace pool, deterministic
  parallel map, per-task retry.
* :mod:`repro.runtime` — fault-tolerant run sessions: checkpointing and
  bit-exact resume.
* :mod:`repro.check` — differential & invariant verification: the
  oracle behind cross-plan/cross-backend equivalence, runtime guards,
  golden snapshots.
* :mod:`repro.obs` — tracing, metrics, and the durable run ledger.
* :mod:`repro.perfmodel` — analytic performance model and metrics.
* :mod:`repro.bench` — benchmark harness regenerating the paper's tables
  and figures.
"""

from importlib import import_module

from repro._version import __version__

#: Lazily resolved public names -> defining module.
_EXPORTS = {
    "Simulation": "repro.core.simulation",
    "SimulationRecord": "repro.core.simulation",
    "ParticleSet": "repro.nbody.particles",
    "PlanConfig": "repro.core.plans",
    "IParallelPlan": "repro.core.plans",
    "JParallelPlan": "repro.core.plans",
    "WParallelPlan": "repro.core.plans",
    "JwParallelPlan": "repro.core.plans",
    "plan_by_name": "repro.core.plans",
    "available_plans": "repro.core.plans",
    "get_plan": "repro.core.plans",
    "register": "repro.plans",
    "resolve_plan": "repro.core.plans",
    "RunSession": "repro.runtime",
    "RunLedger": "repro.obs.ledger",
    "ExecutionEngine": "repro.exec",
    "EnginePool": "repro.exec",
    "Client": "repro.serve",
    "Coordinator": "repro.serve",
    "Gateway": "repro.serve",
    "JobHandle": "repro.serve",
    "JobResult": "repro.serve",
    "JobService": "repro.serve",
    "JobSpec": "repro.serve",
    "SubmitOptions": "repro.serve",
    "TenantPolicy": "repro.serve",
    "Worker": "repro.serve",
    "connect": "repro.serve",
    "RetryPolicy": "repro.exec",
    "FaultInjector": "repro.exec",
    "configure": "repro.config",
    "ReproError": "repro.errors",
    "VerificationError": "repro.errors",
    "DifferentialOracle": "repro.check",
    "RunGuard": "repro.check",
    "TolerancePolicy": "repro.check",
    "GoldenStore": "repro.check",
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute '{name}'") from None
    value = getattr(import_module(module), name)
    globals()[name] = value  # cache: subsequent lookups skip __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))

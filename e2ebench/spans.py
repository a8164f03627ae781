"""Outside-in span tracing for the benchmark.

The program under test is never edited: :class:`Tracer` replaces a
layer's public callable at the module or class attribute its callers
resolve (``tree_base.generate_walks``, ``CExtensionBackend.sources``,
...) with a timing shim, and :meth:`Tracer.remove` puts the original
object back.  Spans stay in memory until the run ends.

A span is ``(id, parent, name, thread, corr, t0, t1, info)``: ``parent``
is the span open on the same thread when it started (or, for engine
tasks on pool threads, the ``exec.engine.map`` span that dispatched
them), ``corr`` the correlation id (the step index for simulations, the
spec hash for serve jobs) and ``info`` a dict of counts read from the
call's arguments and result *after* the clock stopped.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
from time import perf_counter
from typing import Any, Callable, Iterable

# (module, owner attribute or None for the module itself, attribute, span name)
SIM_TARGETS = [
    ("repro.core.plans.tree_base", None, "build_octree", "tree.octree.build"),
    ("repro.core.plans.tree_base", None, "generate_walks", "tree.walks.generate"),
    ("repro.core.plans.tree_base", None, "walk_sources", "tree.bh_force.walk_sources"),
    ("repro.core.plans.jw_parallel", None, "walk_sources", "tree.bh_force.walk_sources"),
    ("repro.exec.engine", "ExecutionEngine", "map", "exec.engine.map"),
    ("repro.nbody.kernels.cext", "CExtensionBackend", "sources", "nbody.kernels.call"),
    ("repro.nbody.kernels.cext", "CExtensionBackend", "self_forces", "nbody.kernels.call"),
    ("repro.core.plans.base", "Plan", "compute_step", "core.plans.compute_step"),
    ("repro.core.plans.tree_base", "TreePlanBase", "compute_step", "core.plans.compute_step"),
    ("repro.core.plans.blockstep", "BlockTimestepPlan", "compute_step", "core.plans.compute_step"),
    ("repro.core.plans.i_parallel", "IParallelPlan", "step_breakdown", "core.plans.timing_model"),
    ("repro.core.plans.jw_parallel", "JwParallelPlan", "breakdown_from_walks", "core.plans.timing_model"),
    ("repro.core.simulation", "Simulation", "step", "core.simulation.step"),
    ("repro.core.simulation", None, "block_substep", "nbody.integrators.block_substep"),
]

SERVE_TARGETS = [
    ("repro.serve.service", "JobService", "submit", "serve.service.submit"),
    ("repro.serve.service", "_Job", "begin", "serve.service.begin"),
    ("repro.serve.service", "_Job", "advance", "serve.service.advance"),
    ("repro.serve.service", "_Job", "finish", "serve.service.finish"),
    ("repro.serve.service", "JobService", "_observe_slice", "serve.service.observe_slice"),
    ("repro.serve.spec", "JobSpec", "build_simulation", "serve.spec.build"),
    ("repro.exec.engine", "EnginePool", "engine", "exec.engine.setup"),
    ("repro.exec.engine", "ExecutionEngine", "close", "exec.engine.setup"),
    ("repro.runtime.session", "RunSession", "start", "runtime.session.start"),
    ("repro.runtime.session", "RunSession", "advance", "runtime.session.advance"),
    ("repro.runtime.session", "RunSession", "checkpoint", "runtime.checkpoint"),
    ("repro.serve.cache", "ResultCache", "claim", "serve.cache.io"),
    ("repro.serve.cache", "ResultCache", "load", "serve.cache.io"),
    ("repro.serve.cache", "ResultCache", "lookup", "serve.cache.lookup"),
] + [
    ("repro.obs.ledger", "RunLedger", attr, "obs.ledger.write")
    for attr in (
        "record_submitted", "record_started", "record_slice",
        "record_event", "record_finished", "bump_dedup",
    )
]


# -- info extractors: run after the span's clock stopped ---------------------
def _kernel_info(args, kwargs, result) -> dict:
    out = kwargs["out"]
    if len(args) == 4:  # sources(self, targets, src_pos, src_mass)
        _, targets, src_pos, src_mass = args
        arrays = (targets, src_pos, src_mass, out)
        pairs = targets.shape[0] * src_pos.shape[0]
    else:  # self_forces(self, positions, masses)
        _, positions, masses = args
        arrays = (positions, masses, out)
        pairs = positions.shape[0] * (positions.shape[0] - 1)
    return {"interactions": int(pairs), "bytes": int(sum(a.nbytes for a in arrays))}


def _walks_info(args, kwargs, result) -> dict:
    lengths = result.list_lengths()
    return {
        "walks": len(result),
        "list_len_sum": int(lengths.sum()),
        "interactions": int(result.total_interactions),
    }


def _map_info(args, kwargs, result) -> dict:
    return {"tasks": len(result)}


def _compute_step_info(args, kwargs, result) -> dict:
    acc, bd = result
    n = args[1].shape[0]
    info = {"rows": int(acc.shape[0]), "n": int(n)}
    if bd is not None:
        info["simulated_s"] = bd.total_seconds
        meta = bd.meta
        if "n_walks_active" in meta:
            info["walks_frac"] = meta["n_walks_active"] / max(1, meta["n_walks"])
        elif "n_walks" in meta:
            info["walks_frac"] = 1.0
    return info


def _checkpoint_info(args, kwargs, result) -> dict:
    return {"bytes": sum(p.stat().st_size for p in result.iterdir() if p.is_file())}


def _submit_info(args, kwargs, result) -> dict:
    return {"corr": result.spec_hash}


INFO = {
    "nbody.kernels.call": _kernel_info,
    "tree.walks.generate": _walks_info,
    "exec.engine.map": _map_info,
    "core.plans.compute_step": _compute_step_info,
    "runtime.checkpoint": _checkpoint_info,
    "serve.service.submit": _submit_info,
}


def _job_corr(args) -> str | None:
    """Spec hash of the serve job a ``_Job`` method or slice observer runs for."""
    job = args[1] if len(args) > 1 and hasattr(args[1], "handle") else args[0]
    return job.handle.spec_hash


CORR = {
    "serve.service.begin": _job_corr,
    "serve.service.advance": _job_corr,
    "serve.service.finish": _job_corr,
    "serve.service.observe_slice": _job_corr,
}


class Tracer:
    """Collects spans from shims it installs; :meth:`remove` undoes them."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: list[tuple[Any, str, Any]] = []

    # -- thread-local context ------------------------------------------------
    def _ctx(self) -> threading.local:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.corr = None
            local.parent = None
        return local

    def set_corr(self, corr: Any) -> None:
        """Correlation id for spans opened on this thread from now on."""
        self._ctx().corr = corr

    # -- shims -------------------------------------------------------------
    def wrap(self, name: str, fn: Callable) -> Callable:
        info_fn = INFO.get(name)
        corr_fn = CORR.get(name)
        propagate = name == "exec.engine.map"
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            local = tracer._ctx()
            stack = local.stack
            sid = next(tracer._ids)
            parent = stack[-1] if stack else local.parent
            prev_corr = local.corr
            corr = corr_fn(args) if corr_fn is not None else prev_corr
            local.corr = corr
            if propagate:
                args = tracer._propagating_map_args(args, sid, corr)
            stack.append(sid)
            t0 = perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = perf_counter()
                stack.pop()
                local.corr = prev_corr
                info = info_fn(args, kwargs, result) if ok and info_fn else None
                if info and "corr" in info:
                    corr = info.pop("corr")
                tracer.spans.append(
                    (sid, parent, name, threading.get_ident(), corr, t0, t1, info)
                )
            return result

        return shim

    def _propagating_map_args(self, args: tuple, sid: int, corr: Any) -> tuple:
        """Run engine tasks under the dispatching span, whatever thread they land on."""
        engine, fn, *rest = args
        if engine.effective_backend == "process":
            return args  # tasks are pickled; a closure cannot cross
        tracer = self

        def task(item):
            local = tracer._ctx()
            saved = (local.parent, local.corr)
            local.parent, local.corr = sid, corr
            try:
                return fn(item)
            finally:
                local.parent, local.corr = saved

        return (engine, task, *rest)

    def install(self, targets: Iterable[tuple]) -> "Tracer":
        for module_name, owner_name, attr, name in targets:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            original = vars(owner)[attr]
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))
        return self

    def remove(self) -> None:
        """Restore every shimmed attribute to its original object."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)


# -- rollup -------------------------------------------------------------------
def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, _n, _th, _c, t0, t1, _i in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, _p, _n, _th, _c, t0, t1, _i in spans:
        covered, end = 0.0, t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered
    return out


def chrome_trace(spans: list[tuple], *, limit: int) -> list[dict]:
    """The first ``limit`` spans (by start time) as Chrome trace events."""
    events = []
    for sid, parent, name, thread, corr, t0, t1, info in sorted(
        spans, key=lambda s: s[5]
    )[:limit]:
        args = {"id": sid, "parent": parent, "corr": corr}
        if info:
            args.update(info)
        events.append({
            "name": name, "ph": "X", "pid": 1, "tid": thread,
            "ts": t0 * 1e6, "dur": (t1 - t0) * 1e6, "args": args,
        })
    return events

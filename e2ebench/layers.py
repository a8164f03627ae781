"""Per-layer metrics from the spans of one traced run.

Every per-layer metric is computed for every workload, so a run always
prints the full set declared in ``BENCHMARK.json``.  A layer's time is
reported as its *self-time share* of the run's wall: the summed step wall
of the traced loop for simulations, the summed client-observed request
latency for serve.  Shares of a layer a workload never enters read 0.
Counts are per force pass (simulations) or per job (serve).
"""

from __future__ import annotations

from collections import defaultdict
from statistics import median

from spans import self_times

#: metric -> span name whose self time it sums
SHARES = {
    "tree.octree.build_frac": "tree.octree.build",
    "tree.walks.generate_frac": "tree.walks.generate",
    "tree.bh_force.walk_sources_frac": "tree.bh_force.walk_sources",
    "exec.engine.map_self_frac": "exec.engine.map",
    "nbody.kernels.call_frac": "nbody.kernels.call",
    "core.plans.compute_step_self_frac": "core.plans.compute_step",
    "core.plans.timing_model_frac": "core.plans.timing_model",
    "core.simulation.step_self_frac": "core.simulation.step",
    "nbody.integrators.block_substep_self_frac": "nbody.integrators.block_substep",
    "serve.service.submit_frac": "serve.service.submit",
    "serve.spec.build_frac": "serve.spec.build",
    "exec.engine.setup_frac": "exec.engine.setup",
    "runtime.session.start_frac": "runtime.session.start",
    "runtime.session.advance_self_frac": "runtime.session.advance",
    "runtime.checkpoint_frac": "runtime.checkpoint",
    "serve.cache_frac": "serve.cache.io",
    "serve.cache.lookup_frac": "serve.cache.lookup",
    "obs.ledger.write_frac": "obs.ledger.write",
}

#: the serve job's own scheduler-protocol spans (``_Job`` methods + observer)
JOB_SPANS = (
    "serve.service.begin",
    "serve.service.advance",
    "serve.service.observe_slice",
    "serve.service.finish",
)


def _sum(values) -> float:
    return float(sum(values))


def layer_metrics(spans: list, wall: float, *, waits: float = 0.0) -> dict:
    """Shares, counts and the unattributed rest for one traced run.

    ``waits`` is measured waiting time on the blocking path that no span
    covers (serve queue and slice waits); it counts as attributed.
    """
    selfs = self_times(spans)
    by_name: dict[str, list] = defaultdict(list)
    self_by_name: dict[str, float] = defaultdict(float)
    for span in spans:
        by_name[span[2]].append(span)
        self_by_name[span[2]] += selfs[span[0]]
    names = {span[0]: span[2] for span in spans}

    m = {metric: self_by_name[name] / wall for metric, name in SHARES.items()}
    m["serve.service.job_self_frac"] = _sum(self_by_name[n] for n in JOB_SPANS) / wall
    roots = _sum(s[6] - s[5] for s in spans if s[1] is None)
    m["unattributed_frac"] = 1.0 - (roots + waits) / wall

    passes = [
        s for s in by_name["core.plans.compute_step"]
        if names.get(s[1]) != "core.plans.compute_step"
    ]
    n_pass = max(1, len(passes))
    walks = [s[7] for s in by_name["tree.walks.generate"] if s[7]]
    n_walks = sum(w["walks"] for w in walks)
    m["tree.walks.count"] = n_walks / n_pass
    m["tree.walks.list_len_mean"] = (
        sum(w["list_len_sum"] for w in walks) / n_walks if n_walks else 0.0
    )
    m["tree.walks.interactions"] = sum(w["interactions"] for w in walks) / n_pass
    m["exec.engine.tasks"] = (
        sum(s[7]["tasks"] for s in by_name["exec.engine.map"] if s[7]) / n_pass
    )
    kernels = [s for s in by_name["nbody.kernels.call"] if s[7]]
    kernel_s = _sum(s[6] - s[5] for s in kernels)
    m["nbody.kernels.calls"] = len(kernels) / n_pass
    m["nbody.kernels.computed_bytes"] = sum(s[7]["bytes"] for s in kernels) / n_pass
    m["nbody.kernels.interactions_per_s"] = (
        sum(s[7]["interactions"] for s in kernels) / kernel_s if kernel_s else 0.0
    )
    infos = [s[7] for s in passes if s[7]]
    m["core.plans.simulated_device_s"] = (
        _sum(i.get("simulated_s", 0.0) for i in infos) / n_pass
    )
    rows = sum(i["n"] for i in infos)
    m["core.plans.active_rows_frac"] = (
        sum(i["rows"] for i in infos) / rows if rows else 0.0
    )
    walk_fracs = [i["walks_frac"] for i in infos if "walks_frac" in i]
    m["core.plans.walks_evaluated_frac"] = (
        _sum(walk_fracs) / len(walk_fracs) if walk_fracs else 0.0
    )
    return m


def serve_waits(spans: list, requests: list[dict]) -> dict:
    """Timeline pieces of each request that no in-gateway span covers.

    Returns summed seconds of ``queue_wait`` (submit return to job
    begin), ``slice_wait`` (gaps between one job's slices), ``post``
    (client send to ``JobService.submit`` start) and ``result`` (job
    finish, or submit return for a cache hit, to client receipt).
    """
    submits = [s for s in spans if s[2] == "serve.service.submit"]
    job_spans: dict[str, list] = defaultdict(list)
    for s in spans:
        if s[2] in JOB_SPANS:
            job_spans[s[4]].append(s)
    out = dict.fromkeys(("queue_wait", "slice_wait", "post", "result"), 0.0)
    for r in requests:
        sub = next(
            (s for s in submits
             if s[4] == r["spec_hash"] and r["t_post"] <= s[5] <= r["t_posted"]),
            None,
        )
        if sub is None:
            continue
        out["post"] += sub[5] - r["t_post"]
        end = sub[6]
        if not r["from_cache"]:
            mine = sorted(
                (s for s in job_spans[r["spec_hash"]] if s[5] >= sub[6]),
                key=lambda s: s[5],
            )
            if mine:
                out["queue_wait"] += mine[0][5] - sub[6]
                for prev, nxt in zip(mine, mine[1:]):
                    out["slice_wait"] += max(0.0, nxt[5] - prev[6])
                end = mine[-1][6]
        out["result"] += r["t_done"] - end
    return out


def serve_layer_metrics(spans: list, requests: list[dict]) -> dict:
    """Serve-specific per-layer metrics over the traced requests."""
    wall = _sum(r["t_done"] - r["t_post"] for r in requests)
    waits = serve_waits(spans, requests)
    m = layer_metrics(spans, wall, waits=waits["queue_wait"] + waits["slice_wait"])
    m["serve.scheduler.queue_wait_frac"] = waits["queue_wait"] / wall
    m["serve.scheduler.slice_wait_frac"] = waits["slice_wait"] / wall
    m["serve.gateway.post_frac"] = waits["post"] / wall
    m["serve.gateway.result_frac"] = waits["result"] / wall
    misses = max(1, sum(not r["from_cache"] for r in requests))
    count = lambda name: sum(1 for s in spans if s[2] == name)  # noqa: E731
    m["runtime.session.slices"] = count("runtime.session.advance") / misses
    m["runtime.checkpoint.count"] = count("runtime.checkpoint") / misses
    m["runtime.checkpoint.bytes"] = sum(
        s[7]["bytes"] for s in spans if s[2] == "runtime.checkpoint" and s[7]
    ) / misses
    m["obs.ledger.writes"] = count("obs.ledger.write") / max(1, len(requests))
    hits = [r["t_done"] - r["t_post"] for r in requests if r["from_cache"]]
    miss = [r["t_done"] - r["t_post"] for r in requests if not r["from_cache"]]
    m["serve.hit_to_miss_latency_ratio"] = (
        median(hits) / median(miss) if hits and miss else 0.0
    )
    return m

"""Batched-vs-sequential serving benchmark (PR 4 acceptance gate).

Submits a mixed batch of small-N jobs — several plans, one fault-injected
job recovering through per-job retries, and deliberate repeats — through
:func:`repro.serve.connect`, and compares wall-clock throughput
against the obvious baseline: a fresh :class:`RunSession` per submission,
run back-to-back.

The batched path wins on two axes, both honest:

* **time-axis overlap** — live sessions interleave their force tasks
  over one shared :class:`~repro.exec.EnginePool` instead of idling
  between runs (multi-core hosts);
* **content addressing** — repeated specs coalesce in flight and are
  served from the checkpoint cache, so the service never steps the same
  physics twice (any host).

Every job is verified **bit-identical** to its standalone run before any
timing is reported, and the run ends by resubmitting a spec to a fresh
service to prove the cache answers across service lifetimes.

Writes ``BENCH_PR4.json``::

    python benchmarks/bench_serve_batch.py --out BENCH_PR4.json
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.check import compare_arrays
from repro.exec.faults import FaultInjector, RetryPolicy
from repro.runtime import RunSession
from repro.serve import JobSpec, SubmitOptions, connect

#: (workload, n, seed, plan) for the unique jobs in the batch.
BATCH = [
    ("plummer", 1024, 1, "jw"),
    ("plummer", 1024, 2, "i"),
    ("plummer", 1024, 3, "w"),
    ("plummer", 1024, 4, "j"),
    ("uniform", 1024, 5, "jw"),
    ("plummer", 2048, 6, "jw"),
    ("uniform", 1024, 7, "w"),
    ("plummer", 1024, 8, "jw"),
]

#: Indices of BATCH resubmitted verbatim (dedup/cache work, zero re-stepping).
REPEATS = [0, 5]

#: Index of BATCH that runs under an injected fault + retry policy.
FAULTY = 3


def build_specs(steps: int) -> list[JobSpec]:
    specs = [
        JobSpec(workload=w, n=n, seed=s, plan=p, steps=steps)
        for (w, n, s, p) in BATCH
    ]
    return specs + [specs[i] for i in REPEATS]


def solo_reference(spec: JobSpec) -> tuple[np.ndarray, np.ndarray]:
    """Final state of ``spec`` run standalone (the bit-identity oracle)."""
    sim = spec.build_simulation()
    for _ in range(spec.steps):
        sim.step()
    return sim.particles.positions.copy(), sim.particles.velocities.copy()


def run_sequential(specs: list[JobSpec], root: Path) -> float:
    """Baseline: one RunSession per submission, back to back, no cache."""
    t0 = time.perf_counter()
    for i, spec in enumerate(specs):
        session = RunSession(spec.build_simulation(), root / f"seq_{i:02d}")
        session.run(spec.steps)
    return time.perf_counter() - t0


def run_batched(
    specs: list[JobSpec],
    cache_dir: Path,
    *,
    workers: int,
    max_concurrent: int,
) -> tuple[float, list, dict]:
    service = connect(
        None,
        cache_dir=cache_dir,
        max_concurrent_jobs=max_concurrent,
        pool_workers=workers,
    )
    t0 = time.perf_counter()
    try:
        handles = []
        for i, spec in enumerate(specs):
            options = None
            if i == FAULTY:
                options = SubmitOptions(
                    fault_injector=FaultInjector(
                        seed=13, task_failure_rate=0.2, fail_attempts=1
                    ),
                    retry=RetryPolicy(max_retries=4, backoff_s=0.0),
                )
            handles.append(service.submit(spec, options=options))
        for h in handles:
            h.result(timeout=600)
        wall = time.perf_counter() - t0
        described = service.describe()
    finally:
        service.close()
    return wall, handles, described


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--steps", type=int, default=40)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--max-concurrent", type=int, default=4)
    parser.add_argument("--out", default="BENCH_PR4.json")
    args = parser.parse_args(argv)

    specs = build_specs(args.steps)
    print(
        f"batch: {len(specs)} submissions ({len(BATCH)} unique, "
        f"{len(REPEATS)} repeats, job {FAULTY} fault-injected), "
        f"steps={args.steps}, pool={args.workers} threads"
    )

    references = {}
    for spec in specs:
        h = spec.spec_hash()
        if h not in references:
            references[h] = solo_reference(spec)

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        seq_wall = run_sequential(specs, tmp / "seq")
        print(f"sequential: {seq_wall:.3f} s for {len(specs)} runs")

        cache_dir = tmp / "cache"
        batch_wall, handles, described = run_batched(
            specs,
            cache_dir,
            workers=args.workers,
            max_concurrent=args.max_concurrent,
        )
        print(f"batched:    {batch_wall:.3f} s ({described['deduped']} deduped)")

        # --- bit-identity gate: every job equals its standalone run -----
        jobs = []
        identical = True
        for i, h in enumerate(handles):
            result = h.result()
            ref_pos, ref_vel = references[h.spec_hash]
            ok = (
                compare_arrays(ref_pos, result.positions).bit_identical
                and compare_arrays(ref_vel, result.velocities).bit_identical
            )
            identical &= ok
            jobs.append(
                {
                    "spec_hash": h.spec_hash[:16],
                    "workload": h.spec.workload,
                    "n": h.spec.n,
                    "seed": h.spec.seed,
                    "plan": h.spec.plan,
                    "fault_injected": i == FAULTY,
                    "repeat": i >= len(BATCH),
                    "bit_identical": bool(ok),
                }
            )
        if not identical:
            print("FAIL: batched results are not bit-identical", file=sys.stderr)

        # --- cache gate: a fresh service answers from the cache ---------
        with connect(None, cache_dir=cache_dir) as client:
            t0 = time.perf_counter()
            replay = client.run(specs[0])
            cache_wall = time.perf_counter() - t0
        cache_ok = (
            replay.from_cache
            and compare_arrays(
                references[specs[0].spec_hash()][0], replay.positions
            ).bit_identical
        )
        print(
            f"cache replay: {cache_wall * 1e3:.1f} ms, from_cache={replay.from_cache}"
        )

    speedup = seq_wall / batch_wall if batch_wall > 0 else float("inf")
    doc = {
        "schema": 1,
        "experiment": "serve-batched-vs-sequential",
        "n_submissions": len(specs),
        "n_unique": len(BATCH),
        "n_repeats": len(REPEATS),
        "steps": args.steps,
        "pool": {"workers": args.workers},
        "max_concurrent_jobs": args.max_concurrent,
        "sequential_wall_s": seq_wall,
        "batched_wall_s": batch_wall,
        "throughput_speedup": speedup,
        "deduped": described["deduped"],
        "cache_hits": described["cache_hits"],
        "all_bit_identical": bool(identical),
        "cache_replay": {"from_cache": bool(replay.from_cache),
                         "bit_identical": bool(cache_ok),
                         "wall_s": cache_wall},
        "jobs": jobs,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    print(
        f"speedup {speedup:.2f}x  bit-identical={identical}  "
        f"cache-replay={cache_ok}  -> {args.out}"
    )
    if not identical or not cache_ok:
        return 1
    if speedup <= 1.0:
        print("FAIL: batched serving did not beat the sequential loop",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

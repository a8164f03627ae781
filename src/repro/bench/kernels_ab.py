"""A/B benchmark: compiled force-kernel backends vs the NumPy reference.

Times one *functional* direct-sum force pass (``include_self=True``, the
GPU-kernel convention — same arithmetic the device plans funnel through)
on the NumPy reference and on each requested compiled backend, at a
sweep of N in float64 and float32.  Every compiled measurement is
verified against the reference under the documented ``compiled-*``
oracle tolerances before its timing is trusted; a point that fails
verification is recorded with ``within_tolerance: false`` and poisons
the overall verdict.

This is the record behind ``BENCH_PR7.json``::

    PYTHONPATH=src python -m repro.bench.kernels_ab --output BENCH_PR7.json

Timings are best-of-``repeats`` after a warm-up pass (which also pays
one-time costs: the C build/dlopen, workspace pool growth),
so the A/B compares steady-state force passes.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.bench.workloads import make_workload
from repro.check.oracle import compare_arrays, compiled_tolerance
from repro.nbody.forces import direct_forces
from repro.nbody.kernels import compiled_backends, get_backend

__all__ = ["kernel_ab_bench", "main"]

#: Default N sweep; 16384 is the headline point (the paper's mid-size N).
DEFAULT_N_VALUES = (2048, 8192, 16384)


def _best_of(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def _ab_point(
    name: str,
    positions: np.ndarray,
    masses: np.ndarray,
    *,
    dtype: type,
    softening: float,
    repeats: int,
) -> dict[str, Any]:
    """One (backend, n, dtype) A/B row, reference-verified."""
    n = positions.shape[0]
    kw = dict(softening=softening, dtype=dtype)

    ref = direct_forces(positions, masses, backend="numpy", **kw)  # warm-up
    numpy_seconds = _best_of(
        lambda: direct_forces(positions, masses, backend="numpy", **kw), repeats
    )
    got = direct_forces(positions, masses, backend=name, **kw)  # warm-up/JIT
    backend_seconds = _best_of(
        lambda: direct_forces(positions, masses, backend=name, **kw), repeats
    )

    dev = compare_arrays(ref, got)
    tol = compiled_tolerance(dtype)
    return {
        "backend": name,
        "n": n,
        "dtype": np.dtype(dtype).name,
        "numpy_seconds": numpy_seconds,
        "backend_seconds": backend_seconds,
        "speedup": numpy_seconds / backend_seconds,
        "interactions": n * n,
        "tolerance": tol.name,
        "rms_rel_error": dev.rms_rel_error,
        "max_rel_error": dev.max_rel_error,
        "within_tolerance": bool(
            dev.rms_rel_error <= tol.rms_rel and dev.max_rel_error <= tol.max_rel
        ),
    }


def kernel_ab_bench(
    *,
    backends: Sequence[str] | None = None,
    n_values: Sequence[int] = DEFAULT_N_VALUES,
    dtypes: Sequence[type] = (np.float64, np.float32),
    workload: str = "plummer",
    seed: int = 0,
    softening: float = 1e-2,
    repeats: int = 3,
) -> dict[str, Any]:
    """Run the A/B sweep; returns the JSON-able summary dict.

    ``backends=None`` selects every compiled backend available on this
    host (the same set ``repro-nbody check`` auto-verifies).
    """
    names = list(compiled_backends()) if backends is None else list(backends)
    points: list[dict[str, Any]] = []
    t0 = time.perf_counter()
    for n in n_values:
        particles = make_workload(workload, n, seed=seed)
        for name in names:
            for dtype in dtypes:
                points.append(
                    _ab_point(
                        name,
                        particles.positions,
                        particles.masses,
                        dtype=dtype,
                        softening=softening,
                        repeats=repeats,
                    )
                )
    wall = time.perf_counter() - t0

    headline_n = max(n_values)
    headline = {
        f"{p['backend']}_{p['dtype']}": p["speedup"]
        for p in points
        if p["n"] == headline_n
    }
    return {
        "schema": 1,
        "experiment": "kernel-backend-ab",
        "workload": workload,
        "seed": seed,
        "softening": softening,
        "repeats": repeats,
        "pass": "direct-sum force pass (include_self=True, G=1)",
        "host": {
            "cpu_count": os.cpu_count(),
            "backends_described": [get_backend(b).describe() for b in names],
        },
        "backends": names,
        "n_values": list(n_values),
        "wall_seconds": wall,
        "points": points,
        "headline_n": headline_n,
        "headline_speedups": headline,
        "all_within_tolerance": all(p["within_tolerance"] for p in points),
    }


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.kernels_ab",
        description="A/B a compiled kernel backend against the numpy reference",
    )
    parser.add_argument(
        "--output", default="BENCH_PR7.json", metavar="PATH",
        help="where to write the JSON summary (default: BENCH_PR7.json)",
    )
    parser.add_argument(
        "--backends", default=None, metavar="CSV",
        help="comma-separated backends (default: every available compiled one)",
    )
    parser.add_argument(
        "--n", default=None, metavar="CSV",
        help=f"comma-separated N sweep (default: {','.join(map(str, DEFAULT_N_VALUES))})",
    )
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    backends = args.backends.split(",") if args.backends else None
    n_values = (
        tuple(int(v) for v in args.n.split(",")) if args.n else DEFAULT_N_VALUES
    )
    summary = kernel_ab_bench(
        backends=backends, n_values=n_values, repeats=args.repeats
    )
    Path(args.output).write_text(json.dumps(summary, indent=2) + "\n")

    for p in summary["points"]:
        flag = "ok  " if p["within_tolerance"] else "FAIL"
        print(
            f"{flag} n={p['n']:>6} {p['dtype']:>7} {p['backend']:>6}  "
            f"numpy {p['numpy_seconds']*1e3:8.2f} ms  "
            f"{p['backend']} {p['backend_seconds']*1e3:8.2f} ms  "
            f"speedup {p['speedup']:5.1f}x  [{p['tolerance']}] "
            f"max_rel {p['max_rel_error']:.2e}"
        )
    print(
        f"headline (n={summary['headline_n']}): "
        + ", ".join(f"{k} {v:.1f}x" for k, v in summary["headline_speedups"].items())
    )
    print(f"wrote {args.output}")
    return 0 if summary["all_within_tolerance"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

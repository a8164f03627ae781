"""End-to-end benchmark of the N-body simulation and serving stack.

    python3 e2ebench/e2e.py run [--workload NAME]... [--seed S] [--seconds T]
                                [--trace 0|1] [--repeat K] [--out PATH]
    python3 e2ebench/e2e.py compare A.json B.json

``run`` measures each workload in a fresh subprocess for ``--seconds``
seconds, checks its outputs, prints every metric with its unit and, as
the last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` repeats the run with timing shims
around each layer and reports the per-layer metrics instead.  ``--out``
writes every run, with a record of the host, to a JSON artifact that
``compare`` reads.  Workload and metric definitions: ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads as wl

SPEC = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
#: a workload subprocess that runs longer than this is killed
CHILD_TIMEOUT_S = 170


def declared(trace: bool) -> dict[str, str]:
    """Metric name -> unit a run in this mode must report."""
    return {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}


def prebuild_kernels() -> dict:
    """Compile (or reuse) the C kernels before anything is timed."""
    os.environ["REPRO_KERNEL_CACHE"] = str(wl.KERNEL_CACHE)
    sys.path.insert(0, str(wl.SRC))
    from repro.nbody.kernels import resolve_backend

    t0 = perf_counter()
    resolve_backend("cext", strict=True)
    build_s = perf_counter() - t0
    libs = sorted(wl.KERNEL_CACHE.glob("*.so"), key=lambda p: p.stat().st_mtime)
    return {
        "cext_load_or_build_s": build_s,
        "cext_so": libs[-1].name,
        "cext_so_sha256": hashlib.sha256(libs[-1].read_bytes()).hexdigest(),
    }


def _command_line(cmd: list[str]) -> str | None:
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=10, cwd=wl.ROOT)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip().splitlines()[0] if out.returncode == 0 and out.stdout else None


def host_record(build: dict) -> dict:
    import numpy

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gcc": _command_line(["gcc", "--version"]),
        "git_commit": _command_line(["git", "rev-parse", "HEAD"]),
        **build,
    }


def run_child(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    args = ["_child", "--workload", workload, "--seed", seed, "--seconds", seconds,
            "--trace", int(trace)] + (["--smoke"] if smoke else [])
    proc = subprocess.run(
        wl.bench_cmd("e2e.py", *args), stdout=subprocess.PIPE, env=wl.child_env(),
        text=True, timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"workload {workload} (seed {seed}) failed, exit {proc.returncode}")
    record = json.loads(lines[-1])
    units = declared(trace)
    extra = set(record["metrics"]) - set(units)
    if extra:
        raise SystemExit(f"workload {workload} reported undeclared metrics {sorted(extra)}")
    # A layer the workload never enters reads 0 (see layers.py).
    record["metrics"] = {
        name: {"value": float(record["metrics"].get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    record.update(workload=workload, seed=seed, seconds=seconds, trace=int(trace))
    return record


def print_record(r: dict) -> None:
    print(f"{r['workload']} seed={r['seed']} trace={r['trace']}: correct={r['correct']} "
          f"attempted={r['attempted']} failed={r['failed']}")
    for name, m in r["metrics"].items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    for c in r["checks"]:
        if not c["ok"]:
            print(f"  CHECK FAILED: {c['name']} {c['detail']}")
    sys.stdout.flush()


def cmd_run(args: argparse.Namespace) -> int:
    build = prebuild_kernels()
    names = args.workload or list(wl.WORKLOADS)
    records = []
    for k in range(args.repeat):
        for name in names:
            r = run_child(name, args.seed + k, args.seconds, bool(args.trace), args.smoke)
            print_record(r)
            records.append(r)
    if args.out:
        artifact = {"schema": 1, "benchmark": "e2ebench", "argv": sys.argv[1:],
                    "host": host_record(build), "runs": records}
        Path(args.out).write_text(json.dumps(artifact, indent=1) + "\n")
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:  # several runs: one entry per workload, seed and metric
        metrics = {f"{r['workload']}/{r['seed']}/{n}": m
                   for r in records for n, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


def cmd_child(args: argparse.Namespace) -> int:
    if args.workload == wl.SERVE:
        record = wl.run_serve(args.seed, args.seconds, bool(args.trace), smoke=args.smoke)
    else:
        record = wl.run_simulation(args.workload, args.seed, args.seconds,
                                   bool(args.trace), smoke=args.smoke)
    print(json.dumps(record))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def workload_args(p, *, many: bool) -> None:
        p.add_argument("--workload", choices=wl.WORKLOADS, required=not many,
                       action="append" if many else "store")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--smoke", action="store_true",
                       help=f"tiny inputs (n={wl.SMOKE_N}) for tests")

    run = sub.add_parser("run", help="measure workloads")
    workload_args(run, many=True)
    run.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--repeat", type=int, default=1,
                     help="runs per workload, with seeds seed, seed+1, ...")
    run.add_argument("--out", help="write all runs to this JSON artifact")

    cmp_ = sub.add_parser("compare", help="verdicts of artifact B against A")
    cmp_.add_argument("a")
    cmp_.add_argument("b")

    child = sub.add_parser("_child", help=argparse.SUPPRESS)
    workload_args(child, many=False)
    child.add_argument("--seconds", type=float, required=True)
    child.add_argument("--trace", type=int, choices=(0, 1), required=True)

    probe = sub.add_parser("_setup", help=argparse.SUPPRESS)
    workload_args(probe, many=False)

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "compare":
        import compare

        return compare.main(args.a, args.b, SPEC)
    if args.command == "_child":
        return cmd_child(args)
    wl.setup_probe(args.workload, args.seed, args.smoke)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

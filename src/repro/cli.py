"""Command-line interface: experiments, profiling, and resumable runs.

Subcommands::

    repro-nbody bench <experiment> [...]   # the paper's tables/figures
    repro-nbody profile <experiment> [...] # one experiment with tracing on
    repro-nbody run [...]                  # a checkpointed simulation run
    repro-nbody resume <rundir>            # continue an interrupted run
    repro-nbody serve batch --jobs FILE    # batch of jobs over one pool
    repro-nbody serve submit [...]         # one cached job (spec flags)
    repro-nbody serve coordinator [...]    # distributed-tier coordinator
    repro-nbody serve worker [...]         # worker shard pulling jobs
    repro-nbody serve gateway [...]        # async multi-tenant HTTP gateway
    repro-nbody serve merge-shards [...]   # combine shard ledgers
    repro-nbody serve shutdown [...]       # stop a running coordinator
    repro-nbody check [...]                # differential + invariant battery
    repro-nbody top [...]                  # live run table from the ledger
    repro-nbody report [...]               # markdown/HTML ledger report

Examples::

    repro-nbody bench fig5
    repro-nbody bench table2 --quick --trace
    repro-nbody profile table2 --quick --trace-out t.json --metrics-out m.json
    repro-nbody run --n 4096 --plan jw --steps 200 --checkpoint-every 25 \\
        --out runs/demo
    repro-nbody resume runs/demo
    repro-nbody serve batch --jobs jobs.json --max-concurrent 4 \\
        --cache-dir cache --ledger-dir ledger
    repro-nbody serve submit --n 2048 --plan jw --steps 100 --cache-dir cache
    repro-nbody serve coordinator --addr 127.0.0.1:7464 --cache-dir cache
    repro-nbody serve worker --addr 127.0.0.1:7464 --shard shard-a \\
        --cache-dir cache --ledger-dir ledger/a
    repro-nbody serve submit --addr 127.0.0.1:7464 --n 2048 --steps 100
    repro-nbody serve gateway --addr 127.0.0.1:8080 --backend 127.0.0.1:7464
    repro-nbody serve merge-shards ledger/a ledger/b --out ledger/all
    repro-nbody serve shutdown --addr 127.0.0.1:7464
    repro-nbody check --n 256 --json check.json
    repro-nbody check --golden tests/golden --bless
    repro-nbody top --ledger-dir ledger --once
    repro-nbody report --ledger-dir ledger --out runlog.md

Every command is spelled as a subcommand: the paper's experiments run
under ``bench`` (``repro-nbody bench table2``), and ``report`` is the
ledger report (the bench report is ``repro-nbody bench report``).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Sequence

from repro import obs
from repro._version import __version__
from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.bench.workloads import PAPER_N_SWEEP, QUICK_N_SWEEP, WORKLOADS
from repro.config import SETTINGS, configure, resolve
from repro.errors import ConfigurationError

__all__ = ["main", "build_parser"]

#: Experiments that accept sweep-style options (``--quick``).
_SWEEP_EXPERIMENTS = {"fig4", "fig5", "table1", "table2", "table3"}

#: Experiments that accept ``--steps`` (the paper's timed tables).
_STEPS_EXPERIMENTS = {"table1", "table2", "table3"}

#: Experiments that accept a ``workload`` keyword.
_WORKLOAD_EXPERIMENTS = _SWEEP_EXPERIMENTS | {
    "abl-tile",
    "abl-theta",
    "abl-queue",
    "abl-overlap",
    "abl-quad",
    "ext-multigpu",
}

#: Default trace path for ``--trace`` without an explicit ``--trace-out``.
DEFAULT_TRACE_PATH = "trace.json"


def _run_plans() -> tuple[str, ...]:
    """Plans accepted by ``run``/``submit`` — whatever is registered."""
    from repro.core.plans import available_plans

    return available_plans()


def _common_parser() -> argparse.ArgumentParser:
    """Flags shared by every subcommand (execution, fault handling, tracing)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="CPU workers for functional force passes: 1 runs them in "
        "order, more run them on a thread pool of that size (default: 1, "
        "or the REPRO_WORKERS environment variable; check defaults to 2); "
        "results are bit-identical to serial for any worker count",
    )
    common.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="retry each failed force task up to N times (default: 0)",
    )
    common.add_argument(
        "--trace",
        action="store_true",
        help="record a repro.obs trace of the run and write it to "
        f"{DEFAULT_TRACE_PATH} (Chrome trace-event JSON; open in Perfetto)",
    )
    common.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write the Chrome trace JSON to PATH (implies --trace)",
    )
    common.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the metrics snapshot JSON to PATH (implies --trace)",
    )
    common.add_argument(
        "--prometheus-out",
        default=None,
        metavar="PATH",
        help="write the metrics in Prometheus text exposition format to "
        "PATH (implies --trace)",
    )
    common.add_argument(
        "--ledger-dir",
        default=None,
        metavar="DIR",
        help="append run accounting to the durable SQLite ledger in DIR "
        "(default: the REPRO_LEDGER_DIR environment variable, else off); "
        "read it back with 'repro-nbody top' / 'repro-nbody report'",
    )
    common.add_argument(
        "--kernel-backend",
        default=None,
        metavar="NAME",
        help="force-kernel backend for the functional force paths "
        "(numpy or cext; default: the REPRO_KERNEL_BACKEND "
        "environment variable, else numpy); an unavailable backend "
        "warns once and falls back to numpy",
    )
    return common


def _add_sweep_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"use the short N sweep {QUICK_N_SWEEP} instead of {PAPER_N_SWEEP}",
    )
    parser.add_argument(
        "--workload",
        default=None,
        choices=sorted(WORKLOADS),
        help="initial-condition generator (default: plummer)",
    )
    parser.add_argument(
        "--steps",
        type=int,
        default=None,
        help="steps per run for the timed tables (default: 100, as in the paper)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-nbody",
        description=(
            "Reproduce the evaluation of 'Parallel Time-Space Processing "
            "Model Based Fast N-body Simulation on GPUs'"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = _common_parser()
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    bench = sub.add_parser(
        "bench",
        parents=[common],
        help="regenerate the paper's tables and figures",
    )
    bench.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all", "report"],
        help="experiment id (table/figure of the paper), 'all', or "
        "'report' (write every experiment to a markdown file)",
    )
    bench.add_argument(
        "--output",
        default=None,
        help="output path for the 'report' experiment (default: repro_report.md)",
    )
    _add_sweep_flags(bench)

    profile = sub.add_parser(
        "profile",
        parents=[common],
        help="run one experiment with tracing on and print a span summary",
    )
    profile.add_argument(
        "target",
        choices=sorted(EXPERIMENTS),
        help="experiment to profile",
    )
    _add_sweep_flags(profile)

    run = sub.add_parser(
        "run",
        parents=[common],
        help="run a checkpointed simulation (resumable after interruption)",
    )
    run.add_argument(
        "--n", type=int, default=4096, metavar="N", help="number of bodies"
    )
    run.add_argument(
        "--plan",
        default="jw",
        choices=_run_plans(),
        help="PTPM plan, by registered name (default: jw)",
    )
    run.add_argument(
        "--workload",
        default="plummer",
        choices=sorted(WORKLOADS),
        help="initial-condition generator (default: plummer)",
    )
    run.add_argument(
        "--seed", type=int, default=0, help="workload RNG seed (default: 0)"
    )
    run.add_argument(
        "--dt", type=float, default=1e-3, help="leapfrog time step (default: 1e-3)"
    )
    run.add_argument(
        "--steps",
        type=int,
        default=100,
        help="total leapfrog steps to reach (default: 100)",
    )
    run.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="K",
        help="checkpoint every K steps (default: 0 = final state only)",
    )
    run.add_argument(
        "--out",
        default="run_out",
        metavar="DIR",
        help="run directory for manifest + checkpoints (default: run_out)",
    )

    resume = sub.add_parser(
        "resume",
        parents=[common],
        help="continue an interrupted run from its last checkpoint",
    )
    resume.add_argument("rundir", help="run directory holding manifest.json")
    resume.add_argument(
        "--steps",
        type=int,
        default=None,
        help="new total step target (default: the manifest's target)",
    )

    serve = sub.add_parser(
        "serve",
        help="batched job serving: local batches and the distributed tier",
    )
    serve_sub = serve.add_subparsers(
        dest="serve_command", required=True, metavar="SERVE_COMMAND"
    )

    batch = serve_sub.add_parser(
        "batch",
        parents=[common],
        help="execute a batch of jobs over one shared worker pool",
    )
    batch.add_argument(
        "--jobs",
        required=True,
        metavar="FILE",
        help="JSON file: a list of job-spec objects (workload/n/seed/plan/"
        "dt/steps[/plan_config/checkpoint_every/priority])",
    )
    _add_serve_flags(batch)
    _add_addr_flag(batch)
    _add_submit_option_flags(batch)
    batch.add_argument(
        "--summary-out",
        default=None,
        metavar="PATH",
        help="write a JSON summary of per-job outcomes to PATH",
    )

    submit = serve_sub.add_parser(
        "submit",
        parents=[common],
        help="run one job spec through the cached job service "
        "(in-process, or against a coordinator via --addr)",
    )
    submit.add_argument("--n", type=int, default=4096, metavar="N")
    submit.add_argument("--plan", default="jw", choices=_run_plans())
    submit.add_argument("--workload", default="plummer", choices=sorted(WORKLOADS))
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument("--dt", type=float, default=1e-3)
    submit.add_argument("--steps", type=int, default=100)
    submit.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="K",
        help="checkpoint cadence inside the cached run directory",
    )
    _add_serve_flags(submit)
    _add_addr_flag(submit)
    _add_submit_option_flags(submit)

    coordinator = serve_sub.add_parser(
        "coordinator",
        parents=[common],
        help="run the distributed-tier coordinator (serves clients and "
        "worker shards until 'serve shutdown' or Ctrl-C)",
    )
    coordinator.add_argument(
        "--addr", default="127.0.0.1:7464", metavar="HOST:PORT",
        help="address to listen on; port 0 picks a free port "
        "(default: 127.0.0.1:7464)",
    )
    coordinator.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="shared result-cache root every worker and client must "
        "also use (default: .repro_cache)",
    )
    coordinator.add_argument(
        "--queue-capacity", type=int, default=None, metavar="N",
        help="queued-but-unassigned jobs before submissions are rejected",
    )
    _add_token_flag(coordinator)
    _add_tenants_flag(coordinator)

    workerp = serve_sub.add_parser(
        "worker",
        parents=[common],
        help="run one worker shard pulling jobs from a coordinator",
    )
    workerp.add_argument(
        "--addr", required=True, metavar="HOST:PORT",
        help="the coordinator's address",
    )
    workerp.add_argument(
        "--shard", default=None, metavar="NAME",
        help="this shard's name, stamped on its ledger rows "
        "(default: <hostname>-<pid>)",
    )
    _add_serve_flags(workerp)
    workerp.add_argument(
        "--max-idle-s", type=float, default=None, metavar="S",
        help="exit after S seconds with no work claimed or offered "
        "(default: stay until the coordinator goes away)",
    )
    _add_token_flag(workerp)

    gateway = serve_sub.add_parser(
        "gateway",
        parents=[common],
        help="run the async multi-tenant HTTP gateway "
        "(submit/status/result/cancel + SSE slice streaming)",
    )
    gateway.add_argument(
        "--addr", default=None, metavar="HOST:PORT",
        help="address to listen on; port 0 picks a free port "
        "(default: repro.configure(gateway_addr=...), then "
        "REPRO_GATEWAY_ADDR, else 127.0.0.1:0)",
    )
    gateway.add_argument(
        "--backend", default=None, metavar="HOST:PORT",
        help="front the coordinator at HOST:PORT; omitted = an "
        "in-process job service configured by the serve flags below",
    )
    _add_serve_flags(gateway)
    _add_token_flag(gateway)
    _add_tenants_flag(gateway)

    merge = serve_sub.add_parser(
        "merge-shards",
        parents=[common],
        help="combine per-shard run ledgers into one experiment database",
    )
    merge.add_argument(
        "shards", nargs="+", metavar="LEDGER",
        help="shard ledger paths (directories holding repro_ledger.sqlite, "
        "or the .sqlite files themselves)",
    )
    merge.add_argument(
        "--out", required=True, metavar="DIR",
        help="destination ledger the shard databases are folded into "
        "(run ids are remapped; shard provenance is preserved)",
    )

    shutdown = serve_sub.add_parser(
        "shutdown",
        parents=[common],
        help="ask a running coordinator to stop",
    )
    shutdown.add_argument(
        "--addr", required=True, metavar="HOST:PORT",
        help="the coordinator's address",
    )
    _add_token_flag(shutdown)

    check = sub.add_parser(
        "check",
        parents=[common],
        help="run the differential plan matrix and invariant battery; "
        "with --workers above 1 (default: 2) each plan's thread run must "
        "match its serial run bit for bit",
    )
    check.add_argument(
        "--plans",
        default="i,j,w,jw",
        metavar="CSV",
        help="comma-separated plan names to verify (default: i,j,w,jw)",
    )
    check.add_argument(
        "--reference",
        default="i",
        help="reference plan for the cross-plan comparisons (default: i)",
    )
    check.add_argument("--n", type=int, default=256, metavar="N")
    check.add_argument(
        "--workload", default="plummer", choices=sorted(WORKLOADS)
    )
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--dt", type=float, default=1e-3)
    check.add_argument(
        "--steps",
        type=int,
        default=12,
        help="leapfrog steps for the guarded invariant runs (default: 12)",
    )
    check.add_argument(
        "--kernel-backends",
        default=None,
        metavar="CSV",
        help="comma-separated kernel backends to validate against the "
        "numpy reference across the direct/blocked/BH-leaf x "
        "float32/float64 matrix; 'auto' selects every available "
        "compiled backend, unavailable named ones are reported as "
        "skipped (default: auto)",
    )
    check.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        dest="json_out",
        help="write the full machine-readable report to PATH",
    )
    check.add_argument(
        "--golden",
        default=None,
        metavar="DIR",
        help="verify final-state digests against the golden snapshots in DIR",
    )
    check.add_argument(
        "--bless",
        action="store_true",
        help="record the current digests in --golden DIR instead of "
        "verifying (the explicit snapshot-regeneration step)",
    )

    top = sub.add_parser(
        "top",
        parents=[common],
        help="live per-run table polled from the durable run ledger",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="print one snapshot and exit (default: refresh until Ctrl-C)",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="S",
        help="seconds between refreshes (default: 2.0)",
    )
    top.add_argument(
        "--limit",
        type=int,
        default=20,
        metavar="N",
        help="show only the newest N runs (default: 20)",
    )

    report = sub.add_parser(
        "report",
        parents=[common],
        help="render the run ledger as a markdown/HTML research-log report",
    )
    report.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the report to PATH (default: print to stdout)",
    )
    report.add_argument(
        "--format",
        default=None,
        choices=("md", "html"),
        help="report format (default: inferred from --out suffix, else md)",
    )
    return parser


def _add_serve_flags(parser: argparse.ArgumentParser) -> None:
    """Serve-layer knobs shared by ``serve`` and ``submit``.

    Defaults are ``None`` so unset flags fall through the documented
    precedence chain: ``repro.configure`` values, then ``REPRO_SERVE_*``
    environment variables, then the built-in defaults.
    """
    parser.add_argument(
        "--max-concurrent", type=int, default=None, metavar="J",
        help="sessions the scheduler keeps live at once",
    )
    parser.add_argument(
        "--queue-capacity", type=int, default=None, metavar="N",
        help="pending jobs before submissions are rejected",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content-addressed result cache root (default: .repro_cache)",
    )
    parser.add_argument(
        "--pool-workers", type=int, default=2, metavar="N",
        help="threads in the shared pool (default: 2)",
    )
    parser.add_argument(
        "--steps-per-slice", type=int, default=8, metavar="K",
        help="steps a live session advances per scheduler slice (default: 8)",
    )


def _add_addr_flag(parser: argparse.ArgumentParser) -> None:
    """The transport switch shared by ``serve batch`` / ``serve submit``."""
    parser.add_argument(
        "--addr", default=None, metavar="HOST:PORT",
        help="submit to the coordinator at HOST:PORT instead of an "
        "in-process service; the literal value 'local' forces in-process "
        "(default: repro.configure(serve_addr=...), then the "
        "REPRO_SERVE_ADDR environment variable, else in-process)",
    )


def _add_token_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--token", default=None, metavar="SECRET",
        help="serve-tier shared secret (default: "
        "repro.configure(serve_token=...), then REPRO_SERVE_TOKEN, "
        "else auth disabled)",
    )


def _add_tenants_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--tenants", default=None, metavar="JSON",
        help="tenant policies as inline JSON or @file, e.g. "
        '\'{"interactive": {"weight": 4, "max_queued": 32}, '
        '"bulk": {"weight": 1}}\'',
    )


def _add_submit_option_flags(parser: argparse.ArgumentParser) -> None:
    """Per-submission SubmitOptions knobs shared by batch/submit."""
    parser.add_argument(
        "--priority", type=int, default=0, metavar="P",
        help="scheduling priority (higher pops first within a tenant; "
        "default: 0)",
    )
    parser.add_argument(
        "--tenant", default=None, metavar="NAME",
        help="tenant label for fair scheduling and quotas (default: "
        "repro.configure(tenant=...), then REPRO_TENANT, else 'default')",
    )
    _add_token_flag(parser)


def _parse_tenants_arg(
    parser: argparse.ArgumentParser, raw: "str | None"
) -> "dict | None":
    """``--tenants`` as inline JSON or ``@file`` -> policy mapping."""
    if raw is None:
        return None
    import json

    try:
        if raw.startswith("@"):
            raw = open(raw[1:]).read()
        tenants = json.loads(raw)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"--tenants: {exc}")
    if not isinstance(tenants, dict):
        parser.error("--tenants must be a JSON object of tenant -> policy")
    return tenants


def _validate_bench_args(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> list[str]:
    """Reject or warn on flags that do not apply to the chosen experiment.

    Returns the list of experiment ids that will actually run.  Hard errors
    (``parser.error``, exit code 2) for flags that would otherwise be
    silently dropped; warnings on stderr for soft mismatches.
    """
    if args.experiment == "report":
        exp_ids: list[str] = []
    elif args.experiment == "all":
        exp_ids = sorted(EXPERIMENTS)
    else:
        exp_ids = [args.experiment]

    if args.output is not None and args.experiment != "report":
        parser.error(
            f"--output only applies to the 'report' command, "
            f"not '{args.experiment}'"
        )
    if args.steps is not None and args.experiment != "report":
        if not any(e in _STEPS_EXPERIMENTS for e in exp_ids):
            parser.error(
                f"--steps does not apply to '{exp_ids[0] if exp_ids else args.experiment}' "
                f"(only to {sorted(_STEPS_EXPERIMENTS)})"
            )
    if args.quick and args.experiment not in ("all", "report"):
        if not any(e in _SWEEP_EXPERIMENTS for e in exp_ids):
            print(
                f"warning: --quick has no effect on '{exp_ids[0]}'",
                file=sys.stderr,
            )
    if args.workload is not None and args.experiment not in ("all", "report"):
        if not any(e in _WORKLOAD_EXPERIMENTS for e in exp_ids):
            print(
                f"warning: --workload has no effect on '{exp_ids[0]}'",
                file=sys.stderr,
            )
    return exp_ids


def _experiment_kwargs(exp_id: str, args: argparse.Namespace) -> dict:
    kwargs: dict = {}
    workload = args.workload or "plummer"
    if exp_id in _WORKLOAD_EXPERIMENTS:
        kwargs["workload"] = workload
    if exp_id in _SWEEP_EXPERIMENTS and args.quick:
        kwargs["n_values"] = QUICK_N_SWEEP
    if args.steps is not None and exp_id in _STEPS_EXPERIMENTS:
        kwargs["n_steps"] = args.steps
    return kwargs


def _write_trace_outputs(args: argparse.Namespace) -> None:
    trace_path = args.trace_out or DEFAULT_TRACE_PATH
    out = obs.export.write_chrome_trace(trace_path, obs.tracer(), obs.metrics())
    print(f"trace written to {out} ({len(obs.tracer())} spans)")
    if args.metrics_out:
        mout = obs.export.write_metrics_json(args.metrics_out, obs.metrics())
        print(f"metrics written to {mout}")
    if args.prometheus_out:
        pout = obs.export.write_prometheus(args.prometheus_out, obs.metrics())
        print(f"prometheus metrics written to {pout}")


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_bench(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    exp_ids = _validate_bench_args(parser, args)
    if args.experiment == "report":
        from repro.bench.report import DEFAULT_REPORT_PATH, generate_report

        out = generate_report(
            args.output or DEFAULT_REPORT_PATH,
            quick=args.quick,
            workload=args.workload or "plummer",
        )
        print(f"report written to {out}")
        return
    for exp_id in exp_ids:
        result = run_experiment(exp_id, **_experiment_kwargs(exp_id, args))
        print(result.render())
        print()


def _cmd_profile(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    if args.steps is not None and args.target not in _STEPS_EXPERIMENTS:
        parser.error(
            f"--steps does not apply to '{args.target}' "
            f"(only to {sorted(_STEPS_EXPERIMENTS)})"
        )
    if args.quick and args.target not in _SWEEP_EXPERIMENTS:
        print(f"warning: --quick has no effect on '{args.target}'", file=sys.stderr)
    t0 = time.perf_counter()
    result = run_experiment(args.target, **_experiment_kwargs(args.target, args))
    print(result.render())
    print()
    wall = time.perf_counter() - t0
    print(obs.export.summary_markdown(obs.tracer(), obs.metrics()))
    print()
    print(f"profiled '{args.target}' in {wall:.2f} s wall-clock")


def _print_run_summary(session) -> None:
    record = session.simulation.record
    sim = session.simulation
    print(
        f"run {'complete' if session.complete else 'stopped'}: "
        f"plan={sim.plan.name} n={len(sim.particles)} "
        f"steps={record.steps} force_passes={record.force_passes} "
        f"simulated={record.simulated_seconds:.6g}s "
        f"checkpoints={len(session.manifest.checkpoints)}"
    )
    print(f"run directory: {session.directory}")


def _cmd_run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    from repro.bench.workloads import make_workload
    from repro.core.plans import plan_by_name
    from repro.core.simulation import Simulation
    from repro.runtime import RunSession

    particles = make_workload(args.workload, args.n, seed=args.seed)
    sim = Simulation(particles, plan_by_name(args.plan), dt=args.dt)
    session = RunSession(sim, args.out, checkpoint_every=args.checkpoint_every)
    session.run(args.steps)
    _print_run_summary(session)


def _cmd_resume(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    from repro.runtime import RunSession

    session = RunSession.resume(args.rundir)
    session.run(args.steps)
    _print_run_summary(session)


def _resolve_cli_addr(args: argparse.Namespace) -> str | None:
    """The coordinator address a serve command should dial, or ``None``.

    ``--addr HOST:PORT`` dials that coordinator, the literal value
    ``local`` forces in-process, and no flag falls through the settings
    chain (``repro.configure(serve_addr=...)`` / ``REPRO_SERVE_ADDR``).
    """
    if args.addr == "local":
        return None
    if args.addr is not None:
        return args.addr
    return resolve("serve_addr")


def _make_client(args: argparse.Namespace):
    """A :class:`repro.serve.Client` on whichever transport ``args`` picks."""
    from repro.serve import connect

    addr = _resolve_cli_addr(args)
    if addr is not None:
        return connect(addr, token=getattr(args, "token", None))
    return connect(
        None,
        max_concurrent_jobs=args.max_concurrent,
        queue_capacity=args.queue_capacity,
        cache_dir=args.cache_dir,
        pool_workers=args.pool_workers,
        steps_per_slice=args.steps_per_slice,
    )


def _job_row(handle, wall: float) -> dict:
    row = {
        "spec_hash": handle.spec_hash,
        "workload": handle.spec.workload,
        "n": handle.spec.n,
        "seed": handle.spec.seed,
        "plan": handle.spec.plan,
        "steps": handle.spec.steps,
        "status": handle.status,
        "from_cache": handle.from_cache,
        "wall_s": wall,
    }
    if handle.error is not None:
        row["error"] = f"{type(handle.error).__name__}: {handle.error}"
    return row


def _print_job_rows(rows: list[dict]) -> None:
    header = f"{'hash':12}  {'plan':4} {'n':>7} {'steps':>6}  {'status':8} cached"
    print(header)
    print("-" * len(header))
    for r in rows:
        print(
            f"{r['spec_hash'][:12]}  {r['plan']:4} {r['n']:>7} "
            f"{r['steps']:>6}  {r['status']:8} {'yes' if r['from_cache'] else 'no'}"
        )


def _cmd_serve(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Dispatch ``serve`` to its subcommand handler."""
    _SERVE_HANDLERS[args.serve_command](parser, args)


def _cmd_serve_batch(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    import json

    from repro.errors import AdmissionError, ServeError
    from repro.serve import JobSpec, SubmitOptions

    try:
        entries = json.loads(open(args.jobs).read())
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read job file {args.jobs}: {exc}")
    if not isinstance(entries, list) or not entries:
        parser.error(f"{args.jobs} must hold a non-empty JSON list of job specs")
    t0 = time.perf_counter()
    client = _make_client(args)
    handles = []
    try:
        for i, entry in enumerate(entries):
            # Per-entry fields win over the batch-wide flags.
            options = SubmitOptions(
                priority=int(entry.pop("priority", args.priority)),
                tenant=entry.pop("tenant", None) or args.tenant,
            )
            try:
                spec = JobSpec.from_dict(entry)
            except ServeError as exc:
                parser.error(f"job {i} in {args.jobs}: {exc}")
            try:
                handles.append(client.submit(spec, options=options))
            except AdmissionError as exc:
                print(
                    f"job {i} in {args.jobs} rejected: {exc}\n"
                    "(raise --queue-capacity or submit fewer jobs at once)",
                    file=sys.stderr,
                )
                raise SystemExit(3) from None
        for h in handles:
            h.wait()
        described = client.describe()
    finally:
        client.close()
    wall = time.perf_counter() - t0
    rows = [_job_row(h, wall) for h in handles]
    _print_job_rows(rows)
    done = sum(r["status"] == "complete" for r in rows)
    cached = sum(r["from_cache"] for r in rows)
    print(
        f"\n{done}/{len(rows)} jobs complete ({cached} from cache, "
        f"{described.get('deduped', 0)} deduped) in {wall:.2f} s wall-clock"
    )
    if args.summary_out:
        summary = {
            "jobs": rows,
            "wall_s": wall,
            "service": described,
        }
        with open(args.summary_out, "w") as fh:
            json.dump(summary, fh, indent=2)
        print(f"summary written to {args.summary_out}")
    if done != len(rows):
        raise SystemExit(1)


def _cmd_serve_submit(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    from repro.serve import JobSpec, SubmitOptions

    spec = JobSpec(
        workload=args.workload,
        n=args.n,
        seed=args.seed,
        plan=args.plan,
        dt=args.dt,
        steps=args.steps,
        checkpoint_every=args.checkpoint_every,
    )
    options = SubmitOptions(priority=args.priority, tenant=args.tenant)
    client = _make_client(args)
    try:
        t0 = time.perf_counter()
        result = client.run(spec, options=options)
        wall = time.perf_counter() - t0
    finally:
        client.close()
    source = "cache" if result.from_cache else "fresh run"
    print(
        f"job {result.spec_hash[:12]} complete from {source}: "
        f"plan={spec.plan} n={spec.n} steps={result.steps} "
        f"simulated={result.record['simulated_seconds']:.6g}s "
        f"in {wall:.2f} s wall-clock"
    )
    print(f"result directory: {result.run_dir}")


def _cmd_serve_coordinator(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    from repro.serve import Coordinator

    coord = Coordinator(
        args.addr,
        cache_dir=args.cache_dir,
        queue_capacity=args.queue_capacity,
        token=args.token,
        tenants=_parse_tenants_arg(parser, args.tenants),
    ).start()
    # Flush immediately: launcher scripts read this line for the port.
    print(f"coordinator listening at {coord.addr}", flush=True)
    try:
        coord.join()
    except KeyboardInterrupt:
        pass
    finally:
        coord.stop()
    print(
        f"coordinator stopped: {coord.jobs_submitted} submissions "
        f"({coord.cache_hits} cache hits, {coord.deduped} deduped)"
    )


def _cmd_serve_worker(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    import os
    import socket as socketlib

    from repro.serve import Worker

    shard = args.shard or f"{socketlib.gethostname()}-{os.getpid()}"
    worker = Worker(
        args.addr,
        shard,
        cache_dir=args.cache_dir,
        max_idle_s=args.max_idle_s,
        token=args.token,
        max_concurrent_jobs=args.max_concurrent,
        queue_capacity=args.queue_capacity,
        pool_workers=args.pool_workers,
        steps_per_slice=args.steps_per_slice,
    )
    print(f"worker {shard} pulling from {args.addr}", flush=True)
    try:
        worker.run()
    except KeyboardInterrupt:
        pass
    print(
        f"worker {shard} done: {worker.jobs_done} jobs completed, "
        f"{worker.jobs_failed} failed"
    )


def _cmd_serve_merge(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    from repro.errors import LedgerError
    from repro.obs.ledger import RunLedger

    for path in args.shards:
        if not Path(path).is_file():
            # Opening a missing path would create an empty database and
            # merge zero rows — fail loudly instead.
            parser.error(f"shard database {path} does not exist")
    merged = RunLedger(args.out)
    try:
        total = 0
        for path in args.shards:
            try:
                count = merged.merge(path)
            except (LedgerError, OSError) as exc:
                parser.error(f"cannot merge {path}: {exc}")
            print(f"merged {count} runs from {path}")
            total += count
        counts = merged.counts()
        shard_rows = merged.shard_table()
    finally:
        merged.close()
    print(
        f"\nmerged database {args.out}: {counts['runs']} runs, "
        f"{counts['slices']} slices, {counts['events']} events"
    )
    header = (
        f"{'shard':16} {'runs':>5} {'done':>5} {'fail':>5} {'cached':>6} "
        f"{'retry':>5} {'dedup':>5} {'steps':>9}"
    )
    print(header)
    print("-" * len(header))
    for row in shard_rows:
        print(
            f"{row['shard'] or '-':16} {row['runs']:>5} "
            f"{row['complete'] or 0:>5} {row['failed'] or 0:>5} "
            f"{row['cached'] or 0:>6} {row['retries'] or 0:>5} "
            f"{row['deduped'] or 0:>5} {row['steps'] or 0:>9}"
        )


def _cmd_serve_shutdown(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    from repro.serve import RemoteService

    remote = RemoteService(args.addr, token=resolve("serve_token", args.token))
    try:
        remote.shutdown()
    finally:
        remote.close()
    print(f"coordinator at {args.addr} stopping")


def _cmd_serve_gateway(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    from repro.serve import Gateway

    tenants = _parse_tenants_arg(parser, args.tenants)
    if args.backend is not None:
        gw = Gateway(args.addr, backend=args.backend, token=args.token)
        if tenants:
            parser.error(
                "--tenants configures the in-process backend; when "
                "fronting a coordinator, pass it to 'serve coordinator'"
            )
    else:
        gw = Gateway(
            args.addr,
            token=args.token,
            tenants=tenants,
            max_concurrent_jobs=args.max_concurrent,
            queue_capacity=args.queue_capacity,
            cache_dir=args.cache_dir,
                pool_workers=args.pool_workers,
            steps_per_slice=args.steps_per_slice,
        )
    gw.start()
    # Flush immediately: launcher scripts read this line for the port.
    print(f"gateway listening at http://{gw.addr} "
          f"(backend: {args.backend or 'in-process'})", flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        gw.stop()
    print(
        f"gateway stopped: {gw.requests_total} requests "
        f"({gw.shed_total} shed, {gw.auth_failures} auth failures)"
    )


_SERVE_HANDLERS = {
    "batch": _cmd_serve_batch,
    "submit": _cmd_serve_submit,
    "coordinator": _cmd_serve_coordinator,
    "worker": _cmd_serve_worker,
    "gateway": _cmd_serve_gateway,
    "merge-shards": _cmd_serve_merge,
    "shutdown": _cmd_serve_shutdown,
}


def _cmd_check(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    import json

    from repro.check.report import render_report, run_check

    plans = tuple(p.strip() for p in args.plans.split(",") if p.strip())
    if not plans:
        parser.error("--plans must name at least one plan")
    known = set(_run_plans())
    for name in (*plans, args.reference):
        if name not in known:
            parser.error(f"unknown plan '{name}' (registered: {sorted(known)})")
    if args.bless and args.golden is None:
        parser.error("--bless requires --golden DIR (nowhere to record digests)")

    if args.kernel_backends is None or args.kernel_backends.strip() == "auto":
        kernel_backends = "auto"
    else:
        from repro.nbody.kernels import known_backends

        kernel_backends = tuple(
            b.strip() for b in args.kernel_backends.split(",") if b.strip()
        )
        registered = set(known_backends())
        for name in kernel_backends:
            if name not in registered:
                parser.error(
                    f"unknown kernel backend '{name}' "
                    f"(registered: {sorted(registered)})"
                )

    report = run_check(
        workload=args.workload,
        n=args.n,
        seed=args.seed,
        dt=args.dt,
        steps=args.steps,
        plans=plans,
        workers=args.workers or 2,
        reference=args.reference,
        golden_dir=args.golden,
        bless=args.bless,
        kernel_backends=kernel_backends,
    )
    print(render_report(report))
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"report written to {args.json_out}")
    if not report["ok"]:
        raise SystemExit(1)


def _resolve_ledger(parser: argparse.ArgumentParser, args: argparse.Namespace):
    """The ledger ``top``/``report`` read, or a parser error when unset."""
    from repro.obs.ledger import RunLedger

    directory = args.ledger_dir or resolve("ledger_dir")
    if directory is None:
        parser.error(
            "no ledger to read: pass --ledger-dir DIR or set REPRO_LEDGER_DIR"
        )
    return RunLedger(directory)


def _top_cell(value, *, scale: float = 1.0, digits: int = 3) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value * scale:.{digits}f}"
    return str(value)


def _render_top(ledger, limit: int) -> str:
    rows = ledger.job_table()
    shown = rows[-limit:] if limit > 0 else rows
    lines = [f"ledger {ledger.path} — {len(rows)} runs (showing {len(shown)})"]
    header = (
        f"{'id':>4}  {'spec':12} {'src':6} {'plan':4} {'n':>7} "
        f"{'steps':>11}  {'status':8} {'wait_s':>7} {'wall_s':>8} "
        f"{'p50_ms':>7} {'p99_ms':>7} {'rt':>3} {'dd':>3}"
    )
    lines += [header, "-" * len(header)]
    for r in shown:
        spec = (r["spec_hash"] or "")[:12] or "-"
        target = r["steps"]
        steps = (
            f"{r['steps_done']}/{target}" if target is not None
            else str(r["steps_done"])
        )
        lines.append(
            f"{r['run_id']:>4}  {spec:12} {r['source']:6} "
            f"{_top_cell(r['plan']):4} {_top_cell(r['n']):>7} {steps:>11}  "
            f"{r['status']:8} {_top_cell(r['queue_wait_s']):>7} "
            f"{_top_cell(r['wall_s']):>8} "
            f"{_top_cell(r['slice_p50_s'], scale=1e3):>7} "
            f"{_top_cell(r['slice_p99_s'], scale=1e3):>7} "
            f"{r['retries']:>3} {r['dedup_count']:>3}"
        )
    return "\n".join(lines)


def _cmd_top(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    if args.interval <= 0:
        parser.error(f"--interval must be > 0, got {args.interval}")
    ledger = _resolve_ledger(parser, args)
    try:
        while True:
            print(_render_top(ledger, args.limit))
            if args.once:
                break
            print()
            time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    finally:
        ledger.close()


def _cmd_report(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    ledger = _resolve_ledger(parser, args)
    fmt = args.format
    if fmt is None:
        suffix = "" if args.out is None else args.out.rsplit(".", 1)[-1].lower()
        fmt = "html" if suffix in ("html", "htm") else "md"
    try:
        if fmt == "html":
            text = obs.export.ledger_report_html(ledger)
        else:
            text = obs.export.ledger_report_markdown(ledger)
    finally:
        ledger.close()
    if args.out is None:
        print(text, end="")
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"ledger report written to {args.out}")


_HANDLERS = {
    "bench": _cmd_bench,
    "profile": _cmd_profile,
    "run": _cmd_run,
    "resume": _cmd_resume,
    "serve": _cmd_serve,
    "check": _cmd_check,
    "top": _cmd_top,
    "report": _cmd_report,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    argv = list(argv if argv is not None else sys.argv[1:])
    args = parser.parse_args(argv)
    if args.workers is not None and args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    if args.max_retries is not None and args.max_retries < 0:
        parser.error(f"--max-retries must be >= 0, got {args.max_retries}")
    # Every setting is resolved here, so a malformed flag or environment
    # variable exits 2 naming it before any work starts.
    try:
        configure(
            workers=args.workers,
            max_retries=args.max_retries,
            ledger_dir=None if args.command in ("top", "report") else args.ledger_dir,
            kernel_backend=args.kernel_backend,
        )
        for name in SETTINGS:
            resolve(name)
    except ConfigurationError as exc:
        parser.error(str(exc))
    if args.command in ("run", "resume", "serve") and getattr(
        args, "serve_command", None
    ) not in ("merge-shards", "shutdown"):
        from repro.obs.ledger import default_ledger

        ledger = default_ledger()
        if ledger is not None:
            ledger.record_event("command", "repro-nbody " + " ".join(argv))
    tracing = (
        args.trace
        or args.trace_out is not None
        or args.metrics_out is not None
        or args.prometheus_out is not None
        or args.command == "profile"
    )
    if tracing:
        obs.enable(reset=True)
    try:
        _HANDLERS[args.command](parser, args)
        if tracing:
            _write_trace_outputs(args)
    finally:
        if tracing:
            obs.disable()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

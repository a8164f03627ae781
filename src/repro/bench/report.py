"""One-shot report generator: every experiment, one markdown file.

``python -m repro bench report`` runs the whole registry and writes a
self-contained markdown document (tables in fenced blocks, with the
paper-claim notes attached) — the artifact to attach to a reproduction
writeup or CI run.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from repro._version import __version__
from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.bench.workloads import PAPER_N_SWEEP, QUICK_N_SWEEP

__all__ = ["generate_report", "DEFAULT_REPORT_PATH"]

DEFAULT_REPORT_PATH = "repro_report.md"

#: Experiments that take an ``n_values`` sweep argument.
_SWEEP_EXPERIMENTS = {"fig4", "fig5", "table1", "table2", "table3"}


def generate_report(
    path: str | Path = DEFAULT_REPORT_PATH,
    *,
    quick: bool = False,
    workload: str = "plummer",
    experiments: Sequence[str] | None = None,
) -> Path:
    """Run experiments and write the consolidated markdown report.

    Parameters
    ----------
    quick:
        Use the short N sweep for the sweep-style experiments.
    experiments:
        Subset of experiment ids to include (default: all, in registry
        order).

    Returns the path written.
    """
    path = Path(path)
    exp_ids = list(experiments) if experiments is not None else sorted(EXPERIMENTS)
    unknown = [e for e in exp_ids if e not in EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiments: {unknown}")

    sweep = QUICK_N_SWEEP if quick else PAPER_N_SWEEP
    lines = [
        "# PTPM N-body reproduction report",
        "",
        f"- library version: `{__version__}`",
        f"- workload: `{workload}`",
        f"- particle sweep: `{sweep}`",
        "",
        "Regenerated from the paper *Parallel Time-Space Processing Model "
        "Based Fast N-body Simulation on GPUs* (Wang et al.) on the "
        "simulated AMD Radeon HD 5850 device model.  See EXPERIMENTS.md "
        "for the paper-vs-measured discussion.",
        "",
    ]
    for exp_id in exp_ids:
        kwargs: dict = {}
        if exp_id in _SWEEP_EXPERIMENTS:
            kwargs["n_values"] = sweep
            kwargs["workload"] = workload
        result = run_experiment(exp_id, **kwargs)
        lines.append(f"## {exp_id} — {result.title}")
        lines.append("")
        lines.append("```text")
        lines.append(result.render())
        lines.append("```")
        lines.append("")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines), encoding="utf-8")
    return path

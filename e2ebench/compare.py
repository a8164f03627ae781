"""Verdicts between two benchmark artifacts, per workload and metric.

Side A is the parent (baseline), side B the change.  For each workload
and end-to-end metric, over the untraced runs of each side:

* ``better`` — B wins at least 9 in 10 of the runs paired in seed order
  (ties count for neither) and the medians differ by more than A's
  interquartile range;
* ``unresolved`` — A's own spread (IQR over median) is wider than the
  metric's bound, so no verdict is possible, unless every run of B reads
  better than every run of A;
* ``worse`` — B's median is worse than A's by more than the bound;
* ``unchanged`` — otherwise.
"""

from __future__ import annotations

import json
from pathlib import Path
from statistics import median, quantiles


def runs_by_workload(artifact: dict) -> dict[str, list[dict]]:
    """Untraced runs of an artifact, grouped by workload, in seed order."""
    out: dict[str, list[dict]] = {}
    for run in sorted(artifact["runs"], key=lambda r: r["seed"]):
        if not run["trace"]:
            out.setdefault(run["workload"], []).append(run)
    return out


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], *, better: str, bound: float) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    med_a, med_b = median(a), median(b)
    qa, qb = _quartiles(a), _quartiles(b)
    iqr_a = qa[2] - qa[0]
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    gain = sign * (med_b - med_a)
    scale = abs(med_a) or 1.0
    spread = iqr_a / scale
    if pairs and wins >= 0.9 * len(pairs) and gain > iqr_a:
        v = "better"
    elif spread > bound and not all(sign * (y - x) > 0 for x in a for y in b):
        v = "unresolved"
    elif -gain / scale > bound:
        v = "worse"
    else:
        v = "unchanged"
    return {
        "a_median": med_a, "a_q1": qa[0], "a_q3": qa[2],
        "b_median": med_b, "b_q1": qb[0], "b_q3": qb[2],
        "rel_change": (med_b - med_a) / scale, "a_spread": spread,
        "wins": wins, "pairs": len(pairs), "bound": bound, "verdict": v,
    }


def failed_frac(runs: list[dict]) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def compare(a: dict, b: dict, spec: dict) -> tuple[list[dict], bool]:
    """All verdict rows, and whether the change may pass (no worse, no new failures)."""
    runs_a, runs_b = runs_by_workload(a), runs_by_workload(b)
    rows, ok = [], True
    for workload in runs_a:
        if workload not in runs_b:
            continue
        ra, rb = runs_a[workload], runs_b[workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row = verdict(
                [r["metrics"][name]["value"] for r in ra],
                [r["metrics"][name]["value"] for r in rb],
                better=metric["better"], bound=metric["bound"],
            )
            rows.append({"workload": workload, "metric": name,
                         "unit": metric["unit"], **row})
            ok &= row["verdict"] != "worse"
        fa, fb = failed_frac(ra), failed_frac(rb)
        rows.append({"workload": workload, "metric": "failed_frac", "unit": "fraction",
                     "a_median": fa, "b_median": fb,
                     "verdict": "worse" if fb > fa else "unchanged"})
        ok &= fb <= fa
    return rows, ok


def format_rows(rows: list[dict]) -> str:
    lines = [
        f"{'workload':<15} {'metric':<13} {'A median [q1, q3]':>34} "
        f"{'B median [q1, q3]':>34} {'change':>8} {'wins':>6}  verdict"
    ]
    for r in rows:
        if "a_q1" in r:
            a = f"{r['a_median']:.4g} [{r['a_q1']:.4g}, {r['a_q3']:.4g}]"
            b = f"{r['b_median']:.4g} [{r['b_q1']:.4g}, {r['b_q3']:.4g}]"
            extra = f"{r['rel_change']:+8.1%} {r['wins']:>3}/{r['pairs']:<2}"
        else:
            a, b, extra = f"{r['a_median']:.4g}", f"{r['b_median']:.4g}", " " * 15
        lines.append(
            f"{r['workload']:<15} {r['metric']:<13} {a:>34} {b:>34} {extra}  {r['verdict']}"
        )
    return "\n".join(lines)


def main(path_a: str, path_b: str, spec: dict) -> int:
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    rows, ok = compare(a, b, spec)
    print(format_rows(rows))
    return 0 if ok else 1

"""The ``repro-nbody check`` driver: matrix + invariants + golden, one report.

:func:`run_check` composes the three pillars of :mod:`repro.check` over
one workload and returns a JSON-able report dict; :func:`render_report`
turns it into the console table the CLI prints.  The CLI exits non-zero
when ``report["ok"]`` is false, which makes ``repro-nbody check --json``
a complete CI gate:

* **matrix** — the differential oracle's plan verdicts: every plan's
  serial answer must sit within its documented tolerance of the
  reference plan, and with ``workers`` above 1 its thread run must
  reproduce that serial answer bit-for-bit;
* **kernels** — each requested kernel backend (``auto`` = every
  available compiled backend) is compared against the NumPy reference
  across the direct / blocked / BH-leaf kernel shapes in float32 and
  float64, under the documented ``compiled-*`` tolerances; named
  backends that are unavailable on this host are reported as *skipped*,
  not failed, so one config runs on every CI matrix leg;
* **invariants** — each plan runs ``steps`` leapfrog steps under a
  :class:`~repro.check.RunGuard` with its plan-default policy and must
  finish with every invariant green;
* **golden** (optional) — the final state digests are compared against
  the blessed snapshots in ``--golden DIR``; ``--bless`` records the
  current digests instead (the explicit regeneration event).
"""

from __future__ import annotations

from typing import Any, Sequence

from repro import obs
from repro.check.golden import GoldenStore, state_digest
from repro.check.guards import RunGuard
from repro.check.oracle import DifferentialOracle
from repro.core.plans.base import PlanConfig
from repro.core.plans.registry import get_plan
from repro.core.simulation import Simulation
from repro.errors import VerificationError

__all__ = ["run_check", "render_report"]

#: Softening used by the check workloads (matches the test suite).
CHECK_SOFTENING = 1e-2


def _invariant_run(
    plan_name: str,
    *,
    workload: str,
    n: int,
    seed: int,
    dt: float,
    steps: int,
    config: PlanConfig,
) -> tuple[dict[str, Any], Simulation]:
    """Run one guarded simulation; never raises on violation.

    Returns the JSON row (with the guard's final report embedded) and
    the finished simulation (reused for golden digests).
    """
    from repro.bench.workloads import make_workload

    sim = Simulation(
        make_workload(workload, n, seed=seed), get_plan(plan_name, config), dt=dt
    )
    guard = RunGuard()
    guard.prime(sim)
    row: dict[str, Any] = {"plan": plan_name, "steps": steps}
    try:
        sim.run(steps)
        report = guard.check(sim, where="final")
        row.update(ok=True, report=report.to_dict())
    except VerificationError as exc:
        report = guard.last_report
        row.update(
            ok=False,
            error=str(exc),
            report=report.to_dict() if report is not None else None,
        )
    return row, sim


def run_check(
    *,
    workload: str = "plummer",
    n: int = 256,
    seed: int = 0,
    dt: float = 1e-3,
    steps: int = 12,
    plans: Sequence[str] = ("i", "j", "w", "jw"),
    workers: int = 2,
    reference: str = "i",
    golden_dir: str | None = None,
    bless: bool = False,
    kernel_backends: Sequence[str] | str | None = "auto",
) -> dict[str, Any]:
    """Run the full verification battery; returns the report dict.

    ``kernel_backends`` selects the compiled-kernel leg: ``"auto"`` (the
    default) verifies every available compiled backend, an explicit list
    verifies those — skipping cleanly (with the reason) any that are
    unavailable on this host — and ``None`` / an empty list disables the
    leg.
    """
    from repro.bench.workloads import make_workload
    from repro.nbody.kernels import compiled_backends, get_backend, resolve_backend

    config = PlanConfig(softening=CHECK_SOFTENING)
    particles = make_workload(workload, n, seed=seed)

    if kernel_backends == "auto":
        requested = list(compiled_backends())
    elif kernel_backends is None:
        requested = []
    else:
        requested = [b for b in kernel_backends if b]

    with obs.span(
        "check.run", workload=workload, n=n, plans=",".join(plans),
        workers=workers,
    ):
        oracle = DifferentialOracle(reference, config)
        matrix = oracle.matrix(
            particles.positions,
            particles.masses,
            plans=plans,
            workers=workers,
        )

        kernels: list[dict[str, Any]] = []
        kernels_skipped: list[dict[str, Any]] = []
        for name in requested:
            backend = get_backend(name)  # unknown names are a config error
            if backend.kind == "reference":
                continue  # comparing numpy against itself proves nothing
            if not backend.available:
                kernels_skipped.append(
                    {"backend": name, "reason": backend.unavailable_reason}
                )
                continue
            kernels.extend(
                c.to_dict()
                for c in oracle.kernel_matrix(
                    particles.positions,
                    particles.masses,
                    kernel_backends=[name],
                )
            )

        invariants: list[dict[str, Any]] = []
        finished: dict[str, Simulation] = {}
        for plan_name in plans:
            row, sim = _invariant_run(
                plan_name,
                workload=workload,
                n=n,
                seed=seed,
                dt=dt,
                steps=steps,
                config=config,
            )
            invariants.append(row)
            finished[plan_name] = sim

        golden: list[dict[str, Any]] = []
        if golden_dir is not None:
            store = GoldenStore(golden_dir)
            # The kernel backend the runs resolved (the setting; a fallback
            # lands on numpy), named in the id unless it is the reference.
            kb = resolve_backend(None)
            compiled = None if kb.kind == "reference" else kb.name
            for plan_name in plans:
                sim = finished[plan_name]
                digest = state_digest(sim.particles, sim.time)
                case = store.case_id(
                    workload=workload, n=n, seed=seed, plan=plan_name,
                    dt=dt, steps=steps, kernel_backend=compiled,
                )
                if bless:
                    store.bless(
                        case,
                        digest,
                        meta={
                            "workload": workload, "n": n, "seed": seed,
                            "plan": plan_name, "dt": dt, "steps": steps,
                            "kernel_backend": kb.name,
                        },
                    )
                    golden.append(
                        {"case": case, "status": "blessed", "digest": digest}
                    )
                else:
                    golden.append(store.verify(case, digest))

    matrix_ok = all(c.ok for c in matrix)
    kernels_ok = all(row["ok"] for row in kernels)
    invariants_ok = all(r["ok"] for r in invariants)
    golden_ok = all(g["status"] in ("match", "blessed") for g in golden)
    return {
        "workload": workload,
        "n": n,
        "seed": seed,
        "dt": dt,
        "steps": steps,
        "plans": list(plans),
        "workers": workers,
        "reference": reference,
        "matrix": [c.to_dict() for c in matrix],
        "matrix_ok": matrix_ok,
        "kernel_backends": requested,
        "kernels": kernels,
        "kernels_skipped": kernels_skipped,
        "kernels_ok": kernels_ok,
        "invariants": invariants,
        "invariants_ok": invariants_ok,
        "golden": golden,
        "golden_ok": golden_ok,
        "ok": matrix_ok and kernels_ok and invariants_ok and golden_ok,
    }


def _fmt_dev(dev: dict[str, Any]) -> str:
    if dev["bit_identical"]:
        return "bit-identical"
    return (
        f"rms={dev['rms_rel_error']:.2e} max={dev['max_rel_error']:.2e} "
        f"ulps={dev['max_ulps']}"
    )


def render_report(report: dict[str, Any]) -> str:
    """Console rendering of a :func:`run_check` report."""
    lines = [
        f"check: {report['workload']} n={report['n']} seed={report['seed']} "
        f"dt={report['dt']} steps={report['steps']}",
        "",
        "differential matrix "
        f"(reference {report['reference']}/serial; thread runs must be "
        "bit-identical to serial, plans within documented tolerance):",
    ]
    width = max(
        (len(f"{c['candidate']} vs {c['reference']}") for c in report["matrix"]),
        default=20,
    )
    for c in report["matrix"]:
        pair = f"{c['candidate']} vs {c['reference']}"
        status = "ok  " if c["ok"] else "FAIL"
        lines.append(
            f"  {status} {pair:{width}}  [{c['tolerance']['name']}] "
            f"{_fmt_dev(c['deviation'])}"
        )
    kernels = report.get("kernels", [])
    kernels_skipped = report.get("kernels_skipped", [])
    if kernels or kernels_skipped:
        lines += [
            "",
            "kernel backends (vs the numpy reference, compiled-* tolerances):",
        ]
        kwidth = max(
            (len(f"{c['candidate']} vs {c['reference']}") for c in kernels),
            default=20,
        )
        for c in kernels:
            pair = f"{c['candidate']} vs {c['reference']}"
            status = "ok  " if c["ok"] else "FAIL"
            lines.append(
                f"  {status} {pair:{kwidth}}  [{c['tolerance']['name']}] "
                f"{_fmt_dev(c['deviation'])}"
            )
        for s in kernels_skipped:
            lines.append(f"  skip {s['backend']}: {s['reason']}")
    lines += ["", "invariants (plan-default policies):"]
    for row in report["invariants"]:
        status = "ok  " if row["ok"] else "FAIL"
        if row.get("report"):
            worst = max(
                (
                    (r["value"] / r["threshold"], r["name"])
                    for r in row["report"]["results"]
                    if r["threshold"]
                ),
                default=(0.0, "-"),
            )
            detail = f"worst {worst[1]} at {worst[0]:.1%} of budget"
        else:
            detail = row.get("error", "")
        lines.append(
            f"  {status} plan {row['plan']:3} ({row['steps']} steps)  {detail}"
        )
    if report["golden"]:
        lines += ["", "golden snapshots:"]
        for g in report["golden"]:
            status = "ok  " if g["status"] in ("match", "blessed") else "FAIL"
            lines.append(
                f"  {status} {g['case']}  {g['status']} ({g['digest'][:12]})"
            )
    lines += [
        "",
        f"verdict: {'PASS' if report['ok'] else 'FAIL'} "
        f"(matrix={'ok' if report['matrix_ok'] else 'FAIL'}, "
        + (
            f"kernels={'ok' if report['kernels_ok'] else 'FAIL'}, "
            if report.get("kernels") or report.get("kernels_skipped")
            else ""
        )
        + f"invariants={'ok' if report['invariants_ok'] else 'FAIL'}"
        + (
            f", golden={'ok' if report['golden_ok'] else 'FAIL'})"
            if report["golden"]
            else ")"
        ),
    ]
    return "\n".join(lines)

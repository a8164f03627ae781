"""Tests of the end-to-end benchmark itself (outside the tier-1 suite).

    PYTHONPATH=src python -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import importlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _bench(*args: str, cwd: Path = ROOT, **env: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "e2ebench" / "e2e.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=900,
        env={**os.environ, **env},
    )


@pytest.fixture(scope="module", params=[0, 1], ids=["untraced", "traced"])
def smoke(request, tmp_path_factory):
    """Every workload at n=512, with DeprecationWarnings raised as errors
    in the benchmark process and every process it starts."""
    out = tmp_path_factory.mktemp("smoke") / "smoke.json"
    proc = _bench(
        "run", "--smoke", "--seconds", "0.5", "--trace", str(request.param),
        "--out", str(out), PYTHONWARNINGS="error::DeprecationWarning",
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return request.param, json.loads(proc.stdout.splitlines()[-1]), json.loads(out.read_text())


def test_smoke_run_is_correct_with_deprecations_as_errors(smoke):
    _trace, line, artifact = smoke
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert all(r["correct"] for r in artifact["runs"])


def test_smoke_emits_exactly_the_declared_metrics(smoke):
    trace, _line, artifact = smoke
    section = SPEC["per_layer" if trace else "end_to_end"]
    declared = [(m["name"], m["unit"]) for m in section]
    assert [r["workload"] for r in artifact["runs"]] == [w["name"] for w in SPEC["workloads"]]
    for run in artifact["runs"]:
        assert [(n, m["unit"]) for n, m in run["metrics"].items()] == declared
        assert all(isinstance(m["value"], float) for m in run["metrics"].values())


def test_traced_layers_account_for_the_simulation_wall(smoke):
    trace, _line, artifact = smoke
    if not trace:
        pytest.skip("per-layer metrics come from the traced run")
    for run in artifact["runs"]:
        assert run["chrome_trace"]
        if run["workload"] != "serve-http-1k":
            assert abs(run["metrics"]["unattributed_frac"]["value"]) < 0.05


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["e2ebench"] and SPEC["command"][1] == "e2ebench/e2e.py"
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [w["name"] for w in SPEC["workloads"]]
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        names.append(m["name"])
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))


def _artifact(values: dict[str, list[float]], *, failed: int = 0) -> dict:
    n = len(next(iter(values.values())))
    return {"runs": [
        {"workload": "w", "seed": k, "trace": 0, "attempted": 10, "failed": failed if k == 0 else 0,
         "metrics": {name: {"value": v[k]} for name, v in values.items()}}
        for k in range(n)
    ]}


def _verdicts(a: dict, b: dict) -> tuple[dict, bool]:
    rows, ok = compare.compare(_artifact(a), _artifact(b), SPEC)
    return {r["metric"]: r["verdict"] for r in rows}, ok


def _steady(base: float, scale: float = 1.0) -> list[float]:
    return [base * scale * (1 + 0.002 * k) for k in range(10)]


def test_compare_verdicts():
    names = [m["name"] for m in SPEC["end_to_end"]]
    a = {n: _steady(100.0) for n in names}
    same, ok = _verdicts(a, {n: _steady(100.0, 1.01) for n in names})
    assert ok and set(same.values()) == {"unchanged"}

    # throughput up 30%, latency up 30%: one better, one worse
    b = dict(a, ops_per_s=_steady(130.0), op_p50_ms=_steady(130.0))
    v, ok = _verdicts(a, b)
    assert v["ops_per_s"] == "better" and v["op_p50_ms"] == "worse" and not ok

    # a parent spread wider than the bound cannot resolve a 30% change
    noisy = dict(a, op_p50_ms=[100.0, 40.0, 160.0, 70.0, 130.0] * 2)
    v, ok = _verdicts(noisy, dict(a, op_p50_ms=_steady(130.0)))
    assert v["op_p50_ms"] == "unresolved" and ok


def test_compare_fails_on_more_failures():
    a = {m["name"]: _steady(100.0) for m in SPEC["end_to_end"]}
    rows, ok = compare.compare(_artifact(a), _artifact(a, failed=1), SPEC)
    assert not ok and [r["verdict"] for r in rows if r["metric"] == "failed_frac"] == ["worse"]


def test_shims_are_removed_after_a_traced_run(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(workloads.KERNEL_CACHE))
    from repro.core.plans import PlanConfig
    from repro.core.simulation import Simulation
    from repro.nbody.ic import plummer

    targets = spans.SIM_TARGETS + spans.SERVE_TARGETS
    owners = []
    for module_name, owner_name, attr, _ in targets:
        module = importlib.import_module(module_name)
        owner = module if owner_name is None else getattr(module, owner_name)
        owners.append((owner, attr, vars(owner)[attr]))
    tracer = spans.Tracer().install(targets)
    try:
        assert all(vars(owner)[attr] is not orig for owner, attr, orig in owners)
        config = PlanConfig(softening=1e-3, kernel_backend="cext", n_rungs=2)
        Simulation(plummer(256, seed=1), "block-jw", dt=1e-3, plan_config=config).run(4)
    finally:
        tracer.remove()
    assert {"tree.walks.generate", "nbody.kernels.call", "core.simulation.step"} <= {
        s[2] for s in tracer.spans
    }
    assert all(vars(owner)[attr] is orig for owner, attr, orig in owners)


def test_fails_without_the_program(tmp_path):
    """Given only BENCHMARK.json and the benchmark, a run exits non-zero
    without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "e2ebench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("run", "--workload", "direct-i-16k", "--seconds", "1", cwd=tmp_path,
                  PYTHONPATH="")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

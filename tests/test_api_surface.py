"""API-surface tests: public exports, error hierarchy, version metadata.

Downstream users import from the package roots; these tests pin that the
documented public API actually resolves and that `__all__` is truthful.
"""

import importlib
import pkgutil
from pathlib import Path

import pytest

import repro
from repro import errors, obs
from repro.config import SETTINGS, resolve


PACKAGES = [
    "repro",
    "repro.nbody",
    "repro.tree",
    "repro.gpu",
    "repro.core",
    "repro.core.plans",
    "repro.perfmodel",
    "repro.bench",
    "repro.exec",
    "repro.obs",
    "repro.runtime",
    "repro.serve",
    "repro.check",
]

#: ``repro`` and every module under it (``__main__`` runs the CLI).
MODULES = ["repro"] + [
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.name != "repro.__main__"
]

#: The documented stable facade: ``from repro import <name>`` must work.
FACADE_EXPORTS = [
    "Simulation",
    "SimulationRecord",
    "ParticleSet",
    "PlanConfig",
    "IParallelPlan",
    "JParallelPlan",
    "WParallelPlan",
    "JwParallelPlan",
    "available_plans",
    "get_plan",
    "register",
    "resolve_plan",
    "RunSession",
    "RunLedger",
    "ExecutionEngine",
    "EnginePool",
    "RetryPolicy",
    "FaultInjector",
    "Coordinator",
    "Gateway",
    "JobHandle",
    "JobResult",
    "JobService",
    "JobSpec",
    "SubmitOptions",
    "TenantPolicy",
    "Worker",
    "connect",
    "configure",
    "ReproError",
    "VerificationError",
    "DifferentialOracle",
    "RunGuard",
    "TolerancePolicy",
    "GoldenStore",
]


class TestExports:
    @pytest.mark.parametrize("module", MODULES)
    def test_all_names_resolve(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{module}.__all__ lists missing '{name}'"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_is_nonempty_and_unique(self, package):
        mod = importlib.import_module(package)
        assert mod.__all__
        assert len(set(mod.__all__)) == len(mod.__all__)

    def test_version_is_semver_like(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)

    def test_documented_quickstart_imports(self):
        # the exact imports the README shows
        from repro.core import JwParallelPlan, PlanConfig, Simulation  # noqa: F401
        from repro.nbody import plummer, total_energy  # noqa: F401

    def test_facade_pins(self):
        """Every documented front-door name resolves from the package root."""
        for name in FACADE_EXPORTS:
            assert name in repro.__all__, f"facade export '{name}' not pinned"
            assert hasattr(repro, name), f"repro.{name} does not resolve"

    def test_facade_names_match_canonical_definitions(self):
        from repro.core.simulation import Simulation
        from repro.nbody.particles import ParticleSet
        from repro.runtime import RunSession

        assert repro.Simulation is Simulation
        assert repro.ParticleSet is ParticleSet
        assert repro.RunSession is RunSession

    def test_serve_facade_matches_serve_package(self):
        import repro.serve as serve

        assert repro.connect is serve.connect
        assert repro.Coordinator is serve.Coordinator
        assert repro.Worker is serve.Worker
        assert repro.SubmitOptions is serve.SubmitOptions
        assert repro.TenantPolicy is serve.TenantPolicy
        assert repro.Gateway is serve.Gateway
        # connect() returns the service itself, so no module exports a Client
        import repro.serve.service as service

        for module in (repro, serve, service):
            assert not hasattr(module, "Client")

    def test_facade_rejects_unknown_attribute(self):
        with pytest.raises(AttributeError):
            repro.NoSuchThing

    def test_dir_includes_facade(self):
        listing = dir(repro)
        for name in FACADE_EXPORTS:
            assert name in listing


class TestUnifiedConfigure:
    """repro.configure subsumes the per-module entry points."""

    def test_configure_builds_default_engine(self):
        from repro.exec import get_default_engine

        engine = repro.configure(workers=2)
        assert get_default_engine() is engine
        assert engine.workers == 2
        assert engine.effective_backend == "thread"

    def test_configure_sets_retry_policy(self):
        engine = repro.configure(workers=1, max_retries=3)
        assert engine.retry is not None
        assert engine.retry.max_retries == 3

    def test_configure_trace_toggle(self):
        from repro import obs

        repro.configure(trace=True)
        assert obs.enabled
        repro.configure(trace=False)
        assert not obs.enabled

    def test_trace_only_call_keeps_engine(self):
        from repro.exec import get_default_engine

        before = get_default_engine()
        repro.configure(trace=False)
        assert get_default_engine() is before

    def test_rejected_call_changes_nothing(self, tmp_path):
        from repro.exec import get_default_engine

        engine = get_default_engine()
        before = {name: resolve(name) for name in SETTINGS}
        for bad in (
            dict(workers=2, queue_capacity=-1),
            dict(ledger_dir=str(tmp_path), kernel_backend="nope"),
            dict(ledger_dir=""),
            dict(max_retries=3, trace=True, tenant=""),
        ):
            with pytest.raises(errors.ConfigurationError):
                repro.configure(**bad)
        assert {name: resolve(name) for name in SETTINGS} == before
        assert get_default_engine() is engine
        assert not obs.enabled

    def test_engine_keywords_keep_the_other_engine_rows(self):
        repro.configure(workers=2)
        engine = repro.configure(max_retries=3)
        assert (engine.workers, engine.effective_backend) == (2, "thread")
        assert engine.retry.max_retries == 3

    def test_takes_a_keyword_per_settable_row(self):
        import inspect

        env_only = {"check_every", "check_energy_tol"}
        keywords = set(inspect.signature(repro.configure).parameters)
        assert keywords == set(SETTINGS) - env_only | {"trace"}

    def test_readme_table_lists_every_row(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("\n## Settings\n", 1)[1].split("\n## ", 1)[0]
        lines = {
            line.split("|")[1].strip(): line
            for line in section.splitlines()
            if line.startswith("| `")
        }
        for row in SETTINGS.values():
            line = lines.get(f"`{row.name}`")
            assert line is not None, f"README settings table misses {row.name}"
            assert (f"`{row.env}`" if row.env else "—") in line, line
            default = "unset" if row.default is None else f"`{row.default}`"
            assert default in line, line


class TestErrorHierarchy:
    def test_all_errors_derive_from_base(self):
        for name in (
            "ConfigurationError",
            "LaunchError",
            "DeviceError",
            "TreeError",
            "WorkloadError",
            "ExecutionError",
            "CheckpointError",
            "ServeError",
            "AdmissionError",
            "VerificationError",
        ):
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError)

    def test_library_failures_catchable_by_base(self):
        import numpy as np

        from repro.nbody.particles import ParticleSet
        from repro.tree.octree import build_octree

        with pytest.raises(errors.ReproError):
            ParticleSet(np.zeros((2, 2)), np.zeros((2, 2)), np.ones(2))
        with pytest.raises(errors.ReproError):
            build_octree(np.zeros((0, 3)), np.zeros(0))

    def test_base_error_is_an_exception(self):
        assert issubclass(errors.ReproError, Exception)


class TestPlanRegistryConsistency:
    def test_registry_names_match_descriptors(self):
        from repro.core.plans import get_plan
        from repro.core.ptpm import PLAN_NAMES, describe

        for name in PLAN_NAMES:
            plan = get_plan(name)
            descriptor = describe(name)
            assert plan.name == descriptor.name
            assert plan.method == descriptor.method

    def test_experiment_registry_ids_match_results(self):
        from repro.bench.experiments import run_experiment

        res = run_experiment("abl-queue", n=2048)
        assert res.exp_id == "abl-queue"


class TestBenchmarkHooks:
    """Every attribute ``e2ebench/spans.py`` shims exists where it looks.

    The end-to-end benchmark times layers by replacing callables on
    their owners; a renamed or moved hook would otherwise surface only
    when the benchmark itself runs.
    """

    @staticmethod
    def _spans():
        import importlib.util

        path = Path(__file__).parents[1] / "e2ebench" / "spans.py"
        spec = importlib.util.spec_from_file_location("e2ebench_spans", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_every_target_is_defined_on_its_owner(self):
        spans = self._spans()
        for module_name, owner_name, attr, span in (
            spans.SIM_TARGETS + spans.SERVE_TARGETS
        ):
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            where = f"{module_name}:{owner_name or ''}.{attr} ({span})"
            assert attr in vars(owner), f"hook {where} is not defined there"
            assert callable(vars(owner)[attr]), f"hook {where} is not callable"

    def test_engine_reports_serial_or_thread(self):
        from repro.exec import ExecutionEngine

        assert isinstance(vars(ExecutionEngine)["effective_backend"], property)
        assert ExecutionEngine().effective_backend == "serial"
        assert ExecutionEngine(2).effective_backend == "thread"

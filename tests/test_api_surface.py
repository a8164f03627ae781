"""API-surface tests: public exports, error hierarchy, version metadata.

Downstream users import from the package roots; these tests pin that the
documented public API actually resolves and that `__all__` is truthful.
"""

import importlib

import pytest

import repro
from repro import errors


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
    "repro.plans",
    "repro.check",
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
    "plan_by_name",
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
    "Client",
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
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_names_resolve(self, package):
        mod = importlib.import_module(package)
        for name in mod.__all__:
            assert hasattr(mod, name), f"{package}.__all__ lists missing '{name}'"

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
        from repro.exec import get_default_engine, set_default_engine

        prior = get_default_engine()
        try:
            engine = repro.configure(workers=2, exec_backend="thread")
            assert get_default_engine() is engine
            assert engine.workers == 2
            assert engine.backend == "thread"
        finally:
            set_default_engine(prior)

    def test_configure_sets_retry_policy(self):
        from repro.exec import get_default_engine, set_default_engine

        prior = get_default_engine()
        try:
            engine = repro.configure(workers=1, max_retries=3)
            assert engine.retry is not None
            assert engine.retry.max_retries == 3
        finally:
            set_default_engine(prior)

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
        from repro.core.plans import plan_by_name
        from repro.core.ptpm import PLAN_NAMES, describe

        for name in PLAN_NAMES:
            plan = plan_by_name(name)
            descriptor = describe(name)
            assert plan.name == descriptor.name
            assert plan.method == descriptor.method

    def test_experiment_registry_ids_match_results(self):
        from repro.bench.experiments import run_experiment

        res = run_experiment("abl-queue", n=2048)
        assert res.exp_id == "abl-queue"

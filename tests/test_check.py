"""Tests for repro.check: oracle, invariants, guards, golden, settings.

The contracts under test:

1. the differential oracle measures deviation honestly — ulp distances,
   per-body relative error, bit-identity — and its plan x backend matrix
   passes where the library promises bit-identity;
2. the invariant engine flags energy/momentum drift, non-finite state and
   broken pairwise symmetry under per-plan tolerance policies;
3. a guarded :class:`~repro.runtime.RunSession` refuses to checkpoint a
   corrupted state, and a guarded serve job fails its handle with
   :class:`~repro.errors.VerificationError` when its plan serves
   perturbed forces (the PR's acceptance gate);
4. golden snapshots round-trip: bless, verify, mismatch, missing;
5. the verify default resolves through configure/env precedence.
"""

import dataclasses
import json

import numpy as np
import pytest

import repro
from repro.check import (
    BIT_IDENTICAL,
    PP_POLICY,
    STRICT_POLICY,
    TREE_POLICY,
    DifferentialOracle,
    ForceTolerance,
    GoldenStore,
    InvariantEngine,
    RunGuard,
    TolerancePolicy,
    assert_bit_identical,
    assert_within,
    compare_arrays,
    default_guard,
    policy_for,
    state_digest,
    ulp_distance,
)
from repro.check.invariants import BLOCK_TREE_POLICY
from repro.check.oracle import expected_tolerance
from repro.core.plans import PlanConfig
from repro.core.plans import registry as plan_registry
from repro.core.plans.i_parallel import IParallelPlan
from repro.errors import (
    ConfigurationError,
    StateError,
    VerificationError,
)
from repro.exec import ExecutionEngine
from repro.nbody.ic import plummer
from repro.runtime import RunSession
from repro.serve import SubmitOptions, connect
from tests.conftest import EPS, make_sim, small_spec

ENV_ENABLED = "REPRO_CHECK_ENABLED"
ENV_EVERY = "REPRO_CHECK_EVERY"
ENV_ENERGY_TOL = "REPRO_CHECK_ENERGY_TOL"


# ---------------------------------------------------------------------------
# Oracle primitives
# ---------------------------------------------------------------------------

class TestUlpDistance:
    def test_zero_for_identical(self):
        a = np.array([1.0, -2.5, 0.0])
        assert ulp_distance(a, a.copy()).max() == 0

    def test_adjacent_floats_are_one_ulp(self):
        a = np.array([1.0, -1.0, 1e300])
        b = np.nextafter(a, np.inf)
        assert list(ulp_distance(a, b)) == [1, 1, 1]

    def test_crosses_zero_monotonically(self):
        tiny = np.nextafter(0.0, 1.0)
        assert ulp_distance(np.array([-tiny]), np.array([tiny]))[0] == 2

    def test_nan_same_bits_is_zero(self):
        a = np.array([np.nan])
        assert ulp_distance(a, a.copy())[0] == 0

    def test_nan_vs_number_is_huge(self):
        d = ulp_distance(np.array([np.nan]), np.array([1.0]))[0]
        assert d == 2**62


class TestCompareArrays:
    def test_bit_identical_fast_path(self):
        a = np.random.default_rng(0).normal(size=(64, 3))
        dev = compare_arrays(a, a.copy())
        assert dev.bit_identical
        assert dev.max_ulps == 0
        assert dev.max_abs_error == 0.0

    def test_per_body_relative_error(self):
        ref = np.ones((4, 3))
        cand = ref.copy()
        cand[2] *= 1.0 + 1e-6
        dev = compare_arrays(ref, cand)
        assert not dev.bit_identical
        assert dev.worst_body == 2
        assert dev.max_rel_error == pytest.approx(1e-6, rel=1e-2)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ConfigurationError, match="shape"):
            compare_arrays(np.ones((3, 3)), np.ones((4, 3)))

    def test_deviation_round_trips_to_json(self):
        dev = compare_arrays(np.ones((2, 3)), np.full((2, 3), 1.0 + 1e-9))
        parsed = json.loads(json.dumps(dev.to_dict()))
        assert parsed["bit_identical"] is False
        assert parsed["n"] == 2


class TestTolerances:
    def test_bit_identical_admits_only_zero_deviation(self):
        ref = np.ones((2, 3))
        assert BIT_IDENTICAL.admits(compare_arrays(ref, ref.copy()))
        assert not BIT_IDENTICAL.admits(
            compare_arrays(ref, np.nextafter(ref, np.inf))
        )

    def test_expected_tolerance_same_plan_is_bit_identical(self):
        assert expected_tolerance("jw", "jw") is BIT_IDENTICAL
        assert expected_tolerance("i", "i") is BIT_IDENTICAL

    def test_expected_tolerance_by_method(self):
        assert expected_tolerance("i", "j").name == "pp-cross-plan"
        assert expected_tolerance("w", "jw").name == "tree-cross-plan"
        assert expected_tolerance("i", "w").name == "tree-vs-direct"

    def test_assert_bit_identical_raises_with_measurement(self):
        ref = np.ones((3, 3))
        cand = ref.copy()
        cand[1, 1] = np.nextafter(1.0, 2.0)
        with pytest.raises(VerificationError) as exc_info:
            assert_bit_identical(ref, cand, context="unit")
        assert "unit" in str(exc_info.value)
        assert exc_info.value.report is not None

    def test_assert_within_admits_and_rejects(self):
        ref = np.ones((2, 3))
        loose = ForceTolerance(name="loose", max_rel=1e-3, rms_rel=1e-3)
        assert_within(ref, ref * (1.0 + 1e-7), loose, context="ok")
        with pytest.raises(VerificationError):
            assert_within(ref, ref * 1.5, loose, context="off")


# ---------------------------------------------------------------------------
# Differential oracle
# ---------------------------------------------------------------------------

class TestDifferentialOracle:
    def test_same_plan_serial_is_bit_identical(self, bodies, config):
        pos, mass = bodies
        oracle = DifferentialOracle("j", config)
        cmp = oracle.compare("j", pos, mass)
        assert cmp.ok and cmp.deviation.bit_identical

    def test_cross_plan_within_documented_tolerance(self, bodies, config):
        pos, mass = bodies
        oracle = DifferentialOracle("i", config)
        cmp = oracle.compare("w", pos, mass)
        assert cmp.ok
        assert not cmp.deviation.bit_identical  # tree approximates
        cmp.raise_if_failed()

    def test_comparison_serialises(self, config):
        p = plummer(64, seed=3)
        cmp = DifferentialOracle("i", config).compare(
            "j", p.positions, p.masses
        )
        doc = json.loads(json.dumps(cmp.to_dict()))
        assert doc["ok"] is True
        assert doc["tolerance"]["name"] == "pp-cross-plan"

    @pytest.mark.slow
    @pytest.mark.process_backend
    def test_full_matrix_plans_by_backends(self, bodies, config):
        """The PR's determinism matrix: serial/thread/process x i/j/w/jw.

        Every parallel backend must be bit-identical to its plan's serial
        run; every plan must sit within its documented tolerance of the
        reference plan.  This is the test-suite twin of
        ``repro-nbody check``.
        """
        pos, mass = bodies
        oracle = DifferentialOracle("i", config)
        results = oracle.matrix(
            pos,
            mass,
            plans=("i", "j", "w", "jw"),
            backends=("serial", "thread", "process"),
            workers=2,
        )
        assert len(results) == 12  # 4 plans x (1 cross-plan + 2 backends)
        failures = [c for c in results if not c.ok]
        assert not failures, "\n".join(str(c) for c in failures)
        backend_rows = [c for c in results if c.meta.get("axis") == "backend"]
        assert len(backend_rows) == 8
        assert all(c.deviation.bit_identical for c in backend_rows)


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------

class TestTolerancePolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TolerancePolicy(energy_drift=-1.0)
        with pytest.raises(ConfigurationError):
            TolerancePolicy(symmetry_samples=-1)

    def test_policy_for_picks_by_method(self):
        assert policy_for("i") is PP_POLICY
        assert policy_for("j") is PP_POLICY
        assert policy_for("w") is TREE_POLICY
        assert policy_for("jw") is TREE_POLICY
        with pytest.raises(ConfigurationError):
            policy_for("nope")


class TestInvariantEngine:
    def _engine(self, policy=PP_POLICY):
        return InvariantEngine(policy, softening=EPS)

    def test_clean_run_passes_all_checks(self):
        sim = make_sim("j", n=128)
        eng = self._engine()
        base = eng.baseline(sim.particles)
        sim.run(10)
        report = eng.evaluate(
            sim.particles, base, step=10, accelerations=sim.last_acceleration
        )
        assert report.ok, str(report.to_dict())
        names = {r.name for r in report.results}
        assert names == {
            "finite_state",
            "energy_drift",
            "momentum_drift",
            "angular_momentum_drift",
            "net_force",
            "pair_antisymmetry",
        }

    def test_nan_state_fails_finite_sentinel_only(self):
        sim = make_sim()
        eng = self._engine()
        base = eng.baseline(sim.particles)
        sim.particles.positions[3, 1] = np.nan
        report = eng.evaluate(sim.particles, base, step=1)
        assert not report.ok
        assert [r.name for r in report.failures] == ["finite_state"]
        # NaN energy sums are skipped, not reported as drift
        assert len(report.results) == 1

    def test_velocity_kick_fails_momentum_drift(self):
        sim = make_sim(n=64)
        eng = self._engine()
        base = eng.baseline(sim.particles)
        sim.particles.velocities[0] += 100.0
        report = eng.evaluate(sim.particles, base, step=1)
        failed = {r.name for r in report.failures}
        assert "momentum_drift" in failed

    def test_strict_policy_checks_finite_only_drift_free(self):
        sim = make_sim(n=64)
        eng = self._engine(STRICT_POLICY)
        base = eng.baseline(sim.particles)
        sim.particles.velocities[0] += 100.0  # huge drift, no corruption
        report = eng.evaluate(sim.particles, base, step=1)
        assert report.ok

    def test_raise_if_failed_carries_report(self):
        sim = make_sim()
        eng = self._engine()
        base = eng.baseline(sim.particles)
        sim.particles.positions[0, 0] = np.inf
        report = eng.evaluate(sim.particles, base, step=2)
        with pytest.raises(VerificationError) as exc_info:
            report.raise_if_failed(context="unit-test")
        assert exc_info.value.report is report
        assert "unit-test" in str(exc_info.value)

    def test_antisymmetry_sampling_is_deterministic(self):
        sim = make_sim(n=32)
        eng = self._engine()
        base = eng.baseline(sim.particles)
        a = eng.evaluate(sim.particles, base, step=5)
        b = eng.evaluate(sim.particles, base, step=5)
        pa = [r for r in a.results if r.name == "pair_antisymmetry"][0]
        pb = [r for r in b.results if r.name == "pair_antisymmetry"][0]
        assert pa.value == pb.value


# ---------------------------------------------------------------------------
# RunGuard + RunSession integration
# ---------------------------------------------------------------------------

class TestRunGuard:
    def test_check_before_prime_raises(self):
        with pytest.raises(StateError):
            RunGuard().check(make_sim())

    def test_prime_resolves_plan_default_policy(self):
        guard = RunGuard()
        guard.prime(make_sim("jw"))
        assert guard.policy is TREE_POLICY
        guard2 = RunGuard()
        guard2.prime(make_sim("i"))
        assert guard2.policy is PP_POLICY

    def test_every_cadence_dedups_steps(self):
        guard = RunGuard(every=2)
        sim = make_sim(n=48)
        guard.prime(sim)
        sim.run(4)
        assert guard.maybe_check(sim) is not None
        assert guard.maybe_check(sim) is None  # same step: deduped
        sim.run(5)  # step 9: off-cadence
        assert guard.maybe_check(sim) is None
        assert guard.evaluations == 1

    def test_guarded_session_completes_clean_run(self, tmp_path):
        session = RunSession(
            make_sim(n=64), tmp_path / "run", checkpoint_every=3,
            guard=RunGuard(),
        )
        session.run(6)
        assert session.complete
        assert session.guard.evaluations >= 2  # step 3 + final
        assert session.guard.failures == 0

    def test_corrupted_state_fails_before_checkpoint_persists(self, tmp_path):
        """The guard fires before the bad state becomes resumable."""
        session = RunSession(
            make_sim(n=64), tmp_path / "run", checkpoint_every=2,
            guard=RunGuard(),
        )

        def poison(sim):
            if sim.record.steps == 1:
                sim.particles.positions[0, 0] = np.nan

        with pytest.raises(VerificationError):
            session.run(4, callback=poison)
        # only checkpoints strictly before the corruption exist
        assert all(
            c.step < 2 for c in session.manifest.checkpoints
        ), "a corrupted state was persisted as a checkpoint"

    def test_guard_false_disables_enabled_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_ENABLED, "1")
        session = RunSession(make_sim(), tmp_path / "run", guard=False)
        assert session.guard is None

    def test_guard_emits_spans_and_counters(self, tmp_path):
        from repro import obs

        obs.enable(reset=True)
        try:
            session = RunSession(
                make_sim(n=48), tmp_path / "run", guard=RunGuard()
            )
            session.run(3)
            names = [s.name for s in obs.tracer().spans]
            assert "check.invariants" in names
            snap = obs.metrics().snapshot()
            assert snap["check.evaluations_total"]["value"] >= 1
        finally:
            obs.disable()


class TestCheckSettings:
    def test_default_is_no_guard(self):
        assert default_guard() is None

    def test_env_enables_guard(self, monkeypatch):
        monkeypatch.setenv(ENV_ENABLED, "1")
        monkeypatch.setenv(ENV_EVERY, "5")
        guard = default_guard()
        assert isinstance(guard, RunGuard)
        assert guard.every == 5

    def test_env_energy_tol_builds_policy(self, monkeypatch):
        monkeypatch.setenv(ENV_ENABLED, "true")
        monkeypatch.setenv(ENV_ENERGY_TOL, "0.25")
        guard = default_guard()
        guard.prime(make_sim())
        assert guard.policy == dataclasses.replace(PP_POLICY, energy_drift=0.25)

    @pytest.mark.parametrize(
        "plan, policy",
        [
            ("jw", dataclasses.replace(TREE_POLICY, energy_drift=1e-2)),
            (
                "block-jw",
                dataclasses.replace(BLOCK_TREE_POLICY, energy_drift_per_sync=1e-2),
            ),
        ],
    )
    def test_env_energy_tol_keeps_the_plan_policy(
        self, plan, policy, tmp_path, monkeypatch
    ):
        """A healthy tree run guarded with only a looser energy bound
        passes: the bound replaces the energy field of the plan's policy
        (the per-sync budget on block plans) instead of swapping in the
        all-pairs policy, whose net-force bound a tree run cannot meet."""
        monkeypatch.setenv(ENV_ENABLED, "1")
        monkeypatch.setenv(ENV_ENERGY_TOL, "1e-2")
        session = RunSession(
            make_sim(plan, n=512, seed=0), tmp_path / "run", checkpoint_every=4
        )
        session.run(16)
        assert session.guard.policy == policy

    def test_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv(ENV_ENABLED, "maybe")
        with pytest.raises(ConfigurationError):
            default_guard()

    def test_configure_verify_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_ENABLED, "1")
        repro.configure(verify=False)
        assert default_guard() is None

    def test_configure_verify_policy_is_pinned(self):
        policy = dataclasses.replace(PP_POLICY, name="pinned")
        repro.configure(verify=policy)
        guard = default_guard()
        assert guard is not None and guard.policy.name == "pinned"

    def test_configure_rejects_bad_verify(self):
        with pytest.raises(ConfigurationError):
            repro.configure(verify="yes")

    def test_session_picks_up_configured_default(self, tmp_path):
        repro.configure(verify=True)
        session = RunSession(make_sim(), tmp_path / "run")
        assert isinstance(session.guard, RunGuard)


# ---------------------------------------------------------------------------
# Golden snapshots
# ---------------------------------------------------------------------------

class TestGoldenStore:
    def test_digest_is_deterministic_and_state_sensitive(self):
        a, b = make_sim(n=32), make_sim(n=32)
        a.run(3)
        b.run(3)
        assert state_digest(a.particles, a.time) == state_digest(
            b.particles, b.time
        )
        b.run(1)
        assert state_digest(a.particles, a.time) != state_digest(
            b.particles, b.time
        )

    def test_bless_verify_roundtrip(self, tmp_path):
        store = GoldenStore(tmp_path)
        case = store.case_id(
            workload="plummer", n=32, seed=7, plan="j", dt=1e-3, steps=3
        )
        store.bless(case, "abc123", meta={"n": 32})
        assert store.verify(case, "abc123")["status"] == "match"
        assert store.verify(case, "def456")["status"] == "mismatch"
        assert case in store.cases()

    def test_missing_case_reports_missing(self, tmp_path):
        store = GoldenStore(tmp_path)
        out = store.verify("never-blessed", "abc")
        assert out["status"] == "missing"

    def test_rebless_overwrites(self, tmp_path):
        store = GoldenStore(tmp_path)
        store.bless("case", "old", meta={})
        store.bless("case", "new", meta={})
        assert store.verify("case", "new")["status"] == "match"


# ---------------------------------------------------------------------------
# Serve integration: the acceptance gate
# ---------------------------------------------------------------------------

class _PerturbedPlan(IParallelPlan):
    """An i-plan whose forces are silently wrong — what guards exist for."""

    name = "perturbed-test"

    def accelerations(self, positions, masses):
        acc = super().accelerations(positions, masses).copy()
        acc[0] += 1e6  # a corrupted kernel: one body gets a huge kick
        return acc


@pytest.fixture()
def perturbed_plan():
    plan_registry.register("perturbed-test")(_PerturbedPlan)
    yield "perturbed-test"
    plan_registry.unregister("perturbed-test")


@pytest.mark.serve
class TestServeVerification:
    def test_guarded_job_with_perturbed_forces_fails(
        self, tmp_path, perturbed_plan
    ):
        """Acceptance: an injected force perturbation in a guarded job
        raises VerificationError instead of completing."""
        spec = small_spec(
            plan=perturbed_plan,
            plan_config=PlanConfig(softening=EPS),
            steps=6,
        )
        svc = connect(None, cache_dir=tmp_path, verify=True, steps_per_slice=2)
        try:
            handle = svc.submit(spec)
            handle.wait(timeout=120)
        finally:
            svc.close()
        assert handle.status == "failed"
        assert isinstance(handle.error, VerificationError)

    def test_guarded_job_with_good_forces_completes(self, tmp_path):
        spec = small_spec(steps=6)
        svc = connect(None, cache_dir=tmp_path, verify=True, steps_per_slice=2)
        try:
            result = svc.submit(spec).result(timeout=120)
        finally:
            svc.close()
        assert result.steps == 6

    def test_per_submit_verify_overrides_service_default(
        self, tmp_path, perturbed_plan
    ):
        """verify=False on one submission opts that job out of guarding."""
        spec = small_spec(
            plan=perturbed_plan,
            plan_config=PlanConfig(softening=EPS),
            steps=6,
        )
        svc = connect(None, cache_dir=tmp_path, verify=True, steps_per_slice=2)
        try:
            handle = svc.submit(spec, options=SubmitOptions(verify=False))
            result = handle.result(timeout=120)
        finally:
            svc.close()
        assert result.steps == 6

    def test_failed_verification_not_cached(self, tmp_path, perturbed_plan):
        spec = small_spec(
            plan=perturbed_plan,
            plan_config=PlanConfig(softening=EPS),
            steps=6,
        )
        svc = connect(None, cache_dir=tmp_path, verify=True, steps_per_slice=2)
        try:
            bad = svc.submit(spec)
            bad.wait(timeout=120)
            assert bad.status == "failed"
            # resubmitted without guarding: must re-run, not hit a cache
            good = svc.submit(spec, options=SubmitOptions(verify=False))
            result = good.result(timeout=120)
        finally:
            svc.close()
        assert not result.from_cache


# ---------------------------------------------------------------------------
# Parallel-backend guard sanity
# ---------------------------------------------------------------------------

class TestGuardAcrossBackends:
    @pytest.mark.parametrize(
        "backend",
        ["thread", pytest.param("process", marks=pytest.mark.process_backend)],
    )
    def test_guarded_session_on_parallel_backend(self, tmp_path, backend):
        with ExecutionEngine(backend=backend, workers=2) as engine:
            session = RunSession(
                make_sim(engine=engine, n=64),
                tmp_path / "run",
                checkpoint_every=3,
                guard=RunGuard(),
            )
            session.run(6)
        assert session.complete
        assert session.guard.failures == 0

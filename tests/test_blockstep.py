"""Block-timestep suite: schedule properties, bit-match, resume, golden.

The contracts under test (PR "block timesteps"):

1. **Schedule properties** (hypothesis): rung assignment is deterministic
   and permutation-equivariant; every rung closes at every multiple of
   its span, so all rungs close together at every ``2**k``-aligned sync
   boundary; ``min_rung_at`` only permits block-aligned rung moves.
2. **Active-mask bit-match**: a masked force pass over the active subset
   returns exactly the rows a full evaluation would — bit for bit — for
   both the direct (``block-i``) and tree (``block-jw``) plans.
3. **Degeneracy**: ``n_rungs=1`` reproduces the fixed-dt KDK trajectory
   bit for bit, including the step/force-pass accounting.
4. **Checkpoint/resume**: a checkpoint taken mid sync interval (rung
   state staggered) resumes bit-identically.
5. **Accounting**: ``steps`` counts substeps and ``force_passes`` counts
   non-empty force evaluations consistently, however ``advance()``
   slices the run across sync-interval boundaries.
6. **Golden snapshots**: blessed final-state digests for a Plummer
   sphere and a two-body eccentric orbit (regenerate deliberately with
   ``REPRO_BLESS_GOLDEN=1``; see TESTING.md), plus an energy-drift gate
   at the documented block policies.
7. **Check exit codes**: a per-rung invariant failure exits 1 from
   ``repro-nbody check`` and names the rung in the JSON report.
"""

import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import GoldenStore, RunGuard, state_digest
from repro.check.invariants import BLOCK_PP_POLICY, BLOCK_TREE_POLICY, policy_for
from repro.core.plans import (
    BlockDirectPlan,
    BlockTreePlan,
    PlanConfig,
    get_plan,
)
from repro.core.simulation import Simulation
from repro.errors import ConfigurationError, StateError, VerificationError
from repro.nbody.ic import plummer
from repro.nbody.particles import ParticleSet
from repro.nbody.timestep import BlockTimestepSchedule, acceleration_timestep
from repro.runtime import RunSession

from tests.conftest import EPS

GOLDEN_DIR = Path(__file__).parent / "golden"
BLESS = os.environ.get("REPRO_BLESS_GOLDEN") == "1"


def block_sim(particles, plan="block-i", *, dt=4e-3, n_rungs=4, **cfg):
    config = PlanConfig(softening=EPS, n_rungs=n_rungs, **cfg)
    return Simulation(particles, plan, dt=dt, plan_config=config)


def two_body_eccentric(e=0.9, a=1.0):
    """Equal-mass binary started at apoapsis of an ``e``-eccentric orbit."""
    r_apo = a * (1.0 + e)
    # Relative-orbit vis-viva at apoapsis with G*M_total = 1.
    v_rel = np.sqrt((1.0 - e) / (a * (1.0 + e)))
    positions = np.array([[-0.5 * r_apo, 0.0, 0.0], [0.5 * r_apo, 0.0, 0.0]])
    velocities = np.array([[0.0, -0.5 * v_rel, 0.0], [0.0, 0.5 * v_rel, 0.0]])
    masses = np.array([0.5, 0.5])
    return ParticleSet(positions, velocities, masses)


# ---------------------------------------------------------------------------
# 1. Schedule properties
# ---------------------------------------------------------------------------

accel_arrays = st.integers(min_value=1, max_value=64).flatmap(
    lambda n: st.lists(
        st.floats(
            min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
        ),
        min_size=3 * n,
        max_size=3 * n,
    ).map(lambda xs: np.asarray(xs, dtype=np.float64).reshape(n, 3))
)


class TestScheduleProperties:
    @given(acc=accel_arrays, n_rungs=st.integers(min_value=1, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_assign_deterministic_and_permutation_equivariant(
        self, acc, n_rungs
    ):
        sched = BlockTimestepSchedule(dt_max=1e-2, n_rungs=n_rungs, softening=EPS)
        once = sched.assign(acc)
        again = sched.assign(acc.copy())
        np.testing.assert_array_equal(once, again)
        # permuting the bodies permutes the rungs identically
        perm = np.random.default_rng(acc.shape[0]).permutation(acc.shape[0])
        np.testing.assert_array_equal(sched.assign(acc[perm]), once[perm])
        assert once.dtype == np.int64
        assert ((once >= 0) & (once < n_rungs)).all()

    @given(n_rungs=st.integers(min_value=1, max_value=8))
    @settings(max_examples=30, deadline=None)
    def test_every_power_of_two_boundary_is_a_close_point(self, n_rungs):
        sched = BlockTimestepSchedule(dt_max=1.0, n_rungs=n_rungs, softening=EPS)
        rungs = np.arange(n_rungs, dtype=np.int64)
        for boundary in range(1, 2 * sched.n_substeps + 1):
            closes = sched.closes(rungs, boundary)
            for r in range(n_rungs):
                span = 1 << (n_rungs - 1 - r)
                assert closes[r] == (boundary % span == 0)
        # all rungs close together exactly at sync boundaries
        for k in range(1, 4):
            assert sched.closes(rungs, k * sched.n_substeps).all()
            assert sched.is_sync(k * sched.n_substeps)

    @given(n_rungs=st.integers(min_value=1, max_value=8))
    @settings(max_examples=30, deadline=None)
    def test_min_rung_at_is_the_coarsest_aligned_rung(self, n_rungs):
        sched = BlockTimestepSchedule(dt_max=1.0, n_rungs=n_rungs, softening=EPS)
        for s in range(sched.n_substeps):
            lo = sched.min_rung_at(s)
            assert 0 <= lo < n_rungs
            # every allowed rung's block is aligned at s, every coarser
            # (smaller) rung's block is not
            for r in range(n_rungs):
                aligned = s % (1 << (n_rungs - 1 - r)) == 0
                assert aligned == (r >= lo)
        assert sched.min_rung_at(0) == 0

    def test_rung_dt_and_criterion(self):
        sched = BlockTimestepSchedule(dt_max=8e-3, n_rungs=4, softening=EPS)
        np.testing.assert_array_equal(
            sched.rung_dt(np.arange(4)), [8e-3, 4e-3, 2e-3, 1e-3]
        )
        # a body whose criterion sits between rungs rounds to the shorter
        dt_body = np.array([1.0, 8e-3, 7.9e-3, 1e-3, 1e-9, np.inf])
        np.testing.assert_array_equal(
            sched.rungs_from_timesteps(dt_body), [0, 0, 1, 3, 3, 0]
        )

    def test_update_respects_block_alignment(self):
        sched = BlockTimestepSchedule(dt_max=8e-3, n_rungs=4, softening=EPS)
        rungs = np.array([3, 3], dtype=np.int64)
        # huge dt allowed -> wants rung 0, but substep 1 only aligns rung 3
        calm = np.zeros((2, 3))
        out = sched.update(rungs, calm, np.array([0, 1]), 1)
        np.testing.assert_array_equal(out, [3, 3])
        # at substep 4 (half interval) rung 1 (span 4) is the coarsest
        # aligned block
        out = sched.update(rungs, calm, np.array([0, 1]), 4)
        np.testing.assert_array_equal(out, [1, 1])
        # at a sync boundary the move to rung 0 is unrestricted
        out = sched.update(rungs, calm, np.array([0, 1]), 0)
        np.testing.assert_array_equal(out, [0, 0])
        # moving to a shorter step is immediate regardless of alignment
        tight = np.full((2, 3), 1e12)
        out = sched.update(np.zeros(2, dtype=np.int64), tight, np.array([0, 1]), 1)
        np.testing.assert_array_equal(out, [3, 3])
        # the input array is never mutated
        np.testing.assert_array_equal(rungs, [3, 3])

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="dt_max"):
            BlockTimestepSchedule(dt_max=0.0)
        with pytest.raises(ConfigurationError, match="n_rungs"):
            BlockTimestepSchedule(dt_max=1e-3, n_rungs=0)
        with pytest.raises(ConfigurationError, match="softening"):
            BlockTimestepSchedule(dt_max=1e-3, softening=0.0)

    def test_occupancy_counts_every_body(self, plummer_small):
        sched = BlockTimestepSchedule(dt_max=4e-3, n_rungs=4, softening=EPS)
        plan = get_plan("i", PlanConfig(softening=EPS))
        acc = plan.accelerations(
            plummer_small.positions, plummer_small.masses
        )
        rungs = sched.assign(acc)
        occ = sched.occupancy(rungs)
        assert occ.sum() == plummer_small.n
        assert len(occ) == sched.n_rungs


# ---------------------------------------------------------------------------
# 2. Active-mask force bit-match
# ---------------------------------------------------------------------------

class TestActiveMaskBitMatch:
    @pytest.mark.parametrize("plan_name", ["block-i", "block-jw"])
    def test_masked_rows_bit_match_full_evaluation(
        self, plan_name, plummer_small
    ):
        plan = get_plan(plan_name, PlanConfig(softening=EPS))
        pos, m = plummer_small.positions, plummer_small.masses
        full = plan.accelerations(pos, m)
        rng = np.random.default_rng(5)
        for k in (1, 17, 100, plummer_small.n):
            active = np.sort(rng.choice(plummer_small.n, size=k, replace=False))
            rows, bd = plan.compute_step(pos, m, active=active)
            assert rows.shape == (k, 3)
            np.testing.assert_array_equal(rows, full[active])
            assert bd is not None

    @pytest.mark.parametrize("plan_name", ["block-i", "block-jw"])
    def test_empty_active_set_is_free(self, plan_name, plummer_small):
        plan = get_plan(plan_name, PlanConfig(softening=EPS))
        rows, bd = plan.compute_step(
            plummer_small.positions,
            plummer_small.masses,
            active=np.array([], dtype=np.int64),
        )
        assert rows.shape == (0, 3)
        assert bd is None

    def test_active_index_out_of_range_rejected(self, plummer_small):
        plan = get_plan("block-i", PlanConfig(softening=EPS))
        with pytest.raises(ConfigurationError):
            plan.compute_step(
                plummer_small.positions,
                plummer_small.masses,
                active=np.array([plummer_small.n]),
            )

    def test_boolean_mask_rejected(self, plummer_small):
        plan = get_plan("block-i", PlanConfig(softening=EPS))
        mask = np.zeros(plummer_small.n, dtype=bool)
        mask[[5, 40]] = True
        with pytest.raises(ConfigurationError, match="flatnonzero"):
            plan.compute_step(
                plummer_small.positions, plummer_small.masses, active=mask
            )

    def test_block_plans_registered_with_inner_delegation(self):
        cfg = PlanConfig(softening=EPS)
        bi, bjw = get_plan("block-i", cfg), get_plan("block-jw", cfg)
        assert isinstance(bi, BlockDirectPlan) and bi.blockstep
        assert isinstance(bjw, BlockTreePlan) and bjw.blockstep
        assert (bi.method, bjw.method) == ("pp", "bh")
        assert bi.inner.name == "i" and bjw.inner.name == "jw"


class TestMaskedPassTiming:
    """The simulated cost of a masked pass, pinned against the full pass."""

    @pytest.mark.parametrize(
        "block,fixed,fields",
        [
            ("block-i", "i", ("kernel_seconds", "transfer_seconds")),
            # a masked jw pass also uploads the selected walks' lists
            ("block-jw", "jw", ("kernel_seconds",)),
        ],
        ids=["block-i", "block-jw"],
    )
    def test_every_row_active_costs_the_full_pass(
        self, block, fixed, fields, plummer_small
    ):
        cfg = PlanConfig(softening=EPS, wg_size=64)
        pos, m = plummer_small.positions, plummer_small.masses
        every = np.arange(plummer_small.n)
        _, masked = get_plan(block, cfg).compute_step(pos, m, active=every)
        _, full = get_plan(fixed, cfg).compute_step(pos, m)
        for name in fields + (
            "host_seconds", "interactions", "issued_interactions"
        ):
            assert getattr(masked, name) == getattr(full, name), name

    @pytest.mark.parametrize("plan_name", ["block-i", "block-jw"])
    def test_subset_interactions_count_the_evaluated_work(
        self, plan_name, plummer_small
    ):
        plan = get_plan(plan_name, PlanConfig(softening=EPS, wg_size=64))
        pos, m = plummer_small.positions, plummer_small.masses
        active = np.arange(3, plummer_small.n, 11)
        _, bd = plan.compute_step(pos, m, active=active)
        if plan_name == "block-i":
            assert bd.interactions == active.size * plummer_small.n
            return
        walks = plan.inner.prepare(pos, m)
        rows = np.flatnonzero(np.isin(walks.tree.order, active))
        selected = np.unique(
            np.searchsorted(walks.groups[:, 1], rows, side="right")
        )
        assert 0 < selected.size < len(walks)
        assert bd.meta["n_walks_active"] == selected.size
        assert bd.interactions == int(
            walks.interactions_per_walk()[selected].sum()
        )

    @pytest.mark.parametrize("plan_name", ["block-i", "block-jw"])
    def test_masked_pass_identical_across_worker_counts(
        self, plan_name, plummer_small
    ):
        from repro.exec import ExecutionEngine

        cfg = PlanConfig(softening=EPS, wg_size=64)
        pos, m = plummer_small.positions, plummer_small.masses
        active = np.arange(1, plummer_small.n, 3)
        runs = []
        for workers in (1, 2):
            with ExecutionEngine(workers) as engine:
                plan = get_plan(plan_name, cfg, engine=engine)
                runs.append(plan.compute_step(pos, m, active=active))
        (rows_1, bd_1), (rows_2, bd_2) = runs
        np.testing.assert_array_equal(rows_1, rows_2)
        assert dataclasses.asdict(bd_1) == dataclasses.asdict(bd_2)


# ---------------------------------------------------------------------------
# 3. Degeneracy: one rung == fixed dt, bit for bit
# ---------------------------------------------------------------------------

class TestSingleRungDegeneracy:
    @pytest.mark.parametrize(
        "block,fixed", [("block-i", "i"), ("block-jw", "jw")]
    )
    def test_single_rung_matches_fixed_dt_bitwise(
        self, block, fixed, plummer_small
    ):
        dt, steps = 1e-3, 5
        sim_b = block_sim(plummer_small.copy(), block, dt=dt, n_rungs=1)
        sim_f = Simulation(
            plummer_small.copy(), fixed, dt=dt,
            plan_config=PlanConfig(softening=EPS),
        )
        sim_b.run(steps)
        sim_f.run(steps)
        np.testing.assert_array_equal(
            sim_b.particles.positions, sim_f.particles.positions
        )
        np.testing.assert_array_equal(
            sim_b.particles.velocities, sim_f.particles.velocities
        )
        assert sim_b.record.steps == sim_f.record.steps == steps
        assert sim_b.record.force_passes == sim_f.record.force_passes
        assert sim_b.time == sim_f.time


# ---------------------------------------------------------------------------
# 4. Simulation semantics + mid-rung checkpoint/resume
# ---------------------------------------------------------------------------

class TestBlockSimulation:
    def test_block_state_surface(self, plummer_small):
        sim = block_sim(plummer_small.copy(), n_rungs=4)
        assert sim.blockstep and sim.synchronized
        assert sim.rungs is None and sim.substep == 0
        sched = sim.block_schedule
        assert sched.n_substeps == 8 and sched.dt_min == sim.dt / 8
        sim.step()
        assert sim.rungs is not None and sim.substep == 1
        assert not sim.synchronized
        assert sim.time == pytest.approx(sched.dt_min)
        evaluated = 0
        for _ in range(sched.n_substeps - 1):
            bd = sim.step()
            if bd is not None:
                evaluated += bd.meta.get("active_bodies", plummer_small.n)
        assert sim.substep == 0 and sim.synchronized
        assert sim.sync_intervals == 1
        assert sim.record.steps == sched.n_substeps
        assert sim.record.force_passes <= 1 + sched.n_substeps
        # rung-resolved substeps evaluate strictly fewer bodies than a
        # fixed-dt_min integrator would over the same boundaries
        assert 0 < evaluated < (sched.n_substeps - 1) * plummer_small.n

    def test_fixed_dt_sim_has_trivial_block_surface(self, plummer_small):
        sim = Simulation(plummer_small.copy(), "i", dt=1e-3)
        assert not sim.blockstep and sim.synchronized
        assert sim.block_schedule is None and sim.rungs is None
        sim.run(3)
        assert sim.sync_intervals == 3

    def test_seed_rungs_validation(self, plummer_small):
        sim = block_sim(plummer_small.copy(), n_rungs=3)
        fixed = Simulation(plummer_small.copy(), "i", dt=1e-3)
        good = np.zeros(plummer_small.n, dtype=np.int64)
        with pytest.raises(StateError, match="block-timestep"):
            fixed.seed_rungs(good)
        with pytest.raises(ConfigurationError, match="shape"):
            sim.seed_rungs(good[:-1])
        with pytest.raises(ConfigurationError, match="rung"):
            sim.seed_rungs(good + 3)
        with pytest.raises(ConfigurationError, match="substep"):
            sim.seed_rungs(good, substep=4)

    def test_mid_rung_checkpoint_resume_bit_identical(
        self, tmp_path, plummer_small
    ):
        dt, target = 4e-3, 11  # 8 substeps/interval -> ckpt at 5 is mid-rung
        base = plummer_small.copy()

        solo = block_sim(base.copy(), n_rungs=4, dt=dt)
        RunSession(solo, tmp_path / "solo", checkpoint_every=100).run(target)

        sim_a = block_sim(base.copy(), n_rungs=4, dt=dt)
        rundir = tmp_path / "resumed"
        RunSession(sim_a, rundir, checkpoint_every=5).run(5)
        session = RunSession.resume(rundir)
        sim_b = session.simulation
        # the checkpoint really was mid sync interval, rung state restored
        assert sim_b.substep == 5 and not sim_b.synchronized
        np.testing.assert_array_equal(sim_b.rungs, sim_a.rungs)
        session.run(target)

        np.testing.assert_array_equal(
            sim_b.particles.positions, solo.particles.positions
        )
        np.testing.assert_array_equal(
            sim_b.particles.velocities, solo.particles.velocities
        )
        np.testing.assert_array_equal(sim_b.rungs, solo.rungs)
        assert sim_b.substep == solo.substep
        assert sim_b.record.steps == solo.record.steps == target
        assert sim_b.record.force_passes == solo.record.force_passes
        assert sim_b.time == solo.time

    def test_fixed_dt_checkpoints_resume_without_rung_state(
        self, tmp_path, plummer_small
    ):
        sim = Simulation(plummer_small.copy(), "i", dt=1e-3)
        RunSession(sim, tmp_path, checkpoint_every=2).run(4)
        session = RunSession.resume(tmp_path)
        assert not session.simulation.blockstep
        assert session.simulation.rungs is None


# ---------------------------------------------------------------------------
# 5. steps vs force_passes accounting under advance() slicing
# ---------------------------------------------------------------------------

class TestAccounting:
    def test_sliced_advance_mid_interval_matches_one_shot(
        self, tmp_path, plummer_small
    ):
        """``advance(max_steps)`` slices landing mid sync interval must not
        skew the steps/force_passes ledger (regression: the accounting is
        per substep, not per sync interval)."""
        dt, target = 4e-3, 13  # 8 substeps/interval; 13 is never aligned
        base = plummer_small.copy()

        one_shot = block_sim(base.copy(), n_rungs=4, dt=dt)
        RunSession(one_shot, tmp_path / "a", checkpoint_every=100).run(target)

        sliced = block_sim(base.copy(), n_rungs=4, dt=dt)
        session = RunSession(sliced, tmp_path / "b", checkpoint_every=100)
        session.start(target)
        ticks = 0
        while not session.advance(3):  # 3 never divides the 8-substep cycle
            ticks += 1
            assert ticks < 100
        assert session.complete

        assert sliced.record.steps == one_shot.record.steps == target
        assert sliced.record.force_passes == one_shot.record.force_passes
        # bootstrap pass + at most one pass per substep, never more
        assert sliced.record.force_passes <= 1 + target
        np.testing.assert_array_equal(
            sliced.particles.positions, one_shot.particles.positions
        )

    def test_force_passes_skip_empty_substeps(self, plummer_small):
        """Substeps where no body's step closes must not bill a pass."""
        sim = block_sim(plummer_small.copy(), n_rungs=4, dt=4e-3)
        sim.run(sim.block_schedule.n_substeps)
        occupied = sim.block_schedule.occupancy(sim.rungs)
        # with the top rungs occupied, some substep boundaries are idle
        # for deep-rung-only activity; the ledger reflects real passes
        passes = sim.record.force_passes - 1  # minus bootstrap
        assert passes <= sim.block_schedule.n_substeps
        assert passes >= 1
        assert occupied.sum() == plummer_small.n


# ---------------------------------------------------------------------------
# 6. Golden snapshots + energy-drift gate
# ---------------------------------------------------------------------------

def _golden_roundtrip(sim, case):
    store = GoldenStore(GOLDEN_DIR)
    digest = state_digest(sim.particles, sim.time)
    if BLESS:
        store.bless(case, digest, meta={"suite": "blockstep"})
        pytest.skip(f"blessed {case}")
    verdict = store.verify(case, digest)
    assert verdict["status"] == "match", (
        f"golden {case}: {verdict['status']} (got {digest[:12]}…); rerun "
        "with REPRO_BLESS_GOLDEN=1 to re-bless if the change is intended"
    )


class TestGoldenSnapshots:
    def test_plummer_block_i_golden(self, plummer_small):
        sim = block_sim(plummer_small.copy(), "block-i", dt=4e-3, n_rungs=4)
        sim.run(16)
        _golden_roundtrip(sim, "blockstep-plummer-n256-s11-block-i-16")

    def test_two_body_eccentric_golden(self):
        sim = block_sim(two_body_eccentric(), "block-i", dt=2e-2, n_rungs=5)
        sim.run(64)
        _golden_roundtrip(sim, "blockstep-twobody-e0.9-block-i-64")

    def test_two_body_deepens_rung_near_periapsis(self):
        """The eccentric binary must migrate to finer rungs as it falls.

        Apoapsis-to-periapsis is half the ``2*pi`` period; integrating
        past it must push the pair off its starting rung as the
        acceleration criterion tightens by ``(1+e)/(1-e) ~ 19x``.
        """
        sim = block_sim(two_body_eccentric(), "block-i", dt=2e-2, n_rungs=5)
        sim.step()
        start = deepest = int(sim.rungs.max())
        for _ in range(170):  # ~3.4 time units > half period
            sim.run(sim.block_schedule.n_substeps)
            deepest = max(deepest, int(sim.rungs.max()))
        assert deepest > start
        dt_body = acceleration_timestep(
            sim.last_acceleration, softening=EPS, eta=0.025
        )
        assert sim.block_schedule.rungs_from_timesteps(dt_body).max() >= start

    @pytest.mark.parametrize(
        "plan,policy",
        [("block-i", BLOCK_PP_POLICY), ("block-jw", BLOCK_TREE_POLICY)],
    )
    def test_energy_drift_within_block_policy(
        self, plan, policy, plummer_small
    ):
        """Regression gate: two full sync intervals stay inside the
        documented per-sync energy budget (and the rest of the policy)."""
        sim = block_sim(plummer_small.copy(), plan, dt=4e-3, n_rungs=4)
        assert policy_for(plan) == policy
        guard = RunGuard()
        guard.prime(sim)
        sim.run(2 * sim.block_schedule.n_substeps)
        report = guard.check(sim, where="final")  # raises on violation
        assert report.ok
        energy = next(
            r for r in report.results if r.name == "energy_drift"
        )
        assert energy.threshold == policy.energy_drift_per_sync * 2
        assert energy.rung == int(sim.rungs.max())

    def test_mid_interval_guard_skips_drift_checks(self, plummer_small):
        sim = block_sim(plummer_small.copy(), "block-i", dt=4e-3, n_rungs=4)
        guard = RunGuard()
        guard.prime(sim)
        sim.run(3)  # mid sync interval: staggered kick phases
        assert not sim.synchronized
        report = guard.check(sim, where="slice")
        names = {r.name for r in report.results}
        assert "energy_drift" not in names
        assert "finite_state" in names


# ---------------------------------------------------------------------------
# 7. repro-nbody check: per-rung invariant failure -> exit 1 + rung id
# ---------------------------------------------------------------------------

@pytest.mark.cli
class TestCheckCli:
    def test_per_rung_failure_exits_1_with_rung_in_report(
        self, tmp_path, monkeypatch, capsys
    ):
        from dataclasses import replace

        import repro.check.guards as guards
        from repro.cli import main

        # Shrink the per-sync energy budget so the block plan's normal
        # drift becomes a violation; fixed-dt plans keep their defaults.
        real_policy_for = guards.policy_for

        def tiny_budget(plan_name):
            policy = real_policy_for(plan_name)
            if policy.energy_drift_per_sync is None:
                return policy
            return replace(
                policy, name="tiny", energy_drift_per_sync=1e-30
            )

        monkeypatch.setattr(guards, "policy_for", tiny_budget)
        out = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            main([
                "check", "--workload", "plummer", "--n", "128",
                "--plans", "block-i", "--reference", "i",
                "--workers", "1", "--kernel-backends", "",
                "--dt", "4e-3", "--steps", "16", "--json", str(out),
            ])
        assert exc.value.code == 1
        report = json.loads(out.read_text())
        assert report["ok"] is False and report["invariants_ok"] is False
        (row,) = report["invariants"]
        assert row["plan"] == "block-i" and row["ok"] is False
        failed = [
            r for r in row["report"]["results"]
            if not r["ok"] and r["name"] == "energy_drift"
        ]
        assert failed and isinstance(failed[0]["rung"], int)
        assert "rung" in row["error"]
        assert "FAIL" in capsys.readouterr().out

    def test_block_plans_pass_check_battery(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "report.json"
        assert main([
            "check", "--workload", "plummer", "--n", "128",
            "--plans", "block-i,block-jw", "--reference", "i",
            "--workers", "1", "--kernel-backends", "",
            "--dt", "4e-3", "--steps", "16", "--json", str(out),
        ]) in (0, None)
        report = json.loads(out.read_text())
        assert report["ok"] is True
        for row in report["invariants"]:
            results = row["report"]["results"]
            assert any(r.get("rung") is not None for r in results)


# ---------------------------------------------------------------------------
# 8. Oracle matrix: plan x kernel backend x precision (slow)
# ---------------------------------------------------------------------------

@pytest.mark.slow
class TestBlockstepOracleMatrix:
    @pytest.mark.parametrize("plan_name", ["block-i", "block-jw"])
    @pytest.mark.parametrize("kernel_backend", ["numpy", "cext"])
    def test_masked_pass_bit_matches_across_backends(
        self, plan_name, kernel_backend, plummer_medium
    ):
        from repro.nbody.kernels import get_backend

        if not get_backend(kernel_backend).available:
            pytest.skip(f"kernel backend {kernel_backend} unavailable")
        cfg = PlanConfig(softening=EPS, kernel_backend=kernel_backend)
        plan = get_plan(plan_name, cfg)
        pos, m = plummer_medium.positions, plummer_medium.masses
        full = plan.accelerations(pos, m)
        active = np.arange(0, plummer_medium.n, 7)
        rows, _ = plan.compute_step(pos, m, active=active)
        np.testing.assert_array_equal(rows, full[active])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kernel_backend", ["numpy", "cext"])
    def test_masked_rows_bit_match_per_dtype(
        self, dtype, kernel_backend, plummer_medium
    ):
        """The masked rectangle (active targets x all sources) bit-matches
        full-evaluation rows in both precisions on every kernel backend
        (per-target-row sums are independent of how targets are grouped)."""
        from repro.nbody.forces import accelerations_from_sources
        from repro.nbody.kernels import get_backend

        if not get_backend(kernel_backend).available:
            pytest.skip(f"kernel backend {kernel_backend} unavailable")
        pos, m = plummer_medium.positions, plummer_medium.masses
        kw = dict(softening=EPS, dtype=dtype, backend=kernel_backend)
        full = accelerations_from_sources(pos, pos, m, **kw)
        active = np.arange(0, plummer_medium.n, 5)
        rows = accelerations_from_sources(pos[active], pos, m, **kw)
        np.testing.assert_array_equal(rows, full[active])

    @pytest.mark.parametrize("plan_name", ["block-i", "block-jw"])
    @pytest.mark.parametrize("kernel_backend", ["numpy", "cext"])
    def test_trajectory_oracle_vs_fixed_dt_min(
        self, plan_name, kernel_backend, plummer_small
    ):
        """Differential oracle: a rung-resolved trajectory must stay
        within the documented cross-plan tolerance of the fixed-dt_min
        trajectory it subsamples (f32 kernels, f64 state)."""
        from repro.check.oracle import (
            PP_CROSS_PLAN,
            TREE_CROSS_PLAN,
            assert_within,
        )
        from repro.nbody.kernels import get_backend

        if not get_backend(kernel_backend).available:
            pytest.skip(f"kernel backend {kernel_backend} unavailable")
        cfg = dict(kernel_backend=kernel_backend)
        dt, intervals = 4e-3, 2
        block = block_sim(
            plummer_small.copy(), plan_name, dt=dt, n_rungs=3, **cfg
        )
        n_steps = intervals * block.block_schedule.n_substeps
        evaluated = plummer_small.n  # bootstrap pass sees every body
        for _ in range(n_steps):
            bd = block.step()
            if bd is not None:
                evaluated += bd.meta.get("active_bodies", plummer_small.n)

        fixed_name = "i" if plan_name == "block-i" else "jw"
        fixed = Simulation(
            plummer_small.copy(), fixed_name,
            dt=dt / block.block_schedule.n_substeps,
            plan_config=PlanConfig(softening=EPS, **cfg),
        )
        fixed.run(n_steps)

        tol = PP_CROSS_PLAN if plan_name == "block-i" else TREE_CROSS_PLAN
        assert_within(
            fixed.particles.positions,
            block.particles.positions,
            tol,
            context=f"{plan_name}/{kernel_backend} vs {fixed_name}@dt_min",
        )
        # fixed dt_min evaluates every body at every boundary (+bootstrap)
        assert evaluated < (n_steps + 1) * plummer_small.n

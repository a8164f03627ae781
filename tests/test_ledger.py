"""Durable run ledger: schema gate, round-trip, merge, session/serve wiring.

The ledger is an *observer*: the tests here assert both that it records
what happened (statuses, queue wait, slice latency, cache/dedup/retry
accounting) and that turning it on changes nothing about the physics —
batched results stay bit-identical to solo runs.
"""

from __future__ import annotations

import sqlite3

import numpy as np
import pytest

import repro
from repro import obs
from repro.errors import LedgerError
from repro.config import resolve
from repro.obs.ledger import LEDGER_NAME, LEDGER_VERSION, RunLedger, default_ledger
from repro.runtime import RunSession
from repro.serve import JobService

from tests.conftest import Interrupt, interrupt_at, make_sim, small_spec, solo_state


# ---------------------------------------------------------------------------
# RunLedger basics
# ---------------------------------------------------------------------------

class TestRunLedgerBasics:
    def test_directory_and_file_paths(self, tmp_path):
        by_dir = RunLedger(tmp_path / "led")
        assert by_dir.path == tmp_path / "led" / LEDGER_NAME
        by_dir.close()
        by_file = RunLedger(tmp_path / "custom.sqlite")
        assert by_file.path == tmp_path / "custom.sqlite"
        by_file.close()

    def test_round_trip_write_reopen_query(self, tmp_path):
        led = RunLedger(tmp_path)
        run_id = led.record_submitted(
            spec_hash="a" * 64, source="serve", workload="plummer",
            n=128, seed=1, plan="jw", dt=1e-3, steps=40,
        )
        led.record_started(run_id, backend="thread", checkpoint_dir="d")
        led.record_slice(run_id, seq=1, steps=8, wall_s=0.5)
        led.record_slice(run_id, seq=2, steps=8, wall_s=1.5)
        led.record_event("checkpoint", "ckpt_00000008", run_id=run_id)
        led.record_finished(
            run_id, status="complete", wall_s=2.0, simulated_s=0.04,
            force_passes=41, retries=1, metrics={"k": 2},
        )
        led.close()

        led = RunLedger(tmp_path)  # reopen the same database
        assert led.user_version == LEDGER_VERSION
        assert len(led) == 1
        row = led.run(run_id)
        assert row["status"] == "complete"
        assert row["spec_hash"] == "a" * 64
        assert row["backend"] == "thread"
        assert row["retries"] == 1
        assert row["queue_wait_s"] >= 0.0
        assert '"k": 2' in row["metrics_json"]
        assert [s["steps"] for s in led.slices(run_id)] == [8, 8]
        assert [e["kind"] for e in led.events(run_id)] == ["checkpoint"]
        lat = led.slice_latency(run_id=run_id)
        assert lat["count"] == 2 and lat["p50"] == pytest.approx(1.0)
        (job,) = led.job_table()
        assert job["steps_done"] == 16 and job["slices"] == 2
        (plan_row,) = led.plan_table()
        assert plan_row["plan"] == "jw" and plan_row["complete"] == 1
        led.close()

    def test_filters(self, tmp_path):
        led = RunLedger(tmp_path)
        a = led.record_submitted(plan="i", spec_hash="aa")
        led.record_finished(a, status="failed", error="boom")
        led.record_submitted(plan="j", spec_hash="bb")
        assert [r["plan"] for r in led.runs(status="failed")] == ["i"]
        assert [r["plan"] for r in led.runs(spec_hash="bb")] == ["j"]
        assert [r["plan"] for r in led.runs(plan="j")] == ["j"]
        led.close()

    def test_unversioned_database_refused(self, tmp_path):
        db = tmp_path / "stray.sqlite"
        conn = sqlite3.connect(db)
        conn.execute("CREATE TABLE runs (x INTEGER)")
        conn.commit()
        conn.close()
        with pytest.raises(LedgerError, match="unversioned"):
            RunLedger(db)

    def test_schema_version_drift_refused(self, tmp_path):
        led = RunLedger(tmp_path)
        led.close()
        conn = sqlite3.connect(tmp_path / LEDGER_NAME)
        conn.execute(f"PRAGMA user_version = {LEDGER_VERSION + 1}")
        conn.commit()
        conn.close()
        with pytest.raises(LedgerError, match="schema"):
            RunLedger(tmp_path)

    def test_unknown_columns_rejected(self, tmp_path):
        with RunLedger(tmp_path) as led:
            with pytest.raises(LedgerError, match="unknown run fields"):
                led.record_submitted(nonsense=1)
            run_id = led.record_submitted(plan="i")
            with pytest.raises(LedgerError, match="unknown run fields"):
                led.record_finished(run_id, status="complete", nonsense=1)
            with pytest.raises(LedgerError, match="status"):
                led.record_finished(run_id, status="exploded")

    def test_closed_ledger_raises(self, tmp_path):
        led = RunLedger(tmp_path)
        led.close()
        led.close()  # idempotent
        with pytest.raises(LedgerError, match="closed"):
            led.record_submitted(plan="i")

    def test_bump_dedup(self, tmp_path):
        with RunLedger(tmp_path) as led:
            run_id = led.record_submitted(plan="i")
            led.bump_dedup(run_id)
            led.bump_dedup(run_id)
            assert led.run(run_id)["dedup_count"] == 2


class TestMigrations:
    def _make_old(self, path, *, version):
        """An old-schema database: current schema minus later columns.

        v1 (PR-6 era) lacks ``shard`` and ``tenant``; v2 (PR-7 era)
        lacks only ``tenant``.
        """
        from repro.obs.ledger import _SCHEMA

        dropped = {"tenant"} if version >= 2 else {"shard", "tenant"}
        old_schema = "\n".join(
            line for line in _SCHEMA.splitlines()
            if line.strip().split(" ")[0] not in dropped
        )
        conn = sqlite3.connect(path)
        conn.executescript(old_schema)
        conn.execute(
            "INSERT INTO runs (spec_hash, source, plan, status) "
            "VALUES ('c0ffee', 'serve', 'jw', 'complete')"
        )
        conn.execute(f"PRAGMA user_version = {version}")
        conn.commit()
        conn.close()

    def _make_v1(self, path):
        self._make_old(path, version=1)

    def test_v1_database_migrates_in_place(self, tmp_path):
        db = tmp_path / "old.sqlite"
        self._make_v1(db)
        with RunLedger(db) as led:
            assert led.user_version == LEDGER_VERSION == 3
            (row,) = led.runs()
            assert row["shard"] is None  # pre-shard rows survive unlabeled
            assert row["plan"] == "jw"
            # The migrated database accepts shard-stamped rows.
            run_id = led.record_submitted(plan="i", shard="shard-a")
            assert led.run(run_id)["shard"] == "shard-a"
        # Reopening after migration is a no-op.
        with RunLedger(db) as led:
            assert led.user_version == LEDGER_VERSION

    def test_v1_shard_merges_into_v2_database(self, tmp_path):
        old = tmp_path / "old.sqlite"
        self._make_v1(old)
        with RunLedger(tmp_path / "merged.sqlite") as merged:
            merged.record_submitted(plan="j", shard="shard-b")
            assert merged.merge(old) == 1
            shards = {r["shard"] for r in merged.runs()}
            assert shards == {None, "shard-b"}

    def test_v2_database_migrates_to_v3(self, tmp_path):
        db = tmp_path / "v2.sqlite"
        self._make_old(db, version=2)
        with RunLedger(db) as led:
            assert led.user_version == LEDGER_VERSION == 3
            (row,) = led.runs()
            assert row["tenant"] is None  # pre-tenant rows survive unlabeled
            # The migrated database accepts tenant-stamped rows.
            run_id = led.record_submitted(plan="i", tenant="acme")
            assert led.run(run_id)["tenant"] == "acme"
        with RunLedger(db) as led:  # reopening is a no-op
            assert led.user_version == LEDGER_VERSION


class TestShardAccounting:
    def test_shard_filter_and_table(self, tmp_path):
        with RunLedger(tmp_path) as led:
            for shard, plan in (("a", "i"), ("a", "j"), ("b", "jw")):
                run_id = led.record_submitted(plan=plan, shard=shard, steps=4)
                led.record_finished(run_id, status="complete", wall_s=1.0)
            unlabeled = led.record_submitted(plan="w")
            led.record_finished(unlabeled, status="failed", error="boom")

            assert len(led.runs(shard="a")) == 2
            assert [r["plan"] for r in led.runs(shard="b")] == ["jw"]
            table = {row["shard"]: row for row in led.shard_table()}
            assert set(table) == {"a", "b", None}
            assert table["a"]["runs"] == 2 and table["a"]["complete"] == 2
            assert table["b"]["runs"] == 1
            assert table[None]["failed"] == 1

    def test_counts(self, tmp_path):
        with RunLedger(tmp_path) as led:
            run_id = led.record_submitted(plan="i")
            led.record_slice(run_id, seq=1, steps=4, wall_s=0.1)
            led.record_slice(run_id, seq=2, steps=4, wall_s=0.1)
            led.record_event("checkpoint", run_id=run_id)
            led.record_event("coord.submit", "deadbeef")
            assert led.counts() == {"runs": 1, "slices": 2, "events": 2}

    def test_serve_stamps_shard_on_rows(self, tmp_path):
        with RunLedger(tmp_path / "led") as ledger:
            svc = JobService(
                cache_dir=tmp_path / "cache", ledger=ledger, shard="shard-x",
            )
            try:
                svc.run(small_spec())
            finally:
                svc.close()
            rows = ledger.runs()
            assert rows and all(r["shard"] == "shard-x" for r in rows)


class TestMerge:
    def test_merge_remaps_run_ids(self, tmp_path):
        a = RunLedger(tmp_path / "a")
        b = RunLedger(tmp_path / "b")
        for led, plan in ((a, "i"), (b, "j")):
            run_id = led.record_submitted(plan=plan, spec_hash=plan * 4)
            led.record_slice(run_id, seq=1, steps=4, wall_s=0.1)
            led.record_event("checkpoint", "c", run_id=run_id)
            led.record_finished(run_id, status="complete", wall_s=0.2)
        b.record_event("command", "repro-nbody serve")  # run-less event
        assert a.merge(b) == 1
        assert len(a) == 2
        merged = a.runs(plan="j")[0]
        assert merged["run_id"] != b.runs()[0]["run_id"] or len(a.runs()) == 2
        assert [s["steps"] for s in a.slices(merged["run_id"])] == [4]
        kinds = [e["kind"] for e in a.events()]
        assert kinds.count("checkpoint") == 2 and "command" in kinds
        a.close()
        b.close()

    def test_merge_accepts_path(self, tmp_path):
        b = RunLedger(tmp_path / "b")
        b.record_submitted(plan="w")
        b.close()
        with RunLedger(tmp_path / "a") as a:
            assert a.merge(tmp_path / "b") == 1
            assert a.runs(plan="w")


# ---------------------------------------------------------------------------
# Settings precedence
# ---------------------------------------------------------------------------

class TestLedgerSettings:
    def test_off_by_default(self):
        assert resolve("ledger_dir") is None
        assert default_ledger() is None

    def test_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "env"))
        assert resolve("ledger_dir") == str(tmp_path / "env")
        led = default_ledger()
        assert led is not None and led.path.parent == tmp_path / "env"

    def test_configure_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "env"))
        repro.configure(ledger_dir=str(tmp_path / "cfg"))
        assert resolve("ledger_dir") == str(tmp_path / "cfg")
        assert default_ledger().path.parent == tmp_path / "cfg"

    def test_default_ledger_is_shared(self, tmp_path):
        repro.configure(ledger_dir=str(tmp_path))
        assert default_ledger() is default_ledger()


# ---------------------------------------------------------------------------
# RunSession wiring
# ---------------------------------------------------------------------------

class TestSessionLedger:
    def test_solo_run_recorded(self, tmp_path):
        led = RunLedger(tmp_path / "led")
        session = RunSession(
            make_sim(n=48, plan_name="i"), tmp_path / "run",
            checkpoint_every=4, ledger=led,
        )
        session.run(10)
        (row,) = led.runs()
        assert row["source"] == "run" and row["status"] == "complete"
        assert row["plan"] == "i" and row["n"] == 48 and row["steps"] == 10
        assert row["simulated_s"] > 0
        assert row["wall_s"] > 0
        assert sum(s["steps"] for s in led.slices(row["run_id"])) == 10
        kinds = [e["kind"] for e in led.events(row["run_id"])]
        assert "checkpoint" in kinds
        led.close()

    def test_records_the_engine_backend(self, tmp_path):
        from repro.exec import ExecutionEngine, get_default_engine

        led = RunLedger(tmp_path / "led")
        with ExecutionEngine(1) as serial, ExecutionEngine(2) as thread:
            for i, engine in enumerate((serial, thread, None)):
                RunSession(
                    make_sim(n=48, engine=engine), tmp_path / f"run{i}",
                    ledger=led,
                ).run(2)
        assert [row["backend"] for row in led.runs()] == [
            "serial", "thread", get_default_engine().effective_backend,
        ]
        led.close()

    def test_failure_recorded(self, tmp_path):
        led = RunLedger(tmp_path / "led")
        session = RunSession(make_sim(n=48), tmp_path / "run", ledger=led)
        with pytest.raises(Interrupt):
            session.run(10, callback=interrupt_at(3))
        (row,) = led.runs()
        assert row["status"] == "failed"
        assert "Interrupt" in row["error"]
        led.close()

    def test_resume_tagged_as_resume(self, tmp_path):
        led = RunLedger(tmp_path / "led")
        session = RunSession(
            make_sim(n=48), tmp_path / "run", checkpoint_every=2, ledger=led
        )
        with pytest.raises(Interrupt):
            session.run(10, callback=interrupt_at(5))
        resumed = RunSession.resume(tmp_path / "run", ledger=led)
        resumed.run()
        rows = led.runs()
        assert [r["source"] for r in rows] == ["run", "resume"]
        assert rows[1]["status"] == "complete"
        led.close()

    def test_ledger_false_opts_out(self, tmp_path):
        repro.configure(ledger_dir=str(tmp_path / "led"))
        session = RunSession(make_sim(n=48), tmp_path / "run", ledger=False)
        session.run(3)
        assert session.ledger is None
        assert len(RunLedger(tmp_path / "led")) == 0


# ---------------------------------------------------------------------------
# Serve wiring: the acceptance scenario
# ---------------------------------------------------------------------------

class TestServeLedger:
    def _specs(self):
        return [
            small_spec(plan="i", seed=1),
            small_spec(plan="j", seed=2),
            small_spec(plan="jw", seed=3),
        ]

    def test_batched_jobs_fully_accounted(self, tmp_path):
        led = RunLedger(tmp_path / "led")
        specs = self._specs()
        with JobService(
            cache_dir=tmp_path / "cache", max_concurrent_jobs=2,
            steps_per_slice=2, ledger=led,
        ) as svc:
            handles = svc.submit_many(specs)
            dup = svc.submit(specs[0])          # coalesces
            assert dup is handles[0]
            for h in handles:
                h.result(timeout=120)
        # one more service: answered from cache, recorded as such
        with JobService(cache_dir=tmp_path / "cache", ledger=led) as svc2:
            assert svc2.submit(specs[1]).result(timeout=30).from_cache

        rows = led.job_table()
        assert len(rows) == 4
        by_status = {}
        for r in rows:
            by_status.setdefault(r["status"], []).append(r)
        assert len(by_status["complete"]) == 3
        assert len(by_status["cached"]) == 1
        for r in by_status["complete"]:
            assert r["source"] == "serve"
            assert r["spec_hash"] and r["backend"] == "thread"
            assert r["queue_wait_s"] is not None and r["queue_wait_s"] >= 0
            assert r["steps_done"] == r["steps"]
            assert r["slice_p50_s"] > 0 and r["slice_p99_s"] >= r["slice_p50_s"]
            assert r["retries"] == 0
            assert r["metrics_json"] is not None
        assert by_status["complete"][0]["dedup_count"] == 1
        cached_row = by_status["cached"][0]
        assert cached_row["from_cache"] == 1
        kinds = [e["kind"] for e in led.events()]
        assert "dedup" in kinds and "cache_hit" in kinds
        led.close()

    def test_failed_job_recorded(self, tmp_path):
        from repro.exec.faults import FaultInjector
        from repro.serve import SubmitOptions

        led = RunLedger(tmp_path / "led")
        with JobService(cache_dir=tmp_path / "cache", ledger=led) as svc:
            handle = svc.submit(
                small_spec(seed=8),
                options=SubmitOptions(
                    fault_injector=FaultInjector(
                        seed=1, task_failure_rate=1.0, fail_attempts=99
                    ),
                ),
            )
            handle.wait(timeout=120)
            assert handle.status == "failed"
        (row,) = led.runs()
        assert row["status"] == "failed" and row["error"]
        led.close()

    def test_batched_with_ledger_matches_solo(self, tmp_path):
        """The determinism gate: ledgering observes, never perturbs."""
        spec = small_spec(plan="jw", seed=9, steps=12)
        pos, vel, t = solo_state(spec)
        repro.configure(ledger_dir=str(tmp_path / "led"))
        with JobService(
            cache_dir=tmp_path / "cache", max_concurrent_jobs=2,
            steps_per_slice=3,
        ) as svc:
            assert svc.ledger is not None
            result = svc.submit(spec).result(timeout=120)
        assert np.array_equal(result.particles.positions, pos)
        assert np.array_equal(result.particles.velocities, vel)
        assert result.time == t
        assert len(RunLedger(tmp_path / "led")) == 1

    def test_labeled_metrics_for_batched_jobs(self, tmp_path):
        """Per-plan timeseries appear under canonical labeled keys."""
        led = RunLedger(tmp_path / "led")
        with obs.capture() as (_, metrics):
            with JobService(
                cache_dir=tmp_path / "cache", steps_per_slice=2, ledger=led
            ) as svc:
                svc.submit(small_spec(plan="i", seed=4)).result(timeout=120)
                svc.submit(small_spec(plan="jw", seed=5)).result(timeout=120)
        snap = metrics.snapshot()
        for plan in ("i", "jw"):
            assert snap[f'serve.jobs_total{{plan="{plan}"}}']["value"] == 1
            assert snap[f'serve.slices_total{{plan="{plan}"}}']["value"] > 0
            assert snap[f'serve.slice_seconds{{plan="{plan}"}}']["count"] > 0
            assert snap[f'serve.queue_wait_seconds{{plan="{plan}"}}']["count"] == 1
        # the export is stable: same registry state, same bytes
        text1 = obs.export.prometheus_text(metrics)
        text2 = obs.export.prometheus_text(metrics)
        assert text1 == text2 and 'serve_slice_seconds{plan="i"' in text1
        led.close()

    def test_describe_reports_ledger_path(self, tmp_path):
        led = RunLedger(tmp_path / "led")
        with JobService(cache_dir=tmp_path / "cache", ledger=led) as svc:
            assert svc.describe()["ledger"] == str(led.path)
        with JobService(cache_dir=tmp_path / "cache", ledger=False) as svc:
            assert svc.describe()["ledger"] is None
        led.close()

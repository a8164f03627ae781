"""The serve tier's one job table: transitions, the one release, retention.

``JobService`` and ``Coordinator`` keep their jobs in a
:class:`~repro.serve.jobs.JobTable`.  The contracts under test: a record
finishes once and releases its tenant's slot once, status counts follow
every transition without a scan, only the last ``KEEP_FINISHED``
finished records stay addressable (older hashes raise
``UnknownJobError``), and both services answer ``status``/``wait`` from
the record in one status vocabulary.
"""

import sys
import threading
import time

import pytest

from repro.check.golden import state_digest
from repro.errors import JobCancelledError, QuotaError, ServeError, UnknownJobError
from repro.serve import Coordinator, FairJobQueue, JobService, Worker, connect, jobs
from repro.serve.jobs import JobRecord, JobTable, completed, failed
from tests.conftest import small_spec

pytestmark = pytest.mark.serve

_WAIT = 60.0


def _hash(i):
    return f"{i:064x}"


def _poll(predicate, timeout=_WAIT, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestJobTable:
    def test_keeps_the_last_finished_and_releases_once(self, monkeypatch):
        monkeypatch.setattr(jobs, "KEEP_FINISHED", 4)
        queue = FairJobQueue(capacity=64, tenants={"capped": {"max_inflight": 1}})
        table = JobTable(queue)
        records = []
        for i in range(10):
            record = JobRecord(_hash(i), "capped")
            table.admit(record, i)
            assert queue.pop(timeout=0) == i
            table.set_status(record, "running")
            assert table.finish(record, status="complete", steps=i)
            records.append(record)
        assert [r for r in records if table.get(r.spec_hash) is r] == records[-4:]
        assert table.get(records[0].spec_hash) is None
        with pytest.raises(UnknownJobError, match="unknown job"):
            table.require(records[0].spec_hash)
        assert table.counts() == {"complete": 10}
        # The capped tenant's one slot is free: exactly one more push.
        table.admit(JobRecord(_hash(10), "capped"), 10)
        resolved = []
        again = table.finish(
            records[-1], status="failed", error={"error": "X", "message": ""},
            resolve=lambda: resolved.append(True),
        )
        assert again is False and resolved == []
        assert records[-1].status == "complete" and records[-1].steps == 9
        with pytest.raises(QuotaError, match="max_inflight"):
            table.admit(JobRecord(_hash(11), "capped"), 11)
        assert table.counts() == {"complete": 10, "queued": 1}

    def test_counts_follow_a_requeue(self):
        queue = FairJobQueue(capacity=8)
        table = JobTable(queue)
        record = JobRecord(_hash(1), "t")
        record.work = "spec"
        table.admit(record, record)
        assert table.counts() == {"queued": 1}
        assert queue.pop(timeout=0) is record
        table.set_status(record, "running")
        assert table.counts() == {"running": 1}
        table.requeue(record, record)
        assert table.counts() == {"queued": 1}
        assert record.retries == 1 and len(queue) == 1
        assert table.live(record.spec_hash) is record
        assert queue.remove(lambda r: r is record) == [record]
        assert table.finish(record, **failed(JobCancelledError("cancelled")))
        assert table.counts() == {"cancelled": 1}
        assert record.work is None and record.done.is_set()
        assert record.error == {"error": "JobCancelledError", "message": "cancelled"}
        assert table.live(record.spec_hash) is None

    def test_concurrent_finishes_count_once_and_release_once(self):
        """Eight threads admit and start their own jobs, then every
        thread tries to finish every job: each finishes once, the counts
        stay exact and each slot is released once."""
        released = []

        class CountingQueue(FairJobQueue):
            def release(self, tenant):
                released.append(tenant)
                super().release(tenant)

        queue = CountingQueue(capacity=10_000)
        table = JobTable(queue)
        n_threads, per_thread = 8, 100
        records = [
            JobRecord(_hash(i), f"tenant-{i % 3}")
            for i in range(n_threads * per_thread)
        ]
        barrier = threading.Barrier(n_threads)
        wins = []

        def work(k):
            for record in records[k::n_threads]:
                table.admit(record, record)
                table.set_status(record, "running")
            barrier.wait()
            wins.extend(
                record for record in records
                if table.finish(record, status="complete")
            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(k,)) for k in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(r.spec_hash for r in wins) == [r.spec_hash for r in records]
        assert table.counts() == {"complete": len(records)}
        assert len(released) == len(records) and queue._inflight == {}

    def test_a_job_finishes_only_in_a_terminal_status(self):
        table = JobTable(FairJobQueue(capacity=8))
        record = JobRecord(_hash(2), "t")
        with pytest.raises(ServeError, match="cannot finish"):
            table.finish(record, status="done")
        assert record.status == "queued" and not record.done.is_set()

    def test_snapshot_is_json_safe_outcome_without_arrays(self, tmp_path):
        spec = small_spec(seed=3)
        with JobService(cache_dir=tmp_path, ledger=False) as svc:
            result = svc.run(spec, timeout=_WAIT)
        outcome = completed(result)
        assert outcome["state_sha256"] == state_digest(result.particles, result.time)
        record = JobRecord(spec.spec_hash(), "t")
        JobTable(FairJobQueue(capacity=8)).finish(record, **outcome)
        snap = record.snapshot()
        assert snap["status"] == "complete" and snap["steps"] == spec.steps
        assert all(
            value is None or isinstance(value, (str, int, float, bool, dict))
            for value in snap.values()
        )


class TestServiceRecords:
    def test_status_and_wait_answer_from_the_record(self, tmp_path):
        spec = small_spec(seed=11)
        with JobService(cache_dir=tmp_path, ledger=False) as svc:
            handle = svc.submit(spec)
            snap = svc.wait(handle.spec_hash, timeout=_WAIT)
            assert snap["status"] == "complete" and not snap["from_cache"]
            result = handle.result()
            assert snap["state_sha256"] == state_digest(result.particles, result.time)
            assert svc.status(handle.spec_hash) == snap
            hit = svc.submit(spec)
            assert hit.status == "complete" and hit.from_cache
            assert svc.status(spec.spec_hash())["state_sha256"] == snap["state_sha256"]
            assert svc.describe()["jobs"] == {"complete": 2}
            with pytest.raises(UnknownJobError):
                svc.status("feedfacedead")
            with pytest.raises(UnknownJobError):
                svc.wait("feedfacedead", timeout=0)

    def test_finished_records_are_bounded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(jobs, "KEEP_FINISHED", 2)
        specs = [small_spec(seed=20 + i) for i in range(3)]
        with JobService(cache_dir=tmp_path, ledger=False) as svc:
            first = svc.run(specs[0], timeout=_WAIT)
            digest = svc.status(specs[0].spec_hash())["state_sha256"]
            for spec in specs[1:]:
                svc.run(spec, timeout=_WAIT)
            with pytest.raises(UnknownJobError, match="resubmit"):
                svc.status(specs[0].spec_hash())
            again = svc.submit(specs[0])
            assert again.from_cache and again.result().steps == first.steps
            assert svc.status(specs[0].spec_hash())["state_sha256"] == digest
            # The hit's record is the newest kept; specs[1]'s went out.
            assert svc.jobs.get(specs[1].spec_hash()) is None
            assert svc.jobs.get(specs[2].spec_hash()) is not None


class TestCoordinatorRecords:
    def test_cancelled_while_queued_reads_cancelled(self, tmp_path):
        with Coordinator(cache_dir=tmp_path, ledger=False) as coord:
            with connect(coord.addr) as service:
                handle = service.submit(small_spec(seed=30))
                assert service.cancel(handle.spec_hash) is True
                snap = service.status(handle.spec_hash)
                assert snap["status"] == "cancelled"
                assert snap["error"]["error"] == "JobCancelledError"
                assert coord.describe()["jobs"] == {"cancelled": 1}
                with pytest.raises(UnknownJobError):
                    service.status("feedfacedead")
                with pytest.raises(UnknownJobError):
                    service.wait("feedfacedead", timeout=1)

    def test_evicted_remote_handle_raises_unknown_job(self, tmp_path, monkeypatch):
        monkeypatch.setattr(jobs, "KEEP_FINISHED", 2)
        specs = [small_spec(seed=40 + i) for i in range(3)]
        with Coordinator(cache_dir=tmp_path, ledger=False) as coord:
            with Worker(coord.addr, "shard-e", cache_dir=tmp_path, ledger=False):
                with connect(coord.addr) as service:
                    handle = service.submit(specs[0])
                    first = service.wait(handle.spec_hash, timeout=_WAIT)
                    assert first["status"] == "complete"
                    for spec in specs[1:]:
                        service.run(spec, timeout=_WAIT)
                    outcome = {}

                    def result():
                        try:
                            handle.result(timeout=_WAIT)
                        except Exception as exc:  # noqa: BLE001 - asserted below
                            outcome["error"] = exc

                    waiter = threading.Thread(target=result, daemon=True)
                    waiter.start()
                    waiter.join(10.0)
                    assert not waiter.is_alive(), "result() hung on an evicted job"
                    assert isinstance(outcome.get("error"), UnknownJobError)
                    again = service.submit(specs[0])
                    assert again.status == "complete" and again.from_cache
                    assert again.record.state_sha256 == first["state_sha256"]

    def test_finished_connections_leave_no_threads(self, tmp_path):
        with Coordinator(cache_dir=tmp_path, ledger=False) as coord:
            for _ in range(50):
                with connect(coord.addr) as service:
                    service.describe()
            assert _poll(lambda: not coord._threads), coord._threads
            with connect(coord.addr) as service:
                service.describe()
                assert len(coord._threads) == 1
                assert all(t.is_alive() for t in coord._threads)

"""Tests for the distributed serve tier: coordinator, workers, merge.

The contracts under test:

1. the wire layer frames JSON messages, round-trips addresses, and
   reconstructs :mod:`repro.errors` classes client-side;
2. a coordinator plus N worker shards completes a batch with results
   **bit-identical** to solo runs (results travel as run-directory
   paths over the shared cache, never serialized state);
3. killing a worker mid-run requeues its claimed jobs (``retries``
   incremented) and a surviving shard resumes from the orphaned
   checkpoint — final state still bit-identical;
4. ``RunLedger.merge`` folds per-shard databases into one experiment
   database with remapped (collision-free) run ids and conserved
   run/slice/event counts;
5. :func:`repro.serve.connect` returns the service itself — a
   ``JobService`` in-process, a ``RemoteService`` against a coordinator,
   with the same verbs — and resolves the address through settings/env.
"""

import socket
import threading
import time
import warnings

import pytest

import repro
from repro.check import assert_bit_identical
from repro.errors import AdmissionError, CheckpointError, ServeError
from repro.obs.ledger import RunLedger
from repro.serve import (
    Coordinator,
    JobService,
    JobSpec,
    RemoteHandle,
    RemoteService,
    SubmitOptions,
    Worker,
    connect,
)
from repro.serve.wire import (
    decode_error,
    encode_error,
    format_addr,
    parse_addr,
    recv_msg,
    send_msg,
)
from tests.conftest import small_spec, solo_state

pytestmark = pytest.mark.serve

_WAIT = 60.0


def _poll(predicate, timeout=_WAIT, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# ---------------------------------------------------------------------------
# Wire protocol
# ---------------------------------------------------------------------------

class TestWire:
    def test_send_recv_roundtrip(self):
        a, b = socket.socketpair()
        try:
            msg = {"op": "submit", "spec": {"n": 128}, "nested": [1, 2, 3]}
            send_msg(a, msg)
            assert recv_msg(b) == msg
        finally:
            a.close()
            b.close()

    def test_clean_eof_is_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_msg(b) is None
        finally:
            b.close()

    def test_mid_message_eof_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"\x00\x00\x00\x10partial")
            a.close()
            with pytest.raises(ServeError, match="mid-message"):
                recv_msg(b)
        finally:
            b.close()

    def test_oversized_header_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"\xff\xff\xff\xff")
            with pytest.raises(ServeError, match="limit"):
                recv_msg(b)
        finally:
            a.close()
            b.close()

    def test_parse_addr(self):
        assert parse_addr("127.0.0.1:7464") == ("127.0.0.1", 7464)
        assert format_addr(("10.0.0.2", 80)) == "10.0.0.2:80"
        for bad in ("nocolon", ":7464", "host:notaport", "host:70000"):
            with pytest.raises(ServeError):
                parse_addr(bad)

    def test_error_codec_roundtrips_library_errors(self):
        rebuilt = decode_error(encode_error(AdmissionError("queue full")))
        assert isinstance(rebuilt, AdmissionError)
        assert "queue full" in str(rebuilt)
        rebuilt = decode_error(encode_error(CheckpointError("bad manifest")))
        assert isinstance(rebuilt, CheckpointError)

    def test_error_codec_foreign_class_becomes_serve_error(self):
        rebuilt = decode_error(encode_error(ValueError("boom")))
        assert isinstance(rebuilt, ServeError)
        assert "ValueError" in str(rebuilt) and "boom" in str(rebuilt)


# ---------------------------------------------------------------------------
# Coordinator + workers end-to-end
# ---------------------------------------------------------------------------

class TestDistributedBatch:
    def test_two_shards_complete_batch_bit_identical(self, tmp_path):
        specs = [
            small_spec(seed=s, plan=p)
            for s, p in [(1, "jw"), (2, "i"), (3, "w"), (4, "j")]
        ]
        with Coordinator(cache_dir=tmp_path, ledger=False) as coord:
            with (
                Worker(coord.addr, "shard-a", cache_dir=tmp_path, ledger=False),
                Worker(coord.addr, "shard-b", cache_dir=tmp_path, ledger=False),
            ):
                with connect(coord.addr) as service:
                    handles = [service.submit(spec) for spec in specs]
                    results = [h.result(timeout=_WAIT) for h in handles]
            for spec, result in zip(specs, results):
                pos, vel, sim_time = solo_state(spec)
                assert_bit_identical(pos, result.positions)
                assert_bit_identical(vel, result.velocities)
                assert result.time == sim_time
                assert not result.from_cache
            described = coord.describe()
            assert described["jobs"] == {"complete": len(specs)}
            assert described["workers"] == ["shard-a", "shard-b"]

    def test_completed_spec_is_cache_hit_for_every_shard(self, tmp_path):
        spec = small_spec(seed=9)
        with Coordinator(cache_dir=tmp_path, ledger=False) as coord:
            with Worker(coord.addr, "shard-a", cache_dir=tmp_path, ledger=False):
                with connect(coord.addr) as service:
                    first = service.run(spec, timeout=_WAIT)
                    again = service.run(spec, timeout=_WAIT)
            assert not first.from_cache
            assert again.from_cache
            assert coord.describe()["cache_hits"] == 1
            assert_bit_identical(first.positions, again.positions)

    def test_inflight_submissions_coalesce(self, tmp_path):
        spec = small_spec(seed=10, steps=30, checkpoint_every=5)
        with Coordinator(cache_dir=tmp_path, ledger=False) as coord:
            with connect(coord.addr) as service:
                h1 = service.submit(spec)
                h2 = service.submit(spec)
                assert h2.dedup_count == 1
                assert coord.describe()["deduped"] == 1
                # Only now let a worker pick the (single) queued job up.
                with Worker(
                    coord.addr, "shard-a", cache_dir=tmp_path, ledger=False
                ):
                    r1 = h1.result(timeout=_WAIT)
                    r2 = h2.result(timeout=_WAIT)
            assert_bit_identical(r1.positions, r2.positions)

    def test_queue_capacity_rejects_with_admission_error(self, tmp_path):
        with Coordinator(
            cache_dir=tmp_path, queue_capacity=1, ledger=False
        ) as coord:
            with connect(coord.addr) as service:
                service.submit(small_spec(seed=21))
                with pytest.raises(AdmissionError, match="full"):
                    service.submit(small_spec(seed=22))

    def test_engine_options_rejected_over_the_wire(self, tmp_path):
        from repro.exec import RetryPolicy

        with Coordinator(cache_dir=tmp_path, ledger=False) as coord:
            with connect(coord.addr) as service:
                with pytest.raises(ServeError, match="retry"):
                    service.submit(
                        small_spec(),
                        options=SubmitOptions(retry=RetryPolicy(max_retries=1)),
                    )


# ---------------------------------------------------------------------------
# Fault tolerance: kill a shard mid-run
# ---------------------------------------------------------------------------

class TestKillWorkerMidRun:
    def test_killed_shard_requeues_and_survivor_resumes_bit_identical(
        self, tmp_path
    ):
        spec = small_spec(n=96, seed=7, steps=40, checkpoint_every=5)
        spec_hash = spec.spec_hash()
        with Coordinator(cache_dir=tmp_path, ledger=False) as coord:
            w1 = Worker(
                coord.addr, "shard-a", cache_dir=tmp_path,
                ledger=False, steps_per_slice=2,
            ).start()
            with connect(coord.addr) as service:
                handle = service.submit(spec)
                # Wait until shard-a is mid-run with at least one
                # checkpoint on disk, then crash it.
                entry = coord.cache.entry_dir(spec)
                assert _poll(
                    lambda: coord.jobs.get(spec_hash).status == "running"
                    and any(entry.glob("ckpt_*"))
                ), "shard-a never started checkpointing"
                w1.kill()
                # The socket drop requeues the claimed job.
                assert _poll(
                    lambda: coord.jobs.get(spec_hash).status == "queued"
                ), "job was not requeued after worker loss"
                assert coord.jobs.get(spec_hash).retries == 1
                with Worker(
                    coord.addr, "shard-b", cache_dir=tmp_path, ledger=False
                ):
                    result = handle.result(timeout=_WAIT)
                # Bit-identical to an uninterrupted solo run: shard-b
                # resumed shard-a's orphan rather than starting over.
                pos, vel, sim_time = solo_state(spec)
                assert_bit_identical(pos, result.positions)
                assert_bit_identical(vel, result.velocities)
                assert result.time == sim_time
                assert result.steps == spec.steps
                # And the finished entry serves future submissions.
                again = service.run(spec, timeout=_WAIT)
                assert again.from_cache


# ---------------------------------------------------------------------------
# merge-shards: per-shard ledgers -> one experiment database
# ---------------------------------------------------------------------------

class TestMergeShards:
    def _run_sharded(self, tmp_path):
        """Run two specs on each of two shards, each with its own ledger."""
        ledgers = {
            "shard-a": tmp_path / "shard-a.sqlite",
            "shard-b": tmp_path / "shard-b.sqlite",
        }
        cache = tmp_path / "cache"
        for shard, path in ledgers.items():
            seeds = (1, 2) if shard == "shard-a" else (3, 4)
            with RunLedger(path) as ledger:
                with connect(
                    None, cache_dir=cache, ledger=ledger, shard=shard
                ) as service:
                    handles = [service.submit(small_spec(seed=s)) for s in seeds]
                    for handle in handles:
                        handle.result(timeout=_WAIT)
        return ledgers

    def test_merge_conserves_counts_and_remaps_run_ids(self, tmp_path):
        ledgers = self._run_sharded(tmp_path)
        per_shard = {}
        for shard, path in ledgers.items():
            with RunLedger(path) as ledger:
                per_shard[shard] = ledger.counts()
                assert all(
                    row["shard"] == shard for row in ledger.runs()
                )
        merged_path = tmp_path / "merged.sqlite"
        with RunLedger(merged_path) as merged:
            for path in ledgers.values():
                merged.merge(path)
            counts = merged.counts()
            for key in ("runs", "slices", "events"):
                assert counts[key] == sum(c[key] for c in per_shard.values())
            run_ids = [row["run_id"] for row in merged.runs()]
            assert len(run_ids) == len(set(run_ids)), "run-id collision"
            table = {row["shard"]: row for row in merged.shard_table()}
            assert set(table) == set(ledgers)
            for shard, row in table.items():
                assert row["runs"] == per_shard[shard]["runs"]
                assert row["complete"] == per_shard[shard]["runs"]

    def test_shard_filter_matches_source_ledger(self, tmp_path):
        ledgers = self._run_sharded(tmp_path)
        merged_path = tmp_path / "merged.sqlite"
        with RunLedger(merged_path) as merged:
            for path in ledgers.values():
                merged.merge(path)
            only_a = merged.runs(shard="shard-a")
            assert len(only_a) == 2
            assert all(row["shard"] == "shard-a" for row in only_a)


# ---------------------------------------------------------------------------
# connect(): the service itself, on either transport
# ---------------------------------------------------------------------------

class TestConnect:
    def test_in_process_by_default(self, tmp_path):
        with connect(cache_dir=tmp_path) as service:
            assert isinstance(service, JobService)
            result = service.run(small_spec())
        pos, _vel, _t = solo_state(small_spec())
        assert_bit_identical(pos, result.positions)

    def test_remote_parity_with_in_process(self, tmp_path):
        spec = small_spec(seed=5)
        with connect(None, cache_dir=tmp_path / "local") as service:
            local = service.run(spec)
        with Coordinator(cache_dir=tmp_path / "shared", ledger=False) as coord:
            with Worker(
                coord.addr, "shard-a",
                cache_dir=tmp_path / "shared", ledger=False,
            ):
                with connect(coord.addr) as service:
                    assert isinstance(service, RemoteService)
                    handle = service.submit(spec)
                    assert isinstance(handle, RemoteHandle)
                    remote = handle.result(timeout=_WAIT)
        assert_bit_identical(local.positions, remote.positions)
        assert_bit_identical(local.velocities, remote.velocities)
        assert local.time == remote.time

    def test_service_kwargs_rejected_for_remote(self, tmp_path):
        with Coordinator(cache_dir=tmp_path, ledger=False) as coord:
            with pytest.raises(ServeError, match="max_concurrent_jobs"):
                connect(coord.addr, max_concurrent_jobs=4)

    def test_addr_resolves_through_configure_and_env(
        self, tmp_path, monkeypatch
    ):
        with Coordinator(cache_dir=tmp_path, ledger=False) as coord:
            monkeypatch.setenv("REPRO_SERVE_ADDR", coord.addr)
            with connect() as service:
                assert isinstance(service, RemoteService)
                assert service.addr == coord.addr
            # configure() beats the environment...
            repro.configure(serve_addr=coord.addr)
            monkeypatch.setenv("REPRO_SERVE_ADDR", "203.0.113.1:1")
            with connect() as service:
                assert service.addr == coord.addr
            # ...and an explicit None beats both (forces in-process).
            with connect(None, cache_dir=tmp_path) as service:
                assert isinstance(service, JobService)

    def test_shutdown_rpc_stops_coordinator(self, tmp_path):
        coord = Coordinator(cache_dir=tmp_path, ledger=False).start()
        remote = RemoteService(coord.addr)
        try:
            remote.shutdown()
            assert coord.join(timeout=_WAIT)
            assert coord.describe()["closed"]
        finally:
            remote.close()
            coord.stop()


class TestWaitTimeout:
    """A wait's timeout is ``None`` or a finite number >= 0 on the wire too;
    each call is bounded here so a wait that never ends fails the test."""

    BAD = [float("nan"), float("inf"), -1.0]

    @staticmethod
    def _bounded(call, seconds=3.0):
        outcome = {}

        def run():
            try:
                outcome["value"] = call()
            except Exception as exc:  # noqa: BLE001 - reported below
                outcome["error"] = exc

        t = threading.Thread(target=run, daemon=True)
        t.start()
        t.join(seconds)
        assert not t.is_alive(), f"still waiting after {seconds}s"
        return outcome

    @pytest.mark.parametrize("timeout", BAD)
    def test_remote_handle_rejects_before_any_rpc(self, tmp_path, timeout):
        # No worker: the job stays queued, so only the timeout can end a wait.
        with Coordinator(cache_dir=tmp_path, ledger=False) as coord:
            with connect(coord.addr) as service:
                handle = service.submit(small_spec(seed=66))
                for call in (handle.wait, handle.result):
                    out = self._bounded(lambda: call(timeout=timeout))
                    assert isinstance(out.get("error"), ServeError), out
                    assert "timeout must be" in str(out["error"])

    @pytest.mark.parametrize("timeout", BAD)
    def test_coordinator_wait_op_rejects(self, tmp_path, timeout):
        with Coordinator(cache_dir=tmp_path, ledger=False) as coord:
            with connect(coord.addr) as service:
                spec_hash = service.submit(small_spec(seed=67)).spec_hash
            with socket.create_connection(parse_addr(coord.addr), timeout=3.0) as sock:
                send_msg(sock, {"op": "wait", "spec_hash": spec_hash, "timeout": timeout})
                reply = recv_msg(sock)
        assert reply["ok"] is False
        assert reply["error"] == "ServeError"
        assert "timeout must be" in reply["message"]


class TestTokenAuth:
    def test_token_mismatch_raises_clear_serve_error(self, tmp_path):
        with Coordinator(
            cache_dir=tmp_path, ledger=False, token="right"
        ) as coord:
            with connect(coord.addr, token="wrong") as service:
                with pytest.raises(ServeError, match="authentication failed"):
                    service.submit(small_spec(seed=60))

    def test_missing_token_rejected(self, tmp_path):
        with Coordinator(
            cache_dir=tmp_path, ledger=False, token="right"
        ) as coord:
            with connect(coord.addr) as service:
                with pytest.raises(ServeError, match="REPRO_SERVE_TOKEN"):
                    service.describe()

    def test_unauthenticated_shutdown_refused(self, tmp_path):
        with Coordinator(
            cache_dir=tmp_path, ledger=False, token="right"
        ) as coord:
            remote = RemoteService(coord.addr, token="wrong")
            try:
                with pytest.raises(ServeError, match="authentication failed"):
                    remote.shutdown()
            finally:
                remote.close()
            assert not coord.join(timeout=0.2)  # still running

    def test_matching_token_full_round_trip(self, tmp_path):
        spec = small_spec(seed=61)
        with Coordinator(
            cache_dir=tmp_path, ledger=False, token="s3cret"
        ) as coord:
            with Worker(
                coord.addr, "auth-shard", cache_dir=tmp_path, ledger=False,
                token="s3cret",
            ):
                with connect(coord.addr, token="s3cret") as service:
                    result = service.run(spec, timeout=120)
        pos, _vel, _time = solo_state(spec)
        assert_bit_identical(result.positions, pos)

    def test_token_resolves_through_settings_chain(self, tmp_path):
        repro.configure(serve_token="from-config")
        with Coordinator(cache_dir=tmp_path, ledger=False) as coord:
            assert coord.token == "from-config"
            # connect() with no explicit token picks it up too.
            with connect(coord.addr) as service:
                service.describe()  # authenticates successfully

    def test_no_token_disables_auth(self, tmp_path):
        with Coordinator(cache_dir=tmp_path, ledger=False) as coord:
            with connect(coord.addr) as service:
                service.describe()


class TestRemoteCancel:
    def test_cancel_queued_job_over_the_wire(self, tmp_path):
        # No worker connected: everything stays queued and cancellable.
        with Coordinator(cache_dir=tmp_path, ledger=False) as coord:
            with connect(coord.addr) as service:
                handle = service.submit(small_spec(seed=62))
                assert service.cancel(handle.spec_hash) is True
                from repro.errors import JobCancelledError

                with pytest.raises(JobCancelledError):
                    handle.result(timeout=10)
                assert handle.status == "cancelled"
                assert service.describe()["cancelled"] == 1

    def test_cancel_done_job_reports_false(self, tmp_path):
        spec = small_spec(seed=63)
        with Coordinator(cache_dir=tmp_path, ledger=False) as coord:
            with Worker(
                coord.addr, "cancel-shard", cache_dir=tmp_path, ledger=False
            ):
                with connect(coord.addr) as service:
                    handle = service.submit(spec)
                    handle.result(timeout=120)
                    assert service.cancel(handle.spec_hash) is False


class TestTenantOverWire:
    def test_tenant_reaches_worker_ledger(self, tmp_path):
        """The tenant label survives coordinator -> worker -> ledger."""
        spec = small_spec(seed=64)
        ledger_dir = tmp_path / "ledger"
        with Coordinator(
            cache_dir=tmp_path / "cache", ledger=False
        ) as coord:
            with Worker(
                coord.addr, "tenant-shard", cache_dir=tmp_path / "cache",
                ledger=RunLedger(ledger_dir),
            ) as worker:
                with connect(coord.addr) as service:
                    handle = service.submit(
                        spec, options=SubmitOptions(tenant="acme")
                    )
                    handle.result(timeout=120)
                worker.service.close(drain=True)
        with RunLedger(ledger_dir) as led:
            rows = led.runs(tenant="acme")
            assert len(rows) == 1
            assert rows[0]["tenant"] == "acme"
            table = led.tenant_table()
            assert [row["tenant"] for row in table] == ["acme"]

    def test_coordinator_assigns_tenants_by_weight(self, tmp_path):
        """A 4:1 weight gives the 4:1 share of the coordinator's dispatch.

        The whole interleaved backlog is queued before any worker
        connects, so the coordinator's ``assign`` events are its pop
        order.
        """
        tenant_of = {}
        handles = []
        with RunLedger(tmp_path / "coord-ledger") as ledger:
            with Coordinator(
                cache_dir=tmp_path / "cache", ledger=ledger,
                tenants={"a": {"weight": 4.0}, "b": {"weight": 1.0}},
            ) as coord:
                with connect(coord.addr) as service:
                    for i in range(8):
                        for tenant in ("a", "b"):
                            spec = small_spec(
                                seed=200 + 2 * i + (tenant == "b"), steps=2
                            )
                            tenant_of[spec.spec_hash()[:12]] = tenant
                            handles.append(service.submit(
                                spec, options=SubmitOptions(tenant=tenant)
                            ))
                    with Worker(
                        coord.addr, "shard-a", cache_dir=tmp_path / "cache",
                        ledger=False, max_concurrent_jobs=1,
                    ):
                        for handle in handles:
                            handle.result(timeout=_WAIT)
            assigned = [
                tenant_of[event["detail"].split(" -> ")[0]]
                for event in ledger.events()
                if event["kind"] == "coord.assign"
            ]
        assert len(assigned) == 16
        first_ten = assigned[:10]
        assert first_ten.count("a") == 8
        assert first_ten.count("b") == 2

    def test_coordinator_quota_rejects_over_wire(self, tmp_path):
        from repro.errors import QuotaError

        with Coordinator(
            cache_dir=tmp_path, ledger=False,
            tenants={"capped": {"max_queued": 1}},
        ) as coord:
            with connect(coord.addr) as service:
                service.submit(
                    small_spec(seed=65), options=SubmitOptions(tenant="capped")
                )
                with pytest.raises(QuotaError, match="max_queued"):
                    service.submit(
                        small_spec(seed=66),
                        options=SubmitOptions(tenant="capped"),
                    )

    def test_coordinator_max_inflight_rejects_and_cancel_frees_the_slot(
        self, tmp_path
    ):
        """No worker: a capped tenant's first job stays queued and holds
        the tenant's one slot until it is cancelled."""
        from repro.errors import JobCancelledError, QuotaError

        capped = SubmitOptions(tenant="capped")
        with Coordinator(
            cache_dir=tmp_path, ledger=False,
            tenants={"capped": {"max_inflight": 1}},
        ) as coord:
            with connect(coord.addr) as service:
                first = service.submit(small_spec(seed=68), options=capped)
                with pytest.raises(QuotaError, match="max_inflight"):
                    service.submit(small_spec(seed=69), options=capped)
                service.submit(small_spec(seed=69))  # other tenants admit
                assert service.cancel(first.spec_hash) is True
                with pytest.raises(JobCancelledError):
                    first.result(timeout=10)
                second = service.submit(small_spec(seed=70), options=capped)
                assert second.status == "queued"
                with pytest.raises(QuotaError, match="max_inflight"):
                    service.submit(small_spec(seed=71), options=capped)

    def test_coordinator_done_job_frees_its_inflight_slot(self, tmp_path):
        capped = SubmitOptions(tenant="capped")
        with Coordinator(
            cache_dir=tmp_path, ledger=False,
            tenants={"capped": {"max_inflight": 1}},
        ) as coord:
            with Worker(coord.addr, "shard-a", cache_dir=tmp_path, ledger=False):
                with connect(coord.addr) as service:
                    service.run(small_spec(seed=72), options=capped, timeout=_WAIT)
                    again = service.run(
                        small_spec(seed=73), options=capped, timeout=_WAIT
                    )
        assert again.steps == small_spec().steps


class TestConstruction:
    def test_connect_and_worker_do_not_warn(self, tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with connect(None, cache_dir=tmp_path):
                pass
            with Coordinator(cache_dir=tmp_path, ledger=False) as coord:
                Worker(
                    coord.addr, "quiet", cache_dir=tmp_path, ledger=False
                ).service.close()
        assert not [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]

    def test_leaving_with_closes_only_what_connect_opened(self, tmp_path):
        with connect(None, cache_dir=tmp_path / "local") as local:
            local.run(small_spec(seed=6))
        assert local.describe()["closed"]
        with Coordinator(cache_dir=tmp_path, ledger=False) as coord:
            with connect(coord.addr) as remote:
                remote.describe()
            with pytest.raises(ServeError, match="closed"):
                remote.describe()
            # The coordinator itself keeps serving other connections.
            with connect(coord.addr) as again:
                assert not again.describe()["closed"]

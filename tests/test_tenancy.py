"""Multi-tenant fair scheduling: FairJobQueue, quotas, aging, cancel.

Everything here is deterministic by construction — the queue's decisions
depend only on the submission/pop sequence (pop count is the aging
clock), never wall time, so each assertion is exact, not statistical.
"""

import threading

import pytest

from tests.conftest import small_spec, solo_state

import numpy as np

from repro.errors import (
    AdmissionError,
    JobCancelledError,
    QuotaError,
    ServeError,
)
from repro.serve import DEFAULT_TENANT, FairJobQueue, TenantPolicy, connect
from repro.serve.options import SubmitOptions


def drain(queue, count=None):
    out = []
    while count is None or len(out) < count:
        entry = queue.pop_nowait()
        if entry is None:
            break
        out.append(entry)
    return out


class TestTenantPolicy:
    def test_defaults_are_unbounded_weight_one(self):
        policy = TenantPolicy()
        assert policy.weight == 1.0
        assert policy.max_queued is None
        assert policy.max_inflight is None

    @pytest.mark.parametrize("bad", [0, -1.0])
    def test_nonpositive_weight_rejected(self, bad):
        with pytest.raises(ServeError, match="weight"):
            TenantPolicy(weight=bad)

    @pytest.mark.parametrize("field", ["max_queued", "max_inflight"])
    def test_zero_quota_rejected(self, field):
        with pytest.raises(ServeError, match=field):
            TenantPolicy(**{field: 0})


class TestWeightedFairness:
    def test_single_tenant_degrades_to_priority_fifo(self):
        q = FairJobQueue(capacity=16)
        q.push("low-a", priority=0)
        q.push("high", priority=5)
        q.push("low-b", priority=0)
        assert [e.item for e in drain(q)] == ["high", "low-a", "low-b"]

    def test_weight_four_gets_four_to_one_share(self):
        q = FairJobQueue(
            capacity=32,
            tenants={"fast": {"weight": 4.0}, "slow": {"weight": 1.0}},
        )
        for i in range(8):
            q.push(f"f{i}", tenant="fast")
        for i in range(8):
            q.push(f"s{i}", tenant="slow")
        first_ten = [e.tenant for e in drain(q, 10)]
        # 4:1 stride: in any 5-pop window under contention, fast pops 4.
        assert first_ten.count("fast") == 8
        assert first_ten.count("slow") == 2

    def test_burst_tenant_cannot_starve_other_tenant(self):
        """A 50-job burst from one tenant doesn't block a sibling's job."""
        q = FairJobQueue(capacity=64, tenants={"bursty": {"weight": 1.0}})
        for i in range(50):
            q.push(f"burst{i}", tenant="bursty")
        q.push("probe", tenant="victim")
        # Equal weights: the victim's lone job pops within the first two.
        popped = [e.item for e in drain(q, 2)]
        assert "probe" in popped

    def test_idle_tenant_starts_at_current_vtime(self):
        """An idle tenant earns no catch-up credit for time not queued."""
        q = FairJobQueue(capacity=64)
        for i in range(10):
            q.push(f"a{i}", tenant="alpha")
        drain(q, 10)  # alpha's pass is now well ahead of 0
        q.push("a-new", tenant="alpha")
        q.push("b-new", tenant="beta")
        # beta (fresh) starts at the vtime alpha reached — it pops first
        # on the name tie-break, but alpha pops second, not after some
        # imagined backlog of beta credit.
        assert {e.item for e in drain(q, 2)} == {"a-new", "b-new"}

    def test_determinism_same_sequence_same_order(self):
        def build():
            q = FairJobQueue(
                capacity=64,
                tenants={"x": {"weight": 3.0}, "y": {"weight": 1.0}},
            )
            for i in range(6):
                q.push(f"x{i}", tenant="x", priority=i % 2)
                q.push(f"y{i}", tenant="y", priority=(i + 1) % 3)
            return [e.item for e in drain(q)]

        assert build() == build()


class TestPriorityAging:
    def test_aged_bulk_job_eventually_runs(self):
        """A priority-0 job overtakes fresh priority-1 work via aging."""
        q = FairJobQueue(capacity=128, aging_every=2, age_max_boost=8)
        q.push("old-bulk", priority=0)
        # Keep feeding fresh priority-1 jobs; after 2 pops the bulk job's
        # effective priority reaches 1 and FIFO (older seq) breaks the tie.
        order = []
        for i in range(6):
            q.push(f"fresh{i}", priority=1)
            order.append(q.pop_nowait().item)
        assert "old-bulk" in order

    def test_age_boost_is_capped(self):
        """Aging can never permanently outrank fresh interactive work."""
        q = FairJobQueue(capacity=128, aging_every=1, age_max_boost=2)
        q.push("bulk", priority=0)
        # Burn pops so bulk's boost saturates at +2.
        for i in range(10):
            q.push(f"filler{i}", priority=5)
            q.pop_nowait()
        q.push("interactive", priority=5)
        assert q.pop_nowait().item == "interactive"

    def test_aging_clock_is_pop_count_not_time(self):
        q = FairJobQueue(capacity=16, aging_every=4)
        q.push("bulk", priority=0)
        # No pops happened: zero boost regardless of elapsed wall time.
        q.push("fresh", priority=1)
        assert q.pop_nowait().item == "fresh"


class TestQuotas:
    def test_max_queued_raises_quota_error_deterministically(self):
        q = FairJobQueue(capacity=64, tenants={"t": {"max_queued": 2}})
        q.push("a", tenant="t")
        q.push("b", tenant="t")
        with pytest.raises(QuotaError, match="max_queued") as exc_info:
            q.push("c", tenant="t")
        assert exc_info.value.tenant == "t"
        # QuotaError is an AdmissionError: existing backpressure handling
        # (CLI exit 3, gateway 429) applies unchanged.
        assert isinstance(exc_info.value, AdmissionError)
        # Deterministic: the same sequence sheds the same job again.
        with pytest.raises(QuotaError):
            q.push("c", tenant="t")
        # Other tenants are unaffected.
        q.push("x", tenant="other")

    def test_global_capacity_still_plain_admission_error(self):
        q = FairJobQueue(capacity=1)
        q.push("a")
        with pytest.raises(AdmissionError) as exc_info:
            q.push("b")
        assert not isinstance(exc_info.value, QuotaError)

    def test_force_push_bypasses_capacity_and_quota(self):
        """The coordinator's requeue path must never shed lost claims."""
        q = FairJobQueue(capacity=1, tenants={"t": {"max_queued": 1}})
        q.push("a", tenant="t")
        q.push("requeued", tenant="t", force=True)
        assert len(q) == 2

    def test_max_inflight_enforced_by_service(self, tmp_path):
        with connect(
            None,
            max_concurrent_jobs=1,
            cache_dir=tmp_path / "cache",
            ledger=False,
            tenants={"capped": {"max_inflight": 2}},
        ) as client:
            specs = [small_spec(seed=i, steps=20) for i in range(3)]
            client.submit(specs[0], options=SubmitOptions(tenant="capped"))
            client.submit(specs[1], options=SubmitOptions(tenant="capped"))
            with pytest.raises(QuotaError, match="max_inflight"):
                client.submit(specs[2], options=SubmitOptions(tenant="capped"))


class TestRemove:
    def test_remove_plucks_matching_items_only(self):
        q = FairJobQueue(capacity=16)
        for i in range(5):
            q.push(i, tenant="a" if i % 2 else "b")
        removed = q.remove(lambda item: item >= 3)
        assert sorted(removed) == [3, 4]
        assert sorted(e.item for e in drain(q)) == [0, 1, 2]

    def test_remove_preserves_fairness_state(self):
        q = FairJobQueue(
            capacity=32, tenants={"f": {"weight": 4.0}, "s": {"weight": 1.0}}
        )
        for i in range(4):
            q.push(f"f{i}", tenant="f")
            q.push(f"s{i}", tenant="s")
        q.remove(lambda item: item == "f0")
        tenants = [e.tenant for e in drain(q, 5)]
        assert tenants.count("f") == 3  # remaining fast jobs keep their share


class TestCancellation:
    def test_cancel_queued_job_raises_cancelled(self, tmp_path):
        with connect(
            None,
            max_concurrent_jobs=1,
            cache_dir=tmp_path / "cache",
            ledger=False,
        ) as client:
            blocker = client.submit(small_spec(seed=1, steps=30))
            queued = client.submit(small_spec(seed=2, steps=30))
            assert client.cancel(queued.spec_hash) is True
            with pytest.raises(JobCancelledError):
                queued.result(timeout=10)
            assert queued.status == "cancelled"
            blocker.result(timeout=60)

    def test_cancel_mid_slice_leaves_no_orphan_cache_claim(self, tmp_path):
        """A cancelled running job evicts its claim — nothing to adopt."""
        cache_dir = tmp_path / "cache"
        with connect(
            None,
            max_concurrent_jobs=1,
            steps_per_slice=1,
            cache_dir=cache_dir,
            ledger=False,
        ) as client:
            service = client.service
            spec = small_spec(seed=3, steps=400)
            handle = client.submit(spec)
            # Wait until it is actually running (first slice done).
            import time as _time
            deadline = _time.monotonic() + 30
            while handle.status != "running" and _time.monotonic() < deadline:
                _time.sleep(0.005)
            assert client.cancel(handle.spec_hash) is True
            with pytest.raises(JobCancelledError):
                handle.result(timeout=30)
            # The cache holds neither a completed entry nor a claim dir.
            assert service.cache.lookup(spec) is None
            assert not service.cache.entry_dir(spec).exists()

    def test_cancel_unknown_or_done_returns_false(self, tmp_path):
        with connect(
            None, cache_dir=tmp_path / "cache", ledger=False
        ) as client:
            handle = client.submit(small_spec(seed=4))
            handle.result(timeout=60)
            assert client.cancel(handle.spec_hash) is False
            assert client.cancel("no-such-hash") is False

    def test_cancelled_job_counts_in_describe(self, tmp_path):
        with connect(
            None,
            max_concurrent_jobs=1,
            cache_dir=tmp_path / "cache",
            ledger=False,
        ) as client:
            blocker = client.submit(small_spec(seed=5, steps=30))
            queued = client.submit(small_spec(seed=6, steps=30))
            client.cancel(queued.spec_hash)
            assert client.describe()["cancelled"] == 1
            blocker.result(timeout=60)


class TestFairServiceIntegration:
    def test_results_bit_identical_under_fair_scheduling(self, tmp_path):
        """Fairness reorders *scheduling*, never physics."""
        specs = [small_spec(seed=10 + i, steps=6) for i in range(4)]
        tenants = ["a", "b", "a", "b"]
        with connect(
            None,
            max_concurrent_jobs=2,
            cache_dir=tmp_path / "cache",
            ledger=False,
            tenants={"a": {"weight": 3.0}, "b": {"weight": 1.0}},
        ) as client:
            handles = [
                client.submit(s, options=SubmitOptions(tenant=t))
                for s, t in zip(specs, tenants)
            ]
            for handle, spec in zip(handles, specs):
                result = handle.result(timeout=120)
                pos, vel, time = solo_state(spec)
                np.testing.assert_array_equal(result.positions, pos)
                np.testing.assert_array_equal(result.velocities, vel)

    @pytest.mark.serve
    def test_service_runs_tenants_by_weight(self, tmp_path):
        """With one live slot, a 4:1 weight gives the 4:1 share of runs.

        A listener holds the blocker's first slice until the interleaved
        backlog is queued, so the order jobs finish in is the order the
        service admitted them, not a race with the submitting thread.
        """
        blocker = small_spec(seed=70, steps=16)
        queued, release = threading.Event(), threading.Event()
        finished = []

        def listen(event):
            if event["type"] == "finished":
                finished.append(event["tenant"])
            elif event["spec_hash"] == blocker.spec_hash() and not queued.is_set():
                queued.set()
                release.wait(timeout=60)

        with connect(
            None,
            max_concurrent_jobs=1,
            cache_dir=tmp_path / "cache",
            ledger=False,
            tenants={"a": {"weight": 4.0}, "b": {"weight": 1.0}},
        ) as client:
            client.service.add_slice_listener(listen)
            handles = [client.submit(blocker)]
            try:
                assert queued.wait(timeout=60)
                for i in range(8):
                    for tenant in ("a", "b"):
                        spec = small_spec(
                            seed=100 + 2 * i + (tenant == "b"), steps=2
                        )
                        handles.append(client.submit(
                            spec, options=SubmitOptions(tenant=tenant)
                        ))
            finally:
                release.set()
            for handle in handles:
                handle.result(timeout=120)
        assert finished[0] == DEFAULT_TENANT
        first_ten = finished[1:11]
        # the same 4:1 share test_weight_four_gets_four_to_one_share pops
        assert first_ten.count("a") == 8
        assert first_ten.count("b") == 2

    def test_default_tenant_label_applied(self, tmp_path):
        with connect(
            None, cache_dir=tmp_path / "cache", ledger=False
        ) as client:
            handle = client.submit(small_spec(seed=20))
            handle.result(timeout=60)
            assert handle.tenant == DEFAULT_TENANT

    def test_describe_reports_tenant_dimension(self, tmp_path):
        from repro.serve import validate_describe

        with connect(
            None,
            cache_dir=tmp_path / "cache",
            ledger=False,
            tenants={"vip": {"weight": 2.0, "max_queued": 9}},
        ) as client:
            doc = validate_describe(client.describe())
            assert doc["kind"] == "service"
            assert doc["tenants"]["vip"]["weight"] == 2.0
            assert doc["tenants"]["vip"]["max_queued"] == 9

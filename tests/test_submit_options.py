"""SubmitOptions: the one submission-tuning surface across every path.

The contract under test: (a) the dataclass validates and round-trips
its wire-safe subset as JSON; (b) every submit surface accepts
``options=`` without warnings; (c) per-call tuning keywords outside
``options=`` are rejected, not silently applied or dropped.
"""

import json
import warnings

import pytest

from tests.conftest import small_spec

from repro.errors import ServeError
from repro.exec.faults import FaultInjector, RetryPolicy
from repro.serve import SubmitOptions, connect


def deprecations(record):
    return [w for w in record if issubclass(w.category, DeprecationWarning)]


class TestDataclass:
    def test_defaults(self):
        opts = SubmitOptions()
        assert opts.priority == 0
        assert opts.tenant is None
        assert opts.retry is None
        assert opts.fault_injector is None
        assert opts.verify is None

    def test_frozen(self):
        with pytest.raises(AttributeError):
            SubmitOptions().priority = 3

    @pytest.mark.parametrize("bad", ["3", 1.5, True])
    def test_priority_must_be_int(self, bad):
        with pytest.raises(ServeError, match="priority"):
            SubmitOptions(priority=bad)

    @pytest.mark.parametrize("bad", ["", 7])
    def test_tenant_must_be_nonempty_string(self, bad):
        with pytest.raises(ServeError, match="tenant"):
            SubmitOptions(tenant=bad)

    def test_with_defaults_fills_only_missing_tenant(self):
        assert SubmitOptions().with_defaults(tenant="t").tenant == "t"
        assert (
            SubmitOptions(tenant="own").with_defaults(tenant="t").tenant
            == "own"
        )


class TestWireRoundTrip:
    def test_to_wire_omits_defaults(self):
        assert SubmitOptions().to_wire() == {}
        assert SubmitOptions(priority=2).to_wire() == {"priority": 2}

    def test_json_round_trip(self):
        opts = SubmitOptions(priority=-1, tenant="acme")
        payload = json.loads(json.dumps(opts.to_wire()))
        assert SubmitOptions.from_wire(payload) == opts

    def test_from_wire_rejects_unknown_keys(self):
        with pytest.raises(ServeError, match="unknown"):
            SubmitOptions.from_wire({"priority": 1, "nice": 19})

    def test_in_process_only_fields_refuse_the_wire(self):
        opts = SubmitOptions(retry=RetryPolicy(max_retries=1))
        assert not opts.wire_safe()
        with pytest.raises(ServeError, match="retry"):
            opts.to_wire()

    def test_wire_safe_subset_is_wire_safe(self):
        assert SubmitOptions(priority=5, tenant="t").wire_safe()


class TestSurfaces:
    """Each submit surface takes tuning only through ``options=``."""

    def test_service_submit_options_is_warning_free(self, tmp_path):
        with connect(
            None, cache_dir=tmp_path / "cache", ledger=False
        ) as client:
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("always")
                handle = client.submit(
                    small_spec(seed=31), options=SubmitOptions(priority=1)
                )
            handle.result(timeout=60)
            assert not deprecations(record)

    # The legacy per-call keywords are rejected before any job is queued.

    def test_service_submit_legacy_priority_warns_once(self, tmp_path):
        with connect(
            None, cache_dir=tmp_path / "cache", ledger=False
        ) as client:
            spec = small_spec(seed=32)
            with pytest.raises(ServeError, match="not both"):
                client.submit(spec, priority=2)
            with pytest.raises(TypeError):
                client.service.submit(spec, priority=2)
            assert client.describe()["jobs_submitted"] == 0

    def test_service_submit_legacy_fault_kwargs_warn_once(self, tmp_path):
        with connect(
            None, cache_dir=tmp_path / "cache", ledger=False
        ) as client:
            with pytest.raises(TypeError):
                client.service.submit(
                    small_spec(seed=33),
                    retry=RetryPolicy(max_retries=1),
                    fault_injector=FaultInjector(seed=7),
                )
            assert client.describe()["jobs_submitted"] == 0

    def test_client_map_legacy_priority_warns_once_for_whole_batch(
        self, tmp_path
    ):
        with connect(
            None, cache_dir=tmp_path / "cache", ledger=False
        ) as client:
            specs = [small_spec(seed=34 + i) for i in range(3)]
            with pytest.raises(TypeError):
                client.map(specs, priority=1, timeout=120)
            assert client.describe()["jobs_submitted"] == 0

    def test_remote_rejects_in_process_only_options(self, tmp_path):
        from repro.serve import Coordinator

        with Coordinator(
            "127.0.0.1:0", cache_dir=tmp_path / "cache", ledger=False
        ) as coord:
            with connect(coord.addr) as client:
                with pytest.raises(ServeError, match="worker shards"):
                    client.submit(
                        small_spec(seed=40),
                        options=SubmitOptions(
                            verify=True, retry=RetryPolicy(max_retries=1)
                        ),
                    )

    def test_remote_submit_options_round_trip(self, tmp_path):
        """priority+tenant ride the wire; the coordinator echoes tenant."""
        from repro.serve import Coordinator, Worker

        cache = tmp_path / "cache"
        with Coordinator(
            "127.0.0.1:0", cache_dir=cache, ledger=False
        ) as coord:
            with Worker(
                coord.addr, "shard-t", cache_dir=cache, ledger=False
            ) as _worker:
                with connect(coord.addr) as client:
                    with warnings.catch_warnings(record=True) as record:
                        warnings.simplefilter("always")
                        handle = client.submit(
                            small_spec(seed=41),
                            options=SubmitOptions(priority=2, tenant="acme"),
                        )
                    handle.result(timeout=120)
                    assert not deprecations(record)
                    assert handle.tenant == "acme"

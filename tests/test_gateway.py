"""HTTP gateway: endpoints, auth, shedding, SSE, and bit-identity.

One gateway per test class (module-scoped fixtures keep the suite fast)
talking real HTTP over a loopback socket — no mocked transports. The
determinism gate is the load-bearing test: a job submitted through the
full HTTP path must be bit-identical to the same spec stepped solo.
"""

import json
import socket
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from tests.conftest import small_spec, solo_state

from repro.check.golden import state_digest
from repro.nbody.particles import ParticleSet
from repro.serve import Gateway, validate_describe
from repro.serve.cache import load_result
from repro.serve.wire import parse_addr


def http(base, method, path, body=None, headers=None, timeout=60):
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(
        base + path, data=data, method=method, headers=headers or {}
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


def raw_http(gateway, request):
    """Send raw request bytes; return (status, JSON body)."""
    with socket.create_connection(parse_addr(gateway.addr), timeout=30) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


def spec_body(spec, **options):
    return {"spec": spec.to_dict(), "options": options or {}}


@pytest.fixture(scope="module")
def gateway(tmp_path_factory):
    gw = Gateway(
        backend=None,
        cache_dir=tmp_path_factory.mktemp("gwcache"),
        ledger=False,
        max_concurrent_jobs=2,
        tenants={
            "interactive": {"weight": 4.0},
            "bulk": {"weight": 1.0, "max_queued": 3},
        },
    ).start()
    yield gw
    gw.stop()


@pytest.fixture(scope="module")
def base(gateway):
    return f"http://{gateway.addr}"


class TestEndpoints:
    def test_healthz(self, base):
        status, body, _ = http(base, "GET", "/healthz")
        assert (status, body) == (200, {"ok": True})

    def test_submit_status_result_round_trip(self, base):
        spec = small_spec(seed=101)
        status, body, _ = http(
            base, "POST", "/v1/jobs", spec_body(spec, tenant="interactive")
        )
        assert status == 200
        job = body["job"]
        assert job["spec_hash"] == spec.spec_hash()
        assert job["tenant"] == "interactive"

        status, body, _ = http(
            base, "GET", f"/v1/jobs/{spec.spec_hash()}/result?timeout=60"
        )
        assert status == 200
        assert body["job"]["status"] == "complete"
        assert body["result"]["steps"] == spec.steps
        assert len(body["result"]["state_sha256"]) == 64

        status, body, _ = http(base, "GET", f"/v1/jobs/{spec.spec_hash()}")
        assert status == 200 and body["job"]["status"] == "complete"

    def test_tenant_header_fallback(self, base):
        spec = small_spec(seed=102)
        status, body, _ = http(
            base, "POST", "/v1/jobs", spec_body(spec),
            headers={"X-Repro-Tenant": "interactive"},
        )
        assert status == 200
        assert body["job"]["tenant"] == "interactive"

    def test_gateway_result_bit_identical_to_solo(self, base, gateway):
        """The determinism gate, through the full HTTP path."""
        spec = small_spec(seed=103, steps=6)
        http(base, "POST", "/v1/jobs", spec_body(spec))
        status, body, _ = http(
            base, "GET", f"/v1/jobs/{spec.spec_hash()}/result?timeout=120"
        )
        assert status == 200
        pos, vel, time = solo_state(spec)
        solo = state_digest(
            ParticleSet(
                positions=pos, velocities=vel,
                masses=spec.build_simulation().particles.masses,
            ),
            time,
        )
        assert body["result"]["state_sha256"] == solo
        # And the digest matches the actual stored state, loaded back.
        result = load_result(spec, body["result"]["run_dir"], from_cache=True)
        np.testing.assert_array_equal(result.positions, pos)
        np.testing.assert_array_equal(result.velocities, vel)

    def test_unknown_job_404(self, base):
        status, body, _ = http(base, "GET", "/v1/jobs/feedfacedead")
        assert status == 404
        assert "unknown job" in body["error"]

    def test_unknown_route_404(self, base):
        status, _, _ = http(base, "GET", "/v1/nope")
        assert status == 404

    def test_malformed_body_400(self, base):
        request = urllib.request.Request(
            base + "/v1/jobs", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(request, timeout=10)
        assert exc_info.value.code == 400

    def test_missing_spec_400(self, base):
        status, body, _ = http(base, "POST", "/v1/jobs", {"options": {}})
        assert status == 400 and "spec" in body["error"]

    def test_nan_dt_400(self, base):
        body = spec_body(small_spec(seed=104))
        body["spec"]["dt"] = float("nan")  # json.dumps writes NaN
        status, reply, _ = http(base, "POST", "/v1/jobs", body)
        assert status == 400
        assert reply["ok"] is False and "dt" in reply["error"]
        assert reply["error_type"] == "ServeError"

    def test_zero_softening_400(self, base):
        body = spec_body(small_spec(seed=106))
        body["spec"]["plan_config"]["softening"] = 0.0
        status, reply, _ = http(base, "POST", "/v1/jobs", body)
        assert status == 400
        assert reply["ok"] is False and "softening" in reply["error"]
        assert reply["error_type"] == "ConfigurationError"

    @pytest.mark.parametrize("timeout", ["abc", "nan", "inf", "-1"])
    def test_malformed_result_timeout_400(self, base, timeout):
        spec = small_spec(seed=105)
        assert http(base, "POST", "/v1/jobs", spec_body(spec))[0] == 200
        status, reply, _ = http(
            base, "GET", f"/v1/jobs/{spec.spec_hash()}/result?timeout={timeout}"
        )
        assert status == 400
        assert reply["ok"] is False and "timeout" in reply["error"]
        assert reply["error_type"] == "ServeError"

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_malformed_content_length_400(self, gateway, length):
        status, reply = raw_http(
            gateway,
            f"POST /v1/jobs HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {length}\r\n\r\n".encode(),
        )
        assert status == 400
        assert reply["ok"] is False and "Content-Length" in reply["error"]
        assert reply["error_type"] == "ServeError"

    def test_status_document_validates(self, base):
        status, body, _ = http(base, "GET", "/v1/status")
        assert status == 200
        doc = validate_describe(body["status"])
        assert doc["kind"] == "gateway"
        assert doc["backend"] == "in-process"
        assert doc["requests_total"] > 0
        # The backend's own (versioned) describe rides along.
        nested = validate_describe(doc["backend_describe"])
        assert nested["kind"] == "service"

    def test_cancel_endpoint(self, base):
        # Saturate the 2 scheduler slots, then cancel a queued job.
        blockers = [small_spec(seed=110 + i, steps=60) for i in range(2)]
        for spec in blockers:
            http(base, "POST", "/v1/jobs", spec_body(spec))
        victim = small_spec(seed=115, steps=60)
        http(base, "POST", "/v1/jobs", spec_body(victim))
        status, body, _ = http(
            base, "POST", f"/v1/jobs/{victim.spec_hash()}/cancel"
        )
        assert status == 200 and body["cancelled"] is True
        status, body, _ = http(
            base, "GET", f"/v1/jobs/{victim.spec_hash()}/result?timeout=30"
        )
        assert status == 200
        assert body["result"] is None
        assert body["job"]["error_type"] == "JobCancelledError"
        for spec in blockers:  # drain so the module fixture closes fast
            http(base, "GET", f"/v1/jobs/{spec.spec_hash()}/result?timeout=120")


class TestLoadShedding:
    def test_429_with_retry_after_on_quota(self, base):
        """bulk's max_queued=3 sheds the overflow with a backoff hint."""
        specs = [small_spec(seed=130 + i, steps=40) for i in range(10)]
        codes, retry_after = [], None
        for spec in specs:
            status, body, headers = http(
                base, "POST", "/v1/jobs", spec_body(spec, tenant="bulk")
            )
            codes.append(status)
            if status == 429:
                retry_after = headers.get("Retry-After")
                assert body["error_type"] in ("QuotaError", "AdmissionError")
        assert 429 in codes
        assert retry_after is not None and int(retry_after) >= 1
        for spec, code in zip(specs, codes):  # drain accepted jobs
            if code == 200:
                http(base, "GET", f"/v1/jobs/{spec.spec_hash()}/result?timeout=120")

    def test_shed_total_counted(self, base, gateway):
        assert gateway.shed_total > 0
        status, body, _ = http(base, "GET", "/v1/status")
        assert body["status"]["shed_total"] == gateway.shed_total


class TestEvents:
    def test_sse_streams_slices_then_finished(self, base):
        spec = small_spec(seed=140, steps=24)
        http(base, "POST", "/v1/jobs", spec_body(spec))
        events = []
        with urllib.request.urlopen(
            base + f"/v1/jobs/{spec.spec_hash()}/events", timeout=120
        ) as response:
            raw = response.read().decode()
        for block in raw.strip().split("\n\n"):
            fields = dict(
                line.split(": ", 1) for line in block.splitlines() if ": " in line
            )
            events.append((fields["event"], json.loads(fields["data"])))
        kinds = [kind for kind, _ in events]
        assert kinds[-1] == "finished"
        slices = [data for kind, data in events if kind == "slice"]
        if slices:  # raced-to-done jobs legitimately emit only `finished`
            assert all(s["spec_hash"] == spec.spec_hash() for s in slices)
            assert all("steps" in s and "tenant" in s for s in slices)

    def test_sse_on_finished_job_closes_immediately(self, base):
        spec = small_spec(seed=141)
        http(base, "POST", "/v1/jobs", spec_body(spec))
        http(base, "GET", f"/v1/jobs/{spec.spec_hash()}/result?timeout=60")
        with urllib.request.urlopen(
            base + f"/v1/jobs/{spec.spec_hash()}/events", timeout=30
        ) as response:
            raw = response.read().decode()
        assert "event: finished" in raw


class TestAuth:
    @pytest.fixture(scope="class")
    def auth_gateway(self, tmp_path_factory):
        gw = Gateway(
            backend=None,
            token="open-sesame",
            cache_dir=tmp_path_factory.mktemp("authcache"),
            ledger=False,
        ).start()
        yield gw
        gw.stop()

    @pytest.fixture(scope="class")
    def auth_base(self, auth_gateway):
        return f"http://{auth_gateway.addr}"

    def test_healthz_needs_no_token(self, auth_base):
        status, _, _ = http(auth_base, "GET", "/healthz")
        assert status == 200

    def test_missing_token_401(self, auth_base):
        status, body, _ = http(auth_base, "GET", "/v1/status")
        assert status == 401
        assert "Bearer" in body["error"]

    def test_wrong_token_401(self, auth_base):
        status, _, _ = http(
            auth_base, "GET", "/v1/status",
            headers={"Authorization": "Bearer wrong"},
        )
        assert status == 401

    def test_right_token_succeeds(self, auth_base):
        status, body, _ = http(
            auth_base, "GET", "/v1/status",
            headers={"Authorization": "Bearer open-sesame"},
        )
        assert status == 200
        assert body["status"]["auth"] is True

    def test_auth_failures_counted(self, auth_gateway):
        assert auth_gateway.auth_failures >= 2


class TestRemoteBackend:
    def test_gateway_fronts_coordinator(self, tmp_path):
        """Full distributed path: HTTP -> gateway -> coordinator -> shard."""
        from repro.serve import Coordinator, Worker

        cache = tmp_path / "cache"
        with Coordinator(
            "127.0.0.1:0", cache_dir=cache, ledger=False, token="tok"
        ) as coord:
            with Worker(
                coord.addr, "shard-g", cache_dir=cache, ledger=False,
                token="tok",
            ) as _worker:
                gw = Gateway(backend=coord.addr, token="tok").start()
                try:
                    base = f"http://{gw.addr}"
                    auth = {"Authorization": "Bearer tok"}
                    spec = small_spec(seed=150, steps=4)
                    status, body, _ = http(
                        base, "POST", "/v1/jobs",
                        spec_body(spec, tenant="acme"), headers=auth,
                    )
                    assert status == 200
                    status, body, _ = http(
                        base, "GET",
                        f"/v1/jobs/{spec.spec_hash()}/result?timeout=120",
                        headers=auth,
                    )
                    assert status == 200
                    pos, vel, time = solo_state(spec)
                    expected = state_digest(
                        ParticleSet(
                            positions=pos, velocities=vel,
                            masses=spec.build_simulation().particles.masses,
                        ),
                        time,
                    )
                    assert body["result"]["state_sha256"] == expected
                    # Status nests the *coordinator's* describe document.
                    status, body, _ = http(
                        base, "GET", "/v1/status", headers=auth
                    )
                    nested = validate_describe(
                        body["status"]["backend_describe"]
                    )
                    assert nested["kind"] == "coordinator"
                    # Status polling alone must observe completion — the
                    # gateway has to refresh the remote handle, whose
                    # cached status only moves on an RPC.
                    import time as _time

                    polled = small_spec(seed=151, steps=4)
                    http(
                        base, "POST", "/v1/jobs",
                        spec_body(polled), headers=auth,
                    )
                    deadline = _time.monotonic() + 60
                    job = {}
                    while _time.monotonic() < deadline:
                        _, body, _ = http(
                            base, "GET",
                            f"/v1/jobs/{polled.spec_hash()}",
                            headers=auth,
                        )
                        job = body["job"]
                        if job["status"] in ("complete", "failed"):
                            break
                        _time.sleep(0.05)
                    assert job.get("status") == "complete"
                    # No push seam over the wire: the stream carries
                    # status transitions and always ends with `finished`.
                    streamed = small_spec(seed=152, steps=24)
                    http(
                        base, "POST", "/v1/jobs",
                        spec_body(streamed), headers=auth,
                    )
                    request = urllib.request.Request(
                        base + f"/v1/jobs/{streamed.spec_hash()}/events",
                        headers=auth,
                    )
                    with urllib.request.urlopen(request, timeout=120) as response:
                        raw = response.read().decode()
                    last = raw.rstrip().split("\n\n")[-1]
                    assert last.startswith("event: finished"), raw[:400]
                finally:
                    gw.stop()


def _result_body(base, spec, headers=None):
    status, body, _ = http(
        base, "GET", f"/v1/jobs/{spec.spec_hash()}/result?timeout=120",
        headers=headers,
    )
    assert status == 200, body
    return body


def _events(base, spec, headers=None):
    request = urllib.request.Request(
        base + f"/v1/jobs/{spec.spec_hash()}/events", headers=headers or {}
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return response.read().decode()


class TestNoJobsKept:
    """The gateway keeps no jobs: every reply comes from the service's
    job table, which keeps the last ``KEEP_FINISHED`` finished records."""

    def test_result_reply_keeps_no_particles(self, tmp_path, monkeypatch):
        import gc
        import weakref

        from repro.serve import service as service_module

        made = []
        real = service_module.JobResult

        def capture(**fields):
            result = real(**fields)
            # a ParticleSet has __slots__ and no weakref slot: watch its array
            made.append(weakref.ref(result.particles.positions))
            return result

        monkeypatch.setattr(service_module, "JobResult", capture)
        with Gateway(backend=None, cache_dir=tmp_path, ledger=False) as gw:
            base = f"http://{gw.addr}"
            spec = small_spec(seed=160)
            assert http(base, "POST", "/v1/jobs", spec_body(spec))[0] == 200
            body = _result_body(base, spec)
            assert body["job"]["status"] == "complete"
            assert len(made) == 1
            deadline = time.monotonic() + 10
            while made[0]() is not None and time.monotonic() < deadline:
                # the runner thread drops its last reference between slices
                gc.collect()
                time.sleep(0.02)
            assert made[0]() is None, "the gateway still holds the final state"

    def test_remote_gateway_reads_no_checkpoint(self, tmp_path, monkeypatch):
        from repro.serve import Coordinator, Worker
        from repro.serve import remote

        loads = []
        real = remote.load_result

        def counting(*args, **kwargs):
            loads.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(remote, "load_result", counting)
        cache = tmp_path / "cache"
        with Coordinator(cache_dir=cache, ledger=False) as coord:
            with Worker(coord.addr, "shard-m", cache_dir=cache, ledger=False):
                with Gateway(backend=coord.addr) as gw:
                    base = f"http://{gw.addr}"
                    for seed in (161, 162):
                        spec = small_spec(seed=seed)
                        assert http(base, "POST", "/v1/jobs", spec_body(spec))[0] == 200
                        http(base, "GET", f"/v1/jobs/{spec.spec_hash()}")
                        body = _result_body(base, spec)
                        assert body["result"]["state_sha256"]
                        assert "event: finished" in _events(base, spec)
                        status, body, _ = http(
                            base, "GET", f"/v1/jobs/{spec.spec_hash()}"
                        )
                        assert status == 200 and body["job"]["status"] == "complete"
        assert loads == []

    @pytest.mark.parametrize("remote_backend", [False, True])
    def test_evicted_job_is_404_and_resubmit_answers_from_cache(
        self, tmp_path, monkeypatch, remote_backend
    ):
        from contextlib import ExitStack

        from repro.serve import Coordinator, Worker, jobs

        monkeypatch.setattr(jobs, "KEEP_FINISHED", 2)
        cache = tmp_path / "cache"
        with ExitStack() as stack:
            if remote_backend:
                coord = stack.enter_context(
                    Coordinator(cache_dir=cache, ledger=False)
                )
                stack.enter_context(
                    Worker(coord.addr, "shard-v", cache_dir=cache, ledger=False)
                )
                gw = stack.enter_context(Gateway(backend=coord.addr))
            else:
                gw = stack.enter_context(
                    Gateway(backend=None, cache_dir=cache, ledger=False)
                )
            base = f"http://{gw.addr}"
            specs = [small_spec(seed=170 + i) for i in range(3)]
            digests = []
            for spec in specs:
                http(base, "POST", "/v1/jobs", spec_body(spec))
                digests.append(_result_body(base, spec)["result"]["state_sha256"])
            evicted = specs[0].spec_hash()
            for path in (f"/v1/jobs/{evicted}", f"/v1/jobs/{evicted}/result"):
                status, body, _ = http(base, "GET", path)
                assert status == 404, body
                assert body["error_type"] == "UnknownJobError"
                assert "resubmit" in body["error"]
            status, body, _ = http(base, "POST", "/v1/jobs", spec_body(specs[0]))
            assert status == 200
            result = _result_body(base, specs[0])["result"]
            assert result["from_cache"] is True
            assert result["state_sha256"] == digests[0]

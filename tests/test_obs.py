"""Tests for the repro.obs tracing & metrics subsystem."""

import json

import pytest

from repro import obs
from repro.nbody.ic import plummer
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry, percentile
from repro.obs.tracing import NULL_SPAN, SpanTracer


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts disabled with empty global state, and leaves it so."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


# ---------------------------------------------------------------------------
# Span tracer
# ---------------------------------------------------------------------------


class TestSpanTracer:
    def test_nesting_and_attributes(self):
        tr = SpanTracer()
        with tr.span("outer", plan="jw") as outer:
            with tr.span("inner", n=128) as inner:
                inner.set(extra=1)
        assert len(tr) == 2
        assert inner.parent_id == outer.span_id
        assert inner.depth == 1
        assert outer.parent_id is None
        assert outer.depth == 0
        assert inner.attrs == {"n": 128, "extra": 1}
        assert outer.attrs == {"plan": "jw"}
        assert tr.children_of(outer.span_id) == [inner]

    def test_wall_durations_monotone(self):
        tr = SpanTracer()
        with tr.span("a"):
            with tr.span("b"):
                pass
        a = tr.by_name("a")[0]
        b = tr.by_name("b")[0]
        assert a.t0_wall <= b.t0_wall
        assert b.t1_wall <= a.t1_wall
        assert a.wall_seconds >= b.wall_seconds >= 0.0

    def test_sim_spans_and_clock(self):
        tr = SpanTracer()
        tr.sim_span("kernel", 0.0, 0.5, track="device", plan="i")
        tr.advance_sim(0.5)
        assert tr.sim_time == pytest.approx(0.5)
        tr.sim_span("kernel", tr.sim_time, tr.sim_time + 0.25)
        spans = tr.by_name("kernel")
        assert [s.sim_seconds for s in spans] == pytest.approx([0.5, 0.25])
        assert spans[0].kind == "sim"
        with pytest.raises(ValueError):
            tr.sim_span("bad", 1.0, 0.5)
        with pytest.raises(ValueError):
            tr.advance_sim(-1.0)

    def test_instant_and_reset(self):
        tr = SpanTracer()
        tr.instant("evt", x=1)
        assert tr.spans[0].kind == "instant"
        assert tr.spans[0].wall_seconds == 0.0
        tr.reset()
        assert len(tr) == 0
        assert tr.sim_time == 0.0

    def test_exception_closes_span(self):
        tr = SpanTracer()
        with pytest.raises(RuntimeError):
            with tr.span("boom"):
                raise RuntimeError("x")
        assert tr.current is None
        assert tr.by_name("boom")[0].t1_wall is not None


class TestFacade:
    def test_disabled_is_noop(self):
        assert not obs.enabled
        with obs.span("x", a=1) as sp:
            sp.set(b=2)
        obs.instant("y")
        obs.sim_span("z", 0.0, 1.0)
        obs.advance_sim(1.0)
        obs.inc("c")
        obs.observe("h", 1.0)
        obs.set_gauge("g", 1.0)
        assert sp is NULL_SPAN
        assert len(obs.tracer()) == 0
        assert len(obs.metrics()) == 0
        assert obs.sim_now() == 0.0

    def test_direct_assignment_toggles(self):
        obs.enabled = True
        with obs.span("on"):
            pass
        obs.enabled = False
        with obs.span("off"):
            pass
        names = [s.name for s in obs.tracer().spans]
        assert names == ["on"]

    def test_capture_restores_state(self):
        with obs.capture() as (tr, mx):
            assert obs.enabled
            with obs.span("inside"):
                obs.inc("n")
        assert not obs.enabled
        assert len(tr.by_name("inside")) == 1
        assert mx.counter("n").value == 1


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter(self):
        c = Counter("hits")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_tracks_extremes(self):
        g = Gauge("occ")
        for v in (0.5, 0.9, 0.2):
            g.set(v)
        assert g.value == 0.2
        assert g.min == 0.2
        assert g.max == 0.9

    def test_histogram_percentiles(self):
        h = Histogram("lat")
        for v in range(1, 101):  # 1..100
            h.observe(float(v))
        assert h.count == 100
        assert h.mean == pytest.approx(50.5)
        assert h.percentile(50) == pytest.approx(50.5)
        assert h.percentile(90) == pytest.approx(90.1)
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 100.0
        s = h.to_dict()
        assert s["p50"] == pytest.approx(50.5)
        assert s["p99"] == pytest.approx(99.01)

    def test_percentile_edge_cases(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        assert percentile([7.0], 99) == 7.0
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_registry_type_conflict(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")
        assert "x" in reg
        assert len(reg) == 1
        snap = reg.snapshot()
        assert snap["x"]["type"] == "counter"


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------


class TestExport:
    def _traced_run(self, n_steps=2):
        from repro.core.plans import JwParallelPlan, PlanConfig
        from repro.core.simulation import Simulation

        particles = plummer(128, seed=7)
        sim = Simulation(
            particles, JwParallelPlan(PlanConfig(softening=1e-2)), dt=1e-3
        )
        with obs.capture() as (tr, mx):
            sim.run(n_steps)
        return tr, mx

    def test_chrome_trace_valid_and_consistent(self, tmp_path):
        tr, mx = self._traced_run()
        out = obs.export.write_chrome_trace(tmp_path / "t.json", tr, mx)
        doc = json.loads(out.read_text())
        evs = doc["traceEvents"]
        assert doc["otherData"]["n_spans"] == len(tr)
        assert evs, "trace has no events"
        for e in evs:
            if e["ph"] == "M":
                continue
            assert e["ts"] >= 0.0
            assert e.get("dur", 0.0) >= 0.0
        # per-(pid, tid) start times are monotonically non-decreasing
        lanes = {}
        for e in evs:
            if e["ph"] != "X":
                continue
            key = (e["pid"], e["tid"])
            assert e["ts"] >= lanes.get(key, 0.0)
            lanes[key] = e["ts"]
        # simulated hardware shows up as its own process with named tracks
        names = {
            e["args"]["name"]
            for e in evs
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "device" in names and "pcie" in names

    def test_end_to_end_step_children(self):
        tr, _ = self._traced_run(n_steps=3)
        steps = tr.by_name("step")
        assert len(steps) == 3
        for st in steps:
            kinds = {c.name for c in tr.children_of(st.span_id)}
            assert {"kernel", "host", "transfer"} <= kinds
        # one span per simulation step, each with positive sim durations
        kernels = [s for s in tr.by_name("kernel") if s.kind == "sim"]
        assert len(kernels) >= 3
        assert all(k.sim_seconds > 0 for k in kernels)

    def test_sim_clock_advances_per_step(self):
        tr, _ = self._traced_run(n_steps=2)
        assert tr.sim_time > 0.0
        kernels = [s for s in tr.by_name("kernel") if s.kind == "sim"]
        starts = [k.t0_sim for k in kernels]
        assert starts == sorted(starts)

    def test_jsonl_round_trip(self, tmp_path):
        tr, mx = self._traced_run()
        out = obs.export.write_jsonl(tmp_path / "t.jsonl", tr, mx)
        recs = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(recs) == len(tr) + len(mx)
        span_recs = [r for r in recs if "t0_wall" in r]
        assert any(r["name"] == "simulation.run" for r in span_recs)

    def test_summary_markdown(self):
        tr, mx = self._traced_run()
        md = obs.export.summary_markdown(tr, mx)
        assert "## Span summary" in md
        assert "simulation.run" in md
        assert "interactions_total" in md

    def test_metrics_collected(self):
        _, mx = self._traced_run(n_steps=2)
        snap = mx.snapshot()
        assert snap["interactions_total"]["value"] > 0
        assert snap["step_seconds"]["count"] >= 2
        assert 0.0 < snap["occupancy"]["value"] <= 1.0
        assert snap["tree_depth"]["value"] >= 1

    def test_disabled_run_records_nothing(self):
        from repro.core.plans import IParallelPlan, PlanConfig
        from repro.core.simulation import Simulation

        sim = Simulation(
            plummer(64, seed=9), IParallelPlan(PlanConfig(softening=1e-2)), dt=1e-3
        )
        sim.run(2)
        assert len(obs.tracer()) == 0
        assert len(obs.metrics()) == 0


class TestExecutionTraceEmission:
    def test_cu_tracks_present(self):
        tr, _ = self._run()
        cu = {s.track for s in tr.spans if s.track and s.track.startswith("CU")}
        assert cu, "no per-compute-unit spans emitted"

    @pytest.mark.parametrize("batches", [1, 16])
    def test_pipeline_lanes_one_span_per_stage_and_batch(self, batches):
        """The PTPM time axis: host, PCIe and device each get one lane, and
        each walk batch one span on every lane."""
        from repro.core.plans import JwParallelPlan, PlanConfig

        plan = JwParallelPlan(PlanConfig(softening=1e-2), pipeline_batches=batches)
        particles = plummer(2048, seed=11)
        walks = plan.prepare(particles.positions, particles.masses)
        with obs.capture() as (tr, _):
            plan.breakdown_from_walks(walks)
        pipe = [s for s in tr.spans if s.kind == "sim" and s.track.startswith("pipe.")]
        assert len({s.track for s in pipe}) == 3
        assert len(pipe) == 3 * min(batches, len(walks))

    def _run(self):
        from repro.core.plans import JwParallelPlan, PlanConfig
        from repro.core.simulation import Simulation

        sim = Simulation(
            plummer(256, seed=11), JwParallelPlan(PlanConfig(softening=1e-2)), dt=1e-3
        )
        with obs.capture() as (tr, mx):
            sim.run(1)
        return tr, mx


# ---------------------------------------------------------------------------
# Labeled metrics, bounded reservoirs, Prometheus exposition
# ---------------------------------------------------------------------------


class TestLabeledMetrics:
    def test_label_order_is_canonical(self):
        reg = MetricsRegistry()
        a = reg.counter("hits", labels={"plan": "jw", "backend": "thread"})
        b = reg.counter("hits", labels={"backend": "thread", "plan": "jw"})
        assert a is b
        assert a.key == 'hits{backend="thread",plan="jw"}'

    def test_values_stringified(self):
        reg = MetricsRegistry()
        m = reg.gauge("depth", labels={"n": 4096})
        assert m.labels == {"n": "4096"}
        assert reg.get("depth", labels={"n": "4096"}) is m

    def test_unlabeled_key_is_bare_name(self):
        reg = MetricsRegistry()
        reg.counter("total").inc()
        assert "total" in reg.snapshot()
        assert reg.counter("total", labels={}).value == 1

    def test_bad_label_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="label names"):
            reg.counter("x", labels={1: "a"})
        with pytest.raises(ValueError, match="label names"):
            reg.counter("x", labels={"": "a"})

    def test_type_bound_across_label_sets(self):
        reg = MetricsRegistry()
        reg.counter("serve.jobs", labels={"plan": "i"})
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("serve.jobs", labels={"plan": "j"})

    def test_by_name_and_names(self):
        reg = MetricsRegistry()
        reg.counter("jobs", labels={"plan": "j"}).inc()
        reg.counter("jobs", labels={"plan": "i"}).inc(2)
        reg.counter("jobs").inc(3)
        variants = reg.by_name("jobs")
        assert [m.key for m in variants] == [
            "jobs", 'jobs{plan="i"}', 'jobs{plan="j"}'
        ]
        assert reg.names() == ["jobs"]

    def test_snapshot_keys_and_identity(self):
        reg = MetricsRegistry()
        reg.histogram("lat", labels={"plan": "w"}).observe(1.0)
        snap = reg.snapshot()
        m = snap['lat{plan="w"}']
        assert m["name"] == "lat" and m["labels"] == {"plan": "w"}

    def test_facade_helpers_accept_labels(self):
        obs.enable(reset=True)
        obs.inc("c", labels={"p": "a"})
        obs.set_gauge("g", 2.0, labels={"p": "a"})
        obs.observe("h", 0.5, labels={"p": "a"})
        snap = obs.metrics().snapshot()
        assert snap['c{p="a"}']["value"] == 1
        assert snap['g{p="a"}']["value"] == 2.0
        assert snap['h{p="a"}']["count"] == 1


class TestHistogramReservoir:
    def test_exact_until_reservoir_fills(self):
        h = Histogram("h", reservoir_size=100)
        for v in range(50):
            h.observe(float(v))
        assert not h.saturated
        assert h.count == 50 and h.sum == sum(range(50))
        assert h.percentile(50.0) == percentile([float(v) for v in range(50)], 50.0)
        assert "reservoir_size" not in h.summary()

    def test_memory_bounded_aggregates_exact(self):
        h = Histogram("h", reservoir_size=64)
        n = 10_000
        for v in range(n):
            h.observe(float(v))
        assert len(h.values) == 64          # bounded
        assert h.saturated
        assert h.count == n                 # exact aggregates survive
        assert h.sum == float(sum(range(n)))
        assert h.mean == pytest.approx((n - 1) / 2)
        assert h.min == 0.0 and h.max == float(n - 1)
        s = h.summary()
        assert s["count"] == n and s["reservoir_size"] == 64
        # the reservoir is an unbiased-ish sample: p50 lands mid-range
        assert 0.0 <= s["p50"] <= n

    def test_reservoir_deterministic_across_instances(self):
        seq = [float((7 * i) % 101) for i in range(5000)]
        a = Histogram("lat", labels={"plan": "jw"}, reservoir_size=32)
        b = Histogram("lat", labels={"plan": "jw"}, reservoir_size=32)
        for v in seq:
            a.observe(v)
            b.observe(v)
        assert a.values == b.values         # identity-seeded RNG

    def test_different_identity_different_reservoir(self):
        seq = [float(i % 97) for i in range(4000)]
        a = Histogram("lat", labels={"plan": "i"}, reservoir_size=16)
        b = Histogram("lat", labels={"plan": "j"}, reservoir_size=16)
        for v in seq:
            a.observe(v)
            b.observe(v)
        assert a.count == b.count == 4000
        assert a.values != b.values

    def test_reservoir_size_validated(self):
        with pytest.raises(ValueError, match="reservoir_size"):
            Histogram("h", reservoir_size=0)


class TestPrometheusExport:
    def test_counter_and_name_sanitisation(self):
        reg = MetricsRegistry()
        reg.counter("serve.jobs_total", labels={"plan": "jw"}).inc(3)
        text = obs.export.prometheus_text(reg)
        assert "# TYPE serve_jobs_total counter" in text
        assert 'serve_jobs_total{plan="jw"} 3' in text

    def test_gauge_min_max_companions(self):
        reg = MetricsRegistry()
        g = reg.gauge("queue.depth")
        for v in (3.0, 7.0, 1.0):
            g.set(v)
        text = obs.export.prometheus_text(reg)
        assert "queue_depth 1" in text
        assert "# TYPE queue_depth_min gauge" in text
        assert "queue_depth_min 1" in text
        assert "queue_depth_max 7" in text

    def test_histogram_as_summary(self):
        reg = MetricsRegistry()
        h = reg.histogram("slice.seconds", labels={"plan": "i"})
        for v in (0.25, 0.5, 0.75):
            h.observe(v)
        text = obs.export.prometheus_text(reg)
        assert "# TYPE slice_seconds summary" in text
        assert 'slice_seconds{plan="i",quantile="0.5"} 0.5' in text
        assert 'slice_seconds_sum{plan="i"} 1.5' in text
        assert 'slice_seconds_count{plan="i"} 3' in text
        assert 'slice_seconds_min{plan="i"} 0.25' in text
        assert 'slice_seconds_max{plan="i"} 0.75' in text

    def test_help_line_and_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("c", description="what it counts", labels={"q": 'a"b'})
        text = obs.export.prometheus_text(reg)
        assert "# HELP c what it counts" in text
        assert 'c{q="a\\"b"} 0' in text

    def test_empty_registry_empty_text(self):
        assert obs.export.prometheus_text(MetricsRegistry()) == ""

    def test_write_prometheus_and_stability(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("a", labels={"x": "1"}).inc()
        reg.histogram("b").observe(2.0)
        out = obs.export.write_prometheus(tmp_path / "m.prom", reg)
        text = out.read_text()
        assert text == obs.export.prometheus_text(reg)
        assert text.endswith("\n")

    def test_markdown_summary_includes_gauge_extremes(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(5.0)
        g.set(2.0)
        tr = SpanTracer()
        text = obs.export.summary_markdown(tr, reg)
        assert "min=2" in text and "max=5" in text

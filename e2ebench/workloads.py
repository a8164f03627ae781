"""The four benchmark workloads: inputs from a seed, a timed run, checks.

Each ``run_*`` function measures one workload for a fixed wall-clock
budget and returns a record with the metrics, the output checks and the
spans of a traced run.  The simulation workloads step one
:class:`~repro.core.simulation.Simulation` in this process; the serve
workload drives a gateway subprocess over HTTP from a closed loop of
client threads.

Timing metrics are *host-adjusted*: every measured wall is scaled by
``REFERENCE_CALIBRATION_S / c``, where ``c`` is the wall of
:func:`calibrate` — a fixed CPU task that uses none of the program's
code — measured next to it.  On a shared host whose speed drifts by tens
of percent over minutes this cancels most of the drift; the raw walls
are kept in each record's ``info``.
"""

from __future__ import annotations

import http.client
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from statistics import median
from time import perf_counter, sleep

import numpy as np

from layers import layer_metrics, serve_layer_metrics
from spans import SIM_TARGETS, Tracer, chrome_trace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: build outputs and scratch space, inside the checkout
BUILD = ROOT / ".bench_build"
#: where the C kernel library is compiled (``REPRO_KERNEL_CACHE``)
KERNEL_CACHE = BUILD / "repro-kernels"

SOFTENING = 1e-3
DT = 1e-3
#: bodies whose forces the oracle compares with a float64 direct sum
ORACLE_TARGETS = 1024
#: set-up is measured this many times per run; the median is reported
SETUP_REPEATS = 5
#: body count of every simulation under ``--smoke``
SMOKE_N = 512
#: ``--smoke`` stops after this many steps (one 16-substep block interval)
#: or serve requests, whichever workload, so the checks stay meaningful
SMOKE_OPS = 16
#: spans kept in a record's Chrome trace
TRACE_EVENTS = 1000

SIMS = {
    "tree-jw-65k": {"n": 65536, "plan": "jw", "energy": False},
    "direct-i-16k": {"n": 16384, "plan": "i", "energy": True},
    "block-jw-16k": {"n": 16384, "plan": "block-jw", "energy": True, "n_rungs": 5},
}
SERVE = "serve-http-1k"
WORKLOADS = (*SIMS, SERVE)

#: serve: client threads (= connections), gateway job concurrency
CLIENTS = 2
MAX_CONCURRENT_JOBS = 2
#: every HIT_EVERY-th request resubmits a completed spec (a cache hit)
HIT_EVERY = 9
#: misses re-stepped solo in this process and compared bit for bit
SOLO_CHECKS = 3
#: serve: the load pauses this often so calibration runs on an idle host
CALIBRATE_EVERY_S = 1.5
#: serve: the gateway's peak RSS is read once this many requests completed
#: (it keeps every job's handle, so its RSS grows with requests served)
RSS_AFTER_REQUESTS = 300

#: Wall of :func:`calibrate` on the reference host (the 2-vCPU Xeon the
#: committed baseline ran on, median when quiet).  Host-adjusted times
#: read as seconds on that host.
REFERENCE_CALIBRATION_S = 6.0e-3

_CAL_A = np.linspace(0.0, 1.0, 65536)
_CAL_B = _CAL_A[::-1].copy()
_CAL_OUT = np.empty_like(_CAL_A)


def calibrate() -> float:
    """Wall of a fixed interpreter + NumPy task (about 6 ms)."""
    t0 = perf_counter()
    sorted(range(20000), key=lambda v: (v * 7919) % 10007)
    for _ in range(20):
        np.multiply(_CAL_A, _CAL_B, out=_CAL_OUT)
        np.sqrt(_CAL_OUT, out=_CAL_OUT)
        np.add(_CAL_OUT, _CAL_A, out=_CAL_OUT)
    return perf_counter() - t0


def calibrate_burst() -> float:
    return median(calibrate() for _ in range(3))


def host_adjusted(walls: list[float], cals: list[float]) -> list[float]:
    """Each wall scaled by the median of the five calibrations around it."""
    out = []
    for k, wall in enumerate(walls):
        c = median(cals[max(0, k - 2): k + 3])
        out.append(wall * REFERENCE_CALIBRATION_S / c)
    return out


def child_env() -> dict[str, str]:
    """Environment for benchmark subprocesses: no inherited REPRO_* settings."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    env["REPRO_KERNEL_CACHE"] = str(KERNEL_CACHE)
    return env


def bench_cmd(script: str, *args: object) -> list[str]:
    return [sys.executable, str(BENCH_DIR / script), *map(str, args)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check(checks: list, name: str, ok: bool, detail: str = "") -> None:
    checks.append({"name": name, "ok": bool(ok), "detail": detail})


def _percentile_ms(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) * 1e3


def _timing_metrics(setups: list[float], ops: list[float], ops_per_s: float,
                    peak_rss: float) -> dict:
    """The end-to-end metrics from host-adjusted set-ups, op times and rate."""
    return {
        "setup_s": median(setups),
        "ops_per_s": ops_per_s,
        "op_p50_ms": _percentile_ms(ops, 50),
        "peak_rss_mb": peak_rss,
    }


def _measure_setups(launch) -> tuple[list[float], list[float]]:
    """``SETUP_REPEATS`` launch-to-ready walls: ``(raw, host-adjusted)``."""
    raw, adjusted = [], []
    for _ in range(SETUP_REPEATS):
        c = calibrate_burst()
        raw.append(launch())
        adjusted.append(raw[-1] * REFERENCE_CALIBRATION_S / c)
    return raw, adjusted


# ---------------------------------------------------------------------------
# simulations
# ---------------------------------------------------------------------------
def build_simulation(name: str, seed: int, *, smoke: bool = False):
    """ICs, plan and simulation for a workload; returns ``(sim, generator_s)``.

    ``generator_s`` is input-generation time that belongs to no measured
    region: the t=0 acceleration probe fixing block-jw's ``dt_min``.
    """
    from repro.bench.workloads import make_workload
    from repro.core.plans import PlanConfig, get_plan
    from repro.core.simulation import Simulation
    from repro.nbody.kernels import resolve_backend
    from repro.nbody.timestep import acceleration_timestep

    w = SIMS[name]
    resolve_backend("cext", strict=True)
    particles = make_workload("plummer", SMOKE_N if smoke else w["n"], seed=seed)
    config = PlanConfig(
        softening=SOFTENING, kernel_backend="cext", n_rungs=w.get("n_rungs")
    )
    dt, generator_s = DT, 0.0
    if "n_rungs" in w:
        t0 = perf_counter()
        probe = get_plan("i", PlanConfig(softening=SOFTENING, kernel_backend="cext"))
        a0 = probe.accelerations(particles.positions, particles.masses)
        dt_min = float(acceleration_timestep(a0, softening=SOFTENING).min())
        dt = dt_min * (1 << (w["n_rungs"] - 1))
        generator_s = perf_counter() - t0
    return Simulation(particles, w["plan"], dt=dt, plan_config=config), generator_s


def setup_probe(name: str, seed: int, smoke: bool) -> None:
    """Body of a set-up probe process: build the workload, report ready."""
    _sim, generator_s = build_simulation(name, seed, smoke=smoke)
    print(f"ready {generator_s!r}", flush=True)


def _launch_probe(cmd: list[str]) -> float:
    """Launch-to-ready wall of one set-up probe, minus its input generation."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), text=True)
    try:
        line = proc.stdout.readline()
        t = perf_counter()
    finally:
        proc.kill()
        proc.wait()
    if not line.startswith("ready "):
        raise RuntimeError(f"set-up probe failed: {line!r}")
    return t - t0 - float(line.split()[1])


def _advance(sim, seconds: float, tracer: Tracer | None = None,
             max_steps: int | None = None) -> tuple[list[float], list[float]]:
    """Step until ``seconds`` have passed (or ``max_steps`` were taken) and
    the system is synchronised; returns per-step walls and calibrations."""
    times, cals = [], []
    start = perf_counter()
    while True:
        cals.append(calibrate())
        if tracer is not None:
            tracer.set_corr(sim.record.steps)
        t0 = perf_counter()
        sim.step()
        t1 = perf_counter()
        times.append(t1 - t0)
        done = t1 - start >= seconds or len(times) == max_steps
        if done and sim.synchronized:
            return times, cals


def _ops(sim, times: list[float], cals: list[float]) -> list[float]:
    """Host-adjusted seconds per op: a step, or for block timesteps one sync
    interval (the substeps that advance every body by ``dt_max``)."""
    adjusted = host_adjusted(times, cals)
    if not sim.blockstep:
        return adjusted
    k = sim.block_schedule.n_substeps
    return [sum(adjusted[i:i + k]) for i in range(0, len(adjusted), k)]


def potential_energy(pos: np.ndarray, m: np.ndarray, eps: float, block: int = 1024) -> float:
    """Softened potential energy, float64, over the upper block triangle."""
    sq = np.einsum("ij,ij->i", pos, pos)
    u = 0.0
    for a0 in range(0, len(m), block):
        a1 = min(a0 + block, len(m))
        r2 = pos[a0:a1] @ pos[a0:].T
        r2 *= -2.0
        r2 += sq[a0:a1, None]
        r2 += sq[None, a0:]
        np.maximum(r2, 0.0, out=r2)
        r2 += eps * eps
        inv = np.divide(1.0, np.sqrt(r2, out=r2), out=r2)
        k = a1 - a0
        inv[np.arange(k), np.arange(k)] = 0.0
        u += 0.5 * float(m[a0:a1] @ inv[:, :k] @ m[a0:a1])
        u += float(m[a0:a1] @ inv[:, k:] @ m[a1:])
    return -u


def _energy(p) -> float:
    kinetic = 0.5 * float(p.masses @ np.einsum("ij,ij->i", p.velocities, p.velocities))
    return kinetic + potential_energy(p.positions, p.masses, SOFTENING)


def _oracle(p, acc_rows: np.ndarray, targets: np.ndarray):
    from repro.check.oracle import compare_arrays
    from repro.nbody.forces import accelerations_from_sources

    ref = accelerations_from_sources(
        p.positions[targets], p.positions, p.masses,
        softening=SOFTENING, dtype=np.float64, backend="numpy",
    )
    return compare_arrays(ref, acc_rows)


def _sim_checks(name: str, sim, p0, a0: np.ndarray, seed: int) -> tuple[list, float]:
    """Output checks of a finished simulation; returns ``(checks, force_err_rms)``."""
    from repro.check.invariants import policy_for
    from repro.check.oracle import PP_VS_DIRECT, TREE_VS_DIRECT

    p = sim.particles
    checks: list = []
    n = len(p.masses)
    targets = np.sort(
        np.random.default_rng([seed, 1]).choice(n, min(ORACLE_TARGETS, n), replace=False)
    )
    tol = PP_VS_DIRECT if sim.plan.method == "pp" else TREE_VS_DIRECT
    dev0 = _oracle(p0, a0[targets], targets)
    _check(checks, f"oracle t=0 ({tol.name})", tol.admits(dev0), str(dev0))
    dev1 = _oracle(p, sim.last_acceleration[targets], targets)
    _check(checks, f"oracle final ({tol.name})", tol.admits(dev1), str(dev1))
    finite = bool(np.isfinite(p.positions).all() and np.isfinite(p.velocities).all())
    _check(checks, "finite state", finite)
    policy = policy_for(sim.plan.name)
    scale = float(np.sum(p0.masses * np.linalg.norm(p0.velocities, axis=1)))
    drift = float(np.max(np.abs(p.masses @ p.velocities - p0.masses @ p0.velocities))) / scale
    _check(checks, f"momentum drift ({policy.name})", drift <= policy.momentum_drift,
           f"{drift:.3e} <= {policy.momentum_drift:.1e}")
    if SIMS[name]["energy"] and finite:
        limit = policy.energy_drift
        if policy.energy_drift_per_sync is not None:
            limit = policy.energy_drift_per_sync * max(1, sim.sync_intervals)
        e0 = _energy(p0)
        drift = abs(_energy(p) - e0) / abs(e0)
        _check(checks, f"energy drift ({policy.name})", drift <= limit,
               f"{drift:.3e} <= {limit:.1e}")
    return checks, dev1.rms_rel_error


def run_simulation(name: str, seed: int, seconds: float, trace: bool,
                   *, smoke: bool = False) -> dict:
    setups_raw, setups = [], []
    if not trace:
        cmd = bench_cmd("e2e.py", "_setup", "--workload", name, "--seed", seed,
                        *(["--smoke"] if smoke else []))
        setups_raw, setups = _measure_setups(lambda: _launch_probe(cmd))
    sim, generator_s = build_simulation(name, seed, smoke=smoke)
    p0 = sim.particles.copy()
    # The t=0 pass: the oracle's first sample, and the cached KDK force so
    # every timed step does exactly one pass (lazy set-up finishes here).
    a0, _ = sim.plan.compute_step(p0.positions, p0.masses)
    a0 = np.ascontiguousarray(a0, dtype=np.float64)
    sim.seed_forces(a0.copy())
    if sim.blockstep:
        sim.seed_rungs(sim.block_schedule.assign(a0))

    record: dict = {"info": {"n": len(p0.masses), "plan": sim.plan.name,
                             "dt": sim.dt, "generator_s": generator_s}}
    cap = SMOKE_OPS if smoke else None
    if trace:
        untraced = _ops(sim, *_advance(sim, seconds / 3, max_steps=cap))
        tracer = Tracer().install(SIM_TARGETS)
        try:
            times, cals = _advance(sim, seconds, tracer, cap)
        finally:
            tracer.remove()
        ops = _ops(sim, times, cals)
        metrics = layer_metrics(tracer.spans, sum(times))
        metrics["trace_overhead_frac"] = median(ops) / median(untraced) - 1.0
        record["chrome_trace"] = chrome_trace(tracer.spans, limit=TRACE_EVENTS)
        rss = peak_rss_mb()
    else:
        times, cals = _advance(sim, seconds, max_steps=cap)
        ops = _ops(sim, times, cals)
        rss = peak_rss_mb()  # before the checks allocate their references
        metrics = _timing_metrics(setups, ops, len(ops) / sum(ops), rss)
    checks, force_err = _sim_checks(name, sim, p0, a0, seed)
    if trace:
        metrics["core.plans.force_err_rms"] = force_err
    record["info"].update(
        steps=len(times), setups_raw_s=setups_raw, peak_rss_mb=rss,
        force_err_rms=force_err, step_raw_ms=[t * 1e3 for t in times],
        calibration_ms=[c * 1e3 for c in cals], op_p90_ms=_percentile_ms(ops, 90),
    )
    return _finish(record, metrics, checks, ops=len(ops), failed_ops=0)


def _finish(record: dict, metrics: dict, checks: list, *, ops: int, failed_ops: int) -> dict:
    failed = failed_ops + sum(not c["ok"] for c in checks)
    record.update(
        correct=failed == 0,
        attempted=ops + len(checks),
        failed=failed,
        metrics=metrics,
        checks=checks,
    )
    return record


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------
def _http(addr: tuple[str, int], method: str, path: str, body=None, timeout=120.0):
    conn = http.client.HTTPConnection(*addr, timeout=timeout)
    try:
        payload = None if body is None else json.dumps(body)
        conn.request(method, path, body=payload,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read() or b"{}")
    finally:
        conn.close()


class Gateway:
    """A gateway subprocess (``gateway_main.py``) with its own cache and ledger."""

    def __init__(self, workdir: Path, *, trace: bool) -> None:
        workdir.mkdir(parents=True)
        self.stats_path = workdir / "stats.json"
        cmd = bench_cmd(
            "gateway_main.py", "--cache-dir", workdir / "cache",
            "--ledger", workdir / "ledger.sqlite", "--stats-out", self.stats_path,
        ) + (["--trace"] if trace else [])
        t0 = perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=child_env(), text=True,
        )
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("listening "):
                raise RuntimeError(f"gateway failed to start: {line!r}")
            host, port = line.split()[1].rsplit(":", 1)
            self.addr = (host, int(port))
            self._wait_healthy()
        except BaseException:
            self.kill()
            raise
        #: launch until the first 200 from /healthz
        self.ready_s = perf_counter() - t0

    def _wait_healthy(self, timeout: float = 60.0) -> None:
        deadline = perf_counter() + timeout
        while True:
            try:
                if _http(self.addr, "GET", "/healthz", timeout=5.0)[0] == 200:
                    return
            except OSError:
                pass
            if perf_counter() > deadline:
                raise RuntimeError("gateway /healthz never answered 200")
            sleep(0.002)

    def peak_rss_mb(self) -> float:
        """The gateway's peak RSS so far."""
        self.proc.stdin.write("rss\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> dict:
        """Stop the gateway; returns its stats (peak RSS, spans)."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        finally:
            self.kill()
        return json.loads(self.stats_path.read_text())

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def job_spec(seed: int, *, smoke: bool) -> dict:
    """One miss: a full ``plan_config`` dict, as a wire-form JobSpec."""
    from repro.core.plans import PlanConfig
    from repro.runtime.checkpoint import plan_config_to_dict
    from repro.serve.spec import JobSpec

    config = plan_config_to_dict(PlanConfig(softening=SOFTENING, kernel_backend="cext"))
    return JobSpec(
        workload="plummer", n=256 if smoke else 1024, seed=seed, plan="i",
        dt=DT, steps=4 if smoke else 20, plan_config=config,
    ).to_dict()


class ClosedLoop:
    """``CLIENTS`` threads, each sending its next request after the last reply.

    Every ``CALIBRATE_EVERY_S`` the clients hold their next request until
    both are idle, :func:`calibrate` runs, and the load resumes.  The
    windows between these pauses are the throughput samples.
    """

    def __init__(self, gateway: Gateway, seed: int, *, smoke: bool) -> None:
        self.gateway = gateway
        self.smoke = smoke
        self.max_requests = SMOKE_OPS if smoke else None
        self.rng = np.random.default_rng([seed, 2])
        self.cond = threading.Condition()
        self.paused = False
        self.active = 0
        self.issued = 0
        self.seeds: set[int] = set()
        self.done_misses: list[dict] = []
        self.requests: list[dict] = []
        #: ``(start, end, calibration seconds)`` of each pause
        self.pauses: list[tuple[float, float, float]] = []
        #: gateway peak RSS once ``RSS_AFTER_REQUESTS`` requests completed
        self.rss_mb: float | None = None

    def _next(self) -> tuple[dict, bool] | None:
        """The next request (caller holds ``cond``)."""
        i = self.issued
        if i == self.max_requests:
            return None
        self.issued += 1
        if i % HIT_EVERY == HIT_EVERY - 1 and self.done_misses:
            k = int(self.rng.integers(len(self.done_misses)))
            return self.done_misses[k], True
        seed = int(self.rng.integers(2**31))
        while seed in self.seeds:
            seed = int(self.rng.integers(2**31))
        self.seeds.add(seed)
        return job_spec(seed, smoke=self.smoke), False

    def _request(self, spec: dict, hit: bool) -> dict:
        addr = self.gateway.addr
        r = {"spec": spec, "hit": hit, "ok": False, "t_post": perf_counter()}
        try:
            status, reply = _http(addr, "POST", "/v1/jobs", {"spec": spec, "options": {}})
            r["t_posted"] = perf_counter()
            r["spec_hash"] = reply["job"]["spec_hash"]
            status2, res = _http(addr, "GET", f"/v1/jobs/{r['spec_hash']}/result?timeout=120")
            r["t_done"] = perf_counter()
            result = res.get("result")
            r["ok"] = status == 200 and status2 == 200 and result is not None
            if result is not None:
                r["from_cache"] = bool(result["from_cache"])
                r["digest"] = result["state_sha256"]
            else:
                r["error"] = res.get("error") or res.get("job", {}).get("error")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            r["error"] = repr(exc)
        return r

    def _worker(self, deadline: float) -> None:
        while True:
            with self.cond:
                while self.paused:
                    self.cond.wait()
                nxt = self._next() if perf_counter() < deadline else None
                if nxt is None:
                    return
                self.active += 1
            r = self._request(*nxt)
            with self.cond:
                self.active -= 1
                self.requests.append(r)
                if r["ok"] and not r["hit"]:
                    self.done_misses.append(r["spec"])
                self.cond.notify_all()

    def _pause(self) -> None:
        """Hold the load until both clients are idle; calibrate meanwhile."""
        with self.cond:
            self.paused = True
            while self.active:
                self.cond.wait()
        t0 = perf_counter()
        c = calibrate_burst()
        if self.rss_mb is None and len(self.requests) >= RSS_AFTER_REQUESTS:
            self.rss_mb = self.gateway.peak_rss_mb()
        self.pauses.append((t0, perf_counter(), c))
        with self.cond:
            self.paused = False
            self.cond.notify_all()

    def run(self, seconds: float) -> None:
        """Issue requests for ``seconds``, pausing every ``CALIBRATE_EVERY_S``."""
        self._pause()
        deadline = perf_counter() + seconds
        threads = [
            threading.Thread(target=self._worker, args=(deadline,))
            for _ in range(CLIENTS)
        ]
        for t in threads:
            t.start()
        while perf_counter() + CALIBRATE_EVERY_S < deadline:
            sleep(CALIBRATE_EVERY_S)
            self._pause()
        for t in threads:
            t.join()
        self._pause()

    def throughput(self) -> float:
        """Median host-adjusted completion rate of the windows between pauses."""
        rates = []
        for (_, w0, c0), (w1, _, c1) in zip(self.pauses, self.pauses[1:]):
            done = sum(w0 <= r["t_done"] < w1 for r in self.requests if r["ok"])
            rates.append(done / ((w1 - w0) * REFERENCE_CALIBRATION_S / median((c0, c1))))
        return median(rates)

    def adjusted_latency(self, r: dict) -> float:
        """Host-adjusted latency: scaled by the nearest pause's calibration."""
        mid = 0.5 * (r["t_post"] + r["t_done"])
        *_, c = min(self.pauses, key=lambda p: abs(p[0] - mid))
        return (r["t_done"] - r["t_post"]) * REFERENCE_CALIBRATION_S / c

    def miss_latencies(self) -> list[float]:
        """Host-adjusted latency of every miss; a failure counts as infinite."""
        return [
            self.adjusted_latency(r) if r["ok"] else float("inf")
            for r in self.requests if not r["hit"]
        ]


def _serve_checks(requests: list[dict], seed: int) -> tuple[list, float]:
    """Hits match their miss's digest; sampled misses match a solo re-step."""
    from repro.check.golden import state_digest
    from repro.check.oracle import PP_VS_DIRECT
    from repro.serve.spec import JobSpec

    checks: list = []
    ok = [r for r in requests if r["ok"]]
    miss_digest = {r["spec_hash"]: r["digest"] for r in ok if not r["hit"]}
    hits = [r for r in ok if r["hit"]]
    bad_hits = [
        r for r in hits
        if not r["from_cache"] or miss_digest.get(r["spec_hash"]) != r["digest"]
    ]
    _check(checks, "hits are cache answers with their miss's digest", not bad_hits,
           f"{len(hits) - len(bad_hits)}/{len(hits)}")
    misses = [r for r in ok if not r["hit"]]
    _check(checks, "misses computed fresh",
           misses and not any(r["from_cache"] for r in misses), f"{len(misses)} misses")
    rng = np.random.default_rng([seed, 3])
    force_err = float("nan")
    for k in rng.choice(len(misses), min(SOLO_CHECKS, len(misses)), replace=False):
        r = misses[int(k)]
        sim = JobSpec.from_dict(r["spec"]).build_simulation()
        sim.run(r["spec"]["steps"])
        solo = state_digest(sim.particles, sim.time)
        _check(checks, f"solo re-step {r['spec_hash'][:12]} bit-identical",
               solo == r["digest"])
        if np.isnan(force_err):
            p = sim.particles
            acc, _ = sim.plan.compute_step(p.positions, p.masses)
            dev = _oracle(p, acc, np.arange(len(p.masses)))
            force_err = dev.rms_rel_error
            _check(checks, f"oracle final ({PP_VS_DIRECT.name})",
                   PP_VS_DIRECT.admits(dev), str(dev))
    return checks, force_err


def _serve_phase(gateway: Gateway, seed: int, seconds: float, *, smoke: bool):
    """Closed-loop load against ``gateway``, which is stopped afterwards."""
    try:
        loop = ClosedLoop(gateway, seed, smoke=smoke)
        loop.run(seconds)
    finally:
        stats = gateway.close()
    return loop, stats


def run_serve(seed: int, seconds: float, trace: bool, *, smoke: bool = False) -> dict:
    BUILD.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="serve-", dir=BUILD))
    try:
        return _run_serve(workdir, seed, seconds, trace, smoke)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_serve(workdir: Path, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    record: dict = {"info": {}}
    setups_raw: list[float] = []
    if trace:
        base, _ = _serve_phase(
            Gateway(workdir / "untraced", trace=False), seed, seconds / 3, smoke=smoke
        )
        loop, stats = _serve_phase(
            Gateway(workdir / "traced", trace=True), seed, seconds, smoke=smoke
        )
        ok = [r for r in loop.requests if r["ok"]]
        spans = [tuple(s) for s in stats["spans"]]
        metrics = serve_layer_metrics(spans, ok)
        metrics["trace_overhead_frac"] = (
            median(loop.miss_latencies()) / median(base.miss_latencies()) - 1.0
        )
        record["chrome_trace"] = chrome_trace(spans, limit=TRACE_EVENTS) + [
            {"name": "client.request", "ph": "X", "pid": 2, "tid": i % CLIENTS,
             "ts": r["t_post"] * 1e6, "dur": (r["t_done"] - r["t_post"]) * 1e6,
             "args": {"corr": r["spec_hash"], "hit": r["hit"]}}
            for i, r in enumerate(ok[: TRACE_EVENTS // 10])
        ]
    else:
        gateways: list[Gateway] = []

        def launch() -> float:
            gateways.append(Gateway(workdir / f"gw{len(gateways)}", trace=False))
            return gateways[-1].ready_s

        try:
            setups_raw, setups = _measure_setups(launch)
        except BaseException:
            for gw in gateways:
                gw.kill()
            raise
        for gw in gateways[:-1]:
            gw.close()
        loop, stats = _serve_phase(gateways[-1], seed, seconds, smoke=smoke)
        ok = [r for r in loop.requests if r["ok"]]
        rss = stats["peak_rss_mb"] if loop.rss_mb is None else loop.rss_mb
        metrics = _timing_metrics(setups, loop.miss_latencies(), loop.throughput(), rss)
    requests = loop.requests
    checks, force_err = _serve_checks(ok, seed)
    if trace:
        metrics["core.plans.force_err_rms"] = force_err
    errors = sorted({str(r.get("error")) for r in requests if not r["ok"]})
    record["info"].update(
        requests=len(requests), hits=sum(r["hit"] for r in ok),
        setups_raw_s=setups_raw, force_err_rms=force_err, errors=errors[:5],
        peak_rss_mb=stats["peak_rss_mb"], rss_after_requests_mb=loop.rss_mb,
        op_raw_ms=[(r["t_done"] - r["t_post"]) * 1e3 for r in ok if not r["hit"]],
        calibration_ms=[c * 1e3 for *_, c in loop.pauses],
        op_p90_ms=_percentile_ms(loop.miss_latencies(), 90),
    )
    failed_ops = sum(not r["ok"] for r in requests)
    return _finish(record, metrics, checks, ops=len(requests), failed_ops=failed_ops)

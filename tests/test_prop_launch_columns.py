"""The columnar launch model against the per-work-group formula it replaced.

Every plan's launch keeps its work-groups as int64 columns and prices
them with one array expression (:func:`repro.gpu.timing.launch_cycles`).
The oracle below is the per-work-group model those columns replaced,
kept here verbatim in spirit: one record per work-group, built in the
plans' original loop order, and one scalar cost per record in the
operation order ``max(compute, mem) + sync + red + WG_DISPATCH_CYCLES``.
Hypothesis draws launch shapes for the i, j, w and jw plans (and the
masked jw pass) and checks that the columns, the labels and the cycle
costs agree, the costs as float bits.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plans import (
    IParallelPlan,
    JParallelPlan,
    JwParallelPlan,
    PlanConfig,
    WParallelPlan,
)
from repro.core.plans.tree_base import segment_bounds, segments
from repro.gpu.device import RADEON_HD_5850, scaled_device
from repro.gpu.memory import BYTES_PER_ACCEL, BYTES_PER_BODY
from repro.gpu.occupancy import kernel_occupancy
from repro.gpu.timing import (
    BARRIER_CYCLES,
    WG_DISPATCH_CYCLES,
    dispatch,
    launch_cycles,
)
from repro.gpu.trace import trace_launch
from repro.gpu.wavefront import active_wavefronts
from repro.tree.walks import WalkSet

FIELDS = (
    "interactions", "issued_interactions", "active_threads", "tiles",
    "global_bytes", "lds_bytes_peak", "barriers", "reduction_ops",
)


# -- the per-work-group oracle ------------------------------------------------
def _tile(label, active, n_sources, wg_size, wavefront):
    wf = active_wavefronts(active, wavefront)
    tiles = math.ceil(n_sources / wg_size) if n_sources else 0
    return label, dict(
        interactions=active * n_sources,
        issued_interactions=wf * wavefront * n_sources,
        active_threads=active,
        tiles=tiles,
        global_bytes=tiles * wg_size * BYTES_PER_BODY
        + active * (BYTES_PER_BODY + BYTES_PER_ACCEL),
        lds_bytes_peak=wg_size * BYTES_PER_BODY,
        barriers=2 * tiles,
        reduction_ops=0,
    )


def _packed(label, n_targets, n_sources, wg_size, wavefront):
    total = n_targets * n_sources
    slots = math.ceil(total / wg_size) if total else 0
    splits = max(1, wg_size // max(1, n_targets))
    tiles = math.ceil(n_sources / wg_size) if n_sources else 0
    return label, dict(
        interactions=total,
        issued_interactions=active_wavefronts(wg_size, wavefront) * wavefront * slots,
        active_threads=min(wg_size, max(1, total)),
        tiles=tiles,
        global_bytes=tiles * wg_size * BYTES_PER_BODY
        + n_targets * (BYTES_PER_BODY + BYTES_PER_ACCEL),
        lds_bytes_peak=wg_size * BYTES_PER_BODY + n_targets * splits * BYTES_PER_ACCEL,
        barriers=2 * tiles + int(math.log2(max(2, splits))),
        reduction_ops=n_targets * splits,
    )


def _reduction(label, n_outputs, partials, wg_size):
    return label, dict(
        interactions=0,
        issued_interactions=0,
        active_threads=min(n_outputs, wg_size),
        tiles=0,
        global_bytes=n_outputs * (partials + 1) * BYTES_PER_ACCEL,
        lds_bytes_peak=0,
        barriers=0,
        reduction_ops=n_outputs * partials,
    )


def _cycles(device, wg, latency_efficiency):
    compute = wg["issued_interactions"] / device.interactions_per_cycle_per_cu
    compute /= latency_efficiency
    mem = wg["global_bytes"] / device.global_bytes_per_cycle_per_cu
    sync = wg["barriers"] * BARRIER_CYCLES
    red = (
        wg["reduction_ops"] * device.interaction_cycles / device.stream_cores_per_cu / 4.0
    )
    return max(compute, mem) + sync + red + WG_DISPATCH_CYCLES


def _reference_makespan(device, wg_size, records, policy):
    """Makespan, in cycles, of the oracle's records dispatched under ``policy``."""
    work = [wg for _, wg in records]
    occ = kernel_occupancy(
        device, wg_size=wg_size, n_workgroups=len(work),
        lds_bytes_per_wg=max(wg["lds_bytes_peak"] for wg in work),
    )
    costs = np.array([_cycles(device, wg, occ.latency_efficiency) for wg in work])
    _, start = dispatch(costs, device.compute_units, policy)
    return float((start + costs).max())


def _assert_launch_matches(device, launch, records):
    labels, work = zip(*records)
    assert launch.n_workgroups == len(records)
    for name in FIELDS:
        column = getattr(launch.workgroups, name)
        assert column.dtype == np.int64, name
        assert column.tolist() == [wg[name] for wg in work], name
    assert launch.labels() == list(labels)
    occ, costs = launch_cycles(device, launch)
    want = [_cycles(device, wg, occ.latency_efficiency).hex() for wg in work]
    assert [c.hex() for c in costs.tolist()] == want
    assert [iv.label for iv in trace_launch(device, launch).intervals] == list(labels)


# -- shapes -------------------------------------------------------------------
devices = st.sampled_from(
    [RADEON_HD_5850, scaled_device(RADEON_HD_5850, compute_units=3)]
)
wg_sizes = st.sampled_from([1, 16, 64, 96, 200, 256])


def _walks(shapes):
    sizes = np.array([size for size, _ in shapes], dtype=np.int64)
    lengths = np.array([length for _, length in shapes], dtype=np.int64)
    ends = np.cumsum(sizes)
    cells = np.minimum(lengths, 3)
    return WalkSet(
        None,
        groups=np.stack([ends - sizes, ends], axis=1),
        cell_offsets=np.concatenate([[0], np.cumsum(cells)]),
        cells=np.zeros(int(cells.sum()), dtype=np.int64),
        part_offsets=np.concatenate([[0], np.cumsum(lengths - cells)]),
        parts=np.zeros(int((lengths - cells).sum()), dtype=np.int64),
        theta=0.6,
    )


walk_shapes = st.lists(
    st.tuples(st.integers(1, 256), st.integers(0, 6000)), min_size=1, max_size=60
)


@settings(max_examples=60, deadline=None)
@given(device=devices, wg_size=wg_sizes, rows=st.integers(1, 3000), n=st.integers(1, 70000))
def test_i_launch(device, wg_size, rows, n):
    plan = IParallelPlan(PlanConfig(device=device, wg_size=wg_size))
    records = [
        _tile(f"i[{i0}:{min(i0 + wg_size, rows)}]", min(i0 + wg_size, rows) - i0, n,
              wg_size, device.wavefront_size)
        for i0 in range(0, rows, wg_size)
    ]
    _assert_launch_matches(device, plan._launch(rows, n, "i_parallel_forces"), records)


@settings(max_examples=60, deadline=None)
@given(device=devices, wg_size=wg_sizes, n=st.integers(1, 6000))
def test_j_launches(device, wg_size, n):
    plan = JParallelPlan(PlanConfig(device=device, wg_size=wg_size))
    force, s = plan._force_launch(n)
    records = []
    for i0 in range(0, n, wg_size):
        i1 = min(i0 + wg_size, n)
        for j0, j1 in plan._segments(n, s):
            records.append(
                _tile(f"i[{i0}:{i1}]xj[{j0}:{j1}]", i1 - i0, j1 - j0, wg_size,
                      device.wavefront_size)
            )
    _assert_launch_matches(device, force, records)
    reduce = plan._reduction_launch(n, s)
    if s <= 1:
        assert reduce is None
        return
    records = [
        _reduction(f"reduce[{i0}:{min(i0 + wg_size, n)}]",
                   min(i0 + wg_size, n) - i0, s, wg_size)
        for i0 in range(0, n, wg_size)
    ]
    _assert_launch_matches(device, reduce, records)


@settings(max_examples=60, deadline=None)
@given(device=devices, wg_size=wg_sizes, shapes=walk_shapes)
def test_w_launch(device, wg_size, shapes):
    shapes = [(min(size, wg_size), length) for size, length in shapes]
    plan = WParallelPlan(PlanConfig(device=device, wg_size=wg_size))
    records = [
        _tile(f"walk{i}", size, length, wg_size, device.wavefront_size)
        for i, (size, length) in enumerate(shapes)
    ]
    _assert_launch_matches(device, plan._launch(_walks(shapes)), records)


@settings(max_examples=80, deadline=None)
@given(
    device=devices,
    wg_size=wg_sizes,
    shapes=walk_shapes,
    drawn_splits=st.none() | st.lists(st.integers(1, 40), min_size=60, max_size=60),
    every=st.integers(1, 4),
    schedule=st.sampled_from(["hardware", "static"]),
)
def test_jw_launches(device, wg_size, shapes, drawn_splits, every, schedule):
    shapes = [(min(size, wg_size), length) for size, length in shapes]
    plan = JwParallelPlan(PlanConfig(device=device, wg_size=wg_size), schedule=schedule)
    walks = _walks(shapes)
    if drawn_splits is None:
        splits = plan.split_counts(walks)
    else:
        splits = np.array(drawn_splits[: len(walks)], dtype=np.int64)
    for selected in (None, np.arange(0, len(walks), every)):
        ids = range(len(walks)) if selected is None else selected.tolist()
        force_records, reduce_records = [], []
        for i in ids:
            size, length = shapes[i]
            s = int(splits[i])
            for k, (a, b) in enumerate(segments(length, s)):
                force_records.append(
                    _packed(f"walk{i}.seg{k}", size, b - a, wg_size, device.wavefront_size)
                )
            if s > 1:
                reduce_records.append(_reduction(f"reduce.walk{i}", size, s, wg_size))
        force, timings = plan._launches(walks, splits, selected)
        _assert_launch_matches(device, force, force_records)
        policy = "dynamic" if schedule == "hardware" else "static"
        want = [_reference_makespan(device, wg_size, force_records, policy)]
        if reduce_records:
            want.append(_reference_makespan(device, wg_size, reduce_records, "dynamic"))
        assert [t.makespan_cycles.hex() for t in timings] == [m.hex() for m in want]


@settings(max_examples=100, deadline=None)
@given(
    cuts=st.lists(
        st.tuples(st.integers(0, 20000), st.integers(1, 300)), min_size=1, max_size=40
    )
)
def test_segment_bounds_equal_segments(cuts):
    lengths, splits = (np.array(c, dtype=np.int64) for c in zip(*cuts))
    owner, rank, a, b = segment_bounds(lengths, splits)
    want = [
        (i, k, lo, hi)
        for i, (length, s) in enumerate(cuts)
        for k, (lo, hi) in enumerate(segments(length, s))
    ]
    got = list(zip(owner.tolist(), rank.tolist(), a.tolist(), b.tolist()))
    assert got == want

"""Tests for the multi-device jw plan and the report generator."""

import numpy as np
import pytest

from repro.core import JwParallelPlan, MultiDeviceJwPlan, PlanConfig
from repro.errors import ConfigurationError
from repro.nbody.ic import plummer
from repro.tree.bh_force import rms_relative_error

EPS = 1e-2


class TestMultiDeviceJw:
    def test_one_device_matches_jw(self):
        p = plummer(4096, seed=71)
        cfg = PlanConfig(softening=EPS)
        b1 = JwParallelPlan(cfg).step_breakdown(p.positions, p.masses)
        bm = MultiDeviceJwPlan(cfg, n_devices=1).step_breakdown(p.positions, p.masses)
        assert bm.kernel_seconds == pytest.approx(b1.kernel_seconds, rel=1e-9)
        assert bm.total_seconds == pytest.approx(b1.total_seconds, rel=1e-9)

    def test_kernel_scales_with_devices(self):
        p = plummer(65536, seed=71)
        cfg = PlanConfig(softening=EPS)
        k1 = MultiDeviceJwPlan(cfg, n_devices=1).step_breakdown(p.positions, p.masses)
        k4 = MultiDeviceJwPlan(cfg, n_devices=4).step_breakdown(p.positions, p.masses)
        assert k1.kernel_seconds / k4.kernel_seconds > 2.5

    def test_total_saturates_at_host_ceiling(self):
        p = plummer(65536, seed=71)
        cfg = PlanConfig(softening=EPS)
        totals = [
            MultiDeviceJwPlan(cfg, n_devices=d)
            .step_breakdown(p.positions, p.masses)
            .total_seconds
            for d in (1, 4, 16)
        ]
        assert totals[0] > totals[1] >= totals[2] * 0.9
        # far from linear: host walk generation does not scale
        assert totals[0] / totals[2] < 4.0

    def test_host_seconds_independent_of_devices(self):
        p = plummer(16384, seed=72)
        cfg = PlanConfig(softening=EPS)
        h1 = MultiDeviceJwPlan(cfg, n_devices=1).step_breakdown(p.positions, p.masses)
        h8 = MultiDeviceJwPlan(cfg, n_devices=8).step_breakdown(p.positions, p.masses)
        assert h1.host_seconds == pytest.approx(h8.host_seconds, rel=1e-12)

    def test_functional_identical_to_jw(self):
        p = plummer(512, seed=73)
        cfg = PlanConfig(softening=EPS)
        a1 = JwParallelPlan(cfg).accelerations(p.positions, p.masses)
        a2 = MultiDeviceJwPlan(cfg, n_devices=4).accelerations(p.positions, p.masses)
        # same walks, same lists; only j-split segmentation may differ,
        # so agreement is at float32 summation-order level
        assert rms_relative_error(a2, a1) < 1e-5

    def test_plan_name_and_meta(self):
        p = plummer(1024, seed=74)
        b = MultiDeviceJwPlan(PlanConfig(softening=EPS), n_devices=2).step_breakdown(
            p.positions, p.masses
        )
        assert b.plan == "jw-multi"
        assert b.meta["n_devices"] == 2

    def test_rejects_zero_devices(self):
        with pytest.raises(ConfigurationError):
            MultiDeviceJwPlan(PlanConfig(), n_devices=0)


class TestReportGenerator:
    def test_generates_selected_experiments(self, tmp_path):
        from repro.bench.report import generate_report

        out = generate_report(
            tmp_path / "rep.md", quick=True, experiments=["abl-queue"]
        )
        text = out.read_text()
        assert "# PTPM N-body reproduction report" in text
        assert "abl-queue" in text
        assert "dynamic" in text

    def test_unknown_experiment_rejected(self, tmp_path):
        from repro.bench.report import generate_report

        with pytest.raises(KeyError, match="unknown"):
            generate_report(tmp_path / "rep.md", experiments=["fig99"])

    def test_cli_report_command(self, tmp_path, capsys):
        from repro.cli import main

        # restrict via --quick; write to tmp to avoid polluting the repo
        out_path = tmp_path / "cli_report.md"
        assert main(["bench", "report", "--quick", "--output", str(out_path)]) == 0
        assert out_path.exists()
        assert "report written" in capsys.readouterr().out

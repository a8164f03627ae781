"""Tests for the throughput metrics and the device calibration."""

import pytest

from repro.core.hostmodel import PENTIUM_E5300
from repro.gpu.device import RADEON_HD_5850
from repro.perfmodel.calibration import (
    PAPER_SUSTAINED_GFLOPS,
    calibrate_interaction_cycles,
    expected_cpu_speedup,
    sustained_gflops,
)
from repro.perfmodel.metrics import gflops_rate, speedup

DEV = RADEON_HD_5850


class TestMetrics:
    def test_gflops_rate(self):
        assert gflops_rate(1e9, 1.0) == pytest.approx(20.0)

    def test_speedup(self):
        assert speedup(10.0, 2.0) == pytest.approx(5.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            gflops_rate(1, 0.0)
        with pytest.raises(ValueError):
            speedup(0.0, 1.0)

class TestCalibration:
    def test_shipped_device_matches_paper_sustained(self):
        assert sustained_gflops(DEV) == pytest.approx(PAPER_SUSTAINED_GFLOPS, rel=0.1)

    def test_calibrate_roundtrip(self):
        d = calibrate_interaction_cycles(DEV, 250.0)
        assert sustained_gflops(d) == pytest.approx(250.0, rel=1e-9)

    def test_calibrate_rejects_bad_target(self):
        with pytest.raises(ValueError):
            calibrate_interaction_cycles(DEV, 0.0)

    def test_expected_cpu_speedup_near_paper(self):
        s = expected_cpu_speedup(DEV, PENTIUM_E5300)
        assert 300 < s < 900  # "about 400x" at rate level

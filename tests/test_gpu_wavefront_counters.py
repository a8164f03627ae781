"""Unit tests for wavefront accounting and cost counters."""

import pytest

from repro.gpu.counters import CostCounters
from repro.gpu.wavefront import active_wavefronts


class TestActiveWavefronts:
    @pytest.mark.parametrize(
        "items,expected", [(0, 0), (1, 1), (64, 1), (65, 2), (256, 4), (257, 5)]
    )
    def test_counts(self, items, expected):
        assert active_wavefronts(items, 64) == expected

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            active_wavefronts(-1, 64)
        with pytest.raises(ValueError):
            active_wavefronts(1, 0)


class TestCostCounters:
    def test_defaults_zero(self):
        c = CostCounters()
        assert c.interactions == 0
        assert c.flops() == 0.0

    def test_add_accumulates(self):
        a = CostCounters(interactions=10, global_bytes=100, barriers=2)
        b = CostCounters(interactions=5, lds_bytes=50, reductions=1)
        out = a.add(b)
        assert out is a
        assert a.interactions == 15
        assert a.global_bytes == 100
        assert a.lds_bytes == 50
        assert a.barriers == 2
        assert a.reductions == 1

    def test_copy_is_independent(self):
        a = CostCounters(interactions=3)
        b = a.copy()
        b.interactions += 1
        assert a.interactions == 3

    def test_flops_conventions(self):
        c = CostCounters(interactions=10)
        assert c.flops() == 200.0
        assert c.flops(38) == 380.0

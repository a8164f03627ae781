"""Unit tests for flop accounting."""

import pytest

from repro.nbody.flops import (
    DEFAULT_FLOPS_PER_INTERACTION,
    FLOPS_PER_INTERACTION_GEMS,
    FLOPS_PER_INTERACTION_RSQRT,
    gflops,
    interaction_flops,
)


class TestFlops:
    def test_conventions(self):
        assert FLOPS_PER_INTERACTION_GEMS == 20
        assert FLOPS_PER_INTERACTION_RSQRT == 38
        assert DEFAULT_FLOPS_PER_INTERACTION == FLOPS_PER_INTERACTION_GEMS

    def test_interaction_flops(self):
        assert interaction_flops(10) == 200.0
        assert interaction_flops(10, 38) == 380.0

    def test_interaction_flops_rejects_negative(self):
        with pytest.raises(ValueError):
            interaction_flops(-1)

    def test_gflops(self):
        # 1e9 interactions at 20 flops in 1 s = 20 GFLOPS
        assert gflops(1_000_000_000, 1.0) == pytest.approx(20.0)

    def test_gflops_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            gflops(10, 0.0)

"""Unit tests for wavefront accounting."""

import pytest

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

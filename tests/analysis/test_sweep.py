"""Unit tests for the 2-D sweep grid."""

import pytest

from repro.analysis.sweep import sweep_2d
from repro.errors import AnalysisError


class TestSweep2D:
    def test_grid_orientation(self):
        grid = sweep_2d(
            "x", "y", "z", [1.0, 2.0], [10.0, 20.0, 30.0],
            lambda x, y: x * y,
        )
        assert grid.at(0, 0) == 10.0
        assert grid.at(1, 2) == 60.0

    def test_none_cells(self):
        grid = sweep_2d(
            "x", "y", "z", [1.0, 2.0], [1.0, 2.0],
            lambda x, y: None if y > x else x + y,
        )
        assert grid.at(0, 1) is None
        assert grid.defined_cells() == 3

    def test_validation(self):
        with pytest.raises(AnalysisError):
            sweep_2d("x", "y", "z", [], [1.0], lambda x, y: 0.0)

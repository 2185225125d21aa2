"""Unit tests for the discretization grid."""

import numpy as np
import pytest

from repro.core.grid import Grid
from repro.exceptions import GridError
from repro.types import BoundingBox


class TestConstruction:
    def test_fit_rounds_resolution_to_power_of_two(self):
        grid = Grid.fit(BoundingBox(0, 0, 10, 10), delta=1.0)
        assert grid.resolution == 16  # ceil(10) -> 16

    def test_fit_exact_power_of_two(self):
        grid = Grid.fit(BoundingBox(0, 0, 8, 8), delta=1.0)
        # Padding nudges past 8 cells -> 16.
        assert grid.resolution in (8, 16)
        assert grid.side >= 8.0

    def test_fit_uses_longer_side(self):
        grid = Grid.fit(BoundingBox(0, 0, 2, 30), delta=1.0)
        assert grid.side >= 30

    def test_rejects_non_positive_delta(self):
        with pytest.raises(GridError):
            Grid(0, 0, 0.0, 8)
        with pytest.raises(GridError):
            Grid.fit(BoundingBox(0, 0, 1, 1), delta=-1.0)

    def test_rejects_non_power_of_two_resolution(self):
        with pytest.raises(GridError):
            Grid(0, 0, 1.0, 7)

    def test_num_cells(self):
        assert Grid(0, 0, 1.0, 8).num_cells == 64

    def test_half_diagonal(self):
        grid = Grid(0, 0, 2.0, 8)
        assert grid.half_diagonal == pytest.approx(np.sqrt(2.0))


class TestPointMapping:
    def test_cell_of_interior_point(self):
        grid = Grid(0, 0, 1.0, 8)
        assert grid.cell_of(2.5, 3.5) == (2, 3)

    def test_cell_of_clamps_outside_points(self):
        grid = Grid(0, 0, 1.0, 8)
        assert grid.cell_of(-5.0, 100.0) == (0, 7)

    def test_z_values_vectorized_match_scalar(self):
        grid = Grid(0, 0, 0.5, 16)
        rng = np.random.default_rng(0)
        points = rng.uniform(0, 8, (50, 2))
        zs = grid.z_values_of(points)
        for (x, y), z in zip(points, zs):
            assert int(z) == grid.z_value_of(x, y)

    def test_reference_point_is_cell_center(self):
        grid = Grid(0, 0, 1.0, 8)
        z = grid.z_value_of(2.2, 3.9)
        assert grid.reference_point(z) == (2.5, 3.5)

    def test_reference_point_within_half_diagonal(self):
        grid = Grid(0, 0, 0.25, 64)
        rng = np.random.default_rng(1)
        for x, y in rng.uniform(0, 16, (100, 2)):
            px, py = grid.reference_point(grid.z_value_of(x, y))
            assert np.hypot(px - x, py - y) <= grid.half_diagonal + 1e-12

    def test_reference_point_rejects_out_of_grid(self):
        grid = Grid(0, 0, 1.0, 8)
        with pytest.raises(GridError):
            grid.reference_point(1 << 40)


class TestVectorizedGeometry:
    def test_matches_scalar_geometry_bit_for_bit(self):
        grid = Grid(0.37, -1.2, 0.013, 64)
        zs = np.random.default_rng(3).integers(0, grid.num_cells, 200)
        centres = grid.reference_points(zs)
        corners = grid.cell_origins(zs)
        for z, centre, corner in zip(zs.tolist(), centres, corners):
            assert tuple(centre) == grid.reference_point(z)
            box = grid.cell_bounds(z)
            assert tuple(corner) == (box.min_x, box.min_y)

    def test_rejects_out_of_grid(self):
        grid = Grid(0, 0, 1.0, 8)
        for zs in ([3, 64], [-1], [1 << 40]):
            with pytest.raises(GridError):
                grid.reference_points(zs)
            with pytest.raises(GridError):
                grid.cell_origins(zs)
        assert grid.cell_origins([]).shape == (0, 2)


class TestCellGeometry:
    def test_cell_bounds(self):
        grid = Grid(0, 0, 1.0, 8)
        z = grid.z_value_of(2.5, 3.5)
        box = grid.cell_bounds(z)
        assert (box.min_x, box.min_y, box.max_x, box.max_y) == (2.0, 3.0, 3.0, 4.0)

    def test_min_distance_inside_cell_zero(self):
        grid = Grid(0, 0, 1.0, 8)
        z = grid.z_value_of(2.5, 3.5)
        assert grid.min_distance_to_cell(2.9, 3.1, z) == 0.0

    def test_min_distance_outside_cell(self):
        grid = Grid(0, 0, 1.0, 8)
        z = grid.z_value_of(2.5, 3.5)
        assert grid.min_distance_to_cell(2.5, 6.0, z) == pytest.approx(2.0)

    def test_min_distances_vectorized_match_scalar(self):
        grid = Grid(0, 0, 1.0, 8)
        z = grid.z_value_of(4.5, 4.5)
        rng = np.random.default_rng(2)
        points = rng.uniform(0, 8, (40, 2))
        vector = grid.min_distances_to_cell(points, z)
        for (x, y), d in zip(points, vector):
            assert d == pytest.approx(grid.min_distance_to_cell(x, y, z))

    def test_cell_min_distance_lower_bounds_center_distance(self):
        grid = Grid(0, 0, 1.0, 8)
        z = grid.z_value_of(4.5, 4.5)
        cx, cy = grid.reference_point(z)
        rng = np.random.default_rng(3)
        for x, y in rng.uniform(0, 8, (50, 2)):
            d_cell = grid.min_distance_to_cell(x, y, z)
            d_center = np.hypot(cx - x, cy - y)
            assert d_cell <= d_center + 1e-12

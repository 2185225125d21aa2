"""Regular grid over the square region enclosing all trajectories.

The paper (Section III-A) covers the data with a square region ``A`` of
side length ``U`` partitioned into an ``l x l`` grid of side ``delta``,
where ``l = U / delta`` is a power of two.  Each cell has a z-value and a
reference point (its center).

Given an arbitrary ``delta`` request and a bounding box, :func:`Grid.fit`
rounds the resolution up to the next power of two so the whole region is
covered with cells of side *at most* the requested ``delta``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import GridError
from ..types import BoundingBox
from .zorder import z_decode, z_decode_cells, z_encode, z_encode_array

__all__ = ["Grid"]


def _next_power_of_two(n: int) -> int:
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


@dataclass(frozen=True)
class Grid:
    """An ``l x l`` grid with origin, cell side ``delta``, and resolution ``l``.

    Attributes
    ----------
    origin_x, origin_y:
        Lower-left corner of the square region ``A``.
    delta:
        Cell side length (the paper's grid granularity parameter).
    resolution:
        Number of cells per axis ``l`` (a power of two).
    """

    origin_x: float
    origin_y: float
    delta: float
    resolution: int

    def __post_init__(self) -> None:
        if self.delta <= 0:
            raise GridError(f"delta must be positive, got {self.delta}")
        if self.resolution < 1 or self.resolution & (self.resolution - 1):
            raise GridError(
                f"resolution must be a power of two, got {self.resolution}"
            )

    # -- construction -----------------------------------------------------

    @classmethod
    def fit(cls, box: BoundingBox, delta: float, padding: float = 1e-9) -> "Grid":
        """Grid covering ``box`` with cells of side at most ``delta``.

        The region is a square with side ``l * delta`` where ``l`` is the
        smallest power of two such that the square covers the box.  A tiny
        ``padding`` keeps points on the max edge strictly inside.
        """
        if delta <= 0:
            raise GridError(f"delta must be positive, got {delta}")
        side = max(box.width, box.height) + padding
        cells = max(1, int(np.ceil(side / delta)))
        resolution = _next_power_of_two(cells)
        return cls(origin_x=box.min_x, origin_y=box.min_y,
                   delta=delta, resolution=resolution)

    # -- properties --------------------------------------------------------

    @property
    def side(self) -> float:
        """Side length ``U`` of the square region ``A``."""
        return self.delta * self.resolution

    @property
    def num_cells(self) -> int:
        """Total number of cells ``M = l * l``."""
        return self.resolution * self.resolution

    @property
    def half_diagonal(self) -> float:
        """``sqrt(2) * delta / 2`` — max distance from a point in a cell
        to the cell's reference point; the slack in every bound."""
        return float(np.sqrt(2.0) * self.delta / 2.0)

    # -- point <-> cell ----------------------------------------------------

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        """(column, row) of the cell containing the point, clamped to A."""
        col = int((x - self.origin_x) / self.delta)
        row = int((y - self.origin_y) / self.delta)
        col = min(max(col, 0), self.resolution - 1)
        row = min(max(row, 0), self.resolution - 1)
        return col, row

    def z_value_of(self, x: float, y: float) -> int:
        """Z-value of the cell containing the point."""
        col, row = self.cell_of(x, y)
        return z_encode(col, row)

    def z_values_of(self, points: np.ndarray) -> np.ndarray:
        """Vectorized z-values of an ``(n, 2)`` point array."""
        cols = ((points[:, 0] - self.origin_x) / self.delta).astype(np.int64)
        rows = ((points[:, 1] - self.origin_y) / self.delta).astype(np.int64)
        np.clip(cols, 0, self.resolution - 1, out=cols)
        np.clip(rows, 0, self.resolution - 1, out=rows)
        return z_encode_array(cols, rows)

    def reference_point(self, z: int) -> tuple[float, float]:
        """Center point of the cell with z-value ``z``."""
        col, row = z_decode(z)
        if col >= self.resolution or row >= self.resolution:
            raise GridError(f"z-value {z} outside {self.resolution}x{self.resolution} grid")
        return (self.origin_x + (col + 0.5) * self.delta,
                self.origin_y + (row + 0.5) * self.delta)

    def _cells_of(self, zs) -> np.ndarray:
        """``(n, 2)`` (column, row) pairs of a z-value array, all of
        which must lie inside the grid."""
        zs = np.asarray(zs, dtype=np.int64)
        if zs.size and not 0 <= zs.min() <= zs.max() < self.num_cells:
            raise GridError(f"z-value outside {self.resolution}x"
                            f"{self.resolution} grid in {zs.tolist()}")
        return z_decode_cells(zs)

    def reference_points(self, zs) -> np.ndarray:
        """Vectorized reference points for an array of z-values."""
        return (np.array([self.origin_x, self.origin_y])
                + (self._cells_of(zs) + 0.5) * self.delta)

    def cell_origins(self, zs) -> np.ndarray:
        """Vectorized lower-left cell corners (:meth:`cell_bounds`'
        ``min_x, min_y``) for an array of z-values."""
        return (np.array([self.origin_x, self.origin_y])
                + self._cells_of(zs) * self.delta)

    def own_cell_center_distances(self, points: np.ndarray,
                                  zs: np.ndarray | None = None) -> np.ndarray:
        """Distance of each point to the center of *its own* cell.

        The maximum over a trajectory upper-bounds both the Hausdorff
        and the Frechet distance to its reference trajectory (aligning
        every point with its own cell center is a valid coupling), in
        O(L) instead of the O(L^2) exact distance.  ``zs`` optionally
        supplies ``z_values_of(points)`` when the caller already has it.
        """
        centers = self.reference_points(
            self.z_values_of(points) if zs is None else zs)
        return np.hypot(points[:, 0] - centers[:, 0],
                        points[:, 1] - centers[:, 1])

    def cell_bounds(self, z: int) -> BoundingBox:
        """Bounding box of the cell with z-value ``z``."""
        col, row = z_decode(z)
        min_x = self.origin_x + col * self.delta
        min_y = self.origin_y + row * self.delta
        return BoundingBox(min_x, min_y, min_x + self.delta, min_y + self.delta)

    def min_distance_to_cell(self, x: float, y: float, z: int) -> float:
        """Min Euclidean distance from a point to the cell with z-value ``z``.

        Used as ``d'(q_i, p*_j)`` in the DTW bounds (paper, Eq. 15 note)
        because DTW lacks the triangle inequality.
        """
        return self.cell_bounds(z).min_distance(x, y)

    def min_distances_to_cell(self, points: np.ndarray, z: int) -> np.ndarray:
        """Vectorized :func:`min_distance_to_cell` for ``(n, 2)`` points."""
        bounds = self.cell_bounds(z)
        dx = np.maximum.reduce([bounds.min_x - points[:, 0],
                                np.zeros(len(points)),
                                points[:, 0] - bounds.max_x])
        dy = np.maximum.reduce([bounds.min_y - points[:, 1],
                                np.zeros(len(points)),
                                points[:, 1] - bounds.max_y])
        return np.hypot(dx, dy)

"""Geohash-style spatial hashing over an arbitrary bounding box.

The heterogeneous strategy encodes each trajectory as a reference
trajectory using geohash (paper, Section V-B) and groups trajectories
with equal encodings.  A geohash at precision ``p`` is the interleaved
binary subdivision of the box, ``p`` bits deep — exactly the z-order
prefix, which is what makes coarsening (dropping trailing bits) cheap.
"""

from __future__ import annotations

import numpy as np

from ..types import BoundingBox, Trajectory

__all__ = ["geohash_cell", "geohash_prefix", "trajectory_signature"]


def geohash_cell(x: float, y: float, box: BoundingBox, precision: int) -> int:
    """Geohash of a point: ``precision`` rounds of alternating bisection.

    Each round appends one x bit and one y bit (x first, like classic
    geohash's longitude-first convention), so the result has
    ``2 * precision`` bits.
    """
    if precision < 0:
        raise ValueError(f"precision must be >= 0, got {precision}")
    code = 0
    min_x, max_x = box.min_x, box.max_x
    min_y, max_y = box.min_y, box.max_y
    for _ in range(precision):
        mid_x = (min_x + max_x) / 2.0
        bit_x = 1 if x >= mid_x else 0
        if bit_x:
            min_x = mid_x
        else:
            max_x = mid_x
        mid_y = (min_y + max_y) / 2.0
        bit_y = 1 if y >= mid_y else 0
        if bit_y:
            min_y = mid_y
        else:
            max_y = mid_y
        code = (code << 2) | (bit_x << 1) | bit_y
    return code


def geohash_prefix(code: int, from_precision: int, to_precision: int) -> int:
    """Coarsen a geohash by dropping trailing bit pairs."""
    if to_precision > from_precision:
        raise ValueError("cannot refine a geohash by prefixing")
    return code >> (2 * (from_precision - to_precision))


def trajectory_signature(traj: Trajectory, box: BoundingBox,
                         precision: int) -> tuple[int, ...]:
    """Geohash signature: consecutive-deduplicated cell sequence.

    Two trajectories with equal signatures traverse the same cell
    sequence at this granularity and are treated as one cluster.
    """
    codes = _vector_geohash(traj.points, box, precision)
    keep = np.empty(len(codes), dtype=bool)
    keep[0] = True
    keep[1:] = codes[1:] != codes[:-1]
    return tuple(int(c) for c in codes[keep])


def _vector_geohash(points: np.ndarray, box: BoundingBox,
                    precision: int) -> np.ndarray:
    """Vectorized geohash for an ``(n, 2)`` point array."""
    scale = 1 << precision
    fx = np.clip((points[:, 0] - box.min_x) / max(box.width, 1e-300), 0, None)
    fy = np.clip((points[:, 1] - box.min_y) / max(box.height, 1e-300), 0, None)
    ix = np.minimum((fx * scale).astype(np.int64), scale - 1)
    iy = np.minimum((fy * scale).astype(np.int64), scale - 1)
    code = np.zeros(len(points), dtype=np.int64)
    for bit in range(precision - 1, -1, -1):
        code = (code << 2) | (((ix >> bit) & 1) << 1) | ((iy >> bit) & 1)
    return code

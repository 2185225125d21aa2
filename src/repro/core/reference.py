"""Trajectory discretization into reference trajectories (Definition 4).

A reference trajectory replaces each sample point by the center of its
grid cell; equivalently it is the sequence of z-values of the cells the
trajectory visits.  Three encoding modes exist, selected by measure:

* ``"collapse"`` — consecutive duplicate z-values are merged.  Used for
  Hausdorff (unoptimized trie), Frechet and DTW, whose couplings allow
  many-to-one matching, so collapsing preserves the bounds.
* ``"dedup"`` — *all* duplicates are dropped (the z-value set).  Only
  valid for order-independent measures (Hausdorff); this is step (1) of
  the Section III-C optimization, with re-ordering handled by
  :mod:`repro.core.rearrange`.
* ``"full"`` — one z-value per sample point, no merging.  Required by
  the edit-distance measures (LCSS, EDR, ERP) whose alignments consume
  each element exactly once, so reference and trajectory positions must
  stay 1:1 for the relaxed-DP bounds to be valid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..distances.base import Measure
from ..types import Trajectory
from .grid import Grid

__all__ = ["ReferenceTrajectory", "ReferenceEncoder", "encoder_mode_for"]

_MODES = ("collapse", "dedup", "full")


def encoder_mode_for(measure: Measure, optimized: bool = False) -> str:
    """Default encoding mode for a measure.

    ``optimized=True`` requests the Section III-C deduplicated encoding,
    which is only honoured for order-independent measures.
    """
    if not measure.order_sensitive and optimized:
        return "dedup"
    if measure.name in ("lcss", "edr", "erp"):
        return "full"
    return "collapse"


@dataclass(frozen=True)
class ReferenceTrajectory:
    """A trajectory's z-value sequence plus its id."""

    traj_id: int
    z_values: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.z_values)

    def reference_points(self, grid: Grid) -> np.ndarray:
        """The ``(n, 2)`` array of cell-center coordinates."""
        out = np.empty((len(self.z_values), 2), dtype=np.float64)
        for i, z in enumerate(self.z_values):
            out[i] = grid.reference_point(z)
        return out


class ReferenceEncoder:
    """Converts trajectories to reference trajectories for one grid."""

    def __init__(self, grid: Grid, mode: str = "collapse"):
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        self.grid = grid
        self.mode = mode

    def encode(self, traj: Trajectory) -> ReferenceTrajectory:
        """Reference trajectory of ``traj``."""
        return self.encode_many([traj])[0]

    def encode_many(self, trajs, zs: np.ndarray | None = None,
                    ) -> list[ReferenceTrajectory]:
        """Reference trajectories of ``trajs`` from one z-value pass;
        ``zs`` optionally supplies ``grid.z_values_of`` of their
        concatenated points (the index build shares it with ``Dmax``)."""
        trajs = list(trajs)
        if any(t.traj_id is None for t in trajs):
            raise ValueError("trajectory must have an id before encoding")
        if not trajs:
            return []
        if zs is None:
            zs = self.grid.z_values_of(np.concatenate([t.points for t in trajs]))
        ends = np.cumsum([len(t) for t in trajs])
        if self.mode == "collapse":
            keep = np.append(True, zs[1:] != zs[:-1])  # run starts
            keep[ends[:-1]] = True  # a trajectory's first point is one
            zs, ends = zs[keep], np.cumsum(keep)[ends - 1]
        # "dedup" keeps first-visit order: only a default, the
        # re-arrangement is free to re-order (Hausdorff ignores order).
        dedup = self.mode == "dedup"
        values, ends = zs.tolist(), ends.tolist()
        return [ReferenceTrajectory(t.traj_id, tuple(
                    dict.fromkeys(values[lo:hi]) if dedup else values[lo:hi]))
                for t, lo, hi in zip(trajs, [0] + ends, ends)]

"""Columnar trajectory store: one contiguous point array per partition.

The batch refinement engine (:mod:`repro.distances.batch`) screens a
candidate set as one padded tensor, which requires the partition's
trajectories to be gathered cheaply into contiguous arrays.  This
module provides that layout: every trajectory's points are packed into
a single ``(total_points, 2)`` float64 array plus an offsets array,
built once at index-construction time and shared by
:class:`~repro.core.rptrie.RPTrie`,
:class:`~repro.core.succinct.SuccinctRPTrie` and the baselines.

Design notes:

* Lookups stay exact: ``points_of`` returns the trajectory's original
  (bit-identical) coordinates, so batched and per-pair code paths
  produce the same floating-point results.
* Incremental inserts are buffered in a pending list and consolidated
  lazily, keeping ``append`` O(1) amortized instead of re-concatenating
  the column on every insert.
* Per-measure derived columns (the ERP gap-mass of every trajectory)
  are cached on the store, so they are computed once per partition
  instead of once per (query, candidate) pair.
* The columnar arrays are exactly what :mod:`repro.persistence` writes,
  so a loaded index re-creates its store zero-copy.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable

import numpy as np

from ..types import Trajectory

__all__ = ["TrajectoryStore"]


class TrajectoryStore:
    """Columnar layout over one partition's trajectories.

    Parameters
    ----------
    trajectories:
        Initial contents; more can be added with :meth:`append`.
    """

    def __init__(self, trajectories: Iterable[Trajectory] = ()):
        self._by_id: dict[int, Trajectory] = {}
        self._points = np.empty((0, 2), dtype=np.float64)
        self._offsets = np.zeros(1, dtype=np.int64)
        self._tids = np.empty(0, dtype=np.int64)
        self._row_by_tid: dict[int, int] = {}
        self._pending: list[Trajectory] = []
        self._mass_cache: dict[tuple[float, float], np.ndarray] = {}
        self._extent: np.ndarray | None = None
        #: Number of :meth:`gather` tensor builds this store has
        #: performed.  Pure observability (benchmarks compare it across
        #: sharing configurations); memoizing views that serve a cached
        #: tensor do not call through, so do not count here.
        self.gather_calls = 0
        self._lock = threading.Lock()
        for traj in trajectories:
            self.append(traj)
        self._consolidate()

    @classmethod
    def from_columnar(cls, tids: np.ndarray, offsets: np.ndarray,
                      points: np.ndarray) -> "TrajectoryStore":
        """Rebuild a store from persisted columnar arrays (zero-copy:
        the trajectories are views into ``points``)."""
        store = cls()
        store._points = np.ascontiguousarray(points, dtype=np.float64)
        store._offsets = np.asarray(offsets, dtype=np.int64)
        store._tids = np.asarray(tids, dtype=np.int64)
        for row, tid in enumerate(store._tids.tolist()):
            lo, hi = store._offsets[row], store._offsets[row + 1]
            traj = Trajectory(store._points[lo:hi], traj_id=tid)
            store._by_id[tid] = traj
            store._row_by_tid[tid] = row
        return store

    # -- mutation -----------------------------------------------------------

    def append(self, traj: Trajectory) -> None:
        """Add one trajectory (id must be fresh and non-None)."""
        if traj.traj_id is None or traj.traj_id in self._by_id:
            raise ValueError(
                f"trajectory must carry a fresh id, got {traj.traj_id!r}")
        self._by_id[traj.traj_id] = traj
        self._pending.append(traj)

    def _consolidate(self) -> None:
        # Read paths (gather/erp_masses/columnar) call this and may run
        # concurrently under the thread execution backend; the lock
        # serializes consolidation so pending trajectories are appended
        # exactly once.  Consolidation only appends — existing rows keep
        # their offsets and the old points stay a prefix of the new
        # array — so readers racing with it still see consistent data
        # for every already-consolidated trajectory.
        if not self._pending:
            return
        with self._lock:
            if not self._pending:
                return
            blocks = [self._points] + [t.points for t in self._pending]
            lengths = [len(t) for t in self._pending]
            row = len(self._tids)
            for traj in self._pending:
                self._row_by_tid[traj.traj_id] = row
                row += 1
            self._points = np.concatenate(blocks, axis=0)
            tail = self._offsets[-1] + np.cumsum(lengths, dtype=np.int64)
            self._offsets = np.concatenate([self._offsets, tail])
            self._tids = np.concatenate(
                [self._tids,
                 np.array([t.traj_id for t in self._pending],
                          dtype=np.int64)])
            self._mass_cache.clear()
            self._extent = None
            self._pending.clear()

    def __getstate__(self) -> dict:
        self._consolidate()
        state = self.__dict__.copy()
        state["_lock"] = None  # locks cannot cross process boundaries
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # -- lookups ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, tid: int) -> bool:
        return tid in self._by_id

    @property
    def num_trajectories(self) -> int:
        """Number of trajectories held (including pending inserts)."""
        return len(self._by_id)

    @property
    def total_points(self) -> int:
        """Total point count across all trajectories."""
        self._consolidate()
        return int(self._offsets[-1])

    def get(self, tid: int) -> Trajectory:
        """The :class:`~repro.types.Trajectory` with id ``tid``."""
        return self._by_id[tid]

    def trajectories(self) -> list[Trajectory]:
        """All trajectories, in insertion order."""
        return list(self._by_id.values())

    def ids(self) -> list[int]:
        """All trajectory ids, in insertion order."""
        return list(self._by_id)

    def points_of(self, tid: int) -> np.ndarray:
        """The trajectory's ``(n, 2)`` point array (bit-identical to the
        array it was inserted with)."""
        return self._by_id[tid].points

    def extent(self) -> np.ndarray:
        """``[[xmin, ymin], [xmax, ymax]]`` over every stored point
        (no rows for an empty store); cached until the next insert is
        consolidated."""
        self._consolidate()
        if self._extent is None:
            points = self._points
            self._extent = (np.array([points.min(axis=0), points.max(axis=0)])
                            if len(points) else points)
        return self._extent

    def columnar(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(tids, offsets, points)`` — the persisted representation."""
        self._consolidate()
        return self._tids, self._offsets, self._points

    # -- batch access -------------------------------------------------------

    def lengths(self, tids: Iterable[int]) -> np.ndarray:
        """Point counts for ``tids`` as an int64 array."""
        return np.array([len(self._by_id[tid]) for tid in tids],
                        dtype=np.int64)

    def gather(self, tids: Iterable[int],
               max_len: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Pack the candidates into one padded tensor.

        Parameters
        ----------
        tids:
            Trajectory ids to gather, in the order the rows of the
            returned tensor should follow.
        max_len:
            When given, each trajectory is clipped to its first
            ``max_len`` points (used by the per-prefix ERP bound, which
            only needs a small corner of each candidate).

        Returns
        -------
        (padded, lengths):
            ``padded`` has shape ``(c, Lmax, 2)`` with rows padded with
            ``+inf`` past each trajectory's (possibly clipped) length —
            distances to the padding come out ``+inf``, so
            min-reductions in the batch kernels skip it without a
            masking pass.  ``lengths`` has shape ``(c,)`` and holds the
            gathered (clipped) lengths.  Both are empty when ``tids``
            is.
        """
        self._consolidate()
        self.gather_calls += 1
        tids = list(tids)
        if not tids:
            return (np.empty((0, 0, 2), dtype=np.float64),
                    np.empty(0, dtype=np.int64))
        rows = np.array([self._row_by_tid[tid] for tid in tids],
                        dtype=np.int64)
        starts = self._offsets[rows]
        lengths = self._offsets[rows + 1] - starts
        if max_len is not None:
            lengths = np.minimum(lengths, int(max_len))
        width = int(lengths.max())
        cols = np.arange(width, dtype=np.int64)
        valid = cols[np.newaxis, :] < lengths[:, np.newaxis]
        padded = np.full((len(tids), width, 2), np.inf, dtype=np.float64)
        padded[valid] = self._points[(starts[:, np.newaxis] + cols)[valid]]
        return padded, lengths

    def erp_masses(self, tids: Iterable[int],
                   gap: tuple[float, float]) -> np.ndarray:
        """Gap-cost mass ``sum_i ||p_i - g||`` per candidate.

        Masses are query-independent, so they are computed once per
        (store, gap) and cached; each per-trajectory sum runs over the
        same contiguous slice the per-pair ERP prefilter would use,
        keeping the values bit-identical.
        """
        self._consolidate()
        key = (float(gap[0]), float(gap[1]))
        masses = self._mass_cache.get(key)
        if masses is None:
            flat = np.hypot(self._points[:, 0] - key[0],
                            self._points[:, 1] - key[1])
            offsets = self._offsets
            masses = np.array(
                [flat[offsets[row]:offsets[row + 1]].sum()
                 for row in range(len(self._tids))], dtype=np.float64)
            self._mass_cache[key] = masses
        rows = [self._row_by_tid[tid] for tid in tids]
        return masses[rows]

    def erp_prefix_masses(self, tids: Iterable[int],
                          gap: tuple[float, float],
                          depth: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-candidate prefix gap masses for the tighter ERP bound.

        Returns ``(prefixes, totals)``: ``prefixes`` has shape ``(c,
        depth + 1)``, column ``j`` holding the gap-cost mass of the
        first ``min(j, len)`` points of each candidate (shorter
        trajectories plateau at their total); ``totals`` is
        :meth:`erp_masses`.  Each prefix is the trajectory's *own*
        running sum from zero and each total its own ``sum`` — what a
        query computes for itself with ``cumsum``/``sum`` — so a
        candidate identical to the query gets bit-equal masses and a
        bound of exactly 0 (differences of one store-wide running sum
        carried its rounding, ~1e-9 on a large column, into every bound).
        """
        self._consolidate()
        tids = list(tids)
        rows = np.array([self._row_by_tid[tid] for tid in tids],
                        dtype=np.int64)
        prefixes = np.zeros((len(tids), depth + 1), dtype=np.float64)
        if rows.size:
            offs = self._offsets[rows]
            lens = self._offsets[rows + 1] - offs
            cols = np.arange(depth, dtype=np.int64)
            valid = cols < lens[:, np.newaxis]
            points = self._points[(offs[:, np.newaxis] + cols)[valid]]
            steps = np.zeros((len(tids), depth), dtype=np.float64)
            steps[valid] = np.hypot(points[:, 0] - gap[0],
                                    points[:, 1] - gap[1])
            np.cumsum(steps, axis=1, out=prefixes[:, 1:])
        return prefixes, self.erp_masses(tids, gap)

    def memory_bytes(self) -> int:
        """Footprint of the columnar arrays (excludes the originals)."""
        self._consolidate()
        return int(self._points.nbytes + self._offsets.nbytes
                   + self._tids.nbytes)

    def __repr__(self) -> str:
        return (f"TrajectoryStore(n={len(self._by_id)}, "
                f"points={self.total_points})")

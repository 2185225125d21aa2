"""Incremental lower bounds for best-first RP-Trie traversal.

This module implements Algorithm 1 (``CompLB``) and its extensions: for
each measure a :class:`BoundComputer` maintains per-path intermediate
results so that extending the bound by one reference point costs O(m)
instead of O(mn) (paper, Section IV-C).

Per measure:

* **Hausdorff** — state is the row-minimum array ``r`` and the running
  column-minimum maximum ``cmax``.  ``LBo = max(cmax - sqrt(2)d/2, 0)``
  (Definition 6); ``LBt = max(max(rmax, cmax) - Dmax, 0)`` (Definition 7).
* **Frechet** — state is the last DP column (Eq. 9).  ``LBo`` uses the
  column minimum (Eq. 7); ``LBt`` the bottom-right DP value (Eq. 8),
  tightened with the leaf's ``Dmax`` (``Dmax <= sqrt(2)d/2`` always).
* **DTW** — DTW is not a metric, so the per-step cost is the minimum
  distance from the query point to the *cell* (``d'`` in the paper's
  Eq. 15 note).  ``LBo = cmin`` (Eq. 13), ``LBt = f_{m,n}`` (Eq. 14).
* **EDR / LCSS / ERP** — extensions in the spirit of Section VI
  (the paper defers their optimization to future work): relaxed DPs on
  full-length reference sequences where a query point "matches" a cell
  when it could match *some* point inside the cell.  All relaxations
  only decrease per-step costs, so the DP values lower-bound the true
  distances.

All computers expose the same interface: ``initial_state()``,
``extend(state, z, max_traj_len, cutoff) -> (new_state, LBo)``, and
``leaf_bound(state, dmax, depth) -> LBt``.  Column minima are
non-decreasing along any path (Lemmas 2, 3.2, 4.2), which makes the
best-first early break of Algorithm 2 sound — and lets ``extend`` take
a whole *run* of cells (a unary chain of the trie, see
:mod:`repro.core.search`) and stop at the first cell whose bound
reaches ``cutoff``: every later cell's bound is at least as large.

Two things keep one extension cheap.  The geometry of a cell — the
query points' distances to its box or centre, or whether they could
match inside it — depends only on (query, cell), so a computer keeps
those *cell rows* in a table filled the first time a search touches the
cell (:class:`_CellRows`; a 16x16 grid revisits the same ≤ 256 cells
thousands of times per query).  And the column sweep over a run's rows
runs in the kernel tier (:mod:`repro.distances.kernels`), compiled when
a C compiler is present.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..distances.base import Measure
from ..distances.kernels import KernelSet, get_kernels
from ..exceptions import UnsupportedMeasureError
from .grid import Grid

__all__ = ["BoundComputer", "make_bound_computer"]

_INF = float("inf")


def _point_to_centre(grid, points, cells, eps, out):
    """Distance from each point to each cell's reference point."""
    offset = points - grid.reference_points(cells)[:, None, :]
    np.hypot(offset[..., 0], offset[..., 1], out=out)


def _point_to_cell(grid, points, cells, eps, out):
    """``d'(q_i, cell)``: distance from each point to each cell's box."""
    low = grid.cell_origins(cells)[:, None, :]
    offset = np.maximum(np.maximum(low - points, 0.0),
                        points - (low + grid.delta))
    np.hypot(offset[..., 0], offset[..., 1], out=out)


def _could_match(grid, points, cells, eps, out):
    """Whether each point lies in each cell's box inflated by ``eps``
    per axis, i.e. could match *some* point inside the cell."""
    low = grid.cell_origins(cells)[:, None, :]
    inside = (points >= low - eps) & (points <= low + grid.delta + eps)
    np.logical_and(inside[..., 0], inside[..., 1], out=out)


class _CellRows:
    """One query's table of cell rows, filled as cells are first touched.

    Row ``slot`` holds, for one grid cell, one value per point of
    ``points``: ``rows_of`` is :func:`_point_to_centre`,
    :func:`_point_to_cell` or :func:`_could_match`.  All missing cells
    of a lookup are computed by one broadcast, so memory and work are
    bounded by the cells a search touches times ``len(points)`` — never
    by the grid's cell count.
    """

    def __init__(self, grid: Grid, points: np.ndarray, rows_of,
                 eps: float = 0.0):
        self.grid = grid
        self.points = points
        self.rows_of = rows_of
        self.eps = eps
        self.rows = np.empty(
            (32, len(points)),
            dtype=bool if rows_of is _could_match else np.float64)
        self._slot: dict[int, int] = {}

    def lookup(self, z) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, slots)``: the table and the int64 row indices of the
        cell ``z`` (one z-value) or of the run ``z`` (a sequence)."""
        cells = z if hasattr(z, "__len__") else (z,)
        slot = self._slot
        try:
            slots = [slot[c] for c in cells]
        except KeyError:
            self._fill([c for c in dict.fromkeys(map(int, cells))
                        if c not in slot])
            slots = [slot[c] for c in cells]
        if not slots:
            raise ValueError("a run has at least one cell")
        return self.rows, np.array(slots, dtype=np.int64)

    def touch(self, runs) -> None:
        """Fill the rows of every cell of ``runs`` (sequences of
        z-values) not seen yet, all in one broadcast."""
        slot = self._slot
        missing = [c for cells in runs for c in cells if c not in slot]
        if missing:
            self._fill(list(dict.fromkeys(missing)))

    def _fill(self, cells: list[int]) -> None:
        start = len(self._slot)
        end = start + len(cells)
        if end > len(self.rows):
            grown = np.empty((max(end, 2 * len(self.rows)),
                              self.rows.shape[1]), dtype=self.rows.dtype)
            grown[:start] = self.rows[:start]
            self.rows = grown
        self.rows_of(self.grid, self.points, cells, self.eps,
                     self.rows[start:end])
        self._slot.update(zip(cells, range(start, end)))


class BoundComputer(ABC):
    """Incremental LBo/LBt computation along one root-to-leaf path."""

    #: True when the measure admits Dmax-based leaf tightening
    #: (requires the triangle inequality).
    uses_dmax: bool = False

    #: The query's cell rows; each measure creates the kind it needs.
    _cells: _CellRows

    def __init__(self, grid: Grid, query_points: np.ndarray):
        self.grid = grid
        self.query = np.asarray(query_points, dtype=np.float64)
        self.slack = grid.half_diagonal
        #: Kernel tier whose run-extension sweeps :meth:`extend` calls;
        #: a search that was given a backend assigns it here.
        self.kernels: KernelSet = get_kernels()

    def touch(self, runs) -> None:
        """Announce the runs (sequences of z-values) about to be
        extended, so the rows of all their unseen cells come from one
        broadcast instead of one per run.  Optional: :meth:`extend`
        fills what it misses."""
        self._cells.touch(runs)

    @abstractmethod
    def initial_state(self):
        """State at the root, before any reference point."""

    @abstractmethod
    def extend(self, state, z, max_traj_len: int, cutoff: float = _INF):
        """Extend by the cell ``z`` — or by the run of cells ``z`` (a
        sequence of z-values in path order, ``max_traj_len`` being that
        of the run's last node) — and return ``(new_state, LBo)``.

        The sweep stops after the first cell whose bound reaches
        ``cutoff``; the returned bound is then that cell's (``>=
        cutoff``, and a lower bound for everything beneath the run) and
        the state is the one the sweep stopped in.
        """

    @abstractmethod
    def leaf_bound(self, state, dmax: float, depth: int) -> float:
        """``LBt`` for a ``$`` leaf below a node with path state ``state``."""


class HausdorffBounds(BoundComputer):
    """Algorithm 1: intermediate results are (row minima ``r``, ``cmax``)."""

    uses_dmax = True

    def __init__(self, grid: Grid, query_points: np.ndarray):
        super().__init__(grid, query_points)
        self._cells = _CellRows(grid, self.query, _point_to_centre)

    def initial_state(self):
        """``(r, cmax)`` before any reference point: no row minimum yet."""
        r = np.full(len(self.query), np.inf)
        return (r, 0.0)

    def extend(self, state, z, max_traj_len, cutoff=_INF):
        """Fold the run's cell centres into ``(r, cmax)``;
        ``LBo = max(cmax - slack, 0)`` (Definition 6)."""
        rows, slots = self._cells.lookup(z)
        r, cmax, lbo = self.kernels.hausdorff_run(
            *state, rows, slots, self.slack, cutoff)
        return (r, cmax), lbo

    def leaf_bound(self, state, dmax, depth):
        """``LBt = max(DH(query, reference trajectory) - Dmax, 0)``
        (Definition 7)."""
        r, cmax = state
        exact = max(float(r.max()), cmax)  # DH(query, reference trajectory)
        return max(exact - dmax, 0.0)


class FrechetBounds(BoundComputer):
    """Column-incremental discrete Frechet bounds (Eqs. 7-9)."""

    uses_dmax = True

    def __init__(self, grid: Grid, query_points: np.ndarray):
        super().__init__(grid, query_points)
        self._cells = _CellRows(grid, self.query, _point_to_centre)

    def initial_state(self):
        """The empty column: the next one is the DP's first."""
        return np.empty(0, dtype=np.float64)

    def extend(self, state, z, max_traj_len, cutoff=_INF):
        """Advance the DP column over the run's cell centres;
        ``LBo = max(min(column) - slack, 0)`` (Eq. 7)."""
        rows, slots = self._cells.lookup(z)
        return self.kernels.frechet_run(state, rows, slots, self.slack,
                                        cutoff)

    def leaf_bound(self, state, dmax, depth):
        """``LBt``: the bottom DP value less ``Dmax`` (Eq. 8 subtracts
        ``sqrt(2)d/2``; ``Dmax <= sqrt(2)d/2`` is tighter)."""
        return max(float(state[-1]) - dmax, 0.0)


class DTWBounds(BoundComputer):
    """Column-incremental DTW bounds with point-to-cell costs (Eqs. 13-15)."""

    uses_dmax = False

    def __init__(self, grid: Grid, query_points: np.ndarray):
        super().__init__(grid, query_points)
        self._cells = _CellRows(grid, self.query, _point_to_cell)

    def initial_state(self):
        """The empty column: the next one is the DP's first."""
        return np.empty(0, dtype=np.float64)

    def extend(self, state, z, max_traj_len, cutoff=_INF):
        """Advance the DP column over the run's cell boxes;
        ``LBo = min(column)`` (Eq. 13)."""
        rows, slots = self._cells.lookup(z)
        return self.kernels.dtw_run(state, rows, slots, cutoff)

    def leaf_bound(self, state, dmax, depth):
        """``LBt = f[m, n]``, the bottom DP value (Eq. 14)."""
        return float(state[-1])


class EDRBounds(BoundComputer):
    """Relaxed EDR DP: a query point matches a cell when the cell box,
    inflated by ``eps`` per axis, contains it."""

    uses_dmax = False

    def __init__(self, grid: Grid, query_points: np.ndarray, eps: float):
        super().__init__(grid, query_points)
        self.eps = eps
        self._cells = _CellRows(grid, self.query, _could_match, eps)

    def initial_state(self):
        """``f[i, 0] = i``: delete ``i`` query points against an empty
        reference."""
        return np.arange(len(self.query) + 1, dtype=np.float64)

    def extend(self, state, z, max_traj_len, cutoff=_INF):
        """Advance the relaxed edit column over the run's cells;
        ``LBo = min(column)``."""
        match, slots = self._cells.lookup(z)
        return self.kernels.edr_run(state, match, slots, cutoff)

    def leaf_bound(self, state, dmax, depth):
        """``LBt``: the relaxed edit distance to the whole reference."""
        return float(state[-1])


class LCSSBounds(BoundComputer):
    """Relaxed LCSS: DP column holds an upper bound on the matched length.

    The normalized distance ``1 - sim / min(m, n)`` depends on the
    trajectory length ``n``, unknown at internal nodes; the bound uses
    the subtree maximum ``max_traj_len`` (see
    :func:`repro.distances.kernels.runs.lcss_subtree_bound`).
    """

    uses_dmax = False

    def __init__(self, grid: Grid, query_points: np.ndarray, eps: float):
        super().__init__(grid, query_points)
        self.eps = eps
        self._cells = _CellRows(grid, self.query, _could_match, eps)

    def initial_state(self):
        """``(similarity column including the boundary row, depth)``."""
        return (np.zeros(len(self.query) + 1, dtype=np.float64), 0)

    def extend(self, state, z, max_traj_len, cutoff=_INF):
        """Advance the relaxed similarity column over the run's cells;
        ``LBo`` assumes every cell still to come matches."""
        match, slots = self._cells.lookup(z)
        column, depth, lbo = self.kernels.lcss_run(
            *state, match, slots, max_traj_len, cutoff)
        return (column, depth), lbo

    def leaf_bound(self, state, dmax, depth):
        """``LBt``: one minus the relaxed similarity, normalized by the
        shorter of query and reference."""
        column, path_depth = state
        m = len(self.query)
        denom = min(m, max(path_depth, 1))
        return max(1.0 - float(column[-1]) / denom, 0.0)


class ERPBounds(BoundComputer):
    """Relaxed ERP DP: substitution costs the point-to-cell minimum
    distance, a reference gap costs the cell-to-gap-point minimum
    distance, and a query gap costs the exact point-to-gap distance."""

    uses_dmax = False

    def __init__(self, grid: Grid, query_points: np.ndarray,
                 gap: tuple[float, float]):
        super().__init__(grid, query_points)
        self.gap = gap
        g = np.asarray(gap, dtype=np.float64)
        gap_q = np.hypot(self.query[:, 0] - g[0], self.query[:, 1] - g[1])
        # Query-gap cost prefix sums: the root column and the weights
        # of every later column's min-plus scan.
        self._prefix = np.concatenate(([0.0], np.cumsum(gap_q)))
        # The gap point rides along as one more row entry: a cell's
        # reference-gap cost is the gap point's distance to its box.
        self._cells = _CellRows(grid, np.vstack((self.query, g)),
                                _point_to_cell)

    def initial_state(self):
        """``f[i, 0]``: the first ``i`` query points against gaps."""
        return self._prefix.copy()

    def extend(self, state, z, max_traj_len, cutoff=_INF):
        """Advance the relaxed ERP column over the run's cells;
        ``LBo = min(column)``."""
        rows, slots = self._cells.lookup(z)
        return self.kernels.erp_run(state, rows, slots, self._prefix,
                                    cutoff)

    def leaf_bound(self, state, dmax, depth):
        """``LBt``: the relaxed ERP distance to the whole reference."""
        return float(state[-1])


def make_bound_computer(measure: Measure, grid: Grid,
                        query_points: np.ndarray) -> BoundComputer:
    """Bound computer for ``measure`` over ``grid`` and a query."""
    name = measure.name
    if name == "hausdorff":
        return HausdorffBounds(grid, query_points)
    if name == "frechet":
        return FrechetBounds(grid, query_points)
    if name == "dtw":
        return DTWBounds(grid, query_points)
    if name == "edr":
        return EDRBounds(grid, query_points, eps=measure.params["eps"])
    if name == "lcss":
        return LCSSBounds(grid, query_points, eps=measure.params["eps"])
    if name == "erp":
        return ERPBounds(grid, query_points, gap=measure.params["gap"])
    raise UnsupportedMeasureError(f"no bound computer for measure {name!r}")

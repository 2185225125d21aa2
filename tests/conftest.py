"""Shared fixtures: the paper's running example and small random data.

Also enforces a per-test wall-clock cap so a hung wave (the failure
mode the fault-tolerance layer exists to prevent) fails fast instead
of stalling the whole suite.  When the ``pytest-timeout`` plugin is
installed (CI installs it) that plugin owns the cap; otherwise a
SIGALRM fallback covers main-thread tests on POSIX.  Override with
``REPRO_TEST_TIMEOUT`` (seconds; 0 disables the fallback).
"""

from __future__ import annotations

import os
import signal
import threading

import numpy as np
import pytest

from oracle import random_walks
from repro.core.grid import Grid
from repro.types import BoundingBox, Trajectory, TrajectoryDataset

#: Per-test wall-clock cap, seconds.  Generous: the slowest legitimate
#: tests (full fuzz harness cases) run well under this; only a genuine
#: hang crosses it.
TEST_TIMEOUT_SECONDS = int(os.environ.get("REPRO_TEST_TIMEOUT", "600"))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """SIGALRM fallback for the per-test cap (see module docstring)."""
    use_fallback = (
        TEST_TIMEOUT_SECONDS > 0
        and not item.config.pluginmanager.hasplugin("timeout")
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread())
    if not use_fallback:
        yield
        return

    def _on_alarm(signum, frame):
        raise TimeoutError(
            f"test exceeded the {TEST_TIMEOUT_SECONDS}s wall-clock cap "
            f"(likely a hung wave; see tests/conftest.py)")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(TEST_TIMEOUT_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

# Table II of the paper (coordinates of the running example).
PAPER_TRAJECTORIES = {
    1: [(0.5, 7.5), (2.5, 7.5), (6.5, 7.5), (6.5, 4.5)],
    2: [(1.5, 0.5), (2.5, 0.5), (2.5, 4.5), (4.5, 4.5)],
    3: [(4.5, 0.5), (7.5, 0.5), (7.5, 2.5), (4.5, 2.5), (4.5, 1.5)],
    4: [(0.5, 7.5), (2.5, 7.5), (5.5, 7.5), (5.5, 3.5)],
    5: [(1.5, 0.5), (2.5, 0.5), (2.5, 5.5), (0.5, 5.5), (0.5, 2.5)],
}
PAPER_QUERY = [(0.5, 6.5), (2.5, 6.5), (4.5, 6.5)]


@pytest.fixture
def paper_trajectories() -> list[Trajectory]:
    return [Trajectory(points, traj_id=tid)
            for tid, points in PAPER_TRAJECTORIES.items()]


@pytest.fixture
def paper_query() -> Trajectory:
    return Trajectory(PAPER_QUERY, traj_id=100)


@pytest.fixture
def paper_grid() -> Grid:
    """The paper's Fig. 1 example: 8 x 8 grid with unit cells."""
    return Grid(origin_x=0.0, origin_y=0.0, delta=1.0, resolution=8)


def random_walk_trajectories(count: int, seed: int = 0,
                             min_len: int = 5, max_len: int = 25,
                             span: float = 8.0) -> list[Trajectory]:
    """Deterministic random-walk trajectories inside [0, span]^2."""
    return random_walks(count, seed, min_len, max_len, span)


@pytest.fixture
def small_trajectories() -> list[Trajectory]:
    return random_walk_trajectories(60, seed=3)


@pytest.fixture
def small_dataset(small_trajectories) -> TrajectoryDataset:
    return TrajectoryDataset(name="small", trajectories=list(small_trajectories))


@pytest.fixture
def small_grid() -> Grid:
    return Grid.fit(BoundingBox(0.0, 0.0, 8.0, 8.0), delta=0.5)


def cell_path(cells, traj_id: int, seed: int) -> Trajectory:
    """A trajectory with one point in each of the ``(col, row)`` cells of
    a unit grid at the origin, off-centre so that distances do not tie."""
    jitter = np.random.default_rng(seed).uniform(-0.3, 0.3, (len(cells), 2))
    return Trajectory(np.asarray(cells, dtype=np.float64) + 0.5 + jitter,
                      traj_id=traj_id)


#: Cell paths (on :func:`paper_grid`) whose trie has the shapes a
#: run-following traversal must get right; see ``run_shapes``.
_TAIL = [(c, 0) for c in range(8)] + [(c, 1) for c in range(7, 3, -1)]
_RUN_SHAPED = [
    _TAIL,                                             # 12-cell unary tail
    [(0, 7), (1, 7), (2, 7)],                          # ends inside ...
    [(0, 7), (1, 7), (2, 7), (3, 7), (4, 7)],          # ... this chain
    [(0, 7), (1, 7), (2, 7), (3, 7), (4, 7), (5, 7), (6, 6)],
    [(3, 3), (4, 3), (5, 3), (5, 4)],                  # fork at (5, 3)
    [(3, 3), (4, 3), (5, 3), (5, 2), (6, 2)],
    [(7, 7)],                                          # one-cell path
    [(2, 5), (2, 4), (3, 4), (3, 5), (2, 5), (2, 4)],  # revisits cells
]
_RUN_SPLITTING = [
    [(0, 7), (1, 7), (1, 6), (1, 5)],      # splits (0,7)-(1,7)-(2,7)
    _TAIL[:3] + [(2, 1)],                  # splits the long tail
    _TAIL[:9],                             # ends inside the long tail
]


@pytest.fixture
def run_shapes():
    """Trajectories on :func:`paper_grid` whose trie has the shapes a
    run-following traversal must get right.

    ``build``: long unary tails, a node with one internal child *and* a
    ``$`` child, a fork; ``inserts``: paths that, inserted later, split
    or end inside existing runs; ``cells``: the cell paths ``build`` was
    made from; ``path(cells, traj_id)``: a trajectory along a cell path
    (:func:`cell_path` seeded by its id), for external queries.
    """
    from types import SimpleNamespace

    def path(cells, traj_id):
        return cell_path(cells, traj_id, seed=traj_id)
    return SimpleNamespace(
        build=[path(cells, tid) for tid, cells in enumerate(_RUN_SHAPED)],
        inserts=[path(cells, 100 + i)
                 for i, cells in enumerate(_RUN_SPLITTING)],
        cells=_RUN_SHAPED, path=path)

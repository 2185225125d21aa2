"""The independent reference of the search tests: a linear scan over
per-pair ``measure.distance`` calls, which shares no bound, no batch
kernel and no trie with what it checks."""

from __future__ import annotations

import numpy as np

from repro.types import Trajectory


def random_walks(count: int, seed: int, min_len: int, max_len: int,
                 span: float = 8.0) -> list[Trajectory]:
    """Deterministic random-walk trajectories inside [0, span]^2."""
    rng = np.random.default_rng(seed)
    trajectories = []
    for i in range(count):
        n = int(rng.integers(min_len, max_len))
        start = rng.uniform(0.1 * span, 0.9 * span, 2)
        steps = rng.normal(0, 0.04 * span, (n - 1, 2))
        points = np.vstack([start, start + np.cumsum(steps, axis=0)])
        np.clip(points, 0.001, span - 0.001, out=points)
        trajectories.append(Trajectory(points, traj_id=i))
    return trajectories


def linear_scan(measure, query, trajectories) -> list[tuple[float, int]]:
    """Every ``(distance, tid)``, ascending."""
    return sorted((measure.distance(query, t), t.traj_id)
                  for t in trajectories)


def assert_same_up_to_ties(items, want, scan) -> None:
    """``items`` is ``want`` (a prefix of ``scan``, possibly cut by a
    seed) bit for bit — except for *which* of several candidates tied
    at the last kept distance were kept: a heap keeps the first it
    meets, a scan the smallest ids."""
    assert [d for d, _ in items] == [d for d, _ in want]
    if not want:
        return
    last = want[-1][0]
    assert ([item for item in items if item[0] != last]
            == [item for item in want if item[0] != last])
    tied = {tid for d, tid in scan if d == last}
    kept = [tid for d, tid in items if d == last]
    assert set(kept) <= tied and len(set(kept)) == len(kept)

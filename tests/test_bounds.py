"""Tests for the incremental lower bounds (Algorithm 1 and extensions).

The soundness invariants here are the heart of the paper's correctness:
``LBo <= LBt <= Dist(query, traj)`` for every trajectory in a leaf, and
``LBo`` monotonically non-decreasing along any root-to-leaf path.
"""

import numpy as np
import pytest

from repro.core.bounds import make_bound_computer
from repro.core.grid import Grid
from repro.core.reference import ReferenceEncoder, encoder_mode_for
from repro.distances import get_measure
from repro.distances.kernels import available_backends, get_kernels
from repro.exceptions import GridError, UnsupportedMeasureError
from repro.types import Trajectory

MEASURES = {
    "hausdorff": get_measure("hausdorff"),
    "frechet": get_measure("frechet"),
    "dtw": get_measure("dtw"),
    "lcss": get_measure("lcss", eps=0.4),
    "edr": get_measure("edr", eps=0.4),
    "erp": get_measure("erp"),
}


@pytest.fixture
def grid():
    return Grid(origin_x=0.0, origin_y=0.0, delta=0.5, resolution=16)


def _random_trajectories(count, seed, n_lo=4, n_hi=12):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        n = int(rng.integers(n_lo, n_hi))
        points = rng.uniform(0.01, 7.99, (n, 2))
        out.append(Trajectory(points, traj_id=i))
    return out


def _walk_bounds(computer, z_values, max_traj_len):
    """Extend the bound along a full reference path; return LBo list and
    final state."""
    state = computer.initial_state()
    bounds = []
    for z in z_values:
        state, lbo = computer.extend(state, z, max_traj_len)
        bounds.append(lbo)
    return bounds, state


@pytest.mark.parametrize("name", list(MEASURES))
class TestBoundSoundness:
    def test_leaf_bound_below_true_distance(self, grid, name):
        measure = MEASURES[name]
        encoder = ReferenceEncoder(grid, mode=encoder_mode_for(measure))
        trajectories = _random_trajectories(15, seed=1)
        query = _random_trajectories(1, seed=99)[0]
        computer = make_bound_computer(measure, grid, query.points)
        for traj in trajectories:
            ref = encoder.encode(traj)
            _, state = _walk_bounds(computer, ref.z_values, len(traj))
            if measure.name in ("hausdorff", "frechet"):
                dmax = measure.distance(traj.points,
                                        ref.reference_points(grid))
            else:
                dmax = 0.0
            lbt = computer.leaf_bound(state, dmax, len(ref))
            true = measure.distance(query, traj)
            assert lbt <= true + 1e-9, (
                f"{name}: LBt {lbt} exceeds true distance {true}")

    def test_lbo_below_true_distance(self, grid, name):
        measure = MEASURES[name]
        encoder = ReferenceEncoder(grid, mode=encoder_mode_for(measure))
        trajectories = _random_trajectories(15, seed=2)
        query = _random_trajectories(1, seed=98)[0]
        computer = make_bound_computer(measure, grid, query.points)
        for traj in trajectories:
            ref = encoder.encode(traj)
            bounds, _ = _walk_bounds(computer, ref.z_values, len(traj))
            true = measure.distance(query, traj)
            assert bounds[-1] <= true + 1e-9

    def test_lbo_monotone_along_path(self, grid, name):
        measure = MEASURES[name]
        encoder = ReferenceEncoder(grid, mode=encoder_mode_for(measure))
        query = _random_trajectories(1, seed=97)[0]
        computer = make_bound_computer(measure, grid, query.points)
        for traj in _random_trajectories(15, seed=3):
            ref = encoder.encode(traj)
            bounds, _ = _walk_bounds(computer, ref.z_values, len(traj))
            for earlier, later in zip(bounds, bounds[1:]):
                assert later >= earlier - 1e-9, (
                    f"{name}: LBo decreased along path: {bounds}")

    def test_leaf_bound_at_least_final_lbo(self, grid, name):
        measure = MEASURES[name]
        encoder = ReferenceEncoder(grid, mode=encoder_mode_for(measure))
        query = _random_trajectories(1, seed=96)[0]
        computer = make_bound_computer(measure, grid, query.points)
        for traj in _random_trajectories(15, seed=4):
            ref = encoder.encode(traj)
            bounds, state = _walk_bounds(computer, ref.z_values, len(traj))
            if measure.name in ("hausdorff", "frechet"):
                dmax = measure.distance(traj.points,
                                        ref.reference_points(grid))
            else:
                dmax = 0.0
            lbt = computer.leaf_bound(state, dmax, len(ref))
            assert lbt >= bounds[-1] - 1e-9

    def test_bounds_nonnegative(self, grid, name):
        measure = MEASURES[name]
        encoder = ReferenceEncoder(grid, mode=encoder_mode_for(measure))
        query = _random_trajectories(1, seed=95)[0]
        computer = make_bound_computer(measure, grid, query.points)
        for traj in _random_trajectories(10, seed=5):
            ref = encoder.encode(traj)
            bounds, _ = _walk_bounds(computer, ref.z_values, len(traj))
            assert all(b >= 0.0 for b in bounds)


class TestHausdorffIntermediate:
    """Algorithm 1: incremental == direct recomputation."""

    def test_incremental_matches_direct(self, grid):
        measure = MEASURES["hausdorff"]
        rng = np.random.default_rng(6)
        query = Trajectory(rng.uniform(0, 8, (6, 2)), traj_id=0)
        traj = Trajectory(rng.uniform(0, 8, (10, 2)), traj_id=1)
        encoder = ReferenceEncoder(grid, mode="collapse")
        ref = encoder.encode(traj)
        computer = make_bound_computer(measure, grid, query.points)
        _, state = _walk_bounds(computer, ref.z_values, len(traj))
        # Direct: DH(query, reference trajectory) from scratch.
        direct = measure.distance(query.points, ref.reference_points(grid))
        r, cmax = state
        assert max(float(r.max()), cmax) == pytest.approx(direct)

    def test_order_independence_of_state(self, grid):
        """Hausdorff bound state is identical under z-value permutation."""
        measure = MEASURES["hausdorff"]
        rng = np.random.default_rng(7)
        query = Trajectory(rng.uniform(0, 8, (5, 2)), traj_id=0)
        traj = Trajectory(rng.uniform(0, 8, (8, 2)), traj_id=1)
        ref = ReferenceEncoder(grid, mode="dedup").encode(traj)
        computer = make_bound_computer(measure, grid, query.points)
        _, state_fwd = _walk_bounds(computer, ref.z_values, len(traj))
        _, state_rev = _walk_bounds(computer, ref.z_values[::-1], len(traj))
        np.testing.assert_allclose(state_fwd[0], state_rev[0])
        assert state_fwd[1] == pytest.approx(state_rev[1])


class TestFrechetColumns:
    def test_final_column_equals_frechet_of_references(self, grid):
        measure = MEASURES["frechet"]
        rng = np.random.default_rng(8)
        query = Trajectory(rng.uniform(0, 8, (5, 2)), traj_id=0)
        traj = Trajectory(rng.uniform(0, 8, (9, 2)), traj_id=1)
        ref = ReferenceEncoder(grid, mode="collapse").encode(traj)
        computer = make_bound_computer(measure, grid, query.points)
        _, column = _walk_bounds(computer, ref.z_values, len(traj))
        direct = measure.distance(query.points, ref.reference_points(grid))
        assert float(column[-1]) == pytest.approx(direct)


class TestDTWCellCosts:
    def test_dtw_bound_uses_cell_not_center(self, grid):
        """The DTW LB must use d'(q, cell); centers would overestimate."""
        measure = MEASURES["dtw"]
        # Query point inside the trajectory's cell (delta = 0.5) but far
        # from the cell center.
        query = Trajectory([(0.45, 0.45)], traj_id=0)
        traj = Trajectory([(0.05, 0.05)], traj_id=1)
        ref = ReferenceEncoder(grid, mode="collapse").encode(traj)
        computer = make_bound_computer(measure, grid, query.points)
        bounds, state = _walk_bounds(computer, ref.z_values, 1)
        true = measure.distance(query, traj)
        lbt = computer.leaf_bound(state, 0.0, len(ref))
        assert lbt <= true + 1e-12
        # Same cell -> zero cell distance -> zero bound.
        assert bounds[0] == 0.0


class TestFactory:
    def test_unknown_measure_raises(self, grid):
        from dataclasses import replace
        fake = replace(get_measure("dtw"), name="mystery")
        with pytest.raises(UnsupportedMeasureError):
            make_bound_computer(fake, grid, np.zeros((1, 2)))


# -- run extension -----------------------------------------------------------

BACKENDS = available_backends()


def _states_equal(a, b) -> bool:
    """Bit-for-bit equality of two bound states (arrays, numbers, or
    tuples of them)."""
    if isinstance(a, tuple):
        return (isinstance(b, tuple) and len(a) == len(b)
                and all(_states_equal(x, y) for x, y in zip(a, b)))
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype
                and a.shape == b.shape and a.tobytes() == b.tobytes())
    return type(a) is type(b) and a == b


def _computer(name, grid, query, backend):
    computer = make_bound_computer(MEASURES[name], grid, query.points)
    computer.kernels = get_kernels(backend)
    return computer


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", list(MEASURES))
class TestRunExtension:
    """``extend`` over a run is the per-cell ``extend`` applied along it:
    same state, same bound, bit for bit — on every kernel backend."""

    @pytest.mark.parametrize("length", [1, 2, 21])
    def test_run_equals_cell_by_cell(self, grid, name, backend, length):
        rng = np.random.default_rng(length)
        query = _random_trajectories(1, seed=90 + length)[0]
        computer = _computer(name, grid, query, backend)
        prefix = [int(z) for z in rng.integers(0, 256, 3)]
        run = [int(z) for z in rng.integers(0, 256, length)]
        start, _ = computer.extend(computer.initial_state(), prefix, 30)
        for origin in (computer.initial_state(), start):
            state, bounds = origin, []
            for z in run:
                state, lbo = computer.extend(state, z, 30)
                bounds.append(lbo)
            for cells in (run, tuple(run), np.array(run, dtype=np.int64)):
                run_state, run_bound = computer.extend(origin, cells, 30)
                assert _states_equal(run_state, state)
                assert run_bound == bounds[-1]

    def test_backends_agree_with_numpy(self, grid, name, backend):
        rng = np.random.default_rng(5)
        query = _random_trajectories(1, seed=55)[0]
        reference = _computer(name, grid, query, "numpy")
        computer = _computer(name, grid, query, backend)
        want, got = reference.initial_state(), computer.initial_state()
        for _ in range(6):
            run = [int(z) for z in rng.integers(0, 256, rng.integers(1, 9))]
            want, want_bound = reference.extend(want, run, 25)
            got, got_bound = computer.extend(got, run, 25)
            assert _states_equal(got, want)
            assert got_bound == want_bound

    def test_bounds_monotone_along_a_run(self, grid, name, backend):
        measure = MEASURES[name]
        encoder = ReferenceEncoder(grid, mode=encoder_mode_for(measure))
        query = _random_trajectories(1, seed=94)[0]
        computer = _computer(name, grid, query, backend)
        for traj in _random_trajectories(10, seed=6, n_lo=8, n_hi=20):
            run = encoder.encode(traj).z_values
            bounds = [computer.extend(computer.initial_state(),
                                      run[:stop], len(traj))[1]
                      for stop in range(1, len(run) + 1)]
            assert bounds == sorted(bounds)

    def test_cutoff_stop_is_sound(self, grid, name, backend):
        """A run stopped at the cutoff reports a bound that has reached
        it and still lower-bounds every trajectory beneath the run."""
        measure = MEASURES[name]
        encoder = ReferenceEncoder(grid, mode=encoder_mode_for(measure))
        query = _random_trajectories(1, seed=93)[0]
        computer = _computer(name, grid, query, backend)
        stopped = 0
        for traj in _random_trajectories(25, seed=7, n_lo=6, n_hi=20):
            run = encoder.encode(traj).z_values
            root = computer.initial_state()
            full_state, full = computer.extend(root, run, len(traj))
            per_cell = [computer.extend(root, run[:stop], len(traj))[1]
                        for stop in range(1, len(run) + 1)]
            cutoff = per_cell[len(per_cell) // 2]
            if cutoff <= 0.0:
                continue
            state, bound = computer.extend(root, run, len(traj), cutoff)
            first = next(i for i, b in enumerate(per_cell) if b >= cutoff)
            assert bound == per_cell[first] >= cutoff
            assert bound <= measure.distance(query, traj) + 1e-9
            stopped += first < len(run) - 1
            # Below every cell's bound the cutoff changes nothing.
            loose_state, loose = computer.extend(
                root, run, len(traj), np.nextafter(full, np.inf))
            assert loose == full and _states_equal(loose_state, full_state)
        assert stopped > 0


class TestCellRows:
    def test_single_cell_is_a_run_of_one(self, grid):
        """``extend(state, int(z), n)`` from ``initial_state()`` — what
        the bench_e2e micro table calls."""
        query = _random_trajectories(1, seed=92)[0]
        for name in MEASURES:
            computer = make_bound_computer(MEASURES[name], grid,
                                           query.points)
            state = computer.initial_state()
            one = computer.extend(state, 37, 64)
            run = computer.extend(state, [37], 64)
            assert _states_equal(one[0], run[0]) and one[1] == run[1]

    def test_table_memory_follows_touched_cells(self):
        """Rows exist for touched cells only, however large the grid."""
        big = Grid(origin_x=0.0, origin_y=0.0, delta=0.01, resolution=512)
        query = _random_trajectories(1, seed=91)[0]
        computer = make_bound_computer(MEASURES["dtw"], big, query.points)
        state = computer.initial_state()
        cells = [int(z) for z in
                 np.random.default_rng(0).integers(0, big.num_cells, 100)]
        computer.extend(state, cells, 10)
        rows = computer._cells.rows
        assert len(set(cells)) <= len(rows) <= 2 * len(set(cells))
        assert rows.shape[1] == len(query)

    def test_touch_is_optional_and_changes_nothing(self, grid):
        query = _random_trajectories(1, seed=90)[0]
        runs = [[3, 7, 7, 200], [200, 3], [91]]
        for name in MEASURES:
            lazy = make_bound_computer(MEASURES[name], grid, query.points)
            eager = make_bound_computer(MEASURES[name], grid, query.points)
            eager.touch(runs)
            for run in runs:
                a = lazy.extend(lazy.initial_state(), run, 12)
                b = eager.extend(eager.initial_state(), run, 12)
                assert _states_equal(a[0], b[0]) and a[1] == b[1]

    def test_cell_outside_grid_and_empty_run_rejected(self, grid):
        query = _random_trajectories(1, seed=89)[0]
        for backend in BACKENDS:
            computer = _computer("hausdorff", grid, query, backend)
            state = computer.initial_state()
            with pytest.raises(GridError):
                computer.extend(state, grid.num_cells, 5)
            with pytest.raises(GridError):
                computer.extend(state, [3, -1], 5)
            with pytest.raises(ValueError):
                computer.extend(state, [], 5)

    def test_geometry_matches_the_grid(self, grid):
        """Rows are the grid's own per-cell geometry."""
        query = _random_trajectories(1, seed=88)[0]
        points = query.points
        cells = [0, 5, 77, 255]
        centre = make_bound_computer(MEASURES["frechet"], grid, points)
        box = make_bound_computer(MEASURES["dtw"], grid, points)
        match = make_bound_computer(MEASURES["edr"], grid, points)
        for computer in (centre, box, match):
            computer.touch([cells])
        for z in cells:
            px, py = grid.reference_point(z)
            rows, (slot,) = centre._cells.lookup(z)
            assert np.array_equal(
                rows[slot], np.hypot(points[:, 0] - px, points[:, 1] - py))
            rows, (slot,) = box._cells.lookup(z)
            assert np.array_equal(rows[slot],
                                  grid.min_distances_to_cell(points, z))
            bounds = grid.cell_bounds(z)
            rows, (slot,) = match._cells.lookup(z)
            assert np.array_equal(
                rows[slot],
                (points[:, 0] >= bounds.min_x - 0.4)
                & (points[:, 0] <= bounds.max_x + 0.4)
                & (points[:, 1] >= bounds.min_y - 0.4)
                & (points[:, 1] <= bounds.max_y + 0.4))

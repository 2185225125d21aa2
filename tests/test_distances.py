"""Unit tests for all six similarity measures and the registry."""

import numpy as np
import pytest

from repro.distances import (
    dtw_distance,
    edr_distance,
    erp_distance,
    frechet_distance,
    get_measure,
    hausdorff_distance,
    lcss_distance,
    lcss_similarity,
    list_measures,
)
from repro.distances.dtw import dtw_next_column
from repro.distances.frechet import frechet_next_column
from repro.distances.hausdorff import (
    directed_hausdorff,
    hausdorff_distance_threshold,
)
from repro.distances.matrix import euclidean, point_distance_matrix
from repro.exceptions import UnsupportedMeasureError
from repro.types import Trajectory

A = np.array([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
B = np.array([(0.0, 1.0), (1.0, 1.0), (2.0, 1.0)])


class TestMatrixHelpers:
    def test_euclidean(self):
        assert euclidean(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0

    def test_point_distance_matrix_shape_and_values(self):
        dm = point_distance_matrix(A, B)
        assert dm.shape == (3, 3)
        assert dm[0, 0] == pytest.approx(1.0)
        assert dm[0, 2] == pytest.approx(np.hypot(2.0, 1.0))


class TestHausdorff:
    def test_parallel_lines(self):
        assert hausdorff_distance(A, B) == pytest.approx(1.0)

    def test_identity(self):
        assert hausdorff_distance(A, A) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=(4, 2)), rng.normal(size=(7, 2))
        assert hausdorff_distance(x, y) == pytest.approx(hausdorff_distance(y, x))

    def test_directed_is_one_sided(self):
        sub = A[:1]  # single point (0,0): close to B only on one side
        assert directed_hausdorff(sub, B) == pytest.approx(1.0)
        assert directed_hausdorff(B, sub) == pytest.approx(np.hypot(2.0, 1.0))

    def test_paper_example_values(self, paper_trajectories, paper_query):
        expected = {1: 2.83, 2: 6.08, 3: 6.71, 4: 3.16, 5: 6.08}
        for traj in paper_trajectories:
            got = hausdorff_distance(paper_query.points, traj.points)
            assert got == pytest.approx(expected[traj.traj_id], abs=0.005)

    def test_threshold_exact_below(self):
        exact = hausdorff_distance(A, B)
        assert hausdorff_distance_threshold(A, B, exact + 1) == pytest.approx(exact)

    def test_threshold_abandons_above(self):
        got = hausdorff_distance_threshold(A, B, 0.5)
        assert got >= 0.5

    def test_triangle_inequality_random(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            x = rng.normal(size=(rng.integers(2, 6), 2))
            y = rng.normal(size=(rng.integers(2, 6), 2))
            z = rng.normal(size=(rng.integers(2, 6), 2))
            assert (hausdorff_distance(x, z)
                    <= hausdorff_distance(x, y) + hausdorff_distance(y, z) + 1e-9)


def _frechet_naive(a, b):
    """Eq. 6 as a plain double loop, cell by cell."""
    dm = point_distance_matrix(a, b)
    f = np.empty_like(dm)
    for i in range(dm.shape[0]):
        for j in range(dm.shape[1]):
            before = [f[p, q] for p, q in ((i - 1, j - 1), (i - 1, j),
                                           (i, j - 1)) if p >= 0 and q >= 0]
            f[i, j] = max(dm[i, j], min(before)) if before else dm[i, j]
    return float(f[-1, -1])


class TestFrechet:
    def test_parallel_lines(self):
        assert frechet_distance(A, B) == pytest.approx(1.0)

    def test_against_naive_recursion(self):
        """Bit for bit (the DP only selects among the point distances),
        on every shape the diagonal sweep has an edge for: 1 x n, m x 1,
        wide, tall, square, and duplicated points (tied cells)."""
        rng = np.random.default_rng(2)
        shapes = [(1, 1), (1, 9), (9, 1), (2, 2), (2, 17), (17, 2), (8, 8)]
        shapes += [tuple(rng.integers(1, 25, 2)) for _ in range(40)]
        for case, (m, n) in enumerate(shapes):
            x = rng.normal(size=(m, 2))
            y = rng.normal(size=(n, 2))
            if case % 3 == 0:  # repeated and shared points
                x[rng.integers(m, size=m // 2)] = x[0]
                y[rng.integers(n, size=n // 2)] = x[rng.integers(m)]
            assert frechet_distance(x, y) == _frechet_naive(x, y), (m, n)
            assert frechet_distance(y, x) == _frechet_naive(x, y), (n, m)

    def test_at_least_hausdorff(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.normal(size=(5, 2))
            y = rng.normal(size=(6, 2))
            assert frechet_distance(x, y) >= hausdorff_distance(x, y) - 1e-12

    def test_order_sensitivity(self):
        forward = np.array([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
        target = np.array([(0.0, 0.0), (2.0, 0.0)])
        reversed_ = forward[::-1].copy()
        assert frechet_distance(forward, target) < frechet_distance(reversed_, target)

    def test_incremental_column_matches_full(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 2))
        y = rng.normal(size=(6, 2))
        dm = point_distance_matrix(x, y)
        col = np.empty(0)
        for j in range(6):
            col = frechet_next_column(col, dm[:, j])
        assert col[-1] == pytest.approx(frechet_distance(x, y))


def _dtw_naive(a, b):
    m, n = len(a), len(b)
    dm = point_distance_matrix(a, b)
    f = np.full((m, n), np.inf)
    f[0, 0] = dm[0, 0]
    for i in range(1, m):
        f[i, 0] = f[i - 1, 0] + dm[i, 0]
    for j in range(1, n):
        f[0, j] = f[0, j - 1] + dm[0, j]
    for i in range(1, m):
        for j in range(1, n):
            f[i, j] = dm[i, j] + min(f[i - 1, j - 1], f[i - 1, j], f[i, j - 1])
    return float(f[-1, -1])


class TestDTW:
    def test_identity(self):
        assert dtw_distance(A, A) == 0.0

    def test_against_naive_dp(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.normal(size=(rng.integers(1, 8), 2))
            y = rng.normal(size=(rng.integers(1, 8), 2))
            assert dtw_distance(x, y) == pytest.approx(_dtw_naive(x, y))

    def test_parallel_lines_sums(self):
        # Optimal coupling matches i-th with i-th: 3 unit costs.
        assert dtw_distance(A, B) == pytest.approx(3.0)

    def test_not_a_metric(self):
        # Known triangle-inequality violation for DTW.
        x = np.array([(0.0, 0.0)])
        y = np.array([(0.0, 0.0), (10.0, 0.0)])
        z = np.array([(10.0, 0.0), (10.0, 0.0), (10.0, 0.0)])
        assert dtw_distance(x, z) > dtw_distance(x, y) + dtw_distance(y, z)

    def test_incremental_column_matches_full(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 2))
        y = rng.normal(size=(5, 2))
        dm = point_distance_matrix(x, y)
        col = np.empty(0)
        for j in range(5):
            col = dtw_next_column(col, dm[:, j])
        assert col[-1] == pytest.approx(dtw_distance(x, y))


class TestLCSS:
    def test_identical_full_match(self):
        assert lcss_similarity(A, A, eps=0.01) == 3
        assert lcss_distance(A, A, eps=0.01) == 0.0

    def test_no_match(self):
        far = A + 100.0
        assert lcss_similarity(A, far, eps=0.5) == 0
        assert lcss_distance(A, far, eps=0.5) == 1.0

    def test_partial_match(self):
        shifted = A.copy()
        shifted[2] += 50.0  # break the last point
        assert lcss_similarity(A, shifted, eps=0.1) == 2

    def test_eps_is_per_axis(self):
        # Points differ by 0.9 in both axes: Euclidean ~1.27 but LCSS
        # matching uses per-axis eps.
        a = np.array([(0.0, 0.0)])
        b = np.array([(0.9, 0.9)])
        assert lcss_similarity(a, b, eps=1.0) == 1
        assert lcss_similarity(a, b, eps=0.5) == 0

    def test_subsequence_order_matters(self):
        a = np.array([(0.0, 0.0), (1.0, 1.0)])
        b = np.array([(1.0, 1.0), (0.0, 0.0)])
        # Only one of the two points can match in order.
        assert lcss_similarity(a, b, eps=0.1) == 1

    def test_distance_in_unit_interval(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = rng.normal(size=(rng.integers(1, 6), 2))
            y = rng.normal(size=(rng.integers(1, 6), 2))
            d = lcss_distance(x, y, eps=0.5)
            assert 0.0 <= d <= 1.0


class TestEDR:
    def test_identical(self):
        assert edr_distance(A, A, eps=0.01) == 0.0

    def test_totally_different_is_max_ops(self):
        far = A + 100.0
        # 3 substitutions at cost 1 each.
        assert edr_distance(A, far, eps=0.5) == 3.0

    def test_single_edit(self):
        shifted = A.copy()
        shifted[1] += 50.0
        assert edr_distance(A, shifted, eps=0.1) == 1.0

    def test_length_difference_costs_deletions(self):
        assert edr_distance(A, A[:1], eps=0.01) == 2.0

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(5, 2))
        y = rng.normal(size=(7, 2))
        assert edr_distance(x, y, eps=0.5) == edr_distance(y, x, eps=0.5)


class TestERP:
    def test_identical(self):
        assert erp_distance(A, A) == 0.0

    def test_gap_cost_for_extra_point(self):
        longer = np.vstack([A, [(2.0, 1.0)]])
        # Matching A 1:1 (cost 0) and skipping the extra point costs its
        # distance to the gap origin.
        assert erp_distance(A, longer) == pytest.approx(np.hypot(2.0, 1.0))

    def test_triangle_inequality_random(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            x = rng.normal(size=(rng.integers(1, 6), 2))
            y = rng.normal(size=(rng.integers(1, 6), 2))
            z = rng.normal(size=(rng.integers(1, 6), 2))
            assert (erp_distance(x, z)
                    <= erp_distance(x, y) + erp_distance(y, z) + 1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(4, 2))
        y = rng.normal(size=(6, 2))
        assert erp_distance(x, y) == pytest.approx(erp_distance(y, x))

    def test_custom_gap_point(self):
        gap = (100.0, 100.0)
        longer = np.vstack([A, [(2.0, 1.0)]])
        with_far_gap = erp_distance(A, longer, gap=gap)
        # Skipping near the far gap point is expensive; the optimal
        # alignment warps instead, but cost must exceed the default-gap cost.
        assert with_far_gap >= erp_distance(A, longer) - 1e-9


class TestRegistry:
    def test_all_six_registered(self):
        assert set(list_measures()) >= {"hausdorff", "frechet", "dtw",
                                        "lcss", "edr", "erp"}

    def test_unknown_measure_raises(self):
        with pytest.raises(UnsupportedMeasureError):
            get_measure("nope")

    def test_metric_flags(self):
        assert get_measure("hausdorff").is_metric
        assert get_measure("frechet").is_metric
        assert get_measure("erp").is_metric
        assert not get_measure("dtw").is_metric
        assert not get_measure("lcss").is_metric
        assert not get_measure("edr").is_metric

    def test_order_sensitivity_flags(self):
        assert not get_measure("hausdorff").order_sensitive
        for name in ("frechet", "dtw", "lcss", "edr", "erp"):
            assert get_measure(name).order_sensitive

    def test_with_params_override(self):
        loose = get_measure("lcss", eps=10.0)
        tight = get_measure("lcss", eps=1e-9)
        x = np.array([(0.0, 0.0)])
        y = np.array([(1.0, 1.0)])
        assert loose.distance(x, y) == 0.0
        assert tight.distance(x, y) == 1.0

    def test_distance_accepts_trajectories(self):
        measure = get_measure("hausdorff")
        a = Trajectory(A, traj_id=0)
        b = Trajectory(B, traj_id=1)
        assert measure.distance(a, b) == pytest.approx(1.0)

    def test_case_insensitive_lookup(self):
        assert get_measure("Hausdorff").name == "hausdorff"

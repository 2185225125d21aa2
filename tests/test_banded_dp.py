"""Exactness of the batched (banded) DP kernels and the tighter bounds.

The batched exact DTW/Frechet DPs — and the batched integer edit DPs
for EDR/LCSS — must be *bit-identical* to the sequential per-pair DPs
for every candidate, including length-1 and degenerate trajectories,
ties, and the band-fallback path where the banded screen fails to
certify a candidate and the exact DP decides.  The banded kernels must
match their per-pair reference implementations and never
under-estimate a distance — in real arithmetic: a banded DTW float
can round ulps below the exact DP, and refinement must keep a k-th
candidate whose banded cap does.  The per-prefix ERP bound must stay a
sound lower bound that dominates the classic gap-mass difference.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.distances.batch as batch_mod
from repro.core.search import ResultHeap
from repro.core.store import TrajectoryStore
from repro.distances.base import get_measure
from repro.distances.batch import (
    BatchRefiner,
    batch_dtw_banded,
    batch_dtw_distances,
    batch_edr_banded,
    batch_edr_distances,
    batch_frechet_banded,
    batch_frechet_distances,
    batch_lcss_banded,
    batch_lcss_distances,
    batch_match_tensor,
    batch_point_distance_tensor,
    refine_range,
    refine_top_k,
)
from repro.distances.dtw import dtw_banded_distance, dtw_distance
from repro.distances.edr import edr_banded_distance, edr_distance
from repro.distances.erp import erp_distance, erp_prefix_bound
from repro.distances.frechet import frechet_banded_distance, frechet_distance
from repro.distances.lcss import lcss_banded_distance, lcss_distance
from repro.distances.threshold import distance_with_threshold
from repro.types import Trajectory

#: eps wide enough that random walks actually produce matches, so the
#: edit DPs exercise non-trivial alignments.
EDIT_EPS = 0.3


def _walks(rng, count, min_len, max_len):
    out = []
    for _ in range(count):
        n = int(rng.integers(min_len, max_len + 1))
        out.append(rng.normal(0, 1, (n, 2)).cumsum(axis=0))
    return out


def _stack(query, trajs):
    lengths = np.array([len(t) for t in trajs], dtype=np.int64)
    padded = np.full((len(trajs), int(lengths.max()), 2), np.inf)
    for i, t in enumerate(trajs):
        padded[i, :len(t)] = t
    return batch_point_distance_tensor(query, padded), lengths


class TestBatchedExactKernels:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_dtw_bit_identical_to_sequential(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 35))
        query = rng.normal(0, 1, (m, 2)).cumsum(axis=0)
        trajs = _walks(rng, 17, 1, 45)
        dm, lengths = _stack(query, trajs)
        values = batch_dtw_distances(dm, lengths)
        for i, traj in enumerate(trajs):
            assert values[i] == dtw_distance(query, traj)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_frechet_bit_identical_to_sequential(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 35))
        query = rng.normal(0, 1, (m, 2)).cumsum(axis=0)
        trajs = _walks(rng, 17, 1, 45)
        dm, lengths = _stack(query, trajs)
        values = batch_frechet_distances(dm, lengths)
        for i, traj in enumerate(trajs):
            assert values[i] == frechet_distance(query, traj)

    def test_degenerate_candidates(self):
        # Length-1 query and candidates, duplicate points, exact ties.
        query = np.array([[1.0, 1.0]])
        trajs = [np.array([[1.0, 1.0]]),
                 np.array([[2.0, 2.0]]),
                 np.array([[3.0, 3.0]] * 6),
                 np.array([[3.0, 3.0]] * 6),
                 np.array([[0.0, 0.0], [5.0, 5.0]])]
        dm, lengths = _stack(query, trajs)
        dtw_values = batch_dtw_distances(dm, lengths)
        fre_values = batch_frechet_distances(dm, lengths)
        for i, traj in enumerate(trajs):
            assert dtw_values[i] == dtw_distance(query, traj)
            assert fre_values[i] == frechet_distance(query, traj)
        assert dtw_values[2] == dtw_values[3]  # ties preserved

    def test_single_point_everything(self):
        query = np.array([[0.5, -0.5]])
        trajs = [np.array([[0.5, -0.5]])]
        dm, lengths = _stack(query, trajs)
        assert batch_dtw_distances(dm, lengths)[0] == 0.0
        assert batch_frechet_distances(dm, lengths)[0] == 0.0


def _match_stack(query, trajs, eps=EDIT_EPS):
    lengths = np.array([len(t) for t in trajs], dtype=np.int64)
    padded = np.full((len(trajs), int(lengths.max()), 2), np.inf)
    for i, t in enumerate(trajs):
        padded[i, :len(t)] = t
    return batch_match_tensor(query, padded, eps), lengths


class TestBatchedEditKernels:
    """The integer EDR/LCSS row sweeps vs the per-pair DPs."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_edr_bit_identical_to_sequential(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 35))
        query = rng.normal(0, EDIT_EPS, (m, 2)).cumsum(axis=0)
        trajs = _walks(rng, 17, 1, 45) + [query.copy()]
        match, lengths = _match_stack(query, trajs)
        values = batch_edr_distances(match, lengths)
        for i, traj in enumerate(trajs):
            assert values[i] == edr_distance(query, traj, eps=EDIT_EPS)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_lcss_bit_identical_to_sequential(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 35))
        query = rng.normal(0, EDIT_EPS, (m, 2)).cumsum(axis=0)
        trajs = _walks(rng, 17, 1, 45) + [query.copy()]
        match, lengths = _match_stack(query, trajs)
        values = batch_lcss_distances(match, lengths)
        for i, traj in enumerate(trajs):
            assert values[i] == lcss_distance(query, traj, eps=EDIT_EPS)

    def test_edit_degenerate_candidates(self):
        query = np.array([[1.0, 1.0]])
        trajs = [np.array([[1.0, 1.0]]),
                 np.array([[2.0, 2.0]]),
                 np.array([[1.0, 1.0]] * 6),
                 np.array([[1.0, 1.0]] * 6),
                 np.array([[0.0, 0.0], [1.05, 1.05]])]
        match, lengths = _match_stack(query, trajs, eps=0.1)
        edr_values = batch_edr_distances(match, lengths)
        lcss_values = batch_lcss_distances(match, lengths)
        for i, traj in enumerate(trajs):
            assert edr_values[i] == edr_distance(query, traj, eps=0.1)
            assert lcss_values[i] == lcss_distance(query, traj, eps=0.1)
        assert edr_values[2] == edr_values[3]  # ties preserved

    @pytest.mark.parametrize("seed,band", [(0, 0), (0, 2), (1, 3),
                                           (2, 8), (3, 100)])
    def test_edr_banded_matches_reference_and_dominates(self, seed, band):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 30))
        query = rng.normal(0, EDIT_EPS, (m, 2)).cumsum(axis=0)
        trajs = _walks(rng, 11, 1, 40) + [query.copy()]
        match, lengths = _match_stack(query, trajs)
        resolved = max(band, int(np.abs(m - lengths).max()))
        values, is_exact = batch_edr_banded(match, lengths, band)
        for i, traj in enumerate(trajs):
            exact = edr_distance(query, traj, eps=EDIT_EPS)
            # Integer DPs: reference and batch agree bit for bit.
            assert values[i] == edr_banded_distance(query, traj, resolved,
                                                    eps=EDIT_EPS)
            assert values[i] >= exact
            if is_exact:
                assert values[i] == exact

    @pytest.mark.parametrize("seed,band", [(0, 0), (0, 2), (1, 3),
                                           (2, 8), (3, 100)])
    def test_lcss_banded_matches_reference_and_dominates(self, seed, band):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 30))
        query = rng.normal(0, EDIT_EPS, (m, 2)).cumsum(axis=0)
        trajs = _walks(rng, 11, 1, 40) + [query.copy()]
        match, lengths = _match_stack(query, trajs)
        resolved = max(band, int(np.abs(m - lengths).max()))
        values, is_exact = batch_lcss_banded(match, lengths, band)
        for i, traj in enumerate(trajs):
            exact = lcss_distance(query, traj, eps=EDIT_EPS)
            assert values[i] == lcss_banded_distance(query, traj, resolved,
                                                     eps=EDIT_EPS)
            assert values[i] >= exact
            if is_exact:
                assert values[i] == exact

    def test_edit_full_coverage_band_is_flagged_exact(self):
        rng = np.random.default_rng(9)
        query = rng.normal(0, EDIT_EPS, (6, 2))
        trajs = _walks(rng, 8, 2, 7) + [query.copy()]
        match, lengths = _match_stack(query, trajs)
        for kernel, seq in ((batch_edr_banded, edr_distance),
                            (batch_lcss_banded, lcss_distance)):
            values, is_exact = kernel(match, lengths, 1000)
            assert is_exact
            for i, traj in enumerate(trajs):
                assert values[i] == seq(query, traj, eps=EDIT_EPS)


class TestBandedKernels:
    @pytest.mark.parametrize("seed,band", [(0, 0), (0, 2), (1, 3),
                                           (2, 8), (3, 100)])
    def test_dtw_banded_matches_reference_and_dominates(self, seed, band):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 30))
        query = rng.normal(0, 1, (m, 2)).cumsum(axis=0)
        trajs = _walks(rng, 11, 1, 40)
        dm, lengths = _stack(query, trajs)
        resolved = max(band, int(np.abs(m - lengths).max()))
        values, is_exact = batch_dtw_banded(dm, lengths, band)
        for i, traj in enumerate(trajs):
            exact = dtw_distance(query, traj)
            if is_exact:
                assert values[i] == exact
            else:
                reference = dtw_banded_distance(query, traj, resolved)
                assert values[i] == pytest.approx(reference, rel=1e-12)
            assert values[i] >= exact - 1e-9 * max(1.0, exact)

    @pytest.mark.parametrize("seed,band", [(0, 0), (0, 2), (1, 3),
                                           (2, 8), (3, 100)])
    def test_frechet_banded_matches_reference_exactly(self, seed, band):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 30))
        query = rng.normal(0, 1, (m, 2)).cumsum(axis=0)
        trajs = _walks(rng, 11, 1, 40)
        dm, lengths = _stack(query, trajs)
        resolved = max(band, int(np.abs(m - lengths).max()))
        values, is_exact = batch_frechet_banded(dm, lengths, band)
        for i, traj in enumerate(trajs):
            exact = frechet_distance(query, traj)
            # min/max-only DP: banded values are evaluation-order
            # independent, so reference and batch agree bit for bit.
            assert values[i] == frechet_banded_distance(query, traj,
                                                        resolved)
            assert values[i] >= exact
            if is_exact:
                assert values[i] == exact

    def test_full_coverage_band_is_flagged_exact(self):
        rng = np.random.default_rng(9)
        query = rng.normal(0, 1, (6, 2))
        trajs = _walks(rng, 8, 2, 7)
        dm, lengths = _stack(query, trajs)
        for kernel, seq in ((batch_dtw_banded, dtw_distance),
                            (batch_frechet_banded, frechet_distance)):
            values, is_exact = kernel(dm, lengths, 1000)
            assert is_exact
            for i, traj in enumerate(trajs):
                assert values[i] == seq(query, traj)


class TestErpPrefixBound:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sound_and_dominates_classic(self, seed):
        rng = np.random.default_rng(seed)
        gap = (0.25, -0.4)
        for _ in range(40):
            a = rng.normal(0, 1, (int(rng.integers(1, 25)), 2)).cumsum(axis=0)
            b = rng.normal(0, 1, (int(rng.integers(1, 25)), 2)).cumsum(axis=0)
            exact = erp_distance(a, b, gap=gap)
            classic = abs(np.hypot(a[:, 0] - gap[0], a[:, 1] - gap[1]).sum()
                          - np.hypot(b[:, 0] - gap[0],
                                     b[:, 1] - gap[1]).sum())
            bound = erp_prefix_bound(a, b, gap=gap)
            assert bound <= exact + 1e-9
            assert bound >= classic - 1e-12

    def test_batch_refiner_erp_bounds_sound(self):
        rng = np.random.default_rng(4)
        trajs = [Trajectory(rng.normal(0, 1, (int(rng.integers(1, 30)), 2))
                            .cumsum(axis=0), traj_id=i) for i in range(40)]
        store = TrajectoryStore(trajs)
        measure = get_measure("erp")
        query = trajs[0].points
        tids = [t.traj_id for t in trajs]
        refiner = BatchRefiner(measure, query, store, tids)
        for i, tid in enumerate(tids):
            exact = measure.distance(query, store.points_of(tid))
            assert refiner.bounds[i] <= exact + 1e-9


def _make_store(rng, count, min_len, max_len):
    trajs = [Trajectory(rng.normal(0, 1, (int(rng.integers(min_len,
                                                           max_len + 1)), 2))
                        .cumsum(axis=0), traj_id=i) for i in range(count)]
    # Exact duplicates create ties at the k-th boundary.
    trajs.append(Trajectory(trajs[0].points.copy(), traj_id=count))
    trajs.append(Trajectory(trajs[0].points.copy(), traj_id=count + 1))
    return TrajectoryStore(trajs), [t.traj_id for t in trajs]


class TestRefinementBitIdentity:
    """The staged banded/batched probe must not change any heap."""

    @pytest.mark.parametrize("name", ["dtw", "frechet"])
    @pytest.mark.parametrize("k", [1, 5, 60])
    def test_refine_top_k_matches_sequential(self, name, k):
        rng = np.random.default_rng(7)
        measure = get_measure(name)
        store, tids = _make_store(rng, 48, 20, 60)
        query = store.points_of(3)
        batch_heap = ResultHeap(k)
        refine_top_k(measure, query, tids, store, batch_heap)
        seq_heap = ResultHeap(k)
        for tid in tids:
            seq_heap.offer(distance_with_threshold(
                measure, query, store.points_of(tid), seq_heap.dk), tid)
        assert batch_heap.sorted_items() == seq_heap.sorted_items()

    @pytest.mark.parametrize("name", ["dtw", "frechet"])
    def test_band_fallback_cases(self, name, monkeypatch):
        # Force the banded screen on for every survivor count and a
        # narrow band, so candidates routinely fail certification and
        # fall back to the exact DP ("band fallback").
        monkeypatch.setattr(batch_mod, "_BAND_SCREEN_MIN", 1)
        monkeypatch.setattr(batch_mod, "_BAND_MIN", 1)
        monkeypatch.setattr(batch_mod, "_BAND_FRAC", 0.0)
        rng = np.random.default_rng(11)
        measure = get_measure(name)
        store, tids = _make_store(rng, 40, 1, 70)
        query = store.points_of(5)
        for k in (1, 7):
            batch_heap = ResultHeap(k)
            refine_top_k(measure, query, tids, store, batch_heap)
            seq_heap = ResultHeap(k)
            for tid in tids:
                seq_heap.offer(distance_with_threshold(
                    measure, query, store.points_of(tid), seq_heap.dk), tid)
            assert batch_heap.sorted_items() == seq_heap.sorted_items()

    @pytest.mark.parametrize("name", ["dtw", "frechet", "erp"])
    def test_refine_range_matches_sequential(self, name):
        rng = np.random.default_rng(13)
        measure = get_measure(name)
        store, tids = _make_store(rng, 40, 5, 50)
        query = store.points_of(2)
        sample = sorted(measure.distance(query, store.points_of(t))
                        for t in tids[:12])
        radius = sample[len(sample) // 2]
        got = refine_range(measure, query, tids, store, radius)
        cutoff = float(np.nextafter(radius, np.inf))
        expected = []
        for tid in tids:
            dist = distance_with_threshold(measure, query,
                                           store.points_of(tid), cutoff)
            if dist <= radius:
                expected.append((dist, tid))
        assert got == expected

    @pytest.mark.parametrize("name", ["edr", "lcss"])
    @pytest.mark.parametrize("k", [1, 5, 60])
    def test_refine_top_k_edit_measures_match_sequential(self, name, k):
        rng = np.random.default_rng(19)
        measure = get_measure(name).with_params(eps=EDIT_EPS)
        store, tids = _make_store(rng, 48, 20, 60)
        query = store.points_of(3)
        batch_heap = ResultHeap(k)
        refine_top_k(measure, query, tids, store, batch_heap)
        seq_heap = ResultHeap(k)
        for tid in tids:
            seq_heap.offer(distance_with_threshold(
                measure, query, store.points_of(tid), seq_heap.dk), tid)
        assert batch_heap.sorted_items() == seq_heap.sorted_items()

    @pytest.mark.parametrize("name", ["edr", "lcss"])
    def test_edit_band_fallback_cases(self, name, monkeypatch):
        monkeypatch.setattr(batch_mod, "_BAND_SCREEN_MIN", 1)
        monkeypatch.setattr(batch_mod, "_BAND_MIN", 1)
        monkeypatch.setattr(batch_mod, "_BAND_FRAC", 0.0)
        rng = np.random.default_rng(23)
        measure = get_measure(name).with_params(eps=EDIT_EPS)
        store, tids = _make_store(rng, 40, 1, 70)
        query = store.points_of(5)
        for k in (1, 7):
            batch_heap = ResultHeap(k)
            refine_top_k(measure, query, tids, store, batch_heap)
            seq_heap = ResultHeap(k)
            for tid in tids:
                seq_heap.offer(distance_with_threshold(
                    measure, query, store.points_of(tid), seq_heap.dk), tid)
            assert batch_heap.sorted_items() == seq_heap.sorted_items()

    @pytest.mark.parametrize("name", ["edr", "lcss"])
    def test_edit_measure_without_eps_param_stays_bit_identical(self, name):
        """A Measure built without params must refine with the per-pair
        DP's own eps default, not a silent 0."""
        from repro.distances.base import Measure
        from repro.distances.edr import edr_distance
        from repro.distances.lcss import lcss_distance
        fn = edr_distance if name == "edr" else lcss_distance
        measure = Measure(name=name, fn=fn, is_metric=False,
                          order_sensitive=True)
        rng = np.random.default_rng(31)
        store, tids = _make_store(rng, 24, 5, 30)
        query = store.points_of(0)
        batch_heap = ResultHeap(5)
        refine_top_k(measure, query, tids, store, batch_heap)
        seq_heap = ResultHeap(5)
        for tid in tids:
            seq_heap.offer(distance_with_threshold(
                measure, query, store.points_of(tid), seq_heap.dk), tid)
        assert batch_heap.sorted_items() == seq_heap.sorted_items()

    @pytest.mark.parametrize("name", ["edr", "lcss"])
    def test_refine_range_edit_measures_match_sequential(self, name):
        rng = np.random.default_rng(29)
        measure = get_measure(name).with_params(eps=EDIT_EPS)
        store, tids = _make_store(rng, 40, 5, 50)
        query = store.points_of(2)
        sample = sorted(measure.distance(query, store.points_of(t))
                        for t in tids[:12])
        radius = sample[len(sample) // 2]
        got = refine_range(measure, query, tids, store, radius)
        cutoff = float(np.nextafter(radius, np.inf))
        expected = []
        for tid in tids:
            dist = distance_with_threshold(measure, query,
                                           store.points_of(tid), cutoff)
            if dist <= radius:
                expected.append((dist, tid))
        assert got == expected

    @pytest.mark.parametrize("name", ["dtw", "frechet", "edr", "lcss"])
    def test_unretained_tensor_path(self, name, monkeypatch):
        # Shrink the chunk budget so tensors are never retained and
        # exact_batch regathers; results must not change.
        monkeypatch.setattr(batch_mod, "_CHUNK_ELEMS", 512)
        rng = np.random.default_rng(17)
        measure = get_measure(name)
        if name in ("edr", "lcss"):
            measure = measure.with_params(eps=EDIT_EPS)
        store, tids = _make_store(rng, 32, 10, 40)
        query = store.points_of(1)
        batch_heap = ResultHeap(6)
        refine_top_k(measure, query, tids, store, batch_heap)
        seq_heap = ResultHeap(6)
        for tid in tids:
            seq_heap.offer(distance_with_threshold(
                measure, query, store.points_of(tid), seq_heap.dk), tid)
        assert batch_heap.sorted_items() == seq_heap.sorted_items()


class TestStorePrefixMasses:
    def test_prefix_masses_match_direct_sums(self):
        rng = np.random.default_rng(21)
        trajs = [Trajectory(rng.uniform(-2, 2, (int(rng.integers(1, 12)), 2)),
                            traj_id=i) for i in range(10)]
        store = TrajectoryStore(trajs)
        gap = (0.5, 0.5)
        depth = 6
        prefixes, totals = store.erp_prefix_masses(
            [t.traj_id for t in trajs], gap, depth)
        for i, traj in enumerate(trajs):
            masses = np.hypot(traj.points[:, 0] - gap[0],
                              traj.points[:, 1] - gap[1])
            for j in range(depth + 1):
                expect = masses[:min(j, len(traj))].sum()
                assert prefixes[i, j] == pytest.approx(expect, abs=1e-12)
            assert totals[i] == pytest.approx(masses.sum(), abs=1e-12)

    def test_gather_max_len_clips(self):
        rng = np.random.default_rng(22)
        trajs = [Trajectory(rng.uniform(0, 1, (8, 2)), traj_id=0),
                 Trajectory(rng.uniform(0, 1, (3, 2)), traj_id=1)]
        store = TrajectoryStore(trajs)
        padded, lengths = store.gather([0, 1], max_len=5)
        assert padded.shape == (2, 5, 2)
        assert lengths.tolist() == [5, 3]
        np.testing.assert_array_equal(padded[0], trajs[0].points[:5])
        assert np.isinf(padded[1, 3:]).all()


#: Seeds whose ``default_rng`` pair (see :func:`_rounding_pair`) shows a
#: radius-4 banded DTW whose float value lies *below* the exact DP's:
#: when the band covers the optimal warp path both DPs sum the same
#: costs in different orders.  Found by exhaustive search; the recipe
#: below is part of the pin.  Seed 106's gap is 2 ulps.
INVERTED_SEEDS = [9, 106]
SHARP_SEED = 106
ROUNDING_BAND = 4


def _rounding_pair(seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 10))
    m = n + int(rng.integers(0, ROUNDING_BAND))
    return rng.uniform(0, 10, (n, 2)), rng.uniform(0, 10, (m, 2))


class TestBandedDtwRounding:
    """A banded DTW value is an upper bound in real arithmetic only."""

    @pytest.mark.parametrize("seed", INVERTED_SEEDS)
    def test_banded_dtw_float_value_rounds_below_exact_dp(self, seed):
        a, b = _rounding_pair(seed)
        exact = float(dtw_distance(a, b))
        banded = float(dtw_banded_distance(a, b, ROUNDING_BAND))
        assert banded < exact, (
            f"seed {seed} no longer reproduces the ulp inversion — the "
            f"banded kernel changed; re-harvest the seeds")

    def test_sharp_seed_undercuts_the_nextafter_cushion(self):
        """Even ``nextafter(banded, inf)`` — the result heap's
        admission cutoff for a threshold — is below the exact DP."""
        a, b = _rounding_pair(SHARP_SEED)
        exact = float(dtw_distance(a, b))
        banded = float(dtw_banded_distance(a, b, ROUNDING_BAND))
        assert float(np.nextafter(banded, np.inf)) < exact

    @pytest.mark.parametrize("seeded", [False, True])
    def test_refine_keeps_kth_whose_banded_cap_rounds_below_it(
            self, seeded):
        """The k-th smallest banded value caps ``refine_top_k``'s probe
        threshold.  Here that cap is the k-th candidate's own banded
        value, 2 ulps under its exact DP; the candidate must still be
        refined exactly and kept — with or without a heap threshold
        seeded at its own distance, as the planner broadcasts it."""
        a, b = _rounding_pair(SHARP_SEED)
        exact = float(dtw_distance(a, b))
        trajs = [Trajectory(b, traj_id=0)] + [
            Trajectory(b + 50.0 * i, traj_id=i)
            for i in range(1, batch_mod._BAND_SCREEN_MIN)]
        store = TrajectoryStore(trajs)
        tids = [t.traj_id for t in trajs]
        measure = get_measure("dtw")
        refiner = BatchRefiner(measure, a, store, tids, dk=np.inf)
        assert refiner.uppers is not None and refiner.uppers[0] < exact
        threshold = float(np.nextafter(exact, np.inf)) if seeded else np.inf
        heap = ResultHeap(1, threshold=threshold)
        refine_top_k(measure, a, tids, store, heap)
        assert heap.sorted_items() == [(exact, 0)]

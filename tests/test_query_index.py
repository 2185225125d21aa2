"""Property tests for the driver-side query index.

:class:`repro.cluster.query_index.QueryIndex` backs three driver
scans — share clustering, cross-query tightening, registry neighbor
lookups — whose correctness contract is simple: every lookup must
return exactly what a brute-force scan in insertion order would.  The
tests here pin that contract under all six measures (metric routing
for Hausdorff/Frechet/ERP, linear degradation for DTW/EDR/LCSS),
content-identical twins, overflow buckets, budgets, and the shared
pair cache.
"""

import numpy as np
import pytest

import repro.cluster.query_index as qi_module
from repro.cluster.query_index import QueryIndex, content_key
from repro.distances import get_measure
from repro.types import Trajectory

MEASURES = ["hausdorff", "frechet", "erp", "dtw", "edr", "lcss"]
BASE_SEED = 20260807


def _trajectories(rng: np.random.Generator, count: int,
                  duplicates: int = 0) -> list[Trajectory]:
    """``count`` random-walk trajectories plus ``duplicates`` exact
    byte-level copies of earlier ones, shuffled in at the end."""
    out = []
    for i in range(count):
        n = int(rng.integers(3, 12))
        start = rng.uniform(0.5, 9.5, 2)
        steps = rng.normal(0.0, 0.4, (n - 1, 2))
        points = np.vstack([start, start + np.cumsum(steps, axis=0)])
        out.append(Trajectory(points, traj_id=i))
    for j in range(duplicates):
        base = out[int(rng.integers(count))]
        out.append(Trajectory(base.points.copy(),
                              traj_id=count + j))
    return out


def _symmetrized(distance):
    """Canonicalize argument order by point-array bytes.

    ERP's dynamic program is symmetric in value but not always in the
    last float ulp; the index's pair cache evaluates each unordered
    pair once, so the reference brute force must pin the same single
    evaluation order or exact-equality checks would chase ulps."""
    def wrapped(a, b):
        pa = a.points if isinstance(a, Trajectory) else np.asarray(a)
        pb = b.points if isinstance(b, Trajectory) else np.asarray(b)
        if pa.tobytes() > pb.tobytes():
            a, b = b, a
        return distance(a, b)
    return wrapped


def _brute_range(items, distance, obj, eps):
    """Reference range query: insertion order, inclusive eps."""
    return [(key, float(distance(obj, item)))
            for key, item in items
            if float(distance(obj, item)) <= eps]


def _brute_nearest(items, distance, obj, n):
    """Reference kNN: ascending by (distance, insertion order)."""
    ranked = sorted((float(distance(obj, item)), order, key)
                    for order, (key, item) in enumerate(items))
    return [(key, d) for d, _, key in ranked[:n]]


def _build(measure_name: str, items, **kwargs) -> QueryIndex:
    measure = get_measure(measure_name)
    index = QueryIndex(_symmetrized(measure.distance),
                       metric=kwargs.pop("metric", measure.is_metric),
                       **kwargs)
    for key, item in items:
        index.add(key, item)
    return index


@pytest.mark.parametrize("measure_name", MEASURES)
def test_range_search_matches_brute_force(measure_name):
    """Range results — keys, distances, and order — are identical to a
    brute-force scan, probing with indexed and unseen objects alike."""
    measure = get_measure(measure_name)
    rng = np.random.default_rng((BASE_SEED, MEASURES.index(measure_name)))
    trajectories = _trajectories(rng, 36, duplicates=6)
    items = list(enumerate(trajectories))
    index = _build(measure_name, items)
    assert len(index) == len(items)

    probes = [(qi, trajectories[qi]) for qi in (0, 7, 20, len(items) - 1)]
    probes += [(None, t) for t in _trajectories(rng, 4)]
    for eps in (0.0, 0.3, 1.5, 6.0, np.inf):
        for obj_key, obj in probes:
            got = index.range_search(obj, eps, obj_key=obj_key)
            want = _brute_range(items, _symmetrized(measure.distance), obj, eps)
            assert got == want, (measure_name, eps, obj_key)


@pytest.mark.parametrize("measure_name", MEASURES)
def test_nearest_matches_brute_force(measure_name):
    """kNN results replicate the brute-force ranking, ties resolved by
    insertion order, for every n."""
    measure = get_measure(measure_name)
    rng = np.random.default_rng((BASE_SEED, 1,
                                 MEASURES.index(measure_name)))
    trajectories = _trajectories(rng, 30, duplicates=5)
    items = list(enumerate(trajectories))
    index = _build(measure_name, items)

    probes = [(3, trajectories[3]), (None, _trajectories(rng, 1)[0])]
    for n in (1, 3, 9, len(items), len(items) + 5):
        for obj_key, obj in probes:
            got = index.nearest(obj, n=n, obj_key=obj_key)
            want = _brute_nearest(items, _symmetrized(measure.distance), obj, n)
            assert got == want, (measure_name, n, obj_key)


@pytest.mark.parametrize("measure_name", ["hausdorff", "dtw"])
def test_metric_and_nonmetric_modes_agree(measure_name):
    """Forcing non-metric (linear-scan) mode changes the cost, never
    the answer: both modes return the same matches in the same order."""
    measure = get_measure(measure_name)
    rng = np.random.default_rng((BASE_SEED, 2,
                                 MEASURES.index(measure_name)))
    trajectories = _trajectories(rng, 24, duplicates=4)
    items = list(enumerate(trajectories))
    routed = _build(measure_name, items, metric=True)
    linear = _build(measure_name, items, metric=False)

    probe = _trajectories(rng, 1)[0]
    for eps in (0.2, 2.0, np.inf):
        assert (routed.range_search(probe, eps)
                == linear.range_search(probe, eps)
                == _brute_range(items, _symmetrized(measure.distance), probe, eps))
    for n in (1, 5, len(items)):
        assert (routed.nearest(probe, n=n)
                == linear.nearest(probe, n=n)
                == _brute_nearest(items, _symmetrized(measure.distance), probe, n))


def test_duplicate_inserts_attach_as_free_twins():
    """Content-identical inserts cost zero distance calls, and lookups
    against identical content are answered by the prefilter alone."""
    measure = get_measure("hausdorff")
    rng = np.random.default_rng((BASE_SEED, 3))
    base = _trajectories(rng, 1)[0]
    index = QueryIndex(measure.distance)
    index.add(0, base)
    for key in range(1, 6):
        index.add(key, Trajectory(base.points.copy(), traj_id=key))
    assert index.distance_calls == 0
    assert index.prefilter_hits == 5
    assert len(index) == 6
    assert index.keys() == [0, 1, 2, 3, 4, 5]

    # A content-identical probe (no key) matches every twin at 0.0
    # without a single fresh distance evaluation.
    probe = Trajectory(base.points.copy(), traj_id=99)
    matches = index.range_search(probe, 0.0)
    assert matches == [(key, 0.0) for key in range(6)]
    assert index.distance_calls == 0


def test_single_item_and_empty_index_degenerate_cases():
    measure = get_measure("frechet")
    rng = np.random.default_rng((BASE_SEED, 4))
    only, probe = _trajectories(rng, 2)

    empty = QueryIndex(measure.distance)
    assert len(empty) == 0
    assert empty.keys() == []
    assert empty.range_search(probe, np.inf) == []
    assert empty.nearest(probe, n=3) == []
    assert empty.tighten({}) == ({}, 0)

    single = QueryIndex(measure.distance)
    single.add("only", only)
    d = float(measure.distance(probe, only))
    assert single.range_search(probe, d) == [("only", d)]
    assert single.range_search(probe, np.nextafter(d, -np.inf)) == []
    assert single.nearest(probe, n=2) == [("only", d)]
    assert single.range_search(only, np.inf, obj_key="only") == [
        ("only", 0.0)]


@pytest.mark.parametrize("measure_name", ["erp", "edr"])
def test_budget_truncation_returns_subset(measure_name):
    """Exhausting the fresh-call budget returns a deterministic subset
    of the full answer — never a wrong or extra match."""
    measure = get_measure(measure_name)
    rng = np.random.default_rng((BASE_SEED, 5,
                                 MEASURES.index(measure_name)))
    trajectories = _trajectories(rng, 28)
    items = list(enumerate(trajectories))
    probe = _trajectories(rng, 1)[0]
    full = dict(_brute_range(items, _symmetrized(measure.distance), probe, np.inf))
    for budget in (0, 1, 3, 10, 1000):
        index = _build(measure_name, items)
        built = index.distance_calls
        got = index.range_search(probe, np.inf, budget=budget)
        assert len(got) <= len(full)
        for key, d in got:
            assert full[key] == d
        # Fresh lookup evaluations never exceed the budget.
        assert index.distance_calls - built <= budget


def test_first_match_is_earliest_inserted_and_stops_nonmetric_scan():
    """``first=True`` returns the minimum-insertion-order match — the
    share-clustering contract — and lets the linear scan stop exactly
    where the greedy loop it replaces would have."""
    measure = get_measure("dtw")
    rng = np.random.default_rng((BASE_SEED, 6))
    base = _trajectories(rng, 1)[0]
    items = [(i, Trajectory(base.points + 0.001 * i, traj_id=i))
             for i in range(8)]
    probe = Trajectory(base.points + 0.001 * 4, traj_id=99)

    index = _build("dtw", items)
    assert index.metric is False
    hits = index.range_search(probe, np.inf, first=True)
    assert hits == [(0, float(measure.distance(probe, items[0][1])))]
    # The scan stopped at the very first item.
    assert index.distance_calls == 1

    routed = _build("hausdorff", items, metric=True)
    eps = 0.01
    all_hits = routed.range_search(probe, eps)
    one = routed.range_search(probe, eps, first=True)
    assert one == all_hits[:1]


@pytest.mark.parametrize("measure_name", ["hausdorff", "frechet", "erp"])
def test_depth_capped_buckets_stay_correct(measure_name, monkeypatch):
    """With a tiny depth cap everything lands in overflow buckets, and
    range/kNN/tighten answers are still exactly brute force."""
    monkeypatch.setattr(qi_module, "DEPTH_LIMIT", 2)
    measure = get_measure(measure_name)
    rng = np.random.default_rng((BASE_SEED, 7,
                                 MEASURES.index(measure_name)))
    trajectories = _trajectories(rng, 26, duplicates=4)
    items = list(enumerate(trajectories))
    index = _build(measure_name, items)
    assert index.keys() == [key for key, _ in items]

    probe = _trajectories(rng, 1)[0]
    for eps in (0.5, 3.0, np.inf):
        assert (index.range_search(probe, eps)
                == _brute_range(items, _symmetrized(measure.distance), probe, eps))
    assert (index.nearest(probe, n=7)
            == _brute_nearest(items, _symmetrized(measure.distance), probe, 7))

    weights = {key: float(rng.uniform(0.0, 4.0)) for key, _ in items}
    got, improved = index.tighten(weights)
    want = _brute_tighten(items, _symmetrized(measure.distance), weights)
    assert got == want
    assert improved == sum(1 for key, _ in items
                           if want[key] < weights[key])


def _brute_tighten(items, distance, weights):
    """Reference weighted self-join: the full pairwise-matrix min."""
    out = {}
    for key, obj in items:
        best = weights[key]
        for other_key, other in items:
            if other_key == key:
                continue
            best = min(best, weights[other_key]
                       + float(distance(obj, other)))
        out[key] = best
    return out


@pytest.mark.parametrize("measure_name", ["hausdorff", "frechet", "erp"])
def test_tighten_matches_full_pairwise_matrix(measure_name):
    """The branch-and-bound weighted self-join is value-identical to
    the full pairwise-matrix reduction it replaces, and reports the
    same improvement count."""
    measure = get_measure(measure_name)
    rng = np.random.default_rng((BASE_SEED, 8,
                                 MEASURES.index(measure_name)))
    trajectories = _trajectories(rng, 22, duplicates=3)
    items = list(enumerate(trajectories))
    index = _build(measure_name, items)

    for trial in range(3):
        weights = {key: float(w) for (key, _), w in zip(
            items, rng.uniform(0.0, 5.0, len(items)))}
        if trial == 2:  # some queries still at dk = inf
            for key in list(weights)[::3]:
                weights[key] = np.inf
        got, improved = index.tighten(weights)
        want = _brute_tighten(items, _symmetrized(measure.distance), weights)
        assert got == pytest.approx(want)
        assert improved == sum(1 for key in weights
                               if got[key] < weights[key])


def test_pair_cache_is_shared_and_spares_fresh_calls():
    """A distance evaluated once — during clustering, a lookup, or an
    insert — is never re-evaluated by any index sharing the cache."""
    measure = get_measure("hausdorff")
    rng = np.random.default_rng((BASE_SEED, 9))
    trajectories = _trajectories(rng, 16)
    items = list(enumerate(trajectories))
    shared: dict = {}

    first = _build("hausdorff", items, pair_cache=shared)
    probe_key, probe = 5, trajectories[5]
    first.range_search(probe, np.inf, obj_key=probe_key)
    paid = first.distance_calls

    # Re-running the same lookup is free: every pair is cached.
    first.range_search(probe, np.inf, obj_key=probe_key)
    assert first.distance_calls == paid

    # A second index over the same keyed items inherits the work.
    second = _build("hausdorff", items, pair_cache=shared)
    second.range_search(probe, np.inf, obj_key=probe_key)
    assert second.distance_calls < paid


def test_keyless_probes_are_never_cached():
    """Probes without a key (no stable cache identity) still return
    exact results, paying fresh calls each time."""
    measure = get_measure("hausdorff")
    rng = np.random.default_rng((BASE_SEED, 10))
    trajectories = _trajectories(rng, 8)
    items = list(enumerate(trajectories))
    index = _build("hausdorff", items)
    built = index.distance_calls
    probe = _trajectories(rng, 1)[0]
    want = _brute_range(items, _symmetrized(measure.distance), probe, np.inf)
    assert index.range_search(probe, np.inf) == want
    spent = index.distance_calls - built
    assert spent > 0
    index.range_search(probe, np.inf)
    assert index.distance_calls == built + 2 * spent


def test_content_key_fingerprints_point_arrays():
    rng = np.random.default_rng((BASE_SEED, 11))
    traj = _trajectories(rng, 1)[0]
    same = Trajectory(traj.points.copy(), traj_id=42)
    other = Trajectory(traj.points + 1e-12, traj_id=43)
    assert content_key(traj) == content_key(same)
    assert content_key(traj) == content_key(traj.points)
    assert content_key(traj) != content_key(other)
    assert content_key("scripted-query") is None
    assert content_key(None) is None


def test_insertion_order_is_deterministic_across_rebuilds():
    """Two indexes built from the same insertion sequence answer every
    lookup identically — the determinism the planner's bit-identity
    contract leans on."""
    measure = get_measure("hausdorff")
    rng = np.random.default_rng((BASE_SEED, 12))
    trajectories = _trajectories(rng, 20, duplicates=4)
    items = list(enumerate(trajectories))
    a = _build("hausdorff", items)
    b = _build("hausdorff", items)
    probe = _trajectories(rng, 1)[0]
    assert a.keys() == b.keys()
    assert (a.range_search(probe, 2.0) == b.range_search(probe, 2.0))
    assert a.nearest(probe, n=5) == b.nearest(probe, n=5)
    assert a.distance_calls == b.distance_calls

"""Compiled-vs-numpy equivalence for the DP kernel tier.

The kernel registry (:mod:`repro.distances.kernels`) promises that
every backend computes the five exact DP families in the *same
association order* as the numpy sweeps, so exact values are
bit-identical — ``TOLERANCES`` is 0.0 for every measure and these
tests assert it literally, on stacks that include ties, length-1
candidates, duplicate trajectories and non-contiguous tensors.  The
run-extension family (the bound computers' column sweeps along a trie
run, Hausdorff included) is held to the same contract.  The
early-abandon contract under a finite ``dk`` is weaker by design
(backends may check at different cadences, so the exact masks may
diverge) and is asserted as: every value still marked exact is
bit-identical, every abandoned value is a sound lower bound of the
exact distance that has reached ``dk``.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.distances.batch import (
    BatchRefiner,
    batch_match_tensor,
    batch_point_distance_tensor,
    refine_top_k,
)
from repro.distances.dtw import dtw_distance
from repro.distances.edr import edr_distance
from repro.distances.erp import DEFAULT_GAP, erp_distance
from repro.distances.frechet import frechet_distance
from repro.distances.kernels import (
    BACKEND_NAMES,
    KERNELS_ENV,
    TOLERANCES,
    available_backends,
    get_kernels,
    resolve_backend,
)
from repro.distances.lcss import lcss_distance
from repro.core.search import ResultHeap
from repro.core.store import TrajectoryStore
from repro.distances.base import get_measure
from repro.types import Trajectory

FAMILIES = ("dtw", "frechet", "erp", "edr", "lcss")
EPS = 0.35
BACKENDS = available_backends()
COMPILED = tuple(b for b in BACKENDS if b != "numpy")


def _stack(seed: int, count: int = 24, m: int = 13,
           min_len: int = 1, max_len: int = 28):
    """A query plus a ragged candidate stack with deliberate ties:
    the first two candidates are identical and one is length-1."""
    rng = np.random.default_rng(seed)
    query = rng.random((m, 2)) * 4.0
    lens = rng.integers(min_len, max_len + 1, size=count)
    lens[0] = lens[1] = max(2, int(lens[0]))
    lens[2] = 1
    width = int(lens.max())
    padded = np.full((count, width, 2), np.inf)
    for c, n in enumerate(lens):
        pts = rng.random((int(n), 2)) * 4.0
        padded[c, :n] = pts
    padded[1, :lens[1]] = padded[0, :lens[0]]  # exact tie twin
    return query, padded, lens.astype(np.int64)


def _tensors(family: str, query: np.ndarray, padded: np.ndarray):
    """The broadcast tensor argument list for one family (everything
    before ``lengths`` in the kernel signature)."""
    if family in ("edr", "lcss"):
        return (batch_match_tensor(query, padded, EPS),)
    dm = batch_point_distance_tensor(query, padded)
    if family == "erp":
        g = np.asarray(DEFAULT_GAP)
        ga = np.hypot(query[:, 0] - g[0], query[:, 1] - g[1])
        with np.errstate(invalid="ignore"):
            gb = np.hypot(padded[:, :, 0] - g[0], padded[:, :, 1] - g[1])
        return dm, ga, gb
    return (dm,)


def _pair_reference(family: str, query: np.ndarray,
                    padded: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    fns = {"dtw": dtw_distance, "frechet": frechet_distance,
           "erp": erp_distance,
           "edr": lambda a, b: edr_distance(a, b, eps=EPS),
           "lcss": lambda a, b: lcss_distance(a, b, eps=EPS)}
    fn = fns[family]
    return np.array([fn(query, padded[c, :n])
                     for c, n in enumerate(lengths)])


def _exact_fn(kernels, family: str):
    return getattr(kernels, f"{family}_exact")


def _banded_fn(kernels, family: str):
    return getattr(kernels, f"{family}_banded", None)


@pytest.mark.parametrize("family", FAMILIES)
def test_numpy_kernels_match_pair_reference(family):
    """Anchor: the numpy kernel set equals the per-pair distances."""
    query, padded, lengths = _stack(seed=3)
    values, mask = _exact_fn(get_kernels("numpy"), family)(
        *_tensors(family, query, padded), lengths, dk=np.inf)
    assert mask.all()
    ref = _pair_reference(family, query, padded, lengths)
    np.testing.assert_allclose(values, ref, rtol=0, atol=1e-10)


@pytest.mark.parametrize("backend", COMPILED)
@pytest.mark.parametrize("family", FAMILIES)
def test_exact_bit_identity(family, backend):
    """dk=inf: compiled values are bit-identical to numpy, all exact."""
    tol = TOLERANCES[family]
    for seed in (0, 1, 2):
        query, padded, lengths = _stack(seed=seed)
        args = _tensors(family, query, padded)
        base, base_mask = _exact_fn(get_kernels("numpy"), family)(
            *args, lengths, dk=np.inf)
        got, got_mask = _exact_fn(get_kernels(backend), family)(
            *args, lengths, dk=np.inf)
        assert base_mask.all() and got_mask.all()
        if tol == 0.0:
            assert np.array_equal(got, base), (
                f"{family}/{backend} not bit-identical at seed {seed}")
        else:  # pragma: no cover - all tolerances are currently 0.0
            np.testing.assert_allclose(got, base, rtol=0, atol=tol)
        # Tie twins must stay ties bit-for-bit on every backend.
        assert got[0] == got[1]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("family", FAMILIES)
def test_finite_dk_abandon_contract(family, backend):
    """Finite dk: exact-marked values bit-identical, abandoned values
    are sound lower bounds that reached the threshold."""
    for seed in (5, 6):
        query, padded, lengths = _stack(seed=seed, count=40, m=17)
        args = _tensors(family, query, padded)
        exact_vals, _ = _exact_fn(get_kernels("numpy"), family)(
            *args, lengths, dk=np.inf)
        dk = float(np.quantile(exact_vals, 0.35))
        values, mask = _exact_fn(get_kernels(backend), family)(
            *args, lengths, dk=dk)
        assert np.array_equal(values[mask], exact_vals[mask])
        abandoned = ~mask
        assert (values[abandoned] >= dk).all()
        assert (values[abandoned] <= exact_vals[abandoned] + 1e-12).all()
        # Abandonment must never touch candidates below the threshold.
        assert mask[exact_vals < dk].all()


@pytest.mark.parametrize("backend", COMPILED)
@pytest.mark.parametrize("family", FAMILIES)
def test_banded_screens_and_fallback(family, backend):
    """Banded kernels match numpy's windows bit-for-bit; a band wide
    enough to cover the matrix falls back to the exact sweep."""
    if family == "erp":
        pytest.skip("ERP has no banded screen")
    query, padded, lengths = _stack(seed=9, count=20, m=15, min_len=2)
    args = _tensors(family, query, padded)
    for band in (1, 3):
        base, base_exact = _banded_fn(get_kernels("numpy"), family)(
            *args, lengths, band)
        got, got_exact = _banded_fn(get_kernels(backend), family)(
            *args, lengths, band)
        assert got_exact == base_exact
        assert np.array_equal(got, base)
    exact_vals, _ = _exact_fn(get_kernels("numpy"), family)(
        *args, lengths, dk=np.inf)
    huge = max(args[0].shape[1], args[0].shape[2]) + 2
    got, got_exact = _banded_fn(get_kernels(backend), family)(
        *args, lengths, huge)
    assert got_exact is True
    assert np.array_equal(got, exact_vals)


@pytest.mark.parametrize("backend", COMPILED)
@pytest.mark.parametrize("family", FAMILIES)
def test_unretained_and_noncontiguous_tensors(family, backend):
    """Kernels must accept sliced / non-contiguous tensor views (the
    refiner hands over gather slices, not owned buffers)."""
    query, padded, lengths = _stack(seed=13, count=30)
    keep = np.arange(0, 30, 3)
    sub = padded[keep][:, : int(lengths[keep].max())]
    args = _tensors(family, query, sub)
    sliced = tuple(a[:, ::-1][:, ::-1] if a.ndim > 1 else a for a in args)
    assert any(not a.flags["C_CONTIGUOUS"] for a in sliced if a.ndim > 1) \
        or all(a.flags["C_CONTIGUOUS"] for a in sliced)
    base, _ = _exact_fn(get_kernels("numpy"), family)(
        *args, lengths[keep], dk=np.inf)
    got, _ = _exact_fn(get_kernels(backend), family)(
        *sliced, lengths[keep], dk=np.inf)
    assert np.array_equal(got, base)


def test_registry_resolution_and_errors():
    assert resolve_backend("numpy") == "numpy"
    assert resolve_backend() in BACKEND_NAMES
    assert resolve_backend("auto") == resolve_backend(None)
    with pytest.raises(ValueError, match="unknown kernel backend"):
        resolve_backend("fortran")
    unavailable = [b for b in BACKEND_NAMES if b not in BACKENDS]
    for name in unavailable:
        with pytest.raises(ValueError, match="not available"):
            resolve_backend(name)
    # The set cache hands back the same object per backend.
    assert get_kernels("numpy") is get_kernels("numpy")
    assert get_kernels("numpy").compiled is False
    for name in COMPILED:
        assert get_kernels(name).compiled is True


def test_env_override_controls_auto(tmp_path):
    """REPRO_KERNELS replaces the auto choice in a fresh interpreter
    (the in-process registry may already be cached)."""
    env = {**os.environ, KERNELS_ENV: "numpy",
           "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c",
         "from repro.distances.kernels import resolve_backend;"
         "print(resolve_backend())"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "numpy"


@pytest.mark.parametrize("backend", COMPILED)
@pytest.mark.parametrize("measure_name", FAMILIES)
def test_refiner_dispatch_bit_identical_topk(measure_name, backend):
    """refine_top_k through a compiled backend produces the same heap
    (values, ids and tie-breaks) as the numpy backend."""
    rng = np.random.default_rng(21)
    trajs = [Trajectory(rng.random((int(rng.integers(2, 24)), 2)) * 4.0,
                        traj_id=i)
             for i in range(60)]
    trajs.append(Trajectory(trajs[0].points, traj_id=60))  # tie twin
    store = TrajectoryStore(trajs)
    measure = get_measure(measure_name)
    if measure_name in ("edr", "lcss"):
        measure = measure.with_params(eps=EPS)
    query = rng.random((11, 2)) * 4.0
    tids = [t.traj_id for t in trajs]
    heaps = {}
    for name in ("numpy", backend):
        heap = ResultHeap(k=7)
        refine_top_k(measure, query, list(tids), store, heap,
                     kernels=name)
        heaps[name] = heap.sorted_items()
    assert heaps[backend] == heaps["numpy"]


@pytest.mark.parametrize("backend", COMPILED)
def test_batchrefiner_exposes_selected_backend(backend):
    rng = np.random.default_rng(2)
    trajs = [Trajectory(rng.random((5, 2)), traj_id=i) for i in range(4)]
    store = TrajectoryStore(trajs)
    refiner = BatchRefiner(get_measure("dtw"), rng.random((6, 2)), store,
                           [t.traj_id for t in trajs], kernels=backend)
    assert refiner.kernels.name == backend
    assert refiner.kernels.compiled


# -- run extension -------------------------------------------------------------

RUN_FAMILIES = ("hausdorff", "frechet", "dtw", "erp", "edr", "lcss")
RUN_SLACK = 0.3
#: LCSS subtree maximum length; as in a real trie, no path is deeper.
RUN_MAX_LEN = 25


def _run_case(family: str, seed: int, m: int = 13, cells: int = 40):
    """A random cell-row table, the root state and a sweep function
    ``(kernels, state, slots, cutoff) -> (state tuple, bound)`` with one
    family's extra arguments bound."""
    rng = np.random.default_rng(seed)
    if family in ("edr", "lcss"):
        rows = rng.random((cells, m)) < 0.15
    else:
        rows = rng.random((cells, m + (family == "erp"))) * 4.0
        rows[rng.random(rows.shape) < 0.2] = 0.0  # points inside the cell
    if family == "hausdorff":
        state = (np.full(m, np.inf), 0.0)
    elif family in ("frechet", "dtw"):
        state = (np.empty(0),)
    elif family == "erp":
        prefix = np.concatenate(([0.0], np.cumsum(rng.random(m) * 4.0)))
        state = (prefix.copy(),)
    elif family == "edr":
        state = (np.arange(m + 1, dtype=np.float64),)
    else:
        state = (np.zeros(m + 1), 0)

    def sweep(kernels, state, slots, cutoff=np.inf):
        slots = np.asarray(slots, dtype=np.int64)
        fn = getattr(kernels, f"{family}_run")
        if family in ("hausdorff", "frechet"):
            out = fn(*state, rows, slots, RUN_SLACK, cutoff)
        elif family == "erp":
            out = fn(*state, rows, slots, prefix, cutoff)
        elif family == "lcss":
            out = fn(*state, rows, slots, RUN_MAX_LEN, cutoff)
        else:
            out = fn(*state, rows, slots, cutoff)
        return tuple(out[:-1]), out[-1]

    return rng, state, sweep


def _same_state(a: tuple, b: tuple) -> bool:
    return len(a) == len(b) and all(
        x.tobytes() == y.tobytes() if isinstance(x, np.ndarray)
        else type(x) is type(y) and x == y for x, y in zip(a, b))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("family", RUN_FAMILIES)
def test_run_equals_its_cells_one_by_one(family, backend):
    """Sweeping a run is sweeping its cells in turn: same state, same
    bound, bit for bit (runs of length 1, 2 and 21, from the root and
    from mid-path)."""
    assert TOLERANCES[family] == 0.0
    kernels = get_kernels(backend)
    rng, root, sweep = _run_case(family, seed=21)
    mid, _ = sweep(kernels, root, rng.integers(0, 40, 4))
    for length in (1, 2, 21):
        slots = rng.integers(0, 40, length)
        for origin in (root, mid):
            state, bounds = origin, []
            for slot in slots:
                state, bound = sweep(kernels, state, [slot])
                bounds.append(bound)
            run_state, run_bound = sweep(kernels, origin, slots)
            assert _same_state(run_state, state)
            assert run_bound == bounds[-1]
            assert bounds == sorted(bounds), "bounds fell along a run"


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("family", RUN_FAMILIES)
def test_run_cutoff_stops_at_first_crossing(family, backend):
    """A finite cutoff stops the sweep after the first cell whose bound
    reaches it: that cell's bound and state come back, later cells are
    never consumed, and a cutoff nothing reaches changes nothing."""
    kernels = get_kernels(backend)
    stops = 0
    for seed in (31, 32, 33):
        rng, root, sweep = _run_case(family, seed=seed)
        slots = rng.integers(0, 40, 21)
        prefixes = [sweep(kernels, root, slots[:stop])
                    for stop in range(1, len(slots) + 1)]
        bounds = [bound for _, bound in prefixes]
        positive = [b for b in bounds if b > 0.0]
        if not positive:
            continue
        cutoff = positive[(len(positive) - 1) // 2]
        first = next(i for i, b in enumerate(bounds) if b >= cutoff)
        state, bound = sweep(kernels, root, slots, cutoff)
        assert bound == bounds[first] >= cutoff
        assert _same_state(state, prefixes[first][0])
        stops += first < len(slots) - 1
        state, bound = sweep(kernels, root, slots,
                             np.nextafter(bounds[-1], np.inf))
        assert bound == bounds[-1]
        assert _same_state(state, prefixes[-1][0])
    assert stops > 0


@pytest.mark.parametrize("backend", COMPILED)
@pytest.mark.parametrize("family", RUN_FAMILIES)
def test_run_bit_identity(family, backend):
    """Compiled run sweeps return the numpy reference's bits — state and
    bound, along whole runs and at cutoff stops."""
    reference, compiled = get_kernels("numpy"), get_kernels(backend)
    for seed in (41, 42, 43):
        rng, root, sweep = _run_case(family, seed=seed,
                                     m=int(1 + seed % 3 * 9))
        want_state = got_state = root
        for _ in range(8):
            slots = rng.integers(0, 40, rng.integers(1, 12))
            want_state, want = sweep(reference, want_state, slots)
            got_state, got = sweep(compiled, got_state, slots)
            assert got == want
            assert _same_state(got_state, want_state)
            cut_state, cut = sweep(reference, root, slots, want / 2)
            got_cut_state, got_cut = sweep(compiled, root, slots, want / 2)
            assert got_cut == cut
            assert _same_state(got_cut_state, cut_state)


@pytest.mark.parametrize("backend", COMPILED)
def test_run_kernels_refuse_foreign_states(backend):
    """The compiled sweeps read raw memory: a state of the wrong dtype,
    size or layout is refused, and the caller's state is never written."""
    kernels = get_kernels(backend)
    rng, root, sweep = _run_case("dtw", seed=51)
    column, _ = sweep(kernels, root, [1, 2])
    before = column[0].copy()
    sweep(kernels, column, [3, 4, 5])
    assert np.array_equal(column[0], before)
    for bad in (before.astype(np.float32), before[:-1],
                np.concatenate((before, before))[::2]):
        with pytest.raises(ValueError):
            sweep(kernels, (bad,), [3])

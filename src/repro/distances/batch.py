"""Vectorized batch refinement: padded/masked candidate-set kernels.

Every candidate that survives the RP-Trie bounds needs an
exact-distance check.  This module refines a whole candidate batch — a
search's pooled leaves (:mod:`repro.core.search`), or a partition for
the scan — at once, in three stages.

**Stage 1 — batched screen.**  A single broadcasted
query-to-all-candidate-points distance tensor of shape ``(c, m, Lmax)``
is built (in bounded-memory chunks), from which each measure's cheap
refinement lower bound falls out as array reductions — the batch
analogue of the per-pair prefilters in
:mod:`repro.distances.threshold`:

* Hausdorff — row-min/col-min reductions give the *exact* distance, so
  no per-candidate work remains at all;
* Frechet — the Hausdorff value lower-bounds the Frechet DP;
* DTW — sums of row minima and of column minima;
* ERP — the gap-mass difference, served from the columnar store's
  per-trajectory mass cache, tightened by a per-prefix corner DP
  (:func:`repro.distances.erp.erp_prefix_bound`, vectorized here);
* EDR — the length difference;
* LCSS — no cheap bound (zeros).

For EDR/LCSS the broadcast tensor is the boolean eps-*match* tensor
(:func:`batch_match_tensor`) instead of a distance tensor; the
integer edit DPs run over it.

**Stage 2 — banded upper bounds (DTW/Frechet/EDR/LCSS).**  While each
chunk's tensor is hot, a Sakoe-Chiba-banded DP sweeps all surviving
candidates at once (:func:`batch_dtw_banded`,
:func:`batch_frechet_banded`, :func:`batch_edr_banded`,
:func:`batch_lcss_banded`).  Restricting alignment paths to the band
can only over-estimate a distance (for LCSS: only drop matches), so
the banded values are upper bounds; the k-th smallest of them caps the
k-th-best distance the search can end with, which prunes exact-DP work
before any DP runs.  When the band covers the whole matrix the banded
sweep *is* the exact DP and its results are consumed directly.

**Stage 3 — staged exact DPs.**  Candidates are probed in
ascending-bound order against a probe heap, and the exact values for
each stage come from one batched DP over the retained tensor
(:func:`batch_dtw_distances`, :func:`batch_frechet_distances`,
:func:`batch_erp_distances`, :func:`batch_edr_distances`,
:func:`batch_lcss_distances`) — a row sweep (DTW/ERP, and the integer
edit DPs) or anti-diagonal sweep (Frechet) that performs, for every
candidate simultaneously, the same operations the sequential per-pair
DP performs, and is therefore bit-identical to it.  The batched DPs
also *early-abandon*: given the stage threshold ``dk``, a candidate
whose running per-row lower bound reaches ``dk`` skips its remaining
rows and reports the bound with an exact-mask of False.  The exact
DPs dispatch through the kernel registry
(:mod:`repro.distances.kernels`), so the same sweeps can run as
compiled native code; backends agree bit-for-bit on exact values.
A final replay pass offers the refined values in the original candidate
order, which makes the outcome **bit-identical** to a per-trajectory
early-abandoning loop, including how equal distances at the k-th
boundary tie-break (:func:`refine_top_k` says why).
"""

from __future__ import annotations

import numpy as np

from .base import Measure, rounding_slack
from .edr import DEFAULT_EPS as _EDR_DEFAULT_EPS
from .erp import DEFAULT_PREFIX_DEPTH
from .kernels import get_kernels
from .lcss import DEFAULT_EPS as _LCSS_DEFAULT_EPS
# Not called here any more: the per-pair path is the tests' oracle.  The
# name stays bound because benchmarks/e2e/layers.py wraps it by name
# (its ``distances.threshold.perpair_ms`` span then reads 0).
from .threshold import distance_with_threshold  # noqa: F401

__all__ = [
    "batch_point_distance_tensor",
    "batch_match_tensor",
    "batch_lower_bounds",
    "candidate_lower_bounds",
    "batch_dtw_distances",
    "batch_dtw_banded",
    "batch_frechet_distances",
    "batch_frechet_banded",
    "batch_erp_distances",
    "batch_edr_distances",
    "batch_edr_banded",
    "batch_lcss_distances",
    "batch_lcss_banded",
    "BatchRefiner",
    "refine_top_k",
    "refine_range",
    "exact_distances",
]

#: float64 elements per broadcast slab: chunks of the ``(c, m, L)``
#: tensor stay under ~32 MB regardless of candidate-set size.
_CHUNK_ELEMS = 1 << 22


def batch_point_distance_tensor(query: np.ndarray,
                                padded: np.ndarray) -> np.ndarray:
    """Distance tensor ``D[c, i, j] = ||query[i] - padded[c, j]||``.

    ``query`` is ``(m, 2)``; ``padded`` is ``(c, L, 2)`` and is expected
    to be padded with ``+inf`` past each candidate's length (as
    :meth:`~repro.core.store.TrajectoryStore.gather` produces), which
    makes the padded entries ``+inf`` here so min-reductions ignore
    them without any masking pass.  Each entry is evaluated as
    ``sqrt(dx*dx + dy*dy)`` — the exact expression (and rounding) of
    :func:`repro.distances.matrix.point_distance_matrix`.
    """
    dx = query[np.newaxis, :, np.newaxis, 0] - padded[:, np.newaxis, :, 0]
    dx *= dx
    dy = query[np.newaxis, :, np.newaxis, 1] - padded[:, np.newaxis, :, 1]
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def batch_match_tensor(query: np.ndarray, padded: np.ndarray,
                       eps: float) -> np.ndarray:
    """Boolean eps-match tensor ``M[c, i, j]`` for the edit measures.

    ``M[c, i, j]`` is True when ``query[i]`` and ``padded[c, j]`` match
    within ``eps`` in *both* coordinates — exactly the per-pair
    ``_match_matrix`` of :mod:`repro.distances.lcss` evaluated for the
    whole candidate stack at once.  ``padded`` rows carry ``+inf`` past
    each candidate's length (as
    :meth:`~repro.core.store.TrajectoryStore.gather` produces), and
    ``|x - inf| <= eps`` is False, so padding never matches.
    """
    dx = np.abs(query[np.newaxis, :, np.newaxis, 0]
                - padded[:, np.newaxis, :, 0])
    dy = np.abs(query[np.newaxis, :, np.newaxis, 1]
                - padded[:, np.newaxis, :, 1])
    return (dx <= eps) & (dy <= eps)


# -- batched exact DP kernels -------------------------------------------------

#: Row cadence of the early-abandon check inside the exact numpy
#: sweeps.  Checking every row would pay a masked row-min reduction per
#: row for savings that only materialize every so often; every 8 rows
#: keeps the dk=inf path overhead at a single branch per row while
#: still cutting abandoned candidates' work by close to the ideal
#: fraction.  Compiled kernels check every row (their check is a scalar
#: compare, not a reduction), which is why exact *masks* may differ
#: between backends while exact *values* never do.
_ABANDON_EVERY = 8


def batch_dtw_distances(dm: np.ndarray, lengths: np.ndarray,
                        dk: float = np.inf, return_mask: bool = False):
    """Exact DTW for a whole candidate stack in one row sweep.

    ``dm`` is a ``(c, m, L)`` cost tensor with ``+inf`` past each
    candidate's length; ``lengths`` holds the true lengths.  The sweep
    runs :func:`repro.distances.dtw.dtw_distance`'s min-plus prefix
    scan over all candidates simultaneously — per candidate row the
    elementwise operations (and their order) are exactly the per-pair
    DP's, so each returned value is **bit-identical** to
    ``dtw_distance(query, candidate)``.  Cost: ``m`` numpy row steps
    for the whole stack instead of ``m`` steps per candidate.

    With a finite ``dk`` the sweep early-abandons: every monotone warp
    path visits every row, so a candidate's running row minimum (over
    its valid columns) lower-bounds its final DTW; once it reaches
    ``dk`` the candidate's remaining rows are dropped and its returned
    value is that row-min bound.  With ``return_mask`` the function
    returns ``(values, exact_mask)`` where abandoned candidates are
    False; with ``dk`` infinite every value is exact and bit-identical.

    Padding is benign: ``+inf`` costs produce ``inf``/``nan`` only at
    columns at or past each candidate's length, and the recurrence
    never feeds a later column into an earlier one, so the value read
    at ``lengths - 1`` is untouched by padding.
    """
    cc, m, width = dm.shape
    out = np.empty(cc, dtype=np.float64)
    exact = np.ones(cc, dtype=bool)
    abandon = bool(np.isfinite(dk)) and m > 2
    act = None           # active candidate indices (None = everyone)
    lens = lengths
    cols = np.arange(width)
    with np.errstate(invalid="ignore"):
        row = np.cumsum(dm[:, 0, :], axis=1)
        for i in range(1, m):
            costs = dm[:, i, :] if act is None else dm[act, i, :]
            cand = np.empty_like(row)
            cand[:, 0] = row[:, 0]
            np.minimum(row[:, :-1], row[:, 1:], out=cand[:, 1:])
            cand += costs
            prefix = np.cumsum(costs, axis=1)
            cand -= prefix
            np.minimum.accumulate(cand, axis=1, out=cand)
            cand += prefix
            row = cand
            if abandon and i < m - 1 and i % _ABANDON_EVERY == 0:
                valid = cols[np.newaxis, :] < lens[:, np.newaxis]
                rmin = np.where(valid, row, np.inf).min(axis=1)
                dead = rmin >= dk
                if dead.any():
                    idx = (act[dead] if act is not None
                           else np.flatnonzero(dead))
                    out[idx] = rmin[dead]
                    exact[idx] = False
                    keep = ~dead
                    act = (act[keep] if act is not None
                           else np.flatnonzero(keep))
                    if act.size == 0:
                        row = None
                        break
                    row = row[keep]
                    lens = lens[keep]
    if row is not None:
        idx = np.arange(cc) if act is None else act
        out[idx] = row[np.arange(len(idx)), lens - 1]
    if return_mask:
        return out, exact
    return out


def batch_dtw_banded(dm: np.ndarray, lengths: np.ndarray,
                     band: int) -> tuple[np.ndarray, bool]:
    """Sakoe-Chiba-banded DTW over a candidate stack: upper bounds.

    Row ``i`` evaluates the fixed-width window of ``2 * r + 1`` columns
    starting at ``max(0, i - r)``, where ``r`` widens ``band`` to the
    largest query/candidate length difference in the stack so every
    candidate's end cell stays reachable.  Out-of-window cells count as
    ``+inf``, so the result can only over-estimate the exact DTW —
    matching :func:`repro.distances.dtw.dtw_banded_distance` called
    with the resolved radius.

    Returns ``(values, is_exact)``.  When the window covers the whole
    matrix the exact kernel runs instead and ``is_exact`` is True: the
    values are then bit-identical exact distances, not just bounds.
    """
    cc, m, width = dm.shape
    r = int(max(int(band), np.abs(m - lengths).max()))
    w = 2 * r + 1
    if r >= m - 1 and w >= width:
        return batch_dtw_distances(dm, lengths), True
    lo_last = max(0, m - 1 - r)
    pad = max(0, lo_last + w - width)
    if pad:
        dmp = np.concatenate(
            [dm, np.full((cc, m, pad), np.inf)], axis=2)
    else:
        dmp = dm
    with np.errstate(invalid="ignore"):
        window = np.cumsum(dmp[:, 0, :w], axis=1)
        lo_prev = 0
        for i in range(1, m):
            lo = max(0, i - r)
            costs = dmp[:, i, lo:lo + w]
            # Fold the diagonal and vertical moves from the previous
            # window, aligned by how far the window slid (0 or 1).
            move = np.empty_like(window)
            if lo == lo_prev:
                move[:, 0] = window[:, 0]
                np.minimum(window[:, :-1], window[:, 1:], out=move[:, 1:])
            else:
                move[:, -1] = window[:, -1]
                np.minimum(window[:, :-1], window[:, 1:], out=move[:, :-1])
            cand = move + costs
            prefix = np.cumsum(costs, axis=1)
            cand -= prefix
            np.minimum.accumulate(cand, axis=1, out=cand)
            cand += prefix
            window = cand
            lo_prev = lo
    return window[np.arange(cc), lengths - 1 - lo_last], False


def _gather_diagonal(diag: np.ndarray, diag_lo: int,
                     wanted: np.ndarray, count: int) -> np.ndarray:
    """Values of a previous anti-diagonal at row indices ``wanted`` for
    every candidate (``+inf`` outside the diagonal's row range — a
    missing neighbour)."""
    out = np.full((count, len(wanted)), np.inf)
    ok = (wanted >= diag_lo) & (wanted < diag_lo + diag.shape[1])
    if ok.any():
        out[:, ok] = diag[:, wanted[ok] - diag_lo]
    return out


def _frechet_sweep(dm: np.ndarray, lengths: np.ndarray,
                   r: int | None, dk: float = np.inf,
                   exact: np.ndarray | None = None) -> np.ndarray:
    """Anti-diagonal Frechet sweep over a candidate stack.

    With ``r`` None the sweep is the exact DP; otherwise anti-diagonals
    are clipped to the Sakoe-Chiba band ``|i - j| <= r``.  Candidates
    finish on different diagonals (their lengths differ), so each
    candidate's value is captured on its final diagonal
    ``(m - 1) + (length - 1)``.

    With a finite ``dk`` (and an ``exact`` mask to write into) the
    sweep early-abandons unfinished candidates.  A single anti-diagonal
    is *not* a path cut — a diagonal step jumps from diagonal ``s - 2``
    to ``s`` — but any path to a later cell must cross diagonal
    ``s - 1`` or ``s``, so the minimum over the two most recent
    diagonals lower-bounds every unfinished candidate's final value.
    Cells outside a candidate's valid column range hold ``+inf`` (the
    cost tensor is inf-padded and the DP is max/min selections), so no
    masking is needed before the minimum.
    """
    cc, m, width = dm.shape
    out = np.empty(cc, dtype=np.float64)
    abandon = exact is not None and bool(np.isfinite(dk))
    act = np.arange(cc)
    dm_a, fs_a = dm, (m - 1) + lengths - 1
    prev2, lo2 = np.empty((cc, 0)), 0
    prev1, lo1 = dm[:, 0, 0:1].copy(), 0
    hit = fs_a == 0
    if hit.any():
        out[hit] = prev1[hit, 0]
    for s in range(1, m + width - 1):
        count = len(act)
        i_lo = max(0, s - width + 1)
        i_hi = min(m - 1, s)
        if r is not None:
            i_lo = max(i_lo, (s - r + 1) // 2)
            i_hi = min(i_hi, (s + r) // 2)
        if i_hi < i_lo:
            # The band excludes this whole diagonal; later diagonals
            # see it as all-missing (gathers return inf).
            prev2, lo2 = prev1, lo1
            prev1, lo1 = np.empty((count, 0)), 0
            continue
        ii = np.arange(i_lo, i_hi + 1)
        costs = dm_a[:, ii, s - ii]
        best = _gather_diagonal(prev2, lo2, ii - 1, count)    # f[i-1, j-1]
        np.minimum(best, _gather_diagonal(prev1, lo1, ii - 1, count),
                   out=best)                                  # f[i-1, j]
        np.minimum(best, _gather_diagonal(prev1, lo1, ii, count),
                   out=best)                                  # f[i, j-1]
        current = np.maximum(costs, best)
        hit = fs_a == s
        if hit.any():
            out[act[hit]] = current[hit, m - 1 - i_lo]
        if abandon and s % _ABANDON_EVERY == 0:
            lb = current.min(axis=1)
            if prev1.shape[1]:
                np.minimum(lb, prev1.min(axis=1), out=lb)
            dead = (fs_a > s) & (lb >= dk)
            if dead.any():
                out[act[dead]] = lb[dead]
                exact[act[dead]] = False
                keep = ~dead
                act = act[keep]
                if act.size == 0:
                    return out
                dm_a = dm_a[keep]
                fs_a = fs_a[keep]
                prev2, lo2 = prev1[keep], lo1
                prev1, lo1 = current[keep], i_lo
                continue
        prev2, lo2 = prev1, lo1
        prev1, lo1 = current, i_lo
    return out


def batch_frechet_distances(dm: np.ndarray, lengths: np.ndarray,
                            dk: float = np.inf,
                            return_mask: bool = False):
    """Exact discrete Frechet for a whole candidate stack.

    One anti-diagonal sweep over the shared ``(c, m, L)`` tensor
    computes every candidate's DP at once: ``m + L - 1`` numpy steps
    for the stack instead of per candidate.  The Frechet DP uses only
    min/max — exact float selections — so its value is
    evaluation-order independent and each result is **bit-identical**
    to :func:`repro.distances.frechet.frechet_distance`.

    With a finite ``dk`` candidates whose two-diagonal frontier minimum
    (a sound lower bound; see :func:`_frechet_sweep`) reaches ``dk``
    are abandoned and return that bound; ``return_mask`` adds the
    ``(values, exact_mask)`` form, with abandoned candidates False.
    """
    exact = np.ones(dm.shape[0], dtype=bool)
    values = _frechet_sweep(dm, lengths, None, dk=dk, exact=exact)
    if return_mask:
        return values, exact
    return values


def batch_frechet_banded(dm: np.ndarray, lengths: np.ndarray,
                         band: int) -> tuple[np.ndarray, bool]:
    """Banded Frechet over a candidate stack: upper bounds.

    Anti-diagonals are clipped to ``|i - j| <= r`` with ``r`` widened
    to the largest length difference in the stack (end cells stay in
    band).  Returns ``(values, is_exact)``; when the band covers every
    cell the sweep equals the exact DP bit for bit and ``is_exact`` is
    True.  Matches
    :func:`repro.distances.frechet.frechet_banded_distance` called with
    the resolved radius, exactly (min/max-only DP).
    """
    cc, m, width = dm.shape
    r = int(max(int(band), np.abs(m - lengths).max()))
    if r >= max(m, width) - 1:
        return _frechet_sweep(dm, lengths, None), True
    return _frechet_sweep(dm, lengths, r), False


def batch_erp_distances(dm: np.ndarray, ga: np.ndarray, gb: np.ndarray,
                        lengths: np.ndarray, dk: float = np.inf,
                        return_mask: bool = False):
    """Exact ERP for a whole candidate stack in one row sweep.

    ``dm`` is the ``(c, m, L)`` query-to-candidate point distance
    tensor (``+inf`` past each candidate's length), ``ga`` the query's
    per-point gap distances, ``gb`` the ``(c, L)`` candidate gap
    distances (``+inf`` past each length), and ``lengths`` the true
    lengths.  The sweep replicates
    :func:`repro.distances.erp.erp_distance`'s min-plus prefix scan —
    the candidate-gap prefix is subtracted, the running minimum
    accumulated, and the prefix added back, element for element in the
    per-pair DP's association order — so each returned value is
    **bit-identical** to ``erp_distance(query, candidate)``.

    With a finite ``dk`` the sweep early-abandons: every monotone
    alignment path visits every row of the table, so the running row
    minimum over a candidate's valid columns (``j <= length``)
    lower-bounds its final ERP; candidates whose row-min reaches ``dk``
    drop out with that bound, flagged False in the ``return_mask``
    form's exact mask.

    Padding is benign: ``+inf`` gaps/costs produce ``inf``/``nan``
    only at columns past each candidate's length, and the recurrence
    never feeds a later column into an earlier one, so the value read
    at column ``length`` is untouched.
    """
    cc, m, width = dm.shape
    out = np.empty(cc, dtype=np.float64)
    exact = np.ones(cc, dtype=bool)
    abandon = bool(np.isfinite(dk)) and m > 2
    act = None
    lens = lengths
    cols = np.arange(width + 1)
    with np.errstate(invalid="ignore"):
        gbp = np.concatenate(
            [np.zeros((cc, 1)), np.cumsum(gb, axis=1)], axis=1)
        prev = gbp.copy()                       # f[0, j] = sum(gap_b[:j])
        for i in range(m):
            costs = dm[:, i, :] if act is None else dm[act, i, :]
            cand = np.empty_like(prev)
            cand[:, 0] = prev[:, 0] + ga[i]
            np.minimum(prev[:, :-1] + costs, prev[:, 1:] + ga[i],
                       out=cand[:, 1:])
            cand -= gbp
            np.minimum.accumulate(cand, axis=1, out=cand)
            cand += gbp
            prev = cand
            if abandon and i < m - 1 and (i + 1) % _ABANDON_EVERY == 0:
                valid = cols[np.newaxis, :] <= lens[:, np.newaxis]
                rmin = np.where(valid, prev, np.inf).min(axis=1)
                dead = rmin >= dk
                if dead.any():
                    idx = (act[dead] if act is not None
                           else np.flatnonzero(dead))
                    out[idx] = rmin[dead]
                    exact[idx] = False
                    keep = ~dead
                    act = (act[keep] if act is not None
                           else np.flatnonzero(keep))
                    if act.size == 0:
                        prev = None
                        break
                    prev = prev[keep]
                    gbp = gbp[keep]
                    lens = lens[keep]
    if prev is not None:
        idx = np.arange(cc) if act is None else act
        out[idx] = prev[np.arange(len(idx)), lens]
    if return_mask:
        return out, exact
    return out


# -- batched integer edit DPs (EDR / LCSS) ------------------------------------

def batch_edr_distances(match: np.ndarray, lengths: np.ndarray,
                        dk: float = np.inf, return_mask: bool = False):
    """Exact EDR for a whole candidate stack in one row sweep.

    ``match`` is a ``(c, m, L)`` boolean eps-match tensor
    (:func:`batch_match_tensor`) with False past each candidate's
    length; ``lengths`` holds the true lengths.  The sweep runs
    :func:`repro.distances.edr.edr_distance`'s min-plus prefix scan over
    all candidates simultaneously — per candidate row the elementwise
    operations (and their order) are exactly the per-pair DP's, and the
    values are small integers held in float64, so each returned value is
    **bit-identical** to ``edr_distance(query, candidate)``.

    With a finite ``dk`` the sweep early-abandons on the running
    row-min bound over valid columns (every alignment path visits
    every table row and edit costs are non-negative); ``return_mask``
    adds the ``(values, exact_mask)`` form with abandoned candidates
    flagged False.

    Padding is benign: False matches cost 1 only at columns at or past
    each candidate's length, and the recurrence never feeds a later
    column into an earlier one, so the value read at column ``lengths``
    is untouched by padding.
    """
    cc, m, width = match.shape
    out = np.empty(cc, dtype=np.float64)
    exact = np.ones(cc, dtype=bool)
    abandon = bool(np.isfinite(dk)) and m > 2
    act = None
    lens = lengths
    positions = np.arange(width + 1, dtype=np.float64)
    prev = np.broadcast_to(positions, (cc, width + 1)).copy()  # f[0, j] = j
    for i in range(m):
        mm = match[:, i, :] if act is None else match[act, i, :]
        sub_cost = np.where(mm, 0.0, 1.0)
        cand = np.empty((len(prev), width + 1), dtype=np.float64)
        cand[:, 0] = prev[:, 0] + 1.0
        np.minimum(prev[:, :-1] + sub_cost, prev[:, 1:] + 1.0,
                   out=cand[:, 1:])
        cand -= positions
        np.minimum.accumulate(cand, axis=1, out=cand)
        cand += positions
        prev = cand
        if abandon and i < m - 1 and (i + 1) % _ABANDON_EVERY == 0:
            valid = positions[np.newaxis, :] <= lens[:, np.newaxis]
            rmin = np.where(valid, prev, np.inf).min(axis=1)
            dead = rmin >= dk
            if dead.any():
                idx = (act[dead] if act is not None
                       else np.flatnonzero(dead))
                out[idx] = rmin[dead]
                exact[idx] = False
                keep = ~dead
                act = (act[keep] if act is not None
                       else np.flatnonzero(keep))
                if act.size == 0:
                    prev = None
                    break
                prev = prev[keep]
                lens = lens[keep]
    if prev is not None:
        idx = np.arange(cc) if act is None else act
        out[idx] = prev[np.arange(len(idx)), lens]
    if return_mask:
        return out, exact
    return out


def batch_edr_banded(match: np.ndarray, lengths: np.ndarray,
                     band: int) -> tuple[np.ndarray, bool]:
    """Sakoe-Chiba-banded EDR over a candidate stack: upper bounds.

    Row ``i`` of the ``(m + 1) x (L + 1)`` edit table evaluates the
    fixed-width window of ``2 * r + 1`` columns starting at
    ``max(0, i - r)``, where ``r`` widens ``band`` to the largest
    query/candidate length difference in the stack so every candidate's
    end cell stays reachable.  Out-of-window cells count as ``+inf``, so
    the result can only over-estimate the exact EDR — matching
    :func:`repro.distances.edr.edr_banded_distance` called with the
    resolved radius.

    Returns ``(values, is_exact)``.  When the window covers the whole
    table the exact kernel runs instead and ``is_exact`` is True.
    """
    cc, m, width = match.shape
    r = int(max(int(band), np.abs(m - lengths).max()))
    if r >= max(m, width):
        return batch_edr_distances(match, lengths), True
    w = 2 * r + 1
    lo_last = max(0, m - r)
    # Substitution costs indexed by *table* column: col 0 and columns
    # past the match width have no substitution move (inf).
    total = max(lo_last + w, width + 1)
    costs = np.full((cc, m, total), np.inf)
    costs[:, :, 1:width + 1] = np.where(match, 0.0, 1.0)
    with np.errstate(invalid="ignore"):
        window = np.full((cc, w), np.inf)
        first = min(w, width + 1)
        window[:, :first] = np.arange(first, dtype=np.float64)  # f[0, j] = j
        lo_prev = 0
        for i in range(1, m + 1):
            lo = max(0, i - r)
            sub_cost = costs[:, i - 1, lo:lo + w]
            # Fold the diagonal (substitution) and vertical (deletion)
            # moves from the previous window, aligned by how far the
            # window slid (0 or 1).
            diag = np.empty_like(window)
            vert = np.empty_like(window)
            if lo == lo_prev:
                vert[:] = window
                diag[:, 0] = np.inf
                diag[:, 1:] = window[:, :-1]
            else:
                diag[:] = window
                vert[:, :-1] = window[:, 1:]
                vert[:, -1] = np.inf
            cand = np.minimum(diag + sub_cost, vert + 1.0)
            # Horizontal (insertion) moves cost 1 per column: the same
            # min-plus prefix scan the exact kernel uses, anchored at
            # the window's true column positions.
            positions = np.arange(lo, lo + w, dtype=np.float64)
            cand -= positions
            np.minimum.accumulate(cand, axis=1, out=cand)
            cand += positions
            window = cand
            lo_prev = lo
    return window[np.arange(cc), lengths - lo_last], False


def batch_lcss_distances(match: np.ndarray, lengths: np.ndarray,
                         dk: float = np.inf, return_mask: bool = False):
    """Exact LCSS distances for a whole candidate stack in one sweep.

    One integer row sweep over the shared ``(c, m, L)`` match tensor
    computes every candidate's longest-common-subsequence length at
    once, replicating :func:`repro.distances.lcss.lcss_similarity`'s
    running-maximum recurrence; the normalized distance
    ``1 - LCSS / min(m, n)`` then divides the same integers the
    per-pair code divides, so each value is **bit-identical** to
    ``lcss_distance(query, candidate)``.  Padding never matches, so
    columns past each candidate's length cannot contribute.

    With a finite ``dk`` the sweep early-abandons: after row ``i`` a
    candidate's similarity can still grow by at most ``m - 1 - i``
    (one match per remaining query row), so
    ``1 - (row_max + m - 1 - i) / min(m, n)`` lower-bounds its final
    distance; candidates whose bound reaches ``dk`` drop out with it,
    flagged False in the ``return_mask`` form's exact mask.
    """
    cc, m, width = match.shape
    out = np.empty(cc, dtype=np.float64)
    exact = np.ones(cc, dtype=bool)
    abandon = bool(np.isfinite(dk)) and m > 2
    act = None
    lens = lengths
    prev = np.zeros((cc, width + 1), dtype=np.int64)
    for i in range(m):
        mm = match[:, i, :] if act is None else match[act, i, :]
        cand = np.empty((len(prev), width + 1), dtype=np.int64)
        cand[:, 0] = 0
        np.maximum(prev[:, 1:], prev[:, :-1] + mm, out=cand[:, 1:])
        np.maximum.accumulate(cand, axis=1, out=cand)
        prev = cand
        if abandon and i < m - 1 and (i + 1) % _ABANDON_EVERY == 0:
            ub_sim = prev.max(axis=1) + (m - 1 - i)
            lb = 1.0 - ub_sim / np.minimum(m, lens)
            dead = lb >= dk
            if dead.any():
                idx = (act[dead] if act is not None
                       else np.flatnonzero(dead))
                out[idx] = lb[dead]
                exact[idx] = False
                keep = ~dead
                act = (act[keep] if act is not None
                       else np.flatnonzero(keep))
                if act.size == 0:
                    prev = None
                    break
                prev = prev[keep]
                lens = lens[keep]
    if prev is not None:
        idx = np.arange(cc) if act is None else act
        sims = prev[np.arange(len(idx)), lens]
        out[idx] = 1.0 - sims / np.minimum(m, lens)
    if return_mask:
        return out, exact
    return out


def batch_lcss_banded(match: np.ndarray, lengths: np.ndarray,
                      band: int) -> tuple[np.ndarray, bool]:
    """Banded LCSS over a candidate stack: distance upper bounds.

    The alignment window is the same sliding ``2 * r + 1``-column band
    the other banded kernels use; cells outside it contribute 0
    matches.  Every windowed value counts only genuine matches, so the
    banded similarity lower-bounds the exact LCSS and the returned
    distances upper-bound the exact distances — matching
    :func:`repro.distances.lcss.lcss_banded_distance` called with the
    resolved radius, exactly (integer DP).

    Returns ``(values, is_exact)``; when the window covers the whole
    table the exact kernel runs instead and ``is_exact`` is True.
    """
    cc, m, width = match.shape
    r = int(max(int(band), np.abs(m - lengths).max()))
    if r >= max(m, width):
        return batch_lcss_distances(match, lengths), True
    w = 2 * r + 1
    lo_last = max(0, m - r)
    total = max(lo_last + w, width + 1)
    matches = np.zeros((cc, m, total), dtype=np.int64)
    matches[:, :, 1:width + 1] = match
    window = np.zeros((cc, w), dtype=np.int64)
    lo_prev = 0
    for i in range(1, m + 1):
        lo = max(0, i - r)
        gain = matches[:, i - 1, lo:lo + w]
        diag = np.empty_like(window)
        vert = np.empty_like(window)
        if lo == lo_prev:
            vert[:] = window
            diag[:, 0] = 0
            diag[:, 1:] = window[:, :-1]
        else:
            diag[:] = window
            vert[:, :-1] = window[:, 1:]
            vert[:, -1] = 0
        cand = np.maximum(diag + gain, vert)
        np.maximum.accumulate(cand, axis=1, out=cand)
        window = cand
        lo_prev = lo
    sims = window[np.arange(cc), lengths - lo_last]
    return 1.0 - sims / np.minimum(m, lengths), False


#: Tolerated padding overwork per chunk (padded elements may exceed the
#: useful elements by this factor) and the chunk size below which the
#: per-chunk numpy call overhead outweighs tighter padding.
_PAD_WASTE_FACTOR = 1.25
_MIN_CHUNK = 8

#: Sakoe-Chiba radius of the banded upper-bound screen.  Without a
#: pruning threshold the radius falls back to the classic fixed
#: heuristic — at least ``_BAND_MIN`` cells, ``_BAND_FRAC`` of the
#: longer side of the cost matrix.  With a finite running ``dk`` the
#: screen is adaptive instead: it starts at ``_BAND_MIN`` and doubles
#: the radius only for candidates whose banded value still exceeds
#: ``dk`` (see ``BatchRefiner._adaptive_band_sweep``), so
#: well-separated top-k sets certify under a very narrow — cheap —
#: band and contested ones grow just as far as the threshold demands.
_BAND_MIN = 4
_BAND_FRAC = 1.0 / 16.0
#: Adaptive growth cap: the band never widens past this fraction of the
#: longer matrix side (beyond it a sweep costs as much as the staged
#: exact DP that would otherwise settle the survivors).
_BAND_MAX_FRAC = 1.0 / 4.0

#: Staged exact-DP batches: the first probe stage refines this many
#: candidates in one batched DP, doubling per stage (bounded below) so
#: a tight k-th best can stop the probe before most DPs ever run.
_DP_BATCH0 = 8
_DP_BATCH_MAX = 64

#: Candidates one refinement call gathers at most.  Longer candidate
#: lists — a scan over a whole store, a pivot's column of the ``HR``
#: table — are refined as consecutive slices of this many ids, so the
#: gathered points and broadcast tensors stay the size of one
#: partition's worth however large the store is.  Offered in ``tids``
#: order into the same heap, the slices leave the heap bit-identical
#: (:func:`refine_top_k`'s contract), and ``dk`` tightens between them.
_REFINE_SLICE = 256

#: Minimum screen survivors per chunk before the banded upper-bound
#: sweep runs.  The sweep costs a near-constant number of numpy row (or
#: diagonal) steps however many candidates it covers, so below this
#: count one staged exact DP handles the survivors cheaper than the
#: band could ever save.
_BAND_SCREEN_MIN = 2 * _DP_BATCH0


def _band_radius(m: int, width: int) -> int:
    """Screening band radius for an ``m x width`` cost matrix."""
    return max(_BAND_MIN, int(_BAND_FRAC * max(m, width)))


def _length_sorted_chunks(lengths: np.ndarray, m: int):
    """Candidate chunks in ascending-length order.

    Every chunk is padded only to its own longest member and is cut
    when padding overwork would exceed ``_PAD_WASTE_FACTOR`` (ragged
    sets with a few long outliers otherwise pay the outlier's length
    for every candidate) or the ``_CHUNK_ELEMS`` slab budget.  Safe for
    bit-identity: every bound reduction reads only its own candidate's
    row, so computation order across candidates is free.
    """
    order = np.argsort(lengths, kind="stable")
    sorted_lengths = lengths[order]
    pos = 0
    count = len(order)
    while pos < count:
        end = pos + 1
        useful = int(sorted_lengths[pos])
        while end < count:
            width = int(sorted_lengths[end])
            padded_elems = (end - pos + 1) * width
            if padded_elems * m > _CHUNK_ELEMS:
                break
            if (end - pos >= _MIN_CHUNK
                    and padded_elems > _PAD_WASTE_FACTOR * (useful + width)):
                break
            useful += width
            end += 1
        yield order[pos:end]
        pos = end


def _reduce_tensor(name: str, dist: np.ndarray,
                   lengths: np.ndarray) -> np.ndarray:
    """Refinement bounds from one ``(cc, m, L)`` distance tensor.

    The reductions mirror the per-pair prefilters; they hold in real
    arithmetic (:class:`BatchRefiner` takes the DTW sums' float guard,
    :func:`~repro.distances.base.rounding_slack`, off afterwards).
    """
    row_min = dist.min(axis=2)                      # (cc, m)
    col_min = dist.min(axis=1)                      # (cc, L): inf padded
    valid = (np.arange(col_min.shape[1])[np.newaxis, :]
             < lengths[:, np.newaxis])
    if name == "dtw":
        return np.maximum(row_min.sum(axis=1),
                          np.where(valid, col_min, 0.0).sum(axis=1))
    # hausdorff / frechet: symmetric Hausdorff value
    forward = row_min.max(axis=1)
    backward = np.where(valid, col_min, -np.inf).max(axis=1)
    return np.maximum(forward, backward)


def _tensor_bounds(name: str, query: np.ndarray, padded: np.ndarray,
                   lengths: np.ndarray) -> np.ndarray:
    """Hausdorff / Frechet / DTW bounds over length-sorted chunks."""
    out = np.empty(len(lengths), dtype=np.float64)
    for rows in _length_sorted_chunks(lengths, len(query)):
        chunk_lengths = lengths[rows]
        width = int(chunk_lengths.max())
        dist = batch_point_distance_tensor(query, padded[rows, :width])
        out[rows] = _reduce_tensor(name, dist, chunk_lengths)
    return out


def batch_lower_bounds(measure: Measure, query: np.ndarray,
                       padded: np.ndarray, lengths: np.ndarray,
                       masses: np.ndarray | None = None,
                       ) -> tuple[np.ndarray, bool]:
    """Per-candidate refinement lower bounds from padded arrays.

    Returns ``(bounds, is_exact)``; ``is_exact`` is True when the bound
    *is* the exact distance (Hausdorff), in which case refinement needs
    no further per-candidate work.  ``masses`` optionally supplies
    precomputed ERP gap masses (see
    :meth:`repro.core.store.TrajectoryStore.erp_masses`).
    """
    name = measure.name
    count = len(lengths)
    if count == 0:
        return np.empty(0, dtype=np.float64), name == "hausdorff"
    if name in ("hausdorff", "frechet", "dtw"):
        return _tensor_bounds(name, query, padded, lengths), name == "hausdorff"
    if name == "erp":
        gap = tuple(np.asarray(measure.params.get("gap", (0.0, 0.0))))
        query_mass = float(np.hypot(query[:, 0] - gap[0],
                                    query[:, 1] - gap[1]).sum())
        if masses is None:
            masses = np.array(
                [np.hypot(padded[i, :lengths[i], 0] - gap[0],
                          padded[i, :lengths[i], 1] - gap[1]).sum()
                 for i in range(count)], dtype=np.float64)
        return np.abs(query_mass - masses), False
    if name == "edr":
        return np.abs(float(len(query)) - lengths.astype(np.float64)), False
    return np.zeros(count, dtype=np.float64), False


def candidate_lower_bounds(measure: Measure, query: np.ndarray,
                           store, tids: list[int],
                           ) -> tuple[np.ndarray, bool]:
    """Bounds for candidates held in a columnar store.

    Only the tensor-based measures pay the gather; ERP uses the store's
    cached per-trajectory masses (the classic gap-mass bound — the
    tighter per-prefix variant lives on :class:`BatchRefiner`, which
    knows the pruning threshold) and EDR only needs lengths.  A measure
    registered from outside has neither bound nor kernel: its "bounds"
    are its distances, flagged exact like Hausdorff's.
    """
    name = measure.name
    if name in ("hausdorff", "frechet", "dtw"):
        padded, lengths = store.gather(tids)
        return batch_lower_bounds(measure, query, padded, lengths)
    if name not in ("erp", "edr", "lcss"):
        return np.array([measure.distance(query, store.points_of(tid))
                         for tid in tids], dtype=np.float64), True
    # ERP/EDR/LCSS need no gather: delegate to batch_lower_bounds with
    # only the lengths (and the store's cached masses for ERP).
    masses = None
    if name == "erp":
        gap = tuple(np.asarray(measure.params.get("gap", (0.0, 0.0))))
        masses = store.erp_masses(tids, gap)
    empty = np.empty((len(tids), 0, 2), dtype=np.float64)
    return batch_lower_bounds(measure, query, empty, store.lengths(tids),
                              masses=masses)


def _erp_prefix_tighten(measure: Measure, query: np.ndarray, store,
                        tids: list[int], classic: np.ndarray,
                        rows: np.ndarray) -> np.ndarray:
    """Vectorized per-prefix ERP bound for the candidates in ``rows``.

    Batch analogue of :func:`repro.distances.erp.erp_prefix_bound`: the
    exact edit DP runs on the leading ``DEFAULT_PREFIX_DEPTH`` corner of
    every candidate at once and the suffixes are bounded by their
    gap-mass difference.  The query's prefix and total masses are summed the way
    the store sums a candidate's (``cumsum`` from zero, ``sum``), so a
    candidate identical to the query is bounded by exactly 0.  Returns
    bounds for ``rows`` only, already ``max``-ed with the classic bound.
    """
    gap = tuple(np.asarray(measure.params.get("gap", (0.0, 0.0))))
    depth = DEFAULT_PREFIX_DEPTH
    sub_tids = [tids[i] for i in rows.tolist()]
    g = np.asarray(gap, dtype=np.float64)
    ga = np.hypot(query[:, 0] - g[0], query[:, 1] - g[1])
    ca = np.concatenate(([0.0], np.cumsum(ga)))
    suff_a = ga.sum() - ca
    pa = min(depth, len(query))
    prefixes, totals = store.erp_prefix_masses(sub_tids, gap, depth)
    padded, _ = store.gather(sub_tids, max_len=depth)
    pb = padded.shape[1]
    corner = batch_point_distance_tensor(query[:pa], padded)  # (cc, pa, pb)
    gb = prefixes[:, 1:pb + 1] - prefixes[:, :pb]             # 0 past length
    suff_b = totals[:, np.newaxis] - prefixes[:, :pb + 1]
    prev = prefixes[:, :pb + 1].copy()                        # V[0, j]
    cc = len(sub_tids)
    last_col = np.empty((cc, pa + 1), dtype=np.float64)
    last_col[:, 0] = prev[:, pb]
    for i in range(1, pa + 1):
        cur = np.empty_like(prev)
        cur[:, 0] = prev[:, 0] + ga[i - 1]
        for j in range(1, pb + 1):
            step = np.minimum(prev[:, j - 1] + corner[:, i - 1, j - 1],
                              prev[:, j] + ga[i - 1])
            np.minimum(step, cur[:, j - 1] + gb[:, j - 1], out=step)
            cur[:, j] = step
        last_col[:, i] = cur[:, pb]
        prev = cur
    bottom = (prev + np.abs(suff_a[pa] - suff_b)).min(axis=1)
    right = (last_col
             + np.abs(suff_a[np.newaxis, :pa + 1]
                      - suff_b[:, pb:pb + 1])).min(axis=1)
    return np.maximum(classic[rows], np.minimum(bottom, right))


def _edit_eps(measure: Measure) -> float:
    """The eps an edit measure's per-pair DP will actually run with.

    Falls back to the measure module's own default — never a bare 0 —
    so a :class:`Measure` constructed without ``params`` still gets
    batch results bit-identical to ``measure.distance``.
    """
    default = (_EDR_DEFAULT_EPS if measure.name == "edr"
               else _LCSS_DEFAULT_EPS)
    return float(measure.params.get("eps", default))


def _erp_gaps(measure: Measure, points: np.ndarray) -> np.ndarray:
    """ERP's point-to-gap distances over the last axis of ``points`` (a
    query or a padded candidate tensor): the same elementwise ``hypot``
    the per-pair DP computes."""
    gap = np.asarray(measure.params.get("gap", (0.0, 0.0)), dtype=np.float64)
    return np.hypot(points[..., 0] - gap[0], points[..., 1] - gap[1])


def _exact_kernel_args(measure: Measure, query: np.ndarray,
                       padded: np.ndarray,
                       query_gaps: np.ndarray | None = None) -> tuple:
    """The ``{name}_exact`` kernel's tensor arguments (all but the
    lengths) for ``query`` against gathered candidates ``padded``.

    The one construction :meth:`BatchRefiner.exact_batch` and
    :func:`exact_distances` share, so a search's refinement and a
    build's pivot table come from the same bits.  ``query_gaps`` passes
    ERP's query gap distances when the caller already has them.
    """
    if measure.name in ("edr", "lcss"):
        return (batch_match_tensor(query, padded, _edit_eps(measure)),)
    dm = batch_point_distance_tensor(query, padded)
    if measure.name != "erp":
        return (dm,)
    if query_gaps is None:
        query_gaps = _erp_gaps(measure, query)
    return dm, query_gaps, _erp_gaps(measure, padded)


class BatchRefiner:
    """Bounds, banded upper bounds and exact evaluation for one batch.

    Computes all candidates' refinement lower bounds up front (one
    batched kernel): :attr:`bounds`, each a lower bound of the float
    distance the exact DP returns (:attr:`is_exact`: the distance
    itself — Hausdorff).  The DTW and ERP bounds, and the row minima
    their exact DPs abandon on, are float sums taken in another order
    than the DP's final value, so they give up
    :func:`~repro.distances.base.rounding_slack`; min/max selections
    (Hausdorff under Frechet) and integer bounds (EDR/LCSS) need none.

    For the DP measures (Frechet/DTW, ERP, and the integer edit
    measures EDR/LCSS) three further accelerations apply:

    * the broadcast tensor — pairwise distances for Frechet/DTW, the
      boolean eps-match tensor for EDR/LCSS — is retained (when it fits
      the chunk budget) and sliced per survivor, so exact DPs skip the
      per-pair matrix rebuild;
    * while each chunk's tensor is hot, a banded DP computes upper
      bounds (:attr:`uppers`) for every candidate whose lower bound
      beats ``dk`` — when the band covers the whole matrix these are
      exact distances and :attr:`exact_mask` marks them;
    * :meth:`exact_batch` evaluates many survivors' exact DPs in one
      batched sweep — through the configured kernel backend
      (:mod:`repro.distances.kernels`) — bit-identical to the per-pair
      DP for every candidate it marks exact.

    For ERP the classic gap-mass screen is tightened for surviving
    candidates by the vectorized per-prefix corner DP.

    Parameters
    ----------
    measure, query, store, tids:
        The candidate batch: ``tids`` index trajectories in ``store``.
    dk:
        The current pruning threshold (k-th best distance, or the range
        radius).  Used only to skip screening work for candidates that
        are already out — never to change results.
    kernels:
        Kernel backend name (``"numpy"`` | ``"cnative"`` |
        ``"auto"``/None); resolved once via
        :func:`repro.distances.kernels.get_kernels`.
    """

    def __init__(self, measure: Measure, query: np.ndarray, store,
                 tids: list[int], dk: float = np.inf,
                 kernels: str | None = None):
        self.measure = measure
        self.query = query
        self.store = store
        self.tids = tids
        self.name = measure.name
        self.kernels = get_kernels(kernels)
        self.is_exact = False
        self.uppers: np.ndarray | None = None
        self.exact_mask: np.ndarray | None = None
        self._chunks: list | None = None    # [(rows, tensor)] when kept
        self._row_of: np.ndarray | None = None
        self._lengths: np.ndarray | None = None
        if self.name in ("frechet", "dtw", "edr", "lcss") and tids:
            padded, lengths = store.gather(tids)
            self._lengths = lengths
            # Keep the per-chunk tensors for DP reuse unless the whole
            # batch is too large to hold resident.
            keep = int(lengths.sum()) * len(query) <= _CHUNK_ELEMS
            screen = (self._screen_tensor_measures
                      if self.name in ("frechet", "dtw")
                      else self._screen_edit_measures)
            screen(padded, lengths, dk, keep)
        elif self.name == "erp" and tids:
            self._lengths = store.lengths(tids)
            self.bounds, _ = candidate_lower_bounds(measure, query,
                                                    store, tids)
            # The corner DP only pays when a threshold can actually
            # prune; with an unfilled heap (dk = inf) every candidate
            # runs the full DP regardless, so the classic bound is all
            # the ordering needs.
            if np.isfinite(dk):
                survivors = np.flatnonzero(self.bounds < dk)
                if survivors.size:
                    self.bounds[survivors] = _erp_prefix_tighten(
                        measure, query, store, tids, self.bounds,
                        survivors)
        else:
            self.bounds, self.is_exact = candidate_lower_bounds(
                measure, query, store, tids)
        if self.name in ("dtw", "erp") and tids:
            # The two summing measures: the screens above and the row
            # minima exact_batch abandons on are other float sums than
            # the DP's final value.
            points = [query, store.extent()]
            if self.name == "erp":
                points.append(np.asarray(measure.params.get(
                    "gap", (0.0, 0.0)), dtype=np.float64)[np.newaxis])
            self._slack = rounding_slack(len(query) + self._lengths, *points)
            self.bounds -= self._slack

    def _screen_tensor_measures(self, padded: np.ndarray,
                                lengths: np.ndarray, dk: float,
                                keep: bool) -> None:
        """Chunked screen for DTW/Frechet: lower bounds, banded upper
        bounds for survivors, and (optionally) retained tensors."""
        banded = (self.kernels.dtw_banded if self.name == "dtw"
                  else self.kernels.frechet_banded)
        self._screen_dp_measures(
            padded, lengths, dk, keep, banded,
            build_tensor=lambda chunk: batch_point_distance_tensor(
                self.query, chunk),
            chunk_bounds=lambda tensor, chunk_lengths: _reduce_tensor(
                self.name, tensor, chunk_lengths))

    def _screen_edit_measures(self, padded: np.ndarray,
                              lengths: np.ndarray, dk: float,
                              keep: bool) -> None:
        """Chunked screen for EDR/LCSS: cheap bounds, banded integer-DP
        upper bounds for survivors, and (optionally) retained match
        tensors for the staged exact DPs."""
        eps = _edit_eps(self.measure)
        banded = (self.kernels.edr_banded if self.name == "edr"
                  else self.kernels.lcss_banded)
        m = len(self.query)
        if self.name == "edr":
            # The per-pair prefilter's length-difference bound,
            # tightened by match-count admission bounds read off the
            # hot tensor: a query row with no eps-match anywhere in
            # the candidate forces at least one edit, and so does
            # every never-matched candidate point (each alignment op
            # resolves at most one such row/point).
            def chunk_bounds(tensor, chunk_lengths):
                row_any = tensor.any(axis=2).sum(axis=1)
                col_any = tensor.any(axis=1).sum(axis=1)
                lens = chunk_lengths.astype(np.float64)
                bounds = np.abs(float(m) - lens)
                np.maximum(bounds, (m - row_any).astype(np.float64),
                           out=bounds)
                np.maximum(bounds, lens - col_any, out=bounds)
                return bounds
        else:
            # LCSS finally gets a non-trivial admission bound (the
            # PR 5 follow-up): the common subsequence cannot exceed
            # the number of query rows — or candidate points — with
            # any eps-match at all, so
            # ``1 - min(row_any, col_any, min(m, n)) / min(m, n)``
            # lower-bounds the distance and admits a candidate to
            # gather/exact work only when enough matches exist for it
            # to still beat the threshold.
            def chunk_bounds(tensor, chunk_lengths):
                row_any = tensor.any(axis=2).sum(axis=1)
                col_any = tensor.any(axis=1).sum(axis=1)
                mn = np.minimum(m, chunk_lengths)
                ub_sim = np.minimum(np.minimum(row_any, col_any), mn)
                return 1.0 - ub_sim / mn
        self._screen_dp_measures(
            padded, lengths, dk, keep, banded,
            build_tensor=lambda chunk: batch_match_tensor(
                self.query, chunk, eps),
            chunk_bounds=chunk_bounds)

    def _screen_dp_measures(self, padded: np.ndarray, lengths: np.ndarray,
                            dk: float, keep: bool, banded,
                            build_tensor, chunk_bounds) -> None:
        """Shared chunked screen for every DP measure.

        Walks the length-sorted chunks once: ``build_tensor`` broadcasts
        one chunk's candidate tensor (pairwise distances or eps
        matches), ``chunk_bounds`` reduces it to refinement lower
        bounds, retained chunks feed the staged exact DPs, and
        survivors under ``dk`` go through the adaptive ``banded``
        upper-bound sweep.  Keeping one loop keeps the chunk/retention/
        survivor bookkeeping of the tensor and edit families from
        drifting apart.
        """
        count = len(lengths)
        m = len(self.query)
        self.bounds = np.empty(count, dtype=np.float64)
        self.uppers = np.full(count, np.inf)
        self.exact_mask = np.zeros(count, dtype=bool)
        if keep:
            self._chunks = []
            self._row_of = np.empty((count, 2), dtype=np.int64)
        for rows in _length_sorted_chunks(lengths, m):
            chunk_lengths = lengths[rows]
            width = int(chunk_lengths.max())
            tensor = build_tensor(padded[rows, :width])
            bounds = chunk_bounds(tensor, chunk_lengths)
            self.bounds[rows] = bounds
            if keep:
                ci = len(self._chunks)
                self._chunks.append((rows, tensor))
                for ri, i in enumerate(rows.tolist()):
                    self._row_of[i] = (ci, ri)
            survivors = np.flatnonzero(bounds < dk)
            if survivors.size >= _BAND_SCREEN_MIN:
                if survivors.size == len(rows):
                    sub, sub_lengths = tensor, chunk_lengths
                else:
                    sub = tensor[survivors]
                    sub_lengths = chunk_lengths[survivors]
                self._adaptive_band_sweep(banded, sub, sub_lengths, dk,
                                          m, width, rows[survivors])

    def _adaptive_band_sweep(self, banded, sub: np.ndarray,
                             sub_lengths: np.ndarray, dk: float,
                             m: int, width: int,
                             out_rows: np.ndarray) -> None:
        """``dk``-driven banded screen over one chunk's survivors.

        Without a finite threshold there is nothing to certify against,
        so one sweep at the classic fixed radius supplies the upper
        bounds that cap the k-th best (the pre-adaptive behaviour).
        With a finite ``dk`` the sweep starts at the narrowest band and
        doubles the radius only for candidates whose banded value still
        exceeds ``dk`` — each widening can only tighten an upper bound,
        so a candidate stops growing as soon as its value *certifies*
        (drops to ``dk`` or below, yielding a usable cap) and the loop
        stops when every survivor certified, too few remain to justify
        another sweep, or the band hits the growth cap.  Radius choice
        never affects results: every banded value is a sound upper
        bound, and full-coverage sweeps are exact bit-for-bit.
        """
        if not np.isfinite(dk):
            values, exact = banded(sub, sub_lengths, _band_radius(m, width))
            self.uppers[out_rows] = values
            if exact:
                self.exact_mask[out_rows] = True
            return
        r = _BAND_MIN
        r_max = max(_BAND_MIN, int(_BAND_MAX_FRAC * max(m, width)))
        values, exact = banded(sub, sub_lengths, r)
        self.uppers[out_rows] = values
        if exact:
            self.exact_mask[out_rows] = True
            return
        while r < r_max:
            pending = np.flatnonzero(values > dk)
            if pending.size < _BAND_SCREEN_MIN:
                break
            r = min(2 * r, r_max)
            grown, exact = banded(sub[pending], sub_lengths[pending], r)
            values[pending] = grown
            self.uppers[out_rows[pending]] = grown
            if exact:
                self.exact_mask[out_rows[pending]] = True
                break

    @property
    def supports_batch_dp(self) -> bool:
        """True when :meth:`exact_batch` runs a real batched DP."""
        return self.name in ("frechet", "dtw", "erp", "edr", "lcss")

    def exact_batch(self, idxs: list[int], dk: float = np.inf,
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Distances for candidates ``idxs`` via one batched DP,
        dispatched through the configured kernel backend.

        Returns ``(values, exact_mask)``.  Values flagged exact are
        bit-identical to the per-pair DP; with a finite ``dk`` a
        candidate may instead be early-abandoned, in which case its
        value is a sound lower bound that is ``>= dk`` and its mask
        entry is False.  Reuses retained tensor slices when available,
        otherwise regathers just these candidates.
        """
        if self._chunks is not None and self.name != "erp":
            lengths = self._lengths[idxs]
            width = int(lengths.max())
            if self.name in ("edr", "lcss"):
                dm = np.zeros((len(idxs), len(self.query), width),
                              dtype=bool)
            else:
                dm = np.full((len(idxs), len(self.query), width), np.inf)
            for k, i in enumerate(idxs):
                piece = self._slice(i)
                dm[k, :, :piece.shape[1]] = piece
            args = (dm, lengths)
        else:
            padded, lengths = self.store.gather([self.tids[i] for i in idxs])
            args = (*_exact_kernel_args(self.measure, self.query, padded),
                    lengths)
        kernel = getattr(self.kernels, f"{self.name}_exact")
        if self.name not in ("dtw", "erp"):
            # Exact selections (Frechet) and integer DPs: a running
            # lower bound can never round above the final value.
            return kernel(*args, dk=dk)
        # DTW and ERP *sum*, and their min-plus scan reassociates each
        # row, so a row minimum can land an ulp above the final value:
        # abandon only past the guard, and hand the bound back less it.
        guard = float(self._slack[idxs].max())
        values, exact = kernel(*args, dk=dk + guard)
        values[~exact] -= guard
        return values, exact

    def _slice(self, i: int) -> np.ndarray | None:
        if self._chunks is None:
            return None
        ci, ri = self._row_of[i]
        return self._chunks[ci][1][ri][:, :int(self._lengths[i])]


def refine_top_k(measure: Measure, query: np.ndarray, tids: list[int],
                 store, heap, stats=None, kernels: str | None = None,
                 ) -> None:
    """Refine a candidate batch into a top-k ``heap``.

    ``heap`` must expose ``dk``, ``offer(distance, tid)`` and
    ``clone()`` (see :class:`repro.core.search.ResultHeap`); a heap
    carrying an external ``threshold`` (the planner's broadcast ``dk``)
    tightens every stage below for free, since all stages prune against
    ``heap.dk``.  ``stats``, when given, must expose an
    ``exact_refinements`` counter; it is incremented once per exact
    evaluation actually performed (each candidate of a staged batched
    DP, each candidate of a measure whose screen *is* the exact
    distance — Hausdorff's tensor reduction), the planner's measure of
    how much work threshold propagation saved.
    The heap ends up bit-identical to offering each candidate's
    ``distance_with_threshold(..., heap.dk)`` value in ``tids`` order:

    1. bounds for all candidates come from one batched kernel; a
       banded DP additionally yields upper bounds, whose k-th smallest
       caps the best threshold the batch can end with;
    2. candidates are probed in ascending-bound order against a clone
       of the heap, in doubling stages of one batched exact DP each,
       only while the bound beats the tighter of the probe's ``dk`` and
       the banded cap — once one candidate's bound fails, all remaining
       (larger) bounds fail too;
    3. the refined values replay into the real heap in the original
       order; a stored lower bound that would now be accepted is
       recomputed exactly first (a one-candidate kernel call).

    Every value that can enter the heap is the sequential DP's result
    bit-for-bit (batched DPs reproduce the per-pair float operations
    for every candidate they mark exact); everything else is a sound
    lower bound already at or above ``heap.dk`` when offered (an
    early-abandoned DP or an admission bound — a no-op offer), so the
    final heap — tie-breaks at the k-th boundary included — is the
    per-trajectory loop's.  Nothing here reaches the per-pair Python
    DPs of ``distances/{dtw,frechet,erp,edr,lcss}.py``: they are the
    tests' oracle.  ``kernels`` selects the DP backend
    (:mod:`repro.distances.kernels`); backends never change the heap,
    only the speed.  A list longer than :data:`_REFINE_SLICE` is refined
    slice by slice, in order, into the same heap.
    """
    count = len(tids)
    if count == 0:
        return
    if count > _REFINE_SLICE:
        for lo in range(0, count, _REFINE_SLICE):
            refine_top_k(measure, query, tids[lo:lo + _REFINE_SLICE], store,
                         heap, stats=stats, kernels=kernels)
        return
    refiner = BatchRefiner(measure, query, store, tids, dk=heap.dk,
                           kernels=kernels)
    bounds = refiner.bounds
    if refiner.is_exact:
        if stats is not None:
            stats.exact_refinements += count
        for tid, dist in zip(tids, bounds.tolist()):
            heap.offer(dist, tid)
        return

    values = bounds.copy()
    exact = np.zeros(count, dtype=bool)
    probe = heap.clone()
    cap = np.inf
    if refiner.uppers is not None:
        # Full-coverage banded sweeps already produced exact distances.
        known = np.flatnonzero(refiner.exact_mask)
        values[known] = refiner.uppers[known]
        exact[known] = True
        if stats is not None:
            stats.exact_refinements += int(known.size)
        for i in known.tolist():
            probe.offer(values[i], tids[i])
        # The k-th smallest upper bound caps the k-th best distance this
        # batch can end with; min()-ed with the probe's dk below.
        capper = heap.clone()
        finite = np.flatnonzero(np.isfinite(refiner.uppers))
        for i in finite.tolist():
            capper.offer(float(refiner.uppers[i]), tids[i])
        cap = capper.dk

    order = np.argsort(bounds, kind="stable").tolist()
    pos = 0
    stage = _DP_BATCH0
    while pos < count:
        dk = min(probe.dk, cap)
        group: list[int] = []
        while pos < count and len(group) < stage:
            i = order[pos]
            if exact[i]:
                pos += 1
                continue
            if bounds[i] >= dk:
                # Bounds are processed ascending, so every remaining
                # bound fails too.
                pos = count
                break
            group.append(i)
            pos += 1
        if not group:
            break
        if stats is not None:
            stats.exact_refinements += len(group)
        g_values, g_exact = refiner.exact_batch(group, dk=dk)
        for gi, i in enumerate(group):
            value = float(g_values[gi])
            if g_exact[gi]:
                values[i] = value
                exact[i] = True
                probe.offer(value, tids[i])
            elif value > values[i]:
                # Early-abandoned: keep the tighter lower bound.  It is
                # >= the stage's dk, so if the final replay threshold
                # is looser the replay recomputes.
                values[i] = value
        stage = min(stage * 2, _DP_BATCH_MAX)

    for i in range(count):
        value = float(values[i])
        if not exact[i] and value < heap.dk:
            # Still acceptable under the replay threshold: what the
            # sequential loop would have computed in full.
            if stats is not None:
                stats.exact_refinements += 1
            value = float(refiner.exact_batch([i])[0][0])
        heap.offer(value, tids[i])


def refine_range(measure: Measure, query: np.ndarray, tids: list[int],
                 store, radius: float, stats=None,
                 kernels: str | None = None) -> list[tuple[float, int]]:
    """All candidates within ``radius``, as ``(distance, tid)`` pairs.

    Candidates whose batch bound already exceeds the radius are dropped
    without any per-candidate work; the rest go through the same
    thresholded computation the sequential loop uses — batched for the
    DP measures, through the ``kernels`` backend — so the surviving
    set and its distances are bit-identical (an early-abandoned DP
    value is ``>= cutoff > radius`` and never admits).  ``stats``
    counts exact evaluations as in :func:`refine_top_k`; a list longer
    than :data:`_REFINE_SLICE` is refined slice by slice, in order.
    """
    matches: list[tuple[float, int]] = []
    if not tids:
        return matches
    if len(tids) > _REFINE_SLICE:
        for lo in range(0, len(tids), _REFINE_SLICE):
            matches += refine_range(measure, query,
                                    tids[lo:lo + _REFINE_SLICE], store,
                                    radius, stats=stats, kernels=kernels)
        return matches
    cutoff = float(np.nextafter(radius, np.inf))
    refiner = BatchRefiner(measure, query, store, tids, dk=cutoff,
                           kernels=kernels)
    if refiner.is_exact:
        if stats is not None:
            stats.exact_refinements += len(tids)
        for tid, dist in zip(tids, refiner.bounds.tolist()):
            if dist <= radius:
                matches.append((dist, tid))
        return matches
    survivors = np.flatnonzero(refiner.bounds < cutoff).tolist()
    values = refiner.bounds.copy()
    pending = survivors
    if refiner.exact_mask is not None:      # ERP keeps no banded screen
        known = refiner.exact_mask
        values[known] = refiner.uppers[known]
        pending = [i for i in survivors if not known[i]]
    if stats is not None:
        stats.exact_refinements += len(survivors)
    for lo in range(0, len(pending), _DP_BATCH_MAX):
        group = pending[lo:lo + _DP_BATCH_MAX]
        values[group] = refiner.exact_batch(group, dk=cutoff)[0]
    return [(float(values[i]), tids[i]) for i in survivors
            if values[i] <= radius]


def exact_distances(measure: Measure, query: np.ndarray, store,
                    tids: list[int], kernels: str | None = None,
                    ) -> np.ndarray:
    """``measure.distance(query, t)`` for every ``t`` of ``tids`` in
    ``store``, bit for bit (the query-to-pivot distances of every
    search, the pivot table of a build).  No screen and no threshold:
    each :data:`_REFINE_SLICE` of ids is gathered once and its
    length-sorted chunks go straight to the measure's exact kernel, so
    memory stays bounded however many ids are asked for."""
    out = np.empty(len(tids), dtype=np.float64)
    for lo in range(0, len(tids), _REFINE_SLICE):
        out[lo:lo + _REFINE_SLICE] = _exact_slice(
            measure, query, store, tids[lo:lo + _REFINE_SLICE], kernels)
    return out


def _exact_slice(measure: Measure, query: np.ndarray, store,
                 tids: list[int], kernels: str | None) -> np.ndarray:
    """:func:`exact_distances` of one slice."""
    name = measure.name
    if name not in ("hausdorff", "frechet", "dtw", "erp", "edr", "lcss"):
        # A measure registered from outside has no kernel.
        return np.array([measure.distance(query, store.points_of(tid))
                         for tid in tids], dtype=np.float64)
    padded, lengths = store.gather(tids)
    if name == "hausdorff":
        return _tensor_bounds(name, query, padded, lengths)
    kernel = getattr(get_kernels(kernels), f"{name}_exact")
    query_gaps = _erp_gaps(measure, query) if name == "erp" else None
    out = np.empty(len(tids), dtype=np.float64)
    for rows in _length_sorted_chunks(lengths, len(query)):
        chunk_lengths = lengths[rows]
        chunk = padded[rows, :int(chunk_lengths.max())]
        args = _exact_kernel_args(measure, query, chunk, query_gaps)
        out[rows] = kernel(*args, chunk_lengths, dk=np.inf)[0]
    return out

"""Compiled kernel tier for the exact/banded elastic DPs and the
trie traversal's run extension.

The batch refinement engine (:mod:`repro.distances.batch`) bottoms out
in five DP families — row-sweep DTW, anti-diagonal Frechet, the ERP
gap-point edit DP, and the EDR/LCSS integer edit sweeps, plus their
Sakoe-Chiba banded screens — and the best-first traversal
(:mod:`repro.core.search`) in the six bound computers' column sweeps
along a trie run (:mod:`.runs`).  This package puts those sweeps behind
a small backend registry so the same pipeline can run them as

* ``"numpy"`` — the vectorized sweeps in :mod:`repro.distances.batch`
  and the per-cell column steps of :mod:`.runs` (always available; the
  reference implementation);
* ``"cnative"`` — C translations compiled at first use with the host C
  compiler and called through :mod:`ctypes` (no third-party
  dependency; the shared object is cached on disk keyed by a source
  hash, so the compile cost is paid once per machine);
* ``"auto"`` — cnative when it is available, else the numpy
  fallback.

**Equivalence contract.**  Every compiled kernel iterates in the same
association order as the numpy sweep it mirrors, so for any candidate
both backends mark *exact* the returned value is **bit-identical** —
:data:`TOLERANCES` records the per-measure tolerance and is 0.0 for
every measure precisely because no kernel reassociates float
reductions (DTW/ERP replicate the min-plus prefix scan element by
element, Frechet is min/max selections only, EDR/LCSS are integer
DPs).  The tests in ``tests/test_kernels.py`` assert the contract.

With a finite abandon threshold ``dk`` the exact kernels may stop a
candidate early once a running per-row lower bound reaches ``dk``
(see the ``dk`` parameter below); backends are allowed to *check* at
different cadences, so the exact masks may differ between backends —
but an abandoned candidate's value is always a sound lower bound of
its exact distance that is ``>= dk``, which downstream pruning treats
identically however produced.

**Kernel signatures.**  Exact kernels take the broadcast tensor(s),
the true candidate ``lengths`` and the abandon threshold ``dk`` and
return ``(values, exact_mask)``.  Banded kernels take the tensor,
``lengths`` and the requested band radius and return
``(values, is_exact)`` — the radius is widened to the largest
query/candidate length difference of the stack, and when the widened
window covers the whole matrix the exact kernel runs instead (with
``dk = inf``) and ``is_exact`` is True.  Run kernels take a bound
computer's path state, its table of cell rows, the run's int64 row
indices and a cutoff, and return the state after the last cell they
consumed and that cell's bound (:mod:`.runs` has the per-measure
signatures); state and bound are bit-identical across backends, also
when the cutoff stops the sweep.

Backend selection: ``Repose.build(kernels=...)``, the CLI
``--kernels`` flag, or the
:data:`KERNELS_ENV` environment variable (which overrides the
``"auto"`` default, e.g. ``REPRO_KERNELS=numpy`` forces the fallback).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "KERNELS_ENV",
    "BACKEND_NAMES",
    "TOLERANCES",
    "KernelSet",
    "available_backends",
    "resolve_backend",
    "get_kernels",
]

#: Environment variable overriding the default backend choice.  It
#: replaces the ``"auto"`` default (and any explicit ``"auto"``
#: request); explicitly named backends in code win over it.
KERNELS_ENV = "REPRO_KERNELS"

#: Recognized backend names, in ``"auto"`` preference order (last is
#: the always-available fallback).
BACKEND_NAMES = ("cnative", "numpy")

#: Per-measure tolerance of the compiled-vs-numpy equivalence
#: contract.  All zeros: every compiled kernel replicates the numpy
#: sweep's association order (or performs only exact selections /
#: integer arithmetic), so no reassociation slack is needed anywhere.
#: ``hausdorff`` has no exact/banded DP here; its entry is for the
#: run-extension family.  The equivalence tests and
#: ``benchmarks/bench_kernels.py`` assert against these values.
TOLERANCES = {
    "hausdorff": 0.0,
    "dtw": 0.0,
    "frechet": 0.0,
    "erp": 0.0,
    "edr": 0.0,
    "lcss": 0.0,
}


@dataclass(frozen=True)
class KernelSet:
    """One backend's implementations of the five DP families and the
    six run-extension sweeps.

    Exact kernels map ``(tensor..., lengths, dk)`` to
    ``(values, exact_mask)``; banded kernels map
    ``(tensor, lengths, band)`` to ``(values, is_exact)``; run kernels
    map ``(state..., rows, slots, ..., cutoff)`` to
    ``(state..., bound)`` — see the module docstring for the full
    contract.  ``compiled`` is True for
    the native tier (the cost model uses it to scale per-candidate
    rates and GIL fractions).
    """

    name: str
    compiled: bool
    dtw_exact: Callable
    frechet_exact: Callable
    erp_exact: Callable
    edr_exact: Callable
    lcss_exact: Callable
    dtw_banded: Callable
    frechet_banded: Callable
    edr_banded: Callable
    lcss_banded: Callable
    hausdorff_run: Callable
    frechet_run: Callable
    dtw_run: Callable
    erp_run: Callable
    edr_run: Callable
    lcss_run: Callable


_SETS: dict[str, KernelSet] = {}
_AVAILABLE: dict[str, bool] = {}


def _numpy_set() -> KernelSet:
    """The always-available fallback, mapped onto the batch sweeps."""
    from .. import batch as b
    from . import runs

    def _exact(fn):
        def run(*args, dk=np.inf):
            return fn(*args, dk=dk, return_mask=True)
        return run

    return KernelSet(
        name="numpy", compiled=False,
        dtw_exact=_exact(b.batch_dtw_distances),
        frechet_exact=_exact(b.batch_frechet_distances),
        erp_exact=_exact(b.batch_erp_distances),
        edr_exact=_exact(b.batch_edr_distances),
        lcss_exact=_exact(b.batch_lcss_distances),
        dtw_banded=b.batch_dtw_banded,
        frechet_banded=b.batch_frechet_banded,
        edr_banded=b.batch_edr_banded,
        lcss_banded=b.batch_lcss_banded,
        hausdorff_run=runs.hausdorff_run,
        frechet_run=runs.frechet_run,
        dtw_run=runs.dtw_run,
        erp_run=runs.erp_run,
        edr_run=runs.edr_run,
        lcss_run=runs.lcss_run,
    )


def _compiled_set(name: str, raw) -> KernelSet:
    """Wrap a raw compiled backend (the ``cnative`` module) in the
    registry's uniform kernel signatures.

    The wrappers own the radius resolution and full-coverage fallback
    so every backend makes the same banded/exact decision as the numpy
    kernels in :mod:`repro.distances.batch`.
    """
    def dtw_banded(dm, lengths, band):
        cc, m, width = dm.shape
        r = int(max(int(band), np.abs(m - lengths).max()))
        if r >= m - 1 and 2 * r + 1 >= width:
            return raw.dtw_exact(dm, lengths, np.inf)[0], True
        return raw.dtw_banded(dm, lengths, r), False

    def frechet_banded(dm, lengths, band):
        cc, m, width = dm.shape
        r = int(max(int(band), np.abs(m - lengths).max()))
        if r >= max(m, width) - 1:
            return raw.frechet_exact(dm, lengths, np.inf)[0], True
        return raw.frechet_banded(dm, lengths, r), False

    def edr_banded(match, lengths, band):
        cc, m, width = match.shape
        r = int(max(int(band), np.abs(m - lengths).max()))
        if r >= max(m, width):
            return raw.edr_exact(match, lengths, np.inf)[0], True
        return raw.edr_banded(match, lengths, r), False

    def lcss_banded(match, lengths, band):
        cc, m, width = match.shape
        r = int(max(int(band), np.abs(m - lengths).max()))
        if r >= max(m, width):
            return raw.lcss_exact(match, lengths, np.inf)[0], True
        return raw.lcss_banded(match, lengths, r), False

    return KernelSet(
        name=name, compiled=True,
        dtw_exact=raw.dtw_exact,
        frechet_exact=raw.frechet_exact,
        erp_exact=raw.erp_exact,
        edr_exact=raw.edr_exact,
        lcss_exact=raw.lcss_exact,
        dtw_banded=dtw_banded,
        frechet_banded=frechet_banded,
        edr_banded=edr_banded,
        lcss_banded=lcss_banded,
        hausdorff_run=raw.hausdorff_run,
        frechet_run=raw.frechet_run,
        dtw_run=raw.dtw_run,
        erp_run=raw.erp_run,
        edr_run=raw.edr_run,
        lcss_run=raw.lcss_run,
    )


def _backend_available(name: str) -> bool:
    """Whether ``name`` can actually run here (cached; silent)."""
    cached = _AVAILABLE.get(name)
    if cached is not None:
        return cached
    if name == "numpy":
        ok = True
    elif name == "cnative":
        from . import cnative
        ok = cnative.available()
    else:
        ok = False
    _AVAILABLE[name] = ok
    return ok


def available_backends() -> tuple[str, ...]:
    """Backends that can run on this machine, in preference order."""
    return tuple(n for n in BACKEND_NAMES if _backend_available(n))


def resolve_backend(name: str | None = None) -> str:
    """Resolve a requested backend name to a concrete available one.

    ``None`` and ``"auto"`` follow the :data:`KERNELS_ENV` override if
    set, then pick the first available backend in
    :data:`BACKEND_NAMES` order.  An explicitly named backend is
    validated and returned as-is; requesting one that is unknown or
    unavailable raises ``ValueError`` (the silent fallback applies
    only to ``"auto"``).
    """
    if name is None or name == "auto":
        env = os.environ.get(KERNELS_ENV)
        name = env if env and env != "auto" else "auto"
    if name == "auto":
        for candidate in BACKEND_NAMES:
            if _backend_available(candidate):
                return candidate
        return "numpy"
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown kernel backend {name!r}; expected one of "
            f"{('auto',) + BACKEND_NAMES}")
    if not _backend_available(name):
        raise ValueError(
            f"kernel backend {name!r} is not available on this host "
            f"(available: {available_backends()})")
    return name


def get_kernels(name: str | None = None) -> KernelSet:
    """The :class:`KernelSet` for ``name`` (resolving ``auto``/env)."""
    resolved = resolve_backend(name)
    cached = _SETS.get(resolved)
    if cached is None:
        if resolved == "numpy":
            cached = _numpy_set()
        else:
            from . import cnative
            cached = _compiled_set("cnative", cnative)
        _SETS[resolved] = cached
    return cached

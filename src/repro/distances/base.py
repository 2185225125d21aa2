"""Measure registry and properties.

A :class:`Measure` bundles a distance function with the two properties
the index cares about (paper, Sections III-C and IV-D):

* metric measures (Hausdorff, Frechet, ERP) admit pivot-based pruning via
  the triangle inequality;
* order-independent measures (Hausdorff only) admit the z-value
  re-arrangement trie optimization.

Measures are looked up by name, e.g. ``get_measure("hausdorff")``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..exceptions import UnsupportedMeasureError
from ..types import Trajectory

__all__ = ["Measure", "register_measure", "get_measure", "list_measures",
           "rounding_slack"]

DistanceFn = Callable[..., float]
_EPS = float(np.finfo(np.float64).eps)


def rounding_slack(terms, *points):
    """Absolute float error of a sum of at most ``terms`` step costs
    between ``points``, however the sum is associated.

    The one guard of every lower bound that is compared with an exact
    distance *across two evaluations*: the DTW row/column-minima
    screen, the ERP gap-mass bounds, the row minima the DTW/ERP DPs
    abandon on, the pivot bound.  Each holds between the real values,
    but when it is tight both sides add up the same costs in different
    orders (the exact DPs run a min-plus scan, ``prefix + cummin(
    candidates - prefix)``, which re-adds a row prefix at every cell),
    the bound lands an ulp above the float distance, and a candidate
    tied with a seeded ``dk`` is lost.  Derived, not tuned: a step cost
    is a distance between two of ``points`` (arrays of ``(x, y)``
    rows), so at most their bounding-box diagonal ``span``; every
    partial result — a DP cell, a row prefix — is at most ``terms *
    span``; at most ``3 * terms`` roundings of half an ulp at that
    magnitude lead to a final value.  The factor 4 (for 1.5) also
    covers the costs' own ``sqrt`` rounding.  ``terms`` may be an array.
    """
    span = float(np.hypot(*np.ptp(np.vstack(points), axis=0)))
    return (4.0 * _EPS * span) * terms * terms


@dataclass(frozen=True)
class Measure:
    """A named trajectory similarity measure.

    Attributes
    ----------
    name:
        Canonical lower-case name ("hausdorff", "frechet", ...).
    fn:
        Callable ``fn(points_a, points_b, **params) -> float`` operating
        on ``(n, 2)`` numpy arrays.
    is_metric:
        True when the triangle inequality holds, enabling pivot pruning.
    order_sensitive:
        True when point order affects the distance.  Order-independent
        measures may use the optimized (re-arranged) RP-Trie.
    params:
        Default keyword parameters (e.g. ``eps`` for LCSS/EDR, ``gap``
        for ERP).
    """

    name: str
    fn: DistanceFn
    is_metric: bool
    order_sensitive: bool
    params: dict = field(default_factory=dict)

    def distance(self, a: Trajectory | np.ndarray, b: Trajectory | np.ndarray,
                 **overrides) -> float:
        """Distance between two trajectories (or raw point arrays)."""
        pa = a.points if isinstance(a, Trajectory) else np.asarray(a, dtype=np.float64)
        pb = b.points if isinstance(b, Trajectory) else np.asarray(b, dtype=np.float64)
        kwargs = {**self.params, **overrides}
        return self.fn(pa, pb, **kwargs)

    def with_params(self, **params) -> "Measure":
        """A copy of this measure with updated default parameters."""
        merged = {**self.params, **params}
        return Measure(self.name, self.fn, self.is_metric,
                       self.order_sensitive, merged)


_REGISTRY: dict[str, Measure] = {}


def register_measure(measure: Measure) -> Measure:
    """Register a measure under its canonical name (idempotent)."""
    _REGISTRY[measure.name] = measure
    return measure


def get_measure(name: str, **params) -> Measure:
    """Look up a measure by name, optionally overriding parameters.

    Raises
    ------
    UnsupportedMeasureError
        If no measure with that name is registered.
    """
    key = name.strip().lower()
    if key not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise UnsupportedMeasureError(f"unknown measure {name!r}; known: {known}")
    measure = _REGISTRY[key]
    if params:
        measure = measure.with_params(**params)
    return measure


def list_measures() -> list[str]:
    """Names of all registered measures, sorted."""
    return sorted(_REGISTRY)

"""Experiment harness: build engines, run query sets, collect metrics.

One :class:`ExperimentHarness` per (dataset, measure) cell; it
constructs each algorithm's distributed engine once and reports the
paper's three metrics — QT (average simulated query time), IS (index
bytes) and IT (simulated construction time) — per algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cluster.scheduler import ClusterSpec
from ..distances.base import get_measure
from ..exceptions import UnsupportedMeasureError
from ..repose import DistributedTopK, Repose, make_baseline
from ..types import Trajectory
from .workloads import Workload

__all__ = ["AlgorithmRun", "ExperimentHarness", "average_query_time"]


@dataclass
class AlgorithmRun:
    """Metrics for one algorithm on one workload."""

    algorithm: str
    supported: bool = True
    query_seconds: float = 0.0       # QT: mean simulated time per query
    wall_query_seconds: float = 0.0  # mean real time per query
    index_bytes: int = 0             # IS
    build_seconds: float = 0.0       # IT: simulated construction time
    per_query_seconds: list[float] = field(default_factory=list)
    result_distances: list[list[float]] = field(default_factory=list)

    @property
    def display_qt(self) -> str:
        """QT cell as the paper prints it ('/' when unsupported)."""
        return "/" if not self.supported else f"{self.query_seconds:.4f}"


def average_query_time(engine: DistributedTopK, queries: list[Trajectory],
                       k: int) -> tuple[float, float, list[float], list[list[float]]]:
    """Run all queries; return (mean simulated, mean wall, per-query,
    per-query result distances)."""
    simulated: list[float] = []
    walls: list[float] = []
    distances: list[list[float]] = []
    for query in queries:
        outcome = engine.top_k(query, k)
        simulated.append(outcome.simulated_seconds)
        walls.append(outcome.wall_seconds)
        distances.append(outcome.result.distances())
    mean_sim = sum(simulated) / len(simulated) if simulated else 0.0
    mean_wall = sum(walls) / len(walls) if walls else 0.0
    return mean_sim, mean_wall, simulated, distances


class ExperimentHarness:
    """Builds and runs the four algorithms on one workload.

    Parameters
    ----------
    workload:
        Dataset + queries + delta.
    measure:
        Measure name.
    num_partitions:
        Global partition count (paper default 64).
    cluster_spec:
        Virtual cluster (paper default 16 x 4).
    """

    def __init__(self, workload: Workload, measure: str,
                 num_partitions: int = 64,
                 cluster_spec: ClusterSpec | None = None):
        self.workload = workload
        self.measure = get_measure(measure)
        self.num_partitions = num_partitions
        self.cluster_spec = cluster_spec or ClusterSpec()

    # -- engine builders -----------------------------------------------------

    def build_repose(self, **overrides) -> Repose:
        """Build a REPOSE engine with the workload's parameters, on the
        paper's distributed plan (its simulated times are what the
        experiments compare with the baselines')."""
        options = {
            "measure": self.measure,
            "delta": self.workload.delta,
            "num_partitions": self.num_partitions,
            "cluster_spec": self.cluster_spec,
            "plan": "waves",
        }
        options.update(overrides)
        return Repose.build(self.workload.dataset, **options)

    def build_baseline(self, name: str, **overrides) -> DistributedTopK:
        """Build one baseline engine on the same workload."""
        engine = make_baseline(
            name, self.workload.dataset, self.measure,
            num_partitions=self.num_partitions,
            cluster_spec=self.cluster_spec, **overrides)
        engine.build()
        return engine

    # -- experiment cells ------------------------------------------------------

    def run_algorithm(self, name: str, k: int,
                      **overrides) -> AlgorithmRun:
        """Build + query one algorithm; returns "/" metrics when the
        algorithm does not support the measure (as in Table IV)."""
        try:
            if name.lower() == "repose":
                engine = self.build_repose(**overrides)
            else:
                engine = self.build_baseline(name, **overrides)
        except UnsupportedMeasureError:
            return AlgorithmRun(algorithm=name, supported=False)
        qt, wall, per_query, distances = average_query_time(
            engine, self.workload.queries, k)
        report = engine.build_report
        return AlgorithmRun(
            algorithm=name,
            query_seconds=qt,
            wall_query_seconds=wall,
            index_bytes=engine.index_bytes(),
            build_seconds=report.simulated_seconds if report else 0.0,
            per_query_seconds=per_query,
            result_distances=distances,
        )

    def run_all(self, k: int = 100,
                algorithms: tuple[str, ...] = ("repose", "dita", "dft", "ls"),
                ) -> dict[str, AlgorithmRun]:
        """The full Table IV cell: every algorithm on this workload."""
        return {name: self.run_algorithm(name, k) for name in algorithms}

"""Per-layer metrics: the proxies that record them and their names.

Every proxy is bound by this process over a public name of ``repro``
(a module attribute, a class method, an instance attribute) and is
removed again when its ``with`` block ends, so untraced rounds run the
program exactly as a library user would.  A span is named after the
metric it feeds; a layer's time is the *self* time of its spans (span
minus children), summed and divided by the number of traced ops.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

import repro.core.search as search_mod
import repro.distances.batch as batch_mod
import repro.repose as repose_mod
from repro.cluster.batch import BatchQueryPlanner
from repro.cluster.driver import RunningTopK, RunningTopKVector
from repro.cluster.engine import ExecutionEngine
from repro.cluster.planner import QueryPlanner
from repro.cluster.query_index import QueryIndex
from repro.core.grid import Grid
from repro.core.rptrie import RPTrie
from repro.core.store import TrajectoryStore
from repro.datasets import generate_dataset, preprocess
from repro.distances import get_measure

from spans import END, ID, NAME, OP, PARENT, SIZE, START, Tracer

MEASURES = ("hausdorff", "frechet", "dtw", "erp", "edr", "lcss")

#: name -> (unit, better).  Span-fed times are per traced op; counts
#: are per op too, over every op of the run.  One op is one ``top_k``
#: call, one 32-query ``top_k_batch`` call, or one served micro-batch.
PER_LAYER: dict[str, tuple[str, str]] = {
    "index_vs_scan": ("ratio", "lower"),
    "repose.self_ms": ("ms", "lower"),
    "cluster.planner.probe_ms": ("ms", "lower"),
    "cluster.planner.self_ms": ("ms", "lower"),
    "cluster.planner.waves": ("count", "lower"),
    "cluster.planner.partitions_skipped": ("count", "higher"),
    "cluster.rdd.probe_cache_hit_frac": ("ratio", "higher"),
    "cluster.batch.self_ms": ("ms", "lower"),
    "cluster.batch.tasks_dispatched": ("count", "lower"),
    "cluster.batch.queries_deduplicated": ("count", "higher"),
    "cluster.batch.cross_query_tightenings": ("count", "higher"),
    "cluster.query_index.self_ms": ("ms", "lower"),
    "cluster.query_index.distance_calls": ("count", "lower"),
    "cluster.engine.dispatch_ms": ("ms", "lower"),
    "cluster.engine.tasks": ("count", "lower"),
    "cluster.driver.merge_ms": ("ms", "lower"),
    "core.search.traverse_ms": ("ms", "lower"),
    "core.search.nodes_visited": ("count", "lower"),
    "core.search.nodes_pruned": ("count", "higher"),
    "core.search.prune_frac": ("ratio", "higher"),
    "core.bounds.extend_ms": ("ms", "lower"),
    "core.bounds.extend_calls": ("count", "lower"),
    "core.bounds.extend_us_per_call": ("us", "lower"),
    "core.store.gather_ms": ("ms", "lower"),
    "core.store.gather_calls": ("count", "lower"),
    "core.store.bytes_per_point": ("B", "lower"),
    "distances.batch.refine_self_ms": ("ms", "lower"),
    "distances.batch.screen_ms": ("ms", "lower"),
    "distances.batch.leaf_refinements": ("count", "lower"),
    "distances.batch.candidates": ("count", "lower"),
    "distances.batch.exact_refinements": ("count", "lower"),
    "distances.batch.exact_frac": ("ratio", "lower"),
    "distances.batch.perpair_frac": ("ratio", "lower"),
    "distances.batch.leaf_size_mean": ("count", "higher"),
    "distances.threshold.perpair_ms": ("ms", "lower"),
    "distances.kernels.banded_ms": ("ms", "lower"),
    "distances.kernels.exact_ms": ("ms", "lower"),
    "cluster.service.queue_wait_ms": ("ms", "lower"),
    "cluster.service.overhead_ms": ("ms", "lower"),
    "cluster.service.batch_size_mean": ("count", "higher"),
    "cluster.service.registry_hit_frac": ("ratio", "higher"),
    "cluster.service.insert_wait_ms": ("ms", "lower"),
    "cluster.service.insert_apply_ms": ("ms", "lower"),
    "partitioning.partition_s": ("s", "lower"),
    "core.pivots.select_s": ("s", "lower"),
    "core.rptrie.build_s": ("s", "lower"),
    "core.rptrie.nodes": ("count", "lower"),
    "core.rptrie.depth": ("count", "lower"),
    "core.rptrie.leaf_occupancy": ("count", "higher"),
    "core.rptrie.bytes_per_traj": ("B", "lower"),
    **{f"core.bounds.extend_us.{m}": ("us", "lower") for m in MEASURES},
    **{f"distances.batch.scan_us_per_traj.{m}": ("us", "lower")
       for m in MEASURES},
    **{f"distances.kernels.exact_us_per_pair.{m}": ("us", "lower")
       for m in MEASURES},
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.unattributed_frac": ("ratio", "lower"),
}

ROOT = "repose.self_ms"


class Bindings:
    """Attribute replacements that undo themselves on ``__exit__``."""

    def __init__(self):
        self._undo: list[tuple] = []

    def bind(self, owner, attr: str, value) -> None:
        own = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, old, own in reversed(self._undo):
            if own:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
        self._undo.clear()


class QueryProxies(Bindings):
    """The query-path proxies, from the driver down to the kernels.

    ``root`` names the engine method the workload's op goes through
    (``top_k`` or ``top_k_batch``); each call of it is one traced op.
    """

    def __init__(self, tracer: Tracer, engine, root: str):
        super().__init__()
        self.tracer, self.engine, self.root = tracer, engine, root

    def __enter__(self):
        wrap, bind = self.tracer.wrap, self.bind

        def method(cls, attr, name, **kw):
            bind(cls, attr, wrap(name, getattr(cls, attr), **kw))

        engine = self.engine
        bind(engine, self.root,
             wrap(ROOT, getattr(engine, self.root), root=True))
        bind(engine, "insert",
             wrap("cluster.service.insert_apply_ms", engine.insert))
        bind(engine.context.engine, "task_wrapper",
             lambda task: wrap(ROOT, task))

        method(QueryPlanner, "execute_top_k", "cluster.planner.self_ms")
        method(QueryPlanner, "probe", "cluster.planner.probe_ms",
               opaque=True)
        method(BatchQueryPlanner, "execute_batch", "cluster.batch.self_ms")
        for attr in ("add", "range_search", "nearest", "tighten"):
            method(QueryIndex, attr, "cluster.query_index.self_ms")
        bind(ExecutionEngine, "run_waves", self._run_waves())
        for cls, attrs in ((RunningTopK, ("fold", "result")),
                           (RunningTopKVector, ("fold", "results"))):
            for attr in attrs:
                method(cls, attr, "cluster.driver.merge_ms")

        for module in (repose_mod, search_mod):
            bind(module, "local_search",
                 wrap("core.search.traverse_ms", module.local_search))
        bind(repose_mod, "local_search_multi",
             wrap("core.search.traverse_ms", repose_mod.local_search_multi))
        bind(search_mod, "make_bound_computer", self._bound_computers())
        bind(search_mod, "refine_top_k",
             wrap("distances.batch.refine_self_ms", search_mod.refine_top_k,
                  size=lambda args: len(args[2])))
        method(TrajectoryStore, "gather", "core.store.gather_ms")
        method(batch_mod.BatchRefiner, "__init__",
               "distances.batch.screen_ms")
        bind(batch_mod, "distance_with_threshold",
             wrap("distances.threshold.perpair_ms",
                  batch_mod.distance_with_threshold))
        bind(batch_mod, "get_kernels", self._kernels())
        return self

    def _run_waves(self):
        """``run_waves`` pulls the planner's wave generator and calls
        its fold from inside the engine; give both back to the planner
        that owns them (the span two levels up) so ``dispatch_ms`` is
        the engine's own time."""
        wrap, original = self.tracer.wrap, ExecutionEngine.run_waves
        done = object()

        def owner(stack):
            return stack[-2][NAME] if len(stack) > 1 else ROOT

        def traced_waves(waves):
            pending = iter(waves)
            pull = wrap(owner, lambda: next(pending, done))
            try:
                while (wave := pull()) is not done:
                    yield wave
            finally:
                close = getattr(pending, "close", None)
                if close is not None:
                    close()

        def run_waves(engine, waves, hints=None, on_wave=None):
            fold = wrap(owner, on_wave) if on_wave is not None else None
            return original(engine, traced_waves(waves), hints=hints,
                            on_wave=fold)

        return wrap("cluster.engine.dispatch_ms", run_waves)

    def _bound_computers(self):
        wrap, make = self.tracer.wrap, search_mod.make_bound_computer

        def make_bound_computer(measure, grid, query_points):
            computer = make(measure, grid, query_points)
            computer.extend = wrap("core.bounds.extend_ms", computer.extend)
            return computer

        return make_bound_computer

    def _kernels(self):
        wrap, get = self.tracer.wrap, batch_mod.get_kernels
        traced: dict[str, object] = {}

        def get_kernels(name=None):
            kernels = get(name)
            if kernels.name not in traced:
                proxies = {
                    field.name: wrap(
                        "distances.kernels.banded_ms"
                        if field.name.endswith("_banded")
                        else "distances.kernels.exact_ms",
                        getattr(kernels, field.name))
                    for field in dataclasses.fields(kernels)
                    if field.name.endswith(("_banded", "_exact"))}
                traced[kernels.name] = dataclasses.replace(kernels,
                                                           **proxies)
            return traced[kernels.name]

        return get_kernels


class BuildProxies(Bindings):
    """Spans over the three build layers of ``Repose.build``."""

    def __init__(self, tracer: Tracer):
        super().__init__()
        self.tracer = tracer

    def __enter__(self):
        wrap, make_strategy = self.tracer.wrap, repose_mod.make_strategy
        self.bind(repose_mod, "make_strategy", lambda name: wrap(
            "partitioning.partition_s", make_strategy(name)))
        self.bind(repose_mod, "select_pivots",
                  wrap("core.pivots.select_s", repose_mod.select_pivots,
                       opaque=True))
        self.bind(RPTrie, "build",
                  wrap("core.rptrie.build_s", RPTrie.build, opaque=True))
        return self


def build_metrics(tracer: Tracer, engine,
                  speeds: dict[int, float]) -> dict[str, float]:
    """Build-layer seconds from the build spans, plus the structure of
    the tries ``engine`` ended up with.  ``speeds`` maps an op id to
    the factor that takes its spans to reference machine speed."""
    out = {name: 0.0 for name in ("partitioning.partition_s",
                                  "core.pivots.select_s",
                                  "core.rptrie.build_s")}
    for rec in tracer.spans:
        if rec[NAME] in out:
            out[rec[NAME]] += (rec[END] - rec[START]) * speeds[rec[OP]]
    stats = [index.trie.stats() for index in engine.local_indexes()]
    stores = [index.trie.store for index in engine.local_indexes()]
    trajectories = sum(s.num_trajectories for s in stats)
    leaves = sum(s.leaf_count for s in stats)
    out["core.rptrie.nodes"] = sum(s.node_count for s in stats)
    out["core.rptrie.depth"] = max(s.depth for s in stats)
    out["core.rptrie.leaf_occupancy"] = (
        sum(s.avg_leaf_occupancy * s.leaf_count for s in stats) / leaves)
    out["core.rptrie.bytes_per_traj"] = engine.index_bytes() / trajectories
    out["core.store.bytes_per_point"] = (
        sum(store.memory_bytes() for store in stores)
        / sum(store.total_points for store in stores))
    return out


def span_metrics(tracer: Tracer,
                 speeds: dict[int, float]) -> dict[str, float]:
    """Per-op layer times and span-derived counts of the traced ops."""
    own = tracer.self_times()
    ms = {name: 0.0 for name, (unit, _) in PER_LAYER.items()
          if unit == "ms"}
    calls = dict.fromkeys(ms, 0)
    screened = {rec[PARENT] for rec in tracer.spans
                if rec[NAME] == "distances.batch.screen_ms"}
    ops = tasks = candidates = perpair = 0
    root_ms = root_own = 0.0
    for rec in tracer.spans:
        name = rec[NAME]
        if name not in ms:
            continue
        to_ms = speeds.get(rec[OP], 1.0) * 1e3
        ms[name] += own[rec[ID]] * to_ms
        calls[name] += 1
        if name == ROOT and rec[PARENT] == -1:
            ops += 1
            root_ms += (rec[END] - rec[START]) * to_ms
            root_own += own[rec[ID]] * to_ms
        elif name == ROOT:
            tasks += 1
        elif name == "distances.batch.refine_self_ms":
            candidates += rec[SIZE]
            if rec[ID] not in screened:
                perpair += rec[SIZE]
    ops = max(ops, 1)
    inserts = calls["cluster.service.insert_apply_ms"]
    apply_ms = ms.pop("cluster.service.insert_apply_ms")
    out = {name: value / ops for name, value in ms.items()}
    out["cluster.service.insert_apply_ms"] = apply_ms / max(inserts, 1)
    extends = calls["core.bounds.extend_ms"]
    out["core.bounds.extend_calls"] = extends / ops
    out["core.bounds.extend_us_per_call"] = (
        ms["core.bounds.extend_ms"] * 1e3 / max(extends, 1))
    out["core.store.gather_calls"] = calls["core.store.gather_ms"] / ops
    out["cluster.engine.tasks"] = tasks / ops
    out["distances.batch.perpair_frac"] = perpair / max(candidates, 1)
    out["distances.batch.leaf_size_mean"] = candidates / max(
        calls["distances.batch.refine_self_ms"], 1)
    out["trace.unattributed_frac"] = root_own / root_ms if root_ms else 0.0
    return out


def micro_table(queries: int = 4) -> dict[str, float]:
    """Six-measure micro table on one fixed 512-trajectory store, so
    ERP/EDR/LCSS — which no workload runs — are not invisible."""
    data = preprocess(generate_dataset("t-drive", scale=0.0015, seed=1))
    trajectories = data.trajectories[:512]
    store = TrajectoryStore(trajectories)
    grid = Grid.fit(data.bounding_box(), 0.15)
    queries = trajectories[:queries * 128:128]
    cells = np.unique(np.concatenate(
        [grid.z_values_of(t.points) for t in trajectories[:64]]))[:64]
    tids = store.ids()
    out = {}
    for name in MEASURES:
        measure = get_measure(name)
        extend_s = scan_s = exact_s = 0.0
        for query in queries:
            computer = search_mod.make_bound_computer(measure, grid,
                                                      query.points)
            state = computer.initial_state()
            start = time.perf_counter()
            for z in cells:
                computer.extend(state, int(z), 64)
            extend_s += time.perf_counter() - start

            heap = search_mod.ResultHeap(10)
            start = time.perf_counter()
            search_mod.refine_top_k(measure, query.points, tids, store, heap)
            scan_s += time.perf_counter() - start

            refiner = batch_mod.BatchRefiner(measure, query.points, store,
                                             tids[:64])
            start = time.perf_counter()
            if refiner.supports_batch_dp:
                refiner.exact_batch(list(range(64)))
            else:
                for other in trajectories[:64]:
                    measure.distance(query, other)
            exact_s += time.perf_counter() - start
        n = len(queries)
        out[f"core.bounds.extend_us.{name}"] = (
            extend_s * 1e6 / (n * len(cells)))
        out[f"distances.batch.scan_us_per_traj.{name}"] = (
            scan_s * 1e6 / (n * len(tids)))
        out[f"distances.kernels.exact_us_per_pair.{name}"] = (
            exact_s * 1e6 / (n * 64))
    return out

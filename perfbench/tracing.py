"""Spans around the public entry points of each layer, from outside.

:func:`install` wraps the entry points named in :data:`LAYERS`.  Methods
are wrapped on their class; module functions are replaced in every
``repro`` module that holds a reference to them, because callers look them
up in their own module's namespace.  Each call records a span — layer
name, start, end, parent span and the id of the operation it belongs to —
in memory; :meth:`Tracer.write_jsonl` writes them out at the end.

A layer's self time is its spans' durations minus the parts covered by
their child spans (:func:`self_times`).
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

#: Layer -> entry points as ``module:Class.method`` or ``module:function``.
LAYERS: dict[str, tuple[str, ...]] = {
    "ttkv.append": ("repro.ttkv.store:TTKV.record_events",),
    "windowing": ("repro.core.windowing:StreamingGroupExtractor.feed_many",),
    "correlation.fold": (
        "repro.core.correlation:CorrelationMatrix.update_groups",
        "repro.core.correlation:CorrelationMatrix.observe_groups_batch",
        "repro.core.correlation:CorrelationMatrix.compact",
    ),
    "correlation.components": (
        "repro.core.correlation:CorrelationMatrix.connected_components",
    ),
    "sharded": ("repro.core.sharded:ShardedPipeline.update",),
    "hac": (
        "repro.core.dendro_repair:splice_dendrogram",
        "repro.core.dendro_repair:rebuild_outcome",
        "repro.core.hac_kernel:agglomerate_square",
        "repro.core.clustering:agglomerate_clusters",
        "repro.core.clustering:component_clusters",
    ),
    "cut_order": (
        "repro.core.cluster_model:ClusterSet.from_key_sets",
        "repro.core.dendrogram:Dendrogram.cut",
        "repro.core.ordering:SortedKeySets.add",
        "repro.core.ordering:SortedKeySets.remove",
        "repro.core.ordering:SortedKeySets.as_key_sets",
        "repro.core.ordering:diff_sorted",
    ),
    "fleet.handoff": (
        "repro.core.sharded:ShardedPipeline.pairwise_counts",
        "repro.fleet.merge:FleetCorrelationMerge.ingest",
    ),
    "fleet.merge": ("repro.fleet.merge:FleetCorrelationMerge.clusters",),
    "checkpoint.write": ("repro.fleet.pipeline:FleetPipeline.to_state_dir",),
    "repair.cluster": ("repro.repair.controller:OcastaRepairTool.build_clusters",),
    "search.plan": (
        "repro.core.sorting:sort_clusters_for_search",
        "repro.core.search:candidate_versions",
        "repro.core.search:search_order",
    ),
    "repair.trials": ("repro.core.repair:RepairEngine.run",),
}

#: Counters read off an entry point's arguments or return value.
_RESULT_COUNTERS = {
    "repro.ttkv.store:TTKV.record_events": (
        "ttkv.append.events",
        # from_events replays a generator: count only what has a length
        lambda args, result: len(args[1]) if hasattr(args[1], "__len__") else 0,
    ),
    "repro.core.windowing:StreamingGroupExtractor.feed_many": (
        "windowing.groups_closed",
        lambda args, result: len(result),
    ),
    "repro.core.correlation:CorrelationMatrix.update_groups": (
        "correlation.fold.dirty_keys",
        lambda args, result: len(result),
    ),
    "repro.core.correlation:CorrelationMatrix.observe_groups_batch": (
        "correlation.fold.dirty_keys",
        lambda args, result: len(result),
    ),
}


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int
    op: str


@dataclass
class Tracer:
    """In-memory span recorder; ``op`` tags spans with the current operation."""

    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    op: str = "setup"
    #: counters only count inside measured operations
    counting: bool = False
    _stack: list[int] = field(default_factory=list)
    _restore: list[tuple[object, str, object]] = field(default_factory=list)

    def wrap(self, layer: str, target: str, function, counter=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(Span(layer, clock(), 0, stack[-1] if stack else -1, tracer.op))
            stack.append(index)
            try:
                result = function(*args, **kwargs)
            finally:
                stack.pop()
                spans[index].end = clock()
            if counter is not None and tracer.counting:
                tracer.counters[counter[0]] += counter[1](args, result)
            return result

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", target)
        return traced

    def _set(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        import importlib

        for layer, targets in LAYERS.items():
            for target in targets:
                module_name, _, path = target.partition(":")
                module = importlib.import_module(module_name)
                counter = _RESULT_COUNTERS.get(target)
                if "." in path:
                    class_name, attr = path.split(".")
                    owner = getattr(module, class_name)
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(
                            self.wrap(layer, target, raw.__func__, counter)
                        )
                    else:
                        wrapped = self.wrap(layer, target, raw, counter)
                    self._set(owner, attr, wrapped)
                    continue
                original = getattr(module, path)
                wrapped = self.wrap(layer, target, original, counter)
                for loaded in list(sys.modules.values()):
                    if not getattr(loaded, "__name__", "").startswith("repro"):
                        continue
                    for name, value in list(vars(loaded).items()):
                        if value is original:
                            self._set(loaded, name, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span.name,
                            "start_ns": span.start,
                            "end_ns": span.end,
                            "parent": span.parent,
                            "op": span.op,
                        }
                    )
                    + "\n"
                )


def self_times(spans: list[Span], ops=None) -> dict[str, dict[str, float]]:
    """Per layer: self time in ns, call count and inclusive top-level time.

    ``ops`` restricts the totals to spans of those operations.  A span's
    self time is its duration minus its direct children's durations;
    ``top_ns`` sums the durations of spans without a parent, which is the
    wall time attributed to some layer.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_ns[span.parent] += span.end - span.start
    layers: dict[str, dict[str, float]] = defaultdict(
        lambda: {"self_ns": 0, "calls": 0, "top_ns": 0}
    )
    for index, span in enumerate(spans):
        if ops is not None and span.op not in ops:
            continue
        entry = layers[span.name]
        duration = span.end - span.start
        entry["self_ns"] += duration - child_ns[index]
        entry["calls"] += 1
        if span.parent < 0:
            entry["top_ns"] += duration
    return dict(layers)

"""Which of the program's functions are timed, and the per-layer metrics.

Every span comes from a wrapper this benchmark installs around a public
function of one layer of ``repro``; nothing inside ``src/`` records
time.  :func:`install` lists the wrapped functions by layer, and
:func:`layer_metrics` turns one traced pass into the per-layer numbers
``BENCHMARK.json`` names.

Unless noted, a ``*_s`` metric is the layer's *self* time: its spans'
duration minus the spans of other wrapped calls nested inside them.
"""

from __future__ import annotations

import sys

import numpy as np

from tracing import Tracer

#: (per-layer metric, unit, better).  ``BENCHMARK.json`` lists the same.
PER_LAYER = (
    ("graph.build_s", "s", "lower"),
    ("sampling.busy_s", "s", "lower"),
    ("sampling.sets", "count", "lower"),
    ("sampling.entries", "count", "lower"),
    ("sampling.sets_per_s", "1/s", "higher"),
    ("sampling.resolve_s", "s", "lower"),
    ("backends.start_s", "s", "lower"),
    ("backends.wait_s", "s", "lower"),
    ("backends.close_s", "s", "lower"),
    ("backends.bytes_computed", "B", "lower"),
    ("backends.load_imbalance", "ratio", "lower"),
    ("sharded.merge_s", "s", "lower"),
    ("rr_collection.extend_s", "s", "lower"),
    ("rr_collection.flat_view_s", "s", "lower"),
    ("rr_collection.coverage_s", "s", "lower"),
    ("max_coverage.busy_s", "s", "lower"),
    ("max_coverage.calls", "count", "lower"),
    ("max_coverage.entries", "count", "lower"),
    ("dssa.iterations", "count", "lower"),
    ("dssa.rr_sets", "count", "lower"),
    ("dssa.self_s", "s", "lower"),
    ("engine.require_s", "s", "lower"),
    ("engine.self_s", "s", "lower"),
    ("engine.hit_rate", "share", "higher"),
    ("engine.rr_sampled", "count", "lower"),
    ("dynamic.mutate_s", "s", "lower"),
    ("dynamic.repair_s", "s", "lower"),
    ("dynamic.invalidated", "count", "lower"),
    ("dynamic.repair_fraction", "share", "lower"),
    ("service.op_s", "s", "lower"),
    ("service.transport_s", "s", "lower"),
    ("service.admission_wait_s", "s", "lower"),
    ("service.admitted", "count", "higher"),
    ("service.rejected", "count", "lower"),
    ("trace.overhead_share", "share", "lower"),
    ("trace.unaccounted_share", "share", "lower"),
)

#: counts that must repeat exactly across runs at one seed.
EXACT_COUNTS = (
    "dssa.rr_sets",
    "sampling.entries",
    "max_coverage.entries",
    "backends.bytes_computed",
    "dynamic.invalidated",
)


# ----------------------------------------------------------------------
# Counters, taken at the boundary where the work happens
# ----------------------------------------------------------------------
def _count_sets(tracer: Tracer, args, kwargs, batch) -> None:
    tracer.add("sampling.sets", len(batch))
    tracer.add("sampling.entries", sum(int(rr.size) for rr in batch))
    if tracer.open_span_name() == "engine.require":
        tracer.add("engine.rr_sampled", len(batch))


def _count_shards(tracer: Tracer, args, kwargs, shards) -> None:
    # Bytes of the arrays the process backend ships: int64 indices (and
    # pinned roots) down, a packed int32 entry array plus int64 set
    # sizes back.  Computed from array sizes, not read off the wire.
    index_batches = args[1]
    root_batches = args[2] if len(args) > 2 else kwargs.get("root_batches")
    sent = sum(np.asarray(b).nbytes for b in index_batches)
    if root_batches is not None:
        sent += sum(np.asarray(b).nbytes for b in root_batches if b is not None)
    received = 0
    for worker, batch in enumerate(shards):
        entries = sum(int(rr.size) for rr in batch)
        tracer.add(f"backends.worker_entries.{worker}", entries)
        received += 4 * entries + 8 * len(batch)
    tracer.add("backends.bytes_computed", sent + received)


def _count_flat_view(tracer: Tracer, args, kwargs, view) -> None:
    if tracer.open_span_name() == "max_coverage":
        tracer.add("max_coverage.entries", int(view[0].size))


def _count_max_coverage(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("max_coverage.calls")


def _count_dssa(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("dssa.iterations", result.iterations)
    tracer.add("dssa.rr_sets", result.samples)
    tracer.add("engine.demand", result.samples)


def _count_estimate(tracer: Tracer, args, kwargs, result) -> None:
    if kwargs.get("samples") is not None:
        tracer.add("engine.demand", int(kwargs["samples"]))


def _count_mutate(tracer: Tracer, args, kwargs, report) -> None:
    tracer.add("dynamic.invalidated", report["invalidated"])
    tracer.add("dynamic.sets_total", report["sets_total"])


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
def install(tracer: Tracer) -> None:
    """Wrap every timed function; undo with ``tracer.restore()``."""
    from repro.datasets import synthetic
    from repro.dynamic import repair
    from repro.engine.context import SamplingContext
    from repro.engine.engine import InfluenceEngine
    from repro.engine.registry import get_algorithm
    from repro.sampling import base
    from repro.sampling.backends.base import ExecutionBackend
    from repro.sampling.rr_collection import RRCollection, RRSnapshot, _CoverageReadOps
    from repro.sampling.sharded import ShardedSampler
    from repro.service.admission import AdmissionController
    from repro.service.client import ServiceClient
    from repro.service.pool import QueryView
    from repro.service.service import InfluenceService

    # `repro.core` re-exports a function named `dssa`, which shadows the
    # module of the same name as an attribute; the module object is only
    # reachable through sys.modules.
    dssa_module = sys.modules["repro.core.dssa"]
    # The engine runs D-SSA through its registry entry, which captured
    # `dssa_on_context` at import time.
    dssa_spec = get_algorithm("D-SSA")

    wrap = tracer.wrap
    wrap(synthetic, "load_dataset", "graph.build")

    wrap(base, "resolve_kernel", "sampling.resolve")
    wrap(base.RRSampler, "sample_batch", "sampling.sample_batch", _count_sets)
    wrap(ShardedSampler, "sample_batch", "sharded.sample_batch", _count_sets)
    wrap(ExecutionBackend, "start", "backends.start")
    wrap(ExecutionBackend, "sample_shards", "backends.sample_shards", _count_shards)
    wrap(ExecutionBackend, "close", "backends.close")

    wrap(RRCollection, "extend", "rr_collection.extend")
    wrap(RRCollection, "flat_view", "rr_collection.flat_view", _count_flat_view)
    wrap(RRSnapshot, "flat_view", "rr_collection.flat_view", _count_flat_view)
    wrap(RRCollection, "snapshot", "rr_collection.flat_view")
    wrap(_CoverageReadOps, "coverage", "rr_collection.coverage")

    wrap(dssa_module, "max_coverage", "max_coverage", _count_max_coverage)
    wrap(dssa_module, "dssa_on_context", "dssa", _count_dssa)
    wrap(dssa_spec, "engine_func", "dssa", _count_dssa)

    wrap(InfluenceEngine, "__init__", "engine.session")
    wrap(InfluenceEngine, "close", "engine.session")
    wrap(InfluenceEngine, "maximize", "engine.query")
    wrap(InfluenceEngine, "estimate", "engine.query", _count_estimate)
    wrap(SamplingContext, "__init__", "engine.context")
    wrap(SamplingContext, "close", "engine.context")
    wrap(SamplingContext, "require", "engine.require")
    wrap(QueryView, "require", "engine.require")

    wrap(InfluenceEngine, "mutate", "dynamic.mutate", _count_mutate)
    wrap(repair, "repair_context", "dynamic.repair")

    wrap(InfluenceService, "call", "service.call")
    tracer.wrap_enter(AdmissionController, "admit", "service.admission")
    wrap(ServiceClient, "call", "service.client")


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def layer_metrics(tracer: Tracer, *, start: float, end: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass timed over ``[start, end)``.

    Metrics a workload measures itself (``graph.build_s``, ``service.*``
    and ``trace.overhead_share``) are left for the caller to fill in.
    """
    own = tracer.self_times()
    counts = tracer.counts

    def self_s(*names: str) -> float:
        return sum(own.get(name, 0.0) for name in names)

    busy = tracer.total("sampling.sample_batch") + tracer.total("sharded.sample_batch")
    sets = counts["sampling.sets"]
    worker_entries = [v for k, v in counts.items() if k.startswith("backends.worker_entries.")]
    mean_entries = float(np.mean(worker_entries)) if worker_entries else 0.0
    demand = counts["engine.demand"]
    sets_total = counts["dynamic.sets_total"]
    wall = end - start
    return {
        "sampling.busy_s": busy,
        "sampling.sets": sets,
        "sampling.entries": counts["sampling.entries"],
        "sampling.sets_per_s": sets / busy if busy else 0.0,
        "sampling.resolve_s": tracer.total("sampling.resolve"),
        "backends.start_s": tracer.total("backends.start"),
        "backends.wait_s": tracer.total("backends.sample_shards"),
        "backends.close_s": tracer.total("backends.close"),
        "backends.bytes_computed": counts["backends.bytes_computed"],
        "backends.load_imbalance": (
            max(worker_entries) / mean_entries if mean_entries else 0.0
        ),
        "sharded.merge_s": self_s("sharded.sample_batch"),
        "rr_collection.extend_s": self_s("rr_collection.extend"),
        "rr_collection.flat_view_s": self_s("rr_collection.flat_view"),
        "rr_collection.coverage_s": self_s("rr_collection.coverage"),
        "max_coverage.busy_s": self_s("max_coverage"),
        "max_coverage.calls": counts["max_coverage.calls"],
        "max_coverage.entries": counts["max_coverage.entries"],
        "dssa.iterations": counts["dssa.iterations"],
        "dssa.rr_sets": counts["dssa.rr_sets"],
        "dssa.self_s": self_s("dssa"),
        "engine.require_s": self_s("engine.require"),
        "engine.self_s": self_s("engine.session", "engine.query", "engine.context"),
        "engine.hit_rate": 1.0 - counts["engine.rr_sampled"] / demand if demand else 0.0,
        "engine.rr_sampled": counts["engine.rr_sampled"],
        "dynamic.mutate_s": tracer.total("dynamic.mutate"),
        "dynamic.repair_s": tracer.total("dynamic.repair"),
        "dynamic.invalidated": counts["dynamic.invalidated"],
        "dynamic.repair_fraction": (
            counts["dynamic.invalidated"] / sets_total if sets_total else 0.0
        ),
        "service.admission_wait_s": tracer.total("service.admission"),
        "trace.unaccounted_share": 1.0 - tracer.covered(start, end) / wall,
    }

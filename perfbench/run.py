"""Run one workload of the end-to-end query benchmark and print its metrics.

    python3 perfbench/run.py --workload dssa-wc-100k --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; it imports ``repro`` from ``src/``
there.  Set-up runs three times and reports the median.  With
``--trace 0`` one untraced pass gives the end-to-end metrics.  With
``--trace 1`` a traced pass of the same operations runs between two
untraced ones; the per-layer metrics come from the traced pass, and the
wall times of the three give the tracing overhead.  The spans of the
traced pass are written to ``.perfbench/``.  Every answer is checked.

The last line of standard output is one JSON object::

    {"correct": true, "attempted": 14, "failed": 0,
     "metrics": {"setup_s": {"value": 0.93, "unit": "s"}, ...}}
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"
SETUP_REPEATS = 3

#: (end-to-end metric, unit, better).  ``BENCHMARK.json`` lists the same.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("latency_s.p50", "s", "lower"),
    ("latency_s.p90", "s", "lower"),
    ("throughput_ops", "1/s", "higher"),
    ("ok_share", "share", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


def _use_checkout() -> None:
    """Import ``repro`` from this checkout and keep temporary files in it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no repro package under {src}; run it in a checkout")
    sys.path.insert(0, str(src))
    tmp = SCRATCH / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # Spawned backend workers inherit the variable.
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


@contextlib.contextmanager
def _traced(tracer):
    from layers import install

    install(tracer)
    tracer.clear()
    try:
        yield
    finally:
        tracer.restore()


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full", spans_path=None) -> tuple[dict, dict]:
    """Run one workload; returns ``(result, notes)``.

    ``result`` is the object the benchmark prints last; ``notes`` holds
    facts such as an answer digest.
    """
    from layers import PER_LAYER, install, layer_metrics
    from tracing import Tracer
    from workloads import WORKLOADS

    bench = WORKLOADS[workload](seed, seconds, size)
    tracer = Tracer()
    try:
        if trace:
            install(tracer)
        try:
            setups = [bench.setup() for _ in range(SETUP_REPEATS)]
        finally:
            tracer.restore()
        builds = [s.seconds for s in tracer.named("graph.build")]
        tracer.clear()
        passes = [bench.run_pass(contextlib.nullcontext())]
        if trace:
            # Untraced passes on both sides of the traced one take a
            # linear drift in machine speed out of the overhead.
            passes.append(bench.run_pass(_traced(tracer)))
            passes.append(bench.run_pass(contextlib.nullcontext()))
        wrong = bench.check(passes)
        notes = bench.notes(passes)
        rss = bench.peak_rss_mb()
    finally:
        bench.close()
    if trace and spans_path is not None:
        tracer.write(spans_path)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.raised for p in passes) + wrong
    if trace:
        before, traced, after = passes
        values = layer_metrics(tracer, start=traced.start, end=traced.end)
        values["graph.build_s"] = statistics.median(builds)
        values.update(traced.extra)
        for name, _, _ in PER_LAYER:
            values.setdefault(name, 0)  # a layer this workload never calls
        values["trace.overhead_share"] = 2 * traced.wall / (before.wall + after.wall) - 1.0
        table = PER_LAYER
    else:
        (timed,) = passes
        # With every operation failed, the wall time stands in (and the
        # run is reported incorrect anyway).
        latencies = timed.latencies or [timed.wall]
        values = {
            "setup_s": statistics.median(setups),
            "latency_s.p50": statistics.median(latencies),
            "latency_s.p90": _percentile(latencies, 90),
            "throughput_ops": len(timed.latencies) / timed.wall,
            "ok_share": (attempted - failed) / attempted,
            "peak_rss_mb": rss,
        }
        table = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in table}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, notes


def _stop_resource_tracker() -> None:
    """Stop and reap the helper process that shared memory starts."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _use_checkout()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    spans_path = SCRATCH / f"spans-{args.workload}-seed{args.seed}.jsonl"
    try:
        result, notes = measure(
            args.workload, args.seed, args.seconds, bool(args.trace),
            spans_path=spans_path,
        )
    finally:
        _stop_resource_tracker()
    print(json.dumps({"workload": args.workload, "seed": args.seed, **notes}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test of the benchmark harness at tiny sizes.

Every workload must emit every metric ``BENCHMARK.json`` names, with its
unit, and check its answers; the workload seed must change the inputs
but not the metric names; and the counts later changes may claim
reductions against must repeat exactly at one seed.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from layers import EXACT_COUNTS, PER_LAYER
from run import END_TO_END, measure
from workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _tiny(workload: str, seed: int, trace: bool) -> dict:
    result, _notes = measure(workload, seed, 1.0, trace, size="tiny")
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def _inputs(workload: str, seed: int):
    bench = WORKLOADS[workload](seed, 1.0, size="tiny")
    if hasattr(bench, "query_seeds"):
        return bench.query_seeds
    bench.setup()
    bench.close()
    return bench.plan


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in SPEC[key]] == list(table)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_seed_changes_inputs_not_metric_names(workload):
    assert _inputs(workload, 1) == _inputs(workload, 1)
    assert _inputs(workload, 1) != _inputs(workload, 2)
    metrics = _tiny(workload, 2, False)["metrics"]
    assert {n: m["unit"] for n, m in metrics.items()} == {n: u for n, u, _ in END_TO_END}
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_emits_layers_and_repeats_exact_counts(workload):
    first, second = (_tiny(workload, 1, True)["metrics"] for _ in range(2))
    assert {n: m["unit"] for n, m in first.items()} == {n: u for n, u, _ in PER_LAYER}
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name
    assert first["dssa.rr_sets"]["value"] > 0

"""BENCHMARK.json names what perfbench/run.py runs and reports.

The metric names and units are read from BENCHMARK.json at run time;
these tests check that every workload it lists exists and that every
per-layer metric it lists is one some workload computes (a misspelt
name would otherwise read 0).
"""

import json
from pathlib import Path

from perfbench import serve_mix
from perfbench.metrics import definition, layer_metrics
from perfbench.run import WORKLOAD_NAMES
from perfbench.spans import Tracer

ROOT = Path(__file__).resolve().parents[2]
DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Per-layer metrics the workloads add next to the computed tables.
ADDED_BY_WORKLOADS = {"cli.import_s", "trace.overhead_share"}


def test_workloads_match():
    names = [w["name"] for w in DEFINITION["workloads"]]
    assert names == list(WORKLOAD_NAMES)


def test_definition_reads_every_metric():
    listed = definition()
    assert list(listed["end_to_end"]) == [
        m["name"] for m in DEFINITION["end_to_end"]
    ]
    assert list(listed["per_layer"]) == [
        m["name"] for m in DEFINITION["per_layer"]
    ]
    assert "setup_s" in listed["end_to_end"]


def test_every_per_layer_metric_is_computed():
    empty = {"metrics": {}, "store_bytes": 0, "wall": 0.0}
    computed = (
        set(layer_metrics(Tracer(), passes=1))
        | set(serve_mix.serve_layers([], empty, empty))
        | ADDED_BY_WORKLOADS
    )
    assert set(definition()["per_layer"]) <= computed


def test_command_stays_inside_the_benchmark():
    assert DEFINITION["command"] == ["python3", "perfbench/run.py"]
    assert DEFINITION["paths"] == ["perfbench"]

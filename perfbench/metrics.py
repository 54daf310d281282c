"""Per-layer numbers of a traced run, computed from its spans.

The metric names, units and directions are defined once, in
``BENCHMARK.json`` (:func:`definition` reads them); this module computes
the span-based per-layer values (:mod:`perfbench.spans`): ``*_s`` are
seconds per pass (summed over the pass), ``*_ms`` milliseconds per call,
``*_cpu_*`` the CPU time of the same spans, all raw (not scaled to
nominal speed).  What each end-to-end metric means on each workload is
described in ``perfbench/README.md``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

__all__ = ["definition", "layer_metrics"]

DEFINITION = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def definition() -> Dict[str, Dict[str, str]]:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}`` as
    ``BENCHMARK.json`` lists them, in its order."""
    with open(DEFINITION) as handle:
        listed = json.load(handle)
    return {
        kind: {metric["name"]: metric["unit"] for metric in listed[kind]}
        for kind in ("end_to_end", "per_layer")
    }


STAGES = ("grouping", "signatures", "matching", "control", "reduction",
          "emission")
#: Span names reported per pass (``_s``) and per call (``_ms``).
PER_PASS = ("netlist.parse", "netlist.write_verilog", "store.netlist_digest",
            "store.commit_netlist", "core.identify", "eval.reference",
            "eval.evaluate")
PER_CALL = ("store.file_digest", "store.probe", "store.commit_result",
            "api.report")


def layer_metrics(tracer, passes: int) -> Dict[str, float]:
    """Per-layer numbers of a traced run, per pass (or per call)."""
    out: Dict[str, float] = {}
    for name in PER_PASS:
        out[f"{name}_s"] = tracer.wall.get(name, 0.0) / passes
        out[f"{name}_cpu_s"] = tracer.cpu.get(name, 0.0) / passes
    for name in PER_CALL:
        calls = tracer.calls.get(name, 0) or 1
        out[f"{name}_ms"] = tracer.wall.get(name, 0.0) / calls * 1e3
        out[f"{name}_cpu_ms"] = tracer.cpu.get(name, 0.0) / calls * 1e3
    parse_s = tracer.wall.get("netlist.parse", 0.0)
    parsed = tracer.counters.get("netlist.parse_bytes", 0.0)
    out["netlist.parse_mb_per_s"] = parsed / 1e6 / parse_s if parse_s else 0.0
    probes = tracer.counters.get("store.probes", 0.0)
    hits = tracer.counters.get("store.probe_hits", 0.0)
    out["store.hit_share"] = hits / probes if probes else 0.0
    out["store.bytes_written_mb"] = (
        tracer.counters.get("store.bytes", 0.0) / 1e6 / passes
    )
    stage_s = dict.fromkeys(STAGES, 0.0)
    cone = [0, 0]
    key = [0, 0]
    for result in tracer.results:
        trace = result.trace
        if trace.cache_provenance.get("provenance") == "hit":
            continue
        for stage in STAGES:
            stage_s[stage] += trace.stage_seconds.get(stage, 0.0)
        cache = trace.cache
        cone[0] += cache.cone_hits
        cone[1] += cache.cone_hits + cache.cone_misses
        key[0] += cache.key_hits + cache.key_shared_hits
        key[1] += cache.key_hits + cache.key_shared_hits + cache.key_misses
    for stage in STAGES:
        out[f"core.stage.{stage}_s"] = stage_s[stage] / passes
    out["core.cone_hit_rate"] = cone[0] / cone[1] if cone[1] else 0.0
    out["core.key_hit_rate"] = key[0] / key[1] if key[1] else 0.0
    out["api.unattributed_s"] = tracer.unattributed_s / passes
    return out

"""Micro-benchmark of the staged analysis engine.

Runs ``identify_words`` on one mid-size ITC99 benchmark (b12 by default)
and writes ``BENCH_pipeline.json``: per-stage wall-clock, aggregate cache
hit rates, the deterministic trace counters, and the artifact store's
warm-vs-cold numbers (a cold run that commits to a fresh store, then warm
probes that load the cached result).  CI uploads the file as an artifact
so the perf trajectory of the engine is recorded per commit.

When numpy is importable the run is measured under **both** signature
kernels, each pinned through ``AnalysisContext(kernel=...)``: the report
carries a ``kernels`` section with per-kernel wall time and the
array/python speedup, and asserts the two result digests are
byte-identical — the benchmark doubles as the differential check on the
design it times.

Usage::

    PYTHONPATH=src python benchmarks/bench_pipeline.py [--design b12]
        [--repeats 5] [--jobs 1] [--output BENCH_pipeline.json]

The reported timing is the *minimum* over the repeats — the most
contention-robust estimator on shared CI runners.
"""

from __future__ import annotations

import argparse
import json
import platform
import tempfile
import time

from repro.core import kernels as _kernels
from repro.core.context import AnalysisContext
from repro.core.pipeline import PipelineConfig, identify_words
from repro.store import ArtifactStore, result_digest
from repro.synth.designs import BENCHMARKS


def _timed_runs(netlist, config: PipelineConfig, repeats: int, kernel=None):
    """(best_seconds, all_seconds, best_result) over ``repeats`` runs.

    ``kernel`` pins the signature kernel of each run's fresh context
    (``None``: the platform default, exactly what every user run gets).
    """
    best = None
    best_result = None
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        context = AnalysisContext(netlist, config.depth, kernel=kernel)
        result = identify_words(netlist, config, context=context)
        elapsed = time.perf_counter() - start
        times.append(elapsed)
        if best is None or elapsed < best:
            best = elapsed
            best_result = result
    return best, times, best_result


def _bench_kernels(netlist, config: PipelineConfig, repeats: int) -> dict:
    """Per-kernel wall time plus the differential digest check.

    Pins each kernel on the run's context and refuses to report a
    speedup for results that are not byte-identical.
    """
    walls = {}
    digests = {}
    for kernel in ("python", "array"):
        best, _, result = _timed_runs(netlist, config, repeats, kernel)
        if result.trace.kernel != kernel:
            raise AssertionError(f"kernel={kernel!r} ran {result.trace.kernel}")
        walls[kernel] = best
        digests[kernel] = result_digest(result)
    if digests["array"] != digests["python"]:
        raise AssertionError(
            "array kernel digest diverged from the python reference"
        )
    return {
        "python_wall_seconds": walls["python"],
        "array_wall_seconds": walls["array"],
        "speedup": walls["python"] / walls["array"] if walls["array"]
        else float("inf"),
        "result_digest": digests["array"],
    }


def run(design: str, repeats: int, jobs: int) -> dict:
    netlist = BENCHMARKS[design]()
    config = PipelineConfig(jobs=jobs)
    best, times, best_result = _timed_runs(netlist, config, repeats)
    best_trace = best_result.trace
    cache = best_trace.cache
    store_numbers = _bench_store(netlist, config, repeats)
    payload = {
        "design": design,
        "gates": netlist.num_gates,
        "flip_flops": netlist.num_ffs,
        "jobs": jobs,
        "repeats": repeats,
        "python": platform.python_version(),
        "kernel": best_trace.kernel,
        "wall_seconds": best,
        "wall_seconds_all": times,
        "stage_seconds": dict(best_trace.stage_seconds),
        "cache_hit_rates": {
            "cone": cache.cone_hit_rate,
            "hash_key": cache.key_hit_rate,
            "reduced_key_reuse": cache.reduced_reuse_rate,
        },
        "cache": cache.as_dict(),
        "counters": best_trace.counter_dict(),
        "store": store_numbers,
    }
    if _kernels.numpy_available():
        payload["kernels"] = _bench_kernels(netlist, config, repeats)
    return payload


def _bench_store(netlist, config: PipelineConfig, repeats: int) -> dict:
    """Warm-vs-cold artifact-store numbers on a throwaway store.

    ``cold_seconds`` includes the digest + commit overhead a caching run
    pays on a miss; ``warm_seconds`` is the best probe-only rerun.  The
    digests of both results are compared so the benchmark doubles as a
    cache-correctness smoke check.
    """
    with tempfile.TemporaryDirectory(prefix="bench-store-") as root:
        store = ArtifactStore(root)
        start = time.perf_counter()
        cold_result = identify_words(netlist, config, store=store)
        cold = time.perf_counter() - start
        warm = None
        warm_result = None
        for _ in range(max(repeats, 1)):
            start = time.perf_counter()
            warm_result = identify_words(netlist, config, store=store)
            elapsed = time.perf_counter() - start
            if warm is None or elapsed < warm:
                warm = elapsed
        if warm_result.trace.cache_provenance.get("provenance") != "hit":
            raise AssertionError("warm rerun did not hit the store")
        if result_digest(cold_result) != result_digest(warm_result):
            raise AssertionError("cached result differs from computed one")
        return {
            "cold_seconds": cold,
            "warm_seconds": warm,
            "speedup": cold / warm if warm else float("inf"),
        }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--design", default="b12", choices=sorted(BENCHMARKS)
    )
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--output", default="BENCH_pipeline.json")
    args = parser.parse_args()
    payload = run(args.design, args.repeats, args.jobs)
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(
        f"{payload['design']}: {payload['wall_seconds'] * 1000.0:.1f} ms "
        f"(min of {args.repeats}, kernel={payload['kernel']}), "
        f"key cache {payload['cache_hit_rates']['hash_key']:.1%}, "
        f"store warm {payload['store']['warm_seconds'] * 1000.0:.1f} ms "
        f"({payload['store']['speedup']:.0f}x) -> "
        f"{args.output}"
    )
    if "kernels" in payload:
        k = payload["kernels"]
        print(
            f"kernels: python "
            f"{k['python_wall_seconds'] * 1000.0:.1f} ms, array "
            f"{k['array_wall_seconds'] * 1000.0:.1f} ms "
            f"({k['speedup']:.2f}x, digests identical)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Sustained-load benchmark reporting for ``repro serve``.

``scripts/serve_smoke.py --bench`` drives live server subprocesses at
several ``--workers`` settings with distinct seeded generated designs
(every request a store miss; a response that is not ``cache: "miss"``
fails the sweep) and hands the raw per-request observations to
:func:`build_report`, which folds them into the
schema-stamped ``BENCH_serve.json`` payload CI archives next to
``BENCH_pipeline.json``.  The shape is pinned by
``tests/serve/test_bench.py``; anything added here must bump
:data:`repro.schema.SCHEMA_VERSION`.

Percentiles use the nearest-rank method — deterministic, no
interpolation, defined for any non-empty sample — so two runs over the
same latency list always report identical numbers.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence

from ..schema import stamp

__all__ = ["percentile", "summarize_latencies", "build_report"]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sample (``0 < q <= 100``)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError("q must be in (0, 100]")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
    return float(ordered[int(rank) - 1])


def summarize_latencies(latencies: Sequence[float]) -> Dict[str, float]:
    """p50/p90/p99/mean/max of one sweep's per-request seconds."""
    if not latencies:
        return {"p50": 0.0, "p90": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0}
    return {
        "p50": percentile(latencies, 50),
        "p90": percentile(latencies, 90),
        "p99": percentile(latencies, 99),
        "mean": float(sum(latencies) / len(latencies)),
        "max": float(max(latencies)),
    }


def build_report(
    design: str,
    pool: str,
    concurrency: int,
    sweeps: Sequence[Dict],
    cpu_count: Optional[int] = None,
) -> Dict:
    """The ``BENCH_serve.json`` payload from raw sweep observations.

    ``design`` names the request mix (for the smoke bench, the
    generator campaign the miss designs come from).  Each sweep entry carries ``workers``, the list of per-request
    ``latencies_s`` (successful requests only), an ``errors`` count, and
    the sweep's wall-clock ``elapsed_s``.  Sweeps are reported in the
    given order; the headline ``scaling`` field is the throughput ratio
    of the last sweep to the first (the ``--workers 1`` → ``--workers
    4`` scaling the acceptance bar asks about), alongside the host's CPU
    count — on a single-core host the honest expectation for that ratio
    is ~1.0, and the report says so rather than hiding it.
    """
    rows: List[Dict] = []
    for sweep in sweeps:
        latencies = list(sweep["latencies_s"])
        elapsed = float(sweep["elapsed_s"])
        rows.append({
            "workers": int(sweep["workers"]),
            "requests": len(latencies),
            "errors": int(sweep.get("errors", 0)),
            "elapsed_s": elapsed,
            "req_per_s": (len(latencies) / elapsed) if elapsed > 0 else 0.0,
            "latency_s": summarize_latencies(latencies),
        })
    scaling = None
    if len(rows) >= 2 and rows[0]["req_per_s"] > 0:
        scaling = rows[-1]["req_per_s"] / rows[0]["req_per_s"]
    return stamp({
        "bench": "serve_load",
        "design": design,
        "pool": pool,
        "concurrency": int(concurrency),
        "cpu_count": int(
            cpu_count if cpu_count is not None else (os.cpu_count() or 1)
        ),
        "sweeps": rows,
        "scaling": scaling,
    })

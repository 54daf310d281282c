"""Order statistics and op accounting shared by every workload.

Percentiles of latency samples are nearest-rank and come from the
program's own :func:`repro.serve.bench.percentile`, so the benchmark and
``BENCH_serve.json`` agree on what "p90" means.  Medians and quartiles of
repeated measurements (set-up times, pass walls) use the interpolating
definitions of :mod:`statistics`, the same ones the spread check over
runs uses.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.serve.bench import percentile

__all__ = ["Ops", "iqr_share", "median", "percentile", "quartiles"]


def median(values: Sequence[float]) -> float:
    """The median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, q2, q3]`` as ``statistics.quantiles(values, n=4)`` gives."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    return [float(q) for q in statistics.quantiles(values, n=4)]


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the first and third quartile over the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


@dataclass
class Ops:
    """Attempted/failed accounting of one run.

    Every op the benchmark issues is recorded exactly once, as ok or as
    failed with a reason.  Failed ops are the ones refused (429/503),
    errored, or whose output was wrong; ``wrong`` is the subset whose
    output was checked and found incorrect, which makes the run's
    ``correct`` flag false.
    """

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    reasons: Dict[str, int] = field(default_factory=dict)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str, wrong: bool = False) -> None:
        self.attempted += 1
        self.failed += 1
        if wrong:
            self.wrong += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def check(self, ok: bool, reason: str) -> bool:
        """Record one op whose output was checked; ``ok`` passes it."""
        if ok:
            self.ok()
        else:
            self.fail(reason, wrong=True)
        return ok

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.wrong == 0

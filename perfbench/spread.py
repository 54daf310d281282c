"""Median and quartile spread of several runs' results, per metric.

The benchmark is steady when, over ten runs of one workload with ten
seeds, the distance between the first and third quartile of each metric
is a small share of its median (``BENCHMARK.json`` bounds it).  Usage::

    for seed in 1 2 3 4 5 6 7 8 9 10; do
        python3 perfbench/run.py --workload warm_hit --seed $seed \\
            | tail -1 > runs/warm_hit-$seed.json
    done
    python3 perfbench/spread.py runs/warm_hit-*.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.stats import iqr_share, median  # noqa: E402


def spreads(results: Sequence[Dict]) -> Dict[str, Dict[str, float]]:
    """Per metric: the median and the quartile spread over ``results``."""
    values: Dict[str, List[float]] = {}
    for result in results:
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return {
        name: {"median": median(sample), "spread": iqr_share(sample)}
        for name, sample in values.items()
        if len(sample) >= 2
    }


def main(paths: Sequence[str]) -> int:
    results = [
        json.loads(Path(path).read_text().strip().splitlines()[-1])
        for path in paths
    ]
    for name, row in sorted(spreads(results).items()):
        print(f"{name:32s} median {row['median']:14.6f}  "
              f"spread {row['spread']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The repository's benchmark: one workload per run, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold_cli|warm_hit|table1|serve_mix
        [--seed N] [--seconds S] [--trace 0|1]

The first run in a checkout builds the inputs (about a minute, see
:mod:`perfbench.inputs`).  A run then sets the workload up
``SETUP_REPEATS`` times (reporting the median as ``setup_s``), measures
for ``--seconds`` (at least one full pass), checks every op's output,
tears down every process it started, and prints a human-readable summary
followed by one JSON object as the last line of standard output::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` the per-layer ones, from a
separate traced pass.  The metric definitions and the workload
rationale are in ``perfbench/README.md``.

Exit codes: 0 with a result; 1 when the benchmark itself failed (a
process group outlived its teardown, an input could not be built, an
exception); 2 when the checkout holds no program to benchmark; 128+N
when interrupted by signal N.  No result line is printed unless 0.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3

#: What the issue-level names of each workload read from.
ALIASES = {
    "cold_cli": {"cold_cli_s": "pass_s"},
    "warm_hit": {"warm_file_hit_ms": "p50_ms", "warm_mem_hit_s": "pass_s"},
    "table1": {"table1_s": "pass_s"},
    "serve_mix": {
        "serve_p50_ms": "p50_ms",
        "serve_p90_ms": "p90_ms",
        "serve_goodput_rps": "goodput_rps",
    },
}


class Interrupted(BaseException):
    """SIGINT/SIGTERM reached the benchmark; unwinds through ``finally``."""

    def __init__(self, signum: int):
        super().__init__(signum)
        self.signum = signum


def _on_signal(signum, _frame):
    # Teardown must not be cut short by a second signal.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    raise Interrupted(signum)


@dataclass
class Context:
    """Everything a workload needs; created once per run."""

    inputs: object
    seed: int
    seconds: float
    tracer: object
    groups: object
    ops: object
    env: Dict[str, str]
    workdir: Path
    speed: object
    setup_repeats: int = SETUP_REPEATS


def _workloads():
    from perfbench import serve_mix, workloads

    return {
        "cold_cli": workloads.cold_cli,
        "warm_hit": workloads.warm_hit,
        "table1": workloads.table1,
        "serve_mix": serve_mix.run,
    }


WORKLOAD_NAMES = ("cold_cli", "warm_hit", "table1", "serve_mix")
#: Workloads whose program side is single-threaded: the benchmark and
#: its children are pinned to one CPU, where the host speed is sampled.
ONE_CPU = ("cold_cli", "warm_hit", "table1")
#: Workloads whose program runs in child processes: their peak RSS is
#: the children's, not the benchmark's own (which holds the references).
IN_CHILDREN = ("cold_cli", "serve_mix")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> Dict[str, str]:
    """nproc, Python, numpy and the signature kernel that resolved."""
    from repro.core.kernels import numpy_available, resolve_kernel

    numpy_version = "absent"
    if numpy_available():
        import numpy

        numpy_version = numpy.__version__
    return {
        "nproc": str(os.cpu_count()),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel": resolve_kernel(None),
    }


def _peak_rss_mb(workload: str, groups) -> float:
    """The program's peak resident set: of the reaped children for
    :data:`IN_CHILDREN` workloads, of this process for the others."""
    if workload in IN_CHILDREN:
        return groups.peak_rss_kb / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(args, groups) -> Dict:
    """Build inputs, run the workload; the result object."""
    from perfbench.calibrate import HostSpeed
    from perfbench.inputs import child_env, ensure_inputs
    from perfbench.metrics import definition
    from perfbench.spans import Tracer
    from perfbench.stats import Ops

    env = child_env(ROOT)
    inputs = ensure_inputs(ROOT, groups)
    cpus = sorted(os.sched_getaffinity(0))
    if args.workload in ONE_CPU:
        cpus = cpus[:1]
        os.sched_setaffinity(0, cpus)
    groups.peak_rss_kb = 0  # the input builder is not the workload
    workdir = ROOT / ".bench_build" / f"perfbench-run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ctx = Context(
        inputs=inputs,
        seed=args.seed,
        seconds=args.seconds,
        tracer=Tracer(enabled=bool(args.trace)),
        groups=groups,
        ops=Ops(),
        env=env,
        workdir=workdir,
        speed=HostSpeed(cpus, enabled=not args.trace),
    )
    try:
        measured = _workloads()[args.workload](ctx)
    finally:
        survivors = groups.stop_all()
        shutil.rmtree(workdir, ignore_errors=True)
    if survivors:
        raise RuntimeError(f"process groups survived teardown: {survivors}")
    listed = definition()
    if args.trace:
        # A layer the workload does not cross reads 0.
        layers = measured["layers"]
        metrics = {
            name: (layers.get(name, 0.0), unit)
            for name, unit in listed["per_layer"].items()
        }
    else:
        measured["peak_rss_mb"] = _peak_rss_mb(args.workload, groups)
        measured.setdefault("info", {})["mean_host_speed"] = (
            ctx.speed.mean_speed())
        metrics = {
            name: (measured[name], unit)
            for name, unit in listed["end_to_end"].items()
        }
    _print_summary(args, ctx, measured, metrics)
    return {
        "correct": ctx.ops.correct,
        "attempted": ctx.ops.attempted,
        "failed": ctx.ops.failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def _print_summary(args, ctx, measured, metrics) -> None:
    """The human-readable lines before the result: every metric with its
    unit, the issue-level aliases, failed_share and the environment."""
    env = " ".join(f"{k}={v}" for k, v in environment().items())
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g} | {env}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6f} {unit}")
    if not args.trace:
        for alias, name in ALIASES[args.workload].items():
            print(f"  {alias:32s} {measured[name]:14.6f} {metrics[name][1]}"
                  f"  (= {name})")
    ops = ctx.ops
    print(f"  {'failed_share':32s} {ops.failed_share:14.6f} share"
          f"  ({ops.failed}/{ops.attempted} ops failed"
          f"{', ' + json.dumps(ops.reasons) if ops.reasons else ''})")
    for key, value in measured.get("info", {}).items():
        print(f"  {key:32s} {value}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}; nothing to "
              f"benchmark", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.inputs import SCRUBBED_ENV_PREFIXES
    from perfbench.procs import ProcessGroups, become_subreaper

    for key in list(os.environ):
        if key.startswith(SCRUBBED_ENV_PREFIXES):
            del os.environ[key]

    become_subreaper()
    signal.signal(signal.SIGINT, _on_signal)
    signal.signal(signal.SIGTERM, _on_signal)
    groups = ProcessGroups()
    try:
        result = measure(args, groups)
    except Interrupted as stop:
        print(f"perfbench: interrupted by signal {stop.signum}; all process "
              f"groups stopped", file=sys.stderr)
        return 128 + stop.signum
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        if groups.stop_all():
            print("perfbench: a process group survived teardown",
                  file=sys.stderr)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The three workloads that drive the program without a server.

``cold_cli``
    Each op is a ``repro identify FILE --store <empty dir> --json OUT``
    subprocess on b14, b17 or b18; a pass runs all three (seeded order)
    and is the unit the latency percentiles are taken over.
``warm_hit``
    One process, one :class:`repro.api.Session` over a store the input
    builder filled.  Each cycle makes, per design, repeated file hits
    (``analyze(path)``) and text hits (``analyze_text``) — the fast ops —
    and one in-memory hit (``analyze(netlist)``), all serialized as a
    caller would (``as_dict`` + ``json.dumps``).
``table1``
    :func:`repro.eval.runner.run_benchmark` (Base + Ours + scoring) over
    all 12 ITC99 netlists, no store, with the process cone cache cleared
    before each pass.

On ``cold_cli`` and ``table1`` a pass takes most of a run, so
``p50_ms``/``p90_ms`` are taken over pass walls and restate ``pass_s``
(as ``goodput_rps`` does).  Percentiles over the single ops of a pass
pick out one op per run (the b17 CLI run, one small ``run_benchmark``
call) and spread by 0.22 and 0.25 of their median over ten runs on a
shared 2-CPU host, at or past the bound a gated metric may move.

Each returns the same measurement shape (see :func:`perfbench.run.measure`);
outputs are checked after each op's timed region and accounted in
``ctx.ops``.  In a traced run a workload executes one traced pass with
spans around the calls into each layer (:mod:`perfbench.spans`), plus an
overhead probe that runs one op alternately untraced and traced.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
import time
from typing import Callable, Dict, List, Tuple

from perfbench.expected import TABLE1, format_row
from perfbench.inputs import COLD_DESIGNS, ITC99
from perfbench.metrics import layer_metrics
from perfbench.spans import Tracer, layer_spans
from perfbench.stats import median, percentile

__all__ = ["cold_cli", "table1", "warm_hit"]

#: A CLI op still running after this is killed and counted as failed.
CLI_OP_TIMEOUT_S = 60.0
#: File and text hits per design per warm_hit cycle.
FAST_REPEATS = 5
#: Untraced/traced pairs of the overhead probe (after one warm-up op).
PROBE_PAIRS = 3
#: Fresh interpreters timed for ``cli.import_s``.
IMPORT_SAMPLES = 3


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
def _timed_setups(ctx, setup: Callable[[], object]):
    """Run ``setup`` ``ctx.setup_repeats`` times; (median nominal s,
    last value)."""
    walls = []
    value = None
    for _ in range(ctx.setup_repeats):
        value = None  # drop the previous set-up before building the next
        with ctx.speed.op() as timing:
            value = setup()
        walls.append(timing.nominal)
    return median(walls), value


def _overhead_share(untraced_op: Callable, traced_op: Callable) -> float:
    """Median traced op wall over median untraced op wall, minus one."""
    plain, traced = [], []
    untraced_op()
    for _ in range(PROBE_PAIRS):
        for op, walls in ((untraced_op, plain), (traced_op, traced)):
            start = time.perf_counter()
            op()
            walls.append(time.perf_counter() - start)
    return median(traced) / median(plain) - 1.0


def _traced_probe(op: Callable) -> Callable:
    """``op`` run under a private tracer with every layer span installed."""

    def traced():
        probe = Tracer()
        with layer_spans(probe), probe.op():
            op()

    return traced


def import_seconds(ctx) -> float:
    """Median wall of ``import repro.main`` in a fresh interpreter."""
    walls = []
    for _ in range(IMPORT_SAMPLES):
        start = time.perf_counter()
        code = ctx.groups.run(
            [sys.executable, "-c", "import repro.main"],
            timeout=60.0, env=ctx.env,
        )
        walls.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"import repro.main exited {code}")
    return median(walls)


def _identify_argv(path, store, out) -> List[str]:
    return ["identify", str(path), "--store", str(store), "--json", str(out)]


def _check_cli_output(ctx, name: str, code: int, out) -> bool:
    """Account one CLI op; whether it exited 0 with the reference digest."""
    if code != 0:
        ctx.ops.fail(f"cli_exit_{code}")
        return False
    try:
        with open(out) as handle:
            digest = json.load(handle).get("result_digest")
    except (OSError, ValueError):
        return ctx.ops.check(False, "cli_bad_json")
    return ctx.ops.check(
        digest == ctx.inputs.result_digest[name], "cli_wrong_digest"
    )


# ----------------------------------------------------------------------
# cold_cli
# ----------------------------------------------------------------------
def cold_cli(ctx) -> Dict:
    inputs = ctx.inputs
    rng = random.Random(ctx.seed)
    staged = ctx.workdir / "designs"

    def setup():
        shutil.rmtree(staged, ignore_errors=True)
        staged.mkdir(parents=True)
        for name in COLD_DESIGNS:
            shutil.copyfile(inputs.design_path(name), staged / f"{name}.v")
        code = ctx.groups.run(
            [sys.executable, "-m", "repro", "--version"],
            timeout=60.0, env=ctx.env, stdout=subprocess.DEVNULL,
        )
        if code != 0:
            raise RuntimeError(f"repro --version exited {code}")

    setup_s, _ = _timed_setups(ctx, setup)
    counter = iter(range(1 << 30))

    def scratch():
        index = next(counter)
        store = ctx.workdir / f"store-{index}"
        shutil.rmtree(store, ignore_errors=True)
        return store, ctx.workdir / f"out-{index}.json"

    if ctx.tracer.enabled:
        return _cold_cli_traced(ctx, staged, scratch, setup_s)

    good = 0
    passes: List[float] = []
    raw: List[float] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < ctx.seconds:
        order = list(COLD_DESIGNS)
        rng.shuffle(order)
        pass_wall = pass_raw = 0.0
        for name in order:
            store, out = scratch()
            with ctx.speed.op() as timing:
                code = ctx.groups.run(
                    [sys.executable, "-m", "repro",
                     *_identify_argv(staged / f"{name}.v", store, out)],
                    timeout=CLI_OP_TIMEOUT_S, env=ctx.env,
                    stdout=subprocess.DEVNULL,
                )
            pass_wall += timing.nominal
            pass_raw += timing.wall
            good += _check_cli_output(ctx, name, code, out)
            shutil.rmtree(store, ignore_errors=True)
        passes.append(pass_wall)
        raw.append(pass_raw)
    return {
        "setup_s": setup_s,
        "p50_ms": percentile(passes, 50) * 1e3,
        "p90_ms": percentile(passes, 90) * 1e3,
        "pass_s": median(passes),
        "goodput_rps": good / sum(passes),
        "info": {"raw_pass_s": median(raw)},
    }


def _cold_cli_traced(ctx, staged, scratch, setup_s) -> Dict:
    """One in-process pass of ``repro identify`` with layer spans."""
    from repro.core.conecache import process_cone_cache
    from repro.main import main as repro_main

    def identify(name: str) -> None:
        store, out = scratch()
        process_cone_cache().clear()  # each CLI op is a fresh process
        with contextlib.redirect_stdout(io.StringIO()):
            code = repro_main(_identify_argv(staged / f"{name}.v", store, out))
        _check_cli_output(ctx, name, code, out)
        shutil.rmtree(store, ignore_errors=True)

    tracer = ctx.tracer
    with layer_spans(tracer):
        for name in COLD_DESIGNS:
            with tracer.op():
                identify(name)
    layers = layer_metrics(tracer, passes=1)
    layers["cli.import_s"] = import_seconds(ctx)
    layers["trace.overhead_share"] = _overhead_share(
        lambda: identify("b14"), _traced_probe(lambda: identify("b14"))
    )
    return {"setup_s": setup_s, "layers": layers}


# ----------------------------------------------------------------------
# warm_hit
# ----------------------------------------------------------------------
def warm_hit(ctx) -> Dict:
    from repro.api import Session

    inputs = ctx.inputs
    rng = random.Random(ctx.seed)
    store = ctx.workdir / "warm_store"

    def setup():
        shutil.rmtree(store, ignore_errors=True)
        shutil.copytree(inputs.warm_store, store)
        designs = {
            name: (
                inputs.design_path(name),
                inputs.design_text(name),
                inputs.load_netlist(name),
            )
            for name in COLD_DESIGNS
        }
        return Session(store=store), designs

    setup_s, (session, designs) = _timed_setups(ctx, setup)

    def hit(name: str, kind: str, tracer: Tracer) -> Tuple[float, bool]:
        """One warm op, serialized as a caller would; (nominal s, ok)."""
        path, text, netlist = designs[name]
        with ctx.speed.op() as timing, tracer.op():
            if kind == "file":
                report = session.analyze(path)
            elif kind == "text":
                report = session.analyze_text(text, name=name)
            else:
                report = session.analyze(netlist)
            with tracer.span("api.report"):
                json.dumps(report.as_dict())
        ok = ctx.ops.check(
            report.cache == "hit"
            and report.result_digest == inputs.result_digest[name],
            f"warm_{kind}_miss_or_wrong",
        )
        return timing.nominal, ok

    def cycle(fast: List[float], memory: List[float], tracer) -> int:
        """One cycle in seeded order; the number of good ops."""
        plan = [
            (name, kind)
            for name in COLD_DESIGNS
            for kind in ("file", "text")
            for _ in range(FAST_REPEATS)
        ] + [(name, "memory") for name in COLD_DESIGNS]
        rng.shuffle(plan)
        mem_total = 0.0
        good = 0
        for name, kind in plan:
            wall, ok = hit(name, kind, tracer)
            good += ok
            if kind == "memory":
                mem_total += wall
            else:
                fast.append(wall)
        memory.append(mem_total)
        return good

    if ctx.tracer.enabled:
        with layer_spans(ctx.tracer):
            cycle([], [], ctx.tracer)
        layers = layer_metrics(ctx.tracer, passes=1)
        quiet = Tracer(enabled=False)
        layers["trace.overhead_share"] = _overhead_share(
            lambda: hit("b17", "file", quiet),
            _traced_probe(lambda: hit("b17", "file", quiet)),
        )
        return {"setup_s": setup_s, "layers": layers}

    fast: List[float] = []
    memory: List[float] = []
    good = 0
    start = time.perf_counter()
    while not memory or time.perf_counter() - start < ctx.seconds:
        good += cycle(fast, memory, ctx.tracer)
    return {
        "setup_s": setup_s,
        "p50_ms": percentile(fast, 50) * 1e3,
        "p90_ms": percentile(fast, 90) * 1e3,
        "pass_s": median(memory),
        "goodput_rps": good / (sum(fast) + sum(memory)),
    }


# ----------------------------------------------------------------------
# table1
# ----------------------------------------------------------------------
def table1(ctx) -> Dict:
    from repro.core.conecache import process_cone_cache
    from repro.eval.runner import run_benchmark
    from repro.store import result_digest

    inputs = ctx.inputs

    def setup():
        return {name: inputs.load_netlist(name) for name in ITC99}

    setup_s, netlists = _timed_setups(ctx, setup)
    tracer = ctx.tracer

    def check(name: str, run) -> bool:
        return ctx.ops.check(
            format_row(run.row()) == TABLE1[name]
            and result_digest(run.ours_result) == inputs.result_digest[name],
            "table1_row_or_digest",
        )

    def one_pass() -> Tuple[float, int]:
        """(nominal wall of the 12 run_benchmark calls, rows correct)."""
        process_cone_cache().clear()
        wall = 0.0
        good = 0
        for name in ITC99:
            with ctx.speed.op() as timing, tracer.op():
                run = run_benchmark(netlists[name])
            wall += timing.nominal
            good += check(name, run)
        return wall, good

    if tracer.enabled:
        with layer_spans(tracer):
            one_pass()
        layers = layer_metrics(tracer, passes=1)
        layers["trace.overhead_share"] = _overhead_share(
            lambda: run_benchmark(netlists["b14"]),
            _traced_probe(lambda: run_benchmark(netlists["b14"])),
        )
        return {"setup_s": setup_s, "layers": layers}

    passes: List[float] = []
    good = 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < ctx.seconds:
        wall, ok = one_pass()
        passes.append(wall)
        good += ok
    return {
        "setup_s": setup_s,
        "p50_ms": percentile(passes, 50) * 1e3,
        "p90_ms": percentile(passes, 90) * 1e3,
        "pass_s": median(passes),
        "goodput_rps": good / sum(passes),
    }

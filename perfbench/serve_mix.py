"""``serve_mix``: an open loop of mixed requests against a live server.

One ``repro serve --pool process --workers 2 --store DIR`` subprocess
(in its own process group, see :mod:`perfbench.procs`) answers a fixed
arrival rate of requests from two client threads.  The store is a copy
of the one the input builder filled through the same server, so every
request class has a known planned cache outcome:

``miss``
    a distinct :mod:`repro.fuzz.generator` design per request — the
    stages run;
``byte_hit``
    a repeated b03..b13 body — answered from the byte-level key;
``digest``
    ``{"digest": ...}`` of a stored body — no body shipped;
``large_hit``
    the b14/b17 bytes the store already holds;
``triage``
    ``/v1/triage`` on a repeated small body.

Every answer is checked: HTTP 200, the planned ``cache`` field
(``triage`` answers carry none), the ``result_digest`` of an in-process
``identify_words`` run, and for triage the reference ``triage_digest``.

Why fuzz designs and not edited copies: appending a comment to a known
body (what ``scripts/serve_smoke.py --bench`` does to make each body
"unique") misses the byte-level key, but after the parse the request
hits the netlist-level key, so the stages never run and the "misses"
measure parsing only.  The benchmark plans a miss only for a design
that is structurally new, and fails any planned miss that answers
``hit``.

The schedule — class order and the fuzz designs — comes from the seed;
arrivals are evenly spaced at :data:`RATE_RPS`, well below the capacity
the closed-loop probe measures (recorded as ``capacity_rps``).  Latency
runs from each request's due time, so a stalled generator or a backlog
shows up as latency, and how late the generator ran is reported.
"""

from __future__ import annotations

import http.client
import json
import random
import re
import select
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench.stats import median, percentile

__all__ = [
    "CLASSES",
    "RATE_RPS",
    "Planned",
    "post",
    "start_server",
]

#: Fixed arrival rate of the open loop (requests per second).
RATE_RPS = 30.0
#: A 200 slower than this (from its due time, at nominal host speed)
#: does not count as goodput.  About twice the p90 of the slow classes
#: (miss, triage, large_hit: 35% of the mix; 20-35 ms), so a path that
#: makes them several times slower pushes most of them past it.
LATENCY_LIMIT_S = 0.05
#: Client threads (= connections in flight) — the host's 2 CPUs.
CLIENTS = 2
#: Share of each class in a schedule.  The fast classes (byte hits and
#: digests, ~5 ms) make up 65%, so p50 sits inside that cluster and
#: tracks the hit path; misses (the slowest class) make up the top 15%,
#: so p90 sits inside the miss cluster and tracks the stages.  A
#: percentile on the edge between two clusters would swing with every
#: seed.
CLASSES: Tuple[Tuple[str, float], ...] = (
    ("byte_hit", 0.45),
    ("digest", 0.20),
    ("large_hit", 0.08),
    ("triage", 0.12),
    ("miss", 0.15),
)
#: Words per miss design.  The generator's default draws 3 to 7, and the
#: mean size of one run's misses then moves by 0.05 (quartile spread)
#: from seed to seed, which moved p90 (inside the miss cluster) by 0.10;
#: a fixed count halves the size movement.  The designs still differ in
#: every other respect (regimes, widths, conditions).
MISS_WORDS = 5
#: Gates returned per triage answer.
TRIAGE_TOP = 10
#: Requests of the warm-up batch, and rounds x requests of the
#: closed-loop capacity probe (``pass_s`` is the median round).
WARMUP_REQUESTS = 10
PROBE_ROUNDS = 30
PROBE_REQUESTS = 40

BANNER = re.compile(r"listening on http://([\d.]+):(\d+)")
HOST = "127.0.0.1"


# ----------------------------------------------------------------------
# server lifecycle and transport
# ----------------------------------------------------------------------
def start_server(groups, store: Path, env: Dict[str, str], timeout=30.0):
    """Start ``repro serve`` on a free port; ``(process, port)`` once ready."""
    proc = groups.spawn(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--pool", "process", "--workers", str(CLIENTS),
         "--store", str(store)],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    try:
        port = _read_port(proc, timeout)
        _wait_ready(port, timeout)
    except BaseException:
        groups.stop(proc)
        raise
    return proc, port


def _read_port(proc, timeout: float) -> int:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        ready, _, _ = select.select([proc.stdout], [], [], 0.1)
        if ready:
            line = proc.stdout.readline()
            if not line:
                break
            match = BANNER.search(line)
            if match:
                return int(match.group(2))
    raise RuntimeError("repro serve printed no listening banner")


def _wait_ready(port: int, timeout: float) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            status, _ = request(port, "GET", "/readyz", None, timeout=2.0)
        except OSError:
            status = 0
        if status == 200:
            return
        time.sleep(0.02)
    raise RuntimeError("repro serve never became ready")


def request(
    port: int, method: str, path: str, body: Optional[bytes],
    timeout: float = 10.0,
) -> Tuple[int, bytes]:
    """One request on a fresh connection (the server closes each one)."""
    connection = http.client.HTTPConnection(HOST, port, timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def post(port: int, path: str, body: bytes) -> Tuple[int, bytes]:
    return request(port, "POST", path, body)


def scrape(port: int) -> Dict[str, float]:
    """``/metrics`` as ``{series (name and labels): value}``."""
    status, body = request(port, "GET", "/metrics", None)
    if status != 200:
        raise RuntimeError(f"/metrics answered HTTP {status}")
    series: Dict[str, float] = {}
    for line in body.decode("utf-8").splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.rpartition(" ")
            series[key] = float(value)
    return series


def total(snapshot: Dict[str, float], name: str, **labels: str) -> float:
    """Sum of the series of metric ``name`` that carry ``labels``."""
    wanted = [f'{key}="{value}"' for key, value in labels.items()]
    return sum(
        value
        for key, value in snapshot.items()
        if key.split("{", 1)[0] == name and all(w in key for w in wanted)
    )


# ----------------------------------------------------------------------
# planning
# ----------------------------------------------------------------------
@dataclass
class Planned:
    """One request and everything needed to check its answer."""

    cls: str
    path: str
    body: bytes
    result_digest: str
    cache: Optional[str]  # planned cache field; None for triage
    triage_digest: Optional[str] = None
    # filled in by the sender
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    answer: bytes = b""
    error: Optional[str] = None


class Planner:
    """Seeded request factory over the built inputs."""

    def __init__(self, inputs, seed: int):
        self.inputs = inputs
        self.seed = seed
        self._fuzz_index = 0
        self._turn: Dict[str, int] = {}
        self._texts = {
            name: inputs.design_text(name)
            for name in list(inputs.small) + list(inputs.large)
        }

    def miss(self) -> Planned:
        """A structurally new fuzz design and its in-process reference."""
        from repro.core.pipeline import PipelineConfig, identify_words
        from repro.fuzz.generator import GeneratorConfig, generate, sample_seed
        from repro.netlist.verilog import write_verilog
        from repro.store import result_digest

        sample = generate(sample_seed(self.seed, self._fuzz_index),
                          GeneratorConfig(min_words=MISS_WORDS,
                                          max_words=MISS_WORDS))
        self._fuzz_index += 1
        digest = result_digest(identify_words(sample.netlist, PipelineConfig()))
        text = write_verilog(sample.netlist)
        return Planned("miss", "/v1/identify", _json({"verilog": text}),
                       digest, "miss")

    def make(self, cls: str) -> Planned:
        if cls == "miss":
            return self.miss()
        refs = self.inputs
        # Designs rotate per class, so every seed sends the same bodies
        # in the same proportions; only the order differs.
        names = refs.large if cls == "large_hit" else refs.small
        turn = self._turn.get(cls, self.seed)
        self._turn[cls] = turn + 1
        name = names[turn % len(names)]
        digest = refs.result_digest[name]
        if cls == "digest":
            body = {"digest": refs.text_digest[name]}
            return Planned(cls, "/v1/identify", _json(body), digest, "hit")
        if cls == "triage":
            body = {"verilog": self._texts[name], "top": TRIAGE_TOP}
            return Planned(cls, "/v1/triage", _json(body), digest, None,
                           refs.triage_digest[name])
        body = {"verilog": self._texts[name]}
        return Planned(cls, "/v1/identify", _json(body), digest, "hit")

    def batch(self, count: int, rng: random.Random) -> List[Planned]:
        """``count`` requests in the class shares of :data:`CLASSES`,
        in seeded order."""
        classes: List[str] = []
        for cls, share in CLASSES:
            classes += [cls] * max(1, round(share * count))
        rng.shuffle(classes)
        return [self.make(cls) for cls in classes[:count]]


def _json(payload: Dict) -> bytes:
    return json.dumps(payload).encode("utf-8")


# ----------------------------------------------------------------------
# load generation
# ----------------------------------------------------------------------
def send(port: int, planned: Planned) -> None:
    """Send one planned request, recording times and the answer."""
    planned.sent = time.perf_counter()
    try:
        planned.status, planned.answer = post(port, planned.path, planned.body)
    except OSError as exc:
        planned.error = f"{type(exc).__name__}: {exc}"
    planned.done = time.perf_counter()


def drive(
    port: int, plan: Sequence[Planned], interval_s: Optional[float]
) -> float:
    """Send ``plan`` from :data:`CLIENTS` threads; the wall it took.

    ``interval_s`` spaces the due times evenly (open loop); ``None`` sends
    each request as soon as a client is free (closed loop).  An exception
    in a client thread is re-raised here after both threads stopped.
    """
    lock = threading.Lock()
    stop = threading.Event()
    cursor = iter(plan)
    errors: List[BaseException] = []
    start = time.perf_counter()
    for index, planned in enumerate(plan):
        planned.due = start + (index * interval_s if interval_s else 0.0)

    def client():
        try:
            while not stop.is_set():
                with lock:
                    planned = next(cursor, None)
                if planned is None:
                    return
                delay = planned.due - time.perf_counter()
                if delay > 0 and stop.wait(delay):
                    return
                if interval_s is None:
                    planned.due = time.perf_counter()
                send(port, planned)
        except BaseException as exc:  # surfaced to the caller below
            errors.append(exc)
            stop.set()

    threads = [
        threading.Thread(target=client, daemon=True) for _ in range(CLIENTS)
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        stop.set()  # an interrupted caller must not leave clients sending
    if errors:
        raise errors[0]
    return time.perf_counter() - start


def check(planned: Planned, ops) -> bool:
    """Account one answered request; whether it was a good answer."""
    if planned.error is not None:
        ops.fail("transport")
        return False
    if planned.status != 200:
        ops.fail(f"http_{planned.status}")
        return False
    try:
        answer = json.loads(planned.answer)
    except ValueError:
        return ops.check(False, "bad_json")
    if not _right_output(answer, planned):
        return ops.check(False, f"{planned.cls}_wrong_output")
    if planned.cache is not None and answer.get("cache") != planned.cache:
        return ops.check(False, f"{planned.cls}_answered_{answer.get('cache')}")
    ops.ok()
    return True


def _right_output(answer: Dict, planned: Planned) -> bool:
    if answer.get("result_digest") != planned.result_digest:
        return False
    return (
        planned.triage_digest is None
        or answer.get("triage_digest") == planned.triage_digest
    )


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
def run(ctx) -> Dict:
    """Set up, probe capacity, run the open loop; the measurements."""
    inputs = ctx.inputs
    rng = random.Random(ctx.seed)
    planner = Planner(inputs, ctx.seed)
    count = max(20, int(RATE_RPS * ctx.seconds))
    warmup = planner.batch(WARMUP_REQUESTS, rng)
    probes = [planner.batch(PROBE_REQUESTS, rng) for _ in range(PROBE_ROUNDS)]
    window = planner.batch(count, rng)

    server = None
    before = after = None
    setups: List[float] = []
    store = ctx.workdir / "serve_store"
    try:
        for attempt in range(ctx.setup_repeats):
            with ctx.speed.op() as timing:
                shutil.rmtree(store, ignore_errors=True)
                shutil.copytree(inputs.serve_store, store)
                server, port = start_server(ctx.groups, store, ctx.env)
            setups.append(timing.nominal)
            if attempt < ctx.setup_repeats - 1:
                ctx.groups.stop(server)
                server = None
        print(f"perfbench: serve_mix server pgid {server.pid} on port {port}",
              file=sys.stderr, flush=True)

        drive(port, warmup, None)
        probe_walls = []
        for probe in probes:
            # The clients are threads of this process: no samples during.
            with ctx.speed.op(during=False) as timing:
                drive(port, probe, None)
            probe_walls.append(timing.nominal)
        if ctx.tracer.enabled:
            before = _observe(port, store)
        with ctx.speed.background():
            drive(port, window, 1.0 / RATE_RPS)
        if ctx.tracer.enabled:
            after = _observe(port, store)
    finally:
        if server is not None:
            ctx.groups.stop(server)

    for planned in warmup + [p for probe in probes for p in probe]:
        check(planned, ctx.ops)
    # Latency from the due time, at nominal host speed.
    nominal = {
        id(p): (p.done - p.due) * ctx.speed.speed_at((p.due + p.done) / 2)
        for p in window
    }
    good = 0
    by_class: Dict[str, int] = {}
    for planned in window:
        if check(planned, ctx.ops):
            by_class[planned.cls] = by_class.get(planned.cls, 0) + 1
            good += nominal[id(planned)] <= LATENCY_LIMIT_S
    latencies = list(nominal.values())
    elapsed = max(p.done for p in window) - window[0].due

    def by_class_ms(rank: int) -> Dict[str, float]:
        return {
            cls: percentile(
                [nominal[id(p)] for p in window if p.cls == cls], rank
            ) * 1e3
            for cls, _share in CLASSES
        }

    measured = {
        "setup_s": median(setups),
        "p50_ms": percentile(latencies, 50) * 1e3,
        "p90_ms": percentile(latencies, 90) * 1e3,
        "pass_s": median(probe_walls),
        "goodput_rps": good / elapsed,
        "info": {
            "raw_p50_ms": percentile(
                [p.done - p.due for p in window], 50) * 1e3,
            "rate_rps": RATE_RPS,
            "latency_limit_ms_nominal": LATENCY_LIMIT_S * 1e3,
            "capacity_rps": PROBE_REQUESTS / median(probe_walls),
            "requests": len(window),
            "answered_by_class": by_class,
            "p50_ms_by_class": by_class_ms(50),
            "p90_ms_by_class": by_class_ms(90),
        },
    }
    if ctx.tracer.enabled:
        from perfbench.workloads import import_seconds

        measured["layers"] = serve_layers(window, before, after)
        measured["layers"]["cli.import_s"] = import_seconds(ctx)
    return measured


def _observe(port: int, store: Path) -> Dict[str, object]:
    """``/metrics``, the store's size on disk, and how long reading both
    took (the traced run's only addition to the untraced one)."""
    start = time.perf_counter()
    metrics = scrape(port)
    size = sum(f.stat().st_size for f in store.rglob("*") if f.is_file())
    return {"metrics": metrics, "store_bytes": size,
            "wall": time.perf_counter() - start}


def serve_layers(window: Sequence[Planned], before: Dict, after: Dict
                 ) -> Dict[str, float]:
    """Per-layer numbers of the open-loop window.

    The layers run inside the server, where the benchmark installs no
    spans; they come from the deltas of the series ``repro serve``
    exports on ``/metrics`` around the window.  The server exports no
    parse time, so ``netlist.parse_*`` time the same ``parse_verilog``
    on the window's miss bodies (the only bodies the server parses) in
    the benchmark's own process.  ``api.unattributed_s`` is the server's
    request time outside the analysis stages (parse, digests, store,
    serialization).  ``trace.overhead_share`` is the wall of reading
    ``/metrics`` and the store size around the window, over the window.
    """
    from perfbench.metrics import STAGES, layer_metrics
    from perfbench.spans import Tracer

    metrics_before, metrics_after = before["metrics"], after["metrics"]

    def delta(name: str, **labels: str) -> float:
        return (total(metrics_after, name, **labels)
                - total(metrics_before, name, **labels))

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    tracer = Tracer()
    for planned in window:
        if planned.cls == "miss":
            _parse(tracer, json.loads(planned.body)["verilog"])
    layers = layer_metrics(tracer, passes=1)

    served = delta("repro_serve_request_seconds_count")
    server_s = delta("repro_serve_request_seconds_sum")
    analysis_s = delta("repro_analysis_seconds_sum")
    server_ms = share(server_s, served) * 1e3
    client_ms = [(p.done - p.sent) * 1e3 for p in window]
    triage_ms = [(p.done - p.sent) * 1e3 for p in window if p.cls == "triage"]
    identify = [p for p in window if p.path == "/v1/identify" and p.status == 200]
    hits = sum(1 for p in identify if json.loads(p.answer).get("cache") == "hit")
    cone_hits = delta("repro_cone_tier_hits_total")
    store_hits = delta("repro_store_hits_total")
    elapsed = (max(p.done for p in window) - window[0].due) if window else 0.0
    layers.update({
        f"core.stage.{stage}_s": delta("repro_stage_seconds_sum", stage=stage)
        for stage in STAGES
    })
    layers.update({
        "core.identify_s": analysis_s,
        "core.cone_hit_rate": share(
            cone_hits, cone_hits + delta("repro_cone_tier_misses_total")),
        "store.hit_share": share(
            store_hits, store_hits + delta("repro_store_misses_total")),
        "store.bytes_written_mb": (
            after["store_bytes"] - before["store_bytes"]) / 1e6,
        "api.unattributed_s": server_s - analysis_s,
        "serve.server_ms": server_ms,
        "serve.stage_ms": share(delta("repro_stage_seconds_sum"), served) * 1e3,
        "serve.transport_ms": share(sum(client_ms), len(client_ms)) - server_ms,
        "serve.shed": delta("repro_serve_shed_total"),
        "serve.hit_share": share(hits, len(identify)),
        "serve.triage_ms": share(sum(triage_ms), len(triage_ms)),
        "serve.generator_lag_ms": share(
            sum(p.sent - p.due for p in window), len(window)) * 1e3,
        "trace.overhead_share": share(before["wall"] + after["wall"], elapsed),
    })
    return layers


def _parse(tracer, text: str) -> None:
    from repro.netlist.verilog import parse_verilog

    with tracer.span("netlist.parse"):
        parse_verilog(text)
    tracer.count("netlist.parse_bytes", len(text.encode("utf-8")))

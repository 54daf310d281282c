#!/usr/bin/env python
"""CI smoke test for ``repro serve`` (also runnable locally).

Proves, over live TCP against real subprocesses, the three serve
guarantees DESIGN.md §11 makes:

1. **Byte-identity** — every ITC99 benchmark POSTed to ``/v1/identify``
   answers the same ``result_digest`` the ``repro identify`` CLI wrote
   for the same file, and repeat POSTs (b13 x20) hit the shared artifact
   store (``repro_store_hits_total`` ≥ 1 on ``/metrics``).
2. **Load shedding** — a server with ``--workers 1 --queue-size 1`` and
   a held worker sheds a burst of 8 with 429s and answers zero 500s.
3. **Graceful drain** — both servers exit 0 on SIGTERM.

With ``--bench OUT.json`` it additionally runs a sustained load
benchmark: concurrent clients posting distinct seeded
:mod:`repro.fuzz.generator` designs (every one a store miss, checked on
each response) against ``--workers 1/2/4`` servers for a fixed window
each, reporting p50/p90/p99 latency and req/s per sweep into a
schema-stamped ``BENCH_serve.json`` (shape: :mod:`repro.serve.bench`).

Usage::

    PYTHONPATH=src python scripts/serve_smoke.py [--scratch DIR]
        [--bench BENCH_serve.json] [--bench-duration S]
"""

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.batch import itc99_corpus  # noqa: E402
from repro.fuzz.generator import (  # noqa: E402
    GeneratorConfig,
    generate,
    sample_seed,
)
from repro.netlist.verilog import write_verilog  # noqa: E402
from repro.serve.bench import build_report  # noqa: E402
from repro.serve.client import ServeClient  # noqa: E402

BANNER = re.compile(r"listening on http://([\d.]+):(\d+)")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(REPO, "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    return env


def start_server(*args, max_retries=3):
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--port", "0", *args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=_env(),
    )
    banner = process.stdout.readline()
    process._banner = banner  # replayed by process_banner() for the bench
    match = BANNER.search(banner)
    assert match, f"no banner from repro serve: {banner!r}"
    client = ServeClient(
        match.group(1), int(match.group(2)), timeout=300,
        max_retries=max_retries,
    )
    ready = client.wait_ready(timeout=15)
    if not ready:
        print(f"[smoke] server never became ready: {ready.reason} "
              f"({ready.detail})", file=sys.stderr)
        process.send_signal(signal.SIGTERM)
        raise AssertionError(f"wait_ready failed: {ready.reason}")
    return process, client


def drain(process):
    process.send_signal(signal.SIGTERM)
    code = process.wait(timeout=60)
    assert code == 0, f"server exited {code} instead of draining cleanly"


def cli_digests(designs, store):
    """result_digest per design, via the `repro identify` CLI path."""
    digests = {}
    for path in designs:
        report_path = path + ".report.json"
        subprocess.run(
            [sys.executable, "-m", "repro.cli", path,
             "--store", store, "--json", report_path],
            check=True, env=_env(), stdout=subprocess.DEVNULL,
        )
        with open(report_path, encoding="utf-8") as handle:
            digests[path] = json.load(handle)["result_digest"]
    return digests


def check_byte_identity(scratch):
    corpus_dir = os.path.join(scratch, "corpus")
    store = os.path.join(scratch, "store")
    designs = itc99_corpus(corpus_dir)
    print(f"[smoke] CLI pass over {len(designs)} ITC99 designs...")
    expected = cli_digests(designs, store)

    process, client = start_server("--store", store, "--workers", "4")
    try:
        for path in designs:
            status, report = client.identify_path(path)
            assert status == 200, f"{path}: HTTP {status}: {report}"
            assert report["result_digest"] == expected[path], (
                f"{path}: serve digest {report['result_digest']} != "
                f"CLI digest {expected[path]}"
            )
            # Not just equal: *served from* the entry the CLI committed
            # (the cross-path cache-sharing contract of DESIGN.md §11).
            assert report["cache"] == "hit", (
                f"{path}: expected a store hit off the CLI-primed store, "
                f"got cache={report['cache']!r}"
            )
        print(f"[smoke] serve == CLI on all {len(designs)} designs "
              f"(every one a store hit off the CLI-primed store)")

        b13 = next(p for p in designs if p.endswith("b13.v"))
        for _ in range(20):
            status, report = client.identify_path(b13)
            assert status == 200 and report["cache"] == "hit"
        hits = client.metric_value("repro_store_hits_total")
        assert hits and hits >= 1, f"expected store hits, metrics said {hits}"
        shed = client.metric_value("repro_serve_shed_total")
        print(f"[smoke] b13 x20 served from store "
              f"(hits={hits:.0f}, shed={0 if shed is None else shed:.0f})")
    finally:
        drain(process)
    print("[smoke] byte-identity server drained cleanly")


def check_load_shedding(scratch):
    design = os.path.join(scratch, "corpus", "b13.v")
    with open(design, encoding="utf-8") as handle:
        text = handle.read()
    # max_retries=0: the burst must *observe* the 429s, not retry past
    # them (the default client would absorb shedding into retries).
    process, client = start_server(
        "--workers", "1", "--queue-size", "1", "--hold-s", "0.3",
        max_retries=0,
    )
    statuses, lock = [], threading.Lock()

    def post():
        status, _ = client.identify(verilog=text)
        with lock:
            statuses.append(status)

    try:
        threads = [threading.Thread(target=post) for _ in range(8)]
        for thread in threads:
            thread.start()
            time.sleep(0.02)
        for thread in threads:
            thread.join()
    finally:
        drain(process)
    assert 500 not in statuses, f"internal errors under burst: {statuses}"
    assert statuses.count(429) > 0, f"no load shedding seen: {statuses}"
    assert statuses.count(200) >= 1, f"nothing served under burst: {statuses}"
    print(f"[smoke] burst of 8 on capacity 2: "
          f"{statuses.count(200)}x200 / {statuses.count(429)}x429, no 500s; "
          f"shedding server drained cleanly")


#: Words per generated bench design (the generator's default draws 3-7;
#: a fixed count keeps every request about the same size).
BENCH_WORDS = 5
#: Seeded generator campaign the bench designs come from.
BENCH_SEED = 0


def bench_designs(count):
    """``count`` distinct Verilog texts of seeded generated designs.

    Distinct *structures*, not just distinct bytes: a body that differs
    only in a comment parses to a netlist the store already holds, so
    it would measure a hit.  Generated up front so generation time stays
    out of the sweep.
    """
    config = GeneratorConfig(min_words=BENCH_WORDS, max_words=BENCH_WORDS)
    return [
        write_verilog(generate(sample_seed(BENCH_SEED, index), config).netlist)
        for index in range(count)
    ]


def _bench_sweep(client, texts, duration_s, concurrency):
    """Hammer one server with ``texts``, each posted once (all misses).

    A sweep ends at ``duration_s`` or when ``texts`` runs out.  A 200
    whose ``cache`` is not ``"miss"`` counts as an error: the sweep
    exists to measure real analyses, which is what worker scaling acts
    on.
    """
    stop_at = time.monotonic() + duration_s
    latencies, errors = [], []
    lock = threading.Lock()
    pending = iter(texts)

    def worker(slot):
        while time.monotonic() < stop_at:
            with lock:
                text = next(pending, None)
            if text is None:
                return
            started = time.perf_counter()
            status, body = client.identify(verilog=text)
            elapsed = time.perf_counter() - started
            cache = body.get("cache") if isinstance(body, dict) else None
            with lock:
                if status == 200 and cache == "miss":
                    latencies.append(elapsed)
                elif status != 429:  # shedding is back-pressure, not failure
                    errors.append((status, cache))

    started = time.monotonic()
    threads = [
        threading.Thread(target=worker, args=(slot,))
        for slot in range(concurrency)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return latencies, errors, time.monotonic() - started


def check_sustained_load(scratch, output, duration_s,
                         workers_sweep=(1, 2, 4), concurrency=6):
    # About 1.7x what a 2-CPU host answers inside the window (a sweep
    # that runs out ends early, its req/s still honest); each server
    # gets a fresh store, so sweeps reuse the list.  The extra design is
    # the warm-up request.
    warmup, *texts = bench_designs(1 + max(200, int(120 * duration_s)))
    design = f"fuzz(seed={BENCH_SEED}, words={BENCH_WORDS})"

    sweeps = []
    pool = None
    for workers in workers_sweep:
        store = os.path.join(scratch, f"bench-store-w{workers}")
        process, client = start_server(
            "--store", store, "--workers", str(workers),
            "--queue-size", "32", max_retries=0,
        )
        if pool is None:
            pool = "process" if "pool=process" in process_banner(process) \
                else "thread"
        try:
            # One warm-up request absorbs worker start-up cost.
            client.identify(verilog=warmup)
            latencies, errors, elapsed = _bench_sweep(
                client, texts, duration_s, concurrency
            )
        finally:
            drain(process)
        assert latencies, f"no successful requests at workers={workers}"
        assert not errors, (
            f"{len(errors)} failed or non-miss answers at workers={workers}: "
            f"(status, cache) {errors[:5]}"
        )
        sweeps.append({
            "workers": workers,
            "latencies_s": latencies,
            "errors": len(errors),
            "elapsed_s": elapsed,
        })
        print(f"[bench] workers={workers}: {len(latencies)} requests in "
              f"{elapsed:.1f}s ({len(latencies) / elapsed:.1f} req/s)")

    report = build_report(design, pool or "thread", concurrency, sweeps)
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    scaling = report["scaling"]
    print(f"[bench] wrote {output} (workers {workers_sweep[0]}→"
          f"{workers_sweep[-1]} throughput ratio "
          f"{scaling:.2f}x on {report['cpu_count']} CPU core(s))")


def process_banner(process):
    """The banner line already consumed by start_server, replayed.

    start_server reads exactly one stdout line (the banner); keep a copy
    on the process object so the bench can report the pool mode.
    """
    return getattr(process, "_banner", "")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scratch", default=None,
        help="working directory (default: a fresh temp dir)",
    )
    parser.add_argument(
        "--bench", metavar="OUT.json", default=None,
        help="also run the sustained load benchmark and write its "
        "schema-stamped report (BENCH_serve.json) here",
    )
    parser.add_argument(
        "--bench-duration", type=float, default=6.0,
        help="seconds per --workers sweep of the load benchmark "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--bench-only", action="store_true",
        help="skip the smoke checks and run only the --bench sweeps",
    )
    args = parser.parse_args()

    def run(scratch):
        if not args.bench_only:
            check_byte_identity(scratch)
            check_load_shedding(scratch)
        if args.bench:
            check_sustained_load(scratch, args.bench, args.bench_duration)

    if args.scratch:
        os.makedirs(args.scratch, exist_ok=True)
        run(args.scratch)
    else:
        with tempfile.TemporaryDirectory(prefix="serve-smoke-") as scratch:
            run(scratch)
    print("[smoke] PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())

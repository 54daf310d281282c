"""Build the benchmark's inputs into one directory (run as a child).

Usage::

    PYTHONPATH=src python perfbench/prepare.py TARGET_DIR

Writes, into a staging directory renamed to ``TARGET_DIR`` when complete:

``designs/<name>.v`` / ``netlists/<name>.pickle``
    each ITC99 design synthesized by :mod:`repro.synth`, as structural
    Verilog and as a pickled in-memory netlist;
``refs.json``
    per design the ``result_digest`` of an in-process ``identify_words``
    run on the synthesized netlist, the byte-level store digest of its
    Verilog, and (small designs) the triage digest;
``warm_store/``
    an artifact store a default :class:`repro.api.Session` filled by
    analyzing the b14/b17/b18 files;
``serve_store/``
    an artifact store a live ``repro serve`` filled by answering the
    small and large bodies of the serve mix, plus triage of the small
    ones.

Every priming answer is checked against the references; a mismatch
fails the build.

SIGTERM and SIGINT end the build through ``SystemExit``, so the priming
server is stopped in a ``finally`` before the builder exits.  (A builder
killed outright leaves the server orphaned; the benchmark, a subreaper,
adopts and stops it, see :mod:`perfbench.procs`.)
"""

from __future__ import annotations

import json
import pickle
import shutil
import signal
import sys
from pathlib import Path
from typing import Iterable, Sequence

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import serve_mix  # noqa: E402
from perfbench.inputs import (  # noqa: E402
    COLD_DESIGNS,
    ITC99,
    LARGE_HIT_DESIGNS,
    SMALL_DESIGNS,
    child_env,
)
from perfbench.procs import ProcessGroups  # noqa: E402


def build(
    target: Path,
    designs: Sequence[str] = ITC99,
    warm: Iterable[str] = COLD_DESIGNS,
    small: Sequence[str] = SMALL_DESIGNS,
    large: Sequence[str] = LARGE_HIT_DESIGNS,
) -> None:
    """Build every input into ``target`` (atomically, via a staging dir)."""
    from repro.api import Session
    from repro.core.pipeline import PipelineConfig, identify_words
    from repro.netlist.verilog import write_verilog
    from repro.store import bytes_digest, result_digest
    from repro.synth.designs import BENCHMARKS

    staging = target.with_name(target.name + ".staging")
    shutil.rmtree(staging, ignore_errors=True)
    (staging / "designs").mkdir(parents=True)
    (staging / "netlists").mkdir()
    refs = {
        "result_digest": {},
        "text_digest": {},
        "triage_digest": {},
        "small": list(small),
        "large": list(large),
    }
    for name in designs:
        netlist = BENCHMARKS[name]()
        text = write_verilog(netlist)
        (staging / "designs" / f"{name}.v").write_text(text)
        with open(staging / "netlists" / f"{name}.pickle", "wb") as handle:
            pickle.dump(netlist, handle, protocol=pickle.HIGHEST_PROTOCOL)
        refs["result_digest"][name] = result_digest(
            identify_words(netlist, PipelineConfig())
        )
        refs["text_digest"][name] = bytes_digest(text.encode("utf-8"))
        print(f"prepare: {name} {netlist.num_gates} gates", flush=True)
    triage_session = Session(config=PipelineConfig(preflight=True))
    for name in small:
        text = (staging / "designs" / f"{name}.v").read_text()
        refs["triage_digest"][name] = (
            triage_session.triage_text(text).triage_digest
        )

    warm_session = Session(store=staging / "warm_store")
    for name in warm:
        report = warm_session.analyze(staging / "designs" / f"{name}.v")
        _expect(report.result_digest, refs["result_digest"][name], name)

    _prime_serve_store(staging, refs, list(small) + list(large), small)
    with open(staging / "refs.json", "w") as handle:
        json.dump(refs, handle, indent=1, sort_keys=True)
    shutil.rmtree(target, ignore_errors=True)
    staging.rename(target)


def _prime_serve_store(staging: Path, refs: dict, bodies, triaged) -> None:
    groups = ProcessGroups()
    server, port = serve_mix.start_server(
        groups, staging / "serve_store", child_env(ROOT)
    )
    try:
        for name in bodies:
            text = (staging / "designs" / f"{name}.v").read_text()
            status, body = serve_mix.post(
                port, "/v1/identify", json.dumps({"verilog": text}).encode()
            )
            answer = json.loads(body)
            if status != 200:
                raise RuntimeError(f"priming {name}: HTTP {status} {answer}")
            _expect(answer["result_digest"], refs["result_digest"][name], name)
        for name in triaged:
            text = (staging / "designs" / f"{name}.v").read_text()
            status, body = serve_mix.post(
                port, "/v1/triage",
                json.dumps({"verilog": text, "top": serve_mix.TRIAGE_TOP})
                .encode(),
            )
            answer = json.loads(body)
            if status != 200:
                raise RuntimeError(f"priming triage {name}: HTTP {status}")
            _expect(answer["triage_digest"], refs["triage_digest"][name], name)
    finally:
        groups.stop(server)


def _expect(got: str, want: str, name: str) -> None:
    if got != want:
        raise RuntimeError(f"{name}: digest {got} != reference {want}")


def exit_on_signal() -> None:
    """Make SIGTERM and SIGINT raise ``SystemExit`` (so ``finally`` runs)."""

    def handler(signum, _frame):
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGINT, handler)
    signal.signal(signal.SIGTERM, handler)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    exit_on_signal()
    build(Path(sys.argv[1]))

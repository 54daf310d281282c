"""The benchmark's inputs: where they live, how they are built, and loaders.

Every input is derived from the checkout's own sources, never fetched:
the 12 ITC99 designs are synthesized by :mod:`repro.synth`, written as
structural Verilog and pickled as in-memory netlists; the reference
digests come from an in-process :func:`repro.core.pipeline.identify_words`
run over each synthesized netlist; two artifact stores are filled through
the real entry points (a :class:`repro.api.Session` and a live
``repro serve``) for the workloads that measure warm paths.

Building takes about a minute, so it happens once per checkout, in a
child process (``perfbench/prepare.py``), into
``.bench_build/perfbench-<fingerprint>/``.  The fingerprint hashes every
file under ``src/`` and the builder itself, so an edited program never
reuses inputs built by another one.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import sys
from pathlib import Path
from typing import Dict, List

__all__ = [
    "COLD_DESIGNS",
    "ITC99",
    "LARGE_HIT_DESIGNS",
    "SMALL_DESIGNS",
    "Inputs",
    "child_env",
    "ensure_inputs",
]

#: Table 1 order.
ITC99 = (
    "b03", "b04", "b05", "b07", "b08", "b11",
    "b12", "b13", "b14", "b15", "b17", "b18",
)
#: The designs of the cold CLI and warm-hit workloads.
COLD_DESIGNS = ("b14", "b17", "b18")
#: Repeated small bodies of the serve mix (byte hits, digests, triage).
SMALL_DESIGNS = ("b03", "b04", "b05", "b07", "b08", "b11", "b12", "b13")
#: Large bodies the serve store already holds.
LARGE_HIT_DESIGNS = ("b14", "b17")

#: Environment the program must never inherit from the benchmark's caller.
SCRUBBED_ENV_PREFIXES = ("REPRO_KERNEL", "REPRO_FAULTS")

BUILD_TIMEOUT_S = 850.0


def child_env(root: Path) -> Dict[str, str]:
    """The environment of every child: scrubbed, with ``src`` importable."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith(SCRUBBED_ENV_PREFIXES)
    }
    env["PYTHONPATH"] = str(root / "src")
    return env


def fingerprint(root: Path) -> str:
    """Hash of the program's sources and of the input builder."""
    digest = hashlib.sha256()
    files = sorted((root / "src").rglob("*.py"))
    files.append(Path(__file__).with_name("prepare.py"))
    for path in files:
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class Inputs:
    """Read access to one built input directory."""

    def __init__(self, directory: Path):
        self.dir = directory
        with open(directory / "refs.json") as handle:
            refs = json.load(handle)
        #: design -> result digest of an in-process identify_words run.
        self.result_digest: Dict[str, str] = refs["result_digest"]
        #: design -> triage digest (default TriageConfig) of b03..b13.
        self.triage_digest: Dict[str, str] = refs["triage_digest"]
        #: design -> byte-level store digest of its Verilog file.
        self.text_digest: Dict[str, str] = refs["text_digest"]
        #: Designs of the serve mix's small and large stored bodies.
        self.small: List[str] = refs["small"]
        self.large: List[str] = refs["large"]

    def design_path(self, name: str) -> Path:
        return self.dir / "designs" / f"{name}.v"

    def design_text(self, name: str) -> str:
        return self.design_path(name).read_text()

    def load_netlist(self, name: str):
        """The synthesized netlist (pickled by this checkout's builder)."""
        with open(self.dir / "netlists" / f"{name}.pickle", "rb") as handle:
            return pickle.load(handle)

    @property
    def warm_store(self) -> Path:
        return self.dir / "warm_store"

    @property
    def serve_store(self) -> Path:
        return self.dir / "serve_store"


def ensure_inputs(root: Path, groups, log=sys.stderr) -> Inputs:
    """The checkout's inputs, built first if this checkout has none."""
    build = root / ".bench_build"
    target = build / f"perfbench-{fingerprint(root)}"
    if not (target / "refs.json").is_file():
        build.mkdir(exist_ok=True)
        print(f"perfbench: building inputs into {target}", file=log, flush=True)
        code = groups.run(
            [sys.executable, str(Path(__file__).with_name("prepare.py")),
             str(target)],
            timeout=BUILD_TIMEOUT_S,
            env=child_env(root),
            stdout=log,
        )
        if code != 0 or not (target / "refs.json").is_file():
            raise RuntimeError(f"building the inputs failed (exit {code})")
    return Inputs(target)

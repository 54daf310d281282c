"""Spans around the calls into each layer, recorded from outside ``src``.

A :class:`Tracer` keeps, per span name, the summed wall and CPU time and
the call count, plus named counters (bytes parsed, store hits, ...).
:func:`layer_spans` wraps the public functions each layer exposes *where
their callers look them up* (``repro.api.parse_verilog``,
``repro.store.disk.netlist_digest``, ``ArtifactStore.probe_result``, ...)
for the duration of a traced run and restores them afterwards; the
program's own code is not edited.  A span nested inside another span of
the same name is not counted twice.

:meth:`Tracer.op` brackets one user-visible operation: the part of its
wall that no top-level span covers is accumulated as ``unattributed``.
With ``enabled=False`` every span and op is a no-op, so the untraced run
executes the same benchmark code without any timing calls inside it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["LAYER_FUNCTIONS", "Tracer", "layer_spans"]

#: ``(module, attribute, span name)``: the functions each layer exposes,
#: at the module where their callers bind them.  ``Class.method`` names
#: a method.  Missing attributes are skipped (their metrics stay 0).
LAYER_FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.cli", "parse_verilog", "netlist.parse"),
    ("repro.api", "parse_verilog", "netlist.parse"),
    ("repro.netlist.verilog", "parse_verilog", "netlist.parse"),
    ("repro.store.keys", "write_verilog", "netlist.write_verilog"),
    ("repro.store.disk", "write_verilog", "netlist.write_verilog"),
    ("repro.store.disk", "netlist_digest", "store.netlist_digest"),
    ("repro.api", "netlist_digest", "store.netlist_digest"),
    ("repro.api", "file_digest", "store.file_digest"),
    ("repro.api", "bytes_digest", "store.file_digest"),
    ("repro.store.disk", "ArtifactStore.probe_result", "store.probe"),
    ("repro.store.disk", "ArtifactStore.commit_result", "store.commit_result"),
    ("repro.store.disk", "ArtifactStore.commit_netlist", "store.commit_netlist"),
    ("repro.cli", "identify_words", "core.identify"),
    ("repro.api", "identify_words", "core.identify"),
    ("repro.eval.runner", "identify_words", "core.identify"),
    ("repro.eval.runner", "shape_hashing", "core.identify"),
    ("repro.eval.runner", "extract_reference_words", "eval.reference"),
    ("repro.eval.runner", "evaluate", "eval.evaluate"),
    ("repro.cli", "_report", "api.report"),
)


class Tracer:
    """Wall/CPU totals per span name, counters, and op bookkeeping."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.wall: Dict[str, float] = {}
        self.cpu: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counters: Dict[str, float] = {}
        #: Results returned by ``core.identify`` spans, for stage times.
        self.results: List[object] = []
        self.unattributed_s = 0.0
        self._active: Dict[str, int] = {}
        self._depth = 0
        self._root_wall = 0.0

    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled or self._active.get(name):
            yield
            return
        self._active[name] = 1
        self._depth += 1
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        try:
            yield
        finally:
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
            self._depth -= 1
            self._active[name] = 0
            self.wall[name] = self.wall.get(name, 0.0) + wall
            self.cpu[name] = self.cpu.get(name, 0.0) + cpu
            self.calls[name] = self.calls.get(name, 0) + 1
            if self._depth == 0:
                self._root_wall += wall

    @contextlib.contextmanager
    def op(self) -> Iterator[None]:
        """One user-visible operation; adds its unattributed wall."""
        if not self.enabled:
            yield
            return
        covered = self._root_wall
        start = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - start
            self.unattributed_s += wall - (self._root_wall - covered)

    def count(self, name: str, amount: float = 1.0) -> None:
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0.0) + amount

    # ------------------------------------------------------------------
    def wrap(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` inside a span; ``after(args, result)`` records counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return traced


def _after_hooks(tracer: Tracer) -> Dict[str, Callable]:
    def parsed(args, _result):
        if args and isinstance(args[0], str):
            tracer.count("netlist.parse_bytes", len(args[0].encode("utf-8")))

    def probed(_args, result):
        tracer.count("store.probes")
        if result is not None:
            tracer.count("store.probe_hits")

    def identified(_args, result):
        tracer.results.append(result)

    return {
        "netlist.parse": parsed,
        "store.probe": probed,
        "core.identify": identified,
    }


@contextlib.contextmanager
def layer_spans(tracer: Tracer) -> Iterator[None]:
    """Install :data:`LAYER_FUNCTIONS` wrappers (traced runs only)."""
    if not tracer.enabled:
        yield
        return
    hooks = _after_hooks(tracer)
    undo: List[Tuple[object, str, object]] = []
    try:
        for module_name, attr, name in LAYER_FUNCTIONS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = owner.__dict__.get(leaf) if owner is not None else None
            if original is None:
                continue
            undo.append((owner, leaf, original))
            setattr(owner, leaf, tracer.wrap(name, original, hooks.get(name)))
        _count_store_bytes(tracer, undo)
        yield
    finally:
        for owner, leaf, original in reversed(undo):
            setattr(owner, leaf, original)


def _count_store_bytes(tracer: Tracer, undo: list) -> None:
    """Count the bytes each store write publishes (``store.bytes``)."""
    from repro.store.disk import ArtifactStore

    original = ArtifactStore.__dict__.get("_note_written")
    if original is None:
        return

    def note_written(store, nbytes):
        tracer.count("store.bytes", nbytes)
        return original(store, nbytes)

    undo.append((ArtifactStore, "_note_written", original))
    ArtifactStore._note_written = note_written

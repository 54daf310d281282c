"""Flat-array kernels for the hot structural passes.

The staged engine spends almost all of its time in three loops: the
bottom-up per-level hash-key tables (:meth:`AnalysisContext.precompute_keys`),
per-net signature construction, and the cone net-set intersections of the
control stage.  All three are pure functions of the driver index, so they
vectorize: this module builds one CSR-style :class:`NetTable` per
:class:`~repro.core.context.AnalysisContext` (net names interned to dense
integer ids, children flattened into contiguous arrays) and re-expresses
the passes as numpy sweeps over those arrays.

**Byte-identity is the contract.**  The array kernel produces the *same
key strings, in the same order, with the same cache-counter movements* as
the legacy object-graph code — `result_digest` must not move.  The key
insight making that cheap: on real designs the per-level key tables are
tiny *as sets* (b18 has 13/90/173 distinct keys at levels 1/2/3 over
59k nets), so the kernel deduplicates shapes with ``np.unique`` over
integer rows and materializes each distinct string exactly once.  The
interned strings are shared objects, which also turns the matching
stage's string equality checks into pointer comparisons.

Kernel selection is a platform fact, not a user setting: ``array``
when numpy imports, ``python`` otherwise (numpy is not a runtime
dependency).  Like ``jobs``, the kernel is output-neutral, so it does not
participate in store fingerprints; ``StageTrace.kernel`` records which
one ran.  The python path stays fully alive as the differential
reference and the only path without numpy: tests, the ``kernel`` fuzz
oracle and ``benchmarks/bench_pipeline.py`` reach it through the one
internal hook, ``AnalysisContext(netlist, depth, kernel="python")``
(``tests/core/test_kernels.py`` compares both on all 12 ITC99 designs).
Both paths stay because the array kernel pays end to end: on the
``table1`` workload (Base + Ours over all 12 ITC99 designs) a pass took
8.2-8.7 s with it against 9.7-10.0 s with the python kernel alone (four
alternating pairs, the array kernel faster in every pair).
"""

from __future__ import annotations

import threading
import weakref
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

try:  # numpy is optional: without it every context runs the python kernel
    import numpy as _np
except ImportError:  # pragma: no cover - the python kernel runs instead
    _np = None

from .hashkey import LEAF_TOKEN, fast_signature, fast_subtree

__all__ = [
    "KERNELS",
    "NetTable",
    "LevelKeyView",
    "ConeBitsets",
    "resolve_kernel",
    "numpy_available",
    "build_level_tables",
    "bulk_signatures",
    "dirty_flags",
    "decode_bitset_row",
]

KERNELS = ("python", "array")

# Reduction re-hash only pays for the vectorized dirty pass when the
# subcircuit is big enough to amortize per-call numpy overhead; below
# this many nets the memoized python support sets win.
REHASH_MIN_NETS = 128


def numpy_available() -> bool:
    return _np is not None


def resolve_kernel(preference: Optional[str] = None) -> str:
    """The kernel a run uses: ``python`` or ``array``.

    ``None`` (every user-facing run) is the platform default: ``array``
    when numpy imports, ``python`` otherwise.  An explicit name is the
    internal :class:`~repro.core.context.AnalysisContext` hook that lets
    tests and benchmarks reach the python reference; ``array`` still
    falls back to ``python`` without numpy, and an unknown name raises
    ``ValueError``.
    """
    if preference is None or preference == "array":
        return "array" if _np is not None else "python"
    if preference != "python":
        raise ValueError(
            f"unknown kernel {preference!r}; expected one of {list(KERNELS)}"
        )
    return "python"


class NetTable:
    """CSR view of one netlist's driver index.

    Net names are interned to dense ids (``index``/``names``); the
    *eligible* nets — driven, combinational, outside the cone boundary,
    in ``drivers()`` order, exactly the rows ``precompute_keys`` walks —
    carry a flattened child array in CSR form (``e_indices`` sliced by
    ``e_indptr``).  Python-list mirrors (``children``, ``leafish``) are
    kept for the scalar walks, numpy arrays for the vector passes.
    """

    __slots__ = (
        "index", "names", "cell_names", "cell_of", "children",
        "leafish", "gate_of", "eligible", "n", "num_eligible",
        "e_ids", "e_cells", "e_counts", "e_indptr", "e_indices",
    )

    @classmethod
    def build(cls, netlist, boundary) -> "NetTable":
        table = cls()
        # Driven nets take the dense prefix, in drivers() order; inputs
        # that are nobody's output (PIs, dangling nets) append after.
        names = [net for net, _ in netlist.drivers()]
        gate_objs = [gate for _, gate in netlist.drivers()]
        index = {net: i for i, net in enumerate(names)}
        num_driven = len(names)

        children: List[Tuple[int, ...]] = []
        children_append = children.append
        index_get = index.get
        for gate in gate_objs:
            row = []
            for child in gate.inputs:
                j = index_get(child)
                if j is None:
                    j = len(names)
                    index[child] = j
                    names.append(child)
                row.append(j)
            children_append(tuple(row))

        n = len(names)
        children.extend([()] * (n - num_driven))
        cell_index: Dict[str, int] = {}
        cell_names: List[str] = []
        cell_seq: List[bool] = []
        cell_of = [-1] * n
        leafish = [True] * n
        gate_of = [None] * n
        for i, gate in enumerate(gate_objs):
            cell = gate.cell
            ci = cell_index.get(cell.name)
            if ci is None:
                ci = len(cell_names)
                cell_index[cell.name] = ci
                cell_names.append(cell.name)
                cell_seq.append(bool(cell.sequential))
            cell_of[i] = ci
            gate_of[i] = gate
            leafish[i] = cell_seq[ci] or names[i] in boundary

        eligible = [i for i in range(num_driven) if not leafish[i]]

        table.index = index
        table.names = names
        table.cell_names = cell_names
        table.cell_of = cell_of
        table.children = children
        table.leafish = leafish
        table.gate_of = gate_of
        table.eligible = eligible
        table.n = n
        table.num_eligible = len(eligible)
        if _np is not None:
            table.e_ids = _np.asarray(eligible, dtype=_np.int64)
            table.e_cells = _np.fromiter(
                (cell_of[i] for i in eligible),
                dtype=_np.int64, count=len(eligible),
            )
            table.e_counts = _np.fromiter(
                (len(children[i]) for i in eligible),
                dtype=_np.int64, count=len(eligible),
            )
            indptr = _np.zeros(len(eligible) + 1, dtype=_np.int64)
            _np.cumsum(table.e_counts, out=indptr[1:])
            table.e_indptr = indptr
            table.e_indices = _np.asarray(
                [c for i in eligible for c in children[i]],
                dtype=_np.int64,
            ).reshape(-1)
        else:
            table.e_ids = table.e_cells = None
            table.e_counts = table.e_indptr = table.e_indices = None
        return table


class LevelKeyView:
    """Read-only ``net -> level key`` mapping backed by interned tables.

    Drop-in for the per-level dicts ``precompute_keys`` fills: ``get``
    answers the exact key string the python kernel would store, or the
    default for nets outside the table (cone leaves).  Every net sharing
    a shape answers the *same string object*, so downstream ``==``
    comparisons short-circuit on identity.
    """

    __slots__ = ("_index", "_shape", "strings")

    def __init__(self, index: Dict[str, int], shape: List[int],
                 strings: List[str]):
        self._index = index
        self._shape = shape
        self.strings = strings

    def get(self, net: str, default: Optional[str] = None) -> Optional[str]:
        i = self._index.get(net)
        if i is None:
            return default
        s = self._shape[i]
        return self.strings[s] if s >= 0 else default

    def __getitem__(self, net: str) -> str:
        value = self.get(net)
        if value is None:
            raise KeyError(net)
        return value

    def __contains__(self, net: str) -> bool:
        return self.get(net) is not None

    def __len__(self) -> int:
        return sum(1 for s in self._shape if s >= 0)

    def items(self):
        strings = self.strings
        shape = self._shape
        for net, i in self._index.items():
            s = shape[i]
            if s >= 0:
                yield net, strings[s]


# ----------------------------------------------------------------------
# process-level table sharing
# ----------------------------------------------------------------------
#
# The CSR table and the full level views are pure functions of
# (netlist structure, depth), so repeated analyses of the same netlist
# object — bench repeats, serve workers answering the same digest, the
# eval runner's sweeps — share them across contexts.  Entries are keyed
# weakly by the netlist and guarded by its ``revision`` counter: any
# mutation makes the cached index unreachable.  This mirrors the
# process cone tier (repro.core.conecache), at the index layer.

class _SharedEntry:
    __slots__ = ("revision", "table", "levels")

    def __init__(self, revision: int, table: NetTable):
        self.revision = revision
        self.table = table
        # depth -> {level: LevelKeyView}, only complete builds
        self.levels: Dict[int, Dict[int, LevelKeyView]] = {}


_shared_lock = threading.Lock()
_shared_tables: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def shared_entry(netlist, boundary) -> _SharedEntry:
    """The process-shared :class:`NetTable` entry for ``netlist`` at its
    current revision, building it on first use."""
    revision = netlist.revision
    with _shared_lock:
        entry = _shared_tables.get(netlist)
        if entry is not None and entry.revision == revision:
            return entry
    entry = _SharedEntry(revision, NetTable.build(netlist, boundary))
    with _shared_lock:
        _shared_tables[netlist] = entry
    return entry


def shared_level_views(
    entry: _SharedEntry, depth: int, budget
) -> Tuple[Dict[int, "LevelKeyView"], int]:
    """Level views for ``depth``, answered from the shared entry when a
    complete build is cached; partial (budget-cut) builds stay private."""
    cached = entry.levels.get(depth)
    if cached is not None:
        return cached, depth - 1
    views: Dict[int, LevelKeyView] = {}
    completed = build_level_tables(entry.table, depth, budget, views)
    if completed == depth - 1:
        entry.levels[depth] = views
    return views, completed


def build_level_tables(table: NetTable, depth: int, budget, out: dict) -> int:
    """Fill ``out[level] = LevelKeyView`` for levels ``1 .. depth-1``.

    One vector pass per level: gather child shapes, canonicalize each row
    as ``(cell id, sorted child shape ids)``, dedup rows with
    ``np.unique``, then materialize one string per *distinct* shape by
    sorting the child strings lexicographically — exactly the string the
    python kernel builds per net.  Arity buckets are processed in
    ascending arity order so shape-id assignment is deterministic.

    Returns the number of completed levels (the budget is re-checked
    between levels, like the python pass).
    """
    np = _np
    n = table.n
    shape_prev = np.full(n, -1, dtype=np.int64)
    strings_prev: List[str] = []
    e_ids = table.e_ids
    e_cells = table.e_cells
    e_counts = table.e_counts
    e_indptr = table.e_indptr
    e_indices = table.e_indices
    cell_names = table.cell_names
    cell_bits = max(1, (len(cell_names) - 1).bit_length())
    completed = 0
    arities = np.unique(e_counts).tolist() if len(e_counts) else []
    # Per-arity precomputed row selections (loop-invariant across levels).
    buckets = []
    for arity in arities:
        rowmask = e_counts == arity
        buckets.append((
            int(arity),
            e_ids[rowmask],
            e_cells[rowmask],
            e_indptr[:-1][rowmask],
        ))
    for level in range(1, depth):
        if budget is not None and budget.expired():
            break
        child_shape = shape_prev[e_indices]
        shape_new = np.full(n, -1, dtype=np.int64)
        strings: List[str] = []
        offset = 0
        # Child shapes shifted so leaves (-1) pack as 0.
        shape_bits = max(1, len(strings_prev).bit_length())
        for arity, rows_eid, cells_col, starts in buckets:
            if arity == 2:
                a = child_shape[starts]
                b = child_shape[starts + 1]
                mat = np.stack(
                    [np.minimum(a, b), np.maximum(a, b)], axis=1
                )
            elif arity:
                cols = starts[:, None] + np.arange(arity)
                mat = np.sort(child_shape[cols], axis=1)
            else:  # zero-input cells (constant ties) have leaf-free keys
                mat = np.empty((len(rows_eid), 0), dtype=np.int64)
            if cell_bits + arity * shape_bits <= 62:
                # Pack (cell, sorted shapes) into one int64 per row: a
                # 1-D np.unique is much cheaper than the axis=0 row sort.
                codes = cells_col
                for col in range(arity):
                    codes = (codes << shape_bits) | (mat[:, col] + 1)
                uniq_codes, inverse = np.unique(
                    codes, return_inverse=True
                )
                mask = (1 << shape_bits) - 1
                uniq_rows = []
                for code in uniq_codes.tolist():
                    row = [0] * (arity + 1)
                    for col in range(arity, 0, -1):
                        row[col] = (code & mask) - 1
                        code >>= shape_bits
                    row[0] = code
                    uniq_rows.append(row)
            else:
                rows = np.concatenate([cells_col[:, None], mat], axis=1)
                uniq, inverse = np.unique(
                    rows, axis=0, return_inverse=True
                )
                uniq_rows = uniq.tolist()
            shape_new[rows_eid] = offset + inverse.reshape(-1)
            for row in uniq_rows:
                cell = cell_names[row[0]]
                parts = sorted(
                    strings_prev[s] if s >= 0 else LEAF_TOKEN
                    for s in row[1:]
                )
                strings.append(f"({''.join(parts)}{cell})")
            offset += len(uniq_rows)
        out[level] = LevelKeyView(table.index, shape_new.tolist(), strings)
        shape_prev = shape_new
        strings_prev = strings
        completed += 1
    return completed


def bulk_signatures(context, nets: Sequence[str], view: LevelKeyView):
    """Signatures of ``nets`` against a precomputed level view.

    Byte- and counter-identical to calling ``context.signature`` per net
    when the level table is present, minus the per-net attribute churn:
    memo probes, leaf checks, and stat bumps are batched, and the frozen
    dataclasses are built through the fast constructors.
    """
    stats = context.stats
    memo = context._signatures
    table = context._table
    index_get = table.index.get
    leafish = table.leafish
    gate_of = table.gate_of
    cone = context.cone
    levels = context.depth - 1
    vget = view.get
    rt_cache = context._root_types
    # (child net -> Subtree) at levels == depth-1: a subtree is a pure
    # function of its child net within one context, so fanout shares one
    # object.  A gate listing the same input twice gets fresh objects for
    # the duplicates (matching maps leftovers by subtree identity within
    # a signature, so within-signature ids must be distinct).
    sub_cache = context._subtrees
    sub_get = sub_cache.get
    leaf = LEAF_TOKEN
    new_subtree = fast_subtree
    new_signature = fast_signature
    make = partial
    out = []
    append = out.append
    sig_hits = sig_misses = key_hits = 0
    for net in nets:
        sig = memo.get(net)
        if sig is not None:
            sig_hits += 1
            append(sig)
            continue
        sig_misses += 1
        i = index_get(net)
        if i is None or leafish[i]:
            sig = new_signature(net, None, (), ())
        else:
            gate = gate_of[i]
            inputs = gate.inputs
            arity = len(inputs)
            key_hits += arity
            if arity == 2:
                c0, c1 = inputs
                if c0 != c1:
                    s0 = sub_get(c0)
                    if s0 is None:
                        k0 = vget(c0) or leaf
                        s0 = new_subtree(c0, k0, make(cone, c0, levels))
                        sub_cache[c0] = s0
                    else:
                        k0 = s0.key
                    s1 = sub_get(c1)
                    if s1 is None:
                        k1 = vget(c1) or leaf
                        s1 = new_subtree(c1, k1, make(cone, c1, levels))
                        sub_cache[c1] = s1
                    else:
                        k1 = s1.key
                    subtrees = (s0, s1)
                else:
                    k0 = k1 = vget(c0) or leaf
                    subtrees = (
                        new_subtree(c0, k0, make(cone, c0, levels)),
                        new_subtree(c1, k1, make(cone, c1, levels)),
                    )
                sorted_keys = (k0, k1) if k0 <= k1 else (k1, k0)
            elif arity == 1 or len(set(inputs)) == arity:
                subtrees = []
                keys_of = []
                for child in inputs:
                    st = sub_get(child)
                    if st is None:
                        key = vget(child) or leaf
                        st = new_subtree(
                            child, key, make(cone, child, levels)
                        )
                        sub_cache[child] = st
                    else:
                        key = st.key
                    subtrees.append(st)
                    keys_of.append(key)
                subtrees = tuple(subtrees)
                sorted_keys = tuple(sorted(keys_of))
            else:
                keys_of = [vget(c) or leaf for c in inputs]
                subtrees = tuple(
                    new_subtree(c, k, make(cone, c, levels))
                    for c, k in zip(inputs, keys_of)
                )
                sorted_keys = tuple(sorted(keys_of))
            cell = gate.cell.name
            rt = rt_cache.get((cell, arity))
            if rt is None:
                rt = f"{cell}{arity}"
                rt_cache[(cell, arity)] = rt
            sig = new_signature(net, rt, subtrees, sorted_keys)
        memo[net] = sig
        append(sig)
    stats.signature_hits += sig_hits
    stats.signature_misses += sig_misses
    stats.key_hits += key_hits
    return out


# ----------------------------------------------------------------------
# cone net-set bitsets (control stage intersection)
# ----------------------------------------------------------------------

class ConeBitsets:
    """Packed-uint64 cone net sets over a :class:`NetTable`.

    ``row(net_id, levels)`` is the bitset equivalent of
    ``AnalysisContext.cone_nets``: bit ``i`` is set iff net ``i`` is in
    the cone.  Rows are memoized per ``(net id, levels)`` so the hit/miss
    sequence matches the python ``_netsets`` memo call for call.
    """

    __slots__ = ("table", "words", "_rows")

    def __init__(self, table: NetTable):
        self.table = table
        self.words = (table.n + 63) >> 6
        self._rows: Dict[Tuple[int, int], object] = {}

    def cached_row(self, net_id: int, levels: int):
        """The memoized row, or ``None`` (callers count hits/misses)."""
        return self._rows.get((net_id, levels))

    def row(self, net_id: int, levels: int):
        key = (net_id, levels)
        row = self._rows.get(key)
        if row is None:
            ids = _np.asarray(
                _cone_ids(self.table, net_id, levels), dtype=_np.int64
            )
            row = _np.zeros(self.words, dtype=_np.uint64)
            _np.bitwise_or.at(
                row,
                ids >> 6,
                _np.left_shift(
                    _np.uint64(1), (ids & 63).astype(_np.uint64)
                ),
            )
            self._rows[key] = row
        return row


def _cone_ids(table: NetTable, root: int, levels: int) -> List[int]:
    """Net ids of ``root``'s cone at ``levels`` — the set
    ``cone_nets`` computes, as dense ids via an iterative walk."""
    children = table.children
    leafish = table.leafish
    cell_of = table.cell_of
    best: Dict[int, int] = {}
    out: List[int] = []
    stack = [(root, levels)]
    while stack:
        i, level = stack.pop()
        prev = best.get(i)
        if prev is not None and level <= prev:
            continue
        if prev is None:
            out.append(i)
        best[i] = level
        if level == 0 or leafish[i] or cell_of[i] < 0:
            continue
        level -= 1
        for child in children[i]:
            stack.append((child, level))
    return out


def decode_bitset_row(table: NetTable, row) -> set:
    """Net names whose bits are set in ``row``."""
    names = table.names
    out = set()
    for word in _np.flatnonzero(row).tolist():
        bits = int(row[word])
        base = word << 6
        while bits:
            low = bits & -bits
            out.add(names[base + low.bit_length() - 1])
            bits ^= low
    return out


# ----------------------------------------------------------------------
# reduction re-hash dirty flags
# ----------------------------------------------------------------------

def dirty_flags(table: NetTable, value_ids: Sequence[int], depth: int):
    """Per-level support-hit flags for a constant assignment.

    ``flags[l][i]`` is True iff ``support(net_i, l)`` intersects the
    assigned nets — the second clause of ``changed()`` in
    :meth:`AnalysisContext.signatures_after_reduction` — computed as a
    level-synchronous sweep instead of one memoized frozenset per
    ``(net, level)``.  Levels run ``0 .. depth`` inclusive (``changed``
    is asked at the context depth for root bits).

    Recurrence (derived from the support definition): a leafish net's
    support is empty at every level; otherwise
    ``S[l][i] = assigned[i] or any(assigned[c] or S[l-1][c] for c in
    children[i])`` with ``S[0] = False`` everywhere.
    """
    np = _np
    n = table.n
    assigned = np.zeros(n, dtype=bool)
    if len(value_ids):
        assigned[np.asarray(value_ids, dtype=np.int64)] = True
    e_ids = table.e_ids
    e_indices = table.e_indices
    e_indptr = table.e_indptr
    child_assigned = assigned[e_indices]
    own = assigned[e_ids]
    s_prev = np.zeros(n, dtype=bool)
    flags = [s_prev.tolist()]
    edge_count = len(e_indices)
    csum = np.zeros(edge_count + 1, dtype=np.int64)
    for _ in range(depth):
        child_term = child_assigned | s_prev[e_indices]
        np.cumsum(child_term, out=csum[1:])
        row_hits = csum[e_indptr[1:]] > csum[e_indptr[:-1]]
        s_new = np.zeros(n, dtype=bool)
        s_new[e_ids] = own | row_hits
        flags.append(s_new.tolist())
        s_prev = s_new
    return flags

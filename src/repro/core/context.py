"""Shared analysis state: memoized cones, hash keys, and incremental re-hash.

The staged engine (:mod:`repro.core.stages`) routes every structural query
through one :class:`AnalysisContext` per netlist instead of rebuilding
indices ad hoc:

* **Cone extraction** is memoized by ``(net, levels)`` and DAG-shared —
  a subtree expanded once is the *same* :class:`ConeNode` object inside
  every cone that contains it, so identity-keyed memos (hash keys, control
  profiles) amortize across bits, groups, and subgroups.
* **Hash keys** are memoized both by ``(net, levels)`` (the
  :class:`~repro.core.hashkey.SignatureIndex` scheme) and by
  :class:`ConeNode` identity (:meth:`hash_key`), so identical shared
  subtrees are serialized once per netlist rather than once per fanout
  path.
* **Signatures** are memoized per net, and their lazy
  :class:`~repro.core.hashkey.Subtree` cones resolve through the shared
  cone cache.
* **Incremental reduced re-hash** (:meth:`signatures_after_reduction`):
  after a control-signal assignment reduces a subcircuit, only the nets
  the assignment actually touched are rehashed.  Per ``(net, levels)``
  subtree the context keeps its *support* — the set of nets whose
  assignment can change that subtree's shape — and a subtree whose support
  is disjoint from the assigned nets reuses its unreduced key verbatim.
  This replaces the seed behaviour of constructing a fresh
  ``SignatureIndex`` over every reduced netlist of every assignment.

A context created with ``parent=`` (the engine does this for each
subgroup's subcircuit) reads the parent's key cache before computing: the
subcircuit cut preserves every gate a root-cone hash key can observe, so
parent keys are valid wherever they exist.  Parent caches are never
written through, which keeps parallel subgroup workers race-free — each
worker owns its sub-context and only *reads* the shared one.

Every cache movement is counted in :class:`~repro.core.words.CacheStats`
for the observability layer.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..netlist.cone import ConeNode, extract_cone
from ..netlist.netlist import Netlist
from . import kernels
from .hashkey import (
    DEFAULT_DEPTH,
    LEAF_TOKEN,
    BitSignature,
    Subtree,
    cone_digest,
)
from .words import CacheStats

__all__ = ["AnalysisContext"]

_EMPTY_SUPPORT: frozenset = frozenset()


class AnalysisContext:
    """Memoized structural-analysis state for one netlist.

    Produces exactly the same keys and signatures as
    :class:`~repro.core.hashkey.SignatureIndex` / :func:`~repro.core.hashkey.hash_key`
    on freshly expanded trees — the context only changes *when* work
    happens, never *what* is computed.
    """

    def __init__(
        self,
        netlist: Netlist,
        depth: int = DEFAULT_DEPTH,
        parent: Optional["AnalysisContext"] = None,
        kernel: Optional[str] = None,
    ):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.netlist = netlist
        self.depth = depth
        self.parent = parent
        self.boundary = netlist.cone_leaf_nets()
        self.stats = CacheStats()
        # Cooperative run budget (core/resilience.py), set by the engine
        # before the signature stage; None means no limits configured.
        self.budget = None
        self._cones: Dict[Tuple[str, int], ConeNode] = {}
        self._keys: Dict[Tuple[str, int], str] = {}
        self._signatures: Dict[str, BitSignature] = {}
        # id(node) -> (node, value); the node reference pins the object so
        # CPython cannot recycle its id while the memo entry is alive.
        self._node_keys: Dict[int, Tuple[ConeNode, str]] = {}
        self._node_caches: Dict[str, dict] = {}
        self._supports: Dict[Tuple[str, int], frozenset] = {}
        self._netsets: Dict[Tuple[str, int], frozenset] = {}
        self._keys_precomputed = False
        # level -> mapping of net -> key for levels 1..depth-1, filled by
        # precompute_keys(); lets signature() resolve subtree keys with one
        # plain-string dict probe (missing net == cone leaf == LEAF_TOKEN).
        # Under the array kernel the values are
        # :class:`~repro.core.kernels.LevelKeyView` objects (same ``get``
        # contract, interned strings) instead of dicts.
        self._level_keys: Dict[int, Mapping[str, str]] = {}
        # Array-kernel state (repro.core.kernels): resolved once per
        # context.  ``kernel=None`` is the platform default; an explicit
        # name is the internal hook tests and benchmarks use to reach the
        # python reference.  Sub-contexts inherit the parent's resolved
        # kernel so one run never mixes kernels.  The CSR table and cone
        # bitsets build lazily.
        if kernel is None and parent is not None:
            self.kernel = parent.kernel
        else:
            self.kernel = kernels.resolve_kernel(kernel)
        self._shared_entry: Optional[kernels._SharedEntry] = None
        self._table: Optional[kernels.NetTable] = None
        self._cone_bitsets: Optional[kernels.ConeBitsets] = None
        self._root_types: Dict[Tuple[str, int], str] = {}
        self._subtrees: Dict[str, Subtree] = {}

    # ------------------------------------------------------------------
    # cones
    # ------------------------------------------------------------------
    def cone(self, net: str, levels: Optional[int] = None) -> ConeNode:
        """The memoized, DAG-shared fanin cone of ``net``.

        Structurally identical to
        ``extract_cone(netlist, net, levels, stop_nets=boundary)``; shared
        subtrees are the same :class:`ConeNode` objects across calls.
        """
        if levels is None:
            levels = self.depth
        cached = self._cones.get((net, levels))
        if cached is not None:
            self.stats.cone_hits += 1
            return cached
        self.stats.cone_misses += 1
        return extract_cone(
            self.netlist,
            net,
            levels,
            stop_nets=self.boundary,
            node_cache=self._cones,
        )

    def node_cache(self, namespace: str) -> dict:
        """A named ``id(node) -> (node, value)`` memo for derived analyses.

        Because :meth:`cone` canonicalizes subtrees, identity-keyed memos
        here are shared across every cone containing the subtree (the
        control stage caches its per-cone net profiles this way).
        """
        return self._node_caches.setdefault(namespace, {})

    # ------------------------------------------------------------------
    # hash keys
    # ------------------------------------------------------------------
    def key(self, net: str, levels: int) -> str:
        """Hash key of ``net``'s cone expanded ``levels`` gate levels.

        The recursion itself is stat-free (it runs hundreds of thousands of
        times on large designs); hit/miss counters are maintained at the
        subtree-query level by :meth:`signature` and
        :meth:`precompute_keys`.
        """
        memo_key = (net, levels)
        cached = self._keys.get(memo_key)
        if cached is not None:
            return cached
        level_keys = self._level_keys.get(levels)
        if level_keys is not None:
            cached = level_keys.get(net)
            if cached is not None:
                return cached
        if self.parent is not None:
            inherited = self.parent._keys.get(memo_key)
            if inherited is None:
                parent_level = self.parent._level_keys.get(levels)
                if parent_level is not None:
                    inherited = parent_level.get(net)
            if inherited is not None:
                self.stats.key_shared_hits += 1
                self._keys[memo_key] = inherited
                return inherited
        driver = self.netlist.driver(net)
        if (
            levels == 0
            or driver is None
            or driver.is_ff
            or net in self.boundary
        ):
            result = LEAF_TOKEN
        else:
            parts = sorted(
                [self.key(child, levels - 1) for child in driver.inputs]
            )
            result = f"({''.join(parts)}{driver.cell.name})"
        self._keys[memo_key] = result
        return result

    def cone_digest(self, net: str, levels: Optional[int] = None) -> str:
        """Serializable canonical digest of ``net``'s cone (``cone:`` space).

        The digest is a fixed-width, versioned fold of the memoized hash
        key (:func:`~repro.core.hashkey.cone_digest`): independent of net
        names and file order, stable across processes and designs, and
        therefore usable as a persistent cache address — unlike the raw
        key, which grows with cone size, and unlike identity memos, which
        die with this context.
        """
        if levels is None:
            levels = self.depth
        return cone_digest(self.key(net, levels))

    def precompute_keys(self) -> None:
        """Fill the per-level key tables bottom-up for every eligible net
        at levels ``1 .. depth-1`` — the levels bit signatures query.

        The recursive :meth:`key` produces identical strings, but pays a
        Python call per (net, level) frame; one bulk pass over the driver
        index computes each level from the one below it with tight loops.
        Idempotent; sub-contexts skip it (they inherit from the parent).
        """
        if self._keys_precomputed:
            return
        self._keys_precomputed = True
        if self.kernel == "array":
            table = self._ensure_table()
            views, completed = kernels.shared_level_views(
                self._shared_entry, self.depth, self.budget
            )
            self._level_keys.update(views)
            self.stats.key_misses += table.num_eligible * completed
            return
        boundary = self.boundary
        eligible = [
            (net, gate.inputs, gate.cell.name)
            for net, gate in self.netlist.drivers()
            if not gate.is_ff and net not in boundary
        ]
        prev: Dict[str, str] = {}
        completed_levels = 0
        for level in range(1, self.depth):
            if self.budget is not None and self.budget.expired():
                # The run is over (deadline / abort): stop the bulk pass
                # between levels.  Partial tables stay correct — a level
                # that was never filled just falls back to the recursive
                # key path — and the engine degrades at the next stage
                # boundary.
                break
            cur: Dict[str, str] = {}
            get = prev.get
            if level == 1:
                for net, inputs, cell in eligible:
                    cur[net] = f"({LEAF_TOKEN * len(inputs)}{cell})"
            else:
                for net, inputs, cell in eligible:
                    if len(inputs) == 2:
                        a = get(inputs[0], LEAF_TOKEN)
                        b = get(inputs[1], LEAF_TOKEN)
                        if b < a:
                            a, b = b, a
                        cur[net] = f"({a}{b}{cell})"
                    else:
                        parts = sorted(
                            [get(c, LEAF_TOKEN) for c in inputs]
                        )
                        cur[net] = f"({''.join(parts)}{cell})"
            self._level_keys[level] = cur
            prev = cur
            completed_levels += 1
        self.stats.key_misses += len(eligible) * completed_levels

    def _ensure_table(self) -> Optional[kernels.NetTable]:
        """The process-shared CSR :class:`~repro.core.kernels.NetTable`
        for this netlist, bound on first use; ``None`` under the python
        kernel."""
        if self.kernel != "array":
            return None
        if self._table is None:
            self._shared_entry = kernels.shared_entry(
                self.netlist, self.boundary
            )
            self._table = self._shared_entry.table
        return self._table

    def hash_key(self, node: ConeNode) -> str:
        """Canonical post-order key of an expanded cone subtree, memoized
        by node identity.

        Identical to :func:`repro.core.hashkey.hash_key`, but a shared
        subtree (one :class:`ConeNode` reached along several fanout paths
        of a DAG-shared cone) is serialized once instead of once per path.
        """
        entry = self._node_keys.get(id(node))
        if entry is not None and entry[0] is node:
            self.stats.node_key_hits += 1
            return entry[1]
        self.stats.node_key_misses += 1
        if node.is_leaf:
            key = LEAF_TOKEN
        else:
            parts = sorted(self.hash_key(child) for child in node.children)
            key = f"({''.join(parts)}{node.gate_type})"
        self._node_keys[id(node)] = (node, key)
        return key

    # ------------------------------------------------------------------
    # signatures
    # ------------------------------------------------------------------
    def signature(self, net: str) -> BitSignature:
        """The :class:`BitSignature` of ``net`` at this context's depth."""
        cached = self._signatures.get(net)
        if cached is not None:
            self.stats.signature_hits += 1
            return cached
        self.stats.signature_misses += 1
        driver = self.netlist.driver(net)
        if driver is None or driver.is_ff or net in self.boundary:
            sig = BitSignature(net, None, (), ())
        else:
            levels = self.depth - 1
            stats = self.stats
            cone = self.cone
            inputs = driver.inputs
            level_keys = self._level_keys.get(levels)
            if level_keys is not None:
                # Precomputed table: one string probe per subtree; a net
                # absent from the table is a cone leaf (key LEAF_TOKEN).
                get = level_keys.get
                keys_of = [get(child) or LEAF_TOKEN for child in inputs]
                stats.key_hits += len(keys_of)
            else:
                keys = self._keys
                keys_of = []
                for child in inputs:
                    key = keys.get((child, levels))
                    if key is not None:
                        stats.key_hits += 1
                    else:
                        stats.key_misses += 1
                        key = self.key(child, levels)
                    keys_of.append(key)
            subtrees = tuple(
                Subtree(child, key, partial(cone, child, levels))
                for child, key in zip(inputs, keys_of)
            )
            if len(keys_of) == 2:
                a, b = keys_of
                sorted_keys = (a, b) if a <= b else (b, a)
            else:
                sorted_keys = tuple(sorted(keys_of))
            root_type = f"{driver.cell.name}{len(inputs)}"
            sig = BitSignature(net, root_type, subtrees, sorted_keys)
        self._signatures[net] = sig
        return sig

    def signatures(self, nets: Sequence[str]) -> List[BitSignature]:
        view = self._level_keys.get(self.depth - 1)
        if type(view) is kernels.LevelKeyView:
            return kernels.bulk_signatures(self, nets, view)
        return [self.signature(net) for net in nets]

    # ------------------------------------------------------------------
    # cone net sets
    # ------------------------------------------------------------------
    def cone_nets(self, net: str, levels: int) -> frozenset:
        """Net names of ``net``'s cone expanded ``levels`` gate levels.

        Equal to ``{n.net for n in self.cone(net, levels).walk()}`` but
        computed straight off the driver index — no :class:`ConeNode` tree
        is materialized.  The control stage intersects these sets to decide
        whether a subgroup has any common net at all before it pays for
        cone extraction.
        """
        memo_key = (net, levels)
        cached = self._netsets.get(memo_key)
        if cached is not None:
            self.stats.netset_hits += 1
            return cached
        self.stats.netset_misses += 1
        return self._cone_nets_rec(net, levels)

    def _cone_nets_rec(self, net: str, levels: int) -> frozenset:
        memo_key = (net, levels)
        cached = self._netsets.get(memo_key)
        if cached is not None:
            return cached
        driver = self.netlist.driver(net)
        if (
            levels == 0
            or driver is None
            or driver.is_ff
            or net in self.boundary
        ):
            result = frozenset((net,))
        else:
            acc = {net}
            for child in driver.inputs:
                acc.update(self._cone_nets_rec(child, levels - 1))
            result = frozenset(acc)
        self._netsets[memo_key] = result
        return result

    def common_cone_nets(
        self, roots: Sequence[str], levels: int
    ) -> Optional[set]:
        """Intersection of ``cone_nets(root, levels)`` over ``roots``,
        computed on packed-uint64 bitsets — or ``None`` when the array
        kernel is off and the caller should run the set-based loop.

        Mirrors the python loop movement for movement: one netset
        hit/miss per root in order, with the same early exit as soon as
        the running intersection empties (later roots never counted).
        """
        if self.kernel != "array" or not roots:
            return None
        table = self._ensure_table()
        index_get = table.index.get
        ids = [index_get(net) for net in roots]
        if any(i is None for i in ids):
            return None
        if self._cone_bitsets is None:
            self._cone_bitsets = kernels.ConeBitsets(table)
        bitsets = self._cone_bitsets
        stats = self.stats
        common = None
        for net_id in ids:
            row = bitsets.cached_row(net_id, levels)
            if row is None:
                stats.netset_misses += 1
                row = bitsets.row(net_id, levels)
            else:
                stats.netset_hits += 1
            if common is None:
                common = row.copy()
            else:
                common &= row
                if not common.any():
                    return set()
        return kernels.decode_bitset_row(table, common)

    # ------------------------------------------------------------------
    # incremental re-hash after reduction
    # ------------------------------------------------------------------
    def support(self, net: str, levels: int) -> frozenset:
        """Nets whose constant assignment can change ``(net, levels)``'s key.

        A gate's shape changes when its output is assigned (gate removed),
        when an input is assigned (input dropped / cell rewritten), or when
        a subtree below it changes — so the support is the net itself, the
        driver's inputs, and the children's supports.  Cone leaves have
        empty support: their key is ``$`` before and after any reduction.
        """
        memo_key = (net, levels)
        cached = self._supports.get(memo_key)
        if cached is not None:
            return cached
        driver = self.netlist.driver(net)
        if (
            levels == 0
            or driver is None
            or driver.is_ff
            or net in self.boundary
        ):
            result = _EMPTY_SUPPORT
        else:
            nets = {net}
            nets.update(driver.inputs)
            for child in driver.inputs:
                nets |= self.support(child, levels - 1)
            result = frozenset(nets)
        self._supports[memo_key] = result
        return result

    def signatures_after_reduction(
        self,
        reduced: Netlist,
        values: Mapping[str, int],
        bits: Sequence[str],
    ) -> List[BitSignature]:
        """Signatures of ``bits`` on a netlist reduced under ``values``.

        ``reduced`` must be the result of
        :func:`~repro.core.reduction.reduce_netlist` on this context's
        netlist with ``values`` as the full constant map (seeds plus
        inferred nets).  Subtrees whose support is disjoint from the
        assigned nets reuse their unreduced keys; everything else is
        rehashed against the reduced netlist.  The result is equal to
        running a fresh ``SignatureIndex`` over ``reduced``.
        """
        reduced_boundary = reduced.cone_leaf_nets()
        local_keys: Dict[Tuple[str, int], str] = {}

        dirty = None
        if (
            self.kernel == "array"
            and len(self.netlist) >= kernels.REHASH_MIN_NETS
        ):
            # Vectorized dirty pass: one level-synchronous sweep answers
            # every support/values intersection this assignment needs,
            # instead of materializing per-(net, level) support sets.
            table = self._ensure_table()
            table_index = table.index
            dirty = kernels.dirty_flags(
                table,
                [
                    i
                    for i in (table_index.get(net) for net in values)
                    if i is not None
                ],
                self.depth,
            )

        def changed(net: str, levels: int) -> bool:
            # Assigned nets are conservatively dirty at levels >= 1: a
            # reduced netlist may re-drive them with a TIE cell, which an
            # unreduced key cannot anticipate.
            if levels and net in values:
                return True
            if dirty is not None:
                index = table_index.get(net)
                if index is not None:
                    return dirty[levels][index]
            return not self.support(net, levels).isdisjoint(values)

        def reduced_key(net: str, levels: int) -> str:
            if not changed(net, levels):
                self.stats.reduced_keys_reused += 1
                return self.key(net, levels)
            memo_key = (net, levels)
            cached = local_keys.get(memo_key)
            if cached is not None:
                return cached
            self.stats.reduced_keys_rehashed += 1
            driver = reduced.driver(net)
            if (
                levels == 0
                or driver is None
                or driver.is_ff
                or net in reduced_boundary
            ):
                result = LEAF_TOKEN
            else:
                parts = sorted(
                    reduced_key(child, levels - 1)
                    for child in driver.inputs
                )
                result = f"({''.join(parts)}{driver.cell.name})"
            local_keys[memo_key] = result
            return result

        signatures: List[BitSignature] = []
        for bit in bits:
            if bit not in values and not changed(bit, self.depth):
                signatures.append(self.signature(bit))
                continue
            driver = reduced.driver(bit)
            if driver is None or driver.is_ff or bit in reduced_boundary:
                signatures.append(BitSignature(bit, None, (), ()))
                continue
            subtrees = tuple(
                Subtree(
                    child,
                    reduced_key(child, self.depth - 1),
                    _reduced_cone_factory(
                        reduced, child, self.depth - 1, reduced_boundary
                    ),
                )
                for child in driver.inputs
            )
            sorted_keys = tuple(sorted(s.key for s in subtrees))
            root_type = f"{driver.cell.name}{len(driver.inputs)}"
            signatures.append(
                BitSignature(bit, root_type, subtrees, sorted_keys)
            )
        return signatures


def _reduced_cone_factory(
    reduced: Netlist, net: str, levels: int, boundary: frozenset
) -> Callable[[], ConeNode]:
    def build() -> ConeNode:
        return extract_cone(reduced, net, levels, stop_nets=boundary)

    return build

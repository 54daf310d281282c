"""Differential tests pinning the array signature kernel to the python path.

The array kernel (``repro.core.kernels``) re-implements the hot analysis
passes — level-table precompute, bulk signatures, cone net-set
intersection, reduction re-hash dirty flags — as vectorized passes over
flat integer arrays.  Its whole correctness contract is *byte identity*:
the array kernel must produce the same result digest (words,
singletons, control assignments, stage counters) as the python kernel
on every input, each pinned through ``AnalysisContext(kernel=...)``.
This suite pins that contract three ways:

1. differentially, on all twelve ITC99 designs;
2. by re-running the ``jobs=N ≡ jobs=1`` and cache-on ≡ cache-off
   determinism oracles under the array kernel;
3. with Hypothesis properties on the kernel's building blocks — the CSR
   table round-trips the driver index, bitset intersection agrees with
   set semantics, dirty flags agree with the memoized ``support()``, and
   level-key views agree with the recursive key path — on randomly
   generated sequential designs (duplicate fanins included, which is
   exactly where the subtree-interning fast path must back off).
"""

from __future__ import annotations

import os

import pytest

pytest.importorskip("numpy")
pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.core import kernels
from repro.core.context import AnalysisContext
from repro.core.pipeline import PipelineConfig, identify_words
from repro.netlist.builder import NetlistBuilder
from repro.store import ArtifactStore, result_digest
from repro.synth.designs import BENCHMARKS

settings.register_profile(
    "tier1", settings(derandomize=True, deadline=None, max_examples=30)
)
settings.register_profile(
    "nightly", settings(derandomize=True, deadline=None, max_examples=250)
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))

#: The big designs cost ~1 s per kernel; everything else is instant.
_DIFFERENTIAL_DESIGNS = sorted(BENCHMARKS)


def _run(netlist, kernel: str, config=None):
    """One analysis pinned to ``kernel`` through the context hook."""
    config = config or PipelineConfig()
    context = AnalysisContext(netlist, config.depth, kernel=kernel)
    return identify_words(netlist, config, context=context)


class TestKernelSwitch:
    def test_auto_prefers_array_when_numpy_imports(self):
        assert kernels.resolve_kernel(None) == "array"
        assert AnalysisContext(BENCHMARKS["b03"]()).kernel == "array"

    def test_explicit_values(self):
        assert kernels.resolve_kernel("python") == "python"
        assert kernels.resolve_kernel("array") == "array"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="cuda"):
            kernels.resolve_kernel("cuda")

    def test_trace_records_the_kernel(self):
        netlist = BENCHMARKS["b03"]()
        arr = identify_words(netlist, PipelineConfig())
        py = _run(netlist, "python")
        assert arr.trace.kernel == "array"
        assert py.trace.kernel == "python"
        assert "kernel" in arr.trace.as_dict()
        # The kernel is provenance, not a result property: it must stay
        # outside the digested counters.
        assert "kernel" not in arr.trace.counter_dict()


class TestDifferential:
    @pytest.mark.parametrize("name", _DIFFERENTIAL_DESIGNS)
    def test_byte_identical_on_itc99(self, name):
        netlist = BENCHMARKS[name]()
        py = _run(netlist, "python")
        arr = _run(netlist, "array")
        assert py.trace.kernel == "python"
        assert arr.trace.kernel == "array"
        assert result_digest(arr) == result_digest(py), (
            f"array kernel diverged from python reference on {name}"
        )
        assert arr.trace.counter_dict() == py.trace.counter_dict()

    def test_jobs_parity_under_array_kernel(self):
        netlist = BENCHMARKS["b12"]()
        serial = _run(netlist, "array", PipelineConfig(jobs=1))
        parallel = _run(netlist, "array", PipelineConfig(jobs=4))
        assert parallel.trace.kernel == "array"
        assert result_digest(parallel) == result_digest(serial)
        assert parallel.trace.counter_dict() == serial.trace.counter_dict()

    def test_cache_parity_under_array_kernel(self, tmp_path):
        netlist = BENCHMARKS["b11"]()
        config = PipelineConfig()
        bare = identify_words(netlist, config)
        assert bare.trace.kernel == "array"
        store = ArtifactStore(str(tmp_path / "store"))
        cold = identify_words(netlist, config, store=store)
        warm = identify_words(netlist, config, store=store)
        assert warm.trace.cache_provenance.get("provenance") == "hit"
        digests = {
            result_digest(bare), result_digest(cold), result_digest(warm)
        }
        assert len(digests) == 1


# ----------------------------------------------------------------------
# property tests over the kernel building blocks
# ----------------------------------------------------------------------

_CELLS = ("inv", "and_", "nand", "or_", "nor", "xor")


@st.composite
def random_designs(draw):
    """Small random sequential netlists: ``(netlist, nets)``.

    Gates draw fanins with replacement, so the same net can feed one gate
    twice — the case where the array kernel's subtree interning must fall
    back to fresh objects.  A sprinkle of flip-flops exercises the cone
    boundary (leafish) classification.
    """
    b = NetlistBuilder("prop")
    nets = list(b.inputs("pa", "pb", "pc", "pd"))
    num_gates = draw(st.integers(min_value=3, max_value=14))
    for _ in range(num_gates):
        kind = draw(st.sampled_from(_CELLS + ("dff", "dff")))
        if kind == "dff":
            nets.append(b.dff(draw(st.sampled_from(nets))))
        elif kind == "inv":
            nets.append(b.inv(draw(st.sampled_from(nets))))
        else:
            width = draw(st.integers(min_value=2, max_value=3))
            fanin = [draw(st.sampled_from(nets)) for _ in range(width)]
            nets.append(getattr(b, kind)(*fanin))
    netlist = b.netlist
    for net in nets[4:]:
        if not netlist.fanouts(net):
            netlist.add_output(net)
    return netlist, nets


class TestCSRProperties:
    @given(random_designs())
    def test_table_round_trips_the_driver_index(self, design):
        netlist, _ = design
        boundary = netlist.cone_leaf_nets()
        table = kernels.NetTable.build(netlist, boundary)
        # The table interns exactly the driver-reachable universe: every
        # driven net plus every gate fanin, each exactly once.  (A primary
        # input no gate consumes stays outside — no analysis pass can
        # reach it, and the kernel's callers all probe via index.get.)
        reachable = {net for net, _ in netlist.drivers()}
        for gate in netlist.gates():
            reachable.update(gate.inputs)
        assert sorted(table.names) == sorted(reachable)
        assert all(table.index[name] == i for i, name in enumerate(table.names))
        # Driven rows reproduce the driving gate, fanin order preserved.
        for net, gate in netlist.drivers():
            i = table.index[net]
            assert table.gate_of[i] is gate
            assert table.cell_names[table.cell_of[i]] == gate.cell.name
            assert [table.names[c] for c in table.children[i]] == list(
                gate.inputs
            )
            assert table.leafish[i] == (gate.is_ff or net in boundary)
        # Undriven nets are childless leaves with no cell.
        for i, name in enumerate(table.names):
            if netlist.driver(name) is None:
                assert table.children[i] == ()
                assert table.leafish[i]
                assert table.cell_of[i] < 0
        # Eligible rows are the precompute worklist, in drivers() order.
        expected = [
            net
            for net, gate in netlist.drivers()
            if not gate.is_ff and net not in boundary
        ]
        assert [table.names[i] for i in table.eligible] == expected
        # The CSR arrays flatten exactly the eligible children rows.
        flat = [c for i in table.eligible for c in table.children[i]]
        assert table.e_indices.tolist() == flat
        counts = [len(table.children[i]) for i in table.eligible]
        indptr = [0]
        for count in counts:
            indptr.append(indptr[-1] + count)
        assert table.e_indptr.tolist() == indptr

    @given(random_designs(), st.integers(min_value=0, max_value=4), st.data())
    def test_bitset_intersection_matches_set_semantics(
        self, design, levels, data
    ):
        netlist, nets = design
        roots = data.draw(
            st.lists(st.sampled_from(nets), min_size=1, max_size=4)
        )
        ctx_array = AnalysisContext(netlist, kernel="array")
        ctx_python = AnalysisContext(netlist, kernel="python")
        common = ctx_array.common_cone_nets(roots, levels)
        indexed = {net for net, _ in netlist.drivers()}
        for gate in netlist.gates():
            indexed.update(gate.inputs)
        if not indexed.issuperset(roots):
            # A primary input no gate consumes is outside the table: the
            # kernel declines and its caller runs the set-based loop.
            assert common is None
            return
        assert common is not None, "every indexed net has a bitset"
        expected = set(ctx_python.cone_nets(roots[0], levels))
        for root in roots[1:]:
            expected &= ctx_python.cone_nets(root, levels)
        assert common == expected

    @given(random_designs(), st.integers(min_value=1, max_value=4), st.data())
    def test_dirty_flags_match_support(self, design, depth, data):
        netlist, nets = design
        values = data.draw(
            st.sets(st.sampled_from(nets), min_size=1, max_size=3)
        )
        ctx = AnalysisContext(netlist, depth, kernel="python")
        table = kernels.NetTable.build(netlist, netlist.cone_leaf_nets())
        # Mirror production: assigned nets outside the table index feed no
        # gate, so they cannot dirty any key and are dropped up front.
        ids = [
            i
            for i in (table.index.get(net) for net in values)
            if i is not None
        ]
        flags = kernels.dirty_flags(table, ids, depth)
        assert len(flags) == depth + 1
        for name in table.names:
            i = table.index[name]
            for level in range(depth + 1):
                expected = not ctx.support(name, level).isdisjoint(values)
                assert flags[level][i] == expected, (
                    f"dirty flag for ({name}, {level}) with {sorted(values)}"
                )

    @given(random_designs())
    def test_level_views_match_recursive_keys(self, design):
        netlist, _ = design
        depth = 4
        ctx_array = AnalysisContext(netlist, depth, kernel="array")
        ctx_python = AnalysisContext(netlist, depth, kernel="python")
        ctx_array.precompute_keys()
        for level in range(1, depth):
            view = ctx_array._level_keys[level]
            assert type(view) is kernels.LevelKeyView
            for name in netlist.nets():
                in_view = view.get(name)
                if in_view is not None:
                    assert in_view == ctx_python.key(name, level)

    @given(random_designs())
    def test_bulk_signatures_match_python_signatures(self, design):
        netlist, _ = design
        candidates = netlist.register_input_nets()
        ctx_array = AnalysisContext(netlist, kernel="array")
        ctx_python = AnalysisContext(netlist, kernel="python")
        ctx_array.precompute_keys()
        bulk = ctx_array.signatures(candidates)
        reference = [ctx_python.signature(net) for net in candidates]
        assert len(bulk) == len(reference)
        for ours, theirs in zip(bulk, reference):
            assert ours.net == theirs.net
            assert ours.root_type == theirs.root_type
            assert ours.sorted_keys == theirs.sorted_keys
            assert [s.root_net for s in ours.subtrees] == [
                s.root_net for s in theirs.subtrees
            ]
            assert [s.key for s in ours.subtrees] == [
                s.key for s in theirs.subtrees
            ]
            # Within one signature the subtree objects must be distinct
            # (Subgroup.finalize maps leftovers by id()).
            assert len({id(s) for s in ours.subtrees}) == len(ours.subtrees)

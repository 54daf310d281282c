"""Tests for the equivalence checker."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist import (
    NetlistBuilder,
    check_equivalence,
)
from repro.synth import Module, Mux, optimize, synthesize, tech_map
from repro.synth.rtl import Const


def sample_netlist():
    b = NetlistBuilder("g")
    a, c, d = b.inputs("a", "c", "d")
    n1 = b.nand(a, c)
    n2 = b.mux(d, n1, a)
    q = b.dff(n2, output="r_reg_0")
    out = b.xor(n2, q)
    b.output(out, name="y")
    return b.build()


class TestEquivalence:
    def test_identical_netlists_equivalent(self):
        nl = sample_netlist()
        result = check_equivalence(nl, nl.copy())
        assert result.equivalent and result.exhaustive

    def test_optimization_is_equivalence_preserving(self):
        m = Module("t")
        a = m.input("a", 4)
        s = m.input("s")
        r = m.register("r", 4)
        r.next = Mux(s, a, Mux(s, a, r.ref()))  # redundant structure
        m.output("o", r.ref() ^ a)
        nl = synthesize(m)
        from repro.synth.lower import lower

        unoptimized = lower(m)
        result = check_equivalence(unoptimized, nl)
        assert result.equivalent, result

    def test_detects_injected_bug(self):
        b1 = NetlistBuilder("t")
        a, c = b1.inputs("a", "c")
        b1.output(b1.and_(a, c), name="y")
        b2 = NetlistBuilder("t")
        a, c = b2.inputs("a", "c")
        b2.output(b2.or_(a, c), name="y")
        result = check_equivalence(b1.build(), b2.build())
        assert not result.equivalent
        assert result.mismatched_net == "po:y"
        assert result.counterexample is not None

    def test_counterexample_actually_distinguishes(self):
        b1 = NetlistBuilder("t")
        a, c = b1.inputs("a", "c")
        b1.output(b1.xor(a, c), name="y")
        b2 = NetlistBuilder("t")
        a, c = b2.inputs("a", "c")
        b2.output(b2.xnor(a, c), name="y")
        result = check_equivalence(b1.build(), b2.build())
        assert result.counterexample  # any vector distinguishes these

    def test_no_shared_observables_raises(self):
        b1 = NetlistBuilder("t")
        a = b1.input("a")
        b1.output(b1.inv(a), name="y1")
        b2 = NetlistBuilder("t")
        a = b2.input("a")
        b2.output(b2.inv(a), name="y2")
        with pytest.raises(ValueError):
            check_equivalence(b1.build(), b2.build())

    def test_random_mode_above_cap(self):
        b = NetlistBuilder("t")
        bits = b.input_word("w", 16)
        out = bits[0]
        for net in bits[1:]:
            out = b.xor(out, net)
        b.output(out, name="y")
        nl = b.build()
        result = check_equivalence(nl, nl.copy(), max_exhaustive_sources=8)
        assert result.equivalent and not result.exhaustive


@given(st.integers(0, 2**31))
@settings(max_examples=10, deadline=None)
def test_synthesis_flow_equivalence_property(seed):
    """lower() vs full synthesize() agree for arbitrary small modules."""
    import random as _random

    rng = _random.Random(seed)
    m = Module("r", reset_input="rst")
    a = m.input("a", 4)
    c = m.input("c", 4)
    r = m.register("r", 4, reset=rng.randrange(16))
    choices = [a, c, a ^ c, a + c, ~a, Mux(a.eq(c), a, c)]
    r.next = rng.choice(choices)
    m.output("o", rng.choice(choices) ^ r.ref())
    from repro.synth.lower import lower

    golden = lower(m)
    revised = synthesize(m)
    assert check_equivalence(golden, revised).equivalent

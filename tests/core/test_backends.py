"""Tests of the pluggable identification-backend registry.

Pins the contracts DESIGN.md §15 promises:

- the registry's contents, resolution errors, and re-registration rules;
- ``PipelineConfig`` spelling — ``backend="base"`` is Base's one
  spelling; ``allow_partial`` is read-only and derived from it;
- dispatch purity — resolving ``"ours"`` through the registry is
  byte-identical to running the staged engine directly;
- fingerprint discipline — backend (name + version) is in the store
  fingerprint, kernel is not, so store keys are disjoint across
  backends and shared across kernels;
- the ``regfeat`` aggregator's output shape (valid partition over the
  candidate FF D nets, deterministic, provenance-stamped);
- kernel parity for ``ours`` on ITC99 designs: the platform default
  and both kernels pinned through the ``AnalysisContext`` hook.
"""

import json

import pytest

from repro.core import backends
from repro.core.backends import (
    BackendSpec,
    UnknownBackendError,
    backend_names,
    register,
    resolve,
)
from repro.core.context import AnalysisContext
from repro.core.kernels import numpy_available, resolve_kernel
from repro.core.pipeline import PipelineConfig, identify_words
from repro.core.stages import AnalysisEngine
from repro.store import ArtifactStore, result_digest
from repro.store.keys import (
    FINGERPRINT_FIELDS,
    cache_key,
    config_fingerprint,
    netlist_digest,
)
from repro.store.serialize import result_from_dict, result_to_dict
from repro.synth.designs import BENCHMARKS

import os as _os
import sys as _sys

_sys.path.insert(0, _os.path.dirname(_os.path.dirname(__file__)))
from fixtures import figure1_netlist  # noqa: E402


@pytest.fixture(scope="module")
def netlist():
    return figure1_netlist()[0]


class TestRegistry:
    def test_builtins_are_registered(self):
        assert backend_names() == ("ours", "base", "regfeat")

    def test_specs_carry_version_and_capabilities(self):
        ours = resolve("ours")
        assert ours.version == "1.0.0"
        assert "control-signals" in ours.capabilities
        base = resolve("base")
        assert "full-matching" in base.capabilities
        regfeat = resolve("regfeat")
        assert "feature-aggregation" in regfeat.capabilities

    def test_unknown_backend_error_lists_registered_names(self):
        with pytest.raises(UnknownBackendError) as excinfo:
            resolve("nope")
        assert excinfo.value.name == "nope"
        assert excinfo.value.known == backend_names()
        message = str(excinfo.value)
        for name in backend_names():
            assert name in message

    def test_unknown_backend_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            resolve("nope")

    def test_resolve_rejects_non_strings(self):
        with pytest.raises(UnknownBackendError):
            resolve(7)
        with pytest.raises(UnknownBackendError):
            resolve(None)

    def test_reregistering_identical_spec_is_idempotent(self):
        spec = resolve("ours")
        register(spec)  # no error
        assert resolve("ours") is spec

    def test_reregistering_different_spec_is_rejected(self):
        ours = resolve("ours")
        clash = BackendSpec(
            name="ours",
            version="9.9.9",
            description="impostor",
            capabilities=ours.capabilities,
            fingerprint_fields=ours.fingerprint_fields,
            runner=ours.runner,
        )
        with pytest.raises(ValueError, match="already registered"):
            register(clash)
        assert resolve("ours") is ours


class TestConfigNormalization:
    def test_base_and_allow_partial_false_are_one_config(self):
        """``allow_partial`` is derived from ``backend``, never set: Base
        has exactly one spelling."""
        with pytest.raises(TypeError):
            PipelineConfig(allow_partial=False)
        config = PipelineConfig(backend="base")
        with pytest.raises(AttributeError):
            config.allow_partial = True
        assert not config.allow_partial

    def test_backend_base_forces_allow_partial_off(self):
        assert not PipelineConfig(backend="base").allow_partial
        assert PipelineConfig(backend="ours").allow_partial
        assert PipelineConfig(backend="regfeat").allow_partial

    def test_unknown_backend_raises_value_error(self):
        with pytest.raises(ValueError, match="registered backends"):
            PipelineConfig(backend="nope")

    def test_unknown_kernel_raises_value_error(self, netlist):
        with pytest.raises(ValueError, match="unknown kernel"):
            AnalysisContext(netlist, kernel="cuda")

    def test_valid_kernels_accepted(self, netlist):
        assert AnalysisContext(netlist).kernel == resolve_kernel(None)
        assert AnalysisContext(netlist, kernel="python").kernel == "python"
        assert AnalysisContext(netlist, kernel="array").kernel == (
            "array" if numpy_available() else "python"
        )


class TestDispatchParity:
    def test_registry_ours_is_byte_identical_to_direct_engine(self, netlist):
        config = PipelineConfig()
        via_registry = identify_words(netlist, config)
        direct = AnalysisEngine(config).run(netlist)
        assert result_digest(via_registry) == result_digest(direct)
        assert (
            via_registry.trace.counter_dict() == direct.trace.counter_dict()
        )

    def test_trace_backend_stamped_per_backend(self, netlist):
        for name in backend_names():
            result = identify_words(netlist, PipelineConfig(backend=name))
            assert result.trace.backend == name

    def test_trace_backend_survives_serialization(self, netlist):
        result = identify_words(netlist, PipelineConfig(backend="regfeat"))
        restored = result_from_dict(result_to_dict(result))
        assert restored.trace.backend == "regfeat"

    def test_backend_outside_counter_dict(self, netlist):
        """Provenance must not leak into the digest-bearing counters."""
        result = identify_words(netlist, PipelineConfig())
        assert "backend" not in result.trace.counter_dict()


class TestRegfeat:
    def test_valid_partition_over_candidate_nets(self, netlist):
        result = identify_words(netlist, PipelineConfig(backend="regfeat"))
        candidates = {ff.inputs[0] for ff in netlist.flip_flops()}
        seen = set()
        for word in result.all_generated_words():
            for bit in word.bits:
                assert bit not in seen, f"{bit} emitted twice"
                seen.add(bit)
                assert netlist.has_net(bit)
        assert seen == candidates

    def test_deterministic(self, netlist):
        config = PipelineConfig(backend="regfeat")
        first = identify_words(netlist, config)
        second = identify_words(netlist, config)
        assert result_digest(first) == result_digest(second)

    def test_counters_populated(self, netlist):
        result = identify_words(netlist, PipelineConfig(backend="regfeat"))
        counters = result.trace.counter_dict()
        assert counters["num_candidate_nets"] > 0
        assert counters["num_groups"] > 0
        assert set(result.trace.stage_seconds) == {
            "features", "pairing", "emission",
        }


class TestFingerprintDiscipline:
    def test_backend_is_a_fingerprint_field(self):
        assert "backend" in FINGERPRINT_FIELDS
        assert "kernel" not in FINGERPRINT_FIELDS

    def test_fingerprints_differ_across_backends(self):
        prints = {
            name: config_fingerprint(PipelineConfig(backend=name))
            for name in backend_names()
        }
        assert len(set(prints.values())) == len(prints)

    def test_backend_version_joins_the_fingerprint(self):
        fields = json.loads(config_fingerprint(PipelineConfig()))
        assert fields["backend"] == "ours"
        assert fields["backend_version"] == resolve("ours").version

    def test_kernel_is_fingerprint_neutral(self, netlist, tmp_path):
        """A python-kernel run hits the entry a default run committed."""
        store = ArtifactStore(str(tmp_path / "store"))
        config = PipelineConfig()
        identify_words(netlist, config, store=store)
        context = AnalysisContext(netlist, config.depth, kernel="python")
        cached = identify_words(netlist, config, context=context, store=store)
        assert cached.trace.cache_provenance.get("provenance") == "hit"

    def test_store_keys_disjoint_across_backends(self, netlist, tmp_path):
        """One design, three backends, three distinct store entries."""
        store = ArtifactStore(str(tmp_path / "store"))
        digest = netlist_digest(netlist)
        keys = {}
        for name in backend_names():
            config = PipelineConfig(backend=name)
            identify_words(netlist, config, store=store)
            keys[name] = cache_key(digest, config)
        assert len(set(keys.values())) == len(keys)
        # and each backend's probe answers with its own words
        for name in backend_names():
            config = PipelineConfig(backend=name)
            cached = store.probe(netlist, config)
            assert cached is not None
            assert cached.trace.backend == name


#: Three small-but-real ITC99 designs for the matrix sweep.
_MATRIX_DESIGNS = ("b03", "b04", "b13")


class TestBackendKernelMatrix:
    """``ours`` must be byte-identical under every kernel."""

    @pytest.mark.parametrize("design", _MATRIX_DESIGNS)
    def test_ours_parity_across_kernel_selection(self, design):
        if not numpy_available():
            pytest.skip("array kernel needs numpy")
        netlist = BENCHMARKS[design]()
        config = PipelineConfig()
        default = identify_words(netlist, config)
        assert default.trace.kernel == "array"
        digests = {"default": result_digest(default)}
        for kernel in ("python", "array"):
            context = AnalysisContext(netlist, config.depth, kernel=kernel)
            result = identify_words(netlist, config, context=context)
            assert result.trace.kernel == kernel
            digests[kernel] = result_digest(result)
        assert len(set(digests.values())) == 1, digests

    def test_context_kernel_beats_platform_default(self):
        netlist = BENCHMARKS["b03"]()
        context = AnalysisContext(netlist, kernel="python")
        result = identify_words(netlist, PipelineConfig(), context=context)
        assert result.trace.kernel == "python"

    def test_resolve_kernel_contract(self):
        assert resolve_kernel("python") == "python"
        platform = "array" if numpy_available() else "python"
        assert resolve_kernel(None) == platform
        assert resolve_kernel("array") == platform
        with pytest.raises(ValueError, match="unknown kernel"):
            resolve_kernel("auto")

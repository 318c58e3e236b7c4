"""Unit and property tests for repro.workload.derived."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.workload.derived import (
    ReferenceMix,
    ReplacementWeighting,
    derive_inputs,
)
from repro.workload.parameters import (
    ArchitectureParams,
    SharingLevel,
    WorkloadParameters,
    appendix_a_workload,
)


def workloads() -> st.SearchStrategy[WorkloadParameters]:
    """Random valid workloads (stream mix normalized)."""
    prob = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

    @st.composite
    def build(draw):
        a, b, c = draw(st.tuples(
            st.floats(min_value=1e-3, max_value=1.0),
            st.floats(min_value=0.0, max_value=1.0),
            st.floats(min_value=0.0, max_value=1.0),
        ))
        total = a + b + c
        return WorkloadParameters(
            tau=draw(st.floats(min_value=0.0, max_value=50.0)),
            p_private=a / total, p_sro=b / total, p_sw=c / total,
            h_private=draw(prob), h_sro=draw(prob), h_sw=draw(prob),
            r_private=draw(prob), r_sw=draw(prob),
            amod_private=draw(prob), amod_sw=draw(prob),
            csupply_sro=draw(prob), csupply_sw=draw(prob),
            wb_csupply=draw(prob), rep_p=draw(prob), rep_sw=draw(prob),
        )

    return build()


MOD_SETS = st.sets(st.integers(min_value=1, max_value=4), max_size=4)

_RATES = ("h_private", "h_sro", "h_sw", "r_private", "r_sw",
          "amod_private", "amod_sw", "csupply_sro", "csupply_sw",
          "wb_csupply", "rep_p", "rep_sw")


def _edge_workload(a, b, c, **rates):
    """A mix normalized as ``workloads()`` draws it; unnamed rates 0."""
    total = a + b + c
    return WorkloadParameters(
        tau=0.0, p_private=a / total, p_sro=b / total, p_sw=c / total,
        **{**dict.fromkeys(_RATES, 0.0), **rates})


class TestReferenceMix:
    def test_classes_sum_to_one(self, workload_5pct):
        mix = ReferenceMix.from_workload(workload_5pct)
        assert math.isclose(mix.total, 1.0, abs_tol=1e-12)

    @given(workloads())
    @settings(max_examples=50)
    def test_classes_sum_to_one_property(self, w):
        assert math.isclose(ReferenceMix.from_workload(w).total, 1.0, abs_tol=1e-9)

    @given(workloads(), MOD_SETS)
    @settings(max_examples=100)
    def test_routing_partitions_unity(self, w, mods):
        mix = ReferenceMix.from_workload(w)
        total = mix.p_local(mods) + mix.p_broadcast(mods) + mix.p_remote_read(mods)
        assert math.isclose(total, 1.0, abs_tol=1e-9)

    def test_known_values_5pct(self, workload_5pct):
        mix = ReferenceMix.from_workload(workload_5pct)
        # Hand-computed from Appendix A at 5 % sharing.
        assert math.isclose(mix.prm, 0.95 * 0.7 * 0.05)
        assert math.isclose(mix.pwh_unmod, 0.95 * 0.3 * 0.95 * 0.3)
        assert math.isclose(mix.swm, 0.02 * 0.5 * 0.5)
        assert math.isclose(mix.p_remote_read(()), 0.059)
        assert math.isclose(mix.p_broadcast(()), 0.084725)

    def test_mod1_moves_private_write_hits_to_local(self, workload_5pct):
        """Section 3.3: 'the calculation of p_broadcast no longer includes
        a term for write hits to private blocks. This term is instead
        added to p_local.'"""
        mix = ReferenceMix.from_workload(workload_5pct)
        delta_bc = mix.p_broadcast(()) - mix.p_broadcast({1})
        delta_local = mix.p_local({1}) - mix.p_local(())
        assert math.isclose(delta_bc, mix.pwh_unmod)
        assert math.isclose(delta_local, mix.pwh_unmod)

    def test_mod4_broadcasts_all_sw_write_hits(self, workload_5pct):
        mix = ReferenceMix.from_workload(workload_5pct)
        assert math.isclose(
            mix.p_broadcast({4}) - mix.p_broadcast(()), mix.swh_mod)

    def test_sw_broadcast_excludes_private(self, workload_5pct):
        mix = ReferenceMix.from_workload(workload_5pct)
        assert math.isclose(mix.sw_broadcast(()), mix.swh_unmod)
        assert mix.sw_broadcast(()) < mix.p_broadcast(())

    def test_invalid_mod_rejected(self, workload_5pct):
        mix = ReferenceMix.from_workload(workload_5pct)
        with pytest.raises(ValueError, match="subset"):
            mix.p_local({5})

    def test_one_percent_sharing_has_no_sw_traffic(self, workload_1pct):
        mix = ReferenceMix.from_workload(workload_1pct)
        assert mix.sw_miss == 0.0
        assert mix.sw_broadcast(()) == 0.0


class TestDerivedInputs:
    def test_routing_matches_mix(self, workload_5pct):
        inputs = derive_inputs(workload_5pct)
        mix = ReferenceMix.from_workload(workload_5pct)
        assert inputs.p_local == mix.p_local(frozenset())
        assert inputs.p_bc == mix.p_broadcast(frozenset())
        assert inputs.p_rr == mix.p_remote_read(frozenset())

    def test_t_read_write_once_decomposition(self, workload_5pct):
        inputs = derive_inputs(workload_5pct)
        arch = ArchitectureParams()
        expected = (arch.base_read_cycles
                    + inputs.p_csupwb_rr * 4.0
                    + inputs.p_reqwb_rr * 4.0)
        assert math.isclose(inputs.t_read, expected)
        assert inputs.t_read > arch.base_read_cycles

    def test_reqwb_reference_mix_weighting(self, workload_5pct):
        inputs = derive_inputs(workload_5pct)
        expected = 0.2 * 0.95 + 0.5 * 0.02
        assert math.isclose(inputs.p_reqwb_rr, expected)

    def test_reqwb_miss_class_weighting_differs(self, workload_5pct):
        ref = derive_inputs(workload_5pct)
        alt = derive_inputs(
            workload_5pct,
            replacement_weighting=ReplacementWeighting.MISS_CLASS)
        assert not math.isclose(ref.p_reqwb_rr, alt.p_reqwb_rr)
        # sw misses are over-represented relative to the reference mix
        # (h_sw = 0.5 << h_private), so the miss-class weighting is larger.
        assert alt.p_reqwb_rr > ref.p_reqwb_rr

    def test_mod2_removes_supplier_writeback(self, workload_5pct):
        base = derive_inputs(workload_5pct)
        mod2 = derive_inputs(workload_5pct, mods={2})
        assert base.p_csupwb_rr > 0.0
        assert mod2.p_csupwb_rr == 0.0
        # Cache-to-cache supply is faster than flush-then-memory-read.
        assert mod2.t_read < base.t_read

    def test_mod3_stops_memory_updates_on_broadcast(self, workload_5pct):
        base = derive_inputs(workload_5pct)
        mod3 = derive_inputs(workload_5pct, mods={3})
        assert base.bc_updates_memory
        assert not mod3.bc_updates_memory
        assert mod3.memory_ops_per_request() < base.memory_ops_per_request()

    def test_mod3_uses_invalidate_cycles(self, workload_5pct):
        arch = ArchitectureParams(write_word_cycles=2.0, invalidate_cycles=1.0)
        base = derive_inputs(workload_5pct, arch)
        mod3 = derive_inputs(workload_5pct, arch, mods={3})
        assert base.t_bc == 2.0
        assert mod3.t_bc == 1.0

    def test_memory_ops_components(self, workload_5pct):
        inputs = derive_inputs(workload_5pct)
        expected = inputs.p_bc + inputs.p_rr * (
            inputs.p_csupwb_rr + inputs.p_reqwb_rr)
        assert math.isclose(inputs.memory_ops_per_request(), expected)

    @given(workloads(), MOD_SETS)
    # Unclamped, each rounds to 1.0000000000000002: p_rr (a Hypothesis
    # find: p_private=0.999000999..., p_sro=0.000999000...), p_local
    # and p_csupwb_rr.
    @example(_edge_workload(1.0, 0.001, 0.0), set())
    @example(_edge_workload(1.0, 0.001, 0.0, h_private=1.0, h_sro=1.0,
                            r_private=1.0, r_sw=1.0), set())
    @example(_edge_workload(1.0, 1.0, 0.3, h_private=1.0, r_sw=0.5,
                            amod_private=0.5, amod_sw=0.5,
                            csupply_sro=1.0, csupply_sw=1.0,
                            wb_csupply=1.0, rep_p=1.0, rep_sw=1.0), set())
    @settings(max_examples=100)
    def test_derived_quantities_in_range(self, w, mods):
        inputs = derive_inputs(w, mods=mods)
        assert 0.0 <= inputs.p_local <= 1.0
        assert 0.0 <= inputs.p_bc <= 1.0
        assert 0.0 <= inputs.p_rr <= 1.0
        assert math.isclose(inputs.p_local + inputs.p_bc + inputs.p_rr, 1.0,
                            abs_tol=1e-9)
        assert inputs.t_read >= 0.0
        assert 0.0 <= inputs.p_csupwb_rr <= 1.0
        assert 0.0 <= inputs.p_reqwb_rr <= 1.0
        assert inputs.memory_ops_per_request() >= 0.0


class TestCacheInterference:
    def test_single_processor_has_no_interference(self, workload_5pct):
        ci = derive_inputs(workload_5pct).cache_interference(1)
        assert ci.p == ci.p_prime == 0.0
        assert ci.n_interference(5.0) == 0.0

    def test_p_prime_never_exceeds_p(self, workload_5pct):
        for n in (2, 4, 10, 100):
            ci = derive_inputs(workload_5pct).cache_interference(n)
            assert 0.0 <= ci.p_prime <= ci.p <= 1.0

    @given(workloads(), MOD_SETS, st.integers(min_value=2, max_value=64))
    @settings(max_examples=100)
    def test_interference_probabilities_valid(self, w, mods, n):
        ci = derive_inputs(w, mods=mods).cache_interference(n)
        assert 0.0 <= ci.p_prime <= ci.p <= 1.0
        assert ci.t_interference >= 1.0

    def test_n_interference_closed_form(self, workload_5pct):
        """Equation 13 equals its geometric-series definition."""
        ci = derive_inputs(workload_5pct).cache_interference(8)
        q = 3.0
        expected = ci.p * (1.0 - ci.p_prime ** q) / (1.0 - ci.p_prime)
        assert math.isclose(ci.n_interference(q), expected)

    def test_n_interference_monotone_in_queue(self, workload_5pct):
        ci = derive_inputs(workload_5pct).cache_interference(8)
        values = [ci.n_interference(q) for q in (0.0, 0.5, 1.0, 2.0, 5.0)]
        assert values == sorted(values)
        assert values[0] == 0.0

    def test_interference_grows_with_sharing(self):
        """More shared traffic -> more snoop work for other caches."""
        p_by_level = []
        for level in SharingLevel:
            inputs = derive_inputs(appendix_a_workload(level))
            p_by_level.append(inputs.cache_interference(10).p)
        assert p_by_level[0] < p_by_level[1] < p_by_level[2]

    def test_mod2_shrinks_interference_time(self, workload_5pct):
        """Section 3.3: modification 2 drops the cache-supply write-back
        term from t_interference."""
        base = derive_inputs(workload_5pct).cache_interference(10)
        mod2 = derive_inputs(workload_5pct, mods={2}).cache_interference(10)
        assert mod2.t_interference < base.t_interference

    def test_no_bus_ops_means_no_interference(self):
        w = WorkloadParameters(
            p_private=1.0, p_sro=0.0, p_sw=0.0,
            h_private=1.0, r_private=1.0)
        ci = derive_inputs(w).cache_interference(10)
        assert ci.p == 0.0

"""Integration tests: run_system across designs and benchmarks."""

import pytest

from repro.sim.system import System, run_system
from repro.workloads.synthetic import TraceSpec, generate_trace
from tests.call_counts import repro_calls_per_reference

SMALL = dict(n_refs=3_000, warmup_fraction=0.3)


class TestRunSystem:
    def test_returns_all_metrics(self):
        result = run_system("TLC", "perl", **SMALL)
        assert result.design == "TLC"
        assert result.benchmark == "perl"
        assert result.cycles > 0
        assert result.instructions > 0
        assert result.l2_requests > 0
        assert result.l2_hits + result.l2_misses == result.l2_requests
        assert 0 <= result.link_utilization <= 1
        assert result.network_power_w > 0

    def test_deterministic(self):
        a = run_system("TLC", "bzip", seed=11, **SMALL)
        b = run_system("TLC", "bzip", seed=11, **SMALL)
        assert a.cycles == b.cycles
        assert a.stats == b.stats

    def test_seed_changes_outcome(self):
        a = run_system("TLC", "bzip", seed=1, **SMALL)
        b = run_system("TLC", "bzip", seed=2, **SMALL)
        assert a.cycles != b.cycles

    @pytest.mark.parametrize("design", [
        "TLC", "TLCopt1000", "TLCopt500", "TLCopt350", "SNUCA2", "DNUCA"])
    def test_every_design_runs(self, design):
        result = run_system(design, "perl", n_refs=1_500)
        assert result.cycles > 0

    @pytest.mark.parametrize("design", ["TLC", "DNUCA"])
    def test_streaming_benchmark_runs(self, design):
        result = run_system(design, "lucas", n_refs=1_500)
        assert result.miss_ratio > 0.5

    def test_shared_trace_reuse(self):
        spec = TraceSpec(mean_gap=30.0, hot_blocks=500)
        trace = generate_trace(spec, 2_000, seed=5)
        a = run_system("TLC", "custom", trace=trace)
        b = run_system("SNUCA2", "custom", trace=trace)
        assert a.l2_requests == b.l2_requests

    def test_design_overrides(self):
        result = run_system("TLC", "perl", replacement="lip", **SMALL)
        assert result.cycles > 0

    def test_prewarm_spec_warms_custom_traces(self):
        spec = TraceSpec(mean_gap=30.0, hot_blocks=2_000)
        trace = generate_trace(spec, 3_000, seed=4)
        cold = run_system("TLC", "custom", trace=trace)
        warm = run_system("TLC", "custom", trace=trace, prewarm_spec=spec)
        assert warm.l2_misses < cold.l2_misses

    @pytest.mark.parametrize("fraction", [1.0, 1.5, -0.1, float("nan"),
                                          float("inf")])
    def test_out_of_range_warmup_fraction_rejected(self, fraction):
        # At or beyond 1, or below 0, the warm-up boundary is never
        # reached and the whole trace would be measured.
        with pytest.raises(ValueError, match=r"warmup_fraction must be a "
                           r"finite number in \[0, 1\)"):
            run_system("TLC", "perl", n_refs=200, warmup_fraction=fraction)

    def test_explicit_warmup_refs_ignores_fraction(self):
        # Bundle replay passes an exact boundary; the fraction is unused.
        result = run_system("TLC", "perl", n_refs=200, warmup_fraction=1.5,
                            warmup_refs=60)
        assert result == run_system("TLC", "perl", n_refs=200,
                                    warmup_refs=60)
        assert result.l2_requests == 140

    def test_derived_metrics(self):
        result = run_system("TLC", "swim", **SMALL)
        assert result.miss_ratio == pytest.approx(
            result.l2_misses / result.l2_requests)
        assert result.misses_per_kinstr == pytest.approx(
            1000 * result.l2_misses / result.instructions)
        assert result.ipc == pytest.approx(result.instructions / result.cycles)


class TestSystemClass:
    def test_memory_shared_with_design(self):
        system = System("TLC")
        assert system.l2.memory is system.memory

    def test_run_uses_warmup(self):
        spec = TraceSpec(mean_gap=30.0, hot_blocks=200)
        trace = generate_trace(spec, 1_000, seed=0)
        system = System("TLC")
        result = system.run(trace, warmup_refs=500)
        assert result.l2_requests == 500  # only measured half


class TestCrossDesignInvariants:
    def test_statically_mapped_designs_agree_on_misses(self):
        """TLC and SNUCA2 are both 4-way LRU with the same capacity, so
        an identical trace produces identical hit/miss behaviour."""
        spec = TraceSpec(mean_gap=25.0, hot_blocks=3_000, cold_fraction=0.1)
        trace = generate_trace(spec, 4_000, seed=9)
        tlc = run_system("TLC", "custom", trace=trace)
        snuca = run_system("SNUCA2", "custom", trace=trace)
        assert tlc.l2_misses == snuca.l2_misses

    def test_tlc_always_single_bank(self):
        result = run_system("TLC", "apache", **SMALL)
        assert result.banks_accessed_per_request == 1.0

    def test_dnuca_at_least_two_banks(self):
        result = run_system("DNUCA", "apache", **SMALL)
        assert result.banks_accessed_per_request >= 2.0

    def test_tlc_lookup_latency_stays_in_table2_range(self):
        """The headline claim: all TLC storage reachable in 10-16 cycles
        (plus contention, so the mean stays in a narrow band)."""
        for benchmark in ("perl", "lucas"):
            result = run_system("TLC", benchmark, **SMALL)
            assert 10 <= result.mean_lookup_latency <= 18

    def test_tlc_more_predictable_than_dnuca(self):
        for benchmark in ("gcc",):
            tlc = run_system("TLC", benchmark, **SMALL)
            dnuca = run_system("DNUCA", benchmark, **SMALL)
            assert (tlc.predictable_lookup_fraction
                    > dnuca.predictable_lookup_fraction)


@pytest.mark.parametrize("design, workload, ceiling", [
    ("TLC", "perl", 12.5),
    ("TLCopt500", "perl", 12.5),
    ("SNUCA2", "perl", 8.5),
    ("DNUCA", "perl", 14.5),
    ("DNUCA", "mcf", 28.0),
])
def test_calls_per_reference_stay_under_a_ceiling(design, workload, ceiling):
    """Counters, latency bins and bank slots are updated in place on the
    access path, and the replay loop unpacks each reference once, so a
    reference makes few calls into the program.  Call counts are
    deterministic, unlike timings on a shared host."""
    assert repro_calls_per_reference(design, workload) <= ceiling

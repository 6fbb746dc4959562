"""Tests for the parameter-sensitivity sweeps."""

import pytest

from repro.analysis.sweeps import (
    dependence_sweep,
    frequency_sweep,
    memory_latency_sweep,
)


class TestMemoryLatencySweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return memory_latency_sweep(benchmark="gcc",
                                    latencies=(100, 300, 900),
                                    n_refs=4_000)

    def test_shape(self, sweep):
        assert [latency for latency, _ in sweep] == [100, 300, 900]
        for _, row in sweep:
            assert set(row) == {"SNUCA2", "TLC"}

    def test_slower_memory_slower_execution(self, sweep):
        for design in ("SNUCA2", "TLC"):
            cycles = [row[design] for _, row in sweep]
            assert cycles == sorted(cycles)

    def test_tlc_advantage_grows_with_faster_memory(self, sweep):
        """With fast memory, L2 lookup latency dominates the stall
        budget, so TLC's flat 13 cycles matter more."""
        ratios = [row["TLC"] / row["SNUCA2"] for _, row in sweep]
        assert ratios[0] < ratios[-1] + 0.02
        assert all(r < 1.0 for r in ratios)


class TestFrequencySweep:
    def test_bank_cycles_scale_with_frequency(self):
        rows = frequency_sweep(frequencies_ghz=(5.0, 10.0, 20.0))
        bank_cycles = [row[1] for row in rows]
        assert bank_cycles[0] < bank_cycles[1] < bank_cycles[2]

    def test_paper_design_point(self):
        rows = frequency_sweep(frequencies_ghz=(10.0,))
        ghz, bank_cycles, line_cycles, usable = rows[0]
        assert bank_cycles == 8
        assert line_cycles == 1
        assert usable

    def test_line_stays_single_cycle_at_slower_clocks(self):
        rows = frequency_sweep(frequencies_ghz=(2.5, 5.0))
        for _, _, line_cycles, usable in rows:
            assert line_cycles == 1
            assert usable

    def test_line_needs_more_cycles_at_extreme_clocks(self):
        rows = frequency_sweep(frequencies_ghz=(40.0,))
        _, _, line_cycles, _ = rows[0]
        assert line_cycles >= 2  # 25 ps cycle < 77 ps flight


class TestSweepRunnerIntegration:
    def test_memory_sweep_parallel_matches_serial(self):
        kwargs = dict(benchmark="gcc", latencies=(150, 600),
                      designs=("SNUCA2",), n_refs=2_000)
        assert (memory_latency_sweep(workers=1, **kwargs)
                == memory_latency_sweep(workers=2, **kwargs))

    def test_dependence_sweep_cached_rerun_matches(self, tmp_path):
        from repro.analysis.runner import ResultCache

        kwargs = dict(fractions=(0.0, 0.8), designs=("TLC",), n_refs=2_000)
        cold = dependence_sweep(cache=ResultCache(tmp_path), **kwargs)
        warm_cache = ResultCache(tmp_path)
        warm = dependence_sweep(cache=warm_cache, **kwargs)
        assert warm == cold
        assert warm_cache.hits == 2 and warm_cache.stores == 0


class TestWarmupFractionThreading:
    """Regression: the sweeps ignored ``warmup_fraction`` — every cell
    silently ran at the CellSpec default regardless of the argument."""

    def test_dependence_sweep_threads_warmup_into_cells(self, tmp_path):
        from repro.analysis.runner import ResultCache

        kwargs = dict(fractions=(0.5,), designs=("TLC",), n_refs=1_500)
        cache = ResultCache(tmp_path)
        dependence_sweep(warmup_fraction=0.3, cache=cache, **kwargs)
        assert cache.stores == 1
        dependence_sweep(warmup_fraction=0.0, cache=cache, **kwargs)
        # A different warmup is a different cell: no hit, a second store.
        assert cache.stores == 2 and cache.hits == 0

    def test_memory_sweep_threads_warmup_into_cells(self, tmp_path):
        from repro.analysis.runner import ResultCache

        kwargs = dict(benchmark="gcc", latencies=(300,), designs=("TLC",),
                      n_refs=1_500)
        cache = ResultCache(tmp_path)
        memory_latency_sweep(warmup_fraction=0.3, cache=cache, **kwargs)
        memory_latency_sweep(warmup_fraction=0.1, cache=cache, **kwargs)
        assert cache.stores == 2 and cache.hits == 0


class TestDependenceSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return dependence_sweep(fractions=(0.0, 0.8), n_refs=4_000)

    def test_dependence_slows_everything(self, sweep):
        for design in ("SNUCA2", "TLC"):
            assert sweep[1][1][design] > sweep[0][1][design]

    def test_gap_widens_with_dependence(self, sweep):
        """Pointer chases expose the full lookup-latency difference."""
        gap_low = sweep[0][1]["SNUCA2"] / sweep[0][1]["TLC"]
        gap_high = sweep[1][1]["SNUCA2"] / sweep[1][1]["TLC"]
        assert gap_high > gap_low

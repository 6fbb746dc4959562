"""Tests for the shared L2Design bookkeeping layer."""

import pytest

from repro.core.base import L2Design, L2Outcome
from repro.core.config import build_design, design_names
from repro.sim.memory import MainMemory


class StubNetwork:
    """A network that carries no traffic; tests set its energy directly."""

    def __init__(self):
        self.energy = 0.0

    def energy_j(self):
        return self.energy

    def reset_counters(self):
        self.energy = 0.0


class MinimalDesign(L2Design):
    """Smallest concrete design: everything hits in 10 cycles."""

    name = "minimal"

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.network = StubNetwork()

    def access(self, addr, time, write=False):
        outcome = L2Outcome(time + 10, True, 10, True, write)
        self._record(outcome, banks_accessed=1)
        return outcome

    def bulk_install(self, addrs):
        pass


class TestRecording:
    def test_reads_and_writes_partitioned(self):
        design = MinimalDesign()
        design.access(0, 0)
        design.access(64, 10, write=True)
        assert design.stats["reads"] == 1
        assert design.stats["writes"] == 1
        assert design.stats["requests"] == 2

    def test_histogram_only_counts_read_hits(self):
        design = MinimalDesign()
        design.access(0, 0)
        design.access(64, 10, write=True)
        assert design.lookup_latencies.count == 1
        assert design.mean_lookup_latency == 10.0

    def test_predictable_fraction_over_reads(self):
        design = MinimalDesign()
        for i in range(4):
            design.access(i * 64, i * 10)
        design.access(999 * 64, 100, write=True)
        assert design.predictable_lookup_fraction == 1.0

    def test_banks_accessed_average(self):
        design = MinimalDesign()
        design._record(L2Outcome(1, True, 1, True), banks_accessed=3)
        design._record(L2Outcome(2, True, 1, True), banks_accessed=1)
        assert design.banks_accessed_per_request == 2.0

    def test_miss_ratio_empty(self):
        assert MinimalDesign().miss_ratio == 0.0


class TestEnergyAndPower:
    def test_power_zero_without_energy(self):
        assert MinimalDesign().network_power_w(1000) == 0.0

    def test_power_from_accumulated_energy(self):
        design = MinimalDesign()
        design.network.energy = 1e-9  # 1 nJ
        # 1000 cycles at 10 GHz = 100 ns -> 10 mW.
        assert design.network_power_w(1000) == pytest.approx(0.010)

    def test_power_zero_elapsed(self):
        design = MinimalDesign()
        design.network.energy = 1.0
        assert design.network_power_w(0) == 0.0


class TestReset:
    def test_reset_clears_measurements(self):
        design = MinimalDesign()
        design.access(0, 0)
        design.network.energy = 5.0
        design.memory.read(0)
        design.reset_stats()
        assert design.stats["requests"] == 0
        assert design.lookup_latencies.count == 0
        assert design.network_energy_j() == 0.0
        assert design.memory.stats["reads"] == 0

    def test_default_memory_created(self):
        assert isinstance(MinimalDesign().memory, MainMemory)

    def test_shared_memory_respected(self):
        memory = MainMemory(latency_cycles=123)
        assert MinimalDesign(memory=memory).memory is memory


class TestWarmupResetPerDesign:
    """The warm-up reset runs through the shared base for every design:
    it zeroes the network's counters and energy but keeps bank and link
    busy state, so queued traffic still delays the next request."""

    ADDR = 0x12340

    @pytest.mark.parametrize("name", design_names())
    def test_reset_zeroes_counters_and_keeps_busy_state(self, name):
        fresh = build_design(name)
        fresh.install(self.ADDR)
        uncontended = fresh.access(self.ADDR, 0)

        design = build_design(name)
        design.install(self.ADDR)
        for _ in range(4):
            design.access(self.ADDR, 0)
        design.reset_stats()
        assert design.network_energy_j() == 0.0
        assert design.link_utilization(1000) == 0.0
        assert design.stats["requests"] == 0

        queued = design.access(self.ADDR, 0)
        assert queued.hit
        assert queued.lookup_latency > uncontended.lookup_latency
        assert design.network_energy_j() > 0

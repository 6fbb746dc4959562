"""Tests for the SNUCA2 baseline."""

import pytest

from repro.nuca.snuca import StaticNUCA
from repro.sim.memory import MainMemory


def make():
    return StaticNUCA(memory=MainMemory())


def addr_for_bank(design, bank, set_index=0, tag=1):
    return design.addr_map.rebuild(tag, set_index, bank)


class TestGeometry:
    def test_32_banks_on_8x4_grid(self):
        design = make()
        assert len(design.banks) == 32
        columns = {design._grid(b)[0] for b in range(32)}
        positions = {design._grid(b)[1] for b in range(32)}
        assert columns == set(range(8))
        assert positions == set(range(4))

    def test_uncontended_range_spans_table2(self):
        design = make()
        latencies = {design.uncontended_latency(addr_for_bank(design, b))
                     for b in range(32)}
        assert min(latencies) == 9
        assert max(latencies) in (32, 33)

    def test_rejects_wrong_config(self):
        from repro.core.config import TLC_BASE
        with pytest.raises(ValueError):
            StaticNUCA(config=TLC_BASE)


class TestNonUniformity:
    def test_near_bank_faster_than_far_bank(self):
        design = make()
        near = addr_for_bank(design, 4)   # column 4, position 0 (centre)
        far = addr_for_bank(design, 24)   # position 3
        design.install(near)
        design.install(far)
        near_out = design.access(near, time=0)
        far_out = design.access(far, time=10_000)
        assert near_out.lookup_latency < far_out.lookup_latency

    def test_hit_latency_matches_prediction_when_idle(self):
        design = make()
        addr = addr_for_bank(design, 10)
        design.install(addr)
        outcome = design.access(addr, time=500)
        assert outcome.hit
        assert outcome.lookup_latency == design.uncontended_latency(addr)
        assert outcome.predictable

    def test_latency_spread_wider_than_tlc(self):
        """The motivation for both DNUCA and TLC: static NUCA latency
        varies ~3.5x between nearest and furthest banks."""
        design = make()
        latencies = [design.uncontended_latency(addr_for_bank(design, b))
                     for b in range(32)]
        assert max(latencies) / min(latencies) > 3


class TestAccessPaths:
    def test_miss_fetches_and_fills(self):
        design = make()
        first = design.access(0xABC0, time=0)
        assert not first.hit
        assert design.access(0xABC0, time=5000).hit

    def test_write_allocates(self):
        design = make()
        design.access(0x5000, time=0, write=True)
        assert design.access(0x5000, time=1000).hit

    def test_one_bank_per_request(self):
        design = make()
        for i in range(8):
            design.access(i * 64, time=i * 200)
        assert design.banks_accessed_per_request == 1.0

    def test_contention_on_shared_column(self):
        design = make()
        a = addr_for_bank(design, 4, set_index=0)   # column 4, row 0
        b = addr_for_bank(design, 28, set_index=0)  # column 4, row 3
        design.install(a)
        design.install(b)
        design.access(b, time=0)   # long transfer up column 4
        delayed = design.access(a, time=1)
        # a's response returns while b's request/response occupy shared
        # edge links; depending on overlap it may or may not queue, but
        # timing must never go backwards.
        assert delayed.complete_time > 1

    def test_network_energy_positive(self):
        design = make()
        design.access(0x0, time=0)
        assert design.network_energy_j() > 0

    def test_reset_stats_clears_mesh_counters(self):
        design = make()
        design.access(0x0, time=0)
        design.reset_stats()
        assert design.network.bit_hops == 0
        assert design.network_energy_j() == 0.0

"""Tests for the optimized TLC designs (striping + partial tags)."""

import pytest

from repro.core.config import TLC_OPT_350, TLC_OPT_500, TLC_OPT_1000
from repro.core.tlc_opt import OptimizedTLC
from repro.sim.memory import MainMemory
from tests.call_counts import repro_calls_per_reference


def make(config=TLC_OPT_500):
    return OptimizedTLC(config=config, memory=MainMemory())


def addr_in_group(design, group, set_index=0, tag=1):
    return design.addr_map.rebuild(tag, set_index, group)


class TestStripeGeometry:
    @pytest.mark.parametrize("config,banks_per_block,groups", [
        (TLC_OPT_1000, 2, 8), (TLC_OPT_500, 4, 4), (TLC_OPT_350, 8, 2)])
    def test_group_structure(self, config, banks_per_block, groups):
        design = make(config)
        assert design.stripe_banks == banks_per_block
        assert design.num_groups == groups

    @pytest.mark.parametrize("config", [TLC_OPT_1000, TLC_OPT_500, TLC_OPT_350])
    def test_stripe_banks_on_distinct_pairs(self, config):
        """Slices of one block must return over different pair links so
        they arrive in parallel (the basis of the 12-13 cycle latency)."""
        design = make(config)
        for group in range(design.num_groups):
            pairs = [b // 2 for b in design.banks_for_group(group)]
            assert len(set(pairs)) == len(pairs)

    @pytest.mark.parametrize("config", [TLC_OPT_1000, TLC_OPT_500, TLC_OPT_350])
    def test_sibling_groups_share_one_link_class(self, config):
        """Groups 2c and 2c+1 stripe over link class c's pairs, in
        stripe order, and the classes partition the pairs."""
        design = make(config)
        classes = design.network.classes
        for group in range(design.num_groups):
            pairs = tuple(b // 2 for b in design.banks_for_group(group))
            assert pairs == classes[group >> 1]
        assert sorted(p for pairs in classes for p in pairs) == list(range(8))

    def test_groups_partition_banks(self):
        design = make(TLC_OPT_500)
        all_banks = sorted(
            b for g in range(design.num_groups) for b in design.banks_for_group(g))
        assert all_banks == list(range(16))

    def test_rejects_wrong_config(self):
        from repro.core.config import TLC_BASE
        with pytest.raises(ValueError):
            OptimizedTLC(config=TLC_BASE)


class TestLatency:
    @pytest.mark.parametrize("config,low,high", [
        (TLC_OPT_1000, 12, 13), (TLC_OPT_500, 12, 12), (TLC_OPT_350, 12, 12)])
    def test_uncontended_range(self, config, low, high):
        design = make(config)
        latencies = {design.uncontended_latency(addr_in_group(design, g))
                     for g in range(design.num_groups)}
        assert min(latencies) == low
        assert max(latencies) == high

    def test_clean_hit_latency_matches_prediction(self):
        design = make()
        addr = addr_in_group(design, 0)
        design.install(addr)
        outcome = design.access(addr, time=100)
        assert outcome.hit
        assert outcome.lookup_latency == design.uncontended_latency(addr)
        assert outcome.predictable

    def test_all_stripe_banks_counted(self):
        design = make(TLC_OPT_350)
        design.access(0x0, time=0)
        assert design.banks_accessed_per_request == 8.0


class TestPartialTagCornerCases:
    def _aliased_tags(self):
        """Two tags sharing the low six bits."""
        return 0x40, 0x80

    def test_false_hit_detected_by_controller(self):
        """A partial match whose full tag differs must become a miss."""
        design = make()
        t1, t2 = self._aliased_tags()
        a = addr_in_group(design, 0, set_index=5, tag=t1)
        b = addr_in_group(design, 0, set_index=5, tag=t2)
        design.install(a)
        outcome = design.access(b, time=0)
        assert not outcome.hit
        assert design.stats["false_hits"] == 1

    def test_false_hit_resolves_at_normal_latency(self):
        design = make()
        t1, t2 = self._aliased_tags()
        design.install(addr_in_group(design, 0, set_index=5, tag=t1))
        outcome = design.access(addr_in_group(design, 0, set_index=5, tag=t2),
                                time=0)
        assert outcome.lookup_latency == design.uncontended_latency(
            addr_in_group(design, 0))
        assert outcome.predictable

    def test_multiple_matches_require_second_round(self):
        design = make()
        t1, t2 = self._aliased_tags()
        a = addr_in_group(design, 0, set_index=5, tag=t1)
        b = addr_in_group(design, 0, set_index=5, tag=t2)
        design.install(a)
        design.install(b)
        outcome = design.access(a, time=0)
        assert outcome.hit
        assert design.stats["multi_partial_matches"] == 1
        assert not outcome.predictable
        assert outcome.lookup_latency > design.uncontended_latency(a)

    def test_multiple_matches_all_false_is_miss(self):
        design = make()
        t1, t2 = self._aliased_tags()
        design.install(addr_in_group(design, 0, set_index=5, tag=t1))
        design.install(addr_in_group(design, 0, set_index=5, tag=t2))
        third = addr_in_group(design, 0, set_index=5, tag=0xC0)  # same partial
        outcome = design.access(third, time=0)
        assert not outcome.hit

    def test_clean_partial_miss_is_predictable(self):
        design = make()
        outcome = design.access(addr_in_group(design, 0, tag=0x33), time=0)
        assert not outcome.hit
        assert outcome.predictable


class TestReadWritePaths:
    def test_miss_then_hit(self):
        design = make()
        design.access(0x9000, time=0)
        assert design.access(0x9000, time=2000).hit

    def test_write_allocates_dirty(self):
        design = make()
        design.access(0x9000, time=0, write=True)
        group = design.groups[design.addr_map.bank_index(0x9000)]
        set_index = design.addr_map.set_index(0x9000)
        way = group.probe(set_index, design.addr_map.tag(0x9000))
        assert group.dirty_at(set_index, way)

    def test_dirty_eviction_writes_back(self):
        design = make()
        base_set, group = 9, 1
        for tag in range(5):  # 4 ways + 1 (distinct partials)
            design.access(addr_in_group(design, group, base_set, tag + 1),
                          time=tag * 1000, write=True)
        assert design.stats["writebacks"] >= 1
        assert design.memory.stats["writes"] >= 1

    def test_narrower_design_busier_links(self):
        """Fewer lines -> higher utilization for identical traffic."""
        results = {}
        for config in (TLC_OPT_1000, TLC_OPT_350):
            design = make(config)
            for i in range(50):
                design.install(i * 64)
                design.access(i * 64, time=i * 40)
            results[config.name] = design.link_utilization(50 * 40)
        assert results["TLCopt350"] > results["TLCopt1000"]


def test_a_tlcopt_access_costs_what_a_tlc_access_costs():
    """The stripes move in lockstep, so a TLCopt access makes one send
    each way and one bank access, like TLC, whatever its stripe count.
    Call counts are deterministic, unlike timings on a shared host."""
    tlc = repro_calls_per_reference("TLC")
    for design in ("TLCopt1000", "TLCopt500", "TLCopt350"):
        assert repro_calls_per_reference(design) <= 1.5 * tlc, design

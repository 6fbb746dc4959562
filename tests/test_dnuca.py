"""Tests for the DNUCA baseline: search, promotion, partial tags."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.nuca.dnuca import DynamicNUCA
from repro.sim.memory import MainMemory
from tests.call_counts import repro_calls_per_reference


def make():
    return DynamicNUCA(memory=MainMemory())


def addr_for(design, column, set_index=0, tag=1):
    return design.addr_map.rebuild(tag, set_index, column)


class TestGeometry:
    def test_16_banksets_of_16_banks(self):
        design = make()
        assert design.banksets == 16
        assert design.positions == 16
        assert design.banks[0][0].num_sets == 1024

    def test_total_capacity_16mb(self):
        design = make()
        blocks = sum(b.capacity_blocks for col in design.banks for b in col)
        assert blocks * 64 == 16 * 1024 * 1024

    def test_rejects_wrong_config(self):
        from repro.core.config import SNUCA2
        with pytest.raises(ValueError):
            DynamicNUCA(config=SNUCA2)


class TestInsertAtTail:
    def test_miss_inserts_at_furthest_bank(self):
        design = make()
        addr = addr_for(design, 3, set_index=7, tag=42)
        design.access(addr, time=0)
        column = design.addr_map.bank_index(addr)
        assert design.banks[column][15].probe(7, 42) is not None

    def test_insertion_updates_partial_tags(self):
        design = make()
        addr = addr_for(design, 3, set_index=7, tag=42)
        design.access(addr, time=0)
        assert 15 in design.partial_tags[3].matches(7, 42)

    def test_tail_eviction_writes_back_dirty(self):
        design = make()
        a = addr_for(design, 0, set_index=0, tag=1)
        b = addr_for(design, 0, set_index=0, tag=2)
        design.access(a, time=0, write=True)      # dirty at tail
        design.access(b, time=10_000)             # evicts a
        assert design.stats["writebacks"] == 1


class TestPromotion:
    def test_hit_moves_block_one_closer(self):
        design = make()
        addr = addr_for(design, 5, set_index=3, tag=9)
        design.access(addr, time=0)            # inserted at position 15
        design.access(addr, time=10_000)       # hit -> promote to 14
        column = design.addr_map.bank_index(addr)
        assert design.banks[column][14].probe(3, 9) is not None
        assert design.banks[column][15].probe(3, 9) is None

    def test_repeated_hits_reach_closest_bank(self):
        design = make()
        addr = addr_for(design, 5, set_index=3, tag=9)
        design.access(addr, time=0)
        for i in range(20):
            design.access(addr, time=(i + 1) * 10_000)
        column = design.addr_map.bank_index(addr)
        assert design.banks[column][0].probe(3, 9) is not None

    def test_promotion_swaps_displaced_block(self):
        design = make()
        a = addr_for(design, 2, set_index=1, tag=11)
        b = addr_for(design, 2, set_index=1, tag=12)
        column = design.addr_map.bank_index(a)
        design.install(a)  # head-first: position 0
        design.install(b)  # position 1
        design.access(b, time=0)  # hit at 1 -> swap with a at 0
        assert design.banks[column][0].probe(1, 12) is not None
        assert design.banks[column][1].probe(1, 11) is not None

    def test_promotion_updates_partial_tags(self):
        design = make()
        addr = addr_for(design, 5, set_index=3, tag=9)
        design.access(addr, time=0)
        design.access(addr, time=10_000)
        matches = design.partial_tags[5].matches(3, 9)
        assert 14 in matches and 15 not in matches

    def test_close_hit_does_not_promote(self):
        design = make()
        addr = addr_for(design, 5, set_index=3, tag=9)
        design.install(addr)  # position 0
        design.access(addr, time=0)
        assert design.stats["promotions"] == 0

    def test_promotes_per_insert_metric(self):
        design = make()
        addr = addr_for(design, 5, set_index=3, tag=9)
        design.access(addr, time=0)
        design.access(addr, time=10_000)
        design.access(addr, time=20_000)
        assert design.stats.ratio("promotions", "insertions") == pytest.approx(2.0)


class TestSearchAndFastMiss:
    def test_fast_miss_at_partial_tag_latency(self):
        design = make()
        outcome = design.access(addr_for(design, 1, tag=5), time=100)
        assert not outcome.hit
        assert outcome.lookup_latency == design.config.partial_tag_latency
        assert outcome.predictable
        assert design.stats["fast_misses"] == 1

    def test_close_hit_is_predictable(self):
        design = make()
        addr = addr_for(design, 8, set_index=2, tag=3)
        design.install(addr)  # position 0
        outcome = design.access(addr, time=0)
        assert outcome.hit and outcome.predictable
        assert design.stats["close_hits"] == 1

    def test_far_hit_found_by_directed_search(self):
        design = make()
        addr = addr_for(design, 4, set_index=6, tag=21)
        design.access(addr, time=0)            # at tail (position 15)
        outcome = design.access(addr, time=10_000)
        assert outcome.hit
        assert not outcome.predictable          # not a close hit
        # closest 2 probed + 1 searched
        assert design.stats["bank_accesses"] == 2 + 2 + 1

    def test_partial_alias_triggers_fruitless_search(self):
        design = make()
        resident = addr_for(design, 4, set_index=6, tag=0x40)
        design.access(resident, time=0)  # tail
        fast_before = design.stats["fast_misses"]
        aliased = addr_for(design, 4, set_index=6, tag=0x80)  # same partial
        outcome = design.access(aliased, time=10_000)
        assert not outcome.hit
        assert design.stats["fast_misses"] == fast_before  # not a fast miss
        # The aliased request had to search the matching bank.
        assert outcome.lookup_latency > design.config.partial_tag_latency

    def test_banks_accessed_at_least_two(self):
        design = make()
        for i in range(6):
            design.access(i * 64, time=i * 1000)
        assert design.banks_accessed_per_request >= 2.0


class TestPartialTagAblation:
    def _make_without_pt(self):
        import dataclasses
        from repro.core.config import DNUCA as CFG
        return DynamicNUCA(
            config=dataclasses.replace(CFG, use_partial_tags=False),
            memory=MainMemory())

    def test_no_fast_misses_without_partial_tags(self):
        design = self._make_without_pt()
        outcome = design.access(addr_for(design, 1, tag=5), time=100)
        assert not outcome.hit
        assert design.stats["fast_misses"] == 0
        assert outcome.lookup_latency > design.config.partial_tag_latency

    def test_miss_searches_every_bank(self):
        design = self._make_without_pt()
        design.access(addr_for(design, 1, tag=5), time=100)
        # 2 closest probes + 14 searched banks.
        assert design.stats["bank_accesses"] == 16

    def test_far_hit_still_found(self):
        design = self._make_without_pt()
        addr = addr_for(design, 4, set_index=6, tag=21)
        design.access(addr, time=0)
        assert design.access(addr, time=50_000).hit


class TestWritePath:
    def test_write_miss_inserts_dirty_at_tail(self):
        design = make()
        addr = addr_for(design, 9, set_index=4, tag=33)
        design.access(addr, time=0, write=True)
        column = design.addr_map.bank_index(addr)
        assert design.banks[column][15].entry_at(4, 0) == (33, True)
        assert design.memory.stats["reads"] == 0  # full-block writeback

    def test_write_hit_promotes(self):
        design = make()
        addr = addr_for(design, 9, set_index=4, tag=33)
        design.access(addr, time=0)
        design.access(addr, time=10_000, write=True)
        assert design.stats["promotions"] == 1


class TestPolicyVariants:
    def _make(self, **overrides):
        import dataclasses
        from repro.core.config import DNUCA as CFG
        return DynamicNUCA(config=dataclasses.replace(CFG, **overrides),
                           memory=MainMemory())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            self._make(insertion_position="middle")
        with pytest.raises(ValueError):
            self._make(search_mode="psychic")
        with pytest.raises(ValueError):
            self._make(promotion_distance=0)

    def test_head_insertion_places_block_at_position_zero(self):
        design = self._make(insertion_position="head")
        addr = addr_for(design, 3, set_index=7, tag=42)
        design.access(addr, time=0)
        assert design.banks[3][0].probe(7, 42) is not None

    def test_promotion_distance_jumps_multiple_banks(self):
        design = self._make(promotion_distance=4)
        addr = addr_for(design, 5, set_index=3, tag=9)
        design.access(addr, time=0)           # tail: position 15
        design.access(addr, time=10_000)      # hit -> position 11
        assert design.banks[5][11].probe(3, 9) is not None

    def test_promotion_distance_clamps_at_head(self):
        design = self._make(promotion_distance=100)
        addr = addr_for(design, 5, set_index=3, tag=9)
        design.access(addr, time=0)
        design.access(addr, time=10_000)
        assert design.banks[5][0].probe(3, 9) is not None

    def test_incremental_search_finds_far_block(self):
        design = self._make(search_mode="incremental")
        addr = addr_for(design, 4, set_index=6, tag=21)
        design.access(addr, time=0)
        outcome = design.access(addr, time=50_000)
        assert outcome.hit

    def test_incremental_stops_at_first_hit(self):
        """With the holder as the nearest candidate, only one search
        probe is spent (multicast would probe every candidate)."""
        design = self._make(search_mode="incremental")
        # Two partial-aliased blocks; the nearer one is the real target.
        a = addr_for(design, 4, set_index=6, tag=0x40)
        b = addr_for(design, 4, set_index=6, tag=0x80)
        design.install(a)  # position 0... need it beyond the closest two
        design.install(addr_for(design, 4, set_index=6, tag=1))
        design.install(addr_for(design, 4, set_index=6, tag=2))
        design.install(b)  # position 3
        # Search for b: candidates (by partial tag) include a's position
        # only if a sits outside the closest two — position 0 is probed
        # anyway.  Access b and confirm one search probe sufficed.
        before = design.stats["bank_accesses"]
        outcome = design.access(b, time=0)
        assert outcome.hit
        assert design.stats["bank_accesses"] - before == 3  # 2 close + 1


class TestInstall:
    def test_install_fills_head_first(self):
        design = make()
        for tag in range(3):
            design.install(addr_for(design, 0, set_index=0, tag=tag + 1))
        for position, tag in enumerate((1, 2, 3)):
            assert design.banks[0][position].probe(0, tag) is not None

    def test_install_full_set_replaces_tail(self):
        design = make()
        for tag in range(1, 18):
            design.install(addr_for(design, 0, set_index=0, tag=tag))
        assert design.banks[0][15].probe(0, 17) is not None
        # displaced
        assert all(bank.probe(0, 16) is None for bank in design.banks[0])


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 7),
                          st.integers(1, 6), st.booleans()),
                max_size=60))
def test_partial_tags_always_consistent_with_banks(ops):
    """Invariant: after any access sequence, the partial-tag array agrees
    exactly with the banks' contents — the paper's synchronization
    requirement."""
    design = make()
    time = 0
    for column, set_index, tag, write in ops:
        design.access(addr_for(design, column, set_index, tag), time, write)
        time += 10_000
    for column in range(design.banksets):
        pta = design.partial_tags[column]
        for set_index in range(8):
            for position in range(design.positions):
                stored = design.banks[column][position].tag_at(set_index, 0)
                recorded = pta.stored(position, set_index, 0)
                if stored is None:
                    assert recorded is None
                else:
                    assert recorded == stored & 0x3F


@pytest.mark.parametrize("workload, bound", [("perl", 1.5), ("mcf", 2.5)])
def test_a_dnuca_access_costs_little_more_than_a_tlc_access(workload, bound):
    """The closest-two probe and a promotion are one mesh call each, and
    the partial tags name the only banks a far block can sit in, so a
    DNUCA reference costs at most ``bound`` times a TLC reference.
    mcf, whose blocks sit far out and promote, gets the wider bound.
    Call counts are deterministic, unlike timings on a shared host."""
    tlc = repro_calls_per_reference("TLC", workload)
    assert repro_calls_per_reference("DNUCA", workload) <= bound * tlc

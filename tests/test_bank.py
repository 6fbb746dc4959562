"""Tests for the set-associative cache bank."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.bank import CacheBank


class TestLookupAndInsert:
    def test_miss_on_empty_bank(self):
        bank = CacheBank(num_sets=16, ways=2)
        assert not bank.lookup(0, 0xAA).hit

    def test_hit_after_insert(self):
        bank = CacheBank(num_sets=16, ways=2)
        bank.insert(3, 0xAA)
        result = bank.lookup(3, 0xAA)
        assert result.hit
        assert result.way is not None

    def test_same_tag_different_set_misses(self):
        bank = CacheBank(num_sets=16, ways=2)
        bank.insert(3, 0xAA)
        assert not bank.lookup(4, 0xAA).hit

    def test_insert_fills_empty_ways_before_evicting(self):
        bank = CacheBank(num_sets=4, ways=2)
        r1 = bank.insert(0, 1)
        r2 = bank.insert(0, 2)
        assert r1.evicted_tag is None and r2.evicted_tag is None
        assert bank.lookup(0, 1).hit and bank.lookup(0, 2).hit

    def test_eviction_when_set_full(self):
        bank = CacheBank(num_sets=4, ways=2)
        bank.insert(0, 1)
        bank.insert(0, 2)
        result = bank.insert(0, 3)
        assert result.evicted_tag == 1  # LRU victim
        assert not bank.lookup(0, 1).hit

    def test_lru_protects_recently_used(self):
        bank = CacheBank(num_sets=4, ways=2)
        bank.insert(0, 1)
        bank.insert(0, 2)
        bank.lookup(0, 1)  # touch 1 -> 2 becomes LRU
        result = bank.insert(0, 3)
        assert result.evicted_tag == 2

    def test_duplicate_insert_rejected(self):
        bank = CacheBank(num_sets=4, ways=2)
        bank.insert(0, 1)
        with pytest.raises(ValueError):
            bank.insert(0, 1)

    def test_set_index_out_of_range(self):
        bank = CacheBank(num_sets=4, ways=1)
        with pytest.raises(IndexError):
            bank.lookup(4, 1)

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            CacheBank(num_sets=0, ways=1)
        with pytest.raises(ValueError):
            CacheBank(num_sets=4, ways=0)


class TestDirtyTracking:
    def test_write_marks_dirty(self):
        bank = CacheBank(num_sets=4, ways=2)
        bank.insert(0, 1)
        bank.lookup(0, 1, write=True)
        assert bank.dirty_at(0, bank.probe(0, 1))

    def test_clean_insert_not_dirty(self):
        bank = CacheBank(num_sets=4, ways=2)
        r = bank.insert(0, 1)
        assert not bank.dirty_at(0, r.way)

    def test_dirty_eviction_reported(self):
        bank = CacheBank(num_sets=4, ways=1)
        bank.insert(0, 1, dirty=True)
        result = bank.insert(0, 2)
        assert result.evicted_tag == 1 and result.evicted_dirty

    def test_clean_eviction_reported(self):
        bank = CacheBank(num_sets=4, ways=1)
        bank.insert(0, 1)
        result = bank.insert(0, 2)
        assert result.evicted_tag == 1 and not result.evicted_dirty


class TestProbeAndInvalidate:
    def test_probe_does_not_touch_lru(self):
        bank = CacheBank(num_sets=4, ways=2)
        bank.insert(0, 1)
        bank.insert(0, 2)
        bank.probe(0, 1)  # not a use
        assert bank.insert(0, 3).evicted_tag == 1

    def test_probe_missing(self):
        bank = CacheBank(num_sets=4, ways=2)
        assert bank.probe(0, 9) is None

    def test_invalidate_present(self):
        bank = CacheBank(num_sets=4, ways=2)
        bank.insert(0, 1, dirty=True)
        present, dirty = bank.invalidate(0, 1)
        assert present and dirty
        assert not bank.lookup(0, 1).hit

    def test_invalidate_absent(self):
        bank = CacheBank(num_sets=4, ways=2)
        assert bank.invalidate(0, 1) == (False, False)

    def test_replace_way_returns_old_contents(self):
        bank = CacheBank(num_sets=4, ways=1)
        bank.insert(0, 5, dirty=True)
        old = bank.replace_way(0, 0, 7)
        assert old == (5, True)
        assert bank.probe(0, 7) == 0


class TestOccupancy:
    def test_capacity(self):
        bank = CacheBank(num_sets=8, ways=4)
        assert bank.capacity_blocks == 32

    def test_occupied_counts_inserts(self):
        bank = CacheBank(num_sets=8, ways=4)
        for tag in range(5):
            bank.insert(tag % 8, 100 + tag)
        assert bank.occupied_blocks == 5

    def test_occupancy_never_exceeds_capacity(self):
        bank = CacheBank(num_sets=2, ways=2)
        for tag in range(20):
            bank.insert(tag % 2, 1000 + tag)
        assert bank.occupied_blocks <= bank.capacity_blocks


#: entry point -> (call with a set and way index, indices it takes)
BANK_ENTRY_POINTS = {
    "probe": (lambda bank, s, w: bank.probe(s, 1), ("set",)),
    "tag_at": (lambda bank, s, w: bank.tag_at(s, w), ("set", "way")),
    "dirty_at": (lambda bank, s, w: bank.dirty_at(s, w), ("set", "way")),
    "lookup": (lambda bank, s, w: bank.lookup(s, 1), ("set",)),
    "insert": (lambda bank, s, w: bank.insert(s, 1), ("set",)),
    "install_all": (lambda bank, s, w: bank.install_all([(s, 1)]), ("set",)),
    "invalidate": (lambda bank, s, w: bank.invalidate(s, 1), ("set",)),
    "replace_way": (lambda bank, s, w: bank.replace_way(s, w, 1),
                    ("set", "way")),
    "set_tag": (lambda bank, s, w: bank.set_tag(s, w, 1), ("set", "way")),
}


@pytest.mark.parametrize("entry,axis,bad", [
    (entry, axis, bad)
    for entry, (_, axes) in sorted(BANK_ENTRY_POINTS.items())
    for axis in axes for bad in ("-1", "size")
])
def test_out_of_range_index_raises(entry, axis, bad):
    """A bad set or way index never reads or writes another set's slots."""
    bank = CacheBank(num_sets=4, ways=2)
    for set_index in range(4):
        for way in range(2):
            bank.replace_way(set_index, way, 2 + set_index * 2 + way, dirty=True)
    before = [bank.tag_at(s, w) for s in range(4) for w in range(2)]
    index = -1 if bad == "-1" else {"set": 4, "way": 2}[axis]
    set_index, way = (index, 0) if axis == "set" else (0, index)
    call, _ = BANK_ENTRY_POINTS[entry]
    with pytest.raises(IndexError):
        call(bank, set_index, way)
    assert [bank.tag_at(s, w) for s in range(4) for w in range(2)] == before


def test_frequency_aging_halves_only_its_own_set():
    """Saturating one set's count halves every count of that set and of
    no other set, as a per-set FrequencyPolicy would."""
    bank = CacheBank(num_sets=4, ways=2, policy="frequency")
    for set_index, (uses_of_10, uses_of_11) in {1: (40, 39), 2: (257, 130),
                                                 3: (40, 39)}.items():
        bank.insert(set_index, 10)
        bank.insert(set_index, 11)
        for _ in range(uses_of_11):
            bank.lookup(set_index, 11)
        for _ in range(uses_of_10):
            bank.lookup(set_index, 10)
    # Set 2 saturated at 255 and aged to [127, 65], then [130, 65]; unaged,
    # 10 would pass 255 and 11 would stay at 131.
    assert bank.insert(2, 12).evicted_tag == 11
    # Sets 1 and 3 keep [41, 40]; halved, they would tie and evict 10.
    assert bank.insert(1, 12).evicted_tag == 11
    assert bank.insert(3, 12).evicted_tag == 11


class ReferenceSet:
    """One set under the per-set semantics tests/test_replacement.py pins."""

    def __init__(self, ways, policy, set_index):
        self.ways, self.policy = ways, policy
        self.tags = [None] * ways
        self.dirty = [False] * ways
        self.order = list(range(ways))  # LRU/LIP, MRU last
        self.counts = [0] * ways        # frequency
        self.rng = random.Random(set_index)

    def touch(self, way):
        if self.policy == "frequency":
            self.counts[way] += 1
            if self.counts[way] >= 255:
                self.counts = [c // 2 for c in self.counts]
        elif self.policy in ("lru", "lip"):
            self.order.remove(way)
            self.order.append(way)

    def insert_policy(self, way):
        if self.policy == "frequency":
            self.counts[way] = 1
        elif self.policy == "lip":
            self.order.remove(way)
            self.order.insert(0, way)
        else:
            self.touch(way)

    def victim(self):
        if self.policy == "frequency":
            return self.counts.index(min(self.counts))
        if self.policy == "random":
            return self.rng.randrange(self.ways)
        return self.order[0]

    def insert(self, tag, dirty):
        """(way, evicted tag, evicted dirty)."""
        if None in self.tags:
            way, evicted = self.tags.index(None), (None, False)
        else:
            way = self.victim()
            evicted = (self.tags[way], self.dirty[way])
        self.tags[way], self.dirty[way] = tag, dirty
        self.insert_policy(way)
        return (way,) + evicted


ops = st.lists(st.one_of(
    st.tuples(st.just("access"), st.integers(0, 3), st.integers(0, 12),
              st.booleans()),
    st.tuples(st.just("install"), st.integers(0, 3), st.integers(0, 12)),
    st.tuples(st.just("invalidate"), st.integers(0, 3), st.integers(0, 12)),
    st.tuples(st.just("replace_way"), st.integers(0, 3), st.integers(0, 2),
              st.one_of(st.none(), st.integers(0, 12)), st.booleans()),
), max_size=200)


@settings(max_examples=200, deadline=None)
@given(policy=st.sampled_from(["lru", "lip", "frequency", "random"]), ops=ops)
def test_bank_matches_reference_model(policy, ops):
    """Model check: the flat bank equals per-set reference sets."""
    ways = 3
    bank = CacheBank(num_sets=4, ways=ways, policy=policy)
    reference = [ReferenceSet(ways, policy, s) for s in range(4)]

    for op, set_index, *args in ops:
        model = reference[set_index]
        if op == "access":
            tag, write = args
            result = bank.lookup(set_index, tag, write=write)
            assert result.hit == (tag in model.tags)
            if result.hit:
                way = model.tags.index(tag)
                assert result.way == way
                model.touch(way)
                model.dirty[way] = model.dirty[way] or write
            else:
                result = bank.insert(set_index, tag, dirty=write)
                assert (result.way, result.evicted_tag,
                        result.evicted_dirty) == model.insert(tag, write)
        elif op == "install":
            (tag,) = args
            bank.install_all([(set_index, tag)])
            if tag not in model.tags:
                way = model.insert(tag, False)[0]
                model.touch(way)
        elif op == "invalidate":
            (tag,) = args
            present = tag in model.tags
            was_dirty = present and model.dirty[model.tags.index(tag)]
            assert bank.invalidate(set_index, tag) == (present, was_dirty)
            if present:
                way = model.tags.index(tag)
                model.tags[way], model.dirty[way] = None, False
        else:
            way, tag, dirty = args
            if tag is not None and tag in model.tags:
                continue  # replace_way trusts its caller not to duplicate
            old = bank.replace_way(set_index, way, tag, dirty)
            assert old == (model.tags[way], model.dirty[way])
            model.tags[way], model.dirty[way] = tag, dirty
            if tag is not None:
                model.touch(way)

    for set_index, model in enumerate(reference):
        assert [bank.tag_at(set_index, w) for w in range(ways)] == model.tags
        assert [bank.dirty_at(set_index, w) for w in range(ways)] == model.dirty
        if policy != "random":  # a random victim draw would advance the rng
            # Includes never-touched sets and ways: LRU evicts the lowest
            # untouched way first.
            assert bank.policy.victim(set_index * ways) == model.victim()

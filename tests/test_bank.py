"""Tests for the set-associative cache bank."""

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
        assert bank.entry_at(0, bank.probe(0, 1)) == (1, True)

    def test_clean_insert_not_dirty(self):
        bank = CacheBank(num_sets=4, ways=2)
        r = bank.insert(0, 1)
        assert bank.entry_at(0, r.way) == (1, False)

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
    "tags_of": (lambda bank, s, w: bank.tags_of(s), ("set",)),
    "entry_at": (lambda bank, s, w: bank.entry_at(s, w), ("set", "way")),
    "lookup": (lambda bank, s, w: bank.lookup(s, 1), ("set",)),
    "insert": (lambda bank, s, w: bank.insert(s, 1), ("set",)),
    "install_all": (lambda bank, s, w: bank.install_all([(s, 1)]), ("set",)),
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


def test_entry_at_reads_tag_and_dirty_bit_together():
    bank = CacheBank(num_sets=2, ways=2)
    bank.replace_way(1, 0, 7, dirty=True)
    bank.replace_way(1, 1, 9)
    assert bank.entry_at(1, 0) == (7, True)
    assert bank.entry_at(1, 1) == (9, False)
    assert bank.entry_at(0, 1) == (None, False)


class ReferenceSet:
    """One set under the per-set semantics tests/test_replacement.py pins."""

    def __init__(self, ways, policy):
        self.policy = policy
        self.tags = [None] * ways
        self.dirty = [False] * ways
        self.order = list(range(ways))  # MRU last

    def touch(self, way):
        self.order.remove(way)
        self.order.append(way)

    def insert_policy(self, way):
        if self.policy == "lip":
            self.order.remove(way)
            self.order.insert(0, way)
        else:
            self.touch(way)

    def victim(self):
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
    st.tuples(st.just("replace_way"), st.integers(0, 3), st.integers(0, 2),
              st.one_of(st.none(), st.integers(0, 12)), st.booleans()),
), max_size=200)


@settings(max_examples=200, deadline=None)
@given(policy=st.sampled_from(["lru", "lip"]), ops=ops)
def test_bank_matches_reference_model(policy, ops):
    """Model check: the flat bank equals per-set reference sets."""
    ways = 3
    bank = CacheBank(num_sets=4, ways=ways, policy=policy)
    reference = [ReferenceSet(ways, policy) for _ in range(4)]

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
        assert ([bank.entry_at(set_index, w) for w in range(ways)]
                == list(zip(model.tags, model.dirty)))
        # Includes never-touched sets and ways: LRU evicts the lowest
        # untouched way first.
        assert bank.policy.victim(set_index * ways) == model.victim()

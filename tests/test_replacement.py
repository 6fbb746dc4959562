"""Tests for replacement policies."""

import pytest
from hypothesis import given, strategies as st

from repro.cache.replacement import LIPPolicy, LRUPolicy, make_policy


class TestLRU:
    def test_initial_victim_is_way_zero(self):
        assert LRUPolicy(4).victim() == 0

    def test_touch_moves_to_mru(self):
        p = LRUPolicy(4)
        p.touch(0)
        assert p.victim() == 1

    def test_full_rotation(self):
        p = LRUPolicy(3)
        for way in (0, 1, 2):
            p.touch(way)
        assert p.victim() == 0
        p.touch(0)
        assert p.victim() == 1

    def test_insert_counts_as_touch(self):
        p = LRUPolicy(2)
        p.insert(0)
        assert p.victim() == 1

    def test_invalid_ways(self):
        with pytest.raises(ValueError):
            LRUPolicy(0)

    @given(st.lists(st.integers(min_value=0, max_value=3), max_size=100))
    def test_matches_reference_model(self, touches):
        """The victim is always the least-recently-touched way."""
        ways = 4
        p = LRUPolicy(ways)
        reference = list(range(ways))  # LRU first
        for way in touches:
            p.touch(way)
            reference.remove(way)
            reference.append(way)
        assert p.victim() == reference[0]


class TestLIP:
    def test_insert_lands_at_lru(self):
        p = LIPPolicy(4)
        for way in (0, 1, 2, 3):
            p.touch(way)
        p.insert(0)  # re-insert way 0 at the LRU end
        assert p.victim() == 0

    def test_touch_promotes_to_mru(self):
        p = LIPPolicy(2)
        p.touch(0)
        p.touch(1)
        p.insert(0)       # way 0 to LRU
        p.touch(0)        # reuse promotes it
        assert p.victim() == 1

    def test_stream_evicts_itself_not_the_reused_way(self):
        """The DNUCA insert-at-tail analogy: single-use insertions churn
        one slot while the touched way survives."""
        p = LIPPolicy(4)
        for way in (0, 1, 2, 3):
            p.touch(way)
        p.touch(0)  # the protected hot way
        for _ in range(10):
            victim = p.victim()
            assert victim != 0
            p.insert(victim)


class TestFactory:
    @pytest.mark.parametrize("name,cls", [
        ("lru", LRUPolicy),
        ("lip", LIPPolicy),
    ])
    def test_make_policy(self, name, cls):
        assert isinstance(make_policy(name, 4), cls)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown replacement policy"):
            make_policy("mru", 4)

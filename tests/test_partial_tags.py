"""Tests for the 6-bit partial-tag structures."""

import pytest
from hypothesis import given, strategies as st

from repro.cache.partial_tags import PartialTagArray, partial_tag


class TestPartialTagFunction:
    def test_keeps_low_six_bits(self):
        assert partial_tag(0b1111111) == 0b111111

    def test_small_tags_unchanged(self):
        assert partial_tag(5) == 5

    def test_aliasing_distance(self):
        # Tags 64 apart alias — the source of false matches.
        assert partial_tag(0x40) == partial_tag(0x80) == 0


class TestPartialTagArray:
    def test_no_matches_when_empty(self):
        pta = PartialTagArray(positions=16, num_sets=8)
        assert pta.matches(0, 0x123) == []

    def test_update_then_match(self):
        pta = PartialTagArray(positions=16, num_sets=8)
        pta.update(5, 3, 0, 0x123)
        assert pta.matches(3, 0x123) == [5]

    def test_aliased_tag_matches(self):
        pta = PartialTagArray(positions=4, num_sets=8)
        pta.update(2, 0, 0, 0x40)
        assert pta.matches(0, 0x80) == [2]  # false positive by design

    def test_different_partial_no_match(self):
        pta = PartialTagArray(positions=4, num_sets=8)
        pta.update(2, 0, 0, 0x01)
        assert pta.matches(0, 0x02) == []

    def test_matches_sorted_nearest_first(self):
        pta = PartialTagArray(positions=8, num_sets=4)
        for position in (6, 2, 4):
            pta.update(position, 1, 0, 9)
        assert pta.matches(1, 9) == [2, 4, 6]

    def test_multi_way_slots(self):
        pta = PartialTagArray(positions=2, num_sets=4, ways=2)
        pta.update(0, 0, 0, 1)
        pta.update(0, 0, 1, 2)
        assert pta.matches(0, 1) == [0]
        assert pta.matches(0, 2) == [0]

    def test_overwriting_way_changes_match(self):
        pta = PartialTagArray(positions=2, num_sets=4)
        pta.update(0, 0, 0, 1)
        pta.update(0, 0, 0, 2)
        assert pta.matches(0, 1) == []
        assert pta.matches(0, 2) == [0]

    def test_position_bounds_checked(self):
        pta = PartialTagArray(positions=4, num_sets=4)
        with pytest.raises(IndexError):
            pta.update(4, 0, 0, 1)
        with pytest.raises(IndexError):
            pta.update(0, 4, 0, 1)

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            PartialTagArray(positions=0, num_sets=4)


#: entry point -> (call with a position, set and way index, indices it takes)
ENTRY_POINTS = {
    "update": (lambda pta, p, s, w: pta.update(p, s, w, 5),
               ("position", "set", "way")),
    "stored": (lambda pta, p, s, w: pta.stored(p, s, w),
               ("position", "set", "way")),
    "matches": (lambda pta, p, s, w: pta.matches(s, 5), ("set",)),
    "first_empty": (lambda pta, p, s, w: pta.first_empty(s), ("set",)),
    "swap": (lambda pta, p, s, w: pta.swap(s, w, p, 1),
             ("position", "set", "way")),
    "swap_other": (lambda pta, p, s, w: pta.swap(s, w, 1, p), ("position",)),
}
SIZES = {"position": 4, "set": 8, "way": 2}


@pytest.mark.parametrize("entry,axis,bad", [
    (entry, axis, bad)
    for entry, (_, axes) in sorted(ENTRY_POINTS.items())
    for axis in axes for bad in ("-1", "size")
])
def test_out_of_range_index_raises(entry, axis, bad):
    """A bad index never reaches another (position, set, way) slot."""
    pta = PartialTagArray(positions=4, num_sets=8, ways=2)
    for position in range(4):
        for set_index in range(8):
            pta.update(position, set_index, 0, position * 8 + set_index)
    before = [pta.stored(p, s, w) for p in range(4) for s in range(8)
              for w in range(2)]
    index = {axis: -1 if bad == "-1" else SIZES[axis]}
    call, _ = ENTRY_POINTS[entry]
    with pytest.raises(IndexError):
        call(pta, index.get("position", 0), index.get("set", 0),
             index.get("way", 0))
    assert [pta.stored(p, s, w) for p in range(4) for s in range(8)
            for w in range(2)] == before


def test_swap_exchanges_two_positions_of_one_way():
    pta = PartialTagArray(positions=3, num_sets=2, ways=2)
    pta.update(0, 1, 1, 5)
    pta.update(2, 1, 1, 70)
    pta.update(2, 1, 0, 9)
    pta.swap(1, 1, 0, 2)
    assert [pta.stored(p, 1, 1) for p in range(3)] == [70 & 0x3F, None, 5]
    assert pta.stored(2, 1, 0) == 9
    pta.swap(1, 1, 2, 1)  # with an empty slot
    assert [pta.stored(p, 1, 1) for p in range(3)] == [70 & 0x3F, 5, None]


def test_first_empty_is_nearest_position_then_way():
    pta = PartialTagArray(positions=3, num_sets=2, ways=2)
    assert pta.first_empty(1) == (0, 0)
    pta.update(0, 1, 0, 9)
    assert pta.first_empty(1) == (0, 1)
    pta.update(0, 1, 1, 9)
    pta.update(1, 1, 1, 9)
    assert pta.first_empty(1) == (1, 0)
    for position in range(3):
        for way in range(2):
            pta.update(position, 1, way, 9)
    assert pta.first_empty(1) is None
    assert pta.first_empty(0) == (0, 0)


@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 3),
                          st.integers(0, 2**20)), max_size=80))
def test_matches_agree_with_reference(ops):
    """Every stored tag must be findable; matches are exactly the
    positions whose stored partial tag equals the query's."""
    pta = PartialTagArray(positions=8, num_sets=4)
    stored = {}
    for position, set_index, tag in ops:
        pta.update(position, set_index, 0, tag)
        stored[(position, set_index)] = partial_tag(tag)
    for (position, set_index), ptag in stored.items():
        query_tag = ptag  # a tag with this partial
        expected = sorted(
            p for (p, s), v in stored.items() if s == set_index and v == ptag
        )
        assert pta.matches(set_index, query_tag) == expected

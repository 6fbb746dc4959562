"""Tests for trace analysis (footprint, reuse distance, miss prediction)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.stats import (
    footprint,
    predict_miss_ratio,
    reuse_distance_histogram,
    summarize,
)
from repro.workloads.synthetic import TraceSpec, generate_trace
from repro.workloads.trace import Reference


def refs(blocks, write=False):
    return [Reference(10, b * 64, write, False) for b in blocks]


class TestFootprint:
    def test_counts_unique_blocks(self):
        assert footprint(refs([1, 2, 2, 3])) == 3 * 64

    def test_sub_block_addresses_merge(self):
        trace = [Reference(1, 0, False, False), Reference(1, 32, False, False)]
        assert footprint(trace) == 64

    def test_empty(self):
        assert footprint([]) == 0


class TestReuseDistance:
    def test_first_touches_are_cold(self):
        hist = reuse_distance_histogram(refs([1, 2, 3]))
        assert hist == {None: 3}

    def test_immediate_rereference_is_distance_zero(self):
        hist = reuse_distance_histogram(refs([1, 1]))
        assert hist[0] == 1

    def test_classic_stack_distances(self):
        # a b c a : a's reuse distance is 2 (b and c in between).
        hist = reuse_distance_histogram(refs([1, 2, 3, 1]))
        assert hist[2] == 1
        assert hist[None] == 3

    def test_repeated_scan(self):
        # Scanning N blocks twice gives every reuse distance N-1.
        blocks = list(range(5)) * 2
        hist = reuse_distance_histogram(refs(blocks))
        assert hist[4] == 5

    def test_distances_beyond_cap_fold_to_cold(self):
        blocks = list(range(10)) + [0]
        hist = reuse_distance_histogram(refs(blocks), max_tracked=4)
        assert hist.get(9) is None
        assert hist[None] == 11


class TestMissPrediction:
    def test_fits_entirely(self):
        trace = refs(list(range(8)) * 10)
        # Capacity of 8 blocks: only the 8 cold misses.
        assert predict_miss_ratio(trace, 8 * 64) == pytest.approx(8 / 80)

    def test_thrashing_loop(self):
        """A cyclic scan one block larger than capacity misses always
        under LRU — the classic worst case."""
        trace = refs(list(range(9)) * 10)
        assert predict_miss_ratio(trace, 8 * 64) == 1.0

    def test_empty_trace(self):
        assert predict_miss_ratio([], 1024) == 0.0

    def test_monotone_in_capacity(self):
        spec = TraceSpec(mean_gap=10.0, hot_blocks=2_000, stream_fraction=0.3)
        trace = generate_trace(spec, 4_000, seed=3)
        ratios = [predict_miss_ratio(trace, capacity)
                  for capacity in (16 * 1024, 64 * 1024, 16 * 2**20)]
        assert ratios[0] >= ratios[1] >= ratios[2]

    def test_prediction_tracks_streaming_fraction(self):
        spec = TraceSpec(mean_gap=10.0, hot_blocks=500, stream_fraction=0.7)
        trace = generate_trace(spec, 6_000, seed=1)
        predicted = predict_miss_ratio(trace, 16 * 2**20)
        assert predicted == pytest.approx(0.7, abs=0.1)


class TestSummarize:
    def test_summary_fields(self):
        spec = TraceSpec(mean_gap=20.0, hot_blocks=100, write_fraction=0.4)
        trace = generate_trace(spec, 2_000, seed=0)
        summary = summarize(trace)
        assert summary.references == 2_000
        assert summary.write_fraction == pytest.approx(0.4, abs=0.05)
        assert summary.l2_refs_per_kinstr == pytest.approx(50.0, rel=0.1)
        assert summary.footprint_bytes <= 100 * 64

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 30), min_size=1, max_size=300))
def test_stack_distance_matches_reference(blocks):
    """Property: the histogram agrees with a naive stack simulation."""
    trace = refs(blocks)
    hist = reuse_distance_histogram(trace)

    stack = []
    expected = {}
    for b in blocks:
        if b in stack:
            d = len(stack) - 1 - stack.index(b)
            stack.remove(b)
        else:
            d = None
        stack.append(b)
        expected[d] = expected.get(d, 0) + 1
    assert hist == expected

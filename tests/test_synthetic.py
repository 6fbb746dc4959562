"""Tests for the synthetic trace generators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.synthetic import (
    L2_CAPACITY_BLOCKS,
    TraceSpec,
    generate_trace,
    resident_block_addresses,
    scatter_block,
    _scatter_array,
)


class TestTraceSpecValidation:
    def test_defaults_valid(self):
        TraceSpec(mean_gap=10.0)

    def test_gap_too_small(self):
        with pytest.raises(ValueError):
            TraceSpec(mean_gap=0.5)

    def test_fractions_must_sum_to_one_or_less(self):
        with pytest.raises(ValueError):
            TraceSpec(mean_gap=10, stream_fraction=0.7, cold_fraction=0.5)

    def test_probabilities_bounded(self):
        with pytest.raises(ValueError):
            TraceSpec(mean_gap=10, write_fraction=1.5)

    def test_interleave_bounded(self):
        with pytest.raises(ValueError):
            TraceSpec(mean_gap=10, stream_blocks=4, stream_interleave=8)

    def test_region_beyond_int64_addresses_rejected(self):
        # 2**58 blocks of 64 bytes would take byte addresses past int64.
        with pytest.raises(ValueError, match="stream_blocks"):
            TraceSpec(mean_gap=10.0, stream_fraction=0.5,
                      stream_blocks=2**58, scatter=False)

    @pytest.mark.parametrize("name", ["hot_blocks", "stream_blocks"])
    def test_region_must_end_before_the_next_base(self, name):
        TraceSpec(mean_gap=10.0, **{name: 2**26})
        with pytest.raises(ValueError, match=name):
            TraceSpec(mean_gap=10.0, **{name: 2**26 + 1})

    @pytest.mark.parametrize("scatter, limit", [(True, 2**40),
                                                (False, 2**57)])
    def test_cold_region_stays_one_to_one(self, scatter, limit):
        # The scatter permutes 40-bit block numbers; plain byte
        # addresses must fit int64.
        largest = limit - 2**27
        TraceSpec(mean_gap=10.0, cold_blocks=largest, scatter=scatter)
        with pytest.raises(ValueError, match="cold_blocks"):
            TraceSpec(mean_gap=10.0, cold_blocks=largest + 1,
                      scatter=scatter)

    @pytest.mark.parametrize("name, value, others", [
        ("stream_fraction", -0.5, {"cold_fraction": 0.6}),
        ("cold_fraction", -0.5, {"stream_fraction": 0.6}),
        ("stream_fraction", 1.5, {"cold_fraction": -0.6}),
        ("stream_fraction", float("nan"), {}),
        ("cold_fraction", float("nan"), {}),
    ], ids=["negative-stream", "negative-cold", "stream-above-one",
            "nan-stream", "nan-cold"])
    def test_each_mixture_fraction_is_a_probability(self, name, value,
                                                    others):
        """A sum in [0, 1] is not enough: from stream -0.5 and cold 0.6
        the generator would draw a trace about 10 % cold, not 60 %."""
        with pytest.raises(ValueError, match=name):
            TraceSpec(mean_gap=10.0, **{name: value}, **others)

    @pytest.mark.parametrize("gap", [float("nan"), float("inf")])
    def test_mean_gap_must_be_finite(self, gap):
        """From a NaN gap the generator would draw every gap as 1."""
        with pytest.raises(ValueError, match="mean_gap"):
            TraceSpec(mean_gap=gap)

    @pytest.mark.parametrize("skew", [0.0, -1.0, 0.5, float("nan"),
                                      float("inf")])
    def test_hot_skew_must_be_finite_and_at_least_one(self, skew):
        """The skew is defined from 1.0 (uniform) up.  Below it the
        rank formula can leave the hot region: with 16 hot blocks,
        skew 0 would draw rank 16 and skew -1 ranks in the tens of
        thousands."""
        with pytest.raises(ValueError, match="hot_skew"):
            TraceSpec(mean_gap=10.0, hot_blocks=16, hot_skew=skew)

    @pytest.mark.parametrize("name", ["hot_blocks", "stream_blocks",
                                      "cold_blocks", "stream_interleave"])
    @pytest.mark.parametrize("value", [10.5, 16.0, True])
    def test_block_counts_must_be_integers(self, name, value):
        """A fractional count disagrees with the pre-warm: hot_blocks=10.5
        draws hot blocks 0-10 while the resident set installs blocks 9
        down to -1, the last at byte address -64.  True is not a count."""
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            TraceSpec(mean_gap=10.0, **{name: value})

    def test_numpy_block_counts_are_integers(self):
        TraceSpec(mean_gap=10.0, hot_blocks=np.int64(16))

    def test_largest_regions_map_to_real_addresses(self):
        stream = TraceSpec(mean_gap=10.0, stream_fraction=0.5,
                           stream_blocks=2**26, scatter=False)
        assert resident_block_addresses(stream).max() == (2**27 - 1) * 64
        cold = TraceSpec(mean_gap=10.0, cold_fraction=1.0,
                         cold_blocks=2**57 - 2**27, scatter=False)
        addrs = [ref.addr for ref in generate_trace(cold, 500, seed=3)]
        assert all(2**33 <= addr < 2**63 for addr in addrs)


class TestScatter:
    def test_bijective_on_large_range(self):
        xs = np.arange(500_000, dtype=np.int64)
        ys = _scatter_array(xs)
        assert len(np.unique(ys)) == len(xs)

    def test_scalar_matches_vector(self):
        xs = np.array([0, 1, 12345, 2**30], dtype=np.int64)
        ys = _scatter_array(xs)
        for x, y in zip(xs, ys):
            assert scatter_block(int(x)) == int(y)

    def test_output_within_40_bits(self):
        assert scatter_block(2**39) < 2**40

    def test_tags_become_diverse(self):
        """Consecutive blocks must not share tag bits after scattering."""
        tags = {scatter_block(b) >> 14 for b in range(100)}
        assert len(tags) > 90


class TestGeneration:
    def test_deterministic_for_seed(self):
        spec = TraceSpec(mean_gap=20.0, hot_blocks=1000)
        assert generate_trace(spec, 500, seed=3) == generate_trace(spec, 500, seed=3)

    def test_different_seeds_differ(self):
        spec = TraceSpec(mean_gap=20.0, hot_blocks=1000)
        assert generate_trace(spec, 500, seed=3) != generate_trace(spec, 500, seed=4)

    def test_length(self):
        spec = TraceSpec(mean_gap=20.0)
        assert len(generate_trace(spec, 777, seed=0)) == 777

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            generate_trace(TraceSpec(mean_gap=10), 0)

    def test_addresses_block_aligned(self):
        spec = TraceSpec(mean_gap=10.0, stream_fraction=0.3, cold_fraction=0.3)
        for ref in generate_trace(spec, 300, seed=1):
            assert ref.addr % 64 == 0

    def test_mean_gap_approximately_respected(self):
        spec = TraceSpec(mean_gap=50.0)
        trace = generate_trace(spec, 20_000, seed=2)
        mean = sum(r.gap for r in trace) / len(trace)
        assert mean == pytest.approx(50.0, rel=0.05)

    def test_write_fraction_respected(self):
        spec = TraceSpec(mean_gap=10.0, write_fraction=0.4)
        trace = generate_trace(spec, 20_000, seed=2)
        frac = sum(r.write for r in trace) / len(trace)
        assert frac == pytest.approx(0.4, abs=0.02)

    def test_writes_are_never_dependent(self):
        spec = TraceSpec(mean_gap=10.0, write_fraction=0.5,
                         dependent_fraction=0.9)
        for ref in generate_trace(spec, 2_000, seed=0):
            assert not (ref.write and ref.dependent)

    def test_region_shares_follow_the_spec(self):
        spec = TraceSpec(mean_gap=10.0, hot_blocks=1_000,
                         stream_fraction=0.3, cold_fraction=0.2,
                         scatter=False)
        blocks = np.array([ref.addr // 64
                           for ref in generate_trace(spec, 20_000, seed=2)])
        stream = ((blocks >= 1 << 26) & (blocks < 1 << 27)).mean()
        cold = (blocks >= 1 << 27).mean()
        assert stream == pytest.approx(0.3, abs=0.02)
        assert cold == pytest.approx(0.2, abs=0.02)
        assert 1 - stream - cold == pytest.approx(0.5, abs=0.02)

    def test_pure_hot_spec_stays_in_hot_population(self):
        spec = TraceSpec(mean_gap=10.0, hot_blocks=256, scatter=False)
        trace = generate_trace(spec, 5_000, seed=0)
        blocks = {r.addr // 64 for r in trace}
        assert blocks <= set(range(256))

    def test_hot_skew_concentrates_references(self):
        flat = TraceSpec(mean_gap=10.0, hot_blocks=10_000, hot_skew=1.0,
                         scatter=False)
        skewed = TraceSpec(mean_gap=10.0, hot_blocks=10_000, hot_skew=4.0,
                           scatter=False)
        def top100_mass(spec):
            trace = generate_trace(spec, 20_000, seed=5)
            return sum(1 for r in trace if r.addr // 64 < 100) / len(trace)
        assert top100_mass(skewed) > 3 * top100_mass(flat)

    def test_stream_never_repeats_within_footprint(self):
        spec = TraceSpec(mean_gap=10.0, stream_fraction=1.0,
                         stream_blocks=1 << 22, scatter=False)
        trace = generate_trace(spec, 10_000, seed=0)
        addrs = [r.addr for r in trace]
        assert len(set(addrs)) == len(addrs)

    def test_interleaved_streams_advance_in_lanes(self):
        spec = TraceSpec(mean_gap=10.0, stream_fraction=1.0,
                         stream_blocks=1 << 20, stream_interleave=4,
                         scatter=False)
        trace = generate_trace(spec, 100, seed=0)
        blocks = [r.addr // 64 for r in trace]
        lane_size = (1 << 20) // 4
        lanes = sorted({b % (1 << 26) // lane_size for b in blocks[:4]})
        assert len(lanes) == 4


class TestResidentBlocks:
    def test_hot_only_spec(self):
        spec = TraceSpec(mean_gap=10.0, hot_blocks=100, scatter=False)
        resident = resident_block_addresses(spec)
        assert len(resident) == 100
        # Least popular (highest rank) first.
        assert resident[0] == 99 * 64
        assert resident[-1] == 0

    def test_stream_residue_bounded_by_capacity(self):
        spec = TraceSpec(mean_gap=10.0, hot_blocks=10,
                         stream_fraction=0.5, stream_blocks=1 << 23)
        resident = resident_block_addresses(spec)
        assert len(resident) <= L2_CAPACITY_BLOCKS + 10

    def test_residue_addresses_unique(self):
        spec = TraceSpec(mean_gap=10.0, hot_blocks=50,
                         stream_fraction=0.5, stream_blocks=1 << 20,
                         stream_interleave=4)
        resident = resident_block_addresses(spec)
        assert len(set(resident)) == len(resident)

    def test_scatter_consistent_with_trace(self):
        """Pre-warmed hot blocks must be the blocks the trace references."""
        spec = TraceSpec(mean_gap=10.0, hot_blocks=64)
        resident = set(resident_block_addresses(spec))
        trace = generate_trace(spec, 2_000, seed=1)
        assert {r.addr for r in trace} <= resident


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=10_000),
       st.integers(min_value=0, max_value=2**31))
def test_generation_deterministic_property(n, seed):
    spec = TraceSpec(mean_gap=15.0, hot_blocks=512, stream_fraction=0.2)
    assert generate_trace(spec, n, seed) == generate_trace(spec, n, seed)

"""Property-based tests for the stats primitives (Hypothesis).

The grid figures are derived entirely from :class:`Histogram` and
:class:`UtilizationMeter` aggregates, so their invariants — percentile
monotonicity, CDF behavior, the utilization clamp — are load-bearing
for every table.  Hypothesis drives them with arbitrary event streams
instead of the unit tests' hand-picked samples.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.obs.registry import MetricsRegistry  # noqa: E402
from repro.sim.stats import Histogram, UtilizationMeter  # noqa: E402

#: Arbitrary weighted samples: (value in cycles, weight >= 1).
samples = st.lists(
    st.tuples(st.integers(-1_000, 1_000), st.integers(1, 5)),
    min_size=1, max_size=50)

fractions = st.floats(0.0, 1.0, allow_nan=False)


def build(entries) -> Histogram:
    histogram = Histogram()
    for value, weight in entries:
        histogram.record(value, weight)
    return histogram


class TestHistogramProperties:
    @settings(max_examples=200)
    @given(entries=samples, p1=fractions, p2=fractions)
    def test_percentile_is_monotone(self, entries, p1, p2):
        histogram = build(entries)
        low, high = sorted((p1, p2))
        assert histogram.percentile(low) <= histogram.percentile(high)

    @settings(max_examples=200)
    @given(entries=samples, p=fractions)
    def test_percentile_stays_within_range(self, entries, p):
        histogram = build(entries)
        assert histogram.min <= histogram.percentile(p) <= histogram.max

    @settings(max_examples=200)
    @given(entries=samples)
    def test_percentile_endpoints(self, entries):
        histogram = build(entries)
        assert histogram.percentile(0.0) == histogram.min
        assert histogram.percentile(1.0) == histogram.max

    @settings(max_examples=200)
    @given(entries=samples)
    def test_mean_bounded_by_extremes(self, entries):
        histogram = build(entries)
        assert histogram.min <= histogram.mean <= histogram.max

    @settings(max_examples=200)
    @given(entries=samples, p=fractions)
    def test_percentile_agrees_with_cdf(self, entries, p):
        """percentile(p) is the smallest recorded value whose CDF >= p."""
        histogram = build(entries)

        def cdf(value):
            covered = sum(n for v, n in histogram.items() if v <= value)
            return covered / histogram.count

        value = histogram.percentile(p)
        assert cdf(value) >= min(p, 1.0) - 1e-12
        if value > histogram.min:
            below = max(v for v, _ in histogram.items() if v < value)
            # Tolerance covers float rounding of p * count at the boundary.
            assert cdf(below) < p + 1e-9

    @settings(max_examples=100)
    @given(entries=samples)
    def test_count_and_clear_round_trip(self, entries):
        histogram = build(entries)
        assert histogram.count == sum(weight for _, weight in entries)
        histogram.clear()
        assert histogram.count == 0
        assert histogram.mean == 0.0


#: Interleaved histogram operations: ("record", value, weight) or ("clear",).
operations = st.lists(
    st.one_of(
        st.tuples(st.just("record"), st.integers(-1_000, 1_000),
                  st.integers(1, 5)),
        st.tuples(st.just("clear"))),
    max_size=60)


@settings(max_examples=200)
@given(ops=operations)
def test_histogram_matches_a_plain_list_of_samples(ops):
    """The histogram keeps only its bins, and count and mean are summed
    over them when read: after any mix of records and clears, every
    reading equals the one computed from a plain list of the samples
    recorded since the last clear."""
    registry = MetricsRegistry()
    histogram = registry.histogram("lookup")
    samples = []
    for op in ops:
        if op[0] == "clear":
            histogram.clear()
            samples.clear()
        else:
            _, value, weight = op
            histogram.record(value, weight)
            samples.extend([value] * weight)

    assert histogram.count == len(samples)
    assert histogram.mean == (sum(samples) / len(samples) if samples else 0.0)
    expected_items = sorted(
        (value, samples.count(value)) for value in set(samples))
    assert list(histogram.items()) == expected_items
    if samples:
        assert histogram.min == min(samples)
        assert histogram.max == max(samples)
    else:
        with pytest.raises(ValueError):
            histogram.min
        with pytest.raises(ValueError):
            histogram.max
    assert registry.snapshot()["lookup"] == {
        "count": len(samples),
        "mean": sum(samples) / len(samples) if samples else 0.0,
        "min": min(samples) if samples else None,
        "max": max(samples) if samples else None,
        "bins": {str(value): n for value, n in expected_items},
    }


#: Streams of busy() charges plus the elapsed window to evaluate at.
busy_streams = st.lists(st.integers(0, 10_000), max_size=50)


class TestUtilizationMeterProperties:
    @settings(max_examples=200)
    @given(stream=busy_streams, resources=st.integers(1, 64),
           elapsed=st.integers(0, 5_000))
    def test_clamp_invariants(self, stream, resources, elapsed):
        meter = UtilizationMeter(resources)
        for cycles in stream:
            meter.busy(cycles)
        raw = meter.raw_utilization(elapsed)
        clamped = meter.utilization(elapsed)
        assert 0.0 <= clamped <= 1.0
        assert clamped == min(1.0, raw)
        assert meter.saturated == (raw > 1.0)

    @settings(max_examples=200)
    @given(stream=busy_streams, resources=st.integers(1, 64),
           elapsed=st.integers(1, 5_000))
    def test_busy_accounting_is_additive(self, stream, resources, elapsed):
        meter = UtilizationMeter(resources)
        for cycles in stream:
            meter.busy(cycles)
        assert meter.busy_cycles == sum(stream)
        assert meter.raw_utilization(elapsed) == pytest.approx(
            sum(stream) / (elapsed * resources))

    @settings(max_examples=100)
    @given(stream=busy_streams, resources=st.integers(1, 64))
    def test_saturation_latch_survives_later_reads(self, stream, resources):
        meter = UtilizationMeter(resources)
        meter.busy(resources * 10 + sum(stream))
        meter.utilization(1)  # forces a clamp
        assert meter.saturated
        meter.utilization(10 ** 9)  # a later in-range read keeps the latch
        assert meter.saturated
        meter.reset()
        assert not meter.saturated
        assert meter.busy_cycles == 0

    @settings(max_examples=100)
    @given(resources=st.integers(1, 64), elapsed=st.integers(-100, 0))
    def test_degenerate_window_reads_zero(self, resources, elapsed):
        meter = UtilizationMeter(resources)
        meter.busy(123)
        assert meter.utilization(elapsed) == 0.0
        assert not meter.saturated

    @given(cycles=st.integers(-1_000, -1))
    def test_negative_busy_rejected(self, cycles):
        meter = UtilizationMeter(4)
        with pytest.raises(ValueError):
            meter.busy(cycles)

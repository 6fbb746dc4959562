"""Tests for counters, histograms, and utilization meters."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.stats import Counter, Histogram, UtilizationMeter


class TestCounter:
    def test_missing_name_is_zero(self):
        assert Counter()["nothing"] == 0

    def test_add_accumulates(self):
        c = Counter()
        c.add("hits")
        c.add("hits", 4)
        assert c["hits"] == 5

    def test_contains(self):
        c = Counter()
        c.add("x")
        assert "x" in c and "y" not in c

    def test_iteration_is_sorted(self):
        c = Counter()
        c.add("zeta")
        c.add("alpha")
        assert [name for name, _ in c] == ["alpha", "zeta"]

    def test_ratio(self):
        c = Counter()
        c.add("hits", 3)
        c.add("requests", 4)
        assert c.ratio("hits", "requests") == pytest.approx(0.75)

    def test_ratio_zero_denominator(self):
        assert Counter().ratio("a", "b") == 0.0

    def test_as_dict_is_a_copy(self):
        c = Counter()
        c.add("x")
        d = c.as_dict()
        d["x"] = 99
        assert c["x"] == 1


class TestHistogram:
    def test_empty_mean_is_zero(self):
        assert Histogram().mean == 0.0

    def test_mean(self):
        h = Histogram()
        for v in (10, 20, 30):
            h.record(v)
        assert h.mean == pytest.approx(20.0)

    def test_weighted_record(self):
        h = Histogram()
        h.record(5, weight=3)
        assert h.count == 3
        assert h.mean == pytest.approx(5.0)

    def test_min_max(self):
        h = Histogram()
        h.record(7)
        h.record(3)
        assert (h.min, h.max) == (3, 7)

    def test_min_of_empty_raises(self):
        with pytest.raises(ValueError):
            Histogram().min

    def test_fraction_at(self):
        h = Histogram()
        h.record(10, 3)
        h.record(20, 1)
        assert h.fraction_at(10) == pytest.approx(0.75)
        assert h.fraction_at(99) == 0.0

    def test_fraction_at_most(self):
        h = Histogram()
        for v in (1, 2, 3, 4):
            h.record(v)
        assert h.fraction_at_most(2) == pytest.approx(0.5)

    def test_percentile(self):
        h = Histogram()
        for v in range(1, 11):
            h.record(v)
        assert h.percentile(0.5) == 5
        assert h.percentile(1.0) == 10

    def test_percentile_validation(self):
        h = Histogram()
        h.record(1)
        with pytest.raises(ValueError):
            h.percentile(1.5)
        with pytest.raises(ValueError):
            Histogram().percentile(0.5)

    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1))
    def test_mean_matches_reference(self, values):
        h = Histogram()
        for v in values:
            h.record(v)
        assert h.mean == pytest.approx(sum(values) / len(values))
        assert h.min == min(values)
        assert h.max == max(values)

    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=1),
           st.floats(min_value=0.0, max_value=1.0))
    def test_percentile_bounds_mass(self, values, p):
        h = Histogram()
        for v in values:
            h.record(v)
        cut = h.percentile(p)
        at_most = sum(1 for v in values if v <= cut)
        assert at_most >= p * len(values) - 1e-9


class TestUtilizationMeter:
    def test_basic_utilization(self):
        m = UtilizationMeter(resources=4)
        m.busy(10)
        m.busy(10)
        assert m.utilization(100) == pytest.approx(20 / 400)

    def test_zero_elapsed(self):
        m = UtilizationMeter(resources=1)
        m.busy(5)
        assert m.utilization(0) == 0.0

    def test_invalid_resources(self):
        with pytest.raises(ValueError):
            UtilizationMeter(resources=0)

    def test_negative_busy_rejected(self):
        with pytest.raises(ValueError):
            UtilizationMeter(resources=1).busy(-1)

    @given(st.lists(st.integers(min_value=0, max_value=50), max_size=50),
           st.integers(min_value=1, max_value=8))
    def test_utilization_formula(self, busies, resources):
        m = UtilizationMeter(resources=resources)
        for b in busies:
            m.busy(b)
        quotient = sum(busies) / (1000 * resources)
        # Up to 50 x 50 busy cycles can overfill a 1000-cycle window, and
        # utilization() clamps such a window to 1.0 (see its docstring).
        assert m.raw_utilization(1000) == pytest.approx(quotient)
        assert m.utilization(1000) == pytest.approx(min(quotient, 1.0))
        assert m.saturated == (quotient > 1.0)

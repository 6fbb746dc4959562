"""Tests for the ASCII figure rendering."""

import pytest

from repro.analysis.figures import grouped_bar_chart, horizontal_bar


class TestHorizontalBar:
    def test_full_scale(self):
        assert horizontal_bar(10, 10, width=8) == "########"

    def test_half_scale(self):
        assert horizontal_bar(5, 10, width=8) == "####"

    def test_clamped_at_width(self):
        assert horizontal_bar(50, 10, width=8) == "########"

    def test_zero_scale(self):
        assert horizontal_bar(5, 0, width=8) == ""

    def test_custom_glyph(self):
        assert horizontal_bar(10, 10, width=3, glyph="*") == "***"


class TestGroupedBarChart:
    def _series(self):
        return {
            "DNUCA": {"gcc": 0.84, "mcf": 0.96},
            "TLC": {"gcc": 0.75, "mcf": 0.66},
        }

    def test_contains_all_labels_and_values(self):
        chart = grouped_bar_chart(self._series(), ["gcc", "mcf"],
                                  title="Fig")
        assert "Fig" in chart
        for token in ("DNUCA", "TLC", "gcc", "mcf", "0.84", "0.66"):
            assert token in chart

    def test_legend_lists_series(self):
        chart = grouped_bar_chart(self._series(), ["gcc"])
        assert "legend:" in chart
        assert "#=DNUCA" in chart and "*=TLC" in chart

    def test_longer_bar_for_larger_value(self):
        chart = grouped_bar_chart(self._series(), ["mcf"], width=30)
        dnuca_line = next(l for l in chart.splitlines() if "DNUCA" in l)
        tlc_line = next(l for l in chart.splitlines() if "TLC" in l)
        assert dnuca_line.count("#") > tlc_line.count("*") * 0.9

    def test_reference_line_marker(self):
        series = {"X": {"a": 0.5}}
        chart = grouped_bar_chart(series, ["a"], width=20, scale=2.0,
                                  reference_line=1.5)
        assert "|" in chart

    def test_missing_category_renders_zero(self):
        chart = grouped_bar_chart({"X": {}}, ["a"])
        assert "0.00" in chart

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError, match="at least one series"):
            grouped_bar_chart({}, ["a"])

    def test_empty_categories_rejected(self):
        """Regression: used to escape as a bare ``max() arg is an empty
        sequence`` from the label-width computation."""
        with pytest.raises(ValueError, match="at least one category"):
            grouped_bar_chart({"TLC": {"gcc": 1.0}}, [])

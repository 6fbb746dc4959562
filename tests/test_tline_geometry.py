"""Tests for wire cross-section geometry (paper Table 1 / Figure 3)."""

import dataclasses

import pytest

from repro.tline.geometry import (
    CONVENTIONAL_GLOBAL_WIRE,
    TABLE1_LINES,
    WireGeometry,
    tl_geometry_for_length,
)


class TestTable1:
    def test_three_length_classes(self):
        assert len(TABLE1_LINES) == 3
        assert [g.length for g in TABLE1_LINES] == pytest.approx(
            [0.009, 0.011, 0.013])

    def test_published_dimensions(self):
        by_name = {g.name: g for g in TABLE1_LINES}
        short = by_name["tl-0.9cm"]
        assert short.width == pytest.approx(2.0e-6)
        assert short.spacing == pytest.approx(2.0e-6)
        assert short.height == pytest.approx(1.75e-6)
        assert short.thickness == pytest.approx(3.0e-6)
        long = by_name["tl-1.3cm"]
        assert long.width == pytest.approx(3.0e-6)
        assert long.spacing == pytest.approx(3.0e-6)

    def test_longer_lines_are_wider(self):
        widths = [g.width for g in TABLE1_LINES]
        assert widths == sorted(widths)

    def test_constant_thickness_and_height(self):
        assert len({g.thickness for g in TABLE1_LINES}) == 1
        assert len({g.height for g in TABLE1_LINES}) == 1


class TestGeometryProperties:
    def test_pitch_includes_shield(self):
        g = TABLE1_LINES[0]
        assert g.pitch == pytest.approx(2 * (g.width + g.spacing))

    def test_cross_section_area(self):
        g = TABLE1_LINES[0]
        assert g.cross_section_area == pytest.approx(2.0e-6 * 3.0e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            WireGeometry("bad", length=0.01, width=-1e-6, spacing=1e-6,
                         height=1e-6, thickness=1e-6)


class TestFigure3Comparison:
    def test_tl_much_larger_than_conventional(self):
        """Figure 3: transmission lines dwarf conventional global wires."""
        tl = TABLE1_LINES[0]
        conv = CONVENTIONAL_GLOBAL_WIRE
        assert tl.width / conv.width > 5
        assert tl.thickness / conv.thickness > 5
        assert tl.cross_section_area / conv.cross_section_area > 25


class TestGeometryForLength:
    def test_short_lengths_use_smallest_class(self):
        g = tl_geometry_for_length(0.005)
        assert g.width == pytest.approx(2.0e-6)
        assert g.length == pytest.approx(0.005)

    def test_boundary_lengths(self):
        assert tl_geometry_for_length(0.009).width == pytest.approx(2.0e-6)
        assert tl_geometry_for_length(0.0091).width == pytest.approx(2.5e-6)
        assert tl_geometry_for_length(0.013).width == pytest.approx(3.0e-6)

    def test_too_long_raises(self):
        with pytest.raises(ValueError, match="1.40 cm"):
            tl_geometry_for_length(0.014)

    def test_non_positive_raises(self):
        with pytest.raises(ValueError):
            tl_geometry_for_length(0.0)

    def test_returns_new_instance_with_requested_length(self):
        g = tl_geometry_for_length(0.010)
        assert g.length == pytest.approx(0.010)
        # Table 1 entries themselves are untouched.
        assert TABLE1_LINES[1].length == pytest.approx(0.011)

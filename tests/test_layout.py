"""Tests for the TLC floorplan geometry (Figures 2 and 4)."""

import pytest

from repro.area.layout import (
    DEFAULT_DIE_EDGE_M,
    ROUTING_FACTOR,
    build_floorplan,
)
from repro.core.config import SNUCA2, TLC_BASE, TLC_OPT_350, TLC_OPT_500


class TestPlacement:
    @pytest.fixture(scope="class")
    def floorplan(self):
        return build_floorplan(TLC_BASE)

    def test_all_banks_placed(self, floorplan):
        assert len(floorplan.banks) == 32
        assert sorted(b.index for b in floorplan.banks) == list(range(32))

    def test_banks_split_between_edges(self, floorplan):
        centre = floorplan.die_edge_m / 2
        left = [b for b in floorplan.banks if b.x < centre]
        right = [b for b in floorplan.banks if b.x > centre]
        assert len(left) == len(right) == 16

    def test_banks_inside_die(self, floorplan):
        for bank in floorplan.banks:
            assert 0 <= bank.x - bank.width / 2
            assert bank.x + bank.width / 2 <= floorplan.die_edge_m + 1e-12
            assert 0 <= bank.y - bank.height / 2
            assert bank.y + bank.height / 2 <= floorplan.die_edge_m + 1e-12

    def test_banks_do_not_overlap(self, floorplan):
        placements = list(floorplan.banks)
        for i, a in enumerate(placements):
            for b in placements[i + 1:]:
                separated = (abs(a.x - b.x) >= (a.width + b.width) / 2 - 1e-12
                             or abs(a.y - b.y) >= (a.height + b.height) / 2 - 1e-12)
                assert separated, (a.index, b.index)

    def test_pairs_are_adjacent(self, floorplan):
        """The two banks of a pair share a column cell (same row)."""
        for pair in range(16):
            a = floorplan.banks[2 * pair]
            b = floorplan.banks[2 * pair + 1]
            assert abs(a.y - b.y) < 1e-12
            assert abs(a.x - b.x) <= a.width + 1e-12


class TestLineLengths:
    def test_base_design_spans_table1_envelope(self):
        floorplan = build_floorplan(TLC_BASE)
        assert min(floorplan.pair_line_lengths_m) == pytest.approx(
            0.009, abs=0.0005)
        assert floorplan.max_line_m == pytest.approx(0.013, abs=0.0005)
        assert floorplan.max_line_m <= 0.013

    def test_routing_factor_applied(self):
        floorplan = build_floorplan(TLC_BASE)
        assert ROUTING_FACTOR > 1.0
        # Direct distance from a corner pair cannot exceed the half
        # diagonal; the routed length must exceed the direct one.
        import math
        half_diagonal = math.hypot(DEFAULT_DIE_EDGE_M / 2,
                                   DEFAULT_DIE_EDGE_M / 2)
        assert floorplan.max_line_m < half_diagonal * ROUTING_FACTOR

    def test_opt_designs_fit_envelope_too(self):
        for config in (TLC_OPT_500, TLC_OPT_350):
            assert build_floorplan(config).max_line_m <= 0.013

    def test_symmetry_gives_length_quadruples(self):
        floorplan = build_floorplan(TLC_BASE)
        lengths = sorted(round(l, 6) for l in floorplan.pair_line_lengths_m)
        for i in range(0, len(lengths), 4):
            assert len({lengths[i + j] for j in range(4)}) == 1


class TestValidation:
    def test_rejects_nuca_configs(self):
        with pytest.raises(ValueError):
            build_floorplan(SNUCA2)

    def test_rejects_undersized_die(self):
        with pytest.raises(ValueError, match="too small"):
            build_floorplan(TLC_BASE, die_edge_m=2e-3)

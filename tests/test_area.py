"""Tests for the area / access-time / transistor models (Tables 7 and 8)."""

import pytest

from repro.area.cacti import (
    bank_access_time_cycles,
    bank_area_m2,
    peripheral_overhead_factor,
)
from repro.area.floorplan import dnuca_area, snuca_area, tlc_area
from repro.area.transistors import (
    dnuca_network_transistors,
    tlc_network_transistors,
)
from repro.tech import Technology


class TestBankAccessTime:
    """The model is pinned to the paper's three ECACTI results."""

    @pytest.mark.parametrize("size_kb,cycles", [(64, 3), (512, 8), (1024, 10)])
    def test_calibration_points(self, size_kb, cycles):
        assert bank_access_time_cycles(size_kb * 1024) == cycles

    def test_monotone_in_size(self):
        times = [bank_access_time_cycles(s * 1024) for s in (64, 128, 256, 512, 1024)]
        assert times == sorted(times)

    def test_scales_with_frequency(self):
        half_speed = Technology(name="5GHz", frequency_hz=5e9)
        assert bank_access_time_cycles(512 * 1024, half_speed) <= 4

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            bank_access_time_cycles(0)


class TestBankArea:
    def test_overhead_shrinks_with_size(self):
        assert (peripheral_overhead_factor(64 * 1024)
                > peripheral_overhead_factor(1024 * 1024))

    def test_area_superlinear_at_small_sizes(self):
        """Eight 64 KB banks consume more area than one 512 KB bank."""
        assert 8 * bank_area_m2(64 * 1024) > bank_area_m2(512 * 1024)


class TestTable7:
    """Shape: TLC saves ~18 % substrate area; channel shrinks, controller grows."""

    def test_dnuca_breakdown_near_paper(self):
        report = dnuca_area().as_mm2()
        assert report["storage_mm2"] == pytest.approx(92, rel=0.1)
        assert report["channel_mm2"] == pytest.approx(17, rel=0.25)
        assert report["controller_mm2"] == pytest.approx(1.1, rel=0.3)
        assert report["total_mm2"] == pytest.approx(110, rel=0.1)

    def test_tlc_breakdown_near_paper(self):
        report = tlc_area(total_lines=2048).as_mm2()
        assert report["storage_mm2"] == pytest.approx(77, rel=0.1)
        assert report["channel_mm2"] == pytest.approx(3.1, rel=0.3)
        assert report["controller_mm2"] == pytest.approx(10, rel=0.3)
        assert report["total_mm2"] == pytest.approx(91, rel=0.1)

    def test_tlc_saves_about_18_percent(self):
        dnuca = dnuca_area().total_m2
        tlc = tlc_area(total_lines=2048).total_m2
        saving = 1 - tlc / dnuca
        assert 0.12 < saving < 0.24

    def test_tlcopt_controllers_shrink_with_line_count(self):
        areas = [tlc_area(lines).controller_m2 for lines in (2048, 1008, 512, 352)]
        assert areas == sorted(areas, reverse=True)

    def test_snuca_storage_matches_tlc(self):
        assert snuca_area().storage_m2 == pytest.approx(
            tlc_area(2048).storage_m2)

    def test_invalid_lines(self):
        with pytest.raises(ValueError):
            tlc_area(total_lines=0)


class TestTable8:
    def test_dnuca_inventory_near_paper(self):
        report = dnuca_network_transistors()
        assert report.transistors == pytest.approx(1.2e7, rel=0.25)
        assert report.gate_width_mega_lambda == pytest.approx(440, rel=0.25)

    def test_tlc_inventory_near_paper(self):
        report = tlc_network_transistors(2048)
        assert report.transistors == pytest.approx(1.9e5, rel=0.15)
        assert report.gate_width_mega_lambda == pytest.approx(20, rel=0.15)

    def test_fifty_fold_transistor_reduction(self):
        dnuca = dnuca_network_transistors()
        tlc = tlc_network_transistors(2048)
        assert dnuca.transistors / tlc.transistors > 50

    def test_order_of_magnitude_gate_width_reduction(self):
        dnuca = dnuca_network_transistors()
        tlc = tlc_network_transistors(2048)
        assert dnuca.gate_width_lambda / tlc.gate_width_lambda > 10

    def test_breakdown_sums_to_total(self):
        for report in (dnuca_network_transistors(), tlc_network_transistors(2048)):
            assert sum(report.breakdown.values()) == report.transistors

    def test_tlc_scales_with_lines(self):
        assert (tlc_network_transistors(352).transistors
                == pytest.approx(tlc_network_transistors(2048).transistors
                                 * 352 / 2048))

    def test_invalid_lines(self):
        with pytest.raises(ValueError):
            tlc_network_transistors(0)

"""Tests for repro.tech: the technology parameter object."""

import math

import pytest

from repro.tech import TECH_45NM, Technology, C_LIGHT
from repro.tline.power import (
    conventional_energy_per_bit,
    transmission_line_energy_per_bit,
)


class TestTechnologyBasics:
    def test_default_is_45nm_10ghz(self):
        assert TECH_45NM.feature_nm == 45.0
        assert TECH_45NM.frequency_hz == 10e9

    def test_cycle_time_is_100ps(self):
        assert TECH_45NM.cycle_s == pytest.approx(100e-12)

    def test_technology_is_immutable(self):
        with pytest.raises(Exception):
            TECH_45NM.frequency_hz = 1e9  # frozen dataclass

    def test_custom_design_point(self):
        slow = Technology(name="90nm-5GHz", feature_nm=90.0, frequency_hz=5e9)
        assert slow.cycle_s == pytest.approx(200e-12)


class TestWaveVelocity:
    def test_velocity_below_speed_of_light(self):
        assert TECH_45NM.wave_velocity < C_LIGHT

    def test_velocity_follows_dielectric(self):
        expected = C_LIGHT / math.sqrt(TECH_45NM.dielectric_er)
        assert TECH_45NM.wave_velocity == pytest.approx(expected)

    def test_tl_flight_one_cm_under_a_cycle(self):
        # The paper's key fact: ~1 cm of transmission line flies in about
        # one 10 GHz cycle (v ~ 1.8e8 m/s -> 55 ps for 1 cm).
        cycles = TECH_45NM.tl_flight_cycles(1.0e-2)
        assert 0.3 < cycles < 1.0

    def test_tl_flight_scales_linearly(self):
        one = TECH_45NM.tl_flight_cycles(1.0e-2)
        two = TECH_45NM.tl_flight_cycles(2.0e-2)
        assert two == pytest.approx(2.0 * one)


class TestConventionalWireDelay:
    def test_repeated_wire_much_slower_than_tl(self):
        length = 1.3e-2
        conventional = TECH_45NM.conventional_delay_cycles(length)
        tline = TECH_45NM.tl_flight_cycles(length)
        # Section 1: transmission lines reduce delay by up to ~30x.
        assert conventional / tline > 10

    def test_cross_chip_conventional_delay_tens_of_cycles(self):
        # Section 1: crossing a 2 cm die takes over 25 cycles.
        assert TECH_45NM.conventional_delay_cycles(2.0e-2) > 25


class TestEnergyModels:
    def test_conventional_energy_scales_with_length(self):
        short = conventional_energy_per_bit(1e-3)
        long = conventional_energy_per_bit(10e-3)
        assert long == pytest.approx(10 * short)

    def test_tl_energy_matched_source_default(self):
        explicit = transmission_line_energy_per_bit(50.0, rd_ohm=50.0)
        default = transmission_line_energy_per_bit(50.0)
        assert default == pytest.approx(explicit)

    def test_tl_energy_decreases_with_impedance(self):
        assert (transmission_line_energy_per_bit(80.0)
                < transmission_line_energy_per_bit(30.0))

    def test_tl_energy_formula(self):
        # E = t_b * V^2 / (R_D + Z_0) per the paper's equation.
        z0 = 40.0
        expected = TECH_45NM.cycle_s * TECH_45NM.vdd ** 2 / (2 * z0)
        assert transmission_line_energy_per_bit(z0) == pytest.approx(expected)

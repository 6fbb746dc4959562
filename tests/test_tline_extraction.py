"""Tests for quasi-static RLC extraction (the Linpar substitute)."""

import math

import numpy as np
import pytest

from repro.tech import TECH_45NM, MU_0, EPS_0, Technology
from repro.tline.extraction import extract
from repro.tline.geometry import TABLE1_LINES, tl_geometry_for_length


@pytest.fixture(scope="module")
def lines():
    return [extract(g) for g in TABLE1_LINES]


class TestStaticParameters:
    def test_lc_product_is_tem(self, lines):
        """Homogeneous dielectric: L*C = mu0*eps0*er exactly."""
        for line in lines:
            expected = MU_0 * EPS_0 * TECH_45NM.dielectric_er
            assert line.l_per_m * line.c_per_m == pytest.approx(expected)

    def test_impedance_in_practical_range(self, lines):
        for line in lines:
            assert 20.0 < line.z0 < 80.0

    def test_velocity_matches_dielectric(self, lines):
        expected = TECH_45NM.wave_velocity
        for line in lines:
            # rel=1e-3: C_LIGHT is rounded to 2.998e8 in repro.tech.
            assert line.velocity == pytest.approx(expected, rel=1e-3)

    def test_flight_time_under_a_cycle(self, lines):
        """Every Table 1 line flies in less than one 10 GHz cycle."""
        for line in lines:
            assert line.flight_time < TECH_45NM.cycle_s

    def test_dc_resistance_formula(self, lines):
        g = TABLE1_LINES[0]
        expected = TECH_45NM.resistivity / (g.width * g.thickness)
        assert lines[0].r_dc_per_m == pytest.approx(expected)

    def test_wider_lines_have_lower_resistance(self, lines):
        r = [line.r_dc_per_m for line in lines]
        assert r[0] > r[1] > r[2]


class TestSkinEffect:
    def test_skin_depth_decreases_with_frequency(self, lines):
        line = lines[0]
        assert line.skin_depth(1e9) > line.skin_depth(10e9)

    def test_skin_depth_value_at_10ghz(self, lines):
        # delta = sqrt(rho / (pi f mu)): ~0.75 um for copper at 10 GHz.
        delta = float(lines[0].skin_depth(10e9))
        assert 0.5e-6 < delta < 1.1e-6

    def test_resistance_rises_with_frequency(self, lines):
        line = lines[0]
        assert float(line.r_per_m(10e9)) > float(line.r_per_m(1e8))

    def test_low_frequency_resistance_near_dc(self, lines):
        line = lines[0]
        # At low frequency the conduction shell fills the conductor.
        from repro.tline.extraction import RETURN_PATH_FACTOR
        assert float(line.r_per_m(1e3)) == pytest.approx(
            RETURN_PATH_FACTOR * line.r_dc_per_m, rel=1e-6)

    def test_vectorized_resistance(self, lines):
        freqs = np.array([1e8, 1e9, 1e10])
        r = lines[0].r_per_m(freqs)
        assert r.shape == (3,)
        assert r[0] <= r[1] <= r[2]


class TestPropagationConstant:
    def test_attenuation_grows_with_frequency(self, lines):
        line = lines[-1]
        assert line.gamma(10e9).real > line.gamma(1e9).real

    def test_attenuation_grows_with_length(self):
        """One-way attenuation in nepers: Re(gamma) times the length."""
        short = extract(tl_geometry_for_length(0.005))
        long = extract(tl_geometry_for_length(0.013))
        assert (long.gamma(5e9).real * long.geometry.length
                > short.gamma(5e9).real * short.geometry.length)

    def test_gamma_imaginary_part_is_phase(self, lines):
        """At high frequency, Im(gamma) ~ omega/velocity."""
        line = lines[0]
        freq = 20e9
        beta = float(np.imag(line.gamma(freq)))
        expected = 2 * math.pi * freq / line.velocity
        assert beta == pytest.approx(expected, rel=0.05)

    def test_z0_complex_converges_to_lossless(self, lines):
        line = lines[0]
        z_hi = complex(line.z0_complex(50e9))
        assert abs(z_hi) == pytest.approx(line.z0, rel=0.1)


class TestDesignPointSensitivity:
    def test_higher_er_slows_line(self):
        slow_tech = Technology(dielectric_er=3.9)  # conventional oxide
        fast = extract(TABLE1_LINES[0], TECH_45NM)
        slow = extract(TABLE1_LINES[0], slow_tech)
        assert slow.velocity < fast.velocity

    def test_geometry_monotonicity(self):
        """Wider and better-spaced lines -> higher impedance is NOT
        guaranteed, but capacitance per metre must increase with w/h."""
        import dataclasses
        narrow = TABLE1_LINES[0]
        wide = dataclasses.replace(narrow, width=narrow.width * 2)
        assert extract(wide).c_per_m > extract(narrow).c_per_m

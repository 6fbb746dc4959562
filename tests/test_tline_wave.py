"""Tests for frequency-domain pulse propagation (HSPICE W-element substitute)."""

import numpy as np
import pytest

from repro.tech import TECH_45NM
from repro.tline.extraction import extract
from repro.tline.geometry import TABLE1_LINES, tl_geometry_for_length
from repro.tline.wave import propagate_pulse, trapezoid_pulse


class TestTrapezoidPulse:
    def test_flat_top_at_vdd(self):
        t = np.linspace(0, 1e-9, 2000)
        v = trapezoid_pulse(t, vdd=1.0, start_s=0.2e-9, bit_time_s=0.3e-9,
                            rise_s=0.02e-9)
        mid = (t > 0.25e-9) & (t < 0.45e-9)
        assert np.allclose(v[mid], 1.0)

    def test_zero_before_start(self):
        t = np.linspace(0, 1e-9, 1000)
        v = trapezoid_pulse(t, 1.0, start_s=0.5e-9, bit_time_s=0.2e-9,
                            rise_s=0.05e-9)
        assert np.allclose(v[t < 0.5e-9], 0.0)

    def test_returns_to_zero(self):
        t = np.linspace(0, 2e-9, 2000)
        v = trapezoid_pulse(t, 1.0, start_s=0.1e-9, bit_time_s=0.2e-9,
                            rise_s=0.02e-9)
        assert np.allclose(v[t > 0.5e-9], 0.0)

    def test_width_at_half_amplitude_is_bit_time(self):
        t = np.linspace(0, 1e-9, 20000)
        bit = 0.3e-9
        v = trapezoid_pulse(t, 1.0, 0.1e-9, bit, rise_s=0.03e-9)
        above = t[v >= 0.5]
        assert (above[-1] - above[0]) == pytest.approx(bit, rel=0.05)


class TestPropagation:
    @pytest.fixture(scope="class")
    def short_line(self):
        return extract(TABLE1_LINES[0])

    def test_delay_close_to_flight_time(self, short_line):
        result = propagate_pulse(short_line, vdd=1.0, bit_time_s=100e-12)
        assert result.delay_s >= short_line.flight_time * 0.9
        assert result.delay_s <= short_line.flight_time + 40e-12

    def test_received_amplitude_below_drive(self, short_line):
        result = propagate_pulse(short_line, vdd=1.0, bit_time_s=100e-12)
        assert 0.0 < result.amplitude_v <= 1.05  # small ringing tolerated

    def test_longer_line_attenuates_more(self):
        short = extract(tl_geometry_for_length(0.005))
        long = extract(tl_geometry_for_length(0.013))
        a_short = propagate_pulse(short, 1.0, 100e-12).amplitude_fraction()
        a_long = propagate_pulse(long, 1.0, 100e-12).amplitude_fraction()
        assert a_long < a_short

    def test_longer_line_has_more_delay(self):
        short = extract(tl_geometry_for_length(0.005))
        long = extract(tl_geometry_for_length(0.013))
        d_short = propagate_pulse(short, 1.0, 100e-12).delay_s
        d_long = propagate_pulse(long, 1.0, 100e-12).delay_s
        assert d_long > d_short

    def test_width_roughly_preserved(self, short_line):
        """Dispersion rounds the pulse but must not swallow it."""
        result = propagate_pulse(short_line, vdd=1.0, bit_time_s=100e-12)
        assert result.width_s > 0.5 * 100e-12

    def test_overdamped_source_reduces_amplitude(self, short_line):
        matched = propagate_pulse(short_line, 1.0, 100e-12)
        weak = propagate_pulse(short_line, 1.0, 100e-12,
                               rd_ohm=5 * short_line.z0)
        assert weak.amplitude_v < matched.amplitude_v

    def test_fraction_helpers(self, short_line):
        result = propagate_pulse(short_line, vdd=0.9, bit_time_s=100e-12)
        assert result.amplitude_fraction() == pytest.approx(
            result.amplitude_v / 0.9)
        assert result.width_fraction(100e-12) == pytest.approx(
            result.width_s / 100e-12)

    def test_deterministic(self, short_line):
        a = propagate_pulse(short_line, 1.0, 100e-12)
        b = propagate_pulse(short_line, 1.0, 100e-12)
        assert np.array_equal(a.received_v, b.received_v)

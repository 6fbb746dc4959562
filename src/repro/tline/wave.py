"""Frequency-domain pulse propagation (the HSPICE W-element substitute).

The paper simulated 10 GHz pulses through its extracted lines with
HSPICE's W-element — itself a frequency-domain RLGC model — and accepted
a line if the received signal kept an amplitude of at least 75 % of Vdd
and a pulse width of at least 40 % of the cycle time.

We reproduce that flow directly: the driver launches a trapezoidal pulse
through a source resistance ``R_D`` into the line; the receiver is a
high-impedance (capacitive) termination that reflects the full wave, as
the paper describes.  The received voltage in the frequency domain is
the exact two-port solution

    V_rx(f) = V_s(f) * Zin/(Zin + R_D) * (1 + G_l) e^{-gl} / (1 + G_l e^{-2gl})

with ``G_l`` the receiver reflection coefficient and ``Zin`` the input
impedance of the terminated line, so every reflection, the skin-effect
dispersion, and the dielectric loss are all accounted for.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.tline.extraction import LineParameters


@dataclasses.dataclass(frozen=True)
class PulseResult:
    """Measured properties of a received pulse."""

    time_s: np.ndarray
    driver_v: np.ndarray
    received_v: np.ndarray
    vdd: float
    #: 50 %-of-Vdd crossing delay from driver input to receiver, seconds.
    delay_s: float
    #: peak received voltage, volts.
    amplitude_v: float
    #: received pulse width at 50 % of Vdd, seconds.
    width_s: float

    def amplitude_fraction(self) -> float:
        """Received amplitude as a fraction of Vdd."""
        return self.amplitude_v / self.vdd

    def width_fraction(self, cycle_s: float) -> float:
        """Received pulse width as a fraction of the clock cycle."""
        return self.width_s / cycle_s

def trapezoid_pulse(time_s: np.ndarray, vdd: float, start_s: float,
                    bit_time_s: float, rise_s: float) -> np.ndarray:
    """A single trapezoidal pulse: rise, hold, fall.

    ``bit_time_s`` is the flat-top duration measured at 50 % amplitude,
    matching how a one-cycle pulse is specified.
    """
    t = np.asarray(time_s, dtype=float)
    up = np.clip((t - start_s) / rise_s, 0.0, 1.0)
    down = np.clip((t - start_s - bit_time_s) / rise_s, 0.0, 1.0)
    return vdd * (up - down)


def _threshold_crossings(time_s: np.ndarray, signal: np.ndarray,
                         threshold: float) -> np.ndarray:
    """Interpolated times where ``signal`` crosses ``threshold`` upward or down."""
    above = signal >= threshold
    edges = np.flatnonzero(above[1:] != above[:-1])
    crossings = []
    for i in edges:
        v0, v1 = signal[i], signal[i + 1]
        frac = (threshold - v0) / (v1 - v0)
        crossings.append(time_s[i] + frac * (time_s[i + 1] - time_s[i]))
    return np.asarray(crossings)


def propagate_pulse(line: LineParameters, vdd: float,
                    bit_time_s: float, rise_s: Optional[float] = None,
                    rd_ohm: Optional[float] = None,
                    receiver_cap_f: float = 5e-15,
                    window_s: Optional[float] = None,
                    samples: int = 4096) -> PulseResult:
    """Drive one pulse down ``line`` and measure what the receiver sees.

    Parameters mirror the paper's setup: ``rd_ohm`` defaults to a source
    matched to the lossless characteristic impedance (the paper's
    digitally-tuned source termination), and the receiver is a small
    capacitive load (full-wave reflection).
    """
    if rd_ohm is None:
        rd_ohm = line.z0
    if rise_s is None:
        rise_s = bit_time_s / 10.0
    if window_s is None:
        # Room for the flight, several reflections, and dispersion tails.
        window_s = 6.0 * bit_time_s + 12.0 * line.flight_time

    time_s = np.linspace(0.0, window_s, samples, endpoint=False)
    dt = time_s[1] - time_s[0]
    start = bit_time_s  # idle lead-in so the FFT window starts quiet
    v_source = trapezoid_pulse(time_s, vdd, start, bit_time_s, rise_s)

    freq = np.fft.rfftfreq(samples, dt)
    spectrum = np.fft.rfft(v_source)

    gamma_l = line.gamma(freq) * line.geometry.length
    z0 = line.z0_complex(freq)
    omega = 2.0 * np.pi * freq
    with np.errstate(divide="ignore", invalid="ignore"):
        z_load = np.where(omega > 0.0, 1.0 / (1j * omega * receiver_cap_f), 1e12)
    refl_load = (z_load - z0) / (z_load + z0)

    exp_neg = np.exp(-gamma_l)
    exp_neg2 = exp_neg * exp_neg
    denom = 1.0 + refl_load * exp_neg2
    z_in = z0 * (1.0 + refl_load * exp_neg2) / (1.0 - refl_load * exp_neg2)
    # Driver-side divider, then propagation to the (reflecting) far end.
    transfer = (z_in / (z_in + rd_ohm)) * (1.0 + refl_load) * exp_neg / denom
    transfer[0] = 1.0  # DC: line is a wire, open receiver sees the source

    v_received = np.fft.irfft(spectrum * transfer, samples)

    threshold = vdd / 2.0
    tx_cross = _threshold_crossings(time_s, v_source, threshold)
    rx_cross = _threshold_crossings(time_s, v_received, threshold)
    if tx_cross.size and rx_cross.size:
        delay = float(rx_cross[0] - tx_cross[0])
    else:
        delay = float("inf")
    if rx_cross.size >= 2:
        width = float(rx_cross[1] - rx_cross[0])
    else:
        width = 0.0
    amplitude = float(np.max(v_received))
    return PulseResult(
        time_s=time_s,
        driver_v=v_source,
        received_v=v_received,
        vdd=vdd,
        delay_s=delay,
        amplitude_v=amplitude,
        width_s=width,
    )

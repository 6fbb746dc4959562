"""Transmission-line physics: geometry, RLC extraction, wave propagation.

This package substitutes for the paper's physical-evaluation toolchain:
Linpar (2-D field solver) is replaced by quasi-static closed-form
extraction in :mod:`repro.tline.extraction`, and HSPICE's W-element
simulation by FFT-based frequency-domain pulse propagation in
:mod:`repro.tline.wave`.
"""

from repro.tline.geometry import (
    WireGeometry,
    TABLE1_LINES,
    CONVENTIONAL_GLOBAL_WIRE,
    tl_geometry_for_length,
)
from repro.tline.extraction import LineParameters, extract
from repro.tline.wave import PulseResult, propagate_pulse, trapezoid_pulse
from repro.tline.signaling import SignalingReport, evaluate_link
from repro.tline.power import (
    conventional_dynamic_power,
    conventional_energy_per_bit,
    transmission_line_dynamic_power,
    transmission_line_energy_per_bit,
    crossover_length,
)

__all__ = [
    "WireGeometry",
    "TABLE1_LINES",
    "CONVENTIONAL_GLOBAL_WIRE",
    "tl_geometry_for_length",
    "LineParameters",
    "extract",
    "PulseResult",
    "propagate_pulse",
    "trapezoid_pulse",
    "SignalingReport",
    "evaluate_link",
    "conventional_dynamic_power",
    "conventional_energy_per_bit",
    "transmission_line_dynamic_power",
    "transmission_line_energy_per_bit",
    "crossover_length",
]

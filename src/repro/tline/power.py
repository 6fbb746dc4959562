"""Dynamic-power models for the two signalling styles (Section 6.1, Power).

The paper gives both equations explicitly:

* conventional repeated RC signalling charges the wire capacitance::

      P = alpha * C * V^2 * f

* voltage-mode transmission-line signalling supplies the incident wave
  through the source resistance in series with the line impedance::

      P = alpha * t_b * V^2 / (R_D + Z_0) * f

and notes that with a matched source (``R_D = Z_0``) the transmission
line wins whenever ``t_b / (2 * Z_0) < C`` — i.e. for long enough wires.
This module implements both, plus the crossover-length solver used in
the power discussion and the per-event energies the network power
accounting (Table 9) consumes.
"""

from __future__ import annotations

from repro.tech import Technology, TECH_45NM


def conventional_dynamic_power(capacitance_f: float, tech: Technology = TECH_45NM,
                               alpha: float = 1.0) -> float:
    """Dynamic power (watts) of a conventional repeated wire.

    ``capacitance_f`` is the wire's total capacitance in farads; ``alpha``
    the data activity factor.
    """
    if capacitance_f < 0:
        raise ValueError("capacitance must be non-negative")
    return alpha * capacitance_f * tech.vdd ** 2 * tech.frequency_hz


def transmission_line_dynamic_power(z0_ohm: float, tech: Technology = TECH_45NM,
                                    rd_ohm: float | None = None,
                                    alpha: float = 1.0,
                                    bit_time_s: float | None = None) -> float:
    """Dynamic power (watts) of a voltage-mode transmission-line driver."""
    if z0_ohm <= 0:
        raise ValueError("characteristic impedance must be positive")
    if rd_ohm is None:
        rd_ohm = z0_ohm
    if bit_time_s is None:
        bit_time_s = tech.cycle_s
    return alpha * bit_time_s * tech.vdd ** 2 / (rd_ohm + z0_ohm) * tech.frequency_hz


def conventional_energy_per_bit(length_m: float, tech: Technology = TECH_45NM) -> float:
    """Energy (joules) to move one bit one transition over an RC wire."""
    return tech.conventional_wire_cap_per_m * length_m * tech.vdd * tech.vdd


def transmission_line_energy_per_bit(z0_ohm: float, tech: Technology = TECH_45NM,
                                     rd_ohm: float | None = None,
                                     bit_time_s: float | None = None) -> float:
    """Energy (joules) to send one bit-time pulse down a transmission line."""
    if rd_ohm is None:
        rd_ohm = z0_ohm
    if bit_time_s is None:
        bit_time_s = tech.cycle_s
    return bit_time_s * tech.vdd ** 2 / (rd_ohm + z0_ohm)


def crossover_length(z0_ohm: float, tech: Technology = TECH_45NM,
                     bit_time_s: float | None = None) -> float:
    """Wire length (metres) above which a matched transmission line uses
    less dynamic energy than a conventional wire.

    Solves the paper's inequality ``t_b / (2 * Z_0) < C(length)`` for the
    length at equality, using the technology's conventional per-metre
    wire capacitance.  The paper observes this lands "beyond ~1 cm".
    """
    if bit_time_s is None:
        bit_time_s = tech.cycle_s
    equivalent_cap = bit_time_s / (2.0 * z0_ohm)
    return equivalent_cap / tech.conventional_wire_cap_per_m

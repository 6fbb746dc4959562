"""Technology parameters for the 45 nm / 10 GHz design point.

The paper targets the 45 nm technology generation (ITRS 2002) with an
aggressively clocked 10 GHz core.  Every physical model in the library —
transmission-line extraction, conventional-wire RC delay, bank access
time, and the power/area models — draws its constants from a single
:class:`Technology` object so that experiments stay internally consistent
and alternate design points can be explored by constructing a different
instance.  The signalling-energy equations of Section 6.1 that price
these parameters live in :mod:`repro.tline.power`.

Values are taken from the paper where it states them (cycle time, memory
latency) and from the ITRS 2002 projections and the BACPAC / "Future of
Wires" models the paper cites for everything else.  All quantities are in
SI units unless the name says otherwise.
"""

from __future__ import annotations

import dataclasses
import math

# Physical constants.
MU_0 = 4.0e-7 * math.pi  # vacuum permeability, H/m
EPS_0 = 8.854e-12  # vacuum permittivity, F/m
C_LIGHT = 2.998e8  # speed of light in vacuum, m/s
COPPER_RESISTIVITY = 2.2e-8  # ohm*m, copper incl. barrier/surface effects


@dataclasses.dataclass(frozen=True)
class Technology:
    """A process/design point.

    The default constructor values describe the paper's target: a 45 nm
    process clocked at 10 GHz with low-k dielectric in the upper
    (transmission-line) metal layers.
    """

    name: str = "45nm-10GHz"
    feature_nm: float = 45.0
    frequency_hz: float = 10e9
    vdd: float = 0.9  # ITRS 2002 projection for high-performance 45 nm
    #: relative permittivity of the inter-metal dielectric surrounding the
    #: transmission lines (low-k per the paper's reference [7]).
    dielectric_er: float = 2.7
    #: loss tangent of the dielectric (used for the shunt conductance G).
    dielectric_loss_tangent: float = 0.003
    resistivity: float = COPPER_RESISTIVITY
    #: capacitance per metre of a conventional repeated global wire
    #: (ITRS-class global interconnect; ~0.2-0.3 pF/mm).
    conventional_wire_cap_per_m: float = 0.25e-9
    #: resistance per metre of a conventional global wire.
    conventional_wire_res_per_m: float = 45e3
    #: energy factor of a NUCA switch traversal, joules per bit.  Derived
    #: from Orion-class router models scaled to 45 nm.
    switch_energy_per_bit: float = 0.18e-12
    #: half-pitch of SRAM used for area models: area of one SRAM cell, m^2.
    sram_cell_area_m2: float = 0.30e-12  # 0.30 um^2 at 45 nm
    #: layout grid unit (lambda) used for transistor gate-width accounting.
    lambda_m: float = 22.5e-9  # half of the 45 nm feature size

    @property
    def cycle_s(self) -> float:
        """Clock period in seconds."""
        return 1.0 / self.frequency_hz

    @property
    def wave_velocity(self) -> float:
        """Propagation velocity of an LC line in this dielectric, m/s."""
        return C_LIGHT / math.sqrt(self.dielectric_er)

    def tl_flight_cycles(self, length_m: float) -> float:
        """Time-of-flight of a transmission line of ``length_m``, in cycles."""
        return (length_m / self.wave_velocity) / self.cycle_s

    def conventional_delay_cycles(self, length_m: float) -> float:
        """Delay of an optimally repeated conventional wire, in cycles.

        Repeated wires have delay linear in length.  The per-millimetre
        figure follows Ho/Mai/Horowitz "The Future of Wires": an optimally
        repeated global wire at the 45 nm node covers roughly 0.4-0.8 mm
        per 100 ps cycle; we use the constant implied by the paper's
        SNUCA2/DNUCA hop latencies.
        """
        repeated_wire_velocity = 7.5e6  # m/s effective (≈0.75 mm / cycle)
        return (length_m / repeated_wire_velocity) / self.cycle_s


#: The default technology instance used throughout the library.
TECH_45NM = Technology()

"""Quasi-static RLC(f) extraction for shielded on-chip striplines.

Substitutes for the paper's use of Linpar, a 2-D field solver.  The
geometry is the one the paper describes (Section 3): a signal conductor
between two reference planes, with grounded power/ground shield wires on
both sides.  Because the dielectric is homogeneous, the line is TEM and
the inductance follows exactly from the capacitance via
``L * C = mu0 * eps0 * er`` — so only the capacitance needs a model.

Capacitance combines three standard components:

* parallel-plate coupling to the two reference planes (``2 * er*e0 * w/h``),
* sidewall coupling to the two adjacent shield wires (``2 * er*e0 * t/s``),
* a fringing term per conductor edge.

Resistance is frequency dependent (skin effect): current crowds into a
shell of one skin depth around the conductor perimeter, and the nearby
return planes carry an image current with their own loss (modelled as a
fixed fractional increase).  Dielectric loss enters through the loss
tangent as a shunt conductance.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Union

import numpy as np

from repro.tech import EPS_0, MU_0, Technology, TECH_45NM
from repro.tline.geometry import WireGeometry

#: Fringing capacitance factor per conductor edge, in units of er*e0.
#: Reduced from the free-conductor value (~1.1) because most fringe field
#: lines terminate on the adjacent shield wires, which are accounted for
#: separately by the sidewall term — counting both in full would
#: double-count the field, which a true 2-D solver like Linpar does not.
FRINGE_FACTOR_PER_EDGE = 0.4

#: Sidewall coupling derating: the parallel-plate sidewall estimate is an
#: upper bound because the reference planes above and below capture part
#: of the sidewall field (field sharing).
SIDEWALL_SHARING_FACTOR = 0.7

#: Multiplier on conductor resistance accounting for the resistance of the
#: return path.  Striplines return current through *two* reference planes
#: in parallel plus the shield wires, so the penalty is modest.
RETURN_PATH_FACTOR = 1.15

ArrayLike = Union[float, np.ndarray]


@dataclasses.dataclass(frozen=True)
class LineParameters:
    """Per-unit-length parameters of an extracted line (SI units)."""

    geometry: WireGeometry
    tech: Technology
    c_per_m: float  # F/m
    l_per_m: float  # H/m
    r_dc_per_m: float  # ohm/m

    @property
    def z0(self) -> float:
        """Lossless characteristic impedance sqrt(L/C), ohms."""
        return math.sqrt(self.l_per_m / self.c_per_m)

    @property
    def velocity(self) -> float:
        """Propagation velocity 1/sqrt(LC), m/s."""
        return 1.0 / math.sqrt(self.l_per_m * self.c_per_m)

    @property
    def flight_time(self) -> float:
        """Time of flight over the routed length, seconds."""
        return self.geometry.length / self.velocity

    def skin_depth(self, freq_hz: ArrayLike) -> ArrayLike:
        """Skin depth at ``freq_hz``, metres."""
        freq = np.maximum(np.asarray(freq_hz, dtype=float), 1.0)
        return np.sqrt(self.tech.resistivity / (math.pi * freq * MU_0))

    def r_per_m(self, freq_hz: ArrayLike) -> ArrayLike:
        """Series resistance per metre at ``freq_hz``, including skin effect.

        Uses the conduction-shell model: current flows in a shell of one
        skin depth around the perimeter; at low frequency the shell fills
        the whole conductor and the value reduces to the DC resistance.
        """
        w, t = self.geometry.width, self.geometry.thickness
        delta = np.minimum(self.skin_depth(freq_hz), min(w, t) / 2.0)
        shell_area = w * t - np.maximum(w - 2 * delta, 0.0) * np.maximum(t - 2 * delta, 0.0)
        r_conductor = self.tech.resistivity / shell_area
        return RETURN_PATH_FACTOR * r_conductor

    def g_per_m(self, freq_hz: ArrayLike) -> ArrayLike:
        """Shunt conductance per metre from dielectric loss, S/m."""
        omega = 2.0 * math.pi * np.asarray(freq_hz, dtype=float)
        return omega * self.c_per_m * self.tech.dielectric_loss_tangent

    def gamma(self, freq_hz: ArrayLike) -> np.ndarray:
        """Complex propagation constant per metre at ``freq_hz``."""
        omega = 2.0 * math.pi * np.asarray(freq_hz, dtype=float)
        series = self.r_per_m(freq_hz) + 1j * omega * self.l_per_m
        shunt = self.g_per_m(freq_hz) + 1j * omega * self.c_per_m
        return np.sqrt(series * shunt)

    def z0_complex(self, freq_hz: ArrayLike) -> np.ndarray:
        """Frequency-dependent characteristic impedance sqrt(Z/Y), ohms."""
        omega = 2.0 * math.pi * np.asarray(freq_hz, dtype=float)
        series = self.r_per_m(freq_hz) + 1j * omega * self.l_per_m
        shunt = self.g_per_m(freq_hz) + 1j * omega * self.c_per_m
        # Guard the DC bin where both vanish.
        shunt = np.where(np.abs(shunt) == 0.0, 1e-30, shunt)
        return np.sqrt(series / shunt)

def extract(geometry: WireGeometry, tech: Technology = TECH_45NM) -> LineParameters:
    """Extract per-unit-length RLC for ``geometry`` in ``tech``'s dielectric."""
    er_e0 = tech.dielectric_er * EPS_0
    c_planes = 2.0 * er_e0 * geometry.width / geometry.height
    # Shielded lines couple sideways to power/ground shields; unshielded
    # (conventional) wires couple to neighbouring signals the same way.
    c_shields = (SIDEWALL_SHARING_FACTOR * 2.0 * er_e0
                 * geometry.thickness / geometry.spacing)
    c_fringe = 4.0 * FRINGE_FACTOR_PER_EDGE * er_e0
    c_per_m = c_planes + c_shields + c_fringe
    # TEM relation in a homogeneous dielectric: L*C = mu0*eps0*er.
    l_per_m = MU_0 * EPS_0 * tech.dielectric_er / c_per_m
    r_dc = tech.resistivity / geometry.cross_section_area
    return LineParameters(
        geometry=geometry,
        tech=tech,
        c_per_m=c_per_m,
        l_per_m=l_per_m,
        r_dc_per_m=r_dc,
    )

"""Wire cross-section geometries (paper Figure 3 and Table 1).

The paper sizes its transmission lines by length so that longer lines
get wider tracks, keeping resistance and characteristic impedance in the
usable range (Table 1).  Lines are laid out stripline-fashion: a signal
layer sandwiched between reference planes, with alternating power/ground
shield wires between signals.

The conventional comparison wire is an ITRS-class repeated global wire —
an order of magnitude smaller in every dimension (Figure 3's "cross-
sectional comparison").
"""

from __future__ import annotations

import dataclasses
from typing import Tuple


@dataclasses.dataclass(frozen=True)
class WireGeometry:
    """A wire cross-section plus routed length.  Dimensions in metres.

    ``height`` is the dielectric spacing from the signal conductor to
    each reference plane; ``thickness`` is the conductor thickness;
    ``spacing`` the edge-to-edge gap to the neighbouring shield wire.
    """

    name: str
    length: float
    width: float
    spacing: float
    height: float
    thickness: float
    shielded: bool = True

    def __post_init__(self) -> None:
        for field in ("length", "width", "spacing", "height", "thickness"):
            if getattr(self, field) <= 0:
                raise ValueError(f"{field} must be positive")

    @property
    def pitch(self) -> float:
        """Signal-to-signal pitch including one shield wire: 2*(w+s)."""
        return 2.0 * (self.width + self.spacing) if self.shielded else self.width + self.spacing

    @property
    def cross_section_area(self) -> float:
        """Conductor cross-sectional area, m^2."""
        return self.width * self.thickness

def _um(x: float) -> float:
    return x * 1e-6


def _cm(x: float) -> float:
    return x * 1e-2


#: Table 1 of the paper: transmission-line dimensions by routed length.
TABLE1_LINES: Tuple[WireGeometry, ...] = (
    WireGeometry("tl-0.9cm", length=_cm(0.9), width=_um(2.0), spacing=_um(2.0),
                 height=_um(1.75), thickness=_um(3.0)),
    WireGeometry("tl-1.1cm", length=_cm(1.1), width=_um(2.5), spacing=_um(2.5),
                 height=_um(1.75), thickness=_um(3.0)),
    WireGeometry("tl-1.3cm", length=_cm(1.3), width=_um(3.0), spacing=_um(3.0),
                 height=_um(1.75), thickness=_um(3.0)),
)


#: The conventional repeated global wire of the DNUCA network at 45 nm
#: (ITRS 2002 global-tier dimensions; cf. Figure 3's comparison).
CONVENTIONAL_GLOBAL_WIRE = WireGeometry(
    "conventional-global",
    length=_cm(0.1),
    width=_um(0.22),
    spacing=_um(0.22),
    height=_um(0.35),
    thickness=_um(0.45),
    shielded=False,
)


def tl_geometry_for_length(length_m: float) -> WireGeometry:
    """The Table 1 geometry class appropriate for a line of ``length_m``.

    The paper widens longer lines to hold resistance down; routed lengths
    between the table's entries use the next larger class, and lengths
    beyond 1.3 cm raise (the floorplan never needs them).
    """
    if length_m <= 0:
        raise ValueError("length must be positive")
    for geometry in TABLE1_LINES:
        if length_m <= geometry.length + 1e-12:
            return dataclasses.replace(geometry, length=length_m)
    raise ValueError(
        f"no Table 1 geometry covers a {length_m * 100:.2f} cm line "
        "(the TLC floorplan tops out at 1.3 cm)"
    )

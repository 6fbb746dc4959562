"""Area, access-time, and transistor-inventory models.

Substitutes for the paper's use of ECACTI (bank access time and layout)
and the BACPAC-style device models (transistor counts and gate widths).
Constants are calibrated to the paper's published values — 3/8/10-cycle
bank access times (Table 2), the Table 7 area breakdown, and the Table 8
transistor inventory — and scale with design parameters so that other
configurations can be explored.
"""

from repro.area.cacti import bank_access_time_cycles, bank_area_m2
from repro.area.floorplan import (
    AreaReport,
    dnuca_area,
    snuca_area,
    tlc_area,
)
from repro.area.layout import BankPlacement, TLCFloorplan, build_floorplan
from repro.area.transistors import (
    TransistorReport,
    dnuca_network_transistors,
    tlc_network_transistors,
)

__all__ = [
    "bank_access_time_cycles",
    "bank_area_m2",
    "AreaReport",
    "dnuca_area",
    "snuca_area",
    "tlc_area",
    "BankPlacement",
    "TLCFloorplan",
    "build_floorplan",
    "TransistorReport",
    "dnuca_network_transistors",
    "tlc_network_transistors",
]

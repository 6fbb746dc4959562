"""Physical floorplans of the TLC designs (paper Figures 2 and 4).

The base TLC floorplan: 32 banks line the two die edges — on each edge,
two columns of eight banks — with the processor core in the middle and
the cache controller at die centre.  Each bank pair's transmission
lines run from the pair's shared edge connector straight over the core
to the controller.

This module computes that geometry from the bank dimensions the area
model provides: bank positions, per-pair line lengths (which must land
inside Table 1's 0.9-1.3 cm envelope on a plausible die), and the
controller-edge landing order that sets the internal wire delays.  The
timing/energy models consume the lengths through
:class:`~repro.core.controller.TLCController`.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Tuple

from repro.area.cacti import bank_area_m2
from repro.core.config import DesignConfig, TLC_BASE
from repro.tech import Technology, TECH_45NM

#: default die edge for the 45 nm design point (the paper's ~2 cm die
#: discussion; 16 MB of L2 plus core fits comfortably).
DEFAULT_DIE_EDGE_M = 1.8e-2

#: routed-over-direct length overhead (bends, keep-outs, serpentine
#: matching).  With this factor the base design's runs land exactly on
#: Table 1's 0.9-1.3 cm span.
ROUTING_FACTOR = 1.2


@dataclasses.dataclass(frozen=True)
class BankPlacement:
    """One bank's position on the die (centre coordinates, metres)."""

    index: int
    x: float
    y: float
    width: float
    height: float

    @property
    def pair(self) -> int:
        return self.index // 2


@dataclasses.dataclass(frozen=True)
class TLCFloorplan:
    """Computed geometry of a TLC design on a square die."""

    config: DesignConfig
    die_edge_m: float
    banks: Tuple[BankPlacement, ...]
    #: straight-line run from each pair's connector to die centre.
    pair_line_lengths_m: Tuple[float, ...]

    @property
    def max_line_m(self) -> float:
        return max(self.pair_line_lengths_m)

def build_floorplan(config: DesignConfig = TLC_BASE,
                    die_edge_m: float = DEFAULT_DIE_EDGE_M,
                    tech: Technology = TECH_45NM) -> TLCFloorplan:
    """Place a TLC design's banks per the Figure 2 / Figure 4 scheme.

    Half the banks line the left die edge, half the right, each side
    stacked as two columns of ``banks/8`` rows (two columns of eight for
    the base design).  Pairs are adjacent banks in a column; the pair's
    line connector sits between them, and its transmission line runs to
    the die centre where the controller is.
    """
    if config.kind not in ("tlc", "tlcopt"):
        raise ValueError(f"{config.name} is not a TLC-family design")
    area = bank_area_m2(config.bank_bytes, tech)
    per_side = config.banks // 2
    columns_per_side = 2
    rows = per_side // columns_per_side
    if rows * columns_per_side != per_side:
        raise ValueError("banks must fill the two edge columns evenly")

    # Size banks as rectangles filling the die height in `rows` rows.
    bank_height = die_edge_m / rows
    bank_width = area / bank_height
    if 2 * columns_per_side * bank_width >= die_edge_m:
        raise ValueError(
            f"die edge {die_edge_m * 100:.1f} cm too small for "
            f"{config.banks} banks of {config.bank_bytes // 1024} KB")

    banks: List[BankPlacement] = []
    centre = die_edge_m / 2.0
    for side, x_sign in ((0, -1.0), (1, 1.0)):
        for column in range(columns_per_side):
            # Inner column first: its banks pair with the outer column's.
            x_offset = centre - (column + 0.5) * bank_width
            x = centre + x_sign * x_offset
            for row in range(rows):
                index = side * per_side + row * columns_per_side + column
                y = (row + 0.5) * bank_height
                banks.append(BankPlacement(index, x, y,
                                           bank_width, bank_height))
    banks.sort(key=lambda b: b.index)

    lengths: List[float] = []
    for pair in range(config.pairs):
        a, b = banks[2 * pair], banks[2 * pair + 1]
        # The pair connector sits on the banks' shared inner edge.
        connector_x = (a.x + b.x) / 2.0 + (
            bank_width / 2.0 if a.x < centre else -bank_width / 2.0)
        connector_y = (a.y + b.y) / 2.0
        run = math.hypot(connector_x - centre, connector_y - centre)
        lengths.append(run * ROUTING_FACTOR)
    return TLCFloorplan(config=config, die_edge_m=die_edge_m,
                        banks=tuple(banks),
                        pair_line_lengths_m=tuple(lengths))

"""Reduced CACTI-style bank model (the paper's ECACTI substitute).

Two quantities feed the rest of the library:

* **Access time** in cycles at the design frequency.  The underlying
  physical trend is that decoder depth grows logarithmically and the
  word/bit-line RC grows with the square root of capacity (banks are
  tiled into roughly square subarrays).  We fit the three-coefficient
  model ``t = c0 + c1*sqrt(bytes) + c2*log2(bytes)`` exactly through the
  paper's three published points — 64 KB -> 3 cycles, 512 KB -> 8
  cycles, 1 MB -> 10 cycles (Table 2) — which pins the model to the
  authors' ECACTI results while interpolating sensibly between them.

* **Area** in square metres.  Storage cells dominate, with a peripheral
  overhead (decoders, sense amplifiers, drivers) whose *fraction* shrinks
  as banks grow — the reason TLC's 32 large banks need 77 mm^2 of
  storage where DNUCA's 256 small banks need 92 mm^2 (Table 7).
"""

from __future__ import annotations

import math

import numpy as np

from repro.tech import Technology, TECH_45NM

#: Calibration points from the paper: bytes -> access cycles at 10 GHz.
_ACCESS_CALIBRATION = (
    (64 * 1024, 3.0),   # DNUCA bank
    (512 * 1024, 8.0),  # TLC / SNUCA2 bank
    (1024 * 1024, 10.0),  # TLCopt bank
)


def _access_coefficients():
    basis = [
        [1.0, math.sqrt(size), math.log2(size)]
        for size, _ in _ACCESS_CALIBRATION
    ]
    targets = [cycles for _, cycles in _ACCESS_CALIBRATION]
    return np.linalg.solve(np.array(basis), np.array(targets))


_ACCESS_COEFFS = _access_coefficients()

#: Peripheral-overhead model ``factor = 1 + A * bytes**(-B)`` calibrated to
#: the Table 7 storage areas (2.28x at 64 KB, 1.91x at 512 KB).
_OVERHEAD_A = 7.93
_OVERHEAD_B = 0.164


def bank_access_time_cycles(size_bytes: int, tech: Technology = TECH_45NM) -> int:
    """Access latency of a bank of ``size_bytes``, in whole cycles.

    The fit is in cycles at 10 GHz; other frequencies rescale by the
    cycle-time ratio (wire and transistor delay are frequency
    independent).
    """
    if size_bytes <= 0:
        raise ValueError("bank size must be positive")
    c0, c1, c2 = _ACCESS_COEFFS
    cycles_at_10ghz = c0 + c1 * math.sqrt(size_bytes) + c2 * math.log2(size_bytes)
    scale = (1e-10) / tech.cycle_s  # calibrated at a 100 ps cycle
    return max(1, round(cycles_at_10ghz * scale))


def peripheral_overhead_factor(size_bytes: int) -> float:
    """Total-area / cell-area ratio for a bank of ``size_bytes``."""
    if size_bytes <= 0:
        raise ValueError("bank size must be positive")
    return 1.0 + _OVERHEAD_A * size_bytes ** (-_OVERHEAD_B)


def bank_area_m2(size_bytes: int, tech: Technology = TECH_45NM) -> float:
    """Substrate area of one bank, square metres."""
    bits = size_bytes * 8
    cell_area = bits * tech.sram_cell_area_m2
    return cell_area * peripheral_overhead_factor(size_bytes)

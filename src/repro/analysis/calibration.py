"""Calibration verification: do the profiles hit their Table 6 targets?

The synthetic profiles were tuned so that simulating them reproduces
the workload characteristics the paper reports.  This module closes the
loop programmatically: it grades a grid's TLC and DNUCA cells against
the published Table 6 rows — producing the evidence EXPERIMENTS.md
cites and letting future re-tuning detect regressions.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Optional

from repro.analysis.experiments import ExperimentGrid
from repro.analysis.tables import PAPER_TABLE6
from repro.workloads.profiles import get_profile


@dataclasses.dataclass(frozen=True)
class CalibrationGrade:
    """Measured-vs-paper comparison for one benchmark."""

    benchmark: str
    measured_tlc_mpki: float
    paper_tlc_mpki: float
    measured_close_hit: float
    paper_close_hit: float
    measured_request_rate: float
    paper_equivalent_rate: Optional[float]

    #: below this mpki both values mean "the benchmark basically never
    #: misses"; relative error there is statistical noise at feasible
    #: trace lengths.
    TINY_MPKI = 0.1

    @property
    def mpki_log_error(self) -> float:
        """|log10(measured / paper)| — 0.3 means within 2x."""
        if (self.measured_tlc_mpki < self.TINY_MPKI
                and self.paper_tlc_mpki < self.TINY_MPKI):
            return 0.0
        if self.measured_tlc_mpki <= 0 or self.paper_tlc_mpki <= 0:
            return 1.0
        return abs(math.log10(self.measured_tlc_mpki / self.paper_tlc_mpki))

    @property
    def close_hit_error(self) -> float:
        return abs(self.measured_close_hit - self.paper_close_hit)

    def within(self, mpki_decades: float = 0.4,
               close_hit_points: float = 0.30) -> bool:
        """Is this benchmark calibrated within the stated tolerances?"""
        return (self.mpki_log_error <= mpki_decades
                and self.close_hit_error <= close_hit_points)


def grade_grid(grid: ExperimentGrid) -> Dict[str, CalibrationGrade]:
    """Grade every benchmark of a grid that holds TLC and DNUCA cells."""
    grades = {}
    for benchmark in grid.benchmarks:
        paper = PAPER_TABLE6[benchmark]
        tlc = grid.result("TLC", benchmark)
        dnuca = grid.result("DNUCA", benchmark)
        close = dnuca.stats.get("close_hits", 0) / max(1, dnuca.l2_requests)
        grades[benchmark] = CalibrationGrade(
            benchmark=benchmark,
            measured_tlc_mpki=tlc.misses_per_kinstr,
            paper_tlc_mpki=paper["tlc_mpki"],
            measured_close_hit=close,
            paper_close_hit=paper["close_hit"],
            measured_request_rate=get_profile(benchmark).l2_requests_per_kinstr,
            paper_equivalent_rate=None,
        )
    return grades

"""Experiment harness: grids, paper tables, figures, reports, sweeps."""

from repro.analysis.experiments import (
    ExperimentGrid,
    MAIN_DESIGNS,
    TLC_FAMILY,
    run_design_grid,
)
from repro.analysis.tables import (
    PAPER_TABLE2,
    PAPER_TABLE6,
    PAPER_TABLE7,
    PAPER_TABLE8,
    PAPER_TABLE9,
    format_table,
)
from repro.analysis.figures import (
    grouped_bar_chart,
    horizontal_bar,
    latency_histogram_sparkline,
)
from repro.analysis.report import build_report
from repro.analysis.runner import (
    CellSpec,
    ResultCache,
    cache_key,
    code_version_stamp,
    execute_cells,
    run_cell,
    run_grid,
)
from repro.analysis.sweeps import (
    dependence_sweep,
    frequency_sweep,
    memory_latency_sweep,
)

__all__ = [
    "ExperimentGrid",
    "MAIN_DESIGNS",
    "TLC_FAMILY",
    "run_design_grid",
    "PAPER_TABLE2",
    "PAPER_TABLE6",
    "PAPER_TABLE7",
    "PAPER_TABLE8",
    "PAPER_TABLE9",
    "format_table",
    "grouped_bar_chart",
    "horizontal_bar",
    "latency_histogram_sparkline",
    "build_report",
    "CellSpec",
    "ResultCache",
    "cache_key",
    "code_version_stamp",
    "execute_cells",
    "run_cell",
    "run_grid",
    "dependence_sweep",
    "frequency_sweep",
    "memory_latency_sweep",
]

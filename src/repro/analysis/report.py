"""Full reproduction report: every table and figure, measured vs paper.

``build_report`` runs (or accepts) the two experiment grids plus the
static models and renders one markdown document — the machinery behind
``EXPERIMENTS.md`` and the CLI's ``report`` subcommand.

The report is a sequence of :class:`ReportSection` entries, each a pure
``(grid slice) -> dataset -> rendering`` pipeline: the dataset builders
live in :mod:`repro.analysis.tables` / :mod:`repro.analysis.figures`
and return JSON-able rows; the renderer turns rows into markdown and
never reads a grid.  That split is what lets every section route
through the derived-artifact cache lane (:mod:`repro.analysis.derived`):
a section is fingerprinted by the result-cache keys of exactly the
cells its slice reads (static sections — signal integrity, the area
tables — by the code version alone), so a warm lane re-renders without
recomputing any section, and a one-cell change re-derives only the
sections whose slice contains that cell.
"""

from __future__ import annotations

import dataclasses
import io
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.experiments import (
    ExperimentGrid,
    MAIN_DESIGNS,
    TLC_FAMILY,
    run_design_grid,
)
from repro.analysis.figures import (
    figure6_dataset,
    figure7_dataset,
)
from repro.analysis.tables import (
    normalized_time_rows,
    signal_integrity_rows,
    table2_rows,
    table6_rows,
    table7_rows,
    table8_rows,
    table9_rows,
)


def _markdown_table(out: io.StringIO, headers, rows) -> None:
    out.write("| " + " | ".join(str(h) for h in headers) + " |\n")
    out.write("|" + "|".join("---" for _ in headers) + "|\n")
    for row in rows:
        cells = [f"{v:.3g}" if isinstance(v, float) else str(v) for v in row]
        out.write("| " + " | ".join(cells) + " |\n")
    out.write("\n")


def _section_text(heading: str, headers: Sequence[str], rows) -> str:
    """One rendered report section: heading plus a markdown table."""
    out = io.StringIO()
    out.write(f"## {heading}\n\n")
    _markdown_table(out, headers, rows)
    return out.getvalue()


@dataclasses.dataclass(frozen=True)
class ReportSection:
    """One report section as a pure dataset -> rendering pipeline.

    ``slices`` names the grid cells the dataset reads: a tuple of
    ``(grid name, designs)`` pairs where ``grid name`` is ``"main"`` or
    ``"family"`` and ``designs`` narrows to a design subset (``None``
    means the whole grid, including normalization baselines).  An empty
    tuple marks a static section derived from code alone.  The derived
    lane keys each section by exactly these cells, so invalidation has
    section granularity, not report granularity.

    ``dataset`` maps the named grids to JSON-able rows; ``render`` maps
    those rows (or their JSON round trip — it must not care which) to
    the section's markdown text.
    """

    name: str
    slices: Tuple[Tuple[str, Optional[Tuple[str, ...]]], ...]
    dataset: Callable[[Dict[str, ExperimentGrid]], list]
    render: Callable[[list], str]

    def cell_keys(self, grids: Dict[str, ExperimentGrid]) -> List[str]:
        keys: List[str] = []
        for grid_name, designs in self.slices:
            keys.extend(grids[grid_name].cell_keys(designs=designs))
        return keys


REPORT_SECTIONS: Tuple[ReportSection, ...] = (
    ReportSection(
        name="signal_integrity",
        slices=(),
        dataset=lambda grids: signal_integrity_rows(),
        render=lambda rows: _section_text(
            "Signal integrity (Section 5 criteria)",
            ["line", "Z0 (ohm)", "delay", "amplitude", "width", "verdict"],
            rows),
    ),
    ReportSection(
        name="table2",
        slices=(),
        dataset=lambda grids: table2_rows(),
        render=lambda rows: _section_text(
            "Table 2: design parameters",
            ["design", "banks", "bank", "TL lines", "latency (measured)",
             "latency (paper)"],
            rows),
    ),
    ReportSection(
        name="fig5",
        slices=(("main", None),),
        dataset=lambda grids: normalized_time_rows(
            grids["main"], ("DNUCA", "TLC"), "SNUCA2"),
        render=lambda rows: _section_text(
            "Figure 5: normalized execution time (SNUCA2 = 1.0)",
            ["benchmark", "DNUCA", "TLC"], rows),
    ),
    ReportSection(
        name="fig6",
        slices=(("main", ("DNUCA", "TLC")),),
        dataset=lambda grids: figure6_dataset(grids["main"]),
        render=lambda rows: _section_text(
            "Figure 6: mean cache lookup latency (cycles)",
            ["benchmark", "DNUCA", "TLC"], rows),
    ),
    ReportSection(
        name="table6",
        slices=(("main", ("DNUCA", "TLC")),),
        dataset=lambda grids: table6_rows(grids["main"]),
        render=lambda rows: _section_text(
            "Table 6: benchmark characteristics",
            ["bench", "TLC mpki (ours/paper)", "DNUCA mpki", "close hit",
             "promotes/insert", "TLC predictable", "DNUCA predictable"],
            rows),
    ),
    ReportSection(
        name="table7",
        slices=(),
        dataset=lambda grids: table7_rows(),
        render=lambda rows: _section_text(
            "Table 7: substrate area (mm^2)",
            ["design", "storage (ours/paper)", "channel", "controller",
             "total"],
            rows),
    ),
    ReportSection(
        name="table8",
        slices=(),
        dataset=lambda grids: table8_rows(),
        render=lambda rows: _section_text(
            "Table 8: network transistors",
            ["design", "transistors (ours/paper)", "gate width"], rows),
    ),
    ReportSection(
        name="table9",
        slices=(("main", ("DNUCA", "TLC")),),
        dataset=lambda grids: table9_rows(grids["main"]),
        render=lambda rows: _section_text(
            "Table 9: dynamic components",
            ["bench", "DNUCA banks/req (ours/paper)", "TLC banks/req",
             "TLC power saving"],
            rows),
    ),
    ReportSection(
        name="fig7",
        slices=(("family", TLC_FAMILY),),
        dataset=lambda grids: figure7_dataset(grids["family"], TLC_FAMILY),
        render=lambda rows: _section_text(
            "Figure 7: TLC family link utilization",
            ["benchmark"] + list(TLC_FAMILY),
            [[row[0]] + [f"{v:.1%}" for v in row[1:]] for row in rows]),
    ),
    ReportSection(
        name="fig8",
        slices=(("family", None),),
        dataset=lambda grids: normalized_time_rows(
            grids["family"], TLC_FAMILY, "SNUCA2"),
        render=lambda rows: _section_text(
            "Figure 8: TLC family normalized execution time",
            ["benchmark"] + list(TLC_FAMILY), rows),
    ),
)


def report_preamble(n_refs: int) -> str:
    """The fixed document header above the cached sections."""
    return ("# Reproduction report: TLC: Transmission Line Caches\n\n"
            f"Grids measured at {n_refs} L2 references per benchmark "
            "(post-warmup); every value regenerable via "
            "`pytest benchmarks/ --benchmark-only -s`.\n\n")


def build_report(main_grid: Optional[ExperimentGrid] = None,
                 family_grid: Optional[ExperimentGrid] = None,
                 n_refs: int = 20_000,
                 derived=None) -> str:
    """Render the complete measured-vs-paper report as markdown.

    ``derived`` routes every section through a derived-artifact lane —
    a :class:`~repro.analysis.derived.DerivedLane`,
    :class:`~repro.analysis.storage.ContentStore`, or cache directory
    path (``None`` disables caching).  The lane is optimization-only:
    warm, cold, and disabled lanes all render byte-identical documents.
    """
    from repro.analysis.derived import as_lane

    lane = as_lane(derived)
    if main_grid is None:
        main_grid = run_design_grid(designs=MAIN_DESIGNS, n_refs=n_refs)
    if family_grid is None:
        family_grid = run_design_grid(designs=("SNUCA2",) + TLC_FAMILY,
                                      n_refs=n_refs)
    grids = {"main": main_grid, "family": family_grid}

    out = io.StringIO()
    out.write(report_preamble(n_refs))
    for section in REPORT_SECTIONS:
        out.write(render_section(section, grids, lane))
    return out.getvalue()


def render_section(section: ReportSection,
                   grids: Dict[str, ExperimentGrid], lane) -> str:
    """One section's markdown, answered from ``lane`` when warm.

    The cached artifact carries both the dataset (rows) and the
    rendered text, so a warm section costs one cache read — no grid
    access, no row building, no formatting.
    """
    artifact = lane.get_or_compute(
        kind=f"report.{section.name}",
        cell_keys=section.cell_keys(grids),
        params=None,
        compute=lambda: _compute_section(section, grids))
    return artifact["rendered"]


def _compute_section(section: ReportSection,
                     grids: Dict[str, ExperimentGrid]) -> dict:
    rows = section.dataset(grids)
    return {"dataset": rows, "rendered": section.render(rows)}

"""Full reproduction report: every table and figure, measured vs paper.

``build_report`` runs (or accepts) the two experiment grids plus the
static models and renders one markdown document — the machinery behind
``EXPERIMENTS.md`` and the CLI's ``report`` subcommand.

The report is a sequence of :class:`ReportSection` entries, each a pure
``grids -> dataset -> rendering`` pipeline: the dataset functions
live in :mod:`repro.analysis.tables` / :mod:`repro.analysis.figures`
and return rows; the renderer turns rows into markdown and never reads a
grid.

The rendered document is the one artifact of the derived-artifact
cache lane (:mod:`repro.analysis.derived`), keyed by both grids' cell
keys plus ``n_refs`` (:func:`report_lane_key`), so a warm lane answers
the whole report with one read.
"""

from __future__ import annotations

import dataclasses
import io
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

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

    ``dataset`` maps the named grids (``"main"``, ``"family"``) to
    rows; ``render`` maps those rows to the section's markdown text.
    """

    dataset: Callable[[Dict[str, ExperimentGrid]], list]
    render: Callable[[list], str]


REPORT_SECTIONS: Tuple[ReportSection, ...] = (
    ReportSection(
        dataset=lambda grids: signal_integrity_rows(),
        render=lambda rows: _section_text(
            "Signal integrity (Section 5 criteria)",
            ["line", "Z0 (ohm)", "delay", "amplitude", "width", "verdict"],
            rows),
    ),
    ReportSection(
        dataset=lambda grids: table2_rows(),
        render=lambda rows: _section_text(
            "Table 2: design parameters",
            ["design", "banks", "bank", "TL lines", "latency (measured)",
             "latency (paper)"],
            rows),
    ),
    ReportSection(
        dataset=lambda grids: normalized_time_rows(
            grids["main"], ("DNUCA", "TLC"), "SNUCA2"),
        render=lambda rows: _section_text(
            "Figure 5: normalized execution time (SNUCA2 = 1.0)",
            ["benchmark", "DNUCA", "TLC"], rows),
    ),
    ReportSection(
        dataset=lambda grids: figure6_dataset(grids["main"]),
        render=lambda rows: _section_text(
            "Figure 6: mean cache lookup latency (cycles)",
            ["benchmark", "DNUCA", "TLC"], rows),
    ),
    ReportSection(
        dataset=lambda grids: table6_rows(grids["main"]),
        render=lambda rows: _section_text(
            "Table 6: benchmark characteristics",
            ["bench", "TLC mpki (ours/paper)", "DNUCA mpki", "close hit",
             "promotes/insert", "TLC predictable", "DNUCA predictable"],
            rows),
    ),
    ReportSection(
        dataset=lambda grids: table7_rows(),
        render=lambda rows: _section_text(
            "Table 7: substrate area (mm^2)",
            ["design", "storage (ours/paper)", "channel", "controller",
             "total"],
            rows),
    ),
    ReportSection(
        dataset=lambda grids: table8_rows(),
        render=lambda rows: _section_text(
            "Table 8: network transistors",
            ["design", "transistors (ours/paper)", "gate width"], rows),
    ),
    ReportSection(
        dataset=lambda grids: table9_rows(grids["main"]),
        render=lambda rows: _section_text(
            "Table 9: dynamic components",
            ["bench", "DNUCA banks/req (ours/paper)", "TLC banks/req",
             "TLC power saving"],
            rows),
    ),
    ReportSection(
        dataset=lambda grids: figure7_dataset(grids["family"], TLC_FAMILY),
        render=lambda rows: _section_text(
            "Figure 7: TLC family link utilization",
            ["benchmark"] + list(TLC_FAMILY),
            [[row[0]] + [f"{v:.1%}" for v in row[1:]] for row in rows]),
    ),
    ReportSection(
        dataset=lambda grids: normalized_time_rows(
            grids["family"], TLC_FAMILY, "SNUCA2"),
        render=lambda rows: _section_text(
            "Figure 8: TLC family normalized execution time",
            ["benchmark"] + list(TLC_FAMILY), rows),
    ),
)


#: The derived-lane kind of the rendered report, the lane's one artifact.
REPORT_KIND = "report"


def report_lane_key(main_keys: Iterable[str], family_keys: Iterable[str],
                    n_refs: int) -> Tuple[List[str], Dict[str, int]]:
    """``(cell_keys, params)`` the rendered report is cached under.

    Each grid's cell keys carry its grid's name, so a cell both grids
    hold (SNUCA2 and TLC) counts once per grid and swapping the grids
    changes the key.  :func:`build_report` passes its grids'
    :meth:`~repro.analysis.experiments.ExperimentGrid.cell_keys`;
    ``repro report`` passes the cache keys of the cell specs before it
    runs anything, so the two answer each other.
    """
    cell_keys = ([f"main:{key}" for key in main_keys]
                 + [f"family:{key}" for key in family_keys])
    return cell_keys, {"n_refs": n_refs}


def build_report(main_grid: Optional[ExperimentGrid] = None,
                 family_grid: Optional[ExperimentGrid] = None,
                 n_refs: int = 20_000,
                 derived=None) -> str:
    """Render the complete measured-vs-paper report as markdown.

    ``derived`` caches the rendered document in a derived-artifact lane
    under :func:`report_lane_key` — a
    :class:`~repro.analysis.derived.DerivedLane`,
    :class:`~repro.analysis.storage.ContentStore`, or cache directory
    path (``None`` disables caching).  The lane is optimization-only:
    warm, cold, and disabled lanes all render byte-identical documents.
    """
    from repro.analysis.derived import as_lane

    if main_grid is None:
        main_grid = run_design_grid(designs=MAIN_DESIGNS, n_refs=n_refs)
    if family_grid is None:
        family_grid = run_design_grid(designs=("SNUCA2",) + TLC_FAMILY,
                                      n_refs=n_refs)
    grids = {"main": main_grid, "family": family_grid}

    def render() -> dict:
        out = io.StringIO()
        out.write("# Reproduction report: TLC: Transmission Line Caches\n\n"
                  f"Grids measured at {n_refs} L2 references per benchmark "
                  "(post-warmup); every value regenerable via "
                  "`pytest benchmarks/ --benchmark-only -s`.\n\n")
        for section in REPORT_SECTIONS:
            out.write(section.render(section.dataset(grids)))
        return {"rendered": out.getvalue()}

    cell_keys, params = report_lane_key(main_grid.cell_keys(),
                                        family_grid.cell_keys(), n_refs)
    return as_lane(derived).get_or_compute(REPORT_KIND, cell_keys, params,
                                           render)["rendered"]

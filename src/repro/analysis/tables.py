"""Paper reference values, table formatting, and the pure row builders
behind the paper's Tables 2/6/7/8/9.

Every table and figure in the paper's evaluation section is recorded
here as published, so the benchmark harnesses can print measured-vs-
paper rows and the tests can assert that the reproduced *shapes* hold
(who wins, by roughly what factor) without requiring absolute-number
matches — our substrate is a synthetic simulator, the authors' was
Simics on commercial workloads.

The ``*_rows`` functions are the ``grid -> dataset`` half of each
report table: lists of lists that :mod:`repro.analysis.report`
renders as markdown.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

#: Table 2 — design parameters as published.
PAPER_TABLE2: Dict[str, Dict[str, object]] = {
    "TLC": {"banks": 32, "banks_per_block": 1, "bank_kb": 512,
            "lines_per_pair": 128, "total_lines": 2048,
            "uncontended": (10, 16), "bank_access": 8},
    "TLCopt1000": {"banks": 16, "banks_per_block": 2, "bank_kb": 1024,
                   "lines_per_pair": 126, "total_lines": 1008,
                   "uncontended": (12, 13), "bank_access": 10},
    "TLCopt500": {"banks": 16, "banks_per_block": 4, "bank_kb": 1024,
                  "lines_per_pair": 64, "total_lines": 512,
                  "uncontended": (12, 12), "bank_access": 10},
    "TLCopt350": {"banks": 16, "banks_per_block": 8, "bank_kb": 1024,
                  "lines_per_pair": 44, "total_lines": 352,
                  "uncontended": (12, 12), "bank_access": 10},
    "SNUCA2": {"banks": 32, "banks_per_block": 1, "bank_kb": 512,
               "uncontended": (9, 32), "bank_access": 8},
    "DNUCA": {"banks": 256, "banks_per_block": 1, "bank_kb": 64,
              "uncontended": (3, 47), "bank_access": 3},
}

#: Table 6 — benchmark characteristics as published.  Keys: benchmark ->
#: (TLC misses/1k instr, DNUCA misses/1k instr, DNUCA close-hit %,
#:  DNUCA promotes/inserts, TLC predictable %, DNUCA predictable %).
PAPER_TABLE6: Dict[str, Dict[str, float]] = {
    "bzip": {"tlc_mpki": 0.051, "dnuca_mpki": 0.052, "close_hit": 0.81,
             "promotes_per_insert": 64, "tlc_pred": 0.92, "dnuca_pred": 0.56},
    "gcc": {"tlc_mpki": 0.068, "dnuca_mpki": 0.070, "close_hit": 0.99,
            "promotes_per_insert": 610, "tlc_pred": 0.99, "dnuca_pred": 0.62},
    "mcf": {"tlc_mpki": 0.019, "dnuca_mpki": 0.019, "close_hit": 0.48,
            "promotes_per_insert": 12000, "tlc_pred": 0.82, "dnuca_pred": 0.24},
    "perl": {"tlc_mpki": 0.028, "dnuca_mpki": 0.028, "close_hit": 0.97,
             "promotes_per_insert": 9.7, "tlc_pred": 0.96, "dnuca_pred": 0.90},
    "equake": {"tlc_mpki": 6.8, "dnuca_mpki": 5.2, "close_hit": 0.16,
               "promotes_per_insert": 0.55, "tlc_pred": 0.90, "dnuca_pred": 0.38},
    "swim": {"tlc_mpki": 40.0, "dnuca_mpki": 38.0, "close_hit": 0.007,
             "promotes_per_insert": 0.15, "tlc_pred": 0.98, "dnuca_pred": 0.39},
    "applu": {"tlc_mpki": 16.0, "dnuca_mpki": 16.0, "close_hit": 0.010,
              "promotes_per_insert": 0.06, "tlc_pred": 0.98, "dnuca_pred": 0.38},
    "lucas": {"tlc_mpki": 13.0, "dnuca_mpki": 12.0, "close_hit": 0.072,
              "promotes_per_insert": 0.15, "tlc_pred": 0.99, "dnuca_pred": 0.49},
    "apache": {"tlc_mpki": 4.8, "dnuca_mpki": 3.8, "close_hit": 0.67,
               "promotes_per_insert": 3.7, "tlc_pred": 0.98, "dnuca_pred": 0.61},
    "zeus": {"tlc_mpki": 6.4, "dnuca_mpki": 4.8, "close_hit": 0.60,
             "promotes_per_insert": 2.5, "tlc_pred": 0.97, "dnuca_pred": 0.57},
    "sjbb": {"tlc_mpki": 2.3, "dnuca_mpki": 2.3, "close_hit": 0.58,
             "promotes_per_insert": 1.9, "tlc_pred": 0.93, "dnuca_pred": 0.59},
    "oltp": {"tlc_mpki": 0.93, "dnuca_mpki": 0.79, "close_hit": 0.89,
             "promotes_per_insert": 13, "tlc_pred": 0.98, "dnuca_pred": 0.77},
}

#: Table 7 — consumed substrate area, mm^2.
PAPER_TABLE7: Dict[str, Dict[str, float]] = {
    "DNUCA": {"storage": 92.0, "channel": 17.0, "controller": 1.1, "total": 110.0},
    "TLC": {"storage": 77.0, "channel": 3.1, "controller": 10.0, "total": 91.0},
}

#: Table 8 — communication-network transistor inventory.
PAPER_TABLE8: Dict[str, Dict[str, float]] = {
    "DNUCA": {"transistors": 1.2e7, "gate_width_mega_lambda": 440.0},
    "TLC": {"transistors": 1.9e5, "gate_width_mega_lambda": 20.0},
}

#: Table 9 — banks accessed per request and network dynamic power (mW).
PAPER_TABLE9: Dict[str, Dict[str, float]] = {
    "bzip": {"dnuca_banks": 2.3, "dnuca_mw": 150, "tlc_mw": 56},
    "gcc": {"dnuca_banks": 2.0, "dnuca_mw": 150, "tlc_mw": 100},
    "mcf": {"dnuca_banks": 2.6, "dnuca_mw": 350, "tlc_mw": 150},
    "perl": {"dnuca_banks": 2.0, "dnuca_mw": 63, "tlc_mw": 36},
    "equake": {"dnuca_banks": 2.5, "dnuca_mw": 87, "tlc_mw": 23},
    "swim": {"dnuca_banks": 2.5, "dnuca_mw": 190, "tlc_mw": 56},
    "applu": {"dnuca_banks": 2.5, "dnuca_mw": 110, "tlc_mw": 34},
    "lucas": {"dnuca_banks": 2.5, "dnuca_mw": 57, "tlc_mw": 17},
    "apache": {"dnuca_banks": 2.4, "dnuca_mw": 200, "tlc_mw": 67},
    "zeus": {"dnuca_banks": 2.4, "dnuca_mw": 170, "tlc_mw": 53},
    "sjbb": {"dnuca_banks": 2.4, "dnuca_mw": 130, "tlc_mw": 43},
    "oltp": {"dnuca_banks": 2.1, "dnuca_mw": 220, "tlc_mw": 90},
}


def signal_integrity_rows() -> List[list]:
    """Section 5 criteria rows for every Table 1 line geometry."""
    from repro.tline import TABLE1_LINES, evaluate_link

    rows = []
    for geometry in TABLE1_LINES:
        report = evaluate_link(geometry.length)
        rows.append([
            geometry.name, f"{report.line.z0:.1f}",
            f"{report.pulse.delay_s * 1e12:.0f} ps",
            f"{report.amplitude_fraction:.0%} (>=75%)",
            f"{report.width_fraction:.0%} (>=40%)",
            "PASS" if report.usable else "FAIL",
        ])
    return rows


def table2_rows() -> List[list]:
    """Table 2 rows: design parameters, measured vs paper."""
    from repro.core.config import DESIGNS

    rows = []
    for name, config in DESIGNS.items():
        paper = PAPER_TABLE2[name]
        measured = config.uncontended_latency_range
        rows.append([name, config.banks, f"{config.bank_bytes // 1024} KB",
                     config.total_lines or "-",
                     f"{measured[0]}-{measured[1]}",
                     f"{paper['uncontended'][0]}-{paper['uncontended'][1]}"])
    return rows


def table6_rows(grid) -> List[list]:
    """Table 6 rows: benchmark characteristics, measured vs paper.

    ``grid`` must hold TLC and DNUCA cells for every benchmark.
    """
    rows = []
    for bench in grid.benchmarks:
        tlc = grid.result("TLC", bench)
        dnuca = grid.result("DNUCA", bench)
        paper = PAPER_TABLE6[bench]
        close = dnuca.stats.get("close_hits", 0) / max(1, dnuca.l2_requests)
        promotes = dnuca.stats.get("promotions", 0)
        inserts = max(1, dnuca.stats.get("insertions", 0))
        rows.append([
            bench,
            f"{tlc.misses_per_kinstr:.3g} / {paper['tlc_mpki']:.3g}",
            f"{dnuca.misses_per_kinstr:.3g} / {paper['dnuca_mpki']:.3g}",
            f"{close:.0%} / {paper['close_hit']:.0%}",
            f"{promotes / inserts:.3g} / {paper['promotes_per_insert']:.3g}",
            f"{tlc.predictable_lookup_fraction:.0%} / {paper['tlc_pred']:.0%}",
            f"{dnuca.predictable_lookup_fraction:.0%} / {paper['dnuca_pred']:.0%}",
        ])
    return rows


def table7_rows() -> List[list]:
    """Table 7 rows: consumed substrate area, measured vs paper."""
    from repro.area import dnuca_area, tlc_area
    from repro.core.config import DESIGNS

    rows = []
    for name, report in (("DNUCA", dnuca_area()),
                         ("TLC", tlc_area(DESIGNS["TLC"].total_lines))):
        mm2 = report.as_mm2()
        paper = PAPER_TABLE7[name]
        rows.append([name,
                     f"{mm2['storage_mm2']:.1f} / {paper['storage']}",
                     f"{mm2['channel_mm2']:.1f} / {paper['channel']}",
                     f"{mm2['controller_mm2']:.1f} / {paper['controller']}",
                     f"{mm2['total_mm2']:.0f} / {paper['total']:.0f}"])
    return rows


def table8_rows() -> List[list]:
    """Table 8 rows: network transistor inventory, measured vs paper."""
    from repro.area import dnuca_network_transistors, tlc_network_transistors
    from repro.core.config import DESIGNS

    rows = []
    for name, report in (("DNUCA", dnuca_network_transistors()),
                         ("TLC", tlc_network_transistors(
                             DESIGNS["TLC"].total_lines))):
        paper = PAPER_TABLE8[name]
        rows.append([name,
                     f"{report.transistors:.2e} / {paper['transistors']:.1e}",
                     f"{report.gate_width_mega_lambda:.0f} M / "
                     f"{paper['gate_width_mega_lambda']:.0f} M"])
    return rows


def table9_rows(grid) -> List[list]:
    """Table 9 rows: banks per request and network power, vs paper."""
    rows = []
    for bench in grid.benchmarks:
        dnuca = grid.result("DNUCA", bench)
        tlc = grid.result("TLC", bench)
        paper = PAPER_TABLE9[bench]
        saving = 1 - tlc.network_power_w / max(1e-12, dnuca.network_power_w)
        paper_saving = 1 - paper["tlc_mw"] / paper["dnuca_mw"]
        rows.append([
            bench,
            f"{dnuca.banks_accessed_per_request:.2f} / {paper['dnuca_banks']}",
            f"{tlc.banks_accessed_per_request:.0f} / 1",
            f"{saving:.0%} / {paper_saving:.0%}",
        ])
    return rows


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: str = "") -> str:
    """Render an ASCII table (the benchmark harnesses print these)."""
    cells: List[List[str]] = [[str(h) for h in headers]]
    for row in rows:
        cells.append([
            f"{value:.3g}" if isinstance(value, float) else str(value)
            for value in row
        ])
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    for i, row in enumerate(cells):
        lines.append("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def normalized_time_rows(grid, designs: Sequence[str],
                         baseline: str) -> List[list]:
    """Normalized-execution-time rows: ``[benchmark, <time per design
    normalized to baseline>...]``.

    The dataset behind Figures 5 and 8, ``repro grid``'s summary table
    and the service's job-result document.
    """
    return [[bench] + [
        round(grid.normalized_execution_time(design, bench, baseline), 3)
        for design in designs
    ] for bench in grid.benchmarks]


def normalized_time_artifact(grid) -> dict:
    """``{"dataset": rows, "rendered": ascii table}`` for ``grid``.

    The ``repro grid`` summary and the service's job-result document.
    The baseline is always the grid's first design, so both are a pure
    function of the grid.
    """
    rows = normalized_time_rows(grid, grid.designs, grid.designs[0])
    rendered = format_table(
        ["benchmark"] + list(grid.designs), rows,
        title=f"Normalized execution time ({grid.designs[0]} = 1.0)")
    return {"dataset": rows, "rendered": rendered}

"""Terminal-friendly figure rendering (ASCII bar charts) and the pure
dataset builders behind the paper's Figures 5-8.

The paper's Figures 5-8 are grouped bar charts; the rendering helpers
draw the same data in a terminal so the benchmark harnesses and the
CLI can show the figure, not just its table.  Pure string formatting —
no plotting dependencies.

The ``figure*_dataset`` builders extract each figure's rows from an
:class:`~repro.analysis.experiments.ExperimentGrid` (duck-typed; only
``result`` / ``benchmarks`` are used) as JSON-able lists of lists
(Figures 5 and 8 use :func:`~repro.analysis.tables.normalized_time_rows`).
They are the ``(grid slice) -> dataset`` half of the report pipeline:
datasets round-trip through the derived-artifact cache lane
(:mod:`repro.analysis.derived`), so they must contain only JSON scalars
and lists — renderers receive exactly what JSON gives back.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence


def figure6_dataset(grid, designs: Sequence[str] = ("DNUCA", "TLC"),
                    ) -> List[list]:
    """Figure 6 rows: ``[benchmark, <mean lookup latency per design>...]``."""
    return [[bench] + [round(grid.result(d, bench).mean_lookup_latency, 1)
                       for d in designs]
            for bench in grid.benchmarks]


def figure7_dataset(grid, designs: Sequence[str]) -> List[list]:
    """Figure 7 rows: ``[benchmark, <link utilization per design>...]``."""
    return [[bench] + [grid.result(d, bench).link_utilization
                       for d in designs]
            for bench in grid.benchmarks]


#: glyph cycle for the series of a grouped chart.
_SERIES_GLYPHS = "#*+o@%"


def horizontal_bar(value: float, scale: float, width: int,
                   glyph: str = "#") -> str:
    """A single bar of ``value`` out of ``scale``, at most ``width`` glyphs."""
    if scale <= 0:
        return ""
    filled = int(round(min(value / scale, 1.0) * width))
    return glyph * filled


def grouped_bar_chart(series: Mapping[str, Mapping[str, float]],
                      categories: Sequence[str],
                      title: str = "",
                      width: int = 40,
                      value_format: str = "{:.2f}",
                      scale: Optional[float] = None,
                      reference_line: Optional[float] = None) -> str:
    """Render ``series[name][category]`` as grouped horizontal bars.

    ``reference_line`` draws a marker at that value (e.g. the SNUCA2
    normalization at 1.0 in Figures 5 and 8).
    """
    if not series:
        raise ValueError("need at least one series")
    if not categories:
        raise ValueError("need at least one category")
    names = list(series)
    values = [series[name].get(category, 0.0)
              for name in names for category in categories]
    chart_scale = scale if scale is not None else max(values + [1e-12])

    label_width = max(len(c) for c in categories)
    name_width = max(len(n) for n in names)
    lines: List[str] = []
    if title:
        lines.append(title)
    for category in categories:
        for i, name in enumerate(names):
            value = series[name].get(category, 0.0)
            glyph = _SERIES_GLYPHS[i % len(_SERIES_GLYPHS)]
            bar = horizontal_bar(value, chart_scale, width, glyph)
            if reference_line is not None and 0 < reference_line <= chart_scale:
                marker = int(round(reference_line / chart_scale * width))
                padded = list(bar.ljust(width))
                if 0 <= marker < width and padded[marker] == " ":
                    padded[marker] = "|"
                bar = "".join(padded).rstrip()
            prefix = category.rjust(label_width) if i == 0 else " " * label_width
            lines.append(
                f"{prefix}  {name.ljust(name_width)} "
                f"{value_format.format(value):>7} {bar}"
            )
        lines.append("")
    legend = "  ".join(
        f"{_SERIES_GLYPHS[i % len(_SERIES_GLYPHS)]}={name}"
        for i, name in enumerate(names))
    lines.append(f"legend: {legend}")
    return "\n".join(lines)


def latency_histogram_sparkline(histogram, width: int = 60,
                                title: str = "") -> str:
    """Render a :class:`~repro.sim.stats.Histogram` as a density strip.

    Buckets the histogram into ``width`` latency columns and shades each
    by mass — a quick visual of lookup-latency concentration (TLC's is a
    single spike; DNUCA's spreads).
    """
    # Sort defensively: Histogram.items() is sorted, but manifest bins
    # and hand-built mappings come back in insertion order, and an
    # unsorted view would put low/high at arbitrary values and drive
    # the bucket index negative or past the strip.
    items = sorted(histogram.items())
    if not items:
        return (title + "\n" if title else "") + "(empty histogram)"
    low = items[0][0]
    high = items[-1][0]
    span = max(1, high - low + 1)
    buckets = [0] * min(width, span)
    for value, count in items:
        index = (value - low) * len(buckets) // span
        buckets[index] += count
    peak = max(buckets)
    shades = " .:-=+*#%@"
    strip = "".join(
        shades[min(len(shades) - 1, (b * (len(shades) - 1)) // peak)]
        for b in buckets)
    header = f"{title}\n" if title else ""
    return (f"{header}[{low:>4} cycles] {strip} [{high} cycles]  "
            f"peak={peak} mean={histogram.mean:.1f}")

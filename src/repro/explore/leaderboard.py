"""The leaderboard: top-k variants vs the paper's designs, Fig-5 style.

A pure dataset -> render pipeline: the dataset is a pure function of
the final round's cells plus the search ranking, and the rendered text
is a pure function of the dataset.

Nothing time-dependent enters the dataset or the rendering; two runs of
one search emit byte-identical leaderboards (the property CI's explore
smoke job asserts with ``cmp``).
"""

from __future__ import annotations

from typing import List

from repro.analysis.figures import grouped_bar_chart
from repro.analysis.tables import format_table
from repro.explore.drivers import SearchResult

#: Default number of variants shown.
DEFAULT_TOP_K = 5


def leaderboard_dataset(result: SearchResult, top_k: int = DEFAULT_TOP_K) -> dict:
    """The JSON dataset behind the leaderboard.

    Rows are the spec's reference designs (the paper's rows — baseline
    first, always 1.0-normalized against itself) followed by the top-k
    *final* variants: only candidates scored in the last round carry
    full-fidelity per-benchmark numbers, so ``halving`` leaderboards
    never mix rung fidelities (eliminated variants still appear in the
    trajectory's ranking, marked ``final: false``).
    """
    spec = result.spec
    grid = result.final_grid
    top = [entry for entry in result.ranking if entry["final"]][:top_k]

    def normalized(design: str) -> dict:
        return {bench: round(grid.normalized_execution_time(
                    design, bench, spec.baseline), 3)
                for bench in spec.benchmarks}

    rows: List[dict] = []
    for design in spec.references:
        norm = normalized(design)
        rows.append({"design": design, "role": "reference",
                     "score": round(sum(norm.values())
                                    / len(spec.benchmarks), 6),
                     "overrides": None,
                     "normalized": norm})
    for entry in top:
        rows.append({"design": entry["variant"], "role": "variant",
                     "score": entry["score"],
                     "overrides": entry["overrides"],
                     "normalized": normalized(entry["variant"])})
    return {
        "kind": "explore.leaderboard",
        "space": spec.name,
        "baseline": spec.baseline,
        "driver": result.driver,
        "search_seed": result.search_seed,
        "budget": result.budget,
        "top_k": top_k,
        "n_refs": spec.n_refs,
        "benchmarks": list(spec.benchmarks),
        "variants_total": result.variants_total,
        "variants_skipped": result.variants_skipped,
        "rows": rows,
    }


def render_leaderboard(dataset: dict) -> str:
    """Render a leaderboard dataset as text (table + Fig-5-style bars)."""
    def describe(overrides) -> str:
        if not overrides:
            return "(paper design)"
        return ", ".join(f"{field}={value}"
                         for field, value in sorted(overrides.items()))

    table_rows = [
        [row["design"], row["role"], f"{row['score']:.3f}",
         describe(row["overrides"])]
        for row in dataset["rows"]]
    table = format_table(
        ["design", "role", "mean norm. time", "overrides"], table_rows,
        title=(f"Design-space leaderboard: {dataset['space']} "
               f"(driver={dataset['driver']}, seed={dataset['search_seed']}, "
               f"budget={dataset['budget']}, "
               f"baseline {dataset['baseline']} = 1.0)"))
    series = {row["design"]: row["normalized"] for row in dataset["rows"]}
    chart = grouped_bar_chart(
        series, dataset["benchmarks"],
        title=(f"Normalized execution time, top-{dataset['top_k']} "
               f"variants vs paper designs ({dataset['baseline']} = 1.0)"),
        reference_line=1.0)
    summary = (f"{dataset['variants_total']} variant(s) in space, "
               f"{dataset['variants_skipped']} skipped as unbuildable, "
               f"{len(dataset['rows'])} row(s) shown at "
               f"n_refs={dataset['n_refs']}")
    return "\n\n".join([table, chart, summary])


def leaderboard_artifact(result: SearchResult,
                         top_k: int = DEFAULT_TOP_K) -> dict:
    """``{"dataset", "rendered"}``: the leaderboard and its text."""
    dataset = leaderboard_dataset(result, top_k)
    return {"dataset": dataset, "rendered": render_leaderboard(dataset)}

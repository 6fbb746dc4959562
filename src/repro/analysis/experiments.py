"""Grid-runner utilities shared by the benchmark harnesses.

The paper's evaluation is a (design x benchmark) grid; these helpers run
it with a *shared trace per benchmark* (so every design sees the
identical reference stream, like the paper's identical checkpoints) and
return the per-cell :class:`~repro.sim.system.SystemResult` objects.

Execution is delegated to :mod:`repro.analysis.runner`: pass
``workers > 1`` to fan cells out over processes and ``cache`` (a
directory path or :class:`~repro.analysis.runner.ResultCache`) to reuse
previously simulated cells across calls and sessions.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence, Tuple

from repro.sim.processor import ProcessorConfig
from repro.sim.system import SystemResult

#: The three designs of Figure 5 / Figure 6 / Table 9.
MAIN_DESIGNS: Tuple[str, ...] = ("SNUCA2", "DNUCA", "TLC")

#: The TLC family of Figure 7 / Figure 8.
TLC_FAMILY: Tuple[str, ...] = ("TLC", "TLCopt1000", "TLCopt500", "TLCopt350")

#: The family grid: SNUCA2 (the normalization baseline) plus the family.
FAMILY_DESIGNS: Tuple[str, ...] = ("SNUCA2",) + TLC_FAMILY

#: Every design of the two grids, each once: SNUCA2 and TLC are in both.
PAPER_DESIGNS: Tuple[str, ...] = MAIN_DESIGNS + tuple(
    design for design in FAMILY_DESIGNS if design not in MAIN_DESIGNS)


@dataclasses.dataclass(frozen=True)
class ExperimentGrid:
    """Results of a (design x benchmark) sweep."""

    designs: Tuple[str, ...]
    benchmarks: Tuple[str, ...]
    results: Dict[Tuple[str, str], SystemResult]  # (design, benchmark) -> result
    #: per-cell execution provenance from the runner —
    #: ``{"wall_time_s", "from_cache", "l2_hits", "l2_misses"}`` per
    #: ``(design, benchmark)``.  Runtime-only and excluded from
    #: equality: it describes how the grid was *obtained* (timings,
    #: cache hits), not what was measured, so saved/loaded and
    #: cached/recomputed grids still compare equal.  ``None`` for grids
    #: loaded from disk or built by hand.
    cell_meta: Optional[Dict[Tuple[str, str], dict]] = dataclasses.field(
        default=None, compare=False)

    def cell_keys(self) -> Tuple[str, ...]:
        """Provenance keys of every cell in the grid, sorted.

        The per-cell fingerprints the derived-artifact lane
        (:mod:`repro.analysis.derived`) keys the rendered report by.
        Grids produced by the runner carry each cell's result-cache key
        in :attr:`cell_meta` (it embeds every simulation input plus the
        code-version stamp); grids loaded from disk or built by hand
        have no runner provenance, so their cells fall back to a
        ``content:``-prefixed digest of the result payload itself — a
        different namespace, but equally a pure function of what the
        cell holds, so a cached report can only be reused when the
        contributing data is identical.
        """
        keys = []
        for design in self.designs:
            for benchmark in self.benchmarks:
                meta = (self.cell_meta or {}).get((design, benchmark))
                if meta is not None and meta.get("cache_key"):
                    keys.append(meta["cache_key"])
                    continue
                from repro.analysis.storage import (
                    integrity_digest,
                    result_to_dict,
                )

                digest = integrity_digest(
                    result_to_dict(self.result(design, benchmark)))
                keys.append(f"content:{digest}")
        return tuple(sorted(keys))

    def select(self, designs: Sequence[str]) -> "ExperimentGrid":
        """The grid of ``designs`` alone, over every benchmark.

        Results and :attr:`cell_meta` are this grid's own, in its cell
        order, so one run of the union of two grids answers both.
        """
        designs = tuple(designs)
        unknown = [design for design in designs if design not in self.designs]
        if unknown:
            raise KeyError(f"designs {unknown} are not in this grid, which "
                           f"holds {list(self.designs)}")
        chosen = set(designs)
        results = {cell: result for cell, result in self.results.items()
                   if cell[0] in chosen}
        cell_meta = (None if self.cell_meta is None
                     else {cell: self.cell_meta[cell] for cell in results})
        return ExperimentGrid(designs, self.benchmarks, results,
                              cell_meta=cell_meta)

    def result(self, design: str, benchmark: str) -> SystemResult:
        try:
            return self.results[(design, benchmark)]
        except KeyError:
            raise KeyError(
                f"no result for cell (design={design!r}, "
                f"benchmark={benchmark!r}); this grid holds designs "
                f"{list(self.designs)} and benchmarks "
                f"{list(self.benchmarks)}") from None

    def normalized_execution_time(self, design: str, benchmark: str,
                                  baseline: str = "SNUCA2") -> float:
        """Execution time relative to ``baseline`` (Fig. 5 / Fig. 8)."""
        base = self.result(baseline, benchmark).cycles
        if base == 0:
            return 0.0
        return self.result(design, benchmark).cycles / base


def run_design_grid(designs: Sequence[str] = MAIN_DESIGNS,
                    benchmarks: Optional[Sequence[str]] = None,
                    n_refs: int = 30_000, seed: int = 7,
                    warmup_fraction: float = 0.3,
                    processor_config: Optional[ProcessorConfig] = None,
                    workers: int = 1,
                    cache=None,
                    policy=None, fault_plan=None,
                    telemetry=None, sanitize: bool = False,
                    ) -> ExperimentGrid:
    """Run every design on every benchmark, one shared trace per benchmark.

    ``workers`` and ``cache`` are forwarded to
    :func:`repro.analysis.runner.run_grid`; the default (serial,
    uncached) path is cell-for-cell identical to both.  ``policy`` /
    ``fault_plan`` / ``telemetry`` set retries, injected faults and
    counting (:mod:`repro.analysis.resilience`).
    """
    from repro.analysis.runner import run_grid

    return run_grid(designs=designs, benchmarks=benchmarks, n_refs=n_refs,
                    seed=seed, warmup_fraction=warmup_fraction,
                    processor_config=processor_config,
                    workers=workers, cache=cache,
                    policy=policy,
                    fault_plan=fault_plan, telemetry=telemetry,
                    sanitize=sanitize)


def run_paper_grids(n_refs: int = 20_000, workers: int = 1, cache=None,
                    policy=None, telemetry=None,
                    ) -> Tuple[ExperimentGrid, ExperimentGrid]:
    """``(main, family)``: the report's two grids from one run.

    The :data:`PAPER_DESIGNS` cells run once, with or without a cache,
    and each grid is a :meth:`~ExperimentGrid.select` of that run, so
    the cells both grids hold are simulated once.  Arguments are
    :func:`run_design_grid`'s.
    """
    grid = run_design_grid(designs=PAPER_DESIGNS, n_refs=n_refs,
                           workers=workers, cache=cache, policy=policy,
                           telemetry=telemetry)
    return grid.select(MAIN_DESIGNS), grid.select(FAMILY_DESIGNS)

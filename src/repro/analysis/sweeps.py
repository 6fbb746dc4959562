"""Parameter-sensitivity sweeps around the paper's design point.

The paper evaluates one technology point (45 nm, 10 GHz, 300-cycle
memory).  These sweeps quantify how its conclusions move with the
parameters a skeptical reader would poke at:

* :func:`memory_latency_sweep` — does TLC's advantage survive slower or
  faster memory?  (It grows as memory gets faster: L2 lookup latency is
  a larger share of the stall budget.)
* :func:`frequency_sweep` — the TLC latency budget at other clock
  rates: bank access cycles rescale, transmission-line flight stays
  about one cycle until the cycle time drops below the flight time.
* :func:`dependence_sweep` — how workload dependence (pointer chasing)
  moves each design's exposed latency; the knob behind mcf vs swim.

The simulating sweeps (memory latency, dependence) route their cells
through :mod:`repro.analysis.runner`, so they accept the same
``workers`` / ``cache`` knobs as the grid helpers.  The frequency
sweep is purely analytic (no simulation) and runs inline.

Each sweep returns plain lists of (parameter, metric) pairs so callers
can table or chart them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.area.cacti import bank_access_time_cycles
from repro.sim.processor import ProcessorConfig
from repro.tech import Technology
from repro.tline.signaling import evaluate_link
from repro.workloads.synthetic import TraceSpec


def memory_latency_sweep(benchmark: str = "gcc",
                         latencies: Sequence[int] = (150, 300, 600),
                         designs: Sequence[str] = ("SNUCA2", "TLC"),
                         n_refs: int = 10_000,
                         seed: int = 7,
                         warmup_fraction: float = 0.3,
                         workers: int = 1,
                         cache=None,
                         ) -> List[Tuple[int, Dict[str, float]]]:
    """Execution cycles per design at several DRAM latencies.

    Returns ``[(latency, {design: cycles}), ...]``.
    """
    from repro.analysis.runner import CellSpec, execute_cells

    cells = [CellSpec(design=design, benchmark=benchmark, n_refs=n_refs,
                      seed=seed, warmup_fraction=warmup_fraction,
                      memory_latency_cycles=latency)
             for latency in latencies for design in designs]
    results = execute_cells(cells, workers=workers, cache=cache)
    by_cell = {(cell.memory_latency_cycles, cell.design): result
               for cell, result in zip(cells, results)}
    return [(latency, {design: by_cell[(latency, design)].cycles
                       for design in designs})
            for latency in latencies]


def frequency_sweep(frequencies_ghz: Sequence[float] = (5.0, 10.0, 20.0),
                    bank_bytes: int = 512 * 1024,
                    length_m: float = 0.013):
    """TLC latency budget across clock frequencies.

    Returns ``[(ghz, bank_cycles, line_cycles, usable), ...]`` — how the
    bank access and the 1.3 cm line trade places as the cycle shrinks.
    """
    rows = []
    for ghz in frequencies_ghz:
        tech = Technology(name=f"45nm-{ghz:g}GHz", frequency_hz=ghz * 1e9)
        bank_cycles = bank_access_time_cycles(bank_bytes, tech)
        report = evaluate_link(length_m, tech=tech)
        rows.append((ghz, bank_cycles, report.latency_cycles, report.usable))
    return rows


def dependence_sweep(fractions: Sequence[float] = (0.0, 0.3, 0.6, 0.9),
                     designs: Sequence[str] = ("SNUCA2", "TLC"),
                     n_refs: int = 8_000, seed: int = 7,
                     warmup_fraction: float = 0.3,
                     processor_config: Optional[ProcessorConfig] = None,
                     workers: int = 1,
                     cache=None):
    """Design sensitivity to workload dependence chains.

    Returns ``[(fraction, {design: cycles}), ...]``; the gap between
    designs should widen as dependence rises (nothing hides L2 latency
    in a pointer chase).
    """
    from repro.analysis.runner import CellSpec, execute_cells

    specs = {fraction: TraceSpec(mean_gap=12.0, hot_blocks=100_000,
                                 hot_skew=1.5, dependent_fraction=fraction,
                                 write_fraction=0.25)
             for fraction in fractions}
    cells = [CellSpec(design=design, benchmark=f"dep-{fraction}",
                      n_refs=n_refs, seed=seed,
                      warmup_fraction=warmup_fraction,
                      trace_spec=specs[fraction],
                      processor_config=processor_config)
             for fraction in fractions for design in designs]

    results = execute_cells(cells, workers=workers, cache=cache)
    by_cell = {(cell.benchmark, cell.design): result
               for cell, result in zip(cells, results)}
    return [(fraction, {design: by_cell[(f"dep-{fraction}", design)].cycles
                        for design in designs})
            for fraction in fractions]

"""Parallel experiment runner with a content-addressed result cache.

The paper's whole evaluation (Figs. 5-8, Tables 6-9) is a
(design x benchmark) grid whose cells are completely independent: every
cell is determined by ``(design, benchmark trace spec, n_refs, seed,
warmup_fraction, processor config, technology)`` and nothing else.  This
module exploits that twice:

* **parallelism** — every computed cell runs in its own child process,
  at most ``workers`` at a time, scheduled by
  :mod:`repro.analysis.resilience`.  A child receives only a small
  picklable :class:`CellSpec` and regenerates the trace locally from
  ``(spec, n_refs, seed)`` (generation is deterministic and
  vectorized), so no multi-megabyte trace is ever pickled across the
  process boundary; it exits after its one cell.  Where no child
  process can be started at all (sandboxes, restricted platforms) the
  cells run in-process instead, byte-identically.

* **caching** — an on-disk :class:`ResultCache` keyed by the SHA-256 of
  every simulation input plus a code-version stamp (a digest of the
  ``repro`` package sources).  A warm cache answers a repeated cell
  without simulating; editing any source file under ``repro`` changes
  the stamp and invalidates every entry at once, so stale results can
  never leak across code versions.  Each cell is stored the moment it
  finishes, so an interrupted run resumes by rerunning it against the
  same cache directory: finished cells are hits, only the rest simulate.

:func:`run_grid` is the one entry point the grid and sweep helpers in
:mod:`repro.analysis.experiments` and :mod:`repro.analysis.sweeps` are
layered on; :func:`execute_cells` is the lower-level list-in/list-out
executor for irregular cell sets (the sweeps).

The same scheduler retries, times out and reschedules cells and
injects planned faults: ``policy`` / ``fault_plan`` / ``telemetry``
(see :func:`execute_cells_detailed`) tune retries, deadlines, injected
faults and counting, never which code runs a cell.  Cache entries
carry an integrity digest; a corrupted or truncated entry is
quarantined under ``<cache_dir>/quarantine/`` and recomputed instead of
crashing the grid (``ResultCache.load`` raises the typed
:class:`~repro.analysis.storage.CacheCorruptionError` for callers that
want the failure).
"""

from __future__ import annotations

import dataclasses
import hashlib
import operator
import os
import time as _time
from typing import Dict, List, Optional, Sequence, Tuple, Union

# Every computed cell runs in a child forked from this process.  The
# design classes are otherwise imported on each cell's first
# build_design call, so import them once here for every child to inherit.
import repro.nuca  # noqa: F401
from repro.analysis.resilience import (
    FaultPlan,
    RetryPolicy,
    RunnerTelemetry,
    run_misses,
)
from repro.analysis.storage import RESULT_CODEC, ContentStore, canonical_json
# The code-version stamp moved to repro.obs.manifest (manifests carry it
# too); re-exported here because cache keys embed it and callers import
# it from this module.
from repro.obs.manifest import code_version_stamp
from repro.sim.processor import ProcessorConfig
from repro.sim.system import SystemResult, run_system
from repro.tech import TECH_45NM, Technology
from repro.workloads.profiles import benchmark_names
from repro.workloads.synthetic import TraceSpec, generate_trace

#: Bump when the cache payload layout (not the simulated code) changes.
#: v2 added the per-entry integrity digest; v3 switched the result's
#: ``stats`` field to the canonical pair-list encoding (see
#: :func:`repro.analysis.storage.result_to_dict`), which preserves
#: integer stat keys across the JSON round trip; v4 dropped the key
#: field that chose between two replay loops (there is one now); v5
#: moved entries into the :class:`~repro.analysis.storage.ContentStore`
#: envelope both cache lanes share.  Old entries hash to different keys
#: (the version is part of the key payload) and are simply unseen.
CACHE_FORMAT_VERSION = 5


def _flat_fields(kind: type):
    """``instance -> dict`` of a flat dataclass's fields in order.

    ``dataclasses.asdict`` without its deep copy: every field of
    :class:`ProcessorConfig` and :class:`TraceSpec` is a scalar, which
    ``asdict`` copies as it is.  A field that is not would reach the
    cache key's JSON encoder as an object and fail loudly there.
    """
    names = tuple(field.name for field in dataclasses.fields(kind))
    values = operator.attrgetter(*names)
    return lambda instance: dict(zip(names, values(instance)))


_processor_fields = _flat_fields(ProcessorConfig)
_trace_spec_fields = _flat_fields(TraceSpec)
#: The key fields of the design-point core, which most cells run.
_DEFAULT_PROCESSOR_FIELDS = _processor_fields(ProcessorConfig())


@dataclasses.dataclass(frozen=True)
class CellSpec:
    """One grid cell: everything that determines a :class:`SystemResult`.

    Small and picklable by construction — this is the only object
    shipped to a cell's child process.  ``trace_spec=None`` means "the
    calibrated profile named by ``benchmark``"; a non-``None`` spec
    supports the sweeps' custom workloads.
    ``memory_latency_cycles=None`` keeps the design-point DRAM (300
    cycles).
    """

    design: str
    benchmark: str
    n_refs: int
    seed: int
    warmup_fraction: float = 0.3
    processor_config: Optional[ProcessorConfig] = None
    tech: Technology = TECH_45NM
    trace_spec: Optional[TraceSpec] = None
    memory_latency_cycles: Optional[int] = None
    #: run under the simulator-core sanitizer (invariant checks +
    #: watchdog).  A clean sanitized run returns a byte-identical
    #: result, but the flag is still part of the cache key: a sanitized
    #: entry certifies "checked", and mixing would hide that provenance.
    sanitize: bool = False
    #: registry design this cell's ``design`` is a *variant* of.  When
    #: set, ``design`` is a display name (not a registry key) and the
    #: cell is built as ``build_design(design_base, name=design,
    #: **design_overrides)`` — the design-space exploration layer
    #: (:mod:`repro.explore`) runs its expanded variants through the
    #: grid this way.  ``None`` (every classic cell) keeps ``design``
    #: as the registry name.
    design_base: Optional[str] = None
    #: canonical sorted ``(field, value)`` override pairs applied to the
    #: base config (see :class:`~repro.core.config.DesignVariant`).
    #: Part of the cache key: two variants differing in any override
    #: are different simulations.
    design_overrides: Optional[Tuple[Tuple[str, object], ...]] = None

    def key_fields(self) -> dict:
        """The canonical, JSON-able dictionary the cache key hashes."""
        return {
            "design": self.design,
            "benchmark": self.benchmark,
            "n_refs": self.n_refs,
            "seed": self.seed,
            "warmup_fraction": self.warmup_fraction,
            "processor_config": (dict(_DEFAULT_PROCESSOR_FIELDS)
                                 if self.processor_config is None
                                 else _processor_fields(self.processor_config)),
            "tech": self.tech.name,
            "trace_spec": (None if self.trace_spec is None
                           else _trace_spec_fields(self.trace_spec)),
            "memory_latency_cycles": self.memory_latency_cycles,
            "sanitize": self.sanitize,
            "design_base": self.design_base,
            "design_overrides": (None if self.design_overrides is None
                                 else [[field, value] for field, value
                                       in self.design_overrides]),
        }


def cache_key(cell: CellSpec) -> str:
    """Content hash of one cell: SHA-256 over inputs + code version."""
    payload = cell.key_fields()
    payload["code_version"] = code_version_stamp()
    payload["cache_format"] = CACHE_FORMAT_VERSION
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def run_cell(cell: CellSpec) -> SystemResult:
    """Simulate one cell from scratch (no cache)."""
    from repro.sim.memory import MainMemory

    memory = (None if cell.memory_latency_cycles is None
              else MainMemory(latency_cycles=cell.memory_latency_cycles))
    design = cell.design
    overrides: Dict[str, object] = {}
    if cell.design_base is not None:
        # A variant cell: build the base design under the variant's own
        # name so the result (and the grid row) carries that name.
        design = cell.design_base
        overrides = dict(cell.design_overrides or ())
        overrides["name"] = cell.design
    if cell.trace_spec is not None:
        trace = generate_trace(cell.trace_spec, cell.n_refs, seed=cell.seed)
        return run_system(design, cell.benchmark, trace=trace,
                          warmup_fraction=cell.warmup_fraction,
                          prewarm_spec=cell.trace_spec,
                          processor_config=cell.processor_config,
                          tech=cell.tech, memory=memory,
                          sanitize=cell.sanitize,
                          **overrides)
    return run_system(design, cell.benchmark, n_refs=cell.n_refs,
                      seed=cell.seed, warmup_fraction=cell.warmup_fraction,
                      processor_config=cell.processor_config,
                      tech=cell.tech, memory=memory,
                      sanitize=cell.sanitize,
                      **overrides)


def run_cell_timed(cell: CellSpec) -> Tuple[SystemResult, float]:
    """Simulate one cell, returning ``(result, wall seconds)``.

    A cell's child-process entry: the wall time is measured inside the
    child, so it reflects simulation cost, not process start-up or
    pickling.
    """
    started = _time.perf_counter()
    result = run_cell(cell)
    return result, _time.perf_counter() - started


@dataclasses.dataclass(frozen=True)
class CellOutcome:
    """One executed cell plus its execution provenance.

    ``wall_time_s`` is the wall-clock cost of answering the cell —
    simulation time for a computed cell, cache-read time for a cached
    one.  Provenance lives here and *not* in :class:`SystemResult` on
    purpose: results stay byte-stable across serial/parallel/cached
    execution (the saved-grid and cache formats hash and compare them),
    while outcomes may differ per run.
    """

    cell: CellSpec
    #: the cell's :func:`cache_key`, computed once per execution.
    key: str
    result: SystemResult
    wall_time_s: float
    from_cache: bool
    #: attempts the cell took: 1 for a cache hit or a first-try
    #: success, more when the retry policy re-ran it.
    attempts: int = 1


class ResultCache(ContentStore):
    """The result lane: :class:`SystemResult` cells by :func:`cache_key`.

    Authoritative — a result lost here must be simulated again.  Layout,
    atomic writes, verify-on-read and quarantine are
    :class:`~repro.analysis.storage.ContentStore`'s; entries carry the
    cell's key fields as ``meta`` (``put(key, result,
    cell=cell.key_fields())``).
    """

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        super().__init__(root, CACHE_FORMAT_VERSION, RESULT_CODEC)


def as_cache(cache: Union[ResultCache, str, os.PathLike, None],
             ) -> Optional[ResultCache]:
    """Coerce a cache argument (directory path or ResultCache) to a cache."""
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


def execute_cells_detailed(cells: Sequence[CellSpec], workers: int = 1,
                           cache: Union[ResultCache, str, os.PathLike,
                                        None] = None,
                           policy: Optional[RetryPolicy] = None,
                           fault_plan: Optional[FaultPlan] = None,
                           telemetry: Optional[RunnerTelemetry] = None,
                           ) -> List[CellOutcome]:
    """Run every cell, in order, answering from ``cache`` where possible.

    One cache pass fingerprints every cell and looks it up.  Each miss
    then runs in its own child process, at most ``workers`` at a time,
    and is written to the cache as soon as it finishes, so a run
    interrupted part-way resumes by running again against the same
    cache.  The returned list is parallel to ``cells`` regardless of
    completion order, and results are bit-identical for any
    ``workers``: each cell is a deterministic function of its spec
    alone.  Each :class:`CellOutcome` additionally records the cell's
    cache key, its wall time, whether the cache answered it and how
    many attempts it took.

    ``policy`` (default ``RetryPolicy()``: one attempt, no deadline)
    sets retries and the per-attempt timeout, ``fault_plan`` (default:
    the ``REPRO_FAULT_PLAN`` environment variable) injects faults, and
    ``telemetry`` (default: a fresh
    :class:`~repro.analysis.resilience.RunnerTelemetry`) counts hits,
    attempts, retries, timeouts and worker deaths.  None of them
    changes where a cell runs.
    """
    cache = as_cache(cache)
    if policy is None:
        policy = RetryPolicy()
    if fault_plan is None:
        fault_plan = FaultPlan.from_env()
    if telemetry is None:
        telemetry = RunnerTelemetry()
    telemetry.add("cells", len(cells))
    quarantined_before = cache.quarantined if cache is not None else 0
    outcomes: List[Optional[CellOutcome]] = [None] * len(cells)
    misses: List[Tuple[int, CellSpec, str]] = []
    try:
        for index, cell in enumerate(cells):
            key = cache_key(cell)
            started = _time.perf_counter()
            cached = cache.get(key) if cache is not None else None
            if cached is None:
                misses.append((index, cell, key))
                continue
            outcomes[index] = CellOutcome(
                cell=cell, key=key, result=cached,
                wall_time_s=_time.perf_counter() - started, from_cache=True)
            telemetry.add("cache_hits")
        run_misses(misses, outcomes, workers, cache, policy, fault_plan,
                   telemetry)
    finally:
        if cache is not None:
            telemetry.add("quarantined",
                          cache.quarantined - quarantined_before)
    return outcomes  # type: ignore[return-value]


def execute_cells(cells: Sequence[CellSpec], workers: int = 1,
                  cache: Union[ResultCache, str, os.PathLike, None] = None,
                  **resilience) -> List[SystemResult]:
    """Run every cell, in order; results only (see
    :func:`execute_cells_detailed` for per-cell provenance)."""
    return [outcome.result for outcome
            in execute_cells_detailed(cells, workers=workers, cache=cache,
                                      **resilience)]


def design_label(design) -> str:
    """The grid-row name of one ``designs`` entry (name or variant)."""
    return design if isinstance(design, str) else design.name


def _cell_design_fields(design) -> Tuple[str, Optional[str],
                                         Optional[Tuple[Tuple[str, object],
                                                        ...]]]:
    """``(design, design_base, design_overrides)`` for one entry.

    A plain string is a registry design name; anything else is treated
    as a :class:`~repro.core.config.DesignVariant` (duck-typed on
    ``name`` / ``base`` / ``overrides`` so the runner does not import
    the exploration layer).
    """
    if isinstance(design, str):
        return design, None, None
    return design.name, design.base, tuple(design.overrides)


def grid_cell_specs(designs: Sequence,
                    benchmarks: Optional[Sequence[str]] = None,
                    n_refs: int = 30_000, seed: int = 7,
                    warmup_fraction: float = 0.3,
                    processor_config: Optional[ProcessorConfig] = None,
                    tech: Technology = TECH_45NM,
                    sanitize: bool = False,
                    ) -> Tuple[List[CellSpec], Tuple[str, ...]]:
    """The cell specs a :func:`run_grid` call would execute, without
    executing them.

    Returns ``(cells, benchmarks)`` with the benchmark default
    resolved.  Callers that only need the grid's *identity* — the
    derived-artifact lane fingerprints a whole report by its cells'
    cache keys before deciding whether any simulation is needed at all
    — get it from here for the cost of a few hashes.

    ``designs`` entries are registry names (strings) or
    :class:`~repro.core.config.DesignVariant`-like objects; a variant's
    cell carries its base design and override pairs so its child
    process can rebuild it without any registry mutation.
    """
    if benchmarks is None:
        benchmarks = benchmark_names()
    fields = [_cell_design_fields(design) for design in designs]
    cells = [CellSpec(design=name, benchmark=benchmark, n_refs=n_refs,
                      seed=seed, warmup_fraction=warmup_fraction,
                      processor_config=processor_config, tech=tech,
                      sanitize=sanitize,
                      design_base=base, design_overrides=overrides)
             for benchmark in benchmarks
             for name, base, overrides in fields]
    return cells, tuple(benchmarks)


def run_grid(designs: Sequence,
             benchmarks: Optional[Sequence[str]] = None,
             n_refs: int = 30_000, seed: int = 7,
             warmup_fraction: float = 0.3,
             processor_config: Optional[ProcessorConfig] = None,
             tech: Technology = TECH_45NM,
             workers: int = 1,
             cache: Union[ResultCache, str, os.PathLike, None] = None,
             policy=None, fault_plan=None, telemetry=None,
             sanitize: bool = False):
    """Run a full (design x benchmark) grid through the runner.

    Returns an :class:`~repro.analysis.experiments.ExperimentGrid`.
    Every design sees the identical per-benchmark reference stream (the
    trace is a pure function of ``(profile spec, n_refs, seed)``), so
    this matches the legacy serial grid cell-for-cell.  ``policy`` /
    ``fault_plan`` / ``telemetry`` are passed to
    :func:`execute_cells_detailed`.
    ``sanitize=True`` runs every cell under the simulator-core
    sanitizer; a clean sanitized grid is byte-identical to a plain one.

    ``designs`` entries may be registry names or
    :class:`~repro.core.config.DesignVariant`-like objects (see
    :func:`grid_cell_specs`); the returned grid is keyed by each
    entry's display name either way.
    """
    from repro.analysis.experiments import ExperimentGrid

    cells, benchmarks = grid_cell_specs(
        designs, benchmarks, n_refs=n_refs, seed=seed,
        warmup_fraction=warmup_fraction, processor_config=processor_config,
        tech=tech, sanitize=sanitize)
    outcomes = execute_cells_detailed(cells, workers=workers, cache=cache,
                                      policy=policy, fault_plan=fault_plan,
                                      telemetry=telemetry)
    cell_results: Dict[Tuple[str, str], SystemResult] = {
        (outcome.cell.design, outcome.cell.benchmark): outcome.result
        for outcome in outcomes
    }
    cell_meta = {
        (outcome.cell.design, outcome.cell.benchmark): {
            "wall_time_s": outcome.wall_time_s,
            "from_cache": outcome.from_cache,
            "attempts": outcome.attempts,
            "l2_hits": outcome.result.l2_hits,
            "l2_misses": outcome.result.l2_misses,
            # The cell's result-cache key: the provenance fingerprint
            # the derived-artifact lane builds its own keys from, also
            # recorded when no result cache was in play (the key is a
            # pure function of the spec + code version, not of whether
            # a cache directory happened to be configured).
            "cache_key": outcome.key,
        }
        for outcome in outcomes
    }
    return ExperimentGrid(tuple(design_label(design) for design in designs),
                          tuple(benchmarks), cell_results,
                          cell_meta=cell_meta)

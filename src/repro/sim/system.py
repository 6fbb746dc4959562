"""System composition: workload -> processor -> L2 design -> memory.

`run_system` is the one-call experiment entry point used by the
examples, the tests, and every benchmark harness: it builds the named
L2 design, generates (or accepts) a reference trace, replays it through
the processor model, and returns a :class:`SystemResult` carrying every
metric the paper's tables and figures report.

Passing a :class:`~repro.obs.manifest.RunObserver` additionally yields
a :class:`~repro.obs.manifest.RunManifest` (config digest, seed, code
version, wall time, full metrics snapshot) and — if the observer holds
an :class:`~repro.obs.trace.EventTracer` — a per-reference event trace.
Observation never changes the simulation: results with and without an
observer are identical.
"""

from __future__ import annotations

import dataclasses
import time as _time
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.core.config import build_design, warmup_fraction_error
from repro.sim.memory import MainMemory
from repro.sim.processor import ExecutionResult, Processor, ProcessorConfig
from repro.tech import Technology, TECH_45NM
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import generate_trace, resident_block_addresses
from repro.workloads.trace import Reference


@dataclasses.dataclass(frozen=True)
class SystemResult:
    """Everything measured from one (design, workload) run."""

    design: str
    benchmark: str
    cycles: int
    instructions: int
    l2_requests: int
    l2_hits: int
    l2_misses: int
    mean_lookup_latency: float
    predictable_lookup_fraction: float
    banks_accessed_per_request: float
    link_utilization: float
    network_power_w: float
    stats: dict

    @property
    def ipc(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles

    @property
    def miss_ratio(self) -> float:
        if self.l2_requests == 0:
            return 0.0
        return self.l2_misses / self.l2_requests

    @property
    def misses_per_kinstr(self) -> float:
        if self.instructions == 0:
            return 0.0
        return 1000.0 * self.l2_misses / self.instructions


def prewarm_l2(l2, resident: Union[np.ndarray, Sequence[int]]) -> int:
    """Install a resident block population into ``l2``, returning the count.

    ``resident`` is least-popular-first (the order
    :func:`~repro.workloads.synthetic.resident_block_addresses` yields);
    designs declare via ``install_order`` whether popular blocks should
    be installed last (SNUCA/TLC: most-recent wins placement) or first
    (DNUCA: first installs land in the closest banks).  The design gets
    the whole install-ordered population in one ``bulk_install`` call;
    an array of distinct blocks into a fresh design is placed in closed
    form there.
    """
    ordered = (resident if l2.install_order == "popular_last"
               else resident[::-1])
    l2.bulk_install(ordered)
    return len(resident)


class System:
    """A processor + L2 design + memory, ready to replay traces."""

    def __init__(self, design_name: str,
                 processor_config: Optional[ProcessorConfig] = None,
                 tech: Technology = TECH_45NM,
                 memory: Optional[MainMemory] = None,
                 tracer=None,
                 **design_overrides) -> None:
        self.memory = memory if memory is not None else MainMemory()
        self.l2 = build_design(design_name, memory=self.memory, tech=tech,
                               **design_overrides)
        self.processor = Processor(self.l2, processor_config, tracer=tracer)

    def run(self, trace: Sequence[Reference], benchmark: str = "custom",
            warmup_refs: int = 0) -> SystemResult:
        result: ExecutionResult = self.processor.run(trace, warmup_refs)
        l2 = self.l2
        return SystemResult(
            design=l2.name,
            benchmark=benchmark,
            cycles=result.cycles,
            instructions=result.instructions,
            l2_requests=l2.stats["requests"],
            l2_hits=l2.stats["hits"],
            l2_misses=l2.stats["misses"],
            mean_lookup_latency=l2.mean_lookup_latency,
            predictable_lookup_fraction=l2.predictable_lookup_fraction,
            banks_accessed_per_request=l2.banks_accessed_per_request,
            link_utilization=l2.link_utilization(result.cycles),
            network_power_w=l2.network_power_w(result.cycles),
            stats=l2.stats.as_dict(),
        )


def run_system(design_name: str, benchmark: str, n_refs: int = 50_000,
               warmup_fraction: float = 0.3, seed: int = 7,
               processor_config: Optional[ProcessorConfig] = None,
               tech: Technology = TECH_45NM,
               trace: Optional[List[Reference]] = None,
               prewarm_spec=None,
               memory: Optional[MainMemory] = None,
               observer=None,
               sanitize: bool = False,
               sanitizer=None,
               crash_dir: Optional[str] = None,
               warmup_refs: Optional[int] = None,
               **design_overrides) -> SystemResult:
    """Run ``benchmark`` on ``design_name`` and collect all metrics.

    ``trace`` short-circuits generation (so one generated trace can be
    replayed against several designs); otherwise the benchmark profile
    is rendered to ``n_refs`` references with the given seed, of which
    the first ``warmup_fraction`` warm the cache without being measured.

    The cache is pre-warmed with the workload's resident population —
    from the named profile when one exists, or from ``prewarm_spec``
    (the :class:`~repro.workloads.synthetic.TraceSpec` the custom trace
    was generated from).  A custom trace without a spec starts cold.

    ``memory`` substitutes a non-default :class:`MainMemory` (e.g. the
    latency sweeps' slower/faster DRAM).

    ``observer`` (a :class:`~repro.obs.manifest.RunObserver`) receives
    the run's :class:`~repro.obs.manifest.RunManifest` on
    ``observer.manifest``, and its tracer — when set — is attached to
    the processor model.  Observation is strictly read-only: the
    returned :class:`SystemResult` is identical with or without it.

    ``sanitize=True`` attaches a default
    :class:`~repro.sanitizer.Sanitizer` (``sanitizer`` passes a
    preconfigured one, e.g. with a non-default
    :class:`~repro.sanitizer.SanitizerConfig` or an injected
    :class:`~repro.sanitizer.SimFault`); a broken invariant raises
    :class:`~repro.sanitizer.SanitizerViolation`.  Like observation,
    a clean sanitized run returns an identical :class:`SystemResult`.

    ``crash_dir`` enables crash bundles: any exception escaping the
    simulation is first captured to a replayable bundle directory under
    ``crash_dir`` (see :mod:`repro.sanitizer.bundle`), and the bundle
    path is attached to the exception as ``crash_bundle``.

    ``warmup_refs`` overrides the ``warmup_fraction`` computation with
    an exact boundary — used by bundle replay, where the prefix must
    keep the original run's warmup point rather than a fraction of the
    (shortened) trace.  Without it, ``warmup_fraction`` must be a
    finite number in [0, 1); anything else raises ``ValueError``.
    """
    if warmup_refs is None:
        message = warmup_fraction_error(warmup_fraction)
        if message is not None:
            raise ValueError(message)
    started = _time.perf_counter()
    external_trace = trace is not None
    prewarm: Optional[np.ndarray] = None
    if trace is None:
        profile = get_profile(benchmark)
        trace = generate_trace(profile.spec, n_refs, seed=seed)
        prewarm = resident_block_addresses(profile.spec)
    elif prewarm_spec is not None:
        prewarm = resident_block_addresses(prewarm_spec)
    elif benchmark in {name for name in _known_benchmarks()}:
        prewarm = resident_block_addresses(get_profile(benchmark).spec)
    if warmup_refs is None:
        warmup_refs = int(len(trace) * warmup_fraction)
    san = sanitizer
    if san is None and sanitize:
        from repro.sanitizer import Sanitizer

        san = Sanitizer()
    tracer = observer.tracer if observer is not None else None
    ring = None
    if san is not None and tracer is None and crash_dir is not None:
        # No observer tracer to piggyback on: keep a small ring of
        # recent events so a crash bundle has event context.
        from repro.obs.trace import EventTracer

        ring = EventTracer(capacity=san.config.event_ring)
        tracer = ring
    system: Optional[System] = None
    try:
        system = System(design_name, processor_config, tech, memory=memory,
                        tracer=tracer, **design_overrides)
        if san is not None:
            san.attach_system(system)
        if prewarm is not None:
            prewarm_l2(system.l2, prewarm)
        result = system.run(trace, benchmark=benchmark,
                            warmup_refs=warmup_refs)
    except Exception as error:
        if crash_dir is not None:
            _capture_crash(crash_dir, error, design_name=design_name,
                           benchmark=benchmark, seed=seed, trace=trace,
                           warmup_refs=warmup_refs, system=system,
                           processor_config=processor_config, tech=tech,
                           memory=memory, design_overrides=design_overrides,
                           sanitizer=san, tracer=tracer,
                           wall_time_s=_time.perf_counter() - started)
        raise
    if observer is not None:
        from repro.obs.manifest import build_manifest

        config = {
            "design": system.l2.name,
            "benchmark": benchmark,
            "n_refs": len(trace),
            "seed": seed,
            "warmup_fraction": warmup_fraction,
            "warmup_refs": warmup_refs,
            "processor_config": dataclasses.asdict(
                system.processor.config),
            "tech": tech.name,
            "memory_latency_cycles": system.memory.latency_cycles,
            "design_overrides": {key: repr(value) for key, value
                                 in sorted(design_overrides.items())},
            "external_trace": external_trace,
        }
        observer.manifest = build_manifest(
            kind="system",
            design=system.l2.name,
            benchmark=benchmark,
            seed=seed,
            config=config,
            metrics=system.l2.metrics.snapshot(),
            result=dataclasses.asdict(result),
            trace=None if tracer is None else tracer.summary(),
            wall_time_s=_time.perf_counter() - started,
            sanitizer=None if san is None else san.summary(),
        )
    return result


def _capture_crash(crash_dir: str, error: Exception, *, design_name, benchmark,
                   seed, trace, warmup_refs, system, processor_config, tech,
                   memory, design_overrides, sanitizer, tracer,
                   wall_time_s) -> None:
    """Write a crash bundle for a failed run; never masks ``error``."""
    try:
        from repro.core.config import resolve_design_name
        from repro.sanitizer.bundle import write_crash_bundle

        try:
            design = resolve_design_name(design_name)
        except ValueError:
            design = str(design_name)
        config = (processor_config if processor_config is not None
                  else ProcessorConfig())
        bundle_path = write_crash_bundle(
            crash_dir,
            design=design,
            benchmark=benchmark,
            seed=seed,
            warmup_refs=warmup_refs,
            trace=trace,
            error=error,
            processor_config=dataclasses.asdict(config),
            tech=tech.name,
            memory_latency_cycles=(None if memory is None
                                   else memory.latency_cycles),
            design_overrides=design_overrides,
            sanitizer=sanitizer,
            tracer=tracer,
            metrics=(None if system is None
                     else system.l2.metrics.snapshot()),
            wall_time_s=wall_time_s,
        )
    except Exception:
        return  # bundle writing is best-effort; the original error wins
    error.crash_bundle = bundle_path  # type: ignore[attr-defined]


def _known_benchmarks():
    from repro.workloads.profiles import PROFILES

    return PROFILES

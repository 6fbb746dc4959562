"""Full-system mode: CPU-level references through a simulated L1.

The main pipeline replays L2-level traces (the L1 filter is folded into
the workload calibration).  ``FullSystem`` instead simulates the
Table 3 memory hierarchy end to end: a 64 KB 2-way L1 data cache in
front of any L2 design, with L1 writebacks forwarded down as L2 writes.

The processor model is the same as :class:`~repro.sim.processor.Processor`
— issue-width front end, ROB window, MSHRs, dependence chains — with
the L1 resolving most references at its 3-cycle latency.

:func:`run_full_system` is the one-call entry point mirroring
:func:`~repro.sim.system.run_system`, including the optional
:class:`~repro.obs.manifest.RunObserver` that yields a
:class:`~repro.obs.manifest.RunManifest` and an event trace.
"""

from __future__ import annotations

import dataclasses
import time as _time
from collections import deque
from typing import Iterable, Optional

from repro.cache.l1 import L1Cache
from repro.core.config import build_design
from repro.sim.memory import MainMemory
from repro.sim.processor import ProcessorConfig
from repro.tech import Technology, TECH_45NM
from repro.workloads.trace import Reference


@dataclasses.dataclass(frozen=True)
class FullSystemResult:
    """Outcome of a full-system run."""

    cycles: int
    instructions: int
    cpu_references: int
    l1_hits: int
    l1_misses: int
    l1_writebacks: int
    l2_requests: int
    l2_misses: int

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def l1_miss_rate(self) -> float:
        total = self.l1_hits + self.l1_misses
        return self.l1_misses / total if total else 0.0


class FullSystem:
    """Core + L1D + (any) L2 design + memory."""

    def __init__(self, design_name: str,
                 processor_config: Optional[ProcessorConfig] = None,
                 tech: Technology = TECH_45NM,
                 l1: Optional[L1Cache] = None,
                 tracer=None,
                 **design_overrides) -> None:
        self.config = processor_config or ProcessorConfig()
        self.memory = MainMemory()
        self.l1 = l1 if l1 is not None else L1Cache(
            latency_cycles=self.config.l1_latency)
        self.l2 = build_design(design_name, memory=self.memory, tech=tech,
                               **design_overrides)
        self.tracer = tracer
        #: the L2 design's registry, extended with the L1's metrics so a
        #: full-system snapshot covers the whole hierarchy.
        self.metrics = self.l2.metrics
        self.metrics.register("l1", self.l1.stats)
        self.l1.bank.register_metrics(self.metrics.scope("l1"))

    def prewarm(self, l2_spec) -> int:
        """Install an L2-level spec's resident population into the L2.

        Returns the number of blocks installed.  The L1 is left cold (it
        warms in a few thousand references anyway).
        """
        from repro.sim.system import prewarm_l2
        from repro.workloads.synthetic import resident_block_addresses

        return prewarm_l2(self.l2, resident_block_addresses(l2_spec))

    def run(self, trace: Iterable[Reference]) -> FullSystemResult:
        """Replay a CPU-level trace through L1 and L2."""
        cfg = self.config
        cycle = 0
        instr = 0
        gap_remainder = 0
        loads = deque()   # (instr index, completion time) of L1-miss loads
        stores = deque()  # L2 write acceptance times
        last_load_complete = 0
        l1_hits = l1_misses = writebacks = 0

        for ref in trace:
            instr += ref.gap
            total_gap = ref.gap + gap_remainder
            cycle += total_gap // cfg.issue_width
            gap_remainder = total_gap % cfg.issue_width

            window_floor = instr - cfg.rob_entries
            while loads and loads[0][0] <= window_floor:
                _, done = loads.popleft()
                if done > cycle:
                    cycle = done

            if ref.dependent and last_load_complete > cycle:
                cycle = last_load_complete

            access = self.l1.access(ref.addr, write=ref.write)
            if access.hit:
                l1_hits += 1
                if not ref.write:
                    last_load_complete = cycle + self.l1.latency_cycles
                continue
            l1_misses += 1
            if self.tracer is not None:
                self.tracer.emit("l1.miss", time=cycle, addr=ref.addr,
                                 write=ref.write)

            while len(loads) + len(stores) >= cfg.mshrs:
                earliest_load = loads[0][1] if loads else None
                earliest_store = stores[0] if stores else None
                if earliest_store is None or (
                        earliest_load is not None
                        and earliest_load <= earliest_store):
                    _, done = loads.popleft()
                else:
                    done = stores.popleft()
                if done > cycle:
                    cycle = done

            outcome = self.l2.access(ref.addr, cycle + cfg.l1_latency,
                                     write=ref.write)
            if self.tracer is not None:
                self.tracer.emit("l2.access", time=cycle, addr=ref.addr,
                                 write=ref.write, hit=outcome.hit,
                                 latency=outcome.lookup_latency,
                                 complete=outcome.complete_time,
                                 predictable=outcome.predictable)
            if ref.write:
                stores.append(outcome.complete_time)
            else:
                loads.append((instr, outcome.complete_time))
                last_load_complete = outcome.complete_time

            if access.writeback is not None:
                writebacks += 1
                self.l2.access(access.writeback, cycle + cfg.l1_latency,
                               write=True)
                if self.tracer is not None:
                    self.tracer.emit("l1.writeback", time=cycle,
                                     addr=access.writeback)

        for _, done in loads:
            if done > cycle:
                cycle = done

        return FullSystemResult(
            cycles=cycle,
            instructions=instr,
            cpu_references=l1_hits + l1_misses,
            l1_hits=l1_hits,
            l1_misses=l1_misses,
            l1_writebacks=writebacks,
            l2_requests=self.l2.stats["requests"],
            l2_misses=self.l2.stats["misses"],
        )


def run_full_system(design_name: str, spec, n_refs: int = 50_000,
                    seed: int = 7, prewarm: bool = True,
                    processor_config: Optional[ProcessorConfig] = None,
                    tech: Technology = TECH_45NM,
                    observer=None,
                    **design_overrides) -> FullSystemResult:
    """Generate a CPU-level trace from ``spec`` and run it end to end.

    ``spec`` is a :class:`~repro.workloads.cpu_level.CpuLevelSpec`;
    ``prewarm`` installs its L2-level resident population first (the
    stand-in for the paper's fast-forward phase).  ``observer`` works
    exactly as in :func:`~repro.sim.system.run_system`: it receives a
    ``kind="full_system"`` :class:`~repro.obs.manifest.RunManifest`,
    and its tracer captures ``l1.miss`` / ``l1.writeback`` /
    ``l2.access`` events.
    """
    from repro.workloads.cpu_level import generate_cpu_trace

    started = _time.perf_counter()
    trace = generate_cpu_trace(spec, n_refs, seed=seed)
    tracer = observer.tracer if observer is not None else None
    system = FullSystem(design_name, processor_config, tech, tracer=tracer,
                        **design_overrides)
    if prewarm:
        system.prewarm(spec.l2_spec)
    result = system.run(trace)
    if observer is not None:
        from repro.obs.manifest import build_manifest

        config = {
            "design": system.l2.name,
            "spec": dataclasses.asdict(spec),
            "n_refs": n_refs,
            "seed": seed,
            "prewarm": prewarm,
            "processor_config": dataclasses.asdict(system.config),
            "tech": tech.name,
            "design_overrides": {key: repr(value) for key, value
                                 in sorted(design_overrides.items())},
        }
        observer.manifest = build_manifest(
            kind="full_system",
            design=system.l2.name,
            benchmark=None,
            seed=seed,
            config=config,
            metrics=system.metrics.snapshot(),
            result=dataclasses.asdict(result),
            trace=None if tracer is None else tracer.summary(),
            wall_time_s=_time.perf_counter() - started,
        )
    return result

"""Simplified dynamically-scheduled processor timing model.

Substitutes for the paper's detailed SPARC V9 out-of-order model
(Table 3: 4-wide fetch/issue, 128-entry reorder buffer, 8 outstanding
memory requests, 3-cycle L1s).  The model replays an L2-level reference
trace and charges:

* **issue time** — ``gap`` instructions advance the clock at the issue
  width (the front end is never the bottleneck, matching the paper's
  focus on the L2);
* **reorder-buffer pressure** — instruction ``n`` cannot issue until
  every load older than ``n - rob_entries`` has completed, bounding how
  much L2 latency the window can hide;
* **MSHR pressure** — at most ``mshrs`` L2 requests may be outstanding;
* **dependence chains** — a reference marked ``dependent`` must wait for
  the previous load's data (pointer chasing serializes on full L2
  latency, which is why mcf feels every cycle of lookup time).

Because only the L2 design differs between experiment arms, execution-
time *ratios* (Figures 5 and 8) are insensitive to the simplifications;
what matters is that exposed L2 latency scales correctly with each
design's latency and contention, which the four mechanisms above carry.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Iterable, Optional

from repro.workloads.trace import Reference


@dataclasses.dataclass(frozen=True)
class ProcessorConfig:
    """Core parameters (defaults = paper Table 3)."""

    issue_width: int = 4
    rob_entries: int = 128
    mshrs: int = 8
    l1_latency: int = 3

    def __post_init__(self) -> None:
        for name in ("issue_width", "rob_entries", "mshrs"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.l1_latency < 0:
            raise ValueError("l1_latency must be non-negative")


@dataclasses.dataclass(frozen=True)
class ExecutionResult:
    """Outcome of replaying a trace against one L2 design."""

    cycles: int
    instructions: int
    l2_requests: int
    warmup_cycles: int

    @property
    def ipc(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles


class Processor:
    """Replays a reference trace against an L2 design.

    ``tracer`` (an :class:`~repro.obs.trace.EventTracer`) opts into
    per-reference ``l2.access`` events and a ``run.warmup_end`` marker;
    the default ``None`` costs one branch per reference and the
    simulation result never depends on it.
    """

    def __init__(self, l2, config: Optional[ProcessorConfig] = None,
                 tracer=None) -> None:
        self.l2 = l2
        self.config = config if config is not None else ProcessorConfig()
        self.tracer = tracer
        #: optional repro.sanitizer.Sanitizer (set by attach_processor);
        #: receives per-reference retirement/MSHR checks and the final
        #: quiesce sweep.  Like the tracer, it never changes the result.
        self.sanitizer = None

    def run(self, trace: Iterable[Reference], warmup_refs: int = 0) -> ExecutionResult:
        """Execute ``trace``; statistics cover the post-warmup portion.

        The first ``warmup_refs`` references run with full timing (so
        resource state is realistic) but the L2's statistics and the
        returned cycle/instruction counts are measured after the warmup
        boundary, mirroring the paper's warm-up methodology (Table 4).
        """
        # The loop below runs once per reference; config fields and bound
        # methods are hoisted into locals, and each reference is unpacked
        # once, to keep it tight.
        cfg = self.config
        issue_width = cfg.issue_width
        rob_entries = cfg.rob_entries
        mshrs = cfg.mshrs
        l1_latency = cfg.l1_latency
        l2 = self.l2
        l2_access = l2.access
        cycle = 0
        instr = 0
        gap_remainder = 0
        # In-flight loads as (instruction index, completion time).
        loads: deque = deque()
        stores: deque = deque()  # completion times only
        loads_popleft = loads.popleft
        loads_append = loads.append
        stores_popleft = stores.popleft
        stores_append = stores.append
        last_load_complete = 0
        warmup_cycle = 0
        warmup_instr = 0
        requests = 0

        tracer = self.tracer
        sanitizer = self.sanitizer
        for i, (gap, addr, write, dependent) in enumerate(trace):
            if i == warmup_refs and warmup_refs > 0:
                warmup_cycle, warmup_instr = cycle, instr
                l2.reset_stats()
                if tracer is not None:
                    tracer.emit("run.warmup_end", time=cycle, refs=i,
                                instructions=instr)

            instr += gap
            total_gap = gap + gap_remainder
            cycle += total_gap // issue_width
            gap_remainder = total_gap % issue_width

            # Reorder-buffer limit: older loads must complete before the
            # window can roll this far forward.
            window_floor = instr - rob_entries
            while loads and loads[0][0] <= window_floor:
                _, done = loads_popleft()
                if done > cycle:
                    cycle = done

            # MSHR limit across loads and stores.
            while len(loads) + len(stores) >= mshrs:
                earliest_load = loads[0][1] if loads else None
                earliest_store = stores[0] if stores else None
                if earliest_store is None or (
                        earliest_load is not None and earliest_load <= earliest_store):
                    _, done = loads_popleft()
                else:
                    done = stores_popleft()
                if done > cycle:
                    cycle = done

            if dependent and last_load_complete > cycle:
                cycle = last_load_complete

            outcome = l2_access(addr, cycle + l1_latency, write)
            complete = outcome.complete_time
            if tracer is not None:
                tracer.emit("l2.access", time=cycle, ref=i, addr=addr,
                            write=write, hit=outcome.hit,
                            latency=outcome.lookup_latency,
                            complete=complete,
                            predictable=outcome.predictable)
            requests += 1
            if write:
                stores_append(complete)
            else:
                loads_append((instr, complete))
                last_load_complete = complete
            if sanitizer is not None:
                sanitizer.on_retire(cycle, instr,
                                    len(loads) + len(stores))

        # Drain: execution ends when the last load's data has returned.
        for _, done in loads:
            if done > cycle:
                cycle = done
        if sanitizer is not None:
            sanitizer.on_quiesce(cycle, len(loads) + len(stores))

        return ExecutionResult(
            cycles=cycle - warmup_cycle,
            instructions=instr - warmup_instr,
            l2_requests=requests - warmup_refs,
            warmup_cycles=warmup_cycle,
        )

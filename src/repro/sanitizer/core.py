"""Runtime invariant checking for the simulator core.

The sanitizer is an opt-in observation layer threaded through the
cache banks and the processor model.  It never changes simulated
behaviour — with a sanitizer attached (and no fault injected) every
design produces byte-identical results — it only *watches*, and raises
a structured :class:`SanitizerViolation` the moment an invariant
breaks:

* **Bank coherence** — a :class:`~repro.cache.bank.CacheBank` set may
  never hold the same tag twice (``bank.duplicate_tag``); DNUCA's
  central partial-tag array must mirror the banks exactly
  (``dnuca.partial_tag_incoherent``).
* **Processor progress** — retirement must advance within
  ``watchdog_stall_cycles`` (``watchdog.no_retirement``) and the number
  of outstanding L2 requests may never exceed the configured MSHRs,
  checked per reference and at quiesce (``mshr.leak``).

The interconnect is not watched: the TLC controller and the NUCA mesh
keep busy-until cycles, so a message arrives in the call that sends it
and no message can be lost in flight.

Checks that sweep state (bank coherence) run every ``check_every`` L2
accesses and once more at quiesce; per-event checks (watchdog, MSHR)
are a compare-and-branch each.

:class:`SimFault` injects one seeded corruption — used by the test
suite and the CI smoke to prove each invariant actually fires and that
the resulting crash bundle replays deterministically.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional, Tuple

FAULT_KINDS = ("double_install", "stall_retirement")


class SanitizerViolation(RuntimeError):
    """A broken simulator invariant, with enough structure to triage.

    ``kind`` is a stable dotted identifier (``bank.duplicate_tag``,
    ``watchdog.no_retirement``, ...),
    ``component`` names the stuck or corrupt part, ``cycle`` is the
    simulation time the check fired, and ``details`` carries the
    check-specific numbers.
    """

    def __init__(self, kind: str, component: str, cycle: int,
                 details: Optional[Dict[str, Any]] = None) -> None:
        self.kind = kind
        self.component = component
        self.cycle = cycle
        self.details = dict(details or {})
        extra = ", ".join(f"{k}={v}" for k, v in sorted(self.details.items()))
        super().__init__(
            f"[{kind}] {component} at cycle {cycle}" + (f" ({extra})" if extra else ""))

    def as_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "component": self.component,
                "cycle": self.cycle, "details": self.details}


@dataclasses.dataclass(frozen=True)
class SimFault:
    """A seeded corruption to inject into a sanitized run.

    ``kind`` selects the corruption and ``at`` the 1-based ordinal of
    the event to corrupt (the Nth bank insert / reference).
    """

    kind: str
    at: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}")
        if self.at < 1:
            raise ValueError("fault ordinal 'at' must be >= 1")

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "at": self.at}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SimFault":
        return cls(kind=data["kind"], at=data["at"])

    @classmethod
    def parse(cls, spec: str) -> "SimFault":
        """Parse a CLI fault spec: ``KIND[:AT]``."""
        parts = spec.split(":")
        if len(parts) > 2:
            raise ValueError(f"bad fault spec {spec!r}; want KIND[:AT]")
        at = int(parts[1]) if len(parts) > 1 else 1
        return cls(kind=parts[0], at=at)


@dataclasses.dataclass(frozen=True)
class SanitizerConfig:
    """Knobs for check frequency and watchdog sensitivity.

    Defaults are sized so a healthy run can never trip them: no
    workload in the suite goes ``watchdog_stall_cycles`` cycles without
    retiring an instruction.  Tighten it per run via
    ``repro run --watchdog-cycles`` when hunting a real hang.
    """

    check_every: int = 1024
    watchdog_stall_cycles: int = 1_000_000
    event_ring: int = 256

    def __post_init__(self) -> None:
        for name in ("check_every", "watchdog_stall_cycles", "event_ring"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SanitizerConfig":
        return cls(**data)


class Sanitizer:
    """The invariant registry plus every runtime hook the core calls.

    One sanitizer instance watches one simulated system.  Components
    receive the sanitizer via ``attach_*`` and call its ``on_*`` hooks;
    every hook site is guarded by ``if sanitizer is not None`` so the
    default (detached) cost is a single predicted branch.
    """

    def __init__(self, config: Optional[SanitizerConfig] = None,
                 fault: Optional[SimFault] = None) -> None:
        self.config = config if config is not None else SanitizerConfig()
        self.fault = fault
        #: (name, check(cycle)) pairs swept at intervals and quiesce.
        self._invariants: List[Tuple[str, Callable[[int], None]]] = []
        # Bank insert ordinal (double_install fault targeting).
        self._insert_seq = 0
        # Interval sweep trigger.
        self._accesses = 0
        self._checks_run = 0
        # Processor watchdog state.
        self._refs = 0
        self._mshrs: Optional[int] = None
        self._last_retired = -1
        self._last_retire_cycle = 0
        self._stall_frozen: Optional[int] = None
        self._last_cycle = 0

    # -- attachment --------------------------------------------------------
    def attach_system(self, system) -> None:
        """Wire this sanitizer into a built :class:`~repro.sim.system.System`."""
        self.attach_processor(system.processor)
        system.l2.attach_sanitizer(self)

    def attach_processor(self, processor) -> None:
        processor.sanitizer = self
        self._mshrs = processor.config.mshrs

    def register_invariant(self, name: str,
                           check: Callable[[int], None]) -> None:
        """Register ``check(cycle)`` to run at every interval sweep."""
        self._invariants.append((name, check))

    def watch_banks(self, component: str, labeled_banks) -> None:
        """Watch ``(label, CacheBank)`` pairs for duplicate tags.

        Sets each bank's ``sanitizer`` attribute (enabling the insert
        hook that carries the ``double_install`` fault) and registers
        one sweep covering them all.
        """
        watched = []
        for label, bank in labeled_banks:
            bank.sanitizer = self
            watched.append((f"{component}.{label}", bank))
        banks = tuple(watched)

        def check(cycle: int) -> None:
            for label, bank in banks:
                for set_index, tags, _dirty in bank.iter_sets():
                    present = [t for t in tags if t is not None]
                    if len(set(present)) != len(present):
                        seen = set()
                        dup = next(t for t in present
                                   if t in seen or seen.add(t))
                        raise SanitizerViolation(
                            "bank.duplicate_tag", label, cycle,
                            {"set": set_index, "tag": dup})

        self.register_invariant(f"{component}.banks", check)

    # -- runtime hooks -----------------------------------------------------
    def on_bank_insert(self, bank, set_index: int, way: int) -> None:
        """Account one block installed into a watched bank."""
        self._insert_seq += 1
        fault = self.fault
        if (fault is not None and fault.kind == "double_install"
                and self._insert_seq == fault.at and bank.ways > 1):
            # Corrupt the tag store directly (bypassing insert()'s own
            # duplicate rejection), as a buggy install path would.
            bank.set_tag(set_index, (way + 1) % bank.ways,
                         bank.tag_at(set_index, way))

    def on_access(self, cycle: int) -> None:
        """Per-L2-access hook: trigger the interval sweep when due."""
        self._accesses += 1
        if self._accesses % self.config.check_every == 0:
            self.run_checks(cycle)

    def on_retire(self, cycle: int, retired: int, outstanding: int) -> None:
        """Per-reference processor hook: MSHR bound + retirement watchdog."""
        self._refs += 1
        fault = self.fault
        if (fault is not None and fault.kind == "stall_retirement"
                and self._refs >= fault.at):
            # Freeze the retirement count the watchdog sees, as a stuck
            # commit stage would present it.
            if self._stall_frozen is None:
                self._stall_frozen = retired
            retired = self._stall_frozen
        if self._mshrs is not None and outstanding > self._mshrs:
            raise SanitizerViolation(
                "mshr.leak", "processor", cycle,
                {"outstanding": outstanding, "mshrs": self._mshrs})
        if retired > self._last_retired:
            self._last_retired = retired
            self._last_retire_cycle = cycle
        elif cycle - self._last_retire_cycle > self.config.watchdog_stall_cycles:
            raise SanitizerViolation(
                "watchdog.no_retirement", "processor", cycle,
                {"stalled_cycles": cycle - self._last_retire_cycle,
                 "retired_instructions": retired,
                 "outstanding_requests": outstanding})
        self._last_cycle = cycle

    def on_quiesce(self, cycle: int, outstanding: int) -> None:
        """End-of-trace hook: leak detection plus a final full sweep."""
        if self._mshrs is not None and outstanding > self._mshrs:
            raise SanitizerViolation(
                "mshr.leak", "processor", cycle,
                {"outstanding": outstanding, "mshrs": self._mshrs,
                 "at_quiesce": True})
        self.run_checks(cycle)

    # -- sweeps ------------------------------------------------------------
    def run_checks(self, cycle: int) -> None:
        """Run every registered invariant."""
        self._checks_run += 1
        for _name, check in self._invariants:
            check(cycle)

    # -- reporting ---------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Full machine-readable state, embedded in crash bundles."""
        return {
            "accesses": self._accesses,
            "refs": self._refs,
            "checks_run": self._checks_run,
            "last_cycle": self._last_cycle,
            "bank_inserts": self._insert_seq,
            "invariants": [name for name, _ in self._invariants],
            "config": self.config.to_dict(),
            "fault": None if self.fault is None else self.fault.to_dict(),
        }

    def summary(self) -> Dict[str, Any]:
        """Compact digest for a clean run's :class:`RunManifest`."""
        return {
            "enabled": True,
            "checks_run": self._checks_run,
            "accesses": self._accesses,
            "invariants": len(self._invariants),
            "fault": None if self.fault is None else self.fault.to_dict(),
        }

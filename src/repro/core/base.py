"""The shared interface and bookkeeping for all L2 cache designs.

Every design (TLC family and NUCA baselines) exposes one method::

    outcome = design.access(addr, time, write=False)

where ``time`` is the cycle the request reaches the L2 controller and
the returned :class:`L2Outcome` carries the completion time plus the
classification the paper's evaluation needs (hit/miss, lookup latency,
latency predictability, banks touched).

Designs update *functional* state (which block lives where) immediately
and compute *timing* through FIFO resource models, which is exact for
the arrival-ordered request stream a single core produces.  TLC, TLCopt
and SNUCA2 make an access two steps in a row: a functional step makes
every bank state change (the lookup, then the insert on a miss), and a
timing step reads only what it left (the hit, whether the victim was
dirty, and for a TLCopt read its partial-tag match count) and makes the
access's sends, bank-port calls and memory calls in one pass.  DNUCA
keeps one pass that interleaves its search and promotion with their
sends.  The base class centralizes the statistics the evaluation
section reports, so the experiment harness can treat every design
uniformly:

* ``stats``: requests, hits, misses, writebacks, bank accesses, ...
* ``lookup_latencies``: Histogram feeding Fig. 6 (mean lookup latency)
  and Table 6's predictable-lookup percentage.
* ``network_energy_j``: accumulated interconnect energy for Table 9.

The bank-port model (:meth:`L2Design._bank_access`) is shared too.  Each
design keeps its interconnect in ``self.network`` and asks it only for
arrival cycles; the network owns its counters and energy.

All of these live in a per-design
:class:`~repro.obs.registry.MetricsRegistry` (``design.metrics``) under
dotted names — ``l2.hits``, ``l2.lookup_latency``,
``l2.bank03.occupancy``, ``memory.reads`` — plus whatever the concrete
design mounts (TLC link bundles under ``link.*``, NUCA meshes under
``mesh.*``).  ``design.metrics.snapshot()`` is the machine-readable
record a :class:`~repro.obs.manifest.RunManifest` embeds.
"""

from __future__ import annotations

import abc
from typing import Iterable, NamedTuple, Optional

from repro.obs.registry import MetricsRegistry
from repro.sim.memory import MainMemory
from repro.tech import Technology, TECH_45NM


class L2Outcome(NamedTuple):
    """Result of one L2 access.

    A tuple, like :class:`~repro.workloads.trace.Reference`: every access
    of every design builds one, and a tuple is about three times cheaper
    to build than a frozen dataclass.  Fields read by name, compare by
    value and cannot be reassigned.
    """

    #: cycle the critical word is available to the requester (reads), or
    #: the cycle the write was accepted (writes).
    complete_time: int
    hit: bool
    #: cycles from controller arrival to hit data / miss determination.
    lookup_latency: int
    #: True when the latency matched the static prediction a scheduler
    #: would have made (Table 6, columns 7-8).
    predictable: bool
    write: bool = False


class L2Design(abc.ABC):
    """Base class: statistics plumbing shared by every design."""

    #: human-readable design name, set by subclasses.
    name: str = "l2"

    #: how pre-warm blocks should be ordered for this design:
    #: "popular_last" leaves the popular blocks most-recently-used (right
    #: for LRU designs); DNUCA overrides with "popular_first" so popular
    #: blocks claim the banks nearest the controller.
    install_order: str = "popular_last"

    def __init__(self, memory: Optional[MainMemory] = None,
                 tech: Technology = TECH_45NM) -> None:
        self.memory = memory if memory is not None else MainMemory()
        self.tech = tech
        #: every measurement this design (and its components) exposes,
        #: under dotted names; see repro.obs.registry.
        self.metrics = MetricsRegistry()
        self.stats = self.metrics.counter("l2")
        self.lookup_latencies = self.metrics.histogram("l2.lookup_latency")
        self.metrics.register("memory", self.memory.stats)
        self.metrics.gauge("l2.network_energy_j", self.network_energy_j)
        #: the interconnect, set by the concrete design: it answers
        #: utilization(elapsed), energy_j() and reset_counters().
        self.network = None
        #: optional repro.sanitizer.Sanitizer; see attach_sanitizer.
        self.sanitizer = None

    # -- the design-specific part ----------------------------------------
    @abc.abstractmethod
    def access(self, addr: int, time: int, write: bool = False) -> L2Outcome:
        """Process one request arriving at the controller at ``time``."""

    @abc.abstractmethod
    def bulk_install(self, addrs: Iterable[int]) -> None:
        """Functionally place clean blocks in the cache, in order, at no timing cost.

        Used to pre-warm the cache to a plausible steady state before a
        measured run — the stand-in for the paper's multi-billion-
        instruction fast-forward phase.  Evictions during installation
        are silent (no writebacks, no statistics), and a block already
        present is left as it is.  The state left behind is exactly that
        of one :meth:`install` per address, duplicates and over-full
        sets included.  The paper designs place an array of distinct
        blocks into a fresh cache in closed form, and run a per-block
        loop for anything else.
        """

    def install(self, addr: int) -> None:
        """Functionally place one block: :meth:`bulk_install` of one address."""
        self.bulk_install((addr,))

    def reset_stats(self) -> None:
        """Clear all measurement state (used at the warmup boundary).

        Functional cache contents and resource busy times are preserved;
        only the statistics the evaluation reports are zeroed.  Metrics
        are cleared *in place* (via the registry), so the objects
        registered at construction keep observing the live values.
        """
        self.metrics.reset()
        self.network.reset_counters()

    # -- sanitizer wiring --------------------------------------------------
    def attach_sanitizer(self, sanitizer) -> None:
        """Wire a :class:`~repro.sanitizer.Sanitizer` into this design.

        Sets the per-access hook on this object, then lets the concrete
        design watch its banks and register design-specific invariants
        via :meth:`_attach_sanitizer_extra`.  Attaching a sanitizer never
        changes simulated behaviour.
        """
        self.sanitizer = sanitizer
        self._attach_sanitizer_extra(sanitizer)

    def _attach_sanitizer_extra(self, sanitizer) -> None:
        """Hook for subclasses to watch banks and add invariants."""

    # -- shared timing -------------------------------------------------------
    def _bank_access(self, bank: int, ready: int, contend: bool = True) -> int:
        """Occupy the bank; returns the cycle its access completes.

        ``bank`` indexes the design's flat list ``_bank_busy_until``:
        ``[0] * config.banks``, except in TLCopt, whose stripe banks move
        in lockstep and share one entry per stripe group.
        ``contend=False`` (refills arriving from memory) models the port
        time without reserving the bank against earlier demand requests.
        """
        if not contend:
            return ready + self.config.bank_access_cycles
        start = max(ready, self._bank_busy_until[bank])
        done = start + self.config.bank_access_cycles
        self._bank_busy_until[bank] = done
        return done

    # -- shared bookkeeping ------------------------------------------------
    def _record(self, outcome: L2Outcome, banks_accessed: int) -> None:
        self.stats.add("requests")
        self.stats.add("bank_accesses", banks_accessed)
        if outcome.write:
            self.stats.add("writes")
        else:
            self.stats.add("reads")
            if outcome.hit:
                # Fig. 6 plots the latency of lookups that return data.
                self.lookup_latencies.record(outcome.lookup_latency)
            if outcome.predictable:
                self.stats.add("predictable_lookups")
        if outcome.hit:
            self.stats.add("hits")
        else:
            self.stats.add("misses")
        if self.sanitizer is not None:
            self.sanitizer.on_access(outcome.complete_time)

    # -- derived metrics the tables report ---------------------------------
    @property
    def miss_ratio(self) -> float:
        return self.stats.ratio("misses", "requests")

    @property
    def banks_accessed_per_request(self) -> float:
        return self.stats.ratio("bank_accesses", "requests")

    @property
    def predictable_lookup_fraction(self) -> float:
        """Fraction of read lookups whose latency matched the prediction."""
        return self.stats.ratio("predictable_lookups", "reads")

    @property
    def mean_lookup_latency(self) -> float:
        return self.lookup_latencies.mean

    def link_utilization(self, elapsed_cycles: int) -> float:
        """Average utilization of the design's data links (Fig. 7)."""
        return self.network.utilization(elapsed_cycles)

    def network_energy_j(self) -> float:
        """Total interconnect dynamic energy so far, joules."""
        return self.network.energy_j()

    def network_power_w(self, elapsed_cycles: int) -> float:
        """Average network dynamic power over the run, watts (Table 9)."""
        if elapsed_cycles <= 0:
            return 0.0
        elapsed_s = elapsed_cycles * self.tech.cycle_s
        return self.network_energy_j() / elapsed_s

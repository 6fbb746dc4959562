"""The optimized TLC designs: TLCopt 1000 / 500 / 350 (Section 4, Figure 4).

The optimized designs cut transmission-line count three ways:

* a 64-byte block is striped across ``banks_per_block`` (2/4/8) banks,
  so each bank moves only a slice of the block per request;
* banks double to 1 MB (16 banks instead of 32), halving the number of
  link bundles;
* banks receive only a set index plus a 6-bit partial tag.  Each bank
  compares the partial tag and responds with its data slice plus the
  stored upper tag bits; the *controller* performs the full comparison.

Stripes are distributed so the banks of one block sit on distinct pair
links (bank ``g + j*num_groups`` for stripe ``j``), letting all slices
return in parallel — which is what keeps the uncontended latency at
12-13 cycles despite the narrower links.

The slices move in lockstep, so the model keeps them in closed form: one
class send each way on the controller (groups ``2c`` and ``2c + 1``
share link class ``c``; see :mod:`repro.core.controller`) and one bank
busy-until per group, kept for the group's bank on the class's
reference pair.  Every contended request reaches the group's banks in
one cycle, offset only by each pair's request wire delay, so
``bank_busy - request_delay`` is equal across a group's banks and the
last slice arrives at ``common + FLIGHT_CYCLES + _group_rt_delays[g]``
— what a walk over the stripes, one send and one bank access each,
computes (``tests/test_network_oracle.py`` keeps that walk as the
oracle).

Partial-tag corner cases, faithfully modelled:

* **False hit** — exactly one way matches the partial tag but the full
  tag differs: the banks ship their slices anyway, the controller's
  full compare fails, and the access becomes a miss discovered at the
  normal response time (wasted bandwidth, no extra latency).
* **Multiple matches** — more than one way matches: the banks return the
  upper tag bits of all candidates, the controller resolves which (if
  any) is the real block and issues a second, way-addressed fetch —
  roughly doubling that access's latency.  The paper measures this in
  about 1 % of lookups.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.cache.address import AddressMap
from repro.cache.bank import CacheBank, install_interleaved
from repro.cache.partial_tags import PARTIAL_TAG_MASK
from repro.core.base import L2Design, L2Outcome
from repro.core.config import DesignConfig, TLC_OPT_500
from repro.core.controller import TLCController
from repro.interconnect.message import BLOCK_BITS
from repro.sim.memory import MainMemory
from repro.tech import Technology, TECH_45NM

#: Bits of a bank's request message: set index + partial tag + command.
OPT_REQUEST_BITS = 22

#: Non-data overhead bits on a response: upper tag bits + status.
RESPONSE_OVERHEAD_BITS = 16

#: Bits of a miss ack / per-candidate tag report.
ACK_BITS = 16


class OptimizedTLC(L2Design):
    """A TLCopt design (1000, 500, or 350 total lines)."""

    def __init__(self, config: DesignConfig = TLC_OPT_500,
                 memory: Optional[MainMemory] = None,
                 tech: Technology = TECH_45NM) -> None:
        super().__init__(memory=memory, tech=tech)
        if config.kind != "tlcopt":
            raise ValueError(f"{config.name} is not a TLCopt config")
        self.config = config
        self.name = config.name
        self.stripe_banks = config.banks_per_block
        self.num_groups = config.banks // self.stripe_banks
        group_bytes = config.bank_bytes * self.stripe_banks
        sets_per_group = group_bytes // (64 * config.associativity)
        self.addr_map = AddressMap(block_bytes=64, num_sets=sets_per_group,
                                   banks=self.num_groups)
        # Tag state is logically per group (every stripe bank holds the
        # same partial tag and a share of the upper bits).
        self.groups: List[CacheBank] = [
            CacheBank(sets_per_group, config.associativity, config.replacement)
            for _ in range(self.num_groups)
        ]
        self.network = TLCController(config, tech)
        # One bank busy-until per group: its stripe banks stay in lockstep.
        self._bank_busy_until = [0] * self.num_groups
        self._data_slice_bits = BLOCK_BITS // self.stripe_banks
        # The group round-trip delay is a pure function of the group
        # index, used on every access — tabulate it once.
        self._group_rt_delays = [
            max(config.controller_rt_delays[b // 2]
                for b in self.banks_for_group(group))
            for group in range(self.num_groups)
        ]
        self.network.register_metrics(self.metrics.scope("link"))
        for index, group in enumerate(self.groups):
            group.register_metrics(self.metrics.scope(f"l2.group{index:02d}"))

    # -- stripe geometry -----------------------------------------------------
    def banks_for_group(self, group: int) -> Tuple[int, ...]:
        """Physical banks holding the stripes of blocks in ``group``."""
        return tuple(group + j * self.num_groups for j in range(self.stripe_banks))

    def uncontended_latency(self, addr: int) -> int:
        group = self.addr_map.bank_index(addr)
        return 2 + self.config.bank_access_cycles + self._group_rt_delays[group]

    # -- the access path ----------------------------------------------------------
    # A group's link class is ``group_idx >> 1`` (see link_classes).
    def access(self, addr: int, time: int, write: bool = False) -> L2Outcome:
        group_idx, set_index, tag = self.addr_map.decompose(addr)
        group = self.groups[group_idx]
        # Functional step: a read counts the ways its partial tag matches,
        # then a store writes its block dirty and a read miss refills it
        # clean, evicting the set's LRU victim if needed.
        if not write:
            wanted = tag & PARTIAL_TAG_MASK
            matches = 0
            for stored in group.tags_of(set_index):
                if stored is not None and stored & PARTIAL_TAG_MASK == wanted:
                    matches += 1
        hit = group.lookup(set_index, tag, write).hit
        writeback = (not hit
                     and group.insert(set_index, tag, dirty=write).evicted_dirty)

        # Timing step: the new block's bank write ends at ``accepted``.
        network, link = self.network, group_idx >> 1
        write_bits = OPT_REQUEST_BITS + self._data_slice_bits
        response_bits = self._data_slice_bits + RESPONSE_OVERHEAD_BITS
        if write:
            # Stores carry their data slices on the request links and are
            # written without any tag comparison (exclusive write-back).
            _, ready = network.send_request(link, time, write_bits)
            accepted = self._bank_access(group_idx, ready)
            outcome = L2Outcome(accepted, hit, 0, predictable=True, write=True)
        else:
            expected = (2 + self.config.bank_access_cycles
                        + self._group_rt_delays[group_idx])
            _, ready = network.send_request(link, time, OPT_REQUEST_BITS)
            done = self._bank_access(group_idx, ready)
            if matches == 0:
                # Clean partial-tag miss: every bank acks "no match".
                answer_at = network.send_response(link, done, ACK_BITS)
                predictable = answer_at - time == expected
            elif matches == 1:
                # Banks ship the (single) candidate's slices plus upper tag
                # bits; the controller's full compare decides hit vs false
                # hit.
                answer_at = network.send_response(link, done, response_bits)
                predictable = answer_at - time == expected
                if not hit:
                    self.stats.add("false_hits")
            else:
                # Multiple partial matches: candidates' tag bits come back
                # first, then the controller re-requests the resolved way
                # (if any).
                self.stats.add("multi_partial_matches")
                answer_at = network.send_response(link, done,
                                                  ACK_BITS * matches)
                predictable = False
                if hit:
                    _, ready = network.send_request(link, answer_at,
                                                    OPT_REQUEST_BITS)
                    done = self._bank_access(group_idx, ready)
                    answer_at = network.send_response(link, done,
                                                      response_bits)
            if hit:
                outcome = L2Outcome(answer_at, True, answer_at - time,
                                    predictable)
            else:
                # A clean miss, a false hit or a multiple match with no
                # hit: fetch from memory and refill every stripe bank.
                mem_done = self.memory.read(answer_at)
                _, ready = network.send_request(link, mem_done, write_bits,
                                                contend=False)
                accepted = self._bank_access(group_idx, ready, contend=False)
                outcome = L2Outcome(mem_done, False, answer_at - time,
                                    predictable)
        if writeback:
            # Victim slices stream back from every stripe bank to memory,
            # all leaving at ``accepted``.
            arrival = network.send_response(link, accepted, response_bits,
                                            contend=False)
            self.memory.write(arrival)
            self.stats.add("writebacks")
        self._record(outcome, banks_accessed=self.stripe_banks)
        return outcome

    def bulk_install(self, addrs: Iterable[int]) -> None:
        install_interleaved(self.groups, self.addr_map, addrs)

    def _attach_sanitizer_extra(self, sanitizer) -> None:
        sanitizer.watch_banks(self.name, [
            (f"group{index:02d}", group)
            for index, group in enumerate(self.groups)
        ])

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
from repro.cache.bank import CacheBank
from repro.cache.partial_tags import partial_tag
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
        self._bank_busy_until = [0] * config.banks
        self._data_slice_bits = BLOCK_BITS // self.stripe_banks
        # Stripe geometry and group round-trip delay are pure functions
        # of the group index, used on every access — tabulate them once.
        self._group_banks = [self.banks_for_group(group)
                             for group in range(self.num_groups)]
        self._group_rt_delays = [
            max(config.controller_rt_delays[b // 2]
                for b in self._group_banks[group])
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

    # -- timing helpers --------------------------------------------------------
    def _fan_out(self, group: int, time: int, request_bits: int,
                 contend: bool = True) -> List[Tuple[int, int]]:
        """Send a request to every stripe bank; returns (bank, done) pairs."""
        results = []
        for bank in self._group_banks[group]:
            _, request_at = self.network.send_request(
                bank // 2, time, request_bits, contend)
            done = self._bank_access(bank, request_at, contend)
            results.append((bank, done))
        return results

    def _gather(self, bank_dones: List[Tuple[int, int]], response_bits: int,
                contend: bool = True) -> int:
        """Collect responses from every stripe bank; returns last arrival."""
        last = 0
        for bank, done in bank_dones:
            arrival = self.network.send_response(
                bank // 2, done, response_bits, contend)
            last = max(last, arrival)
        return last

    # -- partial-tag classification ---------------------------------------------
    def _partial_matches(self, group: CacheBank, set_index: int, tag: int) -> List[int]:
        wanted = partial_tag(tag)
        matches = []
        for way in range(group.ways):
            stored = group.tag_at(set_index, way)
            if stored is not None and partial_tag(stored) == wanted:
                matches.append(way)
        return matches

    # -- the access path ----------------------------------------------------------
    def access(self, addr: int, time: int, write: bool = False) -> L2Outcome:
        group_idx, set_index, tag = self.addr_map.decompose(addr)
        group = self.groups[group_idx]

        if write:
            outcome = self._write(group, group_idx, set_index, tag, time)
        else:
            outcome = self._read(group, group_idx, set_index, tag, time)
        self._record(outcome, banks_accessed=self.stripe_banks)
        return outcome

    def _read(self, group: CacheBank, group_idx: int, set_index: int,
              tag: int, time: int) -> L2Outcome:
        expected = 2 + self.config.bank_access_cycles + self._group_rt_delays[group_idx]
        matches = self._partial_matches(group, set_index, tag)
        hit = group.lookup(set_index, tag).hit
        bank_dones = self._fan_out(group_idx, time, OPT_REQUEST_BITS)

        if len(matches) == 0:
            # Clean partial-tag miss: every bank acks "no match".
            miss_at = self._gather(bank_dones, ACK_BITS)
            return self._miss(group, group_idx, set_index, tag, miss_at,
                              lookup_latency=miss_at - time,
                              predictable=(miss_at - time == expected))

        if len(matches) == 1:
            # Banks ship the (single) candidate's slices plus upper tag
            # bits; the controller's full compare decides hit vs false hit.
            response_bits = self._data_slice_bits + RESPONSE_OVERHEAD_BITS
            arrival = self._gather(bank_dones, response_bits)
            latency = arrival - time
            predictable = latency == expected
            if hit:
                return L2Outcome(arrival, True, latency, predictable)
            self.stats.add("false_hits")
            return self._miss(group, group_idx, set_index, tag, arrival,
                              lookup_latency=latency, predictable=predictable)

        # Multiple partial matches: candidates' tag bits come back first,
        # then the controller re-requests the resolved way (if any).
        self.stats.add("multi_partial_matches")
        report_at = self._gather(bank_dones, ACK_BITS * len(matches))
        if not hit:
            return self._miss(group, group_idx, set_index, tag, report_at,
                              lookup_latency=report_at - time, predictable=False)
        second = self._fan_out(group_idx, report_at, OPT_REQUEST_BITS)
        response_bits = self._data_slice_bits + RESPONSE_OVERHEAD_BITS
        arrival = self._gather(second, response_bits)
        return L2Outcome(arrival, True, arrival - time, predictable=False)

    def _miss(self, group: CacheBank, group_idx: int, set_index: int, tag: int,
              miss_at: int, lookup_latency: int, predictable: bool) -> L2Outcome:
        mem_done = self.memory.read(miss_at)
        self._refill(group, group_idx, set_index, tag, mem_done, dirty=False)
        return L2Outcome(mem_done, False, lookup_latency, predictable)

    def _write(self, group: CacheBank, group_idx: int, set_index: int,
               tag: int, time: int) -> L2Outcome:
        # Stores carry their data slices on the request links and are
        # written without any tag comparison (exclusive write-back).
        write_bits = OPT_REQUEST_BITS + self._data_slice_bits
        bank_dones = self._fan_out(group_idx, time, write_bits)
        accepted = max(done for _, done in bank_dones)
        hit = group.lookup(set_index, tag, write=True).hit
        if not hit:
            self._insert(group, group_idx, set_index, tag, accepted, dirty=True)
        return L2Outcome(accepted, hit, 0, predictable=True, write=True)

    def _refill(self, group: CacheBank, group_idx: int, set_index: int,
                tag: int, time: int, dirty: bool) -> None:
        write_bits = OPT_REQUEST_BITS + self._data_slice_bits
        bank_dones = self._fan_out(group_idx, time, write_bits, contend=False)
        accepted = max(done for _, done in bank_dones)
        self._insert(group, group_idx, set_index, tag, accepted, dirty=dirty)

    def _insert(self, group: CacheBank, group_idx: int, set_index: int,
                tag: int, time: int, dirty: bool) -> None:
        result = group.insert(set_index, tag, dirty=dirty)
        if result.evicted_tag is not None and result.evicted_dirty:
            # Victim slices stream back from every stripe bank to memory.
            response_bits = self._data_slice_bits + RESPONSE_OVERHEAD_BITS
            arrival = self._gather(
                [(b, time) for b in self._group_banks[group_idx]],
                response_bits, contend=False)
            self.memory.write(arrival)
            self.stats.add("writebacks")

    def bulk_install(self, addrs: Iterable[int]) -> None:
        for group, pairs in zip(self.groups, self.addr_map.by_bank(addrs)):
            group.install_all(pairs)

    def _attach_sanitizer_extra(self, sanitizer) -> None:
        sanitizer.watch_banks(self.name, [
            (f"group{index:02d}", group)
            for index, group in enumerate(self.groups)
        ])

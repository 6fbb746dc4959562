"""The base Transmission Line Cache (Section 4, Figure 2).

32 x 512 KB banks line the die edges; each adjacent pair of banks shares
two 8-byte unidirectional transmission-line links to the central
controller.  Blocks map to banks statically (address interleaving), so
exactly one bank is accessed per request — the source of TLC's
consistent latency, single-bank power profile (Table 9), and trivially
predictable lookups.

Read timing (uncontended): controller wire (0-3) + transmission line (1)
+ bank (8) + transmission line (1) + controller wire (0-3) = 10-16
cycles, Table 2's range.  Contention arises only at the shared pair
links and at the banks themselves ("TLC encounters more bank contention
due to its fewer banks and longer bank access latencies").

Stores need no tag comparison (the design is an exclusive write-back
cache): the incoming block is simply written, evicting the set's LRU
victim if needed.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.cache.address import AddressMap
from repro.cache.bank import CacheBank, install_interleaved
from repro.core.base import L2Design, L2Outcome
from repro.core.config import DesignConfig, TLC_BASE
from repro.core.controller import TLCController
from repro.interconnect.message import BLOCK_BITS, REQUEST_BITS
from repro.sim.memory import MainMemory
from repro.tech import Technology, TECH_45NM


class TransmissionLineCache(L2Design):
    """The base TLC design."""

    def __init__(self, config: DesignConfig = TLC_BASE,
                 memory: Optional[MainMemory] = None,
                 tech: Technology = TECH_45NM) -> None:
        super().__init__(memory=memory, tech=tech)
        if config.kind != "tlc":
            raise ValueError(f"{config.name} is not a base TLC config")
        self.config = config
        self.name = config.name
        sets_per_bank = config.bank_bytes // (64 * config.associativity)
        self.addr_map = AddressMap(block_bytes=64, num_sets=sets_per_bank,
                                   banks=config.banks)
        self.banks: List[CacheBank] = [
            CacheBank(sets_per_bank, config.associativity, config.replacement)
            for _ in range(config.banks)
        ]
        self.network = TLCController(config, tech)
        self._bank_busy_until = [0] * config.banks
        self.network.register_metrics(self.metrics.scope("link"))
        for index, bank in enumerate(self.banks):
            bank.register_metrics(self.metrics.scope(f"l2.bank{index:02d}"))

    def uncontended_latency(self, addr: int) -> int:
        pair = self.addr_map.bank_index(addr) // 2
        return self.network.uncontended_latency(pair)

    # -- the access path ----------------------------------------------------
    def access(self, addr: int, time: int, write: bool = False) -> L2Outcome:
        bank_idx, set_index, tag = self.addr_map.decompose(addr)
        bank = self.banks[bank_idx]
        # Functional step: a store writes its block dirty, a read miss
        # refills it clean, evicting the set's LRU victim if needed.
        hit = bank.lookup(set_index, tag, write).hit
        writeback = (not hit
                     and bank.insert(set_index, tag, dirty=write).evicted_dirty)

        # Timing step: a store's or a refill's data reaches the bank at
        # ``landed``.
        network, pair = self.network, bank_idx // 2
        if write:
            # Store/writeback: address and a full block ride the request
            # link; no tag comparison is needed (exclusive write-back).
            _, landed = network.send_request(
                pair, time, REQUEST_BITS + BLOCK_BITS)
            self._bank_access(bank_idx, landed)
            outcome = L2Outcome(landed, hit, 0, predictable=True, write=True)
        else:
            request_at, _ = network.send_request(pair, time, REQUEST_BITS)
            bank_done = self._bank_access(bank_idx, request_at)
            expected = network.uncontended_latency(pair)
            if hit:
                arrival = network.send_response(pair, bank_done, BLOCK_BITS)
                latency = arrival - time
                outcome = L2Outcome(arrival, True, latency, latency == expected)
            else:
                # Miss: the bank's tag compare fails; a short ack tells the
                # controller, which fetches from memory and refills the
                # bank over the request link.
                miss_at = network.send_response(pair, bank_done, REQUEST_BITS)
                latency = miss_at - time
                mem_done = self.memory.read(miss_at)
                _, landed = network.send_request(
                    pair, mem_done, REQUEST_BITS + BLOCK_BITS, contend=False)
                outcome = L2Outcome(mem_done, False, latency,
                                    latency == expected)
        if writeback:
            # Victim writeback: the block leaves at ``landed`` and travels
            # bank -> controller -> memory.
            arrival = network.send_response(pair, landed, BLOCK_BITS,
                                            contend=False)
            self.memory.write(arrival)
            self.stats.counts["writebacks"] += 1
        self._record(outcome, banks_accessed=1)
        return outcome

    def bulk_install(self, addrs: Iterable[int]) -> None:
        install_interleaved(self.banks, self.addr_map, addrs)

    def _attach_sanitizer_extra(self, sanitizer) -> None:
        sanitizer.watch_banks(self.name, [
            (f"bank{index:02d}", bank)
            for index, bank in enumerate(self.banks)
        ])

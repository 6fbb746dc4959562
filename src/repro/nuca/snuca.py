"""SNUCA2: the statically partitioned NUCA baseline (Kim et al.).

32 x 512 KB banks on an 8 x 4 switched mesh with conventional repeated
wires.  Blocks map to banks by address interleaving — no migration, no
search.  Uncontended latency spans 9-33 cycles depending on which bank
an address happens to live in (Table 2 reports 9-32 for the authors'
floorplan), which is the non-uniformity both DNUCA and TLC attack.

SNUCA2 is the Figure 5 / Figure 8 normalization baseline: every other
design's execution time is reported relative to it.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.cache.address import AddressMap
from repro.cache.bank import CacheBank, install_interleaved
from repro.core.base import L2Design, L2Outcome
from repro.core.config import DesignConfig, SNUCA2
from repro.interconnect.mesh import MeshNetwork
from repro.interconnect.message import BLOCK_BITS, REQUEST_BITS
from repro.sim.memory import MainMemory
from repro.tech import Technology, TECH_45NM


class StaticNUCA(L2Design):
    """The SNUCA2 design."""

    def __init__(self, config: DesignConfig = SNUCA2,
                 memory: Optional[MainMemory] = None,
                 tech: Technology = TECH_45NM) -> None:
        super().__init__(memory=memory, tech=tech)
        if config.kind != "snuca":
            raise ValueError(f"{config.name} is not an SNUCA config")
        self.config = config
        self.name = config.name
        sets_per_bank = config.bank_bytes // (64 * config.associativity)
        self.addr_map = AddressMap(block_bytes=64, num_sets=sets_per_bank,
                                   banks=config.banks)
        self.banks: List[CacheBank] = [
            CacheBank(sets_per_bank, config.associativity, config.replacement)
            for _ in range(config.banks)
        ]
        self.network = MeshNetwork(config.mesh_columns, config.mesh_rows,
                                   config.mesh_flit_bits, config.mesh_hop_latency,
                                   config.mesh_hop_length_m, tech)
        self._bank_busy_until = [0] * config.banks
        # Per-bank geometry and uncontended latency are pure functions of
        # the config; tabulate them once instead of re-deriving per access.
        self._grids = [self._grid(bank) for bank in range(config.banks)]
        self._uncontended = [
            config.controller_overhead
            + self.network.uncontended_latency(column, position,
                                               config.bank_access_cycles)
            for column, position in self._grids
        ]
        self.network.register_metrics(self.metrics.scope("mesh"))
        for index, bank in enumerate(self.banks):
            bank.register_metrics(self.metrics.scope(f"l2.bank{index:02d}"))

    # -- geometry ------------------------------------------------------------
    def _grid(self, bank_idx: int):
        return bank_idx % self.config.mesh_columns, bank_idx // self.config.mesh_columns

    def uncontended_latency(self, addr: int) -> int:
        return self._uncontended[self.addr_map.bank_index(addr)]

    # -- the access path --------------------------------------------------------
    def access(self, addr: int, time: int, write: bool = False) -> L2Outcome:
        bank_idx, set_index, tag = self.addr_map.decompose(addr)
        bank = self.banks[bank_idx]
        # Functional step: a store writes its block dirty, a read miss
        # refills it clean, evicting the set's LRU victim if needed.
        hit = bank.lookup(set_index, tag, write).hit
        writeback = (not hit
                     and bank.insert(set_index, tag, dirty=write).evicted_dirty)

        # Timing step: a store's bank write ends, or a refill's data
        # reaches the bank, at ``landed``.
        network, (column, position) = self.network, self._grids[bank_idx]
        t_inject = time + self.config.controller_overhead
        if write:
            _, data_at = network.send(column, position, t_inject,
                                      REQUEST_BITS + BLOCK_BITS, True)
            landed = self._bank_access(bank_idx, data_at)
            outcome = L2Outcome(landed, hit, 0, predictable=True, write=True)
        else:
            request_at, _ = network.send(column, position, t_inject,
                                         REQUEST_BITS, True)
            done = self._bank_access(bank_idx, request_at)
            expected = self._uncontended[bank_idx]
            if hit:
                response_at, _ = network.send(column, position, done,
                                              BLOCK_BITS, False)
                latency = response_at - time
                outcome = L2Outcome(response_at, True, latency,
                                    latency == expected)
            else:
                ack_at, _ = network.send(column, position, done,
                                         REQUEST_BITS, False)
                latency = ack_at - time
                mem_done = self.memory.read(ack_at)
                _, landed = network.send(column, position, mem_done,
                                         REQUEST_BITS + BLOCK_BITS, True,
                                         contend=False)
                self._bank_access(bank_idx, landed, contend=False)
                outcome = L2Outcome(mem_done, False, latency,
                                    latency == expected)
        if writeback:
            _, writeback_at = network.send(column, position, landed,
                                           BLOCK_BITS, False, contend=False)
            self.memory.write(writeback_at)
            self.stats.add("writebacks")
        self._record(outcome, banks_accessed=1)
        return outcome

    def bulk_install(self, addrs: Iterable[int]) -> None:
        install_interleaved(self.banks, self.addr_map, addrs)

    def _attach_sanitizer_extra(self, sanitizer) -> None:
        sanitizer.watch_banks(self.name, [
            (f"bank{index:02d}", bank)
            for index, bank in enumerate(self.banks)
        ])

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
from repro.cache.bank import CacheBank
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
        column, position = self._grids[bank_idx]
        bank = self.banks[bank_idx]
        t_inject = time + self.config.controller_overhead

        if write:
            outcome = self._write(bank, bank_idx, column, position,
                                  set_index, tag, t_inject)
        else:
            outcome = self._read(bank, bank_idx, column, position,
                                 set_index, tag, time, t_inject)
        self._record(outcome, banks_accessed=1)
        return outcome

    def _read(self, bank: CacheBank, bank_idx: int, column: int, position: int,
              set_index: int, tag: int, time: int, t_inject: int) -> L2Outcome:
        request_at, _ = self.network.send(column, position, t_inject,
                                          REQUEST_BITS, True)
        done = self._bank_access(bank_idx, request_at)
        expected = self._uncontended[bank_idx]
        if bank.lookup(set_index, tag).hit:
            response_at, _ = self.network.send(column, position, done,
                                               BLOCK_BITS, False)
            latency = response_at - time
            return L2Outcome(response_at, True, latency,
                             predictable=(latency == expected))
        ack_at, _ = self.network.send(column, position, done, REQUEST_BITS, False)
        latency = ack_at - time
        mem_done = self.memory.read(ack_at)
        self._refill(bank, bank_idx, column, position, set_index, tag, mem_done)
        return L2Outcome(mem_done, False, latency,
                         predictable=(latency == expected))

    def _write(self, bank: CacheBank, bank_idx: int, column: int, position: int,
               set_index: int, tag: int, t_inject: int) -> L2Outcome:
        _, data_at = self.network.send(column, position, t_inject,
                                       REQUEST_BITS + BLOCK_BITS, True)
        accepted = self._bank_access(bank_idx, data_at)
        hit = bank.lookup(set_index, tag, write=True).hit
        if not hit:
            self._insert(bank, bank_idx, column, position, set_index, tag,
                         accepted, dirty=True)
        return L2Outcome(accepted, hit, 0, predictable=True, write=True)

    def _refill(self, bank: CacheBank, bank_idx: int, column: int, position: int,
                set_index: int, tag: int, time: int) -> None:
        _, refill_at = self.network.send(column, position, time,
                                         REQUEST_BITS + BLOCK_BITS, True, contend=False)
        self._bank_access(bank_idx, refill_at, contend=False)
        self._insert(bank, bank_idx, column, position, set_index, tag,
                     refill_at, dirty=False)

    def _insert(self, bank: CacheBank, bank_idx: int, column: int, position: int,
                set_index: int, tag: int, time: int, dirty: bool) -> None:
        result = bank.insert(set_index, tag, dirty=dirty)
        if result.evicted_tag is not None and result.evicted_dirty:
            _, writeback_at = self.network.send(column, position, time, BLOCK_BITS,
                                                False, contend=False)
            self.memory.write(writeback_at)
            self.stats.add("writebacks")

    def bulk_install(self, addrs: Iterable[int]) -> None:
        for bank, pairs in zip(self.banks, self.addr_map.by_bank(addrs)):
            bank.install_all(pairs)

    def _attach_sanitizer_extra(self, sanitizer) -> None:
        sanitizer.watch_banks(self.name, [
            (f"bank{index:02d}", bank)
            for index, bank in enumerate(self.banks)
        ])

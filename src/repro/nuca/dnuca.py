"""DNUCA: the Dynamic Non-Uniform Cache Architecture baseline (Kim et al.).

16 MB organized as 16 *bank sets* (one per mesh column) of 16 direct-
mapped 64 KB banks — a 16-way set-associative cache whose ways are
physically spread from 3 to 47 cycles away from the controller.

Mechanisms implemented, following Section 2 of the paper:

* **Closest-two parallel lookup**: every request probes the two nearest
  banks of its bank set while the central 6-bit partial-tag array is
  consulted in parallel.
* **Partial-tag directed search**: on a closest-two miss, only banks
  whose partial tag matches are searched; if none match anywhere the
  request is a *fast miss*, resolved at the fixed partial-tag latency.
* **Generational promotion**: every hit in a non-nearest bank swaps the
  block one bank closer to the controller, displacing the occupant one
  bank further.  The swap moves two blocks over the vertical link
  between the banks and briefly occupies both banks — the migration
  bandwidth DNUCA pays for its locality.
* **Insert at tail**: blocks arriving from memory enter the furthest
  bank of their bank set, evicting (and writing back, if dirty) its
  occupant.  On streaming workloads with few re-references this policy
  never pays off — the paper's swim/applu observation.

The partial-tag array is updated synchronously with every insert, evict,
and swap; the paper's "complex synchronization mechanism" guaranteeing
that a search never misses an in-flight block is modelled by these
atomic functional updates.

Each parallel action is one step of the model.  The closest-two probe is
one :meth:`~repro.interconnect.mesh.MeshNetwork.send_closest_two` call,
and a promotion one :meth:`~repro.interconnect.mesh.MeshNetwork.transfer_between`
call plus one partial-tag swap.  A block missed by the closest two is
looked for only in the banks whose partial tag matches it: the array
mirrors the banks, so no other bank can hold it.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.cache.address import AddressMap, group_order, ranks_within
from repro.cache.bank import CacheBank, fill_fresh_banks
from repro.cache.partial_tags import PartialTagArray, partial_tag
from repro.core.base import L2Design, L2Outcome
from repro.core.config import DesignConfig, DNUCA
from repro.interconnect.mesh import MeshNetwork
from repro.interconnect.message import BLOCK_BITS, REQUEST_BITS
from repro.sim.memory import MainMemory
from repro.tech import Technology, TECH_45NM

#: Banks probed in parallel on every lookup.
CLOSEST_BANKS = (0, 1)


class DynamicNUCA(L2Design):
    """The DNUCA design."""

    def __init__(self, config: DesignConfig = DNUCA,
                 memory: Optional[MainMemory] = None,
                 tech: Technology = TECH_45NM) -> None:
        super().__init__(memory=memory, tech=tech)
        if config.kind != "dnuca":
            raise ValueError(f"{config.name} is not a DNUCA config")
        self.config = config
        self.name = config.name
        self.banksets = config.mesh_columns
        self.positions = config.mesh_rows
        sets_per_bank = config.bank_bytes // (64 * config.associativity)
        self.sets_per_bank = sets_per_bank
        self.addr_map = AddressMap(block_bytes=64, num_sets=sets_per_bank,
                                   banks=self.banksets)
        # banks[column][position]; position 0 is nearest the controller.
        self.banks: List[List[CacheBank]] = [
            [CacheBank(sets_per_bank, config.associativity, config.replacement)
             for _ in range(self.positions)]
            for _ in range(self.banksets)
        ]
        self.partial_tags: List[PartialTagArray] = [
            PartialTagArray(self.positions, sets_per_bank, config.associativity)
            for _ in range(self.banksets)
        ]
        self.network = MeshNetwork(config.mesh_columns, config.mesh_rows,
                                   config.mesh_flit_bits, config.mesh_hop_latency,
                                   config.mesh_hop_length_m, tech)
        # One busy-until cycle per bank, flat: bank (column, position)
        # is index column * positions + position.
        self._bank_busy_until = [0] * config.banks
        # Uncontended latency is a pure function of (column, position)
        # and the config, asked for on every read hit — tabulate it once.
        self._uncontended = [
            [self.network.uncontended_latency(column, position,
                                              config.bank_access_cycles)
             for position in range(self.positions)]
            for column in range(self.banksets)
        ]
        self.network.register_metrics(self.metrics.scope("mesh"))
        # 256 banks: per-bank gauges would dominate every snapshot, so
        # occupancy is exposed per bank set (mesh column) instead.
        for column in range(self.banksets):
            self.metrics.gauge(
                f"l2.bankset{column:02d}.occupancy",
                lambda banks=self.banks[column]: sum(
                    bank.occupied_blocks for bank in banks))

    # -- the access path ----------------------------------------------------
    def access(self, addr: int, time: int, write: bool = False) -> L2Outcome:
        column, set_index, tag = self.addr_map.decompose(addr)
        outcome, banks_accessed = self._lookup(column, set_index, tag, time, write)
        self._record(outcome, banks_accessed)
        return outcome

    def _lookup(self, column: int, set_index: int, tag: int, time: int,
                write: bool) -> Tuple[L2Outcome, int]:
        banks = self.banks[column]
        first_bank = column * self.positions

        # Probe the closest two banks (in parallel with the partial tags).
        near_at, far_at = self.network.send_closest_two(column, time,
                                                        REQUEST_BITS)
        probe_done = (self._bank_access(first_bank, near_at),
                      self._bank_access(first_bank + 1, far_at))
        banks_accessed = len(CLOSEST_BANKS)
        for position in CLOSEST_BANKS:
            way = banks[position].probe(set_index, tag)
            if way is not None:
                outcome = self._hit(column, position, way, set_index, tag,
                                    time, probe_done[position], write,
                                    close_hit=True)
                self.stats.add("close_hits")
                return outcome, banks_accessed

        # Closest-two miss.  Miss acks flow back while the partial tags
        # direct (or rule out) a wider search.
        ack_times = [
            self.network.send(column, p, probe_done[p], REQUEST_BITS,
                              False)[0]
            for p in CLOSEST_BANKS
        ]
        # The partial tags mirror the banks, so a far block sits at the
        # nearest partial-tag match whose bank holds it, if anywhere.
        all_matches = self.partial_tags[column].matches(set_index, tag)
        far = [p for p in all_matches if p not in CLOSEST_BANKS]
        holder = None
        for position in far:
            way = banks[position].probe(set_index, tag)
            if way is not None:
                holder = position, way
                break
        if self.config.use_partial_tags:
            search_candidates = far
        else:
            # Ablation: no partial tags, so every remaining bank must be
            # searched and no miss can be declared early.
            all_matches = list(range(self.positions))
            search_candidates = [p for p in range(self.positions)
                                 if p not in CLOSEST_BANKS]

        if not search_candidates:
            if not all_matches:
                # Fast miss: no partial tag matched anywhere, so the miss
                # is known at the fixed partial-tag latency.
                miss_at = time + self.config.partial_tag_latency
                self.stats.add("fast_misses")
                predictable = True
            else:
                # A closest-bank partial tag matched but the full tag
                # didn't; the controller must wait for the probe acks.
                miss_at = max(ack_times)
                predictable = False
            return (self._miss(column, set_index, tag, time, miss_at,
                               predictable, write), banks_accessed)

        # Directed search of the partial-tag candidates.  If a closest
        # bank's partial tag matched, its probe might still hit and the
        # controller waits for the acks; otherwise the partial tags have
        # already ruled the closest banks out and the search launches at
        # the partial-tag latency.
        close_partial_match = any(p in CLOSEST_BANKS for p in all_matches)
        search_start = time + self.config.partial_tag_latency
        if close_partial_match:
            search_start = max([search_start] + ack_times)

        if self.config.search_mode == "incremental":
            return self._incremental_search(column, set_index, tag, time,
                                            search_start, search_candidates,
                                            banks_accessed, holder, write)

        banks_accessed += len(search_candidates)
        search_done = {}
        for position in search_candidates:
            request_at, _ = self.network.send(column, position, search_start,
                                              REQUEST_BITS, True)
            search_done[position] = self._bank_access(first_bank + position,
                                                      request_at)

        if holder is not None:
            position = holder[0]
            outcome = self._hit(column, position, holder[1], set_index, tag,
                                time, search_done[position], write,
                                close_hit=False)
            return outcome, banks_accessed

        # Every candidate was a partial-tag false positive.
        search_acks = [
            self.network.send(column, p, done, REQUEST_BITS, False)[0]
            for p, done in search_done.items()
        ]
        miss_at = max(search_acks)
        return (self._miss(column, set_index, tag, time, miss_at,
                           predictable=False, write=write), banks_accessed)

    def _incremental_search(self, column: int, set_index: int, tag: int,
                            time: int, search_start: int,
                            candidates, banks_accessed: int,
                            holder, write: bool) -> Tuple[L2Outcome, int]:
        """Probe candidates nearest-first, one at a time.

        Saves bank accesses whenever an early candidate hits, at the
        cost of serialized round trips when it does not — the
        latency/bandwidth trade-off of Kim et al.'s incremental search.
        """
        now = search_start
        first_bank = column * self.positions
        for position in candidates:
            banks_accessed += 1
            request_at, _ = self.network.send(column, position, now, REQUEST_BITS, True)
            done = self._bank_access(first_bank + position, request_at)
            if holder is not None and holder[0] == position:
                outcome = self._hit(column, position, holder[1], set_index,
                                    tag, time, done, write, close_hit=False)
                return outcome, banks_accessed
            now, _ = self.network.send(column, position, done, REQUEST_BITS, False)
        return (self._miss(column, set_index, tag, time, now,
                           predictable=False, write=write), banks_accessed)

    # -- hit / miss handling ----------------------------------------------------
    def _hit(self, column: int, position: int, way: int, set_index: int,
             tag: int, time: int, bank_done: int, write: bool,
             close_hit: bool) -> L2Outcome:
        bank = self.banks[column][position]
        bank.lookup(set_index, tag, write=write)
        if write:
            # The store's data follows the probe to the located bank.
            _, complete = self.network.send(column, position, bank_done,
                                            BLOCK_BITS, True)
            outcome = L2Outcome(complete, True, 0, predictable=True, write=True)
        else:
            response_at, _ = self.network.send(column, position, bank_done,
                                               BLOCK_BITS, False)
            latency = response_at - time
            expected = self._uncontended[column][position]
            predictable = close_hit and latency == expected
            outcome = L2Outcome(response_at, True, latency, predictable)
        if position > 0:
            self._promote(column, position, way, set_index,
                          outcome.complete_time)
        return outcome

    def _promote(self, column: int, position: int, way: int, set_index: int,
                 time: int) -> None:
        """Swap the hit block ``promotion_distance`` banks closer."""
        target = max(0, position - self.config.promotion_distance)
        banks = self.banks[column]
        upper, lower = banks[position], banks[target]
        displaced = lower.replace_way(set_index, way,
                                      *upper.entry_at(set_index, way))
        upper.replace_way(set_index, way, *displaced)
        self.partial_tags[column].swap(set_index, way, target, position)
        # Two block transfers over every vertical link between the banks,
        # which briefly occupies both endpoint banks as well.
        self.network.transfer_between(column, target, position, time,
                                      BLOCK_BITS)
        first_bank = column * self.positions
        self._bank_access(first_bank + position, time)
        self._bank_access(first_bank + target, time)
        self.stats.add("promotions")

    def _miss(self, column: int, set_index: int, tag: int, time: int,
              miss_at: int, predictable: bool, write: bool) -> L2Outcome:
        latency = miss_at - time
        if write:
            # An L1 writeback that missed everywhere: insert at the tail
            # without a memory fetch (the block is the full 64 bytes).
            insert_at = self._insert_at_tail(column, set_index, tag, miss_at,
                                             dirty=True)
            return L2Outcome(insert_at, False, 0, predictable=True, write=True)
        mem_done = self.memory.read(miss_at)
        self._insert_at_tail(column, set_index, tag, mem_done, dirty=False)
        return L2Outcome(mem_done, False, latency, predictable)

    def _insert_at_tail(self, column: int, set_index: int, tag: int,
                        time: int, dirty: bool) -> int:
        """Insert per the configured insertion position (tail by default)."""
        if self.config.insertion_position == "tail":
            entry = self.positions - 1
        else:
            entry = 0
        _, data_at = self.network.send(column, entry, time,
                                       REQUEST_BITS + BLOCK_BITS, True, contend=False)
        accepted = self._bank_access(column * self.positions + entry,
                                     data_at, contend=False)
        bank = self.banks[column][entry]
        result = bank.insert(set_index, tag, dirty=dirty)
        pta = self.partial_tags[column]
        pta.update(entry, set_index, result.way, tag)
        self.stats.add("insertions")
        if result.evicted_tag is not None and result.evicted_dirty:
            _, writeback_at = self.network.send(column, entry, accepted, BLOCK_BITS,
                                                False, contend=False)
            self.memory.write(writeback_at)
            self.stats.add("writebacks")
        return accepted

    #: pre-warm blocks arrive most-popular-first (see L2Design.install_order).
    install_order = "popular_first"

    def bulk_install(self, addrs: Iterable[int]) -> None:
        """Place each block in the shallowest empty bank slot of its set.

        Blocks are installed most-popular-first, so the popular ones
        claim the positions nearest the controller — the distribution
        generational promotion converges to after a long warm-up.  A
        block already in its bank set is skipped; when every slot is
        full, the tail bank's way 0 is silently replaced.  The central
        partial-tag array mirrors the banks, so it names both the banks
        that might already hold a block and the nearest empty slot.

        An array of distinct blocks whose bank sets are all fresh (every
        bank :attr:`~repro.cache.bank.CacheBank.fresh_lru`, the partial
        tags empty) is placed in closed form; anything else runs the
        per-block loop below.
        """
        decomposed = self.addr_map.decompose_distinct(addrs)
        if decomposed is not None:
            reached = np.bincount(decomposed[0],
                                  minlength=self.banksets).tolist()
            if all(self.partial_tags[column].empty
                   and all(bank.fresh_lru for bank in self.banks[column])
                   for column, count in enumerate(reached) if count):
                self._install_fresh(*decomposed)
                return
        if isinstance(addrs, np.ndarray):
            addrs = addrs.tolist()
        tail = self.positions - 1
        for column, pairs in enumerate(self.addr_map.by_bank(addrs)):
            banks = self.banks[column]
            pta = self.partial_tags[column]
            for set_index, tag in pairs:
                for position in pta.matches(set_index, tag):
                    if banks[position].probe(set_index, tag) is not None:
                        break
                else:
                    position, way = pta.first_empty(set_index) or (tail, 0)
                    banks[position].replace_way(set_index, way, tag)
                    pta.update(position, set_index, way, tag)

    def _install_fresh(self, column: np.ndarray, sets: np.ndarray,
                       tags: np.ndarray) -> None:
        """The loop of :meth:`bulk_install` in closed form, for fresh bank sets.

        The j-th block into a set takes slot j of the set's row (nearest
        position first, ways in order) while the row has room, and the
        tail bank's way 0 after that, so the tail keeps the set's last
        block.  Each placement is one ``replace_way``: one LRU tick.
        """
        ways = self.config.associativity
        row_slots = self.positions * ways
        tail = row_slots - ways
        key = column * self.sets_per_bank + sets
        rank = ranks_within(key)
        arrivals = np.bincount(key)[key]
        del key
        row_slot = np.where(rank < row_slots, rank, tail)
        # The tail's way 0 keeps the last block to reach it: the set's
        # last block once the row overflowed, else block ``tail``.
        last = np.where(arrivals > row_slots, arrivals - 1, tail)
        survives = (row_slot != tail) | (rank == last)
        del rank, arrivals, last
        fill_fresh_banks(
            [bank for bankset in self.banks for bank in bankset],
            column * self.positions + row_slot // ways, sets,
            sets * ways + row_slot % ways, tags, survives, ticks=1)
        # The partial tags mirror the survivors, bank set by bank set.
        kept = np.flatnonzero(survives)
        kept = kept[group_order(column[kept])]
        per_column = np.bincount(column[kept], minlength=self.banksets)
        slots, tags = sets[kept] * row_slots + row_slot[kept], tags[kept]
        start = 0
        for pta, count in zip(self.partial_tags, per_column.tolist()):
            pta.fill_fresh(slots[start:start + count], tags[start:start + count])
            start += count

    # -- reporting -----------------------------------------------------------
    @property
    def promotes_per_insert(self) -> float:
        """Table 6, column 6: block promotions per insertion."""
        return self.stats.ratio("promotions", "insertions")

    def _attach_sanitizer_extra(self, sanitizer) -> None:
        from repro.sanitizer.core import SanitizerViolation

        sanitizer.watch_banks(self.name, [
            (f"bankset{column:02d}.pos{position:02d}", bank)
            for column, bankset in enumerate(self.banks)
            for position, bank in enumerate(bankset)
        ])

        def check_partial_tags(cycle: int) -> None:
            # The central partial-tag arrays must mirror the banks
            # exactly — the paper's migration-coherence requirement.
            for column in range(self.banksets):
                pta = self.partial_tags[column]
                for position in range(self.positions):
                    bank = self.banks[column][position]
                    for set_index, tags, _dirty in bank.iter_sets():
                        for way, tag in enumerate(tags):
                            expected = (None if tag is None
                                        else partial_tag(tag))
                            got = pta.stored(position, set_index, way)
                            if got != expected:
                                raise SanitizerViolation(
                                    "dnuca.partial_tag_incoherent",
                                    f"{self.name}.bankset{column:02d}"
                                    f".pos{position:02d}", cycle,
                                    {"set": set_index, "way": way,
                                     "bank_partial_tag": expected,
                                     "array_partial_tag": got})

        sanitizer.register_invariant(f"{self.name}.partial_tags",
                                     check_partial_tags)

"""A set-associative cache bank.

Banks are the storage unit shared by every design in the paper: TLC uses
32 x 512 KB or 16 x 1 MB banks, DNUCA 256 x 64 KB banks, SNUCA2
32 x 512 KB banks.  A bank holds tags and dirty bits; data values are not
simulated (the timing and power models only need which block is where).

State is stored flat, one slot per (set, way) at index
``set_index * ways + way``: a list of tags (``None`` marks an empty
slot), a ``bytearray`` of dirty bits, and the replacement policy's own
per-slot arrays (:mod:`repro.cache.replacement`).  One more byte per set
records whether the set has been *touched* — looked up, filled or
overwritten — which is what :meth:`CacheBank.iter_sets` walks and the
``touched_sets`` gauge counts.  Every entry point checks its set and way
indices inline, so a bad index raises ``IndexError`` instead of reaching
another set's slots, and a good one costs no helper call.

Pre-warming fresh banks has a closed form (:func:`install_interleaved`,
:func:`fill_fresh_banks`); :meth:`CacheBank.install_all` is the
per-block loop that every other case runs and that tests compare the
closed form against.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.cache.address import AddressMap, group_order, ranks_within
from repro.cache.replacement import LRUPolicy, make_policy


class AccessResult(NamedTuple):
    """Outcome of a bank access: a tuple, which every insert builds, and
    lookup picks from the ones its bank built up front."""

    hit: bool
    way: Optional[int] = None
    evicted_tag: Optional[int] = None
    evicted_dirty: bool = False


class CacheBank:
    """Tag storage for one bank.

    Parameters
    ----------
    num_sets:
        Number of sets in the bank.
    ways:
        Associativity.  DNUCA banks are direct-mapped (``ways=1``).
    policy:
        Replacement policy name: ``lru`` (TLC default) or ``lip``.
    """

    def __init__(self, num_sets: int, ways: int, policy: str = "lru") -> None:
        if num_sets <= 0 or ways <= 0:
            raise ValueError("num_sets and ways must be positive")
        self.num_sets = num_sets
        self.ways = ways
        self.policy = make_policy(policy, ways, num_sets)
        slots = num_sets * ways
        self._tags: List[Optional[int]] = [None] * slots
        self._dirty = bytearray(slots)
        self._touched = bytearray(num_sets)
        #: optional repro.sanitizer.Sanitizer (set by Sanitizer.watch_banks);
        #: receives one on_bank_insert per demand insert.
        self.sanitizer = None
        # What lookup returns, built once: a miss, and a hit in each way.
        self._miss = AccessResult(hit=False)
        self._hits = tuple(map(AccessResult, itertools.repeat(True), range(ways)))

    def _index_error(self, set_index: int, way: int = 0) -> IndexError:
        """The error for an out-of-range way or, failing that, set."""
        if not 0 <= way < self.ways:
            return IndexError(f"way {way} out of range [0, {self.ways})")
        return IndexError(
            f"set index {set_index} out of range [0, {self.num_sets})")

    # -- queries ---------------------------------------------------------
    def probe(self, set_index: int, tag: int) -> Optional[int]:
        """Return the way holding ``tag``, without touching LRU state."""
        if not 0 <= set_index < self.num_sets:
            raise self._index_error(set_index)
        base = set_index * self.ways
        try:
            return self._tags.index(tag, base, base + self.ways) - base
        except ValueError:
            return None

    def tags_of(self, set_index: int) -> List[Optional[int]]:
        """The tags of ``set_index``'s ways, a copy; None marks an empty slot."""
        if not 0 <= set_index < self.num_sets:
            raise self._index_error(set_index)
        base = set_index * self.ways
        return self._tags[base:base + self.ways]

    def tag_at(self, set_index: int, way: int) -> Optional[int]:
        """The tag stored in (set, way), or None if the slot is empty."""
        if not (0 <= set_index < self.num_sets and 0 <= way < self.ways):
            raise self._index_error(set_index, way)
        return self._tags[set_index * self.ways + way]

    def entry_at(self, set_index: int, way: int) -> Tuple[Optional[int], bool]:
        """The ``(tag, dirty)`` pair stored in (set, way), in one call.

        The tag is None if the slot is empty.  DNUCA's promotion reads
        the moving block this way.
        """
        if not (0 <= set_index < self.num_sets and 0 <= way < self.ways):
            raise self._index_error(set_index, way)
        slot = set_index * self.ways + way
        return self._tags[slot], bool(self._dirty[slot])

    # -- state-changing accesses ----------------------------------------
    def lookup(self, set_index: int, tag: int, write: bool = False) -> AccessResult:
        """Look up ``tag``; on a hit, update replacement state (and dirty).

        The result is one of the bank's shared, immutable
        :class:`AccessResult` tuples.
        """
        if not 0 <= set_index < self.num_sets:
            raise self._index_error(set_index)
        base = set_index * self.ways
        self._touched[set_index] = 1
        try:
            slot = self._tags.index(tag, base, base + self.ways)
        except ValueError:
            return self._miss
        self.policy.touch(slot)
        if write:
            self._dirty[slot] = 1
        return self._hits[slot - base]

    def insert(self, set_index: int, tag: int, dirty: bool = False) -> AccessResult:
        """Insert ``tag``, evicting the policy's victim if the set is full.

        Returns an :class:`AccessResult` whose ``way`` is the filled slot
        and whose ``evicted_tag``/``evicted_dirty`` describe any victim.
        """
        if not 0 <= set_index < self.num_sets:
            raise self._index_error(set_index)
        base = set_index * self.ways
        self._touched[set_index] = 1
        row = self._tags[base:base + self.ways]
        if tag in row:
            raise ValueError(f"tag {tag:#x} already present in set {set_index}")
        if None in row:
            way = row.index(None)
            evicted_tag, evicted_dirty = None, False
        else:
            way = self.policy.victim(base)
            evicted_tag = row[way]
            evicted_dirty = bool(self._dirty[base + way])
        slot = base + way
        self._tags[slot] = tag
        self._dirty[slot] = dirty
        self.policy.insert(slot)
        if self.sanitizer is not None:
            self.sanitizer.on_bank_insert(self, set_index, way)
        return AccessResult(
            hit=False, way=way, evicted_tag=evicted_tag, evicted_dirty=evicted_dirty
        )

    def install_all(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Pre-warm: install ``(set_index, tag)`` pairs as clean blocks, in order.

        Each pair not already present is a silent :meth:`insert` (no
        sanitizer hook, the victim simply dropped) followed by a hit on
        the new block, so the policy sees ``insert(slot)`` then
        ``touch(slot)`` — a pre-warmed block was, by definition,
        referenced.  A pair whose tag is already in its set changes
        nothing.  Pre-warming makes one call per bank, not one per block.
        """
        tags, dirty_bits, touched = self._tags, self._dirty, self._touched
        num_sets, ways = self.num_sets, self.ways
        policy = self.policy
        victim, insert, touch = policy.victim, policy.insert, policy.touch
        for set_index, tag in pairs:
            if not 0 <= set_index < num_sets:
                raise self._index_error(set_index)
            touched[set_index] = 1
            base = set_index * ways
            row = tags[base:base + ways]
            if tag in row:
                continue
            slot = base + (row.index(None) if None in row else victim(base))
            tags[slot] = tag
            dirty_bits[slot] = 0
            insert(slot)
            touch(slot)

    @property
    def fresh_lru(self) -> bool:
        """Empty, untouched and plain LRU: a bank :meth:`fill_fresh` may fill.

        ``LIPPolicy`` subclasses ``LRUPolicy`` but inserts differently,
        so the type must match exactly.
        """
        return (type(self.policy) is LRUPolicy and self.policy.fresh
                and self._touched.count(0) == self.num_sets
                and self._tags.count(None) == len(self._tags))

    def fill_fresh(self, sets: np.ndarray, slots: np.ndarray,
                   tags: np.ndarray, stamps: np.ndarray, clock: int) -> None:
        """Write the state a run of clean writes leaves in a :attr:`fresh_lru` bank.

        ``sets`` lists every set written; ``slots``, ``tags`` and
        ``stamps`` give each surviving block's slot, tag and LRU stamp,
        and ``clock`` the LRU clock.  Tags are stored as Python ints,
        in the bank's own tag list; dirty bits stay 0.
        """
        np.frombuffer(self._touched, dtype=np.uint8)[sets] = 1
        stored = self._tags
        for slot, tag in zip(slots.tolist(), tags.tolist()):
            stored[slot] = tag
        self.policy.stamp_fresh(slots, stamps, clock)

    def replace_way(self, set_index: int, way: int, tag: Optional[int],
                    dirty: bool = False) -> Tuple[Optional[int], bool]:
        """Overwrite a specific slot (used by DNUCA's migration swaps).

        Returns the (tag, dirty) pair previously in the slot.
        """
        if not (0 <= set_index < self.num_sets and 0 <= way < self.ways):
            raise self._index_error(set_index, way)
        slot = set_index * self.ways + way
        self._touched[set_index] = 1
        old = (self._tags[slot], bool(self._dirty[slot]))
        self._tags[slot] = tag
        self._dirty[slot] = dirty
        if tag is not None:
            self.policy.touch(slot)
        return old

    def set_tag(self, set_index: int, way: int, tag: Optional[int]) -> None:
        """Write one slot's tag and nothing else.

        No duplicate check, no dirty-bit or replacement update: the
        sanitizer's ``double_install`` fault uses it to corrupt a set
        the way a buggy install path would.
        """
        if not (0 <= set_index < self.num_sets and 0 <= way < self.ways):
            raise self._index_error(set_index, way)
        self._tags[set_index * self.ways + way] = tag

    def iter_sets(self):
        """Yield ``(set_index, tags, dirty)`` for every touched set.

        Read-only walk in set order, used by the sanitizer's coherence
        sweeps and by debug tooling; ``tags`` is a list and ``dirty`` a
        ``bytearray`` of 0/1 bits, both copies of the set's slots.
        """
        tags, dirty, ways = self._tags, self._dirty, self.ways
        for index in itertools.compress(range(self.num_sets), self._touched):
            base = index * ways
            yield index, tags[base:base + ways], dirty[base:base + ways]

    # -- statistics ------------------------------------------------------
    @property
    def occupied_blocks(self) -> int:
        return len(self._tags) - self._tags.count(None)

    @property
    def capacity_blocks(self) -> int:
        return self.num_sets * self.ways

    @property
    def touched_sets(self) -> int:
        return self.num_sets - self._touched.count(0)

    def register_metrics(self, scope) -> None:
        """Mount this bank's gauges on a registry scope.

        ``scope`` is a :class:`~repro.obs.registry.ScopedRegistry` (or
        a registry); the owning design picks the prefix, e.g.
        ``l2.bank03``.  Occupancy is a gauge — evaluated only at
        snapshot time — so registration costs nothing per access.
        """
        scope.gauge("occupancy", lambda: self.occupied_blocks)
        scope.gauge("touched_sets", lambda: self.touched_sets)


def fill_fresh_banks(banks: Sequence[CacheBank], bank_of: np.ndarray,
                     sets: np.ndarray, slots: np.ndarray, tags: np.ndarray,
                     survives: np.ndarray, ticks: int) -> None:
    """Write a closed-form pre-warm into :attr:`~CacheBank.fresh_lru` banks.

    Each array has one entry per write, in install order: its bank (an
    index into ``banks``), set, slot, tag, and whether it survives (no
    later write replaces it).  Each write uses its slot for ``ticks``
    LRU ticks, so a survivor's stamp is ``ticks`` times its index in
    its bank's writes, plus one.  The work is done on whole arrays; a
    bank receives slices, so no bank allocates arrays of its own.
    Indices and stamps are int32, and every array the bank loop does not
    read is freed before it starts.
    """
    order = group_order(bank_of)
    writes = np.bincount(bank_of, minlength=len(banks))
    firsts = np.cumsum(writes) - writes
    kept = survives[order]
    stamps = (np.arange(len(order), dtype=np.int32)
              - np.repeat(firsts.astype(np.int32), writes) + 1)[kept]
    stamps *= ticks
    survivors = order[kept]
    del kept, survives
    kept_writes = np.bincount(bank_of[survivors], minlength=len(banks))
    kept_firsts = np.cumsum(kept_writes) - kept_writes
    del bank_of
    sets, slots, tags = sets[order], slots[survivors], tags[survivors]
    del order, survivors
    for bank, first, count, kept_first, kept_count in zip(
            banks, firsts.tolist(), writes.tolist(), kept_firsts.tolist(),
            kept_writes.tolist()):
        if count:
            kept_range = slice(kept_first, kept_first + kept_count)
            bank.fill_fresh(sets[first:first + count], slots[kept_range],
                            tags[kept_range], stamps[kept_range],
                            count * ticks)


def install_interleaved(banks: Sequence[CacheBank], addr_map: AddressMap,
                        addrs: Iterable[int]) -> None:
    """``bulk_install`` of a design whose blocks interleave over ``banks``.

    TLC, the TLCopt groups and SNUCA2 pre-warm this way.  When ``addrs``
    is an array of distinct blocks and every bank it reaches is
    :attr:`~CacheBank.fresh_lru`, the banks are filled in closed form:
    the j-th block into a set takes way ``j mod ways``, because LRU
    always evicts the set's oldest install, so the last ``ways`` blocks
    survive; each install ticks the clock twice (the insert, then the
    touch).  Otherwise (``install()``, repeated blocks, another policy,
    a bank already used, an address beyond int64) each bank runs the
    per-block :meth:`~CacheBank.install_all`.
    """
    decomposed = addr_map.decompose_distinct(addrs)
    if decomposed is not None:
        bank_of, sets, tags = decomposed
        del decomposed
        reached = np.bincount(bank_of, minlength=len(banks)).tolist()
        if all(bank.fresh_lru for bank, count in zip(banks, reached) if count):
            ways = banks[0].ways
            key = bank_of * banks[0].num_sets + sets
            rank = ranks_within(key)
            survives = rank >= np.bincount(key)[key] - ways
            del key
            slots = sets * ways + rank % ways
            del rank
            fill_fresh_banks(banks, bank_of, sets, slots, tags, survives,
                             ticks=2)
            return
    if isinstance(addrs, np.ndarray):
        addrs = addrs.tolist()
    for bank, pairs in zip(banks, addr_map.by_bank(addrs)):
        bank.install_all(pairs)

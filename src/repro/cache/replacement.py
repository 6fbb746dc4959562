"""Replacement policies for set-associative cache banks.

The paper's TLC designs use LRU (Table 3), while DNUCA's generational
promotion acts like a frequency policy — the comparison between the two
is the root cause of the equake anomaly discussed in Section 6.1.  The
replacement ablation gives TLC LIP, the set-associative analogue of
DNUCA's insert-at-the-tail policy, so banks take one of two policies:
``lru`` and ``lip``.

A policy instance holds the replacement state of *every* set of one
bank, in flat per-slot arrays: the slot of (set, way) is
``set_index * ways + way``, the layout :class:`~repro.cache.bank.CacheBank`
uses for its tags.  ``touch`` and ``insert`` take a slot; ``victim``
takes the set's first slot and returns a way.  With the default
``num_sets=1`` a policy manages a single set, whose slots are its ways.
"""

from __future__ import annotations

from array import array

import numpy as np


def _check_geometry(ways: int, num_sets: int) -> None:
    if ways <= 0 or num_sets <= 0:
        raise ValueError("ways and num_sets must be positive")


class LRUPolicy:
    """Least-recently-used over each set's ``ways`` slots.

    Every slot carries a recency stamp: a touch stamps the slot with the
    next tick of a per-bank clock, and the victim is the way with the
    smallest stamp.  Never-touched slots all read 0, so among them the
    lowest way goes first — the order of a per-set MRU-last list that
    starts as ``[0, 1, ..., ways - 1]``.
    """

    def __init__(self, ways: int, num_sets: int = 1) -> None:
        _check_geometry(ways, num_sets)
        self.ways = ways
        self._stamps = array("q", bytes(8 * ways * num_sets))
        self._clock = 0

    def touch(self, slot: int) -> None:
        self._clock += 1
        self._stamps[slot] = self._clock

    def victim(self, base: int = 0) -> int:
        row = self._stamps[base:base + self.ways]
        return row.index(min(row))

    #: an insert is a use
    insert = touch

    @property
    def fresh(self) -> bool:
        """Whether the clock has never ticked (so every stamp is 0)."""
        return self._clock == 0

    def stamp_fresh(self, slots: np.ndarray, stamps: np.ndarray,
                    clock: int) -> None:
        """Set the stamps and clock a run of uses leaves on a :attr:`fresh` policy.

        ``slots[i]`` was last used at tick ``stamps[i]``, every other
        slot keeps stamp 0, and the clock reads ``clock``.
        """
        np.frombuffer(self._stamps, dtype=np.int64)[slots] = stamps
        self._clock = int(clock)


class LIPPolicy(LRUPolicy):
    """LRU with LRU-position insertion (LIP).

    New blocks enter at the *LRU* end and are only promoted to MRU when
    re-referenced — so a stream of single-use blocks evicts itself while
    the reused set stays protected.  This is the set-associative
    equivalent of DNUCA's insert-at-the-tail-bank policy, and the policy
    the replacement ablation gives TLC to close the equake gap.

    An insert stamps the slot below every stamp given so far, so the
    latest insert is the next victim, as at the head of an MRU-last list.
    """

    def __init__(self, ways: int, num_sets: int = 1) -> None:
        super().__init__(ways, num_sets)
        self._floor = 0

    def insert(self, slot: int) -> None:
        self._floor -= 1
        self._stamps[slot] = self._floor


_POLICIES = {
    "lru": LRUPolicy,
    "lip": LIPPolicy,
}


def make_policy(name: str, ways: int, num_sets: int = 1):
    """Construct policy ``name`` (``lru`` or ``lip``)."""
    try:
        policy = _POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; choose from {sorted(_POLICIES)}"
        ) from None
    return policy(ways, num_sets)

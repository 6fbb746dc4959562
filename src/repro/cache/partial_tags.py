"""Partial-tag structures (Kessler et al. [21], as used by DNUCA and TLCopt).

A partial tag stores only the six least-significant tag bits.  Matching
the partial tag is necessary but not sufficient for a hit; the structures
here therefore answer "which candidates *might* hold this block".

Two users in the paper:

* DNUCA keeps a *central* partial-tag array covering every bank of a
  bank set, consulted in parallel with the closest two banks to direct
  (or skip — a "fast miss") the search of the remaining banks.
* The TLCopt designs store a per-bank partial tag next to each data
  entry so the bank can respond without holding full tags; the central
  controller completes the comparison.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

PARTIAL_TAG_BITS = 6
PARTIAL_TAG_MASK = (1 << PARTIAL_TAG_BITS) - 1

#: The byte an empty slot holds: no six-bit partial tag can equal it.
_EMPTY = 0xFF


def partial_tag(tag: int) -> int:
    """The low six bits of a full tag."""
    return tag & PARTIAL_TAG_MASK


class PartialTagArray:
    """A (position, set, way) -> partial-tag map mirroring a group of banks.

    ``positions`` is the number of banks covered (16 for a DNUCA bank
    set) and ``ways`` the associativity of each covered bank.  Entries
    are kept consistent by the owning cache model calling
    :meth:`update` / :meth:`swap` whenever it moves blocks — the
    paper's "significant complexity" of keeping partial tags coherent
    during migration is exactly this bookkeeping.  Since
    the array mirrors the banks, a block can only sit at a position
    whose partial tag matches it: DNUCA finds a far block by probing
    only the positions :meth:`matches` names.

    The entries are one byte per slot, set-major: the slots of one set,
    over every position and way, are contiguous, so a search of a set
    is a scan of one short row.
    """

    def __init__(self, positions: int, num_sets: int, ways: int = 1) -> None:
        if positions <= 0 or num_sets <= 0 or ways <= 0:
            raise ValueError("positions, num_sets, and ways must be positive")
        self.positions = positions
        self.num_sets = num_sets
        self.ways = ways
        self._row = positions * ways
        self._slots = bytearray([_EMPTY]) * (num_sets * self._row)

    def _start(self, set_index: int) -> int:
        """The first slot of ``set_index``'s row, after a range check."""
        if 0 <= set_index < self.num_sets:
            return set_index * self._row
        raise IndexError(f"set index {set_index} out of range")

    def _slot(self, position: int, set_index: int, way: int) -> int:
        """The slot of (position, set, way), after a range check of all three."""
        if (0 <= position < self.positions and 0 <= set_index < self.num_sets
                and 0 <= way < self.ways):
            return (set_index * self.positions + position) * self.ways + way
        if not 0 <= position < self.positions:
            raise IndexError(f"position {position} out of range")
        if not 0 <= way < self.ways:
            raise IndexError(f"way {way} out of range")
        raise IndexError(f"set index {set_index} out of range")

    def update(self, position: int, set_index: int, way: int, tag: int) -> None:
        """Record that (position, set, way) now holds ``tag``."""
        self._slots[self._slot(position, set_index, way)] = partial_tag(tag)

    def swap(self, set_index: int, way: int, position: int,
             other: int) -> None:
        """Exchange the entries of (position, set, way) and (other, set, way).

        DNUCA's promotion swaps two banks' blocks in one way; since the
        array mirrors the banks, swapping their two bytes records both
        moves.
        """
        if not 0 <= other < self.positions:
            raise IndexError(f"position {other} out of range")
        slot = self._slot(position, set_index, way)
        partner = slot + (other - position) * self.ways
        slots = self._slots
        slots[slot], slots[partner] = slots[partner], slots[slot]

    def stored(self, position: int, set_index: int, way: int) -> Optional[int]:
        """The partial tag recorded for (position, set, way), or None.

        Empty slots read as None; used by the sanitizer's bank/partial-tag
        coherence sweep.
        """
        value = self._slots[self._slot(position, set_index, way)]
        return None if value == _EMPTY else value

    def matches(self, set_index: int, tag: int) -> List[int]:
        """Positions whose partial tags match ``tag`` in ``set_index``.

        The result is sorted by position so searches proceed
        nearest-first; a caller that has already searched some positions
        (DNUCA's closest two banks) skips them itself.
        """
        start = self._start(set_index)
        end = start + self._row
        ways, slots = self.ways, self._slots
        wanted = partial_tag(tag)
        found = []
        hit = slots.find(wanted, start, end)
        while hit >= 0:
            position = (hit - start) // ways
            found.append(position)
            hit = slots.find(wanted, start + (position + 1) * ways, end)
        return found

    def first_empty(self, set_index: int) -> Optional[Tuple[int, int]]:
        """The nearest empty ``(position, way)`` of ``set_index``, or None.

        Slots are scanned position by position, ways in order within a
        position; the array mirrors the banks, so this is the nearest
        bank slot holding no block.
        """
        start = self._start(set_index)
        hit = self._slots.find(_EMPTY, start, start + self._row)
        return None if hit < 0 else divmod(hit - start, self.ways)

    @property
    def empty(self) -> bool:
        """Whether no slot holds a partial tag."""
        return self._slots.count(_EMPTY) == len(self._slots)

    def fill_fresh(self, slots: np.ndarray, tags: np.ndarray) -> None:
        """Record ``tags`` at flat ``slots`` of an :attr:`empty` array.

        A slot is ``set_index * positions * ways + position * ways +
        way``, the set-major layout of the array.
        """
        np.frombuffer(self._slots, dtype=np.uint8)[slots] = (
            tags & PARTIAL_TAG_MASK)

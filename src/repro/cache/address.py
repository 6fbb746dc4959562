"""Address arithmetic: block/set/tag decomposition and bank interleaving.

All caches in the library operate on byte addresses.  The paper's block
size is 64 bytes throughout (Table 3), but every decomposition here takes
the block size as a parameter so other design points can be modelled.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, List, Optional, Tuple

import numpy as np

_INT64_MAX = np.iinfo(np.int64).max


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def block_address(addr: int, block_bytes: int = 64) -> int:
    """The block-aligned address containing byte ``addr``."""
    return addr & ~(block_bytes - 1)


@dataclasses.dataclass(frozen=True)
class AddressMap:
    """Decomposes byte addresses for a set-associative structure.

    The layout (low to high bits) is ``offset | set index | tag``; bank
    interleaving, when used, consumes the low bits of the set index so
    that consecutive blocks map to different banks (the static NUCA /
    TLC mapping).

    The derived shift/mask fields are computed once at construction —
    the decomposition runs on every simulated access, so the bit-length
    arithmetic must not be repeated per call.
    """

    block_bytes: int
    num_sets: int
    banks: int = 1

    def __post_init__(self) -> None:
        for name in ("block_bytes", "num_sets", "banks"):
            value = getattr(self, name)
            if not _is_power_of_two(value):
                raise ValueError(f"{name} must be a power of two, got {value}")
        # Frozen dataclass: the cached fields go in through the back door
        # exactly once.  They are derived, not identity, so equality and
        # asdict() still see only the three declared fields.
        object.__setattr__(self, "_offset_bits",
                           self.block_bytes.bit_length() - 1)
        object.__setattr__(self, "_set_bits", self.num_sets.bit_length() - 1)
        object.__setattr__(self, "_bank_bits", self.banks.bit_length() - 1)
        object.__setattr__(self, "_set_mask", self.num_sets - 1)
        object.__setattr__(self, "_bank_mask", self.banks - 1)
        object.__setattr__(self, "_tag_shift",
                           self._bank_bits + self._set_bits)

    @property
    def offset_bits(self) -> int:
        return self._offset_bits

    @property
    def set_bits(self) -> int:
        return self._set_bits

    @property
    def bank_bits(self) -> int:
        return self._bank_bits

    def block(self, addr: int) -> int:
        """Block number (address with the offset stripped)."""
        return addr >> self._offset_bits

    def set_index(self, addr: int) -> int:
        """Set index within one bank (bank bits excluded)."""
        return (addr >> self._offset_bits >> self._bank_bits) & self._set_mask

    def bank_index(self, addr: int) -> int:
        """Which bank this block interleaves to."""
        return (addr >> self._offset_bits) & self._bank_mask

    def tag(self, addr: int) -> int:
        """Tag bits: everything above bank + set index."""
        return addr >> self._offset_bits >> self._tag_shift

    def decompose(self, addr: int) -> "tuple[int, int, int]":
        """``(bank_index, set_index, tag)`` in one call.

        The access paths decompose every address exactly this way; doing
        it in one method shifts the block number once instead of three
        times.
        """
        block = addr >> self._offset_bits
        return (block & self._bank_mask,
                (block >> self._bank_bits) & self._set_mask,
                block >> self._tag_shift)

    def by_bank(self, addrs: Iterable[int]) -> List[List[Tuple[int, int]]]:
        """``(set_index, tag)`` of every address, bucketed by bank.

        Each bank's list keeps the order of ``addrs``.  Pre-warming
        decomposes a whole resident population this way, one call per
        design instead of one :meth:`decompose` per block.
        """
        offset_bits, bank_bits = self._offset_bits, self._bank_bits
        bank_mask, set_mask = self._bank_mask, self._set_mask
        tag_shift = self._tag_shift
        buckets: List[List[Tuple[int, int]]] = [[] for _ in range(self.banks)]
        appends = [bucket.append for bucket in buckets]
        for addr in addrs:
            block = addr >> offset_bits
            appends[block & bank_mask](
                ((block >> bank_bits) & set_mask, block >> tag_shift))
        return buckets

    def decompose_distinct(
            self, addrs: object) -> Optional[Tuple[np.ndarray, np.ndarray,
                                                   np.ndarray]]:
        """:meth:`decompose` of an array of distinct blocks, as arrays.

        Returns the ``(bank indices, set indices, tags)`` of ``addrs`` as
        arrays in the order of ``addrs``: int32 indices, int64 tags.
        ``addrs`` must be a one-dimensional integer ``ndarray`` whose
        values fit int64 and which names no block twice; for anything
        else the result is None.  Repeats are found with one sort of the
        block numbers.
        """
        if (not isinstance(addrs, np.ndarray) or addrs.ndim != 1
                or addrs.dtype.kind not in "iu"):
            return None
        if addrs.dtype.kind == "u" and addrs.size and addrs.max() > _INT64_MAX:
            return None
        blocks = addrs.astype(np.int64, copy=False) >> self._offset_bits
        ordered = np.sort(blocks)
        if (ordered[1:] == ordered[:-1]).any():
            return None
        del ordered
        return ((blocks & self._bank_mask).astype(np.int32),
                ((blocks >> self._bank_bits) & self._set_mask).astype(np.int32),
                blocks >> self._tag_shift)

    def rebuild(self, tag: int, set_index: int, bank_index: int = 0) -> int:
        """Inverse of the decomposition: a canonical byte address."""
        block = (tag << (self._bank_bits + self._set_bits)) | (set_index << self._bank_bits) | bank_index
        return block << self._offset_bits


def group_order(keys: np.ndarray) -> np.ndarray:
    """A stable argsort of non-negative integer ``keys``, as int32
    indices: equal keys end up adjacent, in their original order.

    The keys are narrowed first: bank, set and slot indices fit 16 bits,
    and NumPy sorts 16-bit keys with a radix sort, about ten times
    faster than a 64-bit sort.
    """
    narrow = np.min_scalar_type(int(keys.max(initial=0)))
    return np.argsort(keys.astype(narrow, copy=False),
                      kind="stable").astype(np.int32)


def ranks_within(keys: np.ndarray) -> np.ndarray:
    """For each of the non-negative ``keys``, how many earlier elements
    equal it, as int32.

    The j-th block to arrive in a set has rank j: this is the arrival
    order a per-block install loop sees, computed with one stable sort.
    """
    order = group_order(keys)
    grouped = keys[order]
    starts = np.ones(len(keys), dtype=bool)
    np.not_equal(grouped[1:], grouped[:-1], out=starts[1:])
    del grouped
    index = np.arange(len(keys), dtype=np.int32)
    ranks = np.empty(len(keys), dtype=np.int32)
    ranks[order] = index - np.maximum.accumulate(np.where(starts, index, 0))
    return ranks

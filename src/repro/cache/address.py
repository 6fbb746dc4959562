"""Address arithmetic: block/set/tag decomposition and bank interleaving.

All caches in the library operate on byte addresses.  The paper's block
size is 64 bytes throughout (Table 3), but every decomposition here takes
the block size as a parameter so other design points can be modelled.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, List, Tuple


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

    def rebuild(self, tag: int, set_index: int, bank_index: int = 0) -> int:
        """Inverse of the decomposition: a canonical byte address."""
        block = (tag << (self._bank_bits + self._set_bits)) | (set_index << self._bank_bits) | bank_index
        return block << self._offset_bits

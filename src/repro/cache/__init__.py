"""Generic cache substrate: addresses, replacement, banks, partial tags."""

from repro.cache.address import AddressMap, block_address
from repro.cache.replacement import (
    LRUPolicy,
    LIPPolicy,
    make_policy,
)
from repro.cache.bank import CacheBank, AccessResult
from repro.cache.partial_tags import PartialTagArray, partial_tag

__all__ = [
    "AddressMap",
    "block_address",
    "LRUPolicy",
    "LIPPolicy",
    "make_policy",
    "CacheBank",
    "AccessResult",
    "PartialTagArray",
    "partial_tag",
]

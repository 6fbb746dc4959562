"""On-chip interconnect substrate: message sizing and the NUCA mesh."""

from repro.interconnect.message import (
    flits_for_bits,
    REQUEST_BITS,
    BLOCK_BITS,
    BLOCK_BYTES,
)
from repro.interconnect.mesh import MeshNetwork

__all__ = [
    "flits_for_bits",
    "REQUEST_BITS",
    "BLOCK_BITS",
    "BLOCK_BYTES",
    "MeshNetwork",
]

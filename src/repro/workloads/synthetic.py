"""Synthetic L2 reference-stream generators.

A :class:`TraceSpec` mixes three canonical access behaviours, which
together span the paper's twelve benchmarks:

* **hot set** — a fixed population of blocks re-referenced with a
  power-law (zipf-like) popularity skew: the temporal locality that
  DNUCA's promotion exploits and that determines close-hit rates.
* **stream** — a sequential walk over a footprint far larger than the
  cache: every reference is a compulsory miss (SPECfp's swim / applu /
  lucas and the streaming half of equake).
* **cold** — uniform references over a huge region, modelling the
  low-locality tail of the commercial workloads.

The mixture probabilities, populations, skew, write fraction,
dependence fraction, and mean instruction gap are the calibration
surface matched against Table 6 (see
:mod:`repro.workloads.profiles`).  Generation is vectorized with numpy
and fully determined by (spec, seed).
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from typing import List

import numpy as np
# numpy loads np.random on first use; load it now so forked cell
# processes inherit it instead of each importing it again.
import numpy.random  # noqa: F401

from repro.workloads.trace import Reference

BLOCK_BYTES = 64


@dataclasses.dataclass(frozen=True)
class TraceSpec:
    """Parameters of a synthetic L2 reference stream."""

    #: mean instructions between successive L2 references.
    mean_gap: float
    #: mixture probabilities (must sum to <= 1; remainder goes to hot).
    stream_fraction: float = 0.0
    cold_fraction: float = 0.0
    #: hot-set population in 64-byte blocks.
    hot_blocks: int = 1024
    #: popularity skew: rank = floor(N * u**skew); 1.0 = uniform, larger
    #: values concentrate references on low ranks.
    hot_skew: float = 2.0
    #: streaming footprint in blocks (wraps around).
    stream_blocks: int = 1 << 22
    #: cold region size in blocks.
    cold_blocks: int = 1 << 22
    #: number of interleaved streams (arrays swept together): swim-like
    #: kernels touch many arrays per loop iteration.
    stream_interleave: int = 1
    write_fraction: float = 0.3
    #: fraction of reads whose address depends on the previous load.
    dependent_fraction: float = 0.2
    #: scatter block numbers through a bijective mixer (heap-like layouts:
    #: realistic tag entropy and Poisson set occupancy).  Disable for
    #: workloads whose footprint is a few large contiguous arrays (mcf),
    #: where the even fill keeps conflict misses near zero.
    scatter: bool = True

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mean_gap) and self.mean_gap >= 1.0):
            raise ValueError("mean_gap must be a finite number of at least "
                             "1 instruction")
        for name in ("stream_fraction", "cold_fraction", "write_fraction",
                     "dependent_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be a probability")
        if self.stream_fraction + self.cold_fraction > 1.0:
            raise ValueError("mixture fractions must sum to at most 1")
        if not (math.isfinite(self.hot_skew) and self.hot_skew >= 1.0):
            raise ValueError("hot_skew must be a finite number of at least 1 "
                             "(1.0 is uniform)")
        for name in ("hot_blocks", "stream_blocks", "cold_blocks",
                     "stream_interleave"):
            value = getattr(self, name)
            # A fractional count makes the trace and its pre-warm
            # disagree on the region's blocks; a bool is not a count.
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, not {value!r}")
            if value <= 0:
                raise ValueError(f"{name} must be positive")
        if self.stream_interleave > self.stream_blocks:
            raise ValueError("stream_interleave cannot exceed stream_blocks")
        # Each region must end before the next one's base block, and the
        # last inside the range its address mapping is one-to-one on:
        # the scatter permutes 40-bit block numbers, and unscattered
        # byte addresses are int64.
        limit = (1 << _SCATTER_BITS if self.scatter
                 else (1 << 63) // BLOCK_BYTES)
        for name, base, end in (
                ("hot_blocks", _HOT_BASE_BLOCK, _STREAM_BASE_BLOCK),
                ("stream_blocks", _STREAM_BASE_BLOCK, _COLD_BASE_BLOCK),
                ("cold_blocks", _COLD_BASE_BLOCK, limit)):
            if base + getattr(self, name) > end:
                raise ValueError(f"{name} must be at most {end - base}")


# Disjoint base addresses for the three regions, far apart so the
# mixtures never alias in the cache.
_HOT_BASE_BLOCK = 0
_STREAM_BASE_BLOCK = 1 << 26
_COLD_BASE_BLOCK = 1 << 27

# Bijective block-number scatter.  Synthetic regions are contiguous, which
# would give whole windows of references identical tag bits (and therefore
# degenerate all-or-nothing partial-tag behaviour); real programs touch
# data scattered across pages.  The mixer below is a permutation of the
# 40-bit block space (odd multiplications mod 2**40 and xor-shift-rights
# are each bijective), so popularity structure and region disjointness
# survive while set indices and tags become realistically uniform.
_SCATTER_BITS = 40  # 2**40 blocks = 64 TB of block address space
_SCATTER_MASK = (1 << _SCATTER_BITS) - 1
_SCATTER_MULT_1 = 0x9E3779B97F4A7C15 & _SCATTER_MASK | 1  # odd
_SCATTER_MULT_2 = 0xBF58476D1CE4E5B9 & _SCATTER_MASK | 1  # odd
_SCATTER_SHIFT = 21


def scatter_block(block: int) -> int:
    """Map a logical block number to its scattered physical block number."""
    x = (block * _SCATTER_MULT_1) & _SCATTER_MASK
    x ^= x >> _SCATTER_SHIFT
    x = (x * _SCATTER_MULT_2) & _SCATTER_MASK
    x ^= x >> _SCATTER_SHIFT
    return x


def _scatter_array(blocks: "np.ndarray") -> "np.ndarray":
    mask = np.uint64(_SCATTER_MASK)
    shift = np.uint64(_SCATTER_SHIFT)
    x = blocks.astype(np.uint64)
    x = (x * np.uint64(_SCATTER_MULT_1)) & mask
    x ^= x >> shift
    x = (x * np.uint64(_SCATTER_MULT_2)) & mask
    x ^= x >> shift
    return x


#: Capacity of the paper's 16 MB L2 in 64-byte blocks — the amount of
#: streaming residue a long-running stream leaves behind in the cache.
L2_CAPACITY_BLOCKS = 262_144


def resident_block_addresses(spec: TraceSpec) -> np.ndarray:
    """Byte addresses a long warm-up would leave resident, install-ordered.

    Two populations, least-deserving-of-retention first:

    * **streaming residue** — the last cache-capacity's worth of stream
      blocks that preceded the trace's starting position (streams start
      at block 0, so the residue is the tail of the stream region).  A
      real multi-billion-instruction warm-up leaves the cache full of
      this once-touched data.
    * **hot set** — ordered least-popular-first so that installing in
      order leaves the popular blocks most-recently-used.

    The result is an int64 array.  No block appears twice: the regions
    are disjoint and the scatter is a bijection.  DNUCA installs with
    the order reversed (popular first, nearest the controller; residue
    deepest) — see ``L2Design.install_order``.
    """
    regions = []
    if spec.stream_fraction > 0.0:
        residue = min(spec.stream_blocks, L2_CAPACITY_BLOCKS)
        lanes = spec.stream_interleave
        lane_size = spec.stream_blocks // lanes
        per_lane = min(lane_size, residue // lanes)
        # Oldest first, interleaved across lanes like the sweep itself.
        i = np.arange(per_lane * lanes, dtype=np.int64)
        position = (lane_size - per_lane + i // lanes) % lane_size
        regions.append(_STREAM_BASE_BLOCK + (i % lanes) * lane_size + position)
    regions.append(_HOT_BASE_BLOCK
                   + np.arange(spec.hot_blocks - 1, -1, -1, dtype=np.int64))
    blocks = np.concatenate(regions)
    if spec.scatter:
        blocks = _scatter_array(blocks).astype(np.int64)
    return blocks * BLOCK_BYTES


def generate_trace(spec: TraceSpec, n_refs: int, seed: int = 0) -> List[Reference]:
    """Generate ``n_refs`` references for ``spec``, deterministically."""
    if n_refs <= 0:
        raise ValueError("n_refs must be positive")
    rng = np.random.default_rng(seed)

    source = rng.random(n_refs)
    is_stream = source < spec.stream_fraction
    is_cold = (~is_stream) & (source < spec.stream_fraction + spec.cold_fraction)
    is_hot = ~(is_stream | is_cold)

    blocks = np.empty(n_refs, dtype=np.int64)

    n_hot = int(is_hot.sum())
    if n_hot:
        ranks = np.floor(
            spec.hot_blocks * rng.random(n_hot) ** spec.hot_skew
        ).astype(np.int64)
        blocks[is_hot] = _HOT_BASE_BLOCK + ranks

    n_stream = int(is_stream.sum())
    if n_stream:
        # K interleaved lanes (arrays), each swept sequentially from its
        # start so the pre-warm residue (each lane's tail) is exactly
        # what a long-running sweep left behind.
        blocks[is_stream] = _STREAM_BASE_BLOCK + _stream_walk(spec, n_stream)

    n_cold = int(is_cold.sum())
    if n_cold:
        blocks[is_cold] = _COLD_BASE_BLOCK + rng.integers(
            0, spec.cold_blocks, size=n_cold, dtype=np.int64)

    gaps = rng.geometric(min(1.0, 1.0 / spec.mean_gap), size=n_refs)
    writes = rng.random(n_refs) < spec.write_fraction
    dependents = (~writes) & (rng.random(n_refs) < spec.dependent_fraction)

    if spec.scatter:
        addrs = _scatter_array(blocks) * BLOCK_BYTES
    else:
        addrs = blocks * BLOCK_BYTES
    # .tolist() converts each element to a native int/bool in one C pass,
    # far faster than per-element int()/bool() calls and value-identical.
    return [
        Reference(g, a, w, d)
        for g, a, w, d in zip(gaps.tolist(), addrs.tolist(),
                              writes.tolist(), dependents.tolist())
    ]


def _stream_walk(spec: TraceSpec, n_stream: int) -> "np.ndarray":
    """Logical stream offsets for ``n_stream`` references."""
    lanes = spec.stream_interleave
    lane_size = spec.stream_blocks // lanes
    idx = np.arange(n_stream, dtype=np.int64)
    lane = idx % lanes
    position = (idx // lanes) % lane_size
    return lane * lane_size + position

"""Trace analysis: footprint, reuse distance, and miss-rate prediction.

These tools answer "does this synthetic trace have the memory behaviour
I claimed?" — the question behind the Table 6 calibration.  They are
design-independent: everything is computed from the reference stream
itself.

* :func:`footprint` — unique blocks touched (bytes of data the trace
  covers).
* :func:`reuse_distance_histogram` — LRU stack distances, the canonical
  locality characterization.
* :func:`predict_miss_ratio` — the stack-distance prediction of a
  fully-associative LRU cache's miss ratio at any capacity, from one
  pass over the trace.  For set-associative caches this is a lower
  bound (conflict misses add on top), so measured design miss ratios
  should straddle it.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional

from repro.workloads.trace import Reference

BLOCK_BYTES = 64


def footprint(trace: Iterable[Reference]) -> int:
    """Bytes of distinct data the trace touches."""
    return len({ref.addr // BLOCK_BYTES for ref in trace}) * BLOCK_BYTES


class _StackDistance:
    """LRU stack-distance computation via a balanced-order index.

    Keeps blocks in recency order in a list with a lazy index map; for
    the trace sizes this library uses (<= a few million references) the
    simple O(n * d) list implementation is fast enough and dependency
    free, while staying exact.
    """

    def __init__(self) -> None:
        self._stack: List[int] = []  # most recent last
        self._position: Dict[int, int] = {}

    def access(self, block: int) -> Optional[int]:
        """Returns the reuse distance, or None for a first touch."""
        position = self._position.get(block)
        if position is None:
            distance = None
        else:
            distance = len(self._stack) - 1 - position
            self._stack.pop(position)
            for moved in self._stack[position:]:
                self._position[moved] -= 1
        self._stack.append(block)
        self._position[block] = len(self._stack) - 1
        return distance


def reuse_distance_histogram(trace: Iterable[Reference],
                             max_tracked: int = 1 << 22) -> Dict[Optional[int], int]:
    """LRU stack-distance histogram of the trace.

    Keys are distances in blocks (0 = immediate re-reference); the
    ``None`` key counts cold (first-touch) references.  ``max_tracked``
    bounds the stack to keep worst-case cost sane; distances beyond it
    are folded into ``None`` (they miss at any practical capacity).
    """
    stack = _StackDistance()
    histogram: Dict[Optional[int], int] = {}
    for ref in trace:
        block = ref.addr // BLOCK_BYTES
        distance = stack.access(block)
        if distance is not None and distance >= max_tracked:
            distance = None
        histogram[distance] = histogram.get(distance, 0) + 1
    return histogram


def predict_miss_ratio(trace: List[Reference], capacity_bytes: int) -> float:
    """Fully-associative LRU miss-ratio prediction at ``capacity_bytes``.

    A reference misses iff its reuse distance is at least the capacity in
    blocks (or it is a cold first touch).
    """
    if not trace:
        return 0.0
    capacity_blocks = max(1, capacity_bytes // BLOCK_BYTES)
    histogram = reuse_distance_histogram(trace)
    misses = histogram.get(None, 0)
    misses += sum(count for distance, count in histogram.items()
                  if distance is not None and distance >= capacity_blocks)
    return misses / len(trace)


@dataclasses.dataclass(frozen=True)
class TraceSummary:
    """One-look characterization of a reference trace."""

    references: int
    instructions: int
    footprint_bytes: int
    write_fraction: float
    dependent_fraction: float
    l2_refs_per_kinstr: float
    predicted_miss_ratio_16mb: float


def summarize(trace: List[Reference],
              cache_bytes: int = 16 * 2**20) -> TraceSummary:
    """Compute the :class:`TraceSummary` of a trace in one pass."""
    if not trace:
        raise ValueError("cannot summarize an empty trace")
    instructions = sum(ref.gap for ref in trace)
    writes = sum(1 for ref in trace if ref.write)
    dependents = sum(1 for ref in trace if ref.dependent)
    return TraceSummary(
        references=len(trace),
        instructions=instructions,
        footprint_bytes=footprint(trace),
        write_fraction=writes / len(trace),
        dependent_fraction=dependents / len(trace),
        l2_refs_per_kinstr=(1000.0 * len(trace) / instructions
                            if instructions else 0.0),
        predicted_miss_ratio_16mb=predict_miss_ratio(trace, cache_bytes),
    )


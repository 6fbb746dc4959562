"""Statistics primitives shared by all timing models.

Three small classes cover everything the paper reports:

* :class:`Counter` — named event counts (hits, misses, promotions, ...).
* :class:`Histogram` — integer-valued latency distributions, from which
  mean lookup latency (Fig. 6) and predictability (Table 6) are derived.
* :class:`UtilizationMeter` — busy-cycle accounting for links
  (Fig. 7's link utilization).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Iterator, Tuple


class Counter:
    """A bag of named integer counters.

    ``counts`` is the live ``defaultdict(int)`` itself: the L2 access
    path increments it in place (``counts["hits"] += 1``) instead of
    calling :meth:`add`, and every reader sees the same mapping.
    """

    def __init__(self) -> None:
        self.counts: Dict[str, int] = defaultdict(int)

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def clear(self) -> None:
        """Zero every count in place (the object identity is preserved,
        so registries holding this counter keep seeing the live values)."""
        self.counts.clear()

    def __getitem__(self, name: str) -> int:
        return self.counts.get(name, 0)

    def __contains__(self, name: str) -> bool:
        return name in self.counts

    def __iter__(self) -> Iterator[Tuple[str, int]]:
        return iter(sorted(self.counts.items()))

    def as_dict(self) -> Dict[str, int]:
        return dict(self.counts)

    def ratio(self, numerator: str, denominator: str) -> float:
        """``counts[numerator] / counts[denominator]`` (0.0 if empty)."""
        denom = self.counts.get(denominator, 0)
        if denom == 0:
            return 0.0
        return self.counts.get(numerator, 0) / denom


class Histogram:
    """A sparse histogram over integer values (e.g. latencies in cycles).

    ``bins`` maps each value to its total weight and is the only state:
    the L2 access path increments it in place (``bins[latency] += 1``)
    instead of calling :meth:`record`, so :attr:`count` and :attr:`mean`
    are sums over the bins, taken when read.
    """

    def __init__(self) -> None:
        self.bins: Dict[int, int] = defaultdict(int)

    def record(self, value: int, weight: int = 1) -> None:
        self.bins[value] += weight

    def clear(self) -> None:
        """Drop every sample in place (identity-preserving, like
        :meth:`Counter.clear`)."""
        self.bins.clear()

    @property
    def count(self) -> int:
        return sum(self.bins.values())

    @property
    def mean(self) -> float:
        count = self.count
        if count == 0:
            return 0.0
        return sum(value * weight for value, weight in self.bins.items()) / count

    @property
    def min(self) -> int:
        if not self.bins:
            raise ValueError("empty histogram has no min")
        return min(self.bins)

    @property
    def max(self) -> int:
        if not self.bins:
            raise ValueError("empty histogram has no max")
        return max(self.bins)

    def percentile(self, p: float) -> int:
        """The smallest value v with at least fraction ``p`` of mass ``<= v``.

        Convention for the boundary: ``percentile(0.0)`` is *defined* as
        the minimum recorded value.  Taken literally, zero mass is
        "<=" any value, so the general rule above would be satisfied by
        arbitrarily small v; we pin p=0 to ``self.min`` (the limit of
        ``percentile(p)`` as p -> 0+), matching the inclusive
        lower-bound convention of numpy's ``percentile(..., 0)``.
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError("percentile must be in [0, 1]")
        count = self.count
        if count == 0:
            raise ValueError("empty histogram has no percentiles")
        if p == 0.0:
            return self.min
        threshold = p * count
        running = 0
        for value in sorted(self.bins):
            running += self.bins[value]
            if running >= threshold:
                return value
        return max(self.bins)

    def items(self) -> Iterable[Tuple[int, int]]:
        return sorted(self.bins.items())


class UtilizationMeter:
    """Tracks busy cycles of a set of identical resources (links).

    ``busy(n)`` is called once per transfer with the number of cycles the
    transfer occupied one resource.  Utilization is then
    ``total busy cycles / (elapsed cycles * resource count)`` — exactly
    the paper's "percentage of cycles where the transmission lines
    actually communicate data".

    The quotient can exceed 1.0 when the accounting window does not
    cover every charged transfer — e.g. non-contending fill/writeback
    traffic scheduled past the measured interval, or an
    ``elapsed_cycles`` taken after a warmup reset that preserved busy
    state.  A utilization above 1.0 is physically impossible, so
    :meth:`utilization` clamps to 1.0 and latches :attr:`saturated`
    instead of silently reporting it; :meth:`raw_utilization` returns
    the unclamped quotient for diagnostics.
    """

    def __init__(self, resources: int) -> None:
        if resources <= 0:
            raise ValueError("need at least one resource")
        self.resources = resources
        self.busy_cycles = 0
        #: latched True the first time a clamp was needed (cleared by reset()).
        self.saturated = False

    def busy(self, cycles: int) -> None:
        if cycles < 0:
            raise ValueError("busy cycles must be non-negative")
        self.busy_cycles += cycles

    def raw_utilization(self, elapsed_cycles: int) -> float:
        """The unclamped busy/capacity quotient (may exceed 1.0)."""
        if elapsed_cycles <= 0:
            return 0.0
        return self.busy_cycles / (elapsed_cycles * self.resources)

    def utilization(self, elapsed_cycles: int) -> float:
        raw = self.raw_utilization(elapsed_cycles)
        if raw > 1.0:
            self.saturated = True
            return 1.0
        return raw

    def reset(self) -> None:
        """Zero the busy accounting in place (identity-preserving)."""
        self.busy_cycles = 0
        self.saturated = False

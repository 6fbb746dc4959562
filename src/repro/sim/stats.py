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
    """A bag of named integer counters."""

    def __init__(self) -> None:
        self._counts: Dict[str, int] = defaultdict(int)

    def add(self, name: str, amount: int = 1) -> None:
        self._counts[name] += amount

    def clear(self) -> None:
        """Zero every count in place (the object identity is preserved,
        so registries holding this counter keep seeing the live values)."""
        self._counts.clear()

    def __getitem__(self, name: str) -> int:
        return self._counts.get(name, 0)

    def __contains__(self, name: str) -> bool:
        return name in self._counts

    def __iter__(self) -> Iterator[Tuple[str, int]]:
        return iter(sorted(self._counts.items()))

    def as_dict(self) -> Dict[str, int]:
        return dict(self._counts)

    def ratio(self, numerator: str, denominator: str) -> float:
        """``counts[numerator] / counts[denominator]`` (0.0 if empty)."""
        denom = self._counts.get(denominator, 0)
        if denom == 0:
            return 0.0
        return self._counts.get(numerator, 0) / denom


class Histogram:
    """A sparse histogram over integer values (e.g. latencies in cycles)."""

    def __init__(self) -> None:
        self._bins: Dict[int, int] = defaultdict(int)
        self._count = 0
        self._total = 0

    def record(self, value: int, weight: int = 1) -> None:
        self._bins[value] += weight
        self._count += weight
        self._total += value * weight

    def clear(self) -> None:
        """Drop every sample in place (identity-preserving, like
        :meth:`Counter.clear`)."""
        self._bins.clear()
        self._count = 0
        self._total = 0

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        if self._count == 0:
            return 0.0
        return self._total / self._count

    @property
    def min(self) -> int:
        if not self._bins:
            raise ValueError("empty histogram has no min")
        return min(self._bins)

    @property
    def max(self) -> int:
        if not self._bins:
            raise ValueError("empty histogram has no max")
        return max(self._bins)

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
        if self._count == 0:
            raise ValueError("empty histogram has no percentiles")
        if p == 0.0:
            return self.min
        threshold = p * self._count
        running = 0
        for value in sorted(self._bins):
            running += self._bins[value]
            if running >= threshold:
                return value
        return max(self._bins)

    def items(self) -> Iterable[Tuple[int, int]]:
        return sorted(self._bins.items())


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

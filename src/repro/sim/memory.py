"""Main-memory timing model.

The paper's configuration (Table 3): 4 GB of DRAM at a flat 300-cycle
latency, with the number of outstanding requests bounded at the
processor (8 MSHRs).  A small channel-occupancy term serializes
back-to-back transfers so that miss floods cannot exceed a realistic
pin bandwidth.
"""

from __future__ import annotations

from repro.sim.stats import Counter


class MainMemory:
    """Flat-latency DRAM with a serialized channel."""

    def __init__(self, latency_cycles: int = 300,
                 channel_cycles_per_access: int = 4) -> None:
        if latency_cycles < 0 or channel_cycles_per_access < 0:
            raise ValueError("latencies must be non-negative")
        self.latency_cycles = latency_cycles
        self.channel_cycles_per_access = channel_cycles_per_access
        self._channel_busy_until = 0
        self.stats = Counter()

    def read(self, time: int) -> int:
        """Fetch a block; returns the cycle its critical word arrives."""
        start = max(time, self._channel_busy_until)
        self._channel_busy_until = start + self.channel_cycles_per_access
        self.stats.counts["reads"] += 1
        return start + self.latency_cycles

    def write(self, time: int) -> int:
        """Write a block back; returns the cycle the buffer accepts it.

        Writebacks are absorbed by a write buffer and drain in idle
        channel slots, so they do not contend with demand reads — and,
        because they are issued at future completion times, letting them
        reserve the shared channel would falsely delay earlier reads
        under the scalar busy-until model.
        """
        self.stats.counts["writes"] += 1
        return time + self.channel_cycles_per_access

    def reset_stats(self) -> None:
        """Zero the counters in place, preserving channel busy state.

        In-place so a :class:`~repro.obs.registry.MetricsRegistry`
        holding this counter keeps observing the live object.
        """
        self.stats.clear()

    def reset(self) -> None:
        self._channel_busy_until = 0
        self.stats.clear()

"""Tests for the main-memory model."""

import pytest

from repro.sim.memory import MainMemory


class TestReads:
    def test_flat_latency(self):
        mem = MainMemory(latency_cycles=300)
        assert mem.read(100) == 400

    def test_channel_serializes_reads(self):
        mem = MainMemory(latency_cycles=300, channel_cycles_per_access=4)
        first = mem.read(0)
        second = mem.read(0)
        assert second == first + 4

    def test_idle_channel_no_queueing(self):
        mem = MainMemory()
        mem.read(0)
        assert mem.read(1000) == 1300

    def test_read_counted(self):
        mem = MainMemory()
        mem.read(0)
        mem.read(0)
        assert mem.stats["reads"] == 2


class TestWrites:
    def test_write_buffered_fast(self):
        mem = MainMemory(channel_cycles_per_access=4)
        assert mem.write(50) == 54

    def test_writes_do_not_block_reads(self):
        """Writebacks drain through a write buffer; a future-scheduled
        write must not delay an earlier demand read."""
        mem = MainMemory(latency_cycles=300)
        mem.write(10_000)  # scheduled far in the future (refill eviction)
        assert mem.read(0) == 300

    def test_write_counted(self):
        mem = MainMemory()
        mem.write(0)
        assert mem.stats["writes"] == 1


class TestChannel:
    def test_write_does_not_reserve_channel(self):
        mem = MainMemory(latency_cycles=300, channel_cycles_per_access=4)
        mem.write(0)
        assert mem.read(0) == 300

    def test_back_to_back_reads_queue_fifo(self):
        mem = MainMemory(latency_cycles=300, channel_cycles_per_access=4)
        assert [mem.read(0) for _ in range(4)] == [300, 304, 308, 312]

    def test_zero_channel_cost_never_queues(self):
        mem = MainMemory(latency_cycles=100, channel_cycles_per_access=0)
        assert mem.read(0) == 100
        assert mem.read(0) == 100


class TestLifecycle:
    def test_reset(self):
        mem = MainMemory()
        mem.read(0)
        mem.write(0)
        mem.reset()
        assert mem.stats["reads"] == 0
        assert mem.read(0) == mem.latency_cycles  # channel state cleared

    def test_reset_stats_preserves_channel_state(self):
        """The warmup boundary zeroes counters but must not release the
        channel: timing continuity across the boundary is what makes
        warmup realistic."""
        mem = MainMemory(latency_cycles=300, channel_cycles_per_access=4)
        mem.read(0)
        mem.reset_stats()
        assert mem.stats["reads"] == 0
        assert mem.read(0) == 304  # still queued behind the first read

    def test_invalid_latency(self):
        with pytest.raises(ValueError):
            MainMemory(latency_cycles=-1)

    def test_invalid_channel_cost(self):
        with pytest.raises(ValueError):
            MainMemory(channel_cycles_per_access=-1)


class TestMemoryInSystem:
    """A non-default DRAM model reaches the replayed execution time."""

    def test_slower_dram_costs_cycles(self):
        from repro.sim.system import run_system

        # swim streams, so it actually misses to DRAM at this length.
        fast = run_system("TLC", "swim", n_refs=1500, seed=3,
                          memory=MainMemory(latency_cycles=100))
        slow = run_system("TLC", "swim", n_refs=1500, seed=3,
                          memory=MainMemory(latency_cycles=600))
        assert fast.l2_misses > 0
        assert slow.cycles > fast.cycles

"""Tests for point-to-point link timing and contention semantics.

The links are the TLC controller's per-pair transmission lines; these
tests drive the request link of a centre pair, whose lines reach the
controller without extra wire delay, so a message put on the link at
``time`` starts there.
"""

import pytest
from hypothesis import given, strategies as st

from repro.core.config import TLC_BASE
from repro.core.controller import FLIGHT_CYCLES, TLCController
from repro.interconnect.message import flits_for_bits, REQUEST_BITS, BLOCK_BITS
from repro.obs.registry import MetricsRegistry

#: a pair with no controller wire delay; its request link is 64 bits.
PAIR = TLC_BASE.controller_rt_delays.index(0)


def send(controller, time, bits, contend=True):
    """Put a message on the pair's request link at ``time``; returns
    the cycles its first and last flits arrive."""
    return controller.send_request(PAIR, time, bits, contend)


class TestFlits:
    def test_exact_fit(self):
        assert flits_for_bits(64, 64) == 1

    def test_round_up(self):
        assert flits_for_bits(65, 64) == 2

    def test_block_on_8byte_link(self):
        assert flits_for_bits(BLOCK_BITS, 64) == 8

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            flits_for_bits(0, 64)
        with pytest.raises(ValueError):
            flits_for_bits(64, 0)


class TestIdleLink:
    def test_single_flit_timing(self):
        first, last = send(TLCController(TLC_BASE), 100, REQUEST_BITS)
        assert first == 101
        assert last == 101

    def test_multi_flit_timing(self):
        first, last = send(TLCController(TLC_BASE), 100, BLOCK_BITS)
        assert first == 101      # critical word
        assert last == 108       # tail flit: 8 flits

    def test_flight_cycles_add_latency(self):
        """Every pair's request lands one flight after the controller
        wire delay."""
        controller = TLCController(TLC_BASE)
        for pair in range(TLC_BASE.pairs):
            first, _ = controller.send_request(pair, 0, 64)
            assert first == controller.request_delay(pair) + FLIGHT_CYCLES


class TestContention:
    def test_back_to_back_serializes(self):
        controller = TLCController(TLC_BASE)
        send(controller, 0, BLOCK_BITS)   # occupies cycles 0..7
        first, _ = send(controller, 0, REQUEST_BITS)
        assert first == 8 + FLIGHT_CYCLES  # queued 8 cycles

    def test_gap_avoids_queueing(self):
        controller = TLCController(TLC_BASE)
        send(controller, 0, BLOCK_BITS)
        first, _ = send(controller, 50, REQUEST_BITS)
        assert first == 50 + FLIGHT_CYCLES

    def test_non_contending_send_does_not_reserve(self):
        controller = TLCController(TLC_BASE)
        send(controller, 100, BLOCK_BITS, contend=False)
        first, _ = send(controller, 100, REQUEST_BITS)
        assert first == 100 + FLIGHT_CYCLES

    def test_non_contending_send_still_metered(self):
        controller = TLCController(TLC_BASE)
        registry = MetricsRegistry()
        controller.register_metrics(registry.scope("link"))
        send(controller, 0, BLOCK_BITS, contend=False)
        assert controller.meter.busy_cycles == 8
        snapshot = registry.snapshot()
        assert snapshot[f"link.pair{PAIR:02d}.req.bits_sent"] == BLOCK_BITS
        assert snapshot[f"link.pair{PAIR:02d}.req.transfers"] == 1


@given(st.lists(st.tuples(st.integers(0, 1000), st.integers(1, 512)),
                min_size=1, max_size=60))
def test_fifo_invariants(messages):
    """Transfers never overlap on the link and never start before both
    their send time and the prior transfer's completion."""
    controller = TLCController(TLC_BASE)
    messages = sorted(messages)  # arrival-ordered, as the designs guarantee
    prev_busy_end = 0
    for send_time, bits in messages:
        first, last = send(controller, send_time, bits)
        start = first - FLIGHT_CYCLES
        flits = flits_for_bits(bits, TLC_BASE.request_link_bits)
        assert start >= send_time
        assert start >= prev_busy_end
        prev_busy_end = start + flits
        assert last - first == flits - 1
